"""Optimal scheduling and rate/power allocation for multiuser orthogonal
fading channels under quantized channel-state information.

The transmitter only knows, per user and channel, which quantization region
the fading gain fell into. This package provides:

* the fading/quantization layer (``channel``, ``quantizer``),
* per-region power-rate couplings for four QoS families (``powerrate``),
* the winner-takes-all scheduler, its ε-smooth relaxation and the tie LP
  (``allocator``, ``simplex``),
* exact and stochastic dual evaluations (``dual``) and the offline/online
  multiplier solvers (``solver``),
* feedback-overhead accounting and scheme benchmarking (``analysis``),
* a JSON-config experiment runner (``qcsched`` console script, ``cli``).
"""

from .allocator import (DEFAULT_RATE_CAP, InfeasibleTargetsError,
                        Multipliers, RateCostTables, TieInfeasibleError,
                        TieInstance, TieSolution, build_tables,
                        check_targets, find_tie_instances, smooth_weights,
                        solve_tie_lp)
from .analysis import (CompareSetup, OverheadReport, compare_schemes,
                       feedback_bits, mc_primal, sweep_regions)
from .channel import (FadingModel, sample_gain_blocks, sample_gains,
                      snr_db_to_mean_gain)
from .dual import (DualEvaluation, PerfectCSI, Problem, block_allocation,
                   exact_dual)
from .powerrate import (ErgodicCapacity, MaxAvgBer, MaxInstBer, NumericError,
                        OutageCapacity, PowerRate, RegionContext,
                        delta_outage_gain, make_model, region_contexts)
from .quantizer import (DEFAULT_ENUM_BUDGET, EnumerationBudgetError,
                        QuantizerGrid, build_equiprobable, build_random,
                        channel_classes, column_space, quantize,
                        region_prob_table)
from .simplex import LPInfeasibleError, LPUnboundedError, solve_lp
from .solver import (OnlineResult, SolverConfig, Trajectory,
                     run_offline_newton, run_offline_nonsmooth,
                     run_offline_smooth, run_online)
from .special import exp1, exp1_scaled

__version__ = "0.1.0"

__all__ = [
    "CompareSetup", "DEFAULT_ENUM_BUDGET", "DEFAULT_RATE_CAP",
    "DualEvaluation", "EnumerationBudgetError",
    "ErgodicCapacity", "FadingModel", "InfeasibleTargetsError",
    "LPInfeasibleError", "LPUnboundedError", "MaxAvgBer", "MaxInstBer",
    "Multipliers", "NumericError", "OnlineResult", "OutageCapacity",
    "OverheadReport", "PerfectCSI", "PowerRate", "Problem", "QuantizerGrid",
    "RateCostTables", "RegionContext", "SolverConfig",
    "TieInfeasibleError", "TieInstance", "TieSolution", "Trajectory",
    "block_allocation", "build_equiprobable", "build_random",
    "build_tables", "channel_classes", "check_targets", "column_space",
    "compare_schemes", "delta_outage_gain", "exact_dual", "exp1",
    "exp1_scaled", "feedback_bits", "find_tie_instances", "make_model",
    "mc_primal", "quantize", "region_contexts",
    "region_prob_table", "run_offline_newton", "run_offline_nonsmooth",
    "run_offline_smooth", "run_online", "sample_gain_blocks",
    "sample_gains", "smooth_weights",
    "snr_db_to_mean_gain", "solve_lp", "solve_tie_lp", "sweep_regions",
]
