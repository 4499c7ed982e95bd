"""Batch experiment runner: JSON config in, CSV tables + summary.json out.

Config schema (strict — unknown keys anywhere are rejected):

{
  "mode": "offline_smooth" | "offline_nonsmooth" | "online" | "compare"
          | "sweep_regions" | "overhead",
  "out_dir": "results",                      # optional; --out overrides
  "fading": {
    "num_users": 4, "num_channels": 16,
    "snr_db": 6.0,                           # scalar or one per user …
    "mean_gain": [[...], ...],               # … or an explicit M x K matrix
    "seed": 0                                # u64; --seed overrides
  },
  "quantizer": {
    "type": "equiprobable" | "random" | "explicit",
    "regions": 4,
    "gain_range": [0.0, 12.0], "seed": 7,    # random only
    "thresholds": [[[0.0, ..., "inf"]]]      # explicit only
  },
  "power_rate": {"family": "outage_capacity", "params": {...}},
  "targets": [4, 8, 12, 16],
  "mu": [1, 1, 1, 1],                        # optional, defaults to ones
  "rate_cap": 12.0, "enum_budget": 1000000,  # optional
  "solver": {"beta": 0.01, "kappa": 0.1, "init": 0.1, "tol": 0.001,
             "max_iters": 200000, "eps": 0.05,
             "record_every": 1},             # optional, all defaulted
  "online":  {"num_blocks": 10000},          # online mode
  "compare": {"schemes": [...], "snr_db": [...],            # compare mode
              "ra4_seed": 7, "ra4_range_scale": 3.0},
  "sweep":   {"regions": [2, 3, 4, 6, 8]}          # sweep_regions mode
}

Omitted ``solver`` keys take the ``SolverConfig`` defaults (in compare and
sweep_regions modes the ``CompareSetup`` ones, where it has the key) and
omitted RA knobs the ``CompareSetup`` defaults; ``rate_cap`` defaults to
``DEFAULT_RATE_CAP``. ``init`` and ``tol`` may be per-user lists in every
mode, compare and sweep included. Compare and sweep solve smooth points by
damped Newton (first damping 1/``solver.beta``); RA2 repeats it at ε/4, ε/16,
… until its tie-LP power and hard dual (``dual_bound``) differ by ≤ λ·tol.
RA1, perfect CSI, is the exact hard dual at known gains, solved by the same
Newton; sweep_regions ends with its row, ``regions`` = inf.

Artifacts: every mode writes `summary.json`, with a solver mode's final
multipliers, `reason` (why the loop stopped) and the rates and power the run
serves (its last iterate; the non-smooth baseline's step-weighted average
over the second half of `max_iters`; the final online sample average), or a
row mode's rows; `converged` is solver.serves_targets on each. Solver modes
add `trajectory.csv` (`iter,lambda_1..M,subgrad_1..M,rate_1..M,power`; online
rate columns are running sample means); compare adds `compare.csv`
(`scheme,snr_db,avg_power_db,avg_rate_1..M`); sweep_regions adds `sweep.csv`.
CSV bytes are identical across reruns of the same config + fading seed.

``power_rate.params`` are the family's physical ones only (the root-find
tolerance and step budget are ``powerrate`` constants).

Exit codes: 0 ok; 2 config/schema error, targets no allocation can meet
(named by a violated user subset) or a column space beyond ``enum_budget``,
on any problem of any SNR point the run solves (nothing written); 3 the run
or a row did not converge (artifacts still written); 4 numeric failure (a
root-find, a tie LP or floating point), printed and written to summary.json
as ``mode``, ``converged: false`` and ``error``, plus the ``residual`` of a
failed root-find.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .allocator import DEFAULT_RATE_CAP, TieInfeasibleError
from .analysis import (CompareSetup, check_rows, compare_schemes,
                       feedback_bits, power_db, sweep_regions)
from .channel import FadingModel, snr_db_to_mean_gain
from .powerrate import NumericError, make_model
from .quantizer import (DEFAULT_ENUM_BUDGET, EnumerationBudgetError,
                        QuantizerGrid, build_equiprobable, build_random)
from .simplex import LPInfeasibleError, LPUnboundedError
from .solver import (Problem, SolverConfig, run_offline_nonsmooth,
                     run_offline_smooth, run_online, write_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERIC = 4

SOLVER_MODES = ("offline_smooth", "offline_nonsmooth", "online")
MODES = (*SOLVER_MODES, "compare", "sweep_regions", "overhead")
SCHEMES = ("RA1", "RA2", "RA3", "RA4", "RA5")

_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}
# solver key -> (lower bound, integer); init and tol also take per-user lists
_SOLVER_BOUNDS = {"beta": (None, False), "kappa": (None, False),
                  "init": (0.0, False), "tol": (None, False),
                  "max_iters": (1, True), "eps": (None, False),
                  "record_every": (1, True)}
# RA knob -> (lower bound, integer), for the compare section
_RA_KNOBS = {"ra4_seed": (0, True), "ra4_range_scale": (0.0, False)}
_SETUP_DEFAULTS = {f.name: f.default for f in fields(CompareSetup)}


class ConfigError(Exception):
    pass


# --- strict schema helpers ---------------------------------------------------

def _reject_unknown(d: dict, allowed, where: str) -> None:
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown keys {extra}")


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return d[key]


def _number(v, where: str, lo=None, hi=None, integer=False):
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) < math.inf):      # JSON's NaN and ±Infinity
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where}: must be >= {lo}, got {v!r}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where}: must be <= {hi}, got {v!r}")
    return int(v) if integer else float(v)


def _num_list(v, where: str, length=None, lo=None):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a nonempty list")
    if length is not None and len(v) != length:
        raise ConfigError(f"{where}: expected {length} entries, got {len(v)}")
    return [_number(x, f"{where}[{i}]", lo=lo) for i, x in enumerate(v)]


def _section(cfg: dict, key: str, where="config") -> dict:
    v = cfg.get(key, {})
    if not isinstance(v, dict):
        raise ConfigError(f"{where}.{key}: expected an object")
    return v


def _ra_knobs(section: dict, where: str) -> dict:
    """The RA knobs present in ``section``, validated."""
    out = {}
    for key, (lo, integer) in _RA_KNOBS.items():
        if key in section:
            out[key] = _number(section[key], f"{where}.{key}", lo=lo,
                               integer=integer)
    return out


def resolve_config(raw: dict) -> dict:
    """Validate the raw JSON document and fill in every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, ("mode", "out_dir", "fading", "quantizer",
                          "power_rate", "targets", "mu", "rate_cap",
                          "enum_budget", "solver", "online", "compare",
                          "sweep"), "config")
    mode = _need(raw, "mode", "config")
    if mode not in MODES:
        raise ConfigError(f"config.mode: expected one of {MODES}, got {mode!r}")
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("config.out_dir: expected a string")

    fad = _need(raw, "fading", "config")
    if not isinstance(fad, dict):
        raise ConfigError("config.fading: expected an object")
    _reject_unknown(fad, ("num_users", "num_channels", "snr_db", "mean_gain",
                          "seed"), "fading")
    M = _number(_need(fad, "num_users", "fading"), "fading.num_users",
                lo=1, integer=True)
    K = _number(_need(fad, "num_channels", "fading"), "fading.num_channels",
                lo=1, integer=True)
    seed = _number(fad.get("seed", 0), "fading.seed", lo=0,
                   hi=2 ** 64 - 1, integer=True)
    rfad = {"num_users": M, "num_channels": K, "seed": seed}
    if ("snr_db" in fad) == ("mean_gain" in fad):
        raise ConfigError("fading: give exactly one of snr_db / mean_gain")
    if "snr_db" in fad:
        v = fad["snr_db"]
        rfad["snr_db"] = (_num_list(v, "fading.snr_db", length=M)
                          if isinstance(v, list)
                          else _number(v, "fading.snr_db"))
    else:
        mg = fad["mean_gain"]
        if (not isinstance(mg, list) or len(mg) != M
                or any(not isinstance(r, list) or len(r) != K for r in mg)):
            raise ConfigError("fading.mean_gain: expected an M x K matrix")
        rfad["mean_gain"] = [_num_list(r, f"fading.mean_gain[{i}]", length=K)
                             for i, r in enumerate(mg)]
        if min(min(r) for r in rfad["mean_gain"]) <= 0:
            raise ConfigError("fading.mean_gain: entries must be positive")

    qc = _need(raw, "quantizer", "config")
    if not isinstance(qc, dict):
        raise ConfigError("config.quantizer: expected an object")
    _reject_unknown(qc, ("type", "regions", "gain_range", "seed",
                         "thresholds"), "quantizer")
    qtype = qc.get("type", "equiprobable")
    if qtype not in ("equiprobable", "random", "explicit"):
        raise ConfigError(f"quantizer.type: unknown type {qtype!r}")
    if mode in ("compare", "sweep_regions", "overhead") and qtype != "equiprobable":
        raise ConfigError(f"quantizer.type: {mode} mode builds its own "
                          "ladders and needs type 'equiprobable'")
    rq = {"type": qtype}
    if qtype == "explicit":
        if "regions" in qc or "gain_range" in qc or "seed" in qc:
            raise ConfigError("quantizer: explicit type takes only thresholds")
        rq["thresholds"] = _need(qc, "thresholds", "quantizer")
    else:
        rq["regions"] = _number(_need(qc, "regions", "quantizer"),
                                "quantizer.regions", lo=2, integer=True)
        if qtype == "random":
            lohi = _num_list(_need(qc, "gain_range", "quantizer"),
                             "quantizer.gain_range", length=2, lo=0.0)
            if lohi[0] >= lohi[1]:
                raise ConfigError("quantizer.gain_range: need lo < hi")
            rq["gain_range"] = lohi
            rq["seed"] = _number(qc.get("seed", 0), "quantizer.seed", lo=0,
                                 integer=True)
        elif "gain_range" in qc or "seed" in qc or "thresholds" in qc:
            raise ConfigError("quantizer: equiprobable type takes only regions")

    pr = _need(raw, "power_rate", "config")
    if not isinstance(pr, dict):
        raise ConfigError("config.power_rate: expected an object")
    _reject_unknown(pr, ("family", "params"), "power_rate")
    family = _need(pr, "family", "power_rate")
    params = pr.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("power_rate.params: expected an object")

    targets = _num_list(_need(raw, "targets", "config"), "targets",
                        length=M, lo=0.0)
    mu = _num_list(raw.get("mu", [1.0] * M), "mu", length=M)
    if min(mu) <= 0:
        raise ConfigError("mu: entries must be positive")
    rate_cap = _number(raw.get("rate_cap", DEFAULT_RATE_CAP), "rate_cap",
                       lo=0.0)
    enum_budget = _number(raw.get("enum_budget", DEFAULT_ENUM_BUDGET),
                          "enum_budget", lo=1, integer=True)

    sv = _section(raw, "solver")
    _reject_unknown(sv, _SOLVER_DEFAULTS, "solver")
    rsv = {}
    for key, default in _SOLVER_DEFAULTS.items():
        if mode in ("compare", "sweep_regions"):    # solved via CompareSetup
            default = _SETUP_DEFAULTS.get(key, default)
        v, where = sv.get(key, default), f"solver.{key}"
        lo, integer = _SOLVER_BOUNDS[key]
        if key in ("init", "tol") and isinstance(v, list):
            rsv[key] = _num_list(v, where, length=M, lo=lo)
        else:
            rsv[key] = _number(v, where, lo=lo, integer=integer)

    resolved = {"mode": mode, "out_dir": out_dir, "fading": rfad,
                "quantizer": rq,
                "power_rate": {"family": family, "params": params},
                "targets": targets, "mu": mu, "rate_cap": rate_cap,
                "enum_budget": enum_budget, "solver": rsv}

    if mode == "online":
        on = _section(raw, "online")
        _reject_unknown(on, ("num_blocks",), "online")
        resolved["online"] = {
            "num_blocks": _number(_need(on, "num_blocks", "online"),
                                  "online.num_blocks", lo=1, integer=True)}
    elif "online" in raw:
        raise ConfigError("config.online: only valid in online mode")

    if mode == "compare":
        cp = _section(raw, "compare")
        _reject_unknown(cp, ("schemes", "snr_db", *_RA_KNOBS), "compare")
        schemes = cp.get("schemes", list(SCHEMES))
        if (not isinstance(schemes, list) or not schemes
                or any(s not in SCHEMES for s in schemes)):
            raise ConfigError(f"compare.schemes: expected a subset of {SCHEMES}")
        rcp = {"schemes": schemes}
        if "snr_db" in cp:
            if "snr_db" not in rfad:
                raise ConfigError(
                    "compare.snr_db sweep requires snr_db-style fading")
            rcp["snr_db"] = _num_list(cp["snr_db"], "compare.snr_db")
        rcp.update(_ra_knobs({**_SETUP_DEFAULTS, **cp}, "compare"))
        resolved["compare"] = rcp
    elif "compare" in raw:
        raise ConfigError("config.compare: only valid in compare mode")

    if mode == "sweep_regions":
        sw = _section(raw, "sweep")
        _reject_unknown(sw, ("regions",), "sweep")
        regions = _need(sw, "regions", "sweep")
        if not isinstance(regions, list) or not regions:
            raise ConfigError("sweep.regions: expected a nonempty list")
        rlist = [_number(x, f"sweep.regions[{i}]", lo=2, integer=True)
                 for i, x in enumerate(regions)]
        resolved["sweep"] = {"regions": rlist}
    elif "sweep" in raw:
        raise ConfigError("config.sweep: only valid in sweep_regions mode")

    return resolved


# --- builders ----------------------------------------------------------------

def _build_fading(fad: dict) -> FadingModel:
    M, K = fad["num_users"], fad["num_channels"]
    if "mean_gain" in fad:
        mg = np.asarray(fad["mean_gain"], dtype=float)
    else:
        snr = np.asarray(fad["snr_db"], dtype=float)
        per_user = np.broadcast_to(snr_db_to_mean_gain(snr), (M,))
        mg = np.repeat(per_user[:, None], K, axis=1)
    return FadingModel(mean_gain=mg, seed=fad["seed"])


def _build_grid(rc: dict, fading: FadingModel) -> QuantizerGrid:
    qc = rc["quantizer"]
    if qc["type"] == "equiprobable":
        return build_equiprobable(fading, qc["regions"])
    if qc["type"] == "random":
        return build_random(fading, qc["regions"], tuple(qc["gain_range"]),
                            qc["seed"])
    thr = qc["thresholds"]

    def dec(v):
        if v == "inf":
            return np.inf
        return _number(v, "quantizer.thresholds entry")
    try:
        arr = np.array([[[dec(v) for v in ladder] for ladder in row]
                        for row in thr], dtype=float)
        return QuantizerGrid(thresholds=arr, mean_gain=fading.mean_gain)
    except (ValueError, TypeError, ConfigError) as exc:
        raise ConfigError(f"quantizer.thresholds: {exc}") from None


def _build_run(rc: dict, log_every: int | None):
    """Build the run once and check its targets and enumeration budget on
    what was built: returns the SolverConfig and the Problem (solver modes),
    one (snr_db, CompareSetup) per SNR point, each compare.snr_db entry else
    the fading SNR or NaN, with every row problem checked (row modes), or
    None."""
    family, params = rc["power_rate"]["family"], rc["power_rate"]["params"]
    params = {k: _number(v, f"power_rate.params.{k}")
              for k, v in params.items()}
    try:
        model = make_model(family, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"power_rate: {exc}") from None
    sv = dict(rc["solver"])
    if log_every:
        sv["record_every"] = log_every
    sv["init"] = np.asarray(sv["init"], dtype=float)
    sv["tol"] = np.asarray(sv["tol"], dtype=float)
    try:
        cfg = SolverConfig(**sv)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    mode, fad = rc["mode"], rc["fading"]
    if mode == "overhead":
        return cfg, None
    mu = np.asarray(rc["mu"], dtype=float)
    targets = np.asarray(rc["targets"], dtype=float)
    if mode in SOLVER_MODES:
        fading = _build_fading(fad)
        problem = Problem(grid=_build_grid(rc, fading), model=model, mu=mu,
                          targets=targets, fading=fading,
                          rate_cap=rc["rate_cap"],
                          enum_budget=rc["enum_budget"])
        problem.check_targets()
        if mode != "online":    # the online loop never enumerates; the
            problem.space       # space raises EnumerationBudgetError
        return cfg, problem

    knobs = rc.get("compare", {})
    if "snr_db" in knobs:
        points = [(snr, {**fad, "snr_db": snr}) for snr in knobs["snr_db"]]
    else:
        snr = fad.get("snr_db")
        points = [(float(snr) if isinstance(snr, (int, float)) else math.nan,
                   fad)]
    setups = [(snr, CompareSetup(
        fading=_build_fading(f), regions=rc["quantizer"]["regions"],
        model=model, mu=mu, targets=targets, eps=cfg.eps,
        rate_cap=rc["rate_cap"], enum_budget=rc["enum_budget"],
        beta=cfg.beta, tol=cfg.tol, max_iters=cfg.max_iters, init=cfg.init,
        **{k: v for k, v in knobs.items() if k in _RA_KNOBS}))
        for snr, f in points]
    for _, setup in setups:
        check_rows(setup, knobs.get("schemes", ()),
                   rc.get("sweep", {}).get("regions", ()))
    return cfg, setups


# --- output helpers ----------------------------------------------------------

def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _write_summary(outdir: Path, payload: dict) -> None:
    with open(outdir / "summary.json", "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- mode runners ------------------------------------------------------------

def _progress_printer(log_every: int | None, label: str):
    if not log_every:
        return None

    def progress(i, lam, g):
        if i % log_every == 0:
            print(f"{label} iter={i} max|subgrad|={np.max(np.abs(g)):.6g}",
                  file=sys.stderr)
    return progress


def _run_solver_mode(rc: dict, problem: Problem, cfg: SolverConfig,
                     outdir: Path, log_every: int | None) -> int:
    mode = rc["mode"]
    progress = _progress_printer(log_every, mode.split("_")[-1])
    t0 = time.perf_counter()
    if mode == "online":
        res = run_online(problem, cfg, rc["online"]["num_blocks"], progress)
        traj, final_lambda = res.trajectory, res.final_lambda
    else:
        traj = (run_offline_smooth(problem, cfg, progress)[1]
                if mode == "offline_smooth"
                else run_offline_nonsmooth(problem, cfg, progress))
        final_lambda = traj.lam[-1]
    wall = time.perf_counter() - t0

    with open(outdir / "trajectory.csv", "w", newline="\n") as fh:
        traj.write_csv(fh)
    K = problem.grid.num_channels
    _write_summary(outdir, {
        "mode": mode, "converged": traj.converged, "reason": traj.reason,
        "final_lambda": final_lambda, "avg_rates": traj.served_rates,
        "avg_power": traj.served_power,
        "avg_power_db": power_db(traj.served_power),
        "targets": problem.targets, "eps": cfg.eps,
        "eps_prime": K * cfg.eps, "iterations": int(traj.iters[-1]) + 1,
        "wall_time_s": wall})
    return EXIT_OK if traj.converged else EXIT_NOT_CONVERGED


def _run_rows(rc: dict, setups: list, outdir: Path) -> int:
    """Row modes: compare_schemes or sweep_regions at each (snr_db,
    CompareSetup) point, each row labelled with its point's snr_db; writes
    compare.csv (scheme, snr_db) or sweep.csv (regions), then avg_power_db
    and avg_rate_1..M, and summary.json, and returns the exit code."""
    t0 = time.perf_counter()
    rows = []
    for snr, setup in setups:
        if rc["mode"] == "compare":
            point = compare_schemes(setup, rc["compare"]["schemes"])
        else:
            point = sweep_regions(setup, rc["sweep"]["regions"])
        rows += [{**row, "snr_db": snr} for row in point]
    wall = time.perf_counter() - t0

    csv_name, lead = (("compare.csv", ["scheme", "snr_db"])
                      if rc["mode"] == "compare" else ("sweep.csv", ["regions"]))
    M = rc["fading"]["num_users"]
    header = [*lead, "avg_power_db"] + [f"avg_rate_{m+1}" for m in range(M)]
    csv_rows = [[*(r[k] for k in lead), r["power_db"],
                 *np.asarray(r["avg_rates"], dtype=float)] for r in rows]
    with open(outdir / csv_name, "w", newline="\n") as fh:
        write_csv(fh, header, csv_rows)
    converged = all(r["converged"] for r in rows)
    _write_summary(outdir, {
        "mode": rc["mode"], "converged": converged,
        "rows": [{k: v for k, v in r.items() if k != "lambda"} for r in rows],
        "wall_time_s": wall})
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _run_overhead(rc: dict, outdir: Path) -> int:
    fad = rc["fading"]
    regions = rc["quantizer"]["regions"]
    rep = feedback_bits(fad["num_users"], fad["num_channels"], regions)
    _write_summary(outdir, {
        "mode": "overhead", "converged": True,
        "num_users": fad["num_users"], "num_channels": fad["num_channels"],
        "regions": regions, "full_qcsi_bits": rep.full_qcsi_bits,
        "allocation_bits": rep.allocation_bits,
        "per_channel_bits": rep.per_channel_bits, "wall_time_s": 0.0})
    return EXIT_OK


# --- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcsched",
        description="Quantized-CSI scheduling experiments from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON "
                        "experiment config")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: config out_dir, else '.')")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the fading seed")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate, print the resolved config, exit")
    parser.add_argument("--log-every", type=int, default=None, metavar="S",
                        help="record/report every S-th iterate (solver "
                        "modes only)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        rc = resolve_config(raw)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a nonnegative integer")
            rc["fading"]["seed"] = args.seed
        if args.log_every is not None and not (
                args.log_every >= 1 and rc["mode"] in SOLVER_MODES):
            raise ConfigError("--log-every: solver modes only, S >= 1")
        # value errors (bad thresholds, shapes, unreachable targets) and
        # enumeration budgets surface here, before any artifact is written
        cfg, work = _build_run(rc, args.log_every)
    except (ConfigError, ValueError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dry_run:
        print(json.dumps(_jsonable(rc), indent=2, sort_keys=True))
        return EXIT_OK

    outdir = Path(args.out if args.out is not None else rc["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        if rc["mode"] in SOLVER_MODES:
            return _run_solver_mode(rc, work, cfg, outdir, args.log_every)
        if rc["mode"] == "overhead":
            return _run_overhead(rc, outdir)
        return _run_rows(rc, work, outdir)
    except (NumericError, LPInfeasibleError, LPUnboundedError,
            TieInfeasibleError, FloatingPointError) as exc:
        failure = {"mode": rc["mode"], "converged": False, "error": str(exc)}
        tail = ""
        if isinstance(exc, NumericError):
            failure["residual"] = exc.residual
            tail = f" (residual {exc.residual:.6g})"
        print(f"error: numeric failure: {exc}{tail}", file=sys.stderr)
        _write_summary(outdir, failure)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
