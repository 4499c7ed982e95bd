"""Batch experiment runner: JSON config in, CSV tables + summary.json out.

Config shape. ``SCHEMA`` states, for each key, the modes that read it, the
values it takes and its default. A config may set only the keys its mode
reads (``READS``); any other key exits 2.

{
  "mode": "offline_smooth" | "offline_nonsmooth" | "online" | "compare"
          | "sweep_regions" | "overhead",
  "out_dir": "results",                      # --out overrides
  "fading": {
    "num_users": 4, "num_channels": 16,
    "snr_db": 6.0,                           # scalar or one per user …
    "mean_gain": [[...], ...],               # … or an M x K matrix
    "seed": 0                                # u64, --seed overrides
  },
  "quantizer": {
    "type": "equiprobable" | "random" | "explicit",
    "regions": 4,
    "gain_range": [0.0, 12.0], "seed": 7,    # random
    "thresholds": [[[0.0, ..., "inf"]]]      # explicit
  },
  "power_rate": {"family": "outage_capacity",
                 "params": {...}},           # the family's physical ones
  "targets": [4, 8, 12, 16],
  "mu": [1, 1, 1, 1],
  "rate_cap": 12.0,
  "enum_budget": 1000000,
  "solver": {"init": 0.1, "tol": 0.001,      # init, tol: scalar or per user
             "eps": 0.05, "beta": 0.01, "kappa": 0.1, "max_iters": 200000,
             "record_every": 1},             # --log-every overrides
  "online":  {"num_blocks": 10000},
  "compare": {"schemes": [...], "snr_db": [...],
              "ra4_seed": 7, "ra4_range_scale": 3.0},
  "sweep":   {"regions": [2, 3, 4, 6, 8]}
}

Compare and sweep solve smooth points by damped Newton (first damping
1/``solver.beta``); RA2 repeats it at ε/4, ε/16, … until its tie-LP power
and hard dual (``dual_bound``) differ by ≤ λ·tol. RA1, perfect CSI, is the
exact hard dual at known gains, solved by the same Newton; sweep_regions
ends with its row, ``regions`` = inf.

Artifacts: every mode writes `summary.json`, with a solver mode's final
multipliers, `reason` (why the loop stopped) and the rates and power the run
serves (its last iterate; the non-smooth baseline's step-weighted average
over the second half of `max_iters`; the final online sample average), or a
row mode's rows; `converged` is solver.serves_targets on each. Solver modes
add `trajectory.csv` (`iter,lambda_1..M,subgrad_1..M,rate_1..M,power`; online
rate columns are running sample means); compare adds `compare.csv`
(`scheme,snr_db,avg_power_db,avg_rate_1..M`); sweep_regions adds `sweep.csv`.
CSV bytes are identical across reruns of the same config + fading seed.

Exit codes: 0 ok; 2 config/schema error, a run too large to build in
memory, targets no allocation can meet (named by a violated user subset) or
a column space beyond ``enum_budget``, on any problem of any SNR point the
run solves (nothing written): only the smooth dual and the tie search
enumerate, so offline_smooth, sweep rows and RA2-RA4 rows are budgeted, and
the hard dual is not; 3 the run or a row did not converge (artifacts still
written); 4 numeric failure (a root-find, a tie LP or floating point),
printed and written to summary.json as ``mode``, ``converged: false`` and
``error``, plus the ``residual`` of a failed root-find.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .allocator import DEFAULT_RATE_CAP, TieInfeasibleError
from .analysis import (CompareSetup, compare_rows, feedback_bits, power_db,
                       solve_rows, sweep_rows)
from .channel import MAX_SEED, FadingModel, snr_db_to_mean_gain
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
ROW_MODES = ("compare", "sweep_regions")
MODES = (*SOLVER_MODES, *ROW_MODES, "overhead")
SCHEMES = ("RA1", "RA2", "RA3", "RA4", "RA5")
QUANTIZERS = ("equiprobable", "random", "explicit")

REQUIRED, UNSET, FIELD = "required", "absent unless set", "field"


class Key(NamedTuple):
    """One config key, read by ``modes``. ``kind`` is int, float, str, dict,
    object (any value, checked where it is built) or a tuple of choices;
    ``shape`` the list lengths around it, outermost first: None any, a
    number or the value of a key (``or_one``: one value may stand for the
    outer list). Numbers lie in [lo, hi]. ``default`` is a value (repeated
    over a list's length), REQUIRED, UNSET or FIELD: the field of that name
    of CompareSetup in row modes, else of SolverConfig. Only a run whose
    quantizer type is one of ``types`` reads the key, and in compare only
    one with one of ``schemes``."""
    modes: tuple
    kind: type | tuple = float
    shape: tuple = ()
    lo: float | None = None
    hi: float | None = None
    default: object = REQUIRED
    or_one: bool = False
    types: tuple = QUANTIZERS
    schemes: tuple = SCHEMES


_M, _K = "fading.num_users", "fading.num_channels"
# the SNR bound in dB, and a mean gain's: the six bundled configs run with
# no floating-point warning at ±100; at 110 an RA1 row runs about 30 s to
# max_iters (its first λ and Newton damping are absolute)
_SNR_DB = 100.0
_SOLVED = (*SOLVER_MODES, *ROW_MODES)       # overhead counts bits alone
_SMOOTH = ("offline_smooth", "online", *ROW_MODES)
# the keys of the config, in the order they are resolved: a shape names
# only keys resolved before it
SCHEMA = {
    "mode": Key(MODES, MODES),
    "out_dir": Key(MODES, str, default="."),
    _M: Key(MODES, int, lo=1),
    _K: Key(MODES, int, lo=1),
    "fading.seed": Key(("online",), int, lo=0, hi=MAX_SEED, default=0),
    "fading.snr_db": Key(_SOLVED, shape=(_M,), or_one=True, lo=-_SNR_DB,
                         hi=_SNR_DB, default=UNSET),
    "fading.mean_gain": Key(_SOLVED, shape=(_M, _K), default=UNSET,
                            lo=float(snr_db_to_mean_gain(-_SNR_DB)),
                            hi=float(snr_db_to_mean_gain(_SNR_DB))),
    "quantizer.type": Key(MODES, QUANTIZERS, default="equiprobable"),
    "quantizer.regions": Key(MODES, int, lo=2,
                             types=("equiprobable", "random")),
    "quantizer.gain_range": Key(MODES, shape=(2,), lo=0.0, types=("random",)),
    "quantizer.seed": Key(MODES, int, lo=0, hi=MAX_SEED, default=0,
                          types=("random",)),
    "quantizer.thresholds": Key(MODES, object, types=("explicit",)),
    "power_rate.family": Key(_SOLVED, object),
    "power_rate.params": Key(_SOLVED, dict, default={}),
    "targets": Key(_SOLVED, shape=(_M,), lo=0.0),
    "mu": Key(_SOLVED, shape=(_M,), default=1.0),
    # 2^rate_cap overflows past 1024, and RA1's dual from about 1023
    "rate_cap": Key(_SOLVED, lo=0.0, hi=1000.0, default=DEFAULT_RATE_CAP),
    "enum_budget": Key(("offline_smooth", *ROW_MODES), int, lo=1,
                       default=DEFAULT_ENUM_BUDGET,
                       schemes=("RA2", "RA3", "RA4")),     # which enumerate
    "solver.init": Key(_SOLVED, shape=(_M,), or_one=True, lo=0.0,
                       default=FIELD),
    "solver.tol": Key(_SOLVED, shape=(_M,), or_one=True, default=FIELD),
    "solver.eps": Key(_SMOOTH, default=FIELD),
    "solver.beta": Key(_SMOOTH, default=FIELD),
    "solver.kappa": Key(("offline_nonsmooth",), default=FIELD),
    "solver.max_iters": Key(("offline_smooth", "offline_nonsmooth",
                             *ROW_MODES), int, lo=1, default=FIELD),
    "solver.record_every": Key(SOLVER_MODES, int, lo=1, default=FIELD),
    "online.num_blocks": Key(("online",), int, lo=1),
    "compare.schemes": Key(("compare",), SCHEMES, (None,),
                           default=list(SCHEMES)),
    "compare.snr_db": Key(("compare",), shape=(None,), lo=-_SNR_DB,
                          hi=_SNR_DB, default=UNSET),
    "compare.ra4_seed": Key(("compare",), int, lo=0, hi=MAX_SEED,
                            default=FIELD, schemes=("RA4",)),  # its ladder
    "compare.ra4_range_scale": Key(("compare",), lo=0.0, default=FIELD,
                                   schemes=("RA4",)),
    "sweep.regions": Key(("sweep_regions",), int, (None,), lo=2),
}
SECTIONS = {path.partition(".")[0] for path in SCHEMA if "." in path}
# mode -> the keys it reads with some quantizer type and schemes
READS = {mode: tuple(path for path, key in SCHEMA.items() if mode in key.modes)
         for mode in MODES}


class ConfigError(Exception):
    pass


# --- strict schema helpers ---------------------------------------------------

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


def _parse(key: Key, v, where: str, values: dict):
    """``v`` checked against ``key``; ``values`` holds the resolved keys
    its shape names."""
    if key.shape and not (key.or_one and not isinstance(v, list)):
        n = values.get(key.shape[0], key.shape[0])
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{where}: expected a nonempty list")
        if n is not None and len(v) != n:
            raise ConfigError(f"{where}: expected {n} entries, got {len(v)}")
        item = key._replace(shape=key.shape[1:], or_one=False)
        return [_parse(item, x, f"{where}[{i}]", values)
                for i, x in enumerate(v)]
    if key.kind in (int, float):
        return _number(v, where, key.lo, key.hi, key.kind is int)
    if isinstance(key.kind, tuple):
        if v not in key.kind:
            raise ConfigError(f"{where}: expected one of {key.kind}, "
                              f"got {v!r}")
    elif not isinstance(v, key.kind):
        raise ConfigError(f"{where}: expected "
                          + ("a string" if key.kind is str else "an object"))
    return v


def _section(cfg: dict, key: str) -> dict:
    v = cfg.get(key, {})
    if not isinstance(v, dict):
        raise ConfigError(f"config.{key}: expected an object")
    return v


def _value(raw: dict, path: str, knobs: type, values: dict):
    """The value of ``path`` in ``raw`` or else its default, parsed; UNSET
    if it has neither. FIELD defaults come from the class ``knobs``."""
    key = SCHEMA[path]
    section, _, leaf = path.rpartition(".")
    given = _section(raw, section) if section else raw
    if leaf in given:
        return _parse(key, given[leaf], path, values)
    if key.default == UNSET:
        return UNSET
    if key.default == REQUIRED:
        raise ConfigError(f"{section or 'config'}: missing required key "
                          f"'{leaf}'")
    v = getattr(knobs, leaf) if key.default == FIELD else key.default
    if key.shape and not (key.or_one or isinstance(v, list)):
        v = [v] * values[key.shape[0]]
    return _parse(key, v, path, values)


def resolve_config(raw: dict) -> dict:
    """Validate the raw JSON document and fill in the defaults of every key
    its mode reads, and only of those."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    mode = _value(raw, "mode", None, {})
    qtype = _value(raw, "quantizer.type", None, {})
    if mode not in SOLVER_MODES and qtype != "equiprobable":
        raise ConfigError(f"quantizer.type: {mode} mode builds its own "
                          "ladders and needs type 'equiprobable'")
    reads = [path for path in READS[mode] if qtype in SCHEMA[path].types]
    where = f"{mode} mode"
    if mode == "compare":
        schemes = _value(raw, "compare.schemes", None, {})
        unread = [p for p in reads if not {*SCHEMA[p].schemes} & {*schemes}]
        given = [f"schemes {schemes}"] if unread else []
        if "snr_db" in _section(raw, "compare"):    # each point's gains
            unread += ["fading.snr_db", "fading.mean_gain"]
            given.insert(0, "compare.snr_db")
        reads = [p for p in reads if p not in unread]
        where += " with " + " and ".join(given) if given else ""

    subkeys = [f"{s}.{k}" for s, v in raw.items() if s in SECTIONS
               and isinstance(v, dict) for k in v]
    for path in (*raw, *subkeys):
        if path not in SCHEMA and path not in SECTIONS:
            section, _, key = path.rpartition(".")
            raise ConfigError(f"{section or 'config'}: unknown keys {[key]}")
    for path in (*subkeys, *raw):
        if not any(p == path or p.startswith(f"{path}.") for p in reads):
            scope = (f"{mode} mode with quantizer type {qtype!r}"
                     if path.startswith("quantizer.") else where)
            raise ConfigError(f"{path}: not read in {scope}")

    knobs = CompareSetup if mode in ROW_MODES else SolverConfig
    values = {}
    for path in reads:
        v = _value(raw, path, knobs, values)
        if v is not UNSET:
            values[path] = v
    if "fading.snr_db" in reads and (
            ("fading.snr_db" in values) == ("fading.mean_gain" in values)):
        raise ConfigError("fading: give exactly one of snr_db / mean_gain")
    if "mu" in values and np.min(values["mu"]) <= 0:
        raise ConfigError("mu: entries must be positive")
    lo_hi = values.get("quantizer.gain_range")
    if lo_hi and lo_hi[0] >= lo_hi[1]:
        raise ConfigError("quantizer.gain_range: need lo < hi")

    resolved = {}
    for path, v in values.items():
        section, _, leaf = path.rpartition(".")
        (resolved.setdefault(section, {}) if section else resolved)[leaf] = v
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
    seed = {"seed": fad["seed"]} if "seed" in fad else {}     # online
    return FadingModel(mean_gain=mg, **seed)


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


def _build_run(rc: dict):
    """Build the run once and check its targets and enumeration budget on
    what was built: returns the SolverConfig and the Problem (solver modes),
    one (snr_db, rows) per SNR point, each compare.snr_db entry else the
    fading SNR or NaN, with every row checked in row order (row modes), or
    None, None (overhead)."""
    mode, fad = rc["mode"], rc["fading"]
    if mode == "overhead":
        return None, None
    family, params = rc["power_rate"]["family"], rc["power_rate"]["params"]
    params = {k: _number(v, f"power_rate.params.{k}")
              for k, v in params.items()}
    try:
        model = make_model(family, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"power_rate: {exc}") from None
    sv = dict(rc["solver"])
    sv["init"] = np.asarray(sv["init"], dtype=float)
    sv["tol"] = np.asarray(sv["tol"], dtype=float)
    try:
        cfg = SolverConfig(**sv)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    mu = np.asarray(rc["mu"], dtype=float)
    targets = np.asarray(rc["targets"], dtype=float)
    caps = {k: rc[k] for k in ("rate_cap", "enum_budget") if k in rc}
    if mode in SOLVER_MODES:
        fading = _build_fading(fad)
        problem = Problem(grid=_build_grid(rc, fading), model=model, mu=mu,
                          targets=targets, fading=fading, **caps)
        problem.check_targets()
        if "enum_budget" in rc:     # offline_smooth alone enumerates; the
            problem.columns         # columns raise EnumerationBudgetError
        return cfg, problem

    knobs = rc.get("compare", {})
    if "snr_db" in knobs:
        points = [(snr, {**fad, "snr_db": snr}) for snr in knobs["snr_db"]]
    else:
        snr = fad.get("snr_db")
        points = [(float(snr) if isinstance(snr, (int, float)) else math.nan,
                   fad)]
    names = {f.name for f in fields(CompareSetup)}
    setups = [(snr, CompareSetup(
        fading=_build_fading(f), regions=rc["quantizer"]["regions"],
        model=model, mu=mu, targets=targets, **caps,
        **{k: v for k, v in {**sv, **knobs}.items() if k in names}))
        for snr, f in points]
    runs = [(snr, compare_rows(setup, knobs["schemes"]) if mode == "compare"
             else sweep_rows(setup, rc["sweep"]["regions"], math.inf))
            for snr, setup in setups]
    # in row order, the targets of each problem (a Problem checks once) and
    # the columns RA2-RA4 enumerate, kept for the solve: they raise
    # EnumerationBudgetError
    for label, _, problem in (row for _, rows in runs for row in rows):
        problem.check_targets()
        if label["scheme"] in ("RA2", "RA3", "RA4"):
            problem.columns
    return cfg, runs


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
    # the non-smooth baseline serves the hard rule, which reads no ε
    smooth = {} if mode == "offline_nonsmooth" else {
        "eps": cfg.eps, "eps_prime": problem.grid.num_channels * cfg.eps}
    _write_summary(outdir, {
        "mode": mode, "converged": traj.converged, "reason": traj.reason,
        "final_lambda": final_lambda, "avg_rates": traj.served_rates,
        "avg_power": traj.served_power,
        "avg_power_db": power_db(traj.served_power),
        "targets": problem.targets, **smooth,
        "iterations": int(traj.iters[-1]) + 1, "wall_time_s": wall})
    return EXIT_OK if traj.converged else EXIT_NOT_CONVERGED


def _run_rows(rc: dict, runs: list, outdir: Path) -> int:
    """Row modes: solve the rows of each (snr_db, rows) point, each result
    labelled with its point's snr_db; writes compare.csv (scheme, snr_db) or
    sweep.csv (regions), then avg_power_db and avg_rate_1..M, and
    summary.json, and returns the exit code."""
    t0 = time.perf_counter()
    rows = [{**row, "snr_db": snr}
            for snr, point in runs for row in solve_rows(point)]
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
    fad, regions = rc["fading"], rc["quantizer"]["regions"]
    rep = feedback_bits(fad["num_users"], fad["num_channels"], regions)
    _write_summary(outdir, {        # fad: num_users and num_channels alone
        "mode": "overhead", "converged": True, **fad, "regions": regions,
        **asdict(rep), "wall_time_s": 0.0})
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
                        help="override the fading seed (online mode only)")
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
        # each flag overrides one key, only where the mode reads it, and is
        # parsed by that key's entry
        for flag, value, path, only in (
                ("--seed", args.seed, "fading.seed", "online mode only"),
                ("--log-every", args.log_every, "solver.record_every",
                 "solver modes only")):
            if value is not None:
                if rc["mode"] not in SCHEMA[path].modes:
                    raise ConfigError(f"{flag}: {only}")
                section, _, key = path.partition(".")
                rc[section][key] = _parse(SCHEMA[path], value, flag, {})
        # value errors (bad thresholds, shapes, unreachable targets), sizes
        # past a machine integer or past memory and enumeration budgets
        # surface here, before any artifact is written
        cfg, work = _build_run(rc)
    except (ConfigError, ValueError, OverflowError,
            EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:      # sizes that fit an integer, not memory
        print(f"error: the run does not fit in memory: {exc}",
              file=sys.stderr)
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
