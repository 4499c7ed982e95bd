"""End-to-end runs of qcsched.cli.main: validation, artifacts, exit codes."""

import json
import math
import re
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qcsched
from qcsched import allocator, analysis, cli, dual, powerrate, special
from qcsched.allocator import TieInfeasibleError
from qcsched.channel import snr_db_to_mean_gain
from qcsched.cli import main
from qcsched.quantizer import build_equiprobable

from test_golden import EXIT_CODES as GOLDEN_EXIT_CODES
from test_golden import _config_path as golden_config

OK, CONFIG, NOT_CONVERGED, NUMERIC = 0, 2, 3, 4
CONFIGS = Path(qcsched.__file__).parent / "configs"

TRAJ_HEADER = ("iter,lambda_1,lambda_2,subgrad_1,subgrad_2,"
               "rate_1,rate_2,power")


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def tiny(mode="offline_smooth", **over):
    """M=2, K=2 instance that converges in well under a second, with only
    the keys ``mode`` reads."""
    cfg = {
        "mode": mode,
        "fading": {"num_users": 2, "num_channels": 2,
                   "mean_gain": [[1.0, 2.0], [0.5, 1.5]]},
        "quantizer": {"type": "equiprobable", "regions": 4},
        "power_rate": {"family": "outage_capacity",
                       "params": {"outage_delta": 0.0}},
        "targets": [0.5, 0.7],
        "solver": {"beta": 0.5, "tol": 1e-5, "max_iters": 20000, "eps": 0.05},
    }
    if mode == "offline_nonsmooth":     # steps by kappa, serves the hard rule
        del cfg["solver"]["beta"], cfg["solver"]["eps"]
    if mode == "online":                # samples num_blocks fading blocks
        del cfg["solver"]["max_iters"]
        cfg["fading"]["seed"] = 1
    if mode == "overhead":              # counts the feedback bits of M, K, L
        cfg = {"mode": mode, "fading": {"num_users": 2, "num_channels": 2},
               "quantizer": cfg["quantizer"]}
    cfg.update(over)
    return cfg


def run(tmp_path, cfg, *extra, name="cfg.json", out="art"):
    argv = ["--config", write_cfg(tmp_path, cfg, name),
            "--out", str(tmp_path / out), *extra]
    return main(argv), tmp_path / out


# --- validation failures: exit 2, nothing written -----------------------------

def test_missing_config_file(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.json")])
    assert rc == CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = main(["--config", str(p), "--out", str(tmp_path / "art")])
    assert rc == CONFIG
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("mangle,needle", [
    (lambda c: c.update(surprise=1), "unknown key"),
    (lambda c: c.pop("targets"), "targets"),
    (lambda c: c["fading"].update(snr_db=6.0), "exactly one of"),
    (lambda c: c["fading"].pop("mean_gain"), "exactly one of"),
    (lambda c: c.update(mode="offline"), "mode"),
    (lambda c: c.update(targets=[0.5, -0.1]), "targets"),
    (lambda c: c.update(mu=[1.0, 0.0]), "mu"),
    (lambda c: c["solver"].update(gamma=1.0), "unknown key"),
    (lambda c: c.update(online={"num_blocks": 10}),
     "online.num_blocks: not read in offline_smooth mode"),
    (lambda c: c.update(compare={"schemes": ["RA3"]}),
     "compare.schemes: not read in offline_smooth mode"),
    (lambda c: c["quantizer"].update(regions=1), "regions"),
    (lambda c: c["solver"].update(beta=-0.5), "stepsize"),
    (lambda c: c["fading"].update(tap_powers=[1.0, 0.5]), "unknown keys"),
    (lambda c: c["power_rate"]["params"].update(root_tol=1e-10),
     "power_rate"),
    (lambda c: c.update(power_rate={"family": "ergodic_capacity",
                                    "params": {"max_iter": 2}}),
     "power_rate: ErgodicCapacity"),
    (lambda c: c.update(mode="compare", compare={"beta_backoffs": 6}),
     "unknown keys ['beta_backoffs']"),
    (lambda c: c.update(mode="compare", compare={"ra2_refine_iters": 10}),
     "unknown keys ['ra2_refine_iters']"),
    (lambda c: c.update(mode="compare", compare={"ra2_kappa": 0.1}),
     "unknown keys ['ra2_kappa']"),
    (lambda c: c.update(mode="compare", compare={"ra2_tie_rtol": 1e-2}),
     "unknown keys ['ra2_tie_rtol']"),
    (lambda c: c["solver"].update(seed=3), "unknown keys ['seed']"),
    (lambda c: c.update(mode="compare", compare={"ra1_regions": 256}),
     "unknown keys ['ra1_regions']"),
    (lambda c: c.update(mode="sweep_regions",
                        sweep={"regions": [2], "reference_regions": 256}),
     "unknown keys ['reference_regions']"),
    # JSON's NaN and Infinity are rejected where they are read: NaN passes
    # every bound check, and all but the mean gain got past validation
    (lambda c: c["solver"].update(init=math.nan),
     "solver.init: expected a finite number, got nan"),
    (lambda c: c["solver"].update(eps=math.nan),
     "solver.eps: expected a finite number, got nan"),
    (lambda c: c.update(rate_cap=math.nan),
     "rate_cap: expected a finite number, got nan"),
    (lambda c: c["solver"].update(beta=math.inf),
     "solver.beta: expected a finite number, got inf"),
    (lambda c: c["solver"].update(tol=math.nan),
     "solver.tol: expected a finite number, got nan"),
    (lambda c: c["fading"].update(num_users=math.inf),
     "fading.num_users: expected a finite number, got inf"),
    (lambda c: c["fading"]["mean_gain"][0].__setitem__(1, math.inf),
     "fading.mean_gain[0][1]: expected a finite number, got inf"),
    # family parameters too: these ran to max_iters (exit 3) with --out made
    (lambda c: c.update(power_rate={
        "family": "max_avg_ber",
        "params": {"kappa1": 0.2, "kappa2": math.nan, "eps_avg": 1e-3}}),
     "power_rate.params.kappa2: expected a finite number, got nan"),
    (lambda c: c.update(power_rate={
        "family": "max_inst_ber",
        "params": {"kappa1": 0.2, "kappa2": math.inf, "eps_max": 1e-3}}),
     "power_rate.params.kappa2: expected a finite number, got inf"),
    # 2^rate_cap overflows past 1024, so a larger cap never binds; RA1's
    # dual overflowed from about 1023, compare failed at 1100 after writing
    # summary.json, and every mode warned at 1e308
    (lambda c: c.update(rate_cap=1000.5),
     "rate_cap: must be <= 1000.0, got 1000.5"),
    # seeds are Philox key words; past 64 bits these raised OverflowError
    (lambda c: c.update(quantizer={"type": "random", "regions": 4,
                                   "gain_range": [0.0, 3.0], "seed": 2 ** 64}),
     "quantizer.seed: must be <= 18446744073709551615"),
    (lambda c: c.update(mode="compare", compare={"ra4_seed": 2 ** 64}),
     "compare.ra4_seed: must be <= 18446744073709551615"),
    # and so did a channel count past a machine integer
    (lambda c: c.update(fading={"num_users": 2, "num_channels": 2 ** 64,
                                "snr_db": 6.0}), "too large to convert"),
    # an SNR whose gain overflows was refused only as a bad mean gain
    (lambda c: c.update(fading={"num_users": 2, "num_channels": 2,
                                "snr_db": [6.0, 1e30]}),
     "fading.snr_db[1]: must be <= 100.0, got 1e+30"),
    (lambda c: c.update(mode="compare", fading={
        "num_users": 2, "num_channels": 2}, compare={"snr_db": [-1e30]}),
     "compare.snr_db[0]: must be >= -100.0, got -1e+30"),
    # a mean gain is bounded at the SNR bound's gains, as snr_db is
    (lambda c: c["fading"]["mean_gain"][0].__setitem__(1, 1e11),
     "fading.mean_gain[0][1]: must be <= 10000000000.0, got 100000000000.0"),
    (lambda c: c["fading"]["mean_gain"][1].__setitem__(0, 0),
     "fading.mean_gain[1][0]: must be >= 1e-10, got 0"),
])
def test_config_rejections(tmp_path, capsys, mangle, needle):
    cfg = tiny()
    mangle(cfg)
    rc, out = run(tmp_path, cfg)
    assert rc == CONFIG
    assert needle in capsys.readouterr().err
    assert not out.exists()          # rejected before any artifact


@pytest.mark.parametrize("mode, extra", [
    ("compare", {}), ("sweep_regions", {"sweep": {"regions": [2]}}),
    ("overhead", {})])
def test_log_every_is_for_solver_modes_only(tmp_path, capsys, mode, extra):
    # row and overhead modes record and print nothing per iterate
    rc, out = run(tmp_path, tiny(mode, **extra), "--log-every", "5")
    assert rc == CONFIG
    assert "--log-every: solver modes only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, extra", [
    ("offline_smooth", {}), ("offline_nonsmooth", {}), ("compare", {}),
    ("sweep_regions", {"sweep": {"regions": [2]}}), ("overhead", {})])
def test_seed_is_for_online_mode_only(tmp_path, capsys, mode, extra):
    # only the online loop samples the fading stream; elsewhere the seed
    # would change no artifact, so the flag is refused and nothing written
    rc, out = run(tmp_path, tiny(mode, **extra), "--seed", "5")
    assert rc == CONFIG
    assert "--seed: online mode only" in capsys.readouterr().err
    assert not out.exists()


def reads_only(name):
    """A config that sets every section its mode needs and no key the mode
    leaves unread: compare_cfg() for compare, else tiny()."""
    if name == "compare":
        return compare_cfg()
    if name == "compare_snr_points":
        return compare_cfg(compare={"schemes": ["RA3"], "snr_db": [4.0, 8.0]})
    if name == "compare_no_columns":            # no row enumerates
        return compare_cfg(compare={"schemes": ["RA1", "RA5"]})
    sections = {"online": {"online": {"num_blocks": 20}},
                "sweep_regions": {"sweep": {"regions": [2]}}}
    return tiny(name, **sections.get(name, {}))


SOLVER_KEYS = {"beta": 0.01, "kappa": 0.1, "init": 0.1, "tol": 1e-3,
               "max_iters": 100, "eps": 0.05, "record_every": 1}

# each key a mode leaves unread though another mode reads it, with a value
# another mode would accept: setting it there changed no artifact
UNREAD = [
    ("offline_smooth", "fading.seed", 0),
    ("offline_smooth", "solver.kappa", 0.1),
    ("offline_nonsmooth", "fading.seed", 0),
    ("offline_nonsmooth", "solver.beta", 0.01),
    ("online", "solver.kappa", 0.1),
    ("online", "solver.max_iters", 100),
    ("online", "enum_budget", 1000),
    ("compare", "fading.seed", 0),
    ("compare", "solver.kappa", 0.1),
    ("compare", "solver.record_every", 1),
    ("compare_snr_points", "fading.snr_db", 6.0),
    ("sweep_regions", "fading.seed", 0),
    ("sweep_regions", "solver.kappa", 0.1),
    ("sweep_regions", "solver.record_every", 1),
    ("overhead", "fading.seed", 0),
    ("overhead", "fading.snr_db", 6.0),
    ("overhead", "fading.mean_gain", [[1.0, 2.0], [0.5, 1.5]]),
    ("overhead", "power_rate.family", "outage_capacity"),
    ("overhead", "power_rate.params", {"outage_delta": 0.0}),
    ("overhead", "targets", [0.5, 0.7]),
    ("overhead", "mu", [1.0, 1.0]),
    ("overhead", "rate_cap", 12.0),
    ("overhead", "enum_budget", 1000),
    *(("overhead", f"solver.{k}", v) for k, v in SOLVER_KEYS.items()),
    # read only where a run enumerates, or where it has an RA4 row
    ("offline_nonsmooth", "enum_budget", 31),
    ("compare_no_columns", "enum_budget", 1000),
    ("compare", "compare.ra4_seed", 7),
    ("compare", "compare.ra4_range_scale", 3.0),
    # the non-smooth baseline serves the hard rule, which reads no ε
    ("offline_nonsmooth", "solver.eps", 0.05),
]


@pytest.mark.parametrize("extra", [(), ("--dry-run",)])
@pytest.mark.parametrize("name, key, value", UNREAD)
def test_a_key_the_mode_does_not_read_exit2(tmp_path, capsys, name, key,
                                            value, extra):
    cfg = reads_only(name)
    assert run(tmp_path, cfg, "--dry-run")[0] == OK    # valid without it
    capsys.readouterr()
    section, _, leaf = key.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[leaf] = value
    rc, out = run(tmp_path, cfg, *extra)
    assert rc == CONFIG
    mode = cfg["mode"]
    captured = capsys.readouterr()
    assert f"error: {key}: not read in {mode} mode" in captured.err
    assert captured.out == ""
    assert not out.exists()


# the read matrix, written out: the keys each mode reads with an
# equiprobable quantizer and, in compare, every scheme and no compare.snr_db
_SIZE = {"mode", "out_dir", "fading.num_users", "fading.num_channels",
         "quantizer.type", "quantizer.regions"}
_PROBLEM = {*_SIZE, "fading.snr_db", "fading.mean_gain", "power_rate.family",
            "power_rate.params", "targets", "mu", "rate_cap", "solver.init",
            "solver.tol"}
_BUDGETED = {*_PROBLEM, "enum_budget", "solver.max_iters", "solver.eps"}
READ_MATRIX = {
    "offline_smooth": {*_BUDGETED, "solver.beta", "solver.record_every"},
    "offline_nonsmooth": {*_PROBLEM, "solver.max_iters", "solver.kappa",
                          "solver.record_every"},
    "online": {*_PROBLEM, "fading.seed", "solver.eps", "solver.beta",
               "solver.record_every", "online.num_blocks"},
    "compare": {*_BUDGETED, "solver.beta", "compare.schemes",
                "compare.snr_db", "compare.ra4_seed",
                "compare.ra4_range_scale"},
    "sweep_regions": {*_BUDGETED, "solver.beta", "sweep.regions"},
    "overhead": _SIZE,
}
RANDOM_ONLY = {"quantizer.gain_range", "quantizer.seed"}
ALL_KEYS = {*set().union(*READ_MATRIX.values()), *RANDOM_ONLY,
            "quantizer.thresholds"}
RA4_ONLY = {"compare.ra4_seed", "compare.ra4_range_scale"}
GAINS = {"fading.snr_db", "fading.mean_gain"}

# a valid value of each key on the tiny() shape, M = K = 2
VALID = {
    "out_dir": "elsewhere", "fading.num_users": 2, "fading.num_channels": 2,
    "fading.seed": 3, "fading.snr_db": 6.0,
    "fading.mean_gain": [[1.0, 2.0], [0.5, 1.5]], "quantizer.regions": 4,
    "quantizer.gain_range": [0.0, 3.0], "quantizer.seed": 0,
    "quantizer.thresholds": [[[0.0, 1.0, "inf"]] * 2] * 2,
    "power_rate.family": "outage_capacity",
    "power_rate.params": {"outage_delta": 0.0}, "targets": [0.5, 0.7],
    "mu": [1.0, 2.0], "rate_cap": 12.0, "enum_budget": 1000,
    **{f"solver.{k}": v for k, v in SOLVER_KEYS.items()},
    "online.num_blocks": 20, "compare.schemes": ["RA3"],
    "compare.snr_db": [4.0, 8.0], "compare.ra4_seed": 7,
    "compare.ra4_range_scale": 3.0, "sweep.regions": [2],
}


def _snr_points(cfg):
    del cfg["fading"]["mean_gain"]
    return cfg


# config -> the keys it reads, narrowed by its quantizer type and by
# compare's schemes and SNR points
NARROWED = {
    "offline_smooth": (tiny(), READ_MATRIX["offline_smooth"]),
    "offline_nonsmooth, random quantizer": (
        tiny("offline_nonsmooth", quantizer={
            "type": "random", "regions": 4, "gain_range": [0.0, 3.0]}),
        READ_MATRIX["offline_nonsmooth"] | RANDOM_ONLY),
    "online, explicit quantizer": (
        tiny("online", online={"num_blocks": 20}, quantizer={
            "type": "explicit", "thresholds": VALID["quantizer.thresholds"]}),
        READ_MATRIX["online"] - {"quantizer.regions"}
        | {"quantizer.thresholds"}),
    "compare": (tiny("compare"), READ_MATRIX["compare"]),
    "compare RA2": (tiny("compare", compare={"schemes": ["RA2"]}),
                    READ_MATRIX["compare"] - RA4_ONLY),
    "compare RA3": (tiny("compare", compare={"schemes": ["RA3"]}),
                    READ_MATRIX["compare"] - RA4_ONLY),
    "compare RA4": (tiny("compare", compare={"schemes": ["RA4"]}),
                    READ_MATRIX["compare"]),
    "compare RA1 RA5": (tiny("compare", compare={"schemes": ["RA1", "RA5"]}),
                        READ_MATRIX["compare"] - RA4_ONLY - {"enum_budget"}),
    "compare RA3 snr_db": (
        _snr_points(tiny("compare", compare={"schemes": ["RA3"],
                                             "snr_db": [4.0, 8.0]})),
        READ_MATRIX["compare"] - RA4_ONLY - GAINS),
    "sweep_regions": (tiny("sweep_regions", sweep={"regions": [2]}),
                      READ_MATRIX["sweep_regions"]),
    "overhead": (tiny("overhead"), READ_MATRIX["overhead"]),
}


def test_the_schema_has_exactly_the_keys_of_the_read_matrix():
    assert set(cli.SCHEMA) == ALL_KEYS


@pytest.mark.parametrize("name", NARROWED)
def test_each_key_passes_dry_run_exactly_where_it_is_read(tmp_path, capsys,
                                                         name):
    # a valid value of every key: accepted where the matrix says the config
    # reads the key, else refused as not read; the value a config already
    # sets is kept, so that its narrowing stays as it is
    base, reads = NARROWED[name]
    wrong = []
    for key in sorted(ALL_KEYS):
        cfg = json.loads(json.dumps(base))
        section, _, leaf = key.rpartition(".")
        holder = cfg.setdefault(section, {}) if section else cfg
        value = holder.get(leaf, VALID.get(key))
        if key in reads and key in {*GAINS, "compare.snr_db"}:
            for gains in GAINS:         # the key sets the gains alone
                cfg["fading"].pop(gains.partition(".")[2], None)
        holder[leaf] = value
        rc = main(["--config", write_cfg(tmp_path, cfg), "--dry-run"])
        err = capsys.readouterr().err
        if key in reads and rc != OK:
            wrong.append((key, "refused", err))
        if key not in reads and not (rc == CONFIG and "not read in" in err):
            wrong.append((key, "accepted", err))
    assert wrong == []


def test_readme_key_table_names_exactly_the_schema_keys():
    # README's sections quantizer and power_rate stand for their keys
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | read by |")[1].split("\n\n")[0]
    named = set()
    for row in table.strip().splitlines()[1:]:
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            named |= ({k for k in cli.SCHEMA if k.startswith(f"{name}.")}
                      if name in ("quantizer", "power_rate") else {name})
    assert named == set(cli.SCHEMA)


def test_online_mode_requires_num_blocks(tmp_path):
    rc, out = run(tmp_path, tiny(mode="online"))
    assert rc == CONFIG
    assert not out.exists()


def test_bad_cli_flags(tmp_path, capsys):
    cfg = tiny()
    rc, _ = run(tmp_path, cfg, "--log-every", "0")
    assert rc == CONFIG
    rc, _ = run(tmp_path, cfg, "--seed", "-1")
    assert rc == CONFIG
    # a flag is parsed by the entry of the key it overrides, so the message
    # names the flag
    capsys.readouterr()
    cfg = json.loads((CONFIGS / "testcase2_online.json").read_text())
    rc, out = run(tmp_path, cfg, "--seed", str(2 ** 64))
    assert rc == CONFIG
    assert ("error: --seed: must be <= 18446744073709551615, got "
            "18446744073709551616") in capsys.readouterr().err
    assert not out.exists()


def test_a_run_past_memory_exit2_writes_nothing(tmp_path, capsys,
                                                monkeypatch):
    # 2^40 channels fit a machine integer but not memory: numpy refused the
    # (M, K) mean gains with a MemoryError, a traceback under --dry-run too.
    # The builder is replaced, so nothing here allocates
    def past_memory(fad):
        raise MemoryError("Unable to allocate 32.0 TiB for an array with "
                          f"shape (4, {fad['num_channels']}) and data type "
                          "float64")

    monkeypatch.setattr(cli, "_build_fading", past_memory)
    cfg = json.loads((CONFIGS / "testcase1.json").read_text())
    cfg["fading"]["num_channels"] = 2 ** 40
    for extra in (("--dry-run",), ()):
        rc, out = run(tmp_path, cfg, *extra)
        assert rc == CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: the run does not fit in memory: ")
        assert "32.0 TiB" in err and "Traceback" not in err
        assert not out.exists()


def test_random_quantizer_rejected_in_compare(tmp_path, capsys):
    cfg = tiny(mode="compare", compare={"schemes": ["RA3"]})
    cfg["quantizer"] = {"type": "random", "regions": 4,
                        "gain_range": [0.1, 3.0], "seed": 0}
    rc, out = run(tmp_path, cfg)
    assert rc == CONFIG
    assert "builds its own ladders" in capsys.readouterr().err
    assert not out.exists()


def test_random_quantizer_gain_range_ordering(tmp_path):
    cfg = tiny()
    cfg["quantizer"] = {"type": "random", "regions": 4,
                        "gain_range": [2.0, 2.0], "seed": 0}
    rc, _ = run(tmp_path, cfg)
    assert rc == CONFIG


def test_explicit_quantizer_excludes_regions_key(tmp_path):
    cfg = tiny()
    cfg["quantizer"] = {"type": "explicit", "regions": 4,
                        "thresholds": [[[0, "inf"]] * 2] * 2}
    rc, _ = run(tmp_path, cfg)
    assert rc == CONFIG


def test_explicit_quantizer_bad_ladder(tmp_path):
    # non-numeric entry and non-monotone ladder both die in validation
    for ladder in [["x", 1, "inf"], [0.0, 2.0, 1.0]]:
        cfg = tiny()
        cfg["quantizer"] = {"type": "explicit",
                            "thresholds": [[ladder] * 2] * 2}
        rc, out = run(tmp_path, cfg)
        assert rc == CONFIG
        assert not out.exists()


def test_explicit_quantizer_user_count_mismatch(tmp_path, capsys):
    cfg = tiny()
    cfg["quantizer"] = {"type": "explicit",
                        "thresholds": [[[0.0, 1.0, "inf"]] * 2]}  # 1 user, M=2
    rc, out = run(tmp_path, cfg)
    assert rc == CONFIG
    assert "must match" in capsys.readouterr().err
    assert not out.exists()


# --- dry run -------------------------------------------------------------------

def test_dry_run_prints_resolved_config_only(tmp_path, capsys):
    rc, out = run(tmp_path, tiny(), "--dry-run")
    assert rc == OK
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["mode"] == "offline_smooth"
    assert resolved["solver"]["beta"] == 0.5
    assert resolved["mu"] == [1.0, 1.0]              # default filled in
    assert not out.exists()                          # nothing written


def test_bundled_configs_pass_dry_run(capsys):
    configs = sorted((Path(qcsched.__file__).parent / "configs").glob("*.json"))
    assert len(configs) == 6
    for path in configs:
        assert main(["--config", str(path), "--dry-run"]) == OK, path.name
        capsys.readouterr()


# the other solver keys a mode reads, with the defaults they take
OTHER_SOLVER_DEFAULTS = {"offline_nonsmooth": {"kappa": 0.1, "record_every": 1},
                         "online": {"eps": 0.05, "record_every": 1}}


@pytest.mark.parametrize("mode, beta, max_iters", [
    ("offline_smooth", 0.01, 200_000),
    ("compare", 1e-3, 20_000),
    ("sweep_regions", 1e-3, 20_000),
    ("offline_nonsmooth", None, 200_000),       # None: the mode reads no key
    ("online", 0.01, None),
])
def test_omitted_solver_keys_take_the_mode_defaults(tmp_path, capsys, mode,
                                                    beta, max_iters):
    # compare and sweep solve through CompareSetup and take its stepsize and
    # iteration budget; the solver modes take SolverConfig's
    cfg = compare_cfg(mode=mode) if mode == "compare" else tiny(mode=mode)
    del cfg["solver"]
    if mode == "sweep_regions":
        cfg["sweep"] = {"regions": [2, 4]}
    if mode == "online":
        cfg["online"] = {"num_blocks": 20}
    rc, _ = run(tmp_path, cfg, "--dry-run")
    assert rc == OK
    solver = json.loads(capsys.readouterr().out)["solver"]
    assert (solver.get("beta"), solver.get("max_iters")) == (beta, max_iters)
    # only offline_nonsmooth reads kappa
    assert ("kappa" in solver) == (mode == "offline_nonsmooth")
    for key, value in OTHER_SOLVER_DEFAULTS.get(mode, {}).items():
        assert solver[key] == value, key


def test_rate_cap_at_its_bound_passes_dry_run_and_runs_clean(tmp_path,
                                                             capsys):
    # the bound is a cap at which all six bundled configs run without a
    # floating-point warning; the perfect-CSI dual is the first to overflow
    # above it, so compare_schemes and its RA1 row are the closest
    cfg = json.loads((CONFIGS / "compare_schemes.json").read_text())
    cfg["rate_cap"] = 1000.0
    rc, out = run(tmp_path, cfg, "--dry-run")
    assert rc == OK
    assert json.loads(capsys.readouterr().out)["rate_cap"] == 1000.0
    assert not out.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, cfg)[0] == OK


@pytest.mark.parametrize("section", ["fading", "compare"])
def test_snr_db_past_its_bound_exit2_names_it_without_a_warning(
        tmp_path, capsys, section):
    # 10^(snr/10) overflowed at 1e30 dB: numpy warned, and the run was then
    # refused for its mean gains, naming neither the key nor a bound
    cfg = json.loads((CONFIGS / "compare_schemes.json").read_text())
    if section == "fading":
        cfg["fading"]["snr_db"] = 1e30
    else:
        del cfg["fading"]["snr_db"]
        cfg["compare"]["snr_db"] = [6.0, 1e30]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for extra in (("--dry-run",), ()):
            rc, out = run(tmp_path, cfg, *extra)
            assert rc == CONFIG
            where = "fading.snr_db" if section == "fading" \
                else "compare.snr_db[1]"
            assert (f"error: {where}: must be <= 100.0, got 1e+30"
                    in capsys.readouterr().err)
            assert not out.exists()


def test_snr_db_at_its_bound_runs_clean(tmp_path, capsys):
    # the bound is an SNR at which all six bundled configs run without a
    # floating-point warning; at 110 dB compare_schemes' RA1 row runs to
    # max_iters from its absolute first λ and damping. Both ends of it pass
    # --dry-run on compare_schemes, as do the mean gains at both ends, and a
    # small compare run solves them clean
    cfg = json.loads((CONFIGS / "compare_schemes.json").read_text())
    for snr in (-100.0, 100.0):
        cfg["fading"]["snr_db"] = snr
        assert run(tmp_path, cfg, "--dry-run")[0] == OK
        assert json.loads(capsys.readouterr().out)["fading"]["snr_db"] == snr
    del cfg["fading"]["snr_db"]
    for snr in (-100.0, 100.0):
        gains = [[float(snr_db_to_mean_gain(snr))] * 64] * 3
        cfg["fading"]["mean_gain"] = gains
        assert run(tmp_path, cfg, "--dry-run")[0] == OK
        assert json.loads(capsys.readouterr().out)["fading"]["mean_gain"] \
            == gains
    cfg = tiny(mode="compare", compare={"snr_db": [-100.0, 100.0]})
    del cfg["fading"]["mean_gain"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out = run(tmp_path, cfg)
    assert rc in (OK, NOT_CONVERGED)
    rows = json.loads((out / "summary.json").read_text())["rows"]
    assert sorted({row["snr_db"] for row in rows}) == [-100.0, 100.0]


SPREAD_FAMILIES = {
    "outage": ("outage_capacity", {"outage_delta": 0.0}),
    "outage_0.3": ("outage_capacity", {"outage_delta": 0.3}),
    "inst_ber": ("max_inst_ber",
                 {"kappa1": 0.2, "kappa2": 1.5, "eps_max": 1e-3}),
    "avg_ber": ("max_avg_ber", {"kappa1": 0.2, "kappa2": 1.5, "eps_avg": 1e-3}),
    "ergodic": ("ergodic_capacity", {}),
}


@pytest.mark.parametrize("spread", [0.0, 30.0, 60.0, 100.0])
@pytest.mark.parametrize("family", sorted(SPREAD_FAMILIES))
def test_a_per_user_snr_spread_runs_clean(tmp_path, capsys, family, spread):
    # RA4 draws every user's ladder over [0, 3·max ḡ): 30 dB and more above
    # the 0 dB user, its upper regions start hundreds of its mean gains out,
    # where its survivals and region probabilities underflow to 0. Such a
    # cell is a defined case in every family: each scheme alone runs with
    # no warning at all and exits 0, 3, or 2 for a target its ladder cannot
    # reach
    name, params = SPREAD_FAMILIES[family]
    for scheme in ("RA1", "RA2", "RA3", "RA4", "RA5"):
        cfg = {"mode": "compare",
               "fading": {"num_users": 2, "num_channels": 4,
                          "snr_db": [0.0, spread]},
               "quantizer": {"type": "equiprobable", "regions": 4},
               "power_rate": {"family": name, "params": params},
               "targets": [1.0, 1.5], "compare": {"schemes": [scheme]}}
        if scheme in ("RA2", "RA3", "RA4"):         # the ones that enumerate
            cfg["enum_budget"] = 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _ = run(tmp_path, cfg, out=scheme)
        err = capsys.readouterr().err
        infeasible = rc == CONFIG and "rate targets are infeasible" in err
        assert rc in (OK, NOT_CONVERGED) or infeasible, (scheme, err)


# --- offline smooth ------------------------------------------------------------

def test_offline_smooth_artifacts(tmp_path):
    rc, out = run(tmp_path, tiny())
    assert rc == OK

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJ_HEADER
    assert len(lines) > 2

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"mode", "converged", "reason", "final_lambda",
                            "avg_rates", "avg_power", "avg_power_db",
                            "targets", "eps", "eps_prime", "iterations",
                            "wall_time_s"}
    assert summary["converged"] is True and summary["reason"] == "converged"
    assert summary["eps_prime"] == pytest.approx(2 * 0.05)   # K * eps
    assert summary["avg_power_db"] == pytest.approx(
        10 * math.log10(summary["avg_power"]))
    # served rates meet the targets at the fixed point
    assert all(r >= t - 1e-3
               for r, t in zip(summary["avg_rates"], summary["targets"]))


def test_offline_smooth_rerun_is_deterministic(tmp_path):
    rc1, out1 = run(tmp_path, tiny(), out="a")
    rc2, out2 = run(tmp_path, tiny(), out="b")
    assert rc1 == rc2 == OK
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2


def test_offline_smooth_max_iters_exit3(tmp_path):
    cfg = tiny()
    cfg["solver"]["max_iters"] = 3
    rc, out = run(tmp_path, cfg)
    assert rc == NOT_CONVERGED
    # artifacts still land so the run can be inspected
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["reason"] == "max_iters"
    assert (out / "trajectory.csv").exists()


def test_log_every_thins_trajectory_and_reports(tmp_path, capsys):
    rc, out = run(tmp_path, tiny(), "--log-every", "25")
    assert rc == OK
    assert "max|subgrad|" in capsys.readouterr().err
    iters = [int(line.split(",")[0]) for line in
             (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert all(i % 25 == 0 for i in iters[:-1])      # final iterate kept
    assert iters == sorted(iters)


def test_enum_budget_blowup_exit2_writes_nothing(tmp_path, capsys):
    # Test Case 1 enumerates one class of 4^4 = 256 columns
    cfg = json.loads((CONFIGS / "testcase1.json").read_text())
    cfg["enum_budget"] = 10
    for extra in (("--dry-run",), ()):
        rc, out = run(tmp_path, cfg, *extra)
        assert rc == CONFIG
        assert "256 elements" in capsys.readouterr().err
        assert not out.exists()


def test_infeasible_tie_lp_exit4_writes_summary(tmp_path, monkeypatch):
    def infeasible(*args, **kwargs):
        raise TieInfeasibleError("phase-1 residual")

    monkeypatch.setattr(analysis, "solve_tie_lp", infeasible)
    rc, out = run(tmp_path, tiny("compare", compare={"schemes": ["RA2"]}))
    assert rc == NUMERIC
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"mode": "compare", "converged": False,
                       "error": "phase-1 residual"}


@pytest.mark.parametrize("mode, knob, loop", [
    ("offline_smooth", "beta", "run_offline_smooth"),
    ("online", "beta", "run_online"),
    ("offline_nonsmooth", "kappa", "run_offline_nonsmooth"),
])
def test_a_step_past_the_float_range_exits4_naming_the_overflow(
        tmp_path, capsys, mode, knob, loop):
    # solver.beta and solver.kappa have no upper bound. A step of 1e308
    # overflows λ, or the costs or step-weighted sums at the λ it reaches:
    # each run stops with exit 4 and a summary naming its loop and the
    # overflow, not with a traceback, a RuntimeWarning or a NaN summary
    cfg = tiny(mode, **({"online": {"num_blocks": 20}} if mode == "online"
                        else {}))
    cfg["solver"][knob] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out = run(tmp_path, cfg)
    assert rc == NUMERIC
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"mode", "converged", "error"}
    assert summary["mode"] == mode and summary["converged"] is False
    assert summary["error"].startswith(f"{loop}: floating-point overflow")
    assert "numeric failure" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_infeasible_targets_exit2_naming_the_subset(tmp_path, capsys):
    # Test Case 1 with target 200 for user 1: alone it can draw at most
    # 12·16·3/4 = 144, so the run stops before solving instead of running
    # to max_iters
    cfg = json.loads((CONFIGS / "testcase1.json").read_text())
    cfg["targets"][0] = 200.0
    rc, out = run(tmp_path, cfg)
    assert rc == CONFIG
    err = capsys.readouterr().err
    assert "infeasible" in err and "users [1]" in err
    assert not out.exists()
    # a sweep checks every L it solves: at L=2 half of each user's states
    # are outage, 12·2·1/2 = 12 < 13, while L=4 would allow 18
    cfg = tiny("sweep_regions", targets=[13.0, 0.5],
               sweep={"regions": [4, 2]})
    rc, out = run(tmp_path, cfg)
    assert rc == CONFIG and "users [1]" in capsys.readouterr().err


def test_unconverged_root_find_exit4_prints_its_residual(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(powerrate, "ROOT_MAX_ITER", 2)
    cfg = tiny(power_rate={"family": "ergodic_capacity"})
    rc, out = run(tmp_path, cfg)
    assert rc == NUMERIC
    err = capsys.readouterr().err
    assert "did not converge" in err and "residual" in err


def test_unconverged_root_find_exit4_writes_its_residual(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(powerrate, "ROOT_MAX_ITER", 2)
    cfg = tiny(power_rate={"family": "ergodic_capacity"})
    rc, out = run(tmp_path, cfg)
    assert rc == NUMERIC
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "offline_smooth"
    assert summary["converged"] is False
    assert "did not converge" in summary["error"]
    assert math.isfinite(summary["residual"]) and summary["residual"] > 0
    assert f"residual {summary['residual']:.6g}" in capsys.readouterr().err


def test_out_dir_from_config(tmp_path):
    target = tmp_path / "cfg_says_here"
    cfg = tiny(out_dir=str(target))
    rc = main(["--config", write_cfg(tmp_path, cfg)])
    assert rc == OK
    assert (target / "summary.json").exists()


# --- offline nonsmooth ----------------------------------------------------------

def test_offline_nonsmooth_settles(tmp_path):
    cfg = tiny(mode="offline_nonsmooth")
    cfg["solver"].update(kappa=0.2, max_iters=4000, record_every=10)
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"] == "converged"
    assert summary["converged"] is True
    assert "eps" not in summary and "eps_prime" not in summary  # hard rule
    # certified at its third check by its dual bound (the served average
    # may miss a target by up to tol, so it may lie below D)
    assert summary["iterations"] == 3000
    slack = cfg["solver"]["tol"] * sum(summary["final_lambda"])
    assert summary["avg_power"] - summary["dual_bound"] <= slack


# --- online --------------------------------------------------------------------

def test_online_mode_runs_and_reports(tmp_path):
    cfg = tiny(mode="online", online={"num_blocks": 300})
    cfg["solver"]["beta"] = 0.05
    rc, out = run(tmp_path, cfg)
    # 300 blocks do not bring the sample average within tol = 1e-5
    assert rc == NOT_CONVERGED
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "online"
    assert summary["reason"] == "completed"
    assert summary["converged"] is False
    assert summary["iterations"] == 300
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJ_HEADER
    # the run serves its final sample average, the trajectory's last row
    last = [float(x) for x in lines[-1].split(",")]
    assert summary["avg_rates"] == last[5:7] and summary["avg_power"] == last[7]


def test_online_seed_flag_changes_the_draw(tmp_path):
    cfg = tiny(mode="online", online={"num_blocks": 200})

    def power(seed, out):
        rc, outdir = run(tmp_path, cfg, "--seed", str(seed), out=out)
        assert rc == NOT_CONVERGED          # 200 blocks miss tol = 1e-5
        return json.loads((outdir / "summary.json").read_text())["avg_power"]

    p5, p5b, p6 = power(5, "s5"), power(5, "s5b"), power(6, "s6")
    assert p5 == p5b                 # same seed reproduces exactly
    assert p5 != p6


# --- overhead ------------------------------------------------------------------

def test_overhead_mode_reference_counts(tmp_path):
    cfg = {
        "mode": "overhead",
        "fading": {"num_users": 3, "num_channels": 64},
        "quantizer": {"type": "equiprobable", "regions": 4},
    }
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["full_qcsi_bits"] == 384
    assert summary["allocation_bits"] == 237
    assert summary["per_channel_bits"] == 4
    assert not (out / "trajectory.csv").exists()


# --- compare / sweep -------------------------------------------------------------

def compare_cfg(**over):
    cfg = {
        "mode": "compare",
        "fading": {"num_users": 2, "num_channels": 4, "snr_db": 6.0},
        "quantizer": {"type": "equiprobable", "regions": 4},
        "power_rate": {"family": "outage_capacity",
                       "params": {"outage_delta": 0.0}},
        "targets": [1.0, 1.5],
        "solver": {"beta": 0.5, "tol": 1e-4, "max_iters": 20000, "eps": 0.05},
        "compare": {"schemes": ["RA3", "RA5"]},
    }
    cfg.update(over)
    if "snr_db" in cfg["compare"]:      # the gains of each SNR point
        del cfg["fading"]["snr_db"]
    return cfg


@pytest.mark.parametrize("cfg, want", [
    (tiny(enum_budget=31), CONFIG),                 # 2 classes, 4^2 columns
    (tiny(enum_budget=32), OK),
    (tiny("sweep_regions", enum_budget=8, sweep={"regions": [2, 3]}),
     CONFIG),                                       # 2·2^2 then 2·3^2
    (tiny("online", enum_budget=1, online={"num_blocks": 20}), CONFIG),
    (tiny("sweep_regions", enum_budget=7, sweep={"regions": [2]}), CONFIG),
    (compare_cfg(enum_budget=1, compare={"schemes": ["RA1", "RA5"]}), CONFIG),
    (compare_cfg(enum_budget=15, compare={"schemes": ["RA2"]}), CONFIG),
    (compare_cfg(enum_budget=15, compare={"schemes": ["RA3"]}), CONFIG),
    (compare_cfg(enum_budget=63, compare={"schemes": ["RA4"]}), CONFIG),
    (compare_cfg(enum_budget=64, compare={"schemes": ["RA4"]}), OK),
    (compare_cfg(enum_budget=15, compare={"schemes": ["RA5", "RA3"]}), CONFIG),
])
def test_enum_budget_binds_each_problem_that_enumerates(tmp_path, cfg, want):
    # the smooth offline solver and the RA2-RA4 rows enumerate
    # n_classes·L^M (class, column) pairs; RA1 and RA5 enumerate nothing, so
    # a compare run of those alone reads no enum_budget, and neither do the
    # online loop and the non-smooth baseline
    rc, out = run(tmp_path, cfg)
    assert rc == want
    assert out.exists() == (want != CONFIG)


def test_compare_mode_csv_and_summary(tmp_path):
    rc, out = run(tmp_path, compare_cfg())
    assert rc == OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "scheme,snr_db,avg_power_db,avg_rate_1,avg_rate_2"
    assert [line.split(",")[0] for line in lines[1:]] == ["RA3", "RA5"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert len(summary["rows"]) == 2
    assert all("lambda" not in row for row in summary["rows"])
    powers = {line.split(",")[0]: float(line.split(",")[2])
              for line in lines[1:]}
    assert powers["RA3"] <= powers["RA5"] + 1e-9


def test_compare_keeps_per_user_tolerances(tmp_path):
    # a per-user tol list must reach the solver as given, not as its max
    cfg = compare_cfg(compare={"schemes": ["RA3"]})
    cfg["solver"]["tol"] = [0.05, 1e-6]
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    rates = [float(v) for v in
             (out / "compare.csv").read_text().splitlines()[1].split(",")[3:]]
    assert abs(rates[0] - 1.0) < 0.05
    assert abs(rates[1] - 1.5) < 1e-6


@pytest.mark.parametrize("scheme, over, want", [
    ("RA2", {"mu": [1e20, 1.0]}, OK),
    ("RA3", {"solver": {"init": 1e30}}, NOT_CONVERGED),
], ids=["singular_system", "absorbed_step"])
def test_a_stalled_newton_writes_its_row(tmp_path, scheme, over, want):
    # damped Newton's projected trial is NaN once ν/4 underflows against a
    # zero Jacobian row (RA2's first ε-stage at μ = 1e20; _solve's zero
    # pivot warns by design), and equals λ when λ = 1e30 absorbs the step
    # (RA3): either run stops "stalled" and its row is written, instead of
    # a traceback. RA2 ends at that stage's smooth point, which serves the
    # targets; RA3 at λ = 1e30 serves far more than them
    cfg = compare_cfg(compare={"schemes": [scheme]}, **over)
    if "solver" not in over:            # the compare defaults
        del cfg["solver"]
    if scheme == "RA2":
        with pytest.warns(RuntimeWarning) as caught:
            rc, out = run(tmp_path, cfg)
        assert any("divide by zero" in str(w.message) for w in caught)
    else:
        rc, out = run(tmp_path, cfg)
    assert rc == want
    lines = (out / "compare.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [scheme]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is (want == OK)


def test_ra1_with_a_nan_first_subgradient_writes_its_row(tmp_path):
    # at -100 dB and λ⁽⁰⁾ = 1e-300, PerfectCSI's turn-on gain overflows
    # (it warns; a separate defect) and its first subgradient is NaN:
    # damped Newton takes λ⁽⁰⁾ anyway, its NaN trial stops the run
    # "stalled", and the row is written with exit 3 instead of a traceback
    cfg = json.loads((CONFIGS / "compare_schemes.json").read_text())
    cfg["fading"]["snr_db"] = -100.0
    cfg["solver"]["init"] = 1e-300
    cfg["compare"] = {"schemes": ["RA1"]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc, out = run(tmp_path, cfg)
    assert rc == NOT_CONVERGED
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert [row["scheme"] for row in summary["rows"]] == ["RA1"]
    assert (out / "compare.csv").read_text().splitlines()[1].startswith(
        "RA1,-100.0,")
    # its NaN power reads NaN in dB too, not as a silent row's -inf
    row, = summary["rows"]
    assert row["avg_power"] == row["power_db"] == "nan"
    assert (out / "compare.csv").read_text().splitlines()[1].split(",")[2] \
        == "nan"


def test_compare_unknown_scheme_rejected(tmp_path):
    rc, out = run(tmp_path, compare_cfg(compare={"schemes": ["RA9"]}))
    assert rc == CONFIG
    assert not out.exists()


def test_compare_snr_sweep_needs_snr_fading(tmp_path, capsys):
    # each SNR point's gains come from compare.snr_db, so mean gains would
    # go unread
    cfg = compare_cfg(compare={"schemes": ["RA3"], "snr_db": [4.0, 8.0]})
    cfg["fading"] = {"num_users": 2, "num_channels": 4,
                     "mean_gain": [[1.0] * 4, [2.0] * 4]}
    rc, _ = run(tmp_path, cfg)
    assert rc == CONFIG
    assert ("fading.mean_gain: not read in compare mode with compare.snr_db"
            in capsys.readouterr().err)


def test_row_modes_label_each_row_with_its_snr_point(tmp_path):
    # compare: each compare.snr_db entry, in order, in the CSV and summary
    cfg = compare_cfg(compare={"schemes": ["RA3", "RA5"],
                               "snr_db": [4.0, 8.0]})
    rc, out = run(tmp_path, cfg, out="compare")
    assert rc == OK
    lines = (out / "compare.csv").read_text().splitlines()[1:]
    want = ["4.0", "4.0", "8.0", "8.0"]
    assert [line.split(",")[1] for line in lines] == want
    rows = json.loads((out / "summary.json").read_text())["rows"]
    assert [row["snr_db"] for row in rows] == [4.0, 4.0, 8.0, 8.0]
    # sweep: the fading SNR, or NaN when the fading gives mean gains
    for fading, snr in ((None, 6.0),
                        ({"num_users": 2, "num_channels": 4,
                          "mean_gain": [[4.0] * 4, [3.0] * 4]}, "nan")):
        cfg = compare_cfg(mode="sweep_regions")
        del cfg["compare"]
        cfg["sweep"] = {"regions": [2, 4]}
        cfg["fading"] = fading or cfg["fading"]
        rc, out = run(tmp_path, cfg, out=f"sweep_{snr}")
        assert rc == OK
        rows = json.loads((out / "summary.json").read_text())["rows"]
        assert [row["snr_db"] for row in rows] == [snr] * 3


def test_sweep_zero_power_rows_report_minus_inf_db(tmp_path):
    # zero targets: every user stays silent, so each L row's power is 0 and
    # its dB value is -inf, not a math domain error escaping main; the
    # perfect-CSI row stops at |g| < tol with λ > 0, a tiny positive power
    cfg = compare_cfg(mode="sweep_regions", targets=[0.0, 0.0])
    del cfg["compare"]
    cfg["sweep"] = {"regions": [2, 4]}
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:3]] == ["-inf", "-inf"]
    assert lines[3].startswith("inf,") and math.isfinite(
        float(lines[3].split(",")[1]))


def test_sweep_mode_power_decreases_in_regions(tmp_path):
    cfg = compare_cfg(mode="sweep_regions")
    del cfg["compare"]
    cfg["sweep"] = {"regions": [2, 4]}
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "regions,avg_power_db,avg_rate_1,avg_rate_2"
    regions = [float(line.split(",")[0]) for line in lines[1:]]
    power_db = [float(line.split(",")[1]) for line in lines[1:]]
    assert regions == [2, 4, math.inf]
    assert power_db[0] > power_db[1] > power_db[2]


# --- one build per run, checked before anything runs -----------------------------

@pytest.mark.parametrize("extra", [(), ("--dry-run",)])
def test_targets_only_ra4_cannot_reach_exit2_before_anything_runs(
        tmp_path, capsys, extra):
    # RA3's equiprobable grid lets user 1 draw up to 36, RA4's random ladder
    # at most 28.23: the RA4 row problem fails the check, so nothing runs
    cfg = compare_cfg(targets=[30.0, 1.0], compare={"schemes": ["RA3", "RA4"]})
    rc, out = run(tmp_path, cfg, *extra)
    assert rc == CONFIG
    captured = capsys.readouterr()
    assert "users [1]" in captured.err and captured.out == ""
    assert not out.exists()


def _spy(calls, fn, name):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


EQUI = {"type": "equiprobable", "regions": 4}


# what a run builds besides its model and a solver mode's grid: each
# problem's column space, unless online or non-smooth, and per SNR point of
# a row mode one equiprobable grid (RA2, RA3, RA5), one random ladder (RA4)
# and one PerfectCSI (RA1), or one grid per L and then one PerfectCSI
BUILDS = {"offline_smooth": {"column_space": 1},
          "offline_nonsmooth": {}, "online": {},
          "compare": {"build_equiprobable": 2, "build_random": 2,
                      "PerfectCSI": 2, "column_space": 4},
          "sweep_regions": {"build_equiprobable": 2, "PerfectCSI": 1,
                            "column_space": 2}}


@pytest.mark.parametrize("mode, quantizer, section, builder", [
    ("offline_smooth", EQUI, {}, "build_equiprobable"),
    ("offline_nonsmooth", {"type": "random", "regions": 4,
                           "gain_range": [0.0, 3.0], "seed": 0}, {},
     "build_random"),
    ("online", {"type": "explicit",
                "thresholds": [[[0.0, 1.0, "inf"]] * 2] * 2},
     {"online": {"num_blocks": 20}}, "QuantizerGrid"),
    ("compare", EQUI, {"compare": {"schemes": list(cli.SCHEMES[::-1]),
                                   "snr_db": [4.0, 8.0]}}, None),
    ("sweep_regions", EQUI, {"sweep": {"regions": [2, 4]}}, None),
])
def test_a_run_builds_its_model_and_grid_once(tmp_path, monkeypatch, mode,
                                              quantizer, section, builder):
    # row modes build their grids in the harness, once per row problem,
    # and the check and the solve share them
    calls = Counter()
    for name in ("make_model", "build_equiprobable", "build_random",
                 "QuantizerGrid"):
        monkeypatch.setattr(cli, name, _spy(calls, getattr(cli, name), name))
    for name in ("build_equiprobable", "build_random", "PerfectCSI"):
        monkeypatch.setattr(analysis, name,
                            _spy(calls, getattr(analysis, name), name))
    space = qcsched.quantizer.column_space
    monkeypatch.setattr(qcsched.quantizer, "column_space",
                        _spy(calls, space, "column_space"))
    cfg = tiny(mode, quantizer=quantizer, **section)
    cfg["fading"] = {"num_users": 2, "num_channels": 2, "snr_db": 6.0}
    if "snr_db" in section.get("compare", {}):  # the gains of each point
        del cfg["fading"]["snr_db"]
    if mode != "online":                # which runs its 20 blocks
        cfg["solver"]["max_iters"] = 5
    rc, _ = run(tmp_path, cfg)
    assert rc in (OK, NOT_CONVERGED)
    assert calls == Counter({"make_model": 1, **({builder: 1} if builder
                                                  else {}), **BUILDS[mode]})


# the work each run does, counted by wrapping these names in every qcsched
# module that binds them: each bundled solver and row config, and the
# golden ergodic compare, the one that reaches the ergodic closed form. A
# change that keeps its outputs bitwise keeps this table too; one that cuts
# or adds work on purpose edits it and says so
COUNTED_METHODS = {dual.Problem: ("serve_smooth", "serve_hard", "evaluate"),
                   dual.PerfectCSI: ("evaluate",)}
COUNTED_FUNCTIONS = {"build_tables": allocator, "serve_block": dual,
                     "find_tie_instances": allocator, "exp12_scaled": special}
COUNTED_WORK = {
    "testcase1": {"Problem.serve_smooth": 197, "build_tables": 197},
    "testcase1_nonsmooth": {"Problem.serve_hard": 1000, "build_tables": 1000},
    "testcase2_online": {"serve_block": 10000},
    "compare_schemes": {"Problem.evaluate": 63, "Problem.serve_smooth": 63,
                        "build_tables": 66, "Problem.serve_hard": 3,
                        "find_tie_instances": 3, "PerfectCSI.evaluate": 41},
    "sweep_regions": {"Problem.evaluate": 101, "Problem.serve_smooth": 101,
                      "build_tables": 101, "PerfectCSI.evaluate": 41},
    "micro_ergodic_compare": {"Problem.evaluate": 40,
                              "Problem.serve_smooth": 40, "build_tables": 43,
                              "Problem.serve_hard": 3,
                              "find_tie_instances": 3,
                              "PerfectCSI.evaluate": 31, "exp12_scaled": 221},
    "overhead": {},                 # it counts feedback bits, nothing else
}


@pytest.mark.parametrize("name", sorted(COUNTED_WORK))
def test_each_run_does_its_counted_work(tmp_path, monkeypatch, name):
    calls = Counter()
    for cls, methods in COUNTED_METHODS.items():
        for meth in methods:
            monkeypatch.setattr(cls, meth, _spy(calls, vars(cls)[meth],
                                                f"{cls.__name__}.{meth}"))
    modules = [m for m in vars(qcsched).values()
               if isinstance(m, types.ModuleType)]
    for fn, home in COUNTED_FUNCTIONS.items():
        original = getattr(home, fn)
        wrapped = _spy(calls, original, fn)
        for mod in modules:
            if getattr(mod, fn, None) is original:
                monkeypatch.setattr(mod, fn, wrapped)
    argv = ["--config", str(golden_config(name, tmp_path)),
            "--out", str(tmp_path / "art")]
    assert main(argv) == GOLDEN_EXIT_CODES.get(name, OK)
    assert calls == Counter(COUNTED_WORK[name])


def test_the_check_sees_every_row_problem_of_every_snr_point_first(
        tmp_path, monkeypatch):
    # ... and the solve gets the very objects the check saw
    events, seen, solved = [], [], []

    def spy_check(cls):
        check = cls.check_targets

        def spied(self):
            if isinstance(self, dual.PerfectCSI):
                kind, gains = "RA1", self.mean_gain
            else:
                equi = build_equiprobable(self.fading, 4).thresholds
                kind = ("RA3" if np.array_equal(self.grid.thresholds, equi)
                        else "RA4")
                gains = self.grid.mean_gain
            events.append((kind, float(gains.max())))
            seen.append(self)
            return check(self)
        monkeypatch.setattr(cls, "check_targets", spied)

    spy_check(dual.Problem)
    spy_check(dual.PerfectCSI)
    solve = analysis.run_offline_newton
    monkeypatch.setattr(analysis, "run_offline_newton",
                        lambda problem, cfg: (events.append("solve"),
                                              solved.append(problem),
                                              solve(problem, cfg))[2])
    cfg = compare_cfg(compare={"schemes": ["RA1", "RA3", "RA4"],
                               "snr_db": [4.0, 8.0]})
    rc, _ = run(tmp_path, cfg)
    assert rc == OK
    checked = events[:events.index("solve")]
    assert [kind for kind, _ in checked] == ["RA1", "RA3", "RA4"] * 2
    assert [g for _, g in checked] == pytest.approx(
        [snr_db_to_mean_gain(snr) for snr in (4.0, 8.0) for _ in range(3)])
    checked_objects = seen[:len(checked)]
    assert len(solved) == 6
    assert all(any(p is q for q in checked_objects) for p in solved)


def test_ra5_short_of_its_target_exits3_with_every_row(tmp_path):
    # under RA5 user 1 owns channel 1 alone and can carry at most
    # rate_cap·Pr{not outage} = 12·3/4 = 9 < 12; RA3 also uses channel 2
    cfg = compare_cfg(targets=[12.0, 0.5])
    cfg["fading"]["num_channels"] = 2
    rc, out = run(tmp_path, cfg)
    assert rc == NOT_CONVERGED
    lines = (out / "compare.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["RA3", "RA5"]
    ra3, ra5 = json.loads((out / "summary.json").read_text())["rows"]
    assert ra3["converged"] and not ra5["converged"]
    assert ra5["avg_rates"][0] == pytest.approx(9.0)
