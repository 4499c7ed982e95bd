"""End-to-end runs of qcsched.cli.main: validation, artifacts, exit codes."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qcsched
from qcsched import analysis, cli, dual, powerrate
from qcsched.allocator import TieInfeasibleError
from qcsched.channel import snr_db_to_mean_gain
from qcsched.cli import main
from qcsched.quantizer import build_equiprobable

OK, CONFIG, NOT_CONVERGED, NUMERIC = 0, 2, 3, 4
CONFIGS = Path(qcsched.__file__).parent / "configs"

TRAJ_HEADER = ("iter,lambda_1,lambda_2,subgrad_1,subgrad_2,"
               "rate_1,rate_2,power")


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def tiny(mode="offline_smooth", **over):
    """M=2, K=2 instance that converges in well under a second."""
    cfg = {
        "mode": mode,
        "fading": {"num_users": 2, "num_channels": 2,
                   "mean_gain": [[1.0, 2.0], [0.5, 1.5]], "seed": 1},
        "quantizer": {"type": "equiprobable", "regions": 4},
        "power_rate": {"family": "outage_capacity",
                       "params": {"outage_delta": 0.0}},
        "targets": [0.5, 0.7],
        "solver": {"beta": 0.5, "tol": 1e-5, "max_iters": 20000, "eps": 0.05},
    }
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
    (lambda c: c.update(online={"num_blocks": 10}), "only valid in online"),
    (lambda c: c.update(compare={"schemes": ["RA3"]}), "only valid in compare"),
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


def test_online_mode_requires_num_blocks(tmp_path):
    rc, out = run(tmp_path, tiny(mode="online"))
    assert rc == CONFIG
    assert not out.exists()


def test_bad_cli_flags(tmp_path):
    cfg = tiny()
    rc, _ = run(tmp_path, cfg, "--log-every", "0")
    assert rc == CONFIG
    rc, _ = run(tmp_path, cfg, "--seed", "-1")
    assert rc == CONFIG


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


@pytest.mark.parametrize("mode, beta, max_iters", [
    ("offline_smooth", 0.01, 200_000),
    ("compare", 1e-3, 20_000),
    ("sweep_regions", 1e-3, 20_000),
])
def test_omitted_solver_keys_take_the_mode_defaults(tmp_path, capsys, mode,
                                                    beta, max_iters):
    # compare and sweep solve through CompareSetup and take its stepsize and
    # iteration budget; the solver modes take SolverConfig's
    cfg = compare_cfg(mode=mode) if mode == "compare" else tiny(mode=mode)
    del cfg["solver"]
    if mode == "sweep_regions":
        cfg["sweep"] = {"regions": [2, 4]}
    rc, _ = run(tmp_path, cfg, "--dry-run")
    assert rc == OK
    solver = json.loads(capsys.readouterr().out)["solver"]
    assert (solver["beta"], solver["max_iters"]) == (beta, max_iters)
    assert solver["kappa"] == 0.1


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
    cfg["solver"].update(beta=0.2, kappa=0.2, max_iters=4000, record_every=10)
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"] == "converged"
    assert summary["converged"] is True


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
        "fading": {"num_users": 3, "num_channels": 64, "snr_db": 6.0},
        "quantizer": {"type": "equiprobable", "regions": 4},
        "power_rate": {"family": "outage_capacity",
                       "params": {"outage_delta": 0.0}},
        "targets": [1.0, 1.0, 1.0],
        "solver": {},
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
    return cfg


@pytest.mark.parametrize("cfg, want", [
    (tiny(enum_budget=31), CONFIG),                 # 2 classes, 4^2 columns
    (tiny(enum_budget=32), OK),
    (tiny("offline_nonsmooth", enum_budget=31), CONFIG),
    (tiny("online", enum_budget=1, online={"num_blocks": 20}), NOT_CONVERGED),
    (tiny("sweep_regions", enum_budget=7, sweep={"regions": [2]}), CONFIG),
    (compare_cfg(enum_budget=1, compare={"schemes": ["RA1", "RA5"]}), OK),
    (compare_cfg(enum_budget=15, compare={"schemes": ["RA2"]}), CONFIG),
    (compare_cfg(enum_budget=15, compare={"schemes": ["RA3"]}), CONFIG),
    (compare_cfg(enum_budget=63, compare={"schemes": ["RA4"]}), CONFIG),
    (compare_cfg(enum_budget=64, compare={"schemes": ["RA4"]}), OK),
])
def test_enum_budget_binds_each_problem_that_enumerates(tmp_path, cfg, want):
    # the offline solvers and the RA2-RA4 rows enumerate n_classes·L^M
    # (class, column) pairs; the online loop, RA1 and RA5 enumerate nothing
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


def test_compare_unknown_scheme_rejected(tmp_path):
    rc, out = run(tmp_path, compare_cfg(compare={"schemes": ["RA9"]}))
    assert rc == CONFIG
    assert not out.exists()


def test_compare_snr_sweep_needs_snr_fading(tmp_path):
    cfg = compare_cfg(compare={"schemes": ["RA3"], "snr_db": [4.0, 8.0]})
    cfg["fading"] = {"num_users": 2, "num_channels": 4,
                     "mean_gain": [[1.0] * 4, [2.0] * 4]}
    rc, _ = run(tmp_path, cfg)
    assert rc == CONFIG


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
    cfg["fading"]["seed"] = 0
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


@pytest.mark.parametrize("mode, quantizer, section, builder", [
    ("offline_smooth", EQUI, {}, "build_equiprobable"),
    ("offline_nonsmooth", {"type": "random", "regions": 4,
                           "gain_range": [0.0, 3.0], "seed": 0}, {},
     "build_random"),
    ("online", {"type": "explicit",
                "thresholds": [[[0.0, 1.0, "inf"]] * 2] * 2},
     {"online": {"num_blocks": 20}}, "QuantizerGrid"),
    ("compare", EQUI, {"compare": {"schemes": ["RA3"], "snr_db": [4.0, 8.0]}},
     None),
    ("sweep_regions", EQUI, {"sweep": {"regions": [2, 4]}}, None),
])
def test_a_run_builds_its_model_and_grid_once(tmp_path, monkeypatch, mode,
                                              quantizer, section, builder):
    # row modes build their grids in the harness, once per row problem
    calls = Counter()
    for name in ("make_model", "build_equiprobable", "build_random",
                 "QuantizerGrid"):
        monkeypatch.setattr(cli, name, _spy(calls, getattr(cli, name), name))
    cfg = tiny(mode, quantizer=quantizer, **section)
    cfg["fading"] = {"num_users": 2, "num_channels": 2, "snr_db": 6.0}
    cfg["solver"]["max_iters"] = 5
    rc, _ = run(tmp_path, cfg)
    assert rc in (OK, NOT_CONVERGED)
    assert calls == Counter({"make_model": 1, **({builder: 1} if builder
                                                  else {})})


def test_the_check_sees_every_row_problem_of_every_snr_point_first(
        tmp_path, monkeypatch):
    events = []

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
            return check(self)
        monkeypatch.setattr(cls, "check_targets", spied)

    spy_check(dual.Problem)
    spy_check(dual.PerfectCSI)
    solve = analysis.run_offline_newton
    monkeypatch.setattr(analysis, "run_offline_newton",
                        lambda *args: (events.append("solve"), solve(*args))[1])
    cfg = compare_cfg(compare={"schemes": ["RA1", "RA3", "RA4"],
                               "snr_db": [4.0, 8.0]})
    rc, _ = run(tmp_path, cfg)
    assert rc == OK
    checked = events[:events.index("solve")]
    assert [kind for kind, _ in checked] == ["RA1", "RA3", "RA4"] * 2
    assert [g for _, g in checked] == pytest.approx(
        [snr_db_to_mean_gain(snr) for snr in (4.0, 8.0) for _ in range(3)])


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
