"""End-to-end runs of qcsched.cli.main: validation, artifacts, exit codes."""

import json
import math
from pathlib import Path

import pytest

import qcsched
from qcsched.cli import main

OK, CONFIG, NOT_CONVERGED, NUMERIC = 0, 2, 3, 4

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
])
def test_config_rejections(tmp_path, capsys, mangle, needle):
    cfg = tiny()
    mangle(cfg)
    rc, out = run(tmp_path, cfg)
    assert rc == CONFIG
    assert needle in capsys.readouterr().err
    assert not out.exists()          # rejected before any artifact


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


def test_enum_budget_blowup_exit4(tmp_path, capsys):
    rc, out = run(tmp_path, tiny(enum_budget=2))     # L^M = 16 columns > 2
    assert rc == NUMERIC
    assert "numeric failure" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


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
    assert summary["reason"] == "settled"
    assert summary["converged"] is True


# --- online --------------------------------------------------------------------

def test_online_mode_runs_and_reports(tmp_path):
    cfg = tiny(mode="online", online={"num_blocks": 300})
    cfg["solver"]["beta"] = 0.05
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "online"
    assert summary["reason"] == "completed"
    assert summary["iterations"] == 300
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJ_HEADER


def test_online_seed_flag_changes_the_draw(tmp_path):
    cfg = tiny(mode="online", online={"num_blocks": 200})

    def power(seed, out):
        rc, outdir = run(tmp_path, cfg, "--seed", str(seed), out=out)
        assert rc == OK
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


def test_sweep_mode_power_decreases_in_regions(tmp_path):
    cfg = compare_cfg(mode="sweep_regions")
    del cfg["compare"]
    cfg["sweep"] = {"regions": [2, 4], "reference_regions": 8}
    rc, out = run(tmp_path, cfg)
    assert rc == OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "regions,avg_power_db,avg_rate_1,avg_rate_2"
    regions = [int(line.split(",")[0]) for line in lines[1:]]
    power_db = [float(line.split(",")[1]) for line in lines[1:]]
    assert regions == [2, 4, 8]
    assert power_db[0] > power_db[1] > power_db[2]
