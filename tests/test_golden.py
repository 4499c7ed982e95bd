"""Golden-output guardrail: every artifact of a fixed set of CLI runs, hashed.

The set is every bundled config and ten micro configs, among them an
offline and a compare run of each family no bundled config uses: ergodic
capacity and average BER, whose root-finds no bundled config reaches, and
instantaneous BER, whose tables and RA1 row scale with its
``perfect_csi_scale``. Each case runs ``qcsched.cli.main`` in-process and
compares its exit code and the sha256 of every CSV it writes, and of
``summary.json`` with ``wall_time_s`` removed, against the values below;
the ``--dry-run`` output of each bundled config is hashed as well. A
refactor that claims to keep the output bits must keep these hashes; a
change that moves them on purpose (a new random stream, a fixed bug)
updates them and says why in CHANGES.md.

The hashes hold for Python 3.11.7 and numpy 2.4.6; another numpy may round
a reduction differently and move them without any change to qcsched.
"""

import hashlib
import json
from pathlib import Path

import pytest

import qcsched
from qcsched.cli import main

CONFIGS = Path(qcsched.__file__).parent / "configs"

MICRO = {
    "fading": {"num_users": 2, "num_channels": 4, "snr_db": 6.0},
    "quantizer": {"type": "equiprobable", "regions": 4},
    "power_rate": {"family": "outage_capacity",
                   "params": {"outage_delta": 0.0}},
    "targets": [1.0, 1.5],
    "enum_budget": 1000,
}

# M=2, K=4: RA1 solves the perfect-CSI dual and RA2 runs its
# ε-continuation, three stages ending with no tie (P = D)
MICRO_COMPARE = {
    **MICRO, "mode": "compare",
    "compare": {"schemes": ["RA1", "RA2", "RA3", "RA4", "RA5"]},
}

# two SNR points, RA5 first: RA5, RA3 and RA2 share one equiprobable Problem
# per point, which RA5 builds and RA3 enumerates
MICRO_COMPARE_SNR_POINTS = {
    **MICRO, "mode": "compare", "fading": {"num_users": 2, "num_channels": 4},
    "compare": {"schemes": ["RA5", "RA4", "RA3", "RA2", "RA1"],
                "snr_db": [4.0, 8.0]},
}

# M=3, K=3: M·K is not a multiple of 4, so each block's counter stride is
# padded (three Philox steps, twelve words, nine gains); the online loop
# enumerates nothing and reads no enum_budget
MICRO_ONLINE = {
    **{k: v for k, v in MICRO.items() if k != "enum_budget"}, "mode": "online",
    "fading": {"num_users": 3, "num_channels": 3, "snr_db": 6.0, "seed": 5},
    "targets": [0.5, 0.8, 1.1],
    "solver": {"beta": 5e-3, "record_every": 10},
    "online": {"num_blocks": 500},
}

MICRO_SWEEP = {
    **MICRO, "mode": "sweep_regions", "enum_budget": 1000000,
    "sweep": {"regions": [2, 3, 4]},
}

# the two families with root-finds in their tables: Υ̇⁻¹ and Υ by
# safeguarded Newton over exp12_scaled (ergodic), the region constant of
# the average BER
ERGODIC = {"family": "ergodic_capacity", "params": {}}
AVG_BER = {"family": "max_avg_ber",
           "params": {"kappa1": 0.2, "kappa2": 1.5, "eps_avg": 1e-3}}
INST_BER = {"family": "max_inst_ber",
            "params": {"kappa1": 0.2, "kappa2": 1.5, "eps_max": 1e-3}}
SOLVE = {"beta": 0.1, "tol": 1e-4, "max_iters": 2000, "record_every": 5}
MICRO_FAMILIES = {
    "micro_ergodic_offline": {**MICRO, "mode": "offline_smooth",
                              "power_rate": ERGODIC, "solver": SOLVE},
    "micro_ergodic_compare": {**MICRO_COMPARE, "power_rate": ERGODIC},
    "micro_avg_ber_offline": {**MICRO, "mode": "offline_smooth",
                              "power_rate": AVG_BER, "solver": SOLVE},
    "micro_avg_ber_compare": {**MICRO_COMPARE, "power_rate": AVG_BER},
    "micro_inst_ber_offline": {**MICRO, "mode": "offline_smooth",
                               "power_rate": INST_BER, "solver": SOLVE},
    "micro_inst_ber_compare": {**MICRO_COMPARE, "power_rate": INST_BER},
}

GOLDEN = {
    "compare_schemes": {
        "compare.csv":
            "a22b7d06388f1106cbf91922109b93ab83d9218c804f5ee110063ebeb3344244",
        "summary.json":
            "c12e5b244f725aedd11b5ebb72e5b8104f998105757e90cf81691ac21abff63f",
    },
    "micro_avg_ber_compare": {
        "compare.csv":
            "26a5c1358242f96dcece35596beed905d7a59b8ffd81812d97a20981d7f144e6",
        "summary.json":
            "aafcb718cd1fe422f5b4410930db4a21add0fe31cd0bcc898dfbb9e710504e64",
    },
    "micro_avg_ber_offline": {
        "trajectory.csv":
            "ab00625c564b6c8c8e86a580c03eeb85ce33d4d526c0a3ad4b234b02b2f8dda7",
        "summary.json":
            "ba4b30deecd4127305b5fdf9c3419094b860844ecb536418e5ab05b26f4e5be1",
    },
    "micro_inst_ber_compare": {
        "compare.csv":
            "42cdf2fd72ad5a9f9dd93ace74ed6ee6af68fa63dbc5d25d1b9f91f3dd6b1ca9",
        "summary.json":
            "2e6b528d586eb132bcaaae75fab98529d5c860e0a97c587abfcce7d6a7867af1",
    },
    "micro_inst_ber_offline": {
        "trajectory.csv":
            "594999dbe9f6edce8b328f73a4a5d636acebedc911127ebe760973daaf8f4783",
        "summary.json":
            "d594e60f29f4f13057b6ed459d0123f95549c871ad8baa675d1f4e9e381d0635",
    },
    "micro_compare": {
        "compare.csv":
            "4bc9ab4be99dbb90d1880518d3f1f6df91c3caf8f8207990a50c9b117c9b183d",
        "summary.json":
            "c17a9fdde4a32c1ad6e0da385bca83eeee19b5f6940b5e6553365b724f79cca6",
    },
    "micro_compare_snr_points": {
        "compare.csv":
            "d60c503a22130d15504f0e7a633953c3a2c0a38756ffab052d2b97250330862c",
        "summary.json":
            "b24b4fcbfa765a4321004ce78147025828967fcf33edcdfdb904dd24b91948c0",
    },
    "micro_ergodic_compare": {
        "compare.csv":
            "9d7969c4f96912f3f2c24eedaf3cf8ad8bb3e520ecb16de36b74e4cc4310f672",
        "summary.json":
            "14ce731c1fa722271d2ddbcd39dc750c681c230eb949ab79a25efefe96ac6a1b",
    },
    "micro_ergodic_offline": {
        "trajectory.csv":
            "1be81e723a18635cbadc30469e846e061ad3b157d0b2fa240b7cf18ea0c49857",
        "summary.json":
            "285e6fde354c5450fb6c4ad17d2146f51229812b5bf397bfa9618810d68bbbee",
    },
    "micro_online": {
        "trajectory.csv":
            "654873efc26b86f154a05d5377e6e88fe50b0b8687f5bae5bd3d69a27cf561b1",
        "summary.json":
            "5e647c65b2691dc18dbfc571436e438b9d96c1369b4e422be5df9a57fa640e7c",
    },
    "micro_sweep": {
        "sweep.csv":
            "2542a29895ae1a11f0ae8c8eb5d527974ce10f9be3cfcc1a299fe433544531cb",
        "summary.json":
            "47a8665d009cd4298d996e138609c417f1c59b9e5da426d409ad114b6b773df2",
    },
    "overhead": {
        "summary.json":
            "922729c126102eeb53ac80006c2389849577512855316420f88062f9860f7724",
    },
    "testcase1": {
        "trajectory.csv":
            "a1bfaf3d78e18a1b77b2f9129961521a8c2b4590abc4c9698fb3f11663502c6d",
        "summary.json":
            "79fc90bbb1a9c9b3707f502874aa4e8ad11b3848830dfe1e9ebf6b18f33e7bfe",
    },
    "testcase1_nonsmooth": {
        "trajectory.csv":
            "005aa2506ac29d0f98ec7c8f2fdfc1294e532bb82df16c23cc4d9815cf2b5abe",
        "summary.json":
            "0826ca09c755b14f72631d086e55fc81f96f044f7b8cc586c9d5dae4cd78c742",
    },
    "testcase2_online": {
        "trajectory.csv":
            "d86c12a5a7a3b7b00956a61fbedb995f0d77e9f48c9422c05dc81b9830756143",
        "summary.json":
            "66eafb473a31d8ce7ac5cd963c7f5f441e9915c0cdbbac6dc38fd15c85be4030",
    },
    "sweep_regions": {
        "sweep.csv":
            "d1c2a6d54452498dd4389322552abfa61f616585d75040114f7f098fa6c7b303",
        "summary.json":
            "3b1d7ba5ac2dfefdc811920f592edd7a253b2009a2e5b35bba5d8bdcddebe3ce",
    },
}


# the online runs' final sample averages miss their targets by more than
# tol = 1e-3 (by 0.0449 and 0.0971), so they exit 3; every other case exits 0
EXIT_CODES = {"micro_online": 3, "testcase2_online": 3}


def _config_path(name, tmp_path):
    micro = {"micro_compare": MICRO_COMPARE,
             "micro_compare_snr_points": MICRO_COMPARE_SNR_POINTS,
             "micro_online": MICRO_ONLINE, "micro_sweep": MICRO_SWEEP,
             **MICRO_FAMILIES}
    if name not in micro:
        return CONFIGS / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(micro[name]))
    return path


def _artifact_hashes(out: Path) -> dict:
    hashes = {}
    for path in sorted(out.glob("*.csv")):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("wall_time_s")
    blob = json.dumps(summary, sort_keys=True).encode()
    hashes["summary.json"] = hashlib.sha256(blob).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(tmp_path, name):
    out = tmp_path / "art"
    argv = ["--config", str(_config_path(name, tmp_path)), "--out", str(out)]
    assert main(argv) == EXIT_CODES.get(name, 0)
    assert _artifact_hashes(out) == GOLDEN[name]


def test_every_bundled_config_is_hashed():
    bundled = {path.stem for path in CONFIGS.glob("*.json")}
    assert bundled <= set(GOLDEN) and bundled == set(DRY_RUN)


# sha256 of the --dry-run stdout of each bundled config: the resolved
# config, which holds the keys its mode reads and only those
DRY_RUN = {
    "compare_schemes":
        "42f8749936b32780ff046c5815750678ef6b4ae6a588ee33ff27df43855d5425",
    "overhead":
        "77256f277cae99afe0005ada10c6b4a74b4cb166bbc71a6169faaf48556bb91d",
    "sweep_regions":
        "0657bb5a40b5bc531f7c3dc384c5ef592b7923af82814b734ee6e3bb56589a09",
    "testcase1":
        "5041b679bbcda07c6d3d595662c454723ca518e9968fca6eeefcfbc0e81da6b9",
    "testcase1_nonsmooth":
        "75b026092574017475ec185f1534457ad394e720f159bf5fcb43c629c145cade",
    "testcase2_online":
        "115954bbfb90777c7ab58ddd3bcc5413883b5d317cccece891f2800f6821b95a",
}


@pytest.mark.parametrize("name", sorted(DRY_RUN))
def test_dry_run_matches_golden_hash(capsys, name):
    assert main(["--config", str(CONFIGS / f"{name}.json"), "--dry-run"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == DRY_RUN[name]
