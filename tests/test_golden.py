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
            "13d57617249b0c20684c92a571dd896433083b17806a88542678ada3aa829806",
        "summary.json":
            "3995cb4c97dec66f8c4941bd12e466460ebdaaece6fac93a78f4990be3f6745d",
    },
    "micro_avg_ber_compare": {
        "compare.csv":
            "78169dc89e90bdc8f5b7f8785113a457a10bce5557061e7aa01870734c1ac6e7",
        "summary.json":
            "5019f3b8d39bcc7c954a66163553b66a5f6222df4c26aa3b5132ad43e3b350d2",
    },
    "micro_avg_ber_offline": {
        "trajectory.csv":
            "14a9b7b39d43d88e3afe5f4f7f560a44a5dd8d2a924bb8c29e28f4258d48ba9f",
        "summary.json":
            "f9ac4e90ab65bc114b355a8286690e00a51bc7032f3922eff496ed149d2aeda6",
    },
    "micro_inst_ber_compare": {
        "compare.csv":
            "a1831782365e800323d5c81af75595409b350b89056fab8463a0d23d5ecb1e28",
        "summary.json":
            "34cf535409cffc53e1ff4c16299bb1edf3d4c5a62bd9975dd39480b93bdf93af",
    },
    "micro_inst_ber_offline": {
        "trajectory.csv":
            "dd47bb1e863f50efe624f0c5d5cbe5d68cfd48235216bfeba7c8941213e1f2b1",
        "summary.json":
            "a58114fe06a317e5561e18789385c6b7e12318662e6558e0c804054875476d56",
    },
    "micro_compare": {
        "compare.csv":
            "346a9da4dcf3c22a30ccf6de91c77ce21f9aee519bac5e8ea25598903e6ae4f9",
        "summary.json":
            "d01261f572ed8fdba4f1f75259f887c3fe2ce5d42c7c8d2d7dd20615f37bd382",
    },
    "micro_compare_snr_points": {
        "compare.csv":
            "4ae61d1cd0253f18e6e33b088e8880c174b49427816d0b17a0089b85cee3bde7",
        "summary.json":
            "d01bfa2f22b4a59672b07db57c707b023fa5338cca56a64000ee8e72e5ca3ac8",
    },
    "micro_ergodic_compare": {
        "compare.csv":
            "7846595d4e97d202b237545047f189dd7535d58de99ae2c9d39efceb2de19b22",
        "summary.json":
            "5ceb6e0bab0fb2c7d9d654a3728144abbf8e7d8e7f9d7200bc710231980e638a",
    },
    "micro_ergodic_offline": {
        "trajectory.csv":
            "8292d337504a4ccff251027149ab3ce9a7324e5f0be070e84e43464661aa6bbc",
        "summary.json":
            "42b63a919e76809a3cfd8ddc45041cf5ace26962f56e069ea585492d1da29539",
    },
    "micro_online": {
        "trajectory.csv":
            "654873efc26b86f154a05d5377e6e88fe50b0b8687f5bae5bd3d69a27cf561b1",
        "summary.json":
            "5e647c65b2691dc18dbfc571436e438b9d96c1369b4e422be5df9a57fa640e7c",
    },
    "micro_sweep": {
        "sweep.csv":
            "bcde78f1c58feb198edf1d13db982c1d9e12319e1aaaa18f0b73d77f555a521f",
        "summary.json":
            "15dd89e09ba28d0baffa6efb2aa1da4c6803def4d3aed433f0420832aa8529de",
    },
    "overhead": {
        "summary.json":
            "922729c126102eeb53ac80006c2389849577512855316420f88062f9860f7724",
    },
    "testcase1": {
        "trajectory.csv":
            "fc8df2fba8fafa0833b14b287922b9e4f0aaa48b87f3a73829d05f9803dda041",
        "summary.json":
            "c68ca46e93912e6dcd3465b53d4c07ad3f7c9bd000d4c52cd89285aad9266a88",
    },
    "testcase1_nonsmooth": {
        "trajectory.csv":
            "005aa2506ac29d0f98ec7c8f2fdfc1294e532bb82df16c23cc4d9815cf2b5abe",
        "summary.json":
            "e5db5f3d1bb09cc562f70467a5d5455e888641eeb9cfe330d08e1e01713a32c7",
    },
    "testcase2_online": {
        "trajectory.csv":
            "d86c12a5a7a3b7b00956a61fbedb995f0d77e9f48c9422c05dc81b9830756143",
        "summary.json":
            "66eafb473a31d8ce7ac5cd963c7f5f441e9915c0cdbbac6dc38fd15c85be4030",
    },
    "sweep_regions": {
        "sweep.csv":
            "a1a5376218b9759cc2240d3944694f37a835f2c0718703159373a844ed0f2a4e",
        "summary.json":
            "06a0f9a00ed68eaf494683cf98c58d6e58186981e6c692170f0b9a165963f905",
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
        "daddcc7213f0c87548bfbcae79d1aed9b707f256421e2dcd6f6ac1380d7af514",
    "testcase2_online":
        "115954bbfb90777c7ab58ddd3bcc5413883b5d317cccece891f2800f6821b95a",
}


@pytest.mark.parametrize("name", sorted(DRY_RUN))
def test_dry_run_matches_golden_hash(capsys, name):
    assert main(["--config", str(CONFIGS / f"{name}.json"), "--dry-run"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == DRY_RUN[name]
