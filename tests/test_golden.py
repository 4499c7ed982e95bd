"""Golden-output guardrail: every artifact of a fixed set of CLI runs, hashed.

The set is every bundled config and seven micro configs, among them an
offline and a compare run of the ergodic-capacity and average-BER families,
whose root-finds no bundled config reaches. Each case runs
``qcsched.cli.main`` in-process and compares the sha256 of every CSV it
writes, and of ``summary.json`` with ``wall_time_s`` removed,
against the hashes below. A refactor that claims to keep the output bits
must keep these hashes; a change that moves them on purpose (a new random
stream, a fixed bug) updates them and says why in CHANGES.md.

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
    "fading": {"num_users": 2, "num_channels": 4, "snr_db": 6.0, "seed": 2},
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

# M=3, K=3: M·K is not a multiple of 4, so each block's counter stride is
# padded (three Philox steps, twelve words, nine gains)
MICRO_ONLINE = {
    **MICRO, "mode": "online",
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
SOLVE = {"beta": 0.1, "tol": 1e-4, "max_iters": 2000, "record_every": 5}
MICRO_FAMILIES = {
    "micro_ergodic_offline": {**MICRO, "mode": "offline_smooth",
                              "power_rate": ERGODIC, "solver": SOLVE},
    "micro_ergodic_compare": {**MICRO_COMPARE, "power_rate": ERGODIC},
    "micro_avg_ber_offline": {**MICRO, "mode": "offline_smooth",
                              "power_rate": AVG_BER, "solver": SOLVE},
    "micro_avg_ber_compare": {**MICRO_COMPARE, "power_rate": AVG_BER},
}

GOLDEN = {
    "compare_schemes": {
        "compare.csv":
            "5e6782165be7721a47f0af0c1c7b72dbf3dec6a198bc8ed894c6774288ad740c",
        "summary.json":
            "bed5fcb6d21c80ce7f91b733d2e0f03cedd0a1c581245b8499df164e24215275",
    },
    "micro_avg_ber_compare": {
        "compare.csv":
            "a53ad54ff3150044d74ac917e99997cfd40522adc0b0d9c1df4fdd5e25e0eb55",
        "summary.json":
            "b6e614acdd9705c3e0d6df36150b8d454338005d2e9f7038226356bbf9915944",
    },
    "micro_avg_ber_offline": {
        "trajectory.csv":
            "14a9b7b39d43d88e3afe5f4f7f560a44a5dd8d2a924bb8c29e28f4258d48ba9f",
        "summary.json":
            "f9ac4e90ab65bc114b355a8286690e00a51bc7032f3922eff496ed149d2aeda6",
    },
    "micro_compare": {
        "compare.csv":
            "d9205d928039fcb097bec3b5ecb4946c4314f068f79de87a969bbf4d84fc99c0",
        "summary.json":
            "f06c220da90ee2446df9430f094516aab375dddd61592de3ba3a78ca53798f4e",
    },
    "micro_ergodic_compare": {
        "compare.csv":
            "cdb10f102626d259fbb62bd4a906609546871e2ac28833617f556fad3c499e27",
        "summary.json":
            "56c5f6b6338848798fc97ccdaba3e68f3a39e454546e083f17ba4b3a85732a06",
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
            "0b618821904bd82b3e5aaf3a679a9355ef64021b1609a19c8e856465932275f4",
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
            "29e08402b40fce8e00a51f6f472d761dad369767514e1b970274df4296e013db",
        "summary.json":
            "9d57c05bd0782318a7127ce93b6a5e0508fef0fe579a3b484f9398084a453b9a",
    },
    "testcase2_online": {
        "trajectory.csv":
            "d86c12a5a7a3b7b00956a61fbedb995f0d77e9f48c9422c05dc81b9830756143",
        "summary.json":
            "b612725b2a67978839bbb8e25512ac7e419509b72aa8ba000728b04ff08bdc84",
    },
    "sweep_regions": {
        "sweep.csv":
            "a1a5376218b9759cc2240d3944694f37a835f2c0718703159373a844ed0f2a4e",
        "summary.json":
            "06a0f9a00ed68eaf494683cf98c58d6e58186981e6c692170f0b9a165963f905",
    },
}


def _config_path(name, tmp_path):
    micro = {"micro_compare": MICRO_COMPARE, "micro_online": MICRO_ONLINE,
             "micro_sweep": MICRO_SWEEP, **MICRO_FAMILIES}
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
    assert main(argv) == 0
    assert _artifact_hashes(out) == GOLDEN[name]


def test_every_bundled_config_is_hashed():
    assert {path.stem for path in CONFIGS.glob("*.json")} <= set(GOLDEN)
