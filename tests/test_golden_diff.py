"""golden_diff on two small synthetic artifact trees."""

import json

import pytest

from golden_diff import diff_trees, main


def _write(root, name, trajectory, summary):
    case = root / name
    case.mkdir(parents=True)
    (case / "trajectory.csv").write_text(
        "iter,lambda_1,subgrad_1,rate_1,power\n"
        + "".join(",".join(map(str, row)) + "\n" for row in trajectory))
    (case / "summary.json").write_text(json.dumps(summary))


def test_reports_row_counts_and_the_largest_change_per_column(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    rows = {"mode": "compare", "wall_time_s": 1.0, "rows": [
        {"scheme": "RA3", "avg_rates": [4.0], "max_abs_subgradient": 0.0},
        {"scheme": "RA4", "avg_rates": [8.0], "max_abs_subgradient": 1e-6}]}
    _write(old, "run", [(0, 1.0, 0.5, 3.5, 2.0), (1, 2.0, 1e-9, 4.0, 3.0)],
           {"targets": [4.0], "eps": 0.05, "wall_time_s": 1.0})
    _write(old, "rows", [(0, 1.0, 0.0, 4.0, 1.0)], rows)
    # λ moves by 1e-3 relative on row 0 and 2e-3 on row 1; the subgradient
    # by 4e-9 against its target 4 although 1e-9 doubles; a row is added
    _write(new, "run", [(0, 1.001, 0.5, 3.5, 2.0), (1, 2.004, 2e-9, 4.0, 3.0),
                        (2, 2.0, 0.0, 4.0, 3.0)],
           {"targets": [4.0], "wall_time_s": 2.0})
    rows["wall_time_s"] = 3.0
    rows["rows"][1] = {**rows["rows"][1], "max_abs_subgradient": 9e-6,
                       "scheme": "RA5"}
    _write(new, "rows", [(0, 1.0, 0.0, 4.0, 1.0)], rows)
    lines = diff_trees(old, new)
    assert lines[0] == "rows/summary.json: rows 2 -> 2"
    report = dict(line.split(None, 1) for line in lines if "  " in line
                  and ":" not in line)
    # 8e-6 against the row's largest average rate, 8
    assert report["rows[].max_abs_subgradient"] == "1e-06"
    assert report["rows[].scheme"] == "changed"
    assert report["rows[].avg_rates[]"] == "0"
    assert "rows/trajectory.csv: identical" in lines
    assert "run/trajectory.csv: rows 2 -> 3" in lines
    assert float(report["lambda_1"]) == pytest.approx(2e-3)
    assert float(report["subgrad_1"]) == pytest.approx(2.5e-10)
    assert report["power"] == "0"
    assert "  eps: only in old" in lines


def test_usage(capsys):
    assert main(["one"]) == 2
    assert "OLD_DIR NEW_DIR" in capsys.readouterr().err
