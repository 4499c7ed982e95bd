"""Largest relative change between two trees of qcsched CLI artifacts.

    python tests/golden_diff.py OLD_DIR NEW_DIR

For each CSV and each summary.json at the same relative path under both
directories, it prints the row counts and, per column, the largest relative
change |new - old|/|old| over the rows. A CSV's columns are its header; a
summary's are its key paths, with list indices dropped ("rows[].avg_rates"),
and its rows are its "rows" list. Subgradients sit near 0 at a solution, so
they are measured relative to their user's target instead: a trajectory's
``subgrad_m`` against ``targets[m]`` of the summary beside it, and a row's
``max_abs_subgradient`` against the row's largest average rate, which a
converged row serves within tol of its largest target. A text value that
differs reads ``changed``; a key only one side has is listed. Files whose
values all agree (a summary's wall_time_s aside) print one line each.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def relative(old: float, new: float, scale: float | None = None) -> float:
    """|new - old| over |scale|, by default over |old|: 0 if they are
    equal, inf if they differ and the scale is 0."""
    if new == old:
        return 0.0
    s = abs(old if scale is None else scale)
    return abs(new - old) / s if s else math.inf


def _merge(worst: dict, key: str, old, new, scale=None) -> None:
    """Fold one (old, new) pair into worst[key], "changed" for text."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (old, new)):
        change = 0.0 if old == new else "changed"
    else:
        change = relative(float(old), float(new), scale)
    prev = worst.get(key, 0.0)
    worst[key] = ("changed" if "changed" in (prev, change)
                  else max(prev, change))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_changes(old: Path, new: Path, targets=None) -> tuple:
    """((old rows, new rows), {column: largest change}) of two CSVs with one
    header row, compared row by row over the rows both have."""
    tables = [list(csv.reader(p.open(newline=""))) for p in (old, new)]
    header = tables[0][0]
    worst = {}
    for a, b in zip(tables[0][1:], tables[1][1:]):
        for name, x, y in zip(header, a, b):
            scale = None
            if name.startswith("subgrad_") and targets is not None:
                scale = targets[int(name.rpartition("_")[2]) - 1]
            _merge(worst, name, _cell(x), _cell(y), scale)
    return (len(tables[0]) - 1, len(tables[1]) - 1), worst


def _leaves(node, path: str = "", scale=None):
    """(key path, value, subgradient scale) of every leaf of a JSON tree;
    a dict with ``avg_rates`` (a row) scales its subgradients by them."""
    if isinstance(node, dict):
        if isinstance(node.get("avg_rates"), list):
            scale = max(abs(r) for r in node["avg_rates"])
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key, scale)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value, f"{path}[]", scale)
    else:
        yield path, node, scale


def summary_changes(old: Path, new: Path) -> tuple:
    """((old rows, new rows) or None without rows, {key path: largest
    change}, {key path: side that alone has it}) of two summary.json
    files, wall_time_s left out."""
    trees = [json.loads(p.read_text()) for p in (old, new)]
    flat = []
    for tree in trees:
        tree.pop("wall_time_s", None)
        leaves = {}
        for path, value, scale in _leaves(tree):
            leaves.setdefault(path, []).append((value, scale))
        flat.append(leaves)
    worst = {}
    for path in flat[0].keys() & flat[1].keys():
        for (x, scale), (y, _) in zip(flat[0][path], flat[1][path]):
            _merge(worst, path, x, y,
                   scale if "subgradient" in path else None)
    alone = {path: side for side, this, other in
             (("old", flat[0], flat[1]), ("new", flat[1], flat[0]))
             for path in this.keys() - other.keys()}
    rows = (tuple(len(t.get("rows", ())) for t in trees)
            if any("rows" in t for t in trees) else None)
    return rows, dict(sorted(worst.items())), alone


def _format(change) -> str:
    return change if isinstance(change, str) else f"{change:.2g}"


def diff_trees(old_dir: Path, new_dir: Path) -> list:
    """The report's lines for every artifact both trees have."""
    lines = []
    names = ("*.csv", "summary.json")
    shared = sorted({p.relative_to(old_dir) for n in names
                     for p in old_dir.rglob(n)}
                    & {p.relative_to(new_dir) for n in names
                       for p in new_dir.rglob(n)})
    for rel in shared:
        old, new = old_dir / rel, new_dir / rel
        alone = {}
        if rel.name == "summary.json":
            rows, worst, alone = summary_changes(old, new)
        else:
            summary = old.parent / "summary.json"
            targets = (json.loads(summary.read_text()).get("targets")
                       if summary.exists() else None)
            rows, worst = csv_changes(old, new, targets)
        if not (alone or any(worst.values())) and (rows is None
                                                   or rows[0] == rows[1]):
            lines.append(f"{rel}: identical")
            continue
        lines.append(f"{rel}:" if rows is None
                     else f"{rel}: rows {rows[0]} -> {rows[1]}")
        width = max(map(len, worst), default=0)
        lines += [f"  {key:<{width}}  {_format(change)}"
                  for key, change in worst.items()]
        lines += [f"  {key}: only in {side}"
                  for key, side in sorted(alone.items())]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/golden_diff.py OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    print("\n".join(diff_trees(Path(argv[0]), Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
