"""qcsched benchmark: offline solve time and online block throughput.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Workloads (see BENCHMARK.json for why each is
there): tc1_offline, ra1_online, schemes_sweep, ergodic_small. The default
seed is 1; 7919 is held out for confirming gains on inputs a change was not
tuned on.

Each invocation runs one workload in a fresh single-threaded process
(``workloads.py``; BLAS/OpenMP pools pinned to one thread) with qcsched
imported from ``src/``, plus four set-up-only processes. It prints the run
facts, every metric by name and unit, and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s`` -- ``import qcsched`` plus input generation, median of 5
  processes.
* ``task_s`` -- median wall time of the workload's main operation: 8
  offline smooth solves from the seed's 8 starting points, each from
  building the Problem to a converged λ (tc1_offline, ergodic_small); one
  ``run_online`` over 1000 blocks (ra1_online); one sweep_regions +
  compare_schemes task list (schemes_sweep).
* ``aux_s`` -- median wall time of its second operation: 1000 iterations of
  the non-smooth baseline (tc1_offline); one ``mc_primal`` over 8000 blocks
  (ra1_online); the compare_schemes part of the task list (schemes_sweep);
  one offline smooth iteration, i.e. the 8 solves' time over their
  iterations (ergodic_small).
* ``peak_rss_mb`` -- peak resident memory of the workload process.

The times in the JSON are scaled to a nominal machine speed: each
operation's wall time is multiplied by ``KERNEL_NOMINAL_S`` over the mean
time of a fixed numpy kernel, which never calls qcsched, timed just before
and just after the operation (``workloads.py``). The shared host this was
written on drifts by 10-40% within minutes, and the scaling removes most of
that from run-to-run spreads. The lines before the JSON print the speed
factor, the unscaled set-up times and, as unscaled wall times, the metrics in
their own terms (``solve_s``, ``solve_s_tail``, ``hard_iters_per_s``,
``online_blocks_per_s``, ``mc_blocks_per_s``, ``schemes_s``), plus
``fail_ratio`` with its base.

``--trace 1`` runs the first pass untraced, then with every qcsched module
boundary wrapped (``tracing.py``), then untraced again. It checks that traced
and untraced outputs are bitwise identical, writes the spans to
``perfbench/out/`` and reports the per-layer metrics, including
``trace.overhead_s`` (traced minus mean untraced wall time, which the host's
drift can make negative). ``dual.distinct_channel_ratio`` is a property of
the inputs, not a cost.

Exits 2 without a result when ``src/qcsched`` is missing, 1 when the
workload process dies.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tc1_offline", "ra1_online", "schemes_sweep", "ergodic_small")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "task_s": "s", "aux_s": "s",
                    "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(args, timeout):
    cmd = [sys.executable, str(HERE / "workloads.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def src_facts():
    files = sorted((SRC / "qcsched").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qcsched" / "__init__.py").is_file():
        print(f"error: {SRC / 'qcsched'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    spans = ""
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        setups = [run_child(common + ["--setup-only"], 60)
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        res = run_child(common + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace),
                                  "--spans", spans], CHILD_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: workload process failed: {e}", file=sys.stderr)
        return 1
    setups.append(res)

    lines, digest = src_facts()
    print(f"run: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    print(f"facts: nproc={os.cpu_count()} python={res['python']} "
          f"numpy={res['numpy']} "
          + " ".join(f"{v}=1" for v in THREAD_VARS)
          + " one workload per fresh process"
          + f" commit={commit()} src_sha256={digest} src_lines={lines}")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    print(f"fail_ratio = {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} attempted "
          f"operations and checks)")

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["per_layer"].items()}
        for k, base in res["ratio_bases"].items():
            print(f"base of {k}: {base}")
    else:
        metrics = {"setup_s": {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s"}}
        print(f"speed factor = {res['speed']:.4f} (scaled / wall time of the "
              f"operations; the lines up to the metrics are wall times)")
        print("setup wall times = " + " ".join(
            f"{s['setup_wall_s']:.4f}" for s in setups) + " s")
        for k, v in res.get("end_to_end", {}).items():
            metrics[k] = {"value": v, "unit": END_TO_END_UNITS[k]}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        for name, value, unit, note in res.get("report", []):
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name} = {shown} {unit} ({note})")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
