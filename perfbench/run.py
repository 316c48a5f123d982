"""scfosim benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload requant-chain --seed 1 --seconds 30 --trace 0

Each repetition runs the workload in a fresh interpreter (``worker.py``) with
BLAS/OpenMP threads pinned to 1.  Repetitions start until ``--seconds`` have
passed; at least MIN_SETUP_SAMPLES processes measure set-up.  ``--trace 0``
reports the end-to-end metrics (medians over repetitions); ``--trace 1`` adds
one traced repetition and reports the per-layer metrics instead.  Every
repetition's outputs are checked against ``reference.json``.

Standard output: an ``env`` line, one line per repetition, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import per_layer_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # the whole command must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker process to completion and return its result object."""
    now = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--spawned", repr(now)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scfosim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "scfosim" / "__init__.py").is_file():
        print(f"no scfosim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    remaining = lambda: HARD_LIMIT_S - (time.monotonic() - start)  # noqa: E731
    try:
        runs = []
        while True:
            t0 = time.monotonic()
            runs.append(spawn(args.workload, args.seed, "run", remaining()))
            took = time.monotonic() - t0
            if time.monotonic() - start >= args.seconds or remaining() < 2 * took:
                break
        traced = spawn(args.workload, args.seed, "trace", remaining()) if args.trace else None
        setups = [r["setup_s"] for r in runs + ([traced] if traced else [])]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "setup", remaining())["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "git_revision": git_revision(), **runs[0]["env"]}
    print(json.dumps({"env": env}))
    for i, r in enumerate(runs + ([traced] if traced else [])):
        kind = "trace" if traced is r else "run"
        print(f"# {kind} {i + 1}: wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} failed={r['failed']}/{r['attempted']}")
        for problem in r["problems"]:
            print(f"#   {problem}")

    measured = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    wall = statistics.median(r["wall_s"] for r in runs)
    if traced:
        values = dict(traced["layers"])
        values["run.cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
        values["run.trace_overhead_s"] = traced["wall_s"] - wall
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer_spec()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
