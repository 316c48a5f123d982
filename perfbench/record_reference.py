"""Record the reference outputs that the benchmark checks against.

Run once, at the commit whose outputs are the reference (the seed commit),
from the root of a checkout:

    python3 perfbench/record_reference.py --seeds 0-31

It runs the benchmark's own operations (``workloads.build``) on each seed and
writes ``perfbench/reference.json``: the ``requant_loss.csv`` values and
verdict lines of requant-chain, the verdict lines of every stream-scenarios
scenario, and the SHA-256 of each hw-datapath direct output.  Never
re-record to make a failing check pass: a changed reference hides exactly the
change the check exists to catch.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_seed(seed: int, out: Path, bank) -> dict:
    """Outputs of every workload's operations for one seed."""
    nothing = {name: {"samples": None, "seeds": {}} for name in wl.WORKLOADS}
    entry = {}

    (op,) = wl.build("requant-chain", seed, out, bank, nothing)
    op.call()
    with open(out / op.name / "requant_loss.csv") as fh:
        row = next(csv.DictReader(fh))
    entry["requant-chain"] = {
        **{k: float(row[k]) for k in ("loss_blue", "loss_red", "difference", "stderr")},
        "verdicts": wl.read_verdicts(out / op.name),
    }

    entry["stream-scenarios"] = {}
    for op in wl.build("stream-scenarios", seed, out, bank, nothing):
        op.call()
        entry["stream-scenarios"][op.name] = wl.read_verdicts(out / op.name)

    entry["hw-datapath"] = {}
    for op in wl.build("hw-datapath", seed, out, bank, nothing):
        kind, case = op.name.split()
        if kind == "resample":
            entry["hw-datapath"][case] = wl.digest(op.call().data)
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 1,2,7")
    ap.add_argument("--out", default=str(wl.REFERENCE))
    args = ap.parse_args(argv)

    from scfosim.resampler import design_bank

    bank = design_bank(56, 1024, 19)
    work_dir = ROOT / ".perfbench-out" / "record"
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    ref = {
        "recorded_at": rev.stdout.strip() or None,
        "recorded_with": {"python": platform.python_version(), "numpy": np.__version__},
        "requant-chain": {"samples": wl.REQUANT_SAMPLES, "seeds": {}},
        "stream-scenarios": {"seeds": {}},
        "hw-datapath": {"samples": wl.HW_SAMPLES, "seeds": {}},
    }
    for seed in parse_seeds(args.seeds):
        shutil.rmtree(work_dir, ignore_errors=True)
        for name, outputs in record_seed(seed, work_dir, bank).items():
            ref[name]["seeds"][str(seed)] = outputs
        print(f"seed {seed}: {ref['requant-chain']['seeds'][str(seed)]['verdicts'][0]}", flush=True)

    shutil.rmtree(work_dir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
