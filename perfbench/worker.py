"""One repetition of a benchmark workload in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition pays
interpreter start-up, imports and cold caches the way a user's run does.  It
prints one JSON object as its last line of standard output.

Modes:
  setup  import the workload's modules, design one coefficient bank and the
         Lloyd-Max levels, then stop (measures set-up time only);
  run    set up, then time every operation of the workload and check it;
  trace  as run, with the per-layer tracer installed around each operation.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads; the caller's shell is not trusted.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# The checkout's own sources, ahead of anything installed.
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def blas_env() -> dict:
    """Versions, BLAS build, and the thread settings in effect in this process."""
    import numpy as np
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        env["blas"] = None
    env["openblas_threads"] = _openblas_threads(np)
    return env


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if it says."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken by the parent just before starting this process")
    args = ap.parse_args(argv)

    import workloads

    for name in workloads.MODULES[args.workload]:
        importlib.import_module(f"scfosim.{name}")
    from scfosim.frontend import lloyd_max_levels
    from scfosim.resampler import design_bank

    bank = design_bank(56, 1024, 19)
    lloyd_max_levels(16)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned, "env": blas_env()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, out_dir, bank, workloads.load_reference())

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer({name: importlib.import_module(f"scfosim.{name}") for name in tracing.LAYERS})

    wall = cpu = 0.0
    problems = []
    failed = 0
    for op in ops:
        error = None
        with tracer if tracer is not None else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = op.call()
            except Exception as exc:  # a raising call is a failed operation, not a crash
                error = exc
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        try:  # an output the check cannot read is a failed operation too
            found = [f"raised {error!r}"] if error is not None else op.check(out)
        except Exception as exc:
            found = [f"check raised {exc!r}"]
        out = None
        if found:
            failed += 1
            problems += [f"{op.name}: {p}" for p in found]

    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(ops),
        failed=failed,
        problems=problems,
    )
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.json")
        result["layers"] = tracing.layer_metrics(tracing.summarize(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
