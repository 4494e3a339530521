"""Benchmark for xdiff: one workload per run, one operation at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; xdiff is imported from ./src.
The run sets the workload up SETUPS times, then repeats its operation,
in a closed loop, until S seconds have passed, checking every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics of BENCHMARK.json with --trace 1.
The run's environment and every timing go to bench/results/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_xdiff():
    """Import xdiff from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import xdiff

    if not Path(xdiff.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"xdiff was imported from {xdiff.__file__}, not from {SRC}")
    return xdiff


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it says."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_xdiff()
    import_s = time.perf_counter() - T0

    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        import bindings

        tracer = Tracer()
        bindings.install(tracer)
    out_root = BENCH / "out" / f"{args.workload}-{os.getpid()}"
    work = workloads.WORKLOADS[args.workload](out_root, tracer)

    build_s = []
    for i in range(SETUPS):
        if tracer:
            tracer.phase = ("setup", i)
        t = time.perf_counter()
        work.setup(args.seed)
        build_s.append(time.perf_counter() - t)
    setup_s = import_s + median(build_s)

    op_s, check_s, attempted, failed, correct = [], [], 0, 0, True
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        inp = work.prepare(attempted)
        attempted += 1
        if tracer:
            tracer.phase = ("op", attempted - 1)
        t = time.perf_counter()
        try:
            try:
                out = work.run(inp)
            finally:
                op_s.append(time.perf_counter() - t)
                if tracer:
                    tracer.phase = None
            t = time.perf_counter()
            work.check(inp, out)
            check_s.append(time.perf_counter() - t)
        except CheckFailed as e:
            failed += 1
            correct = False
            print(f"operation {attempted - 1}: wrong output: {e}", file=sys.stderr)
        except Exception:  # a fault in the program: count it and go on
            failed += 1
            print(f"operation {attempted - 1} failed:", file=sys.stderr)
            traceback.print_exc()
        # free this output before the next operation's clock starts
        out = None
    if out_root.exists():
        import shutil

        shutil.rmtree(out_root, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        from tracer import layer_metrics

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(tracer, list(units))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": median(op_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "import_s": import_s,
        "setup_build_s": build_s, "op_s": op_s, "check_s": check_s, "peak_rss_mb": peak_rss_mb,
        "result": result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        tracer.dump(results / f"{stem}.trace.jsonl")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
