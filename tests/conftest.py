import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xdiff


def pytest_report_header(config):
    """The setup the byte-determinism tests ran under: matrix products sum
    in an order that depends on the BLAS and its thread count, which
    importing xdiff (above) pins to one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # numpy before 1.26 has no dict mode
        blas = "unknown"
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"nproc: {cores}, numpy {np.__version__}, BLAS: {blas}, "
        f"{xdiff.blas.core()} kernels on {xdiff.blas.threads()} thread(s)"
    )


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail any test that leaves a thread alive which it did not find."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still alive after the test: {left}")


@pytest.fixture()
def traced_peak():
    """peak(fn, *args, **kwargs): the bytes fn allocates at its peak,
    above what was live when it was called, as tracemalloc counts them."""

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture()
def xdiff_cli():
    """Run the CLI in a subprocess as ``python -m xdiff <argv...>``
    (or as ``python -m <module>`` when ``module`` is given), with the
    variables in ``env`` set on top of this process's environment.

    The child imports the same ``xdiff`` source as this test process (its
    parent directory leads ``PYTHONPATH``), so neither an installed script
    nor a stale installed copy is involved.  ``XDIFF_SEED`` is removed
    from the child's environment so a run without ``--seed`` uses the
    documented default seed, 0, whatever the caller's shell holds.
    """
    base_env = dict(os.environ)
    base_env.pop("XDIFF_SEED", None)
    src = str(Path(xdiff.__file__).resolve().parent.parent)
    base_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base_env.get("PYTHONPATH")]))

    def run(*argv, module="xdiff", env=None):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env={**base_env, **(env or {})},
        )

    return run
