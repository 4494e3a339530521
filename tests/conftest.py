import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xdiff


def pytest_report_header(config):
    """The setup the byte-determinism tests ran under: matrix products sum
    in an order that depends on the BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # numpy before 1.26 has no dict mode
        blas = "unknown"
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = ", ".join(
        f"{v}={os.environ.get(v, 'unset')}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return f"nproc: {cores}, numpy {np.__version__}, BLAS: {blas}, {env}"


@pytest.fixture()
def xdiff_cli():
    """Run the CLI in a subprocess as ``python -m xdiff <argv...>``
    (or as ``python -m <module>`` when ``module`` is given).

    The child imports the same ``xdiff`` source as this test process (its
    parent directory leads ``PYTHONPATH``), so neither an installed script
    nor a stale installed copy is involved.  ``XDIFF_SEED`` is removed
    from the child's environment so a run without ``--seed`` uses the
    documented default seed, 0, whatever the caller's shell holds.
    """
    env = dict(os.environ)
    env.pop("XDIFF_SEED", None)
    src = str(Path(xdiff.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv, module="xdiff"):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    return run
