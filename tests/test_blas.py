"""Importing xdiff pins numpy's OpenBLAS to one thread, so trained
weights are the same whatever thread count the environment asks for."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xdiff
from xdiff import blas


def _python(code, **env):
    """Run ``python -c code`` on this checkout's xdiff; its stdout, split."""
    src = str(Path(xdiff.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **env},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("imports", ["numpy, xdiff", "xdiff, numpy"])
def test_import_pins_one_openblas_thread(imports):
    """numpy first takes the ctypes path, xdiff first the environment
    variable; either way two requested threads become one."""
    out = _python(f"import {imports}; print(xdiff.blas.threads())", OPENBLAS_NUM_THREADS="2")
    assert out == ["1"]


def test_trained_model_is_the_same_at_any_requested_thread_count(tmp_path, xdiff_cli):
    """Two OpenBLAS threads split the network's matrix products and sum
    them in another order; unpinned, this model.json differed."""
    proc = xdiff_cli("gen-data", "--function", "F8", "--samples", "200", "--seed", "3",
                     "--out", "f8.csv", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    models = []
    for threads in ("2", "1"):
        out = tmp_path / f"t{threads}"
        proc = xdiff_cli("train", "--data", str(tmp_path / "f8.csv"), "--epochs", "1",
                         "--patience", "1", "--seed", "3", "--out-dir", str(out),
                         env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]


def test_pin_warns_when_it_finds_no_setter(monkeypatch):
    monkeypatch.setattr(blas, "_openblas_function", lambda name: None)
    with pytest.warns(RuntimeWarning, match="thread setter was not found"):
        blas.pin()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_this_process_runs_one_openblas_thread():
    assert blas.threads() == 1
