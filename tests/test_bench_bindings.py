"""The traced benchmark wraps xdiff functions by module and name; a
rename in xdiff would break it only when a traced run is made, so the
names are checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_BINDINGS = Path(__file__).resolve().parents[1] / "bench" / "bindings.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("bench_bindings", _BINDINGS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.BINDINGS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _bindings()])
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
