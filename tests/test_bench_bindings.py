"""The benchmark reaches xdiff by module and attribute name: the traced
run wraps functions by name, and the workloads read attributes of the
modules they import.  A rename or deletion in xdiff would break either
only when the benchmark runs, so the names are checked here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bindings():
    spec = importlib.util.spec_from_file_location("bench_bindings", _BENCH / "bindings.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.BINDINGS


def _workload_attributes():
    """(module, attribute) for every ``alias.attr`` that bench/workloads.py
    reads, where ``alias = importlib.import_module("xdiff...")``."""
    tree = ast.parse((_BENCH / "workloads.py").read_text())
    modules = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "importlib.import_module"
        ):
            name = node.value.args[0].value
            if name.startswith("xdiff"):
                modules[node.targets[0].id] = name
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _bindings()])
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_workloads_import_xdiff_modules():
    assert {m for m, _ in _workload_attributes()} == {
        "xdiff.cli", "xdiff.benchmarks", "xdiff.detect", "xdiff.mlp", "xdiff.salience",
    }


@pytest.mark.parametrize("module, attr", _workload_attributes())
def test_workload_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
