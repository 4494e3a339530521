"""Which xdiff bindings the traced run wraps, and the counts it takes there.

Span names are the per-layer metric prefixes of BENCHMARK.json:
``<module>.<function>``.  A function bound in several modules is wrapped
in each, under one span name.
"""

from __future__ import annotations

import math


def _bytes_out(args, kwargs, result):
    return {"bytes_out": result.nbytes}


def _train(args, kwargs, result):
    data, _mcfg, tcfg = args
    report = result[1]
    n_val = max(1, int(round(tcfg.val_fraction * data.n)))
    per_epoch = math.ceil((data.n - n_val) / tcfg.batch_size)
    return {"epochs": report.stopped_epoch, "steps": report.stopped_epoch * per_epoch}


def _rows(args, kwargs, result):
    return {"rows": result.n}


def _detect_rows(args, kwargs, result):
    _model, arr, t = args
    return {"rows": arr.shape[0], f"detect.candidates.o{t}": arr.shape[0]}


def _salience_rows(args, kwargs, result):
    return {"rows": args[1].shape[0], "salience.tuples": args[1].shape[0]}


BINDINGS = (
    ("xdiff.autodiff", "lattice_mul", "autodiff.lattice_mul", _bytes_out),
    ("xdiff.mlp", "lattice_mul", "autodiff.lattice_mul", _bytes_out),
    ("xdiff.autodiff", "lattice_compose", "autodiff.lattice_compose", _bytes_out),
    ("xdiff.mlp", "lattice_compose", "autodiff.lattice_compose", _bytes_out),
    ("xdiff.mlp", "train", "mlp.train", _train),
    ("xdiff.cli", "train", "mlp.train", _train),
    ("xdiff.detect", "forward_lattice", "mlp.forward_lattice", _detect_rows),
    ("xdiff.salience", "forward_lattice", "mlp.forward_lattice", _salience_rows),
    ("xdiff.cli", "save_csv", "mlp.csv", None),
    ("xdiff.cli", "load_csv", "mlp.csv", None),
    ("xdiff.cli", "save_model", "mlp.model_io", None),
    ("xdiff.cli", "load_model", "mlp.model_io", None),
    ("xdiff.benchmarks", "sample_dataset", "benchmarks.sample_dataset", _rows),
    ("xdiff.detect", "detect", "detect.detect", None),
    ("xdiff.cli", "detect", "detect.detect", None),
    ("xdiff.salience", "taylor_cam", "salience.taylor_cam", None),
    ("xdiff.salience", "top_interactions", "salience.top_interactions", None),
)


def install(tracer) -> None:
    for module, attr, name, counters in BINDINGS:
        tracer.wrap(module, attr, name, counters)
