"""The dense seeded lattice pass, kept as the tests' reference.

``mlp.forward_lattice`` runs a batch of seeded rows from its parts (the
value row, a bank of direction columns and each row's tags).  The pass
it replaced seeded a dense (rows, inputs, 2^t) input and ran every layer
on it, the first gemm row by row and every chain rule through
``lattice_compose``.  The helpers below rebuild that input the way
detect and salience seeded it, and run that pass.
"""

import numpy as np

from xdiff import mlp
from xdiff.autodiff import lattice_call, lattice_compose


def detect_seeds(row, candidates, t):
    """Every input's value slot holds row; tag i is a unit direction on
    variable candidates[b][i]."""
    arr = np.zeros((len(candidates), row.size, 1 << t))
    arr[..., 0] = row
    tags = np.asarray(candidates)
    arr[np.arange(len(tags))[:, None], tags, 1 << np.arange(t)] = 1.0
    return arr


def salience_seeds(x, tuples, t, local):
    """The grid x in every value slot; tag 0 runs along x_i's coordinates
    (on vector i alone when local, else on every vector slot), each
    further tag along all of one vector's coordinates."""
    tups = np.asarray(tuples)
    rows = np.arange(len(tups))
    arr = np.zeros((len(tups),) + x.shape + (1 << t,))
    arr[..., 0] = x
    if local:
        arr[rows, tups[:, 0], :, 1] = x[tups[:, 0]]
    else:
        arr[..., 1] = x[tups[:, 0]][:, None, :]
    for tag in range(1, t):
        arr[rows, tups[:, tag], :, 1 << tag] = 1.0
    return arr.reshape(len(tups), -1, 1 << t)


def dense_pass(model, arr, t, compose=lattice_compose):
    """The (rows, outputs, 2^t) coefficients of a model on the dense
    input arr: an Mlp layer by layer, a callable through lattice_call."""
    if not isinstance(model, mlp.Mlp):
        return lattice_call(model, arr, t)[:, None, :]
    table = mlp.activation_table(model.config)
    last = len(model.weights) - 1
    h = arr
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(w, h)
        z[..., 0] += b
        h = z if i == last else compose(table, z, t)
    return h


def small_chunks(monkeypatch, columns):
    """Cut every lattice pass into chunks of about ``columns`` columns
    (rows times a network's widest layer, or a callable's input count)."""
    monkeypatch.setattr(mlp, "CHUNK_BYTES", 1)
    monkeypatch.setattr(mlp, "CHUNK_MIN_COLUMNS", columns)
