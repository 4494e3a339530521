"""A nested central-difference estimate of a mixed partial, kept as the
tests' reference: it is independent of the lattice arithmetic that
``autodiff.cross_partial`` and ``mlp.forward_lattice`` run on."""

from typing import Callable, Iterable, Sequence

import numpy as np


def fd_oracle(f: Callable, point: Sequence[float], indices: Iterable[int], h: float = 1e-3) -> float:
    """Nested central-difference estimate of the mixed partial of ``f``
    at ``point`` in ``indices``.  Accuracy degrades with subset size, so
    sizes above 3 are not recommended.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    order = sorted(set(int(i) for i in indices))
    base = np.asarray(point, dtype=np.float64)

    def rec(x: np.ndarray, depth: int) -> float:
        if depth == len(order):
            return float(f(x))
        i = order[depth]
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        return (rec(xp, depth + 1) - rec(xm, depth + 1)) / (2.0 * h)

    return rec(base, 0)
