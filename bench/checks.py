"""Output checks made apart from xdiff.

Every check either recomputes a result by other means (central
differences of the plain forward pass, a pairwise AUC, sha256 of the
artifact bytes) or tests a property the method must have (sorted and
distinct subsets, invariance under relabelling the inputs).  None of
them compares against a stored copy of earlier output.  A failed check
raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np

# Maximal interacting groups, 0-indexed, read off the paper's formulas:
# F8 = x1 x2 + 2^(x3+x5+x6) + 2^(x3+x4+x5+x7) + sin(x7 sin(x8+x9)) + arccos(0.9 x10)
F8_GROUPS = ((0, 1), (2, 4, 5), (2, 3, 4, 6), (6, 7, 8))


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, abs_: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def truth_subsets(groups, order: int) -> set[tuple[int, ...]]:
    """Size-``order`` subsets lying inside some group."""
    return {c for g in groups for c in combinations(sorted(g), order)}


def pairwise_auc(scores: dict, positives) -> float:
    """Probability that a positive's |score| beats a negative's, ties
    counting half, by comparing every positive-negative pair."""
    pos = set(positives)
    p = np.array([abs(v) for k, v in scores.items() if k in pos], dtype=np.float64)
    n = np.array([abs(v) for k, v in scores.items() if k not in pos], dtype=np.float64)
    require(len(p) == len(pos), "a positive subset is missing from the scores")
    require(len(p) > 0 and len(n) > 0, "AUC needs a positive and a negative")
    wins = (p[:, None] > n[None, :]).sum() + 0.5 * (p[:, None] == n[None, :]).sum()
    return float(wins / (len(p) * len(n)))


def truth_auc(rows, groups, order: int) -> float | None:
    """AUC of one order's ranked (subset, strength) rows against the
    groups' subsets of that order; true subsets the ranking left out
    score 0.  None when either class is empty."""
    scores = {tuple(s): float(v) for s, v in rows}
    positives = truth_subsets(groups, order)
    for s in positives:
        scores.setdefault(s, 0.0)
    if not positives or len(positives) == len(scores):
        return None
    return pairwise_auc(scores, positives)


# --- CLI artifacts -----------------------------------------------------------


def check_run_doc(run_doc: dict, out_dir: Path) -> None:
    """run.json finished ``ok`` and names each artifact by its sha256."""
    require(run_doc.get("status") == "ok", f"run.json status is {run_doc.get('status')!r}")
    require(bool(run_doc.get("artifacts")), "run.json lists no artifacts")
    for name, digest in run_doc["artifacts"].items():
        actual = hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        require(actual == digest, f"sha256 of {name} is {actual}, run.json says {digest}")


def check_ranking_doc(doc: dict, dim: int, max_order: int, full_order: int) -> None:
    """Each order's list: sorted distinct subsets of the order's size,
    finite strengths in descending |strength|; exhaustive up to
    full_order."""
    orders = doc.get("orders", {})
    require(sorted(orders, key=int) == [str(m) for m in range(2, max_order + 1)],
            f"orders {sorted(orders)} do not run 2..{max_order}")
    for key, rows in orders.items():
        m = int(key)
        require(len(rows) > 0, f"order {m} is empty")
        sets = [tuple(r["set"]) for r in rows]
        for s in sets:
            require(len(s) == m, f"order-{m} list holds {s}")
            require(list(s) == sorted(set(s)), f"subset {s} is not sorted and distinct")
            require(all(0 <= v < dim for v in s), f"subset {s} leaves 0..{dim - 1}")
        require(len(set(sets)) == len(sets), f"order {m} repeats a subset")
        mags = [abs(r["strength"]) for r in rows]
        require(all(math.isfinite(v) for v in mags), f"order {m} has a non-finite strength")
        require(all(a >= b for a, b in zip(mags, mags[1:])),
                f"order {m} is not in descending |strength|")
        if m <= full_order:
            require(len(sets) == math.comb(dim, m), f"order {m} is not exhaustive")


# --- cross partials ----------------------------------------------------------


def central_partials(f, x: np.ndarray, subsets, h: float) -> np.ndarray:
    """Nested central differences of a batched scalar function ``f``
    (rows in, one value per row out) over each subset, at point x."""
    points, weights = [], []
    for s in subsets:
        for signs in product((1.0, -1.0), repeat=len(s)):
            p = x.copy()
            for idx, sign in zip(s, signs):
                p[idx] += sign * h
            points.append(p)
            weights.append(math.prod(signs))
    values = np.asarray(f(np.array(points)), dtype=np.float64).reshape(-1)
    per = [2 ** len(s) for s in subsets]
    out, at = [], 0
    for s, count in zip(subsets, per):
        w = np.array(weights[at:at + count])
        out.append(float(w @ values[at:at + count]) / (2 * h) ** len(s))
        at += count
    return np.array(out)


def check_partials_fd(exact: dict, f, x, h: float, rel: float, abs_: float) -> None:
    subsets = sorted(exact)
    fd = central_partials(f, np.asarray(x, dtype=np.float64), subsets, h)
    for s, approx in zip(subsets, fd):
        require(close(exact[s], approx, rel, abs_),
                f"partial over {s} is {exact[s]!r}, central differences give {approx!r}")


def check_relabelled(exact: dict, relabelled: dict, scale: float) -> None:
    """Partials computed with the inputs permuted equal the originals."""
    require(set(exact) == set(relabelled), "relabelled run scored other subsets")
    for s, v in exact.items():
        require(close(v, relabelled[s], 1e-9, 1e-12 * scale),
                f"partial over {s} is {v!r}, {relabelled[s]!r} with the inputs permuted")


# --- salience ----------------------------------------------------------------


def fold_squared(raw: dict, comb: tuple[int, ...]) -> float:
    """Symmetrized squared salience of an index set from its directed
    cells: the sum of their squares."""
    return sum(raw[p] ** 2 for p in permutations(comb))


def check_top_list(top, values: np.ndarray, k: int) -> None:
    """top_interactions: k distinct sorted index sets, strongest first,
    each carrying the largest cell among its permutations."""
    require(len(top) == k, f"top list has {len(top)} entries, wanted {k}")
    sets = [tuple(s) for s, _ in top]
    require(len(set(sets)) == len(sets), "top list repeats a set")
    for s, v in top:
        require(list(s) == sorted(set(s)), f"top set {s} is not sorted and distinct")
        best = max(float(values[p]) for p in permutations(s))
        require(v == best, f"top set {s} carries {v!r}, its cells peak at {best!r}")
    require(all(a[1] >= b[1] for a, b in zip(top, top[1:])), "top list is not descending")


def check_folded_tensor(values: np.ndarray, order: int) -> None:
    """A symmetrized squared tensor of order >= 3 is finite, non-negative,
    and zero off the sorted index sets."""
    require(bool(np.isfinite(values).all()), f"order-{order} tensor is not finite")
    require(bool((values >= 0).all()), f"order-{order} tensor has a negative cell")
    for idx in product(range(values.shape[0]), repeat=order):
        if list(idx) != sorted(set(idx)):
            require(values[idx] == 0.0, f"order-{order} cell {idx} is off the sorted sets")
