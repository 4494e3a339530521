"""Ten synthetic regression benchmarks with known interaction structure.

Each function couples specific variable groups; the maximal coupled
groups are hard coded next to each definition, derived term by term: a
group is the variable set of one term that cannot be written as a sum of
pieces over proper subsets of its variables, and a pair belongs to the
ground truth exactly when both variables sit inside some group.  Almost
all groups are witnessed directly by a nonzero mixed partial somewhere
on the domain.  Two terms are the exception: |x6 + x7| in f5 and
max(x3 x4 + x6, 0) in f7 are piecewise linear along some directions, so
their cross partials vanish almost everywhere, yet neither splits into
univariate pieces; they still count as groups, and the test-suite
witnesses them with mixed second differences at a macroscopic step
instead of derivatives.  Every excluded pair is verified to show neither
a cross partial nor a mixed difference anywhere.

All functions take a length-10 sequence of plain numbers or CrossDuals;
formulas route scalar math through the callable autodiff derivative
tables so the identical source evaluates both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import CrossDual, DomainError
from .mlp import Dataset


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, x):
        """Membership of a number, or elementwise of an array."""
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return above & below

    def closure_contains(self, x):
        # evaluation accepts the closed hull; exact endpoints are fine
        # for every formula even where sampling stays in the interior
        return (self.lo <= x) & (x <= self.hi)

    def __str__(self) -> str:
        return f"{'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"


_UNIT = Interval(-1.0, 1.0)
_DEFAULT_DOMAIN = (_UNIT,) * 10


@dataclass(frozen=True)
class GroundTruth:
    """Maximal interacting variable sets (0-indexed)."""

    maximal_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sets = tuple(tuple(sorted(s)) for s in self.maximal_sets)
        object.__setattr__(self, "maximal_sets", sets)
        for a in sets:
            for b in sets:
                if a != b and set(a) <= set(b):
                    raise ValueError(f"{a} is contained in {b}; sets must be maximal")

    def subsets(self, m: int) -> tuple[tuple[int, ...], ...]:
        """All size-m variable subsets lying inside some maximal set."""
        found = set()
        for s in self.maximal_sets:
            found.update(combinations(s, m))
        return tuple(sorted(found))

    def pairwise(self) -> set[tuple[int, int]]:
        return set(self.subsets(2))


@dataclass(frozen=True)
class SynthFunction:
    fid: str
    fn: Callable
    domain: tuple[Interval, ...]
    truth: tuple[tuple[int, ...], ...]
    arity: int = 10


# b^t terms are written exp(t ln b) so the plain-float and dual paths
# run the same arithmetic and the value slices match bit for bit.
_LN_PI = math.log(math.pi)
_LN2 = math.log(2.0)


# --- f1: pi^(x1 x2) sqrt(2 x3)  -  arcsin(x4)  +  log(x3 + x5)
#         -  (x9/x10) sqrt(x7/x8)  -  x2 x7
# groups: {1,2,3} (first product), {3,5} (log), {7,8,9,10} (ratio product),
#         {2,7}; arcsin(x4) is univariate.  0-indexed below.
def _f1(x):
    x1, x2, x3, x4, x5, _x6, x7, x8, x9, x10 = x
    return (
        ad.exp((x1 * x2) * _LN_PI) * ad.sqrt(2.0 * x3)
        - ad.arcsin(x4)
        + ad.log(x3 + x5)
        - (x9 / x10) * ad.sqrt(x7 / x8)
        - x2 * x7
    )


# --- f2: pi^(x1 x2) sqrt(2|x3|)  -  arcsin(0.5 x4)  +  log(|x3 + x5| + 1)
#         +  (x9 / (1 + |x10|)) sqrt(|x7| / (1 + |x8|))  -  x2 x7
# same group structure as f1; every unguarded sub-expression is wrapped
# in an absolute value, so the whole cube (-1, 1)^10 is usable.
def _f2(x):
    x1, x2, x3, x4, x5, _x6, x7, x8, x9, x10 = x
    return (
        ad.exp((x1 * x2) * _LN_PI) * ad.sqrt(2.0 * abs(x3))
        - ad.arcsin(0.5 * x4)
        + ad.log(abs(x3 + x5) + 1.0)
        + (x9 / (1.0 + abs(x10))) * ad.sqrt(abs(x7) / (1.0 + abs(x8)))
        - x2 * x7
    )


# --- f3: exp|x1 - x2|  +  |x2 x3|  -  x3^(2|x4|)
#         +  log(x4^2 + x5^2 + x7^2 + x8^2)  +  x9  +  1/(1 + x10^2)
# groups: {1,2}, {2,3}, {3,4}, {4,5,7,8}.  The power term reads as
# (x3^2)^|x4|, which keeps negative bases meaningful.
def _pow_term(base, expo):
    # (base^2) ** expo via exp(expo * log(base^2))
    return ad.exp(expo * ad.log(base * base))


def _f3(x):
    x1, x2, x3, x4, x5, _x6, x7, x8, x9, x10 = x
    return (
        ad.exp(abs(x1 - x2))
        + abs(x2 * x3)
        - _pow_term(x3, abs(x4))
        + ad.log(x4 * x4 + x5 * x5 + x7 * x7 + x8 * x8)
        + x9
        + 1.0 / (1.0 + x10 * x10)
    )


# --- f4: f3 plus (x1 x4)^2, adding the group {1,4}.
def _f4(x):
    x1, x4 = x[0], x[3]
    return _f3(x) + (x1 * x4) * (x1 * x4)


# --- f5: 1/(1 + x1^2 + x2^2 + x3^2)  +  sqrt|x4 + x5|  +  |x6 + x7|
#         +  x8 x9 x10
# groups: {1,2,3}, {4,5}, {6,7}, {8,9,10}.  |x6 + x7| has cross partial
# zero almost everywhere, but it is not g(x6) + h(x7) for any g, h (its
# mixed second difference across the crease is nonzero), so {6,7} is a
# genuine group; smooth fits of f5 show curvature there.
def _f5(x):
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = x
    return (
        1.0 / (1.0 + x1 * x1 + x2 * x2 + x3 * x3)
        + ad.sqrt(abs(x4 + x5))
        + abs(x6 + x7)
        + x8 * x9 * x10
    )


# --- f6: exp(|x1 x2| + 1)  -  exp(|x3 + x4| + 1)  +  cos(x5 + x6 - x8)
#         +  sqrt(x8^2 + x9^2 + x10^2)
# groups: {1,2}, {3,4}, {5,6,8}, {8,9,10}.  exp of |linear| is curved,
# so {3,4} stays in, unlike a bare absolute value.
def _f6(x):
    x1, x2, x3, x4, x5, x6, _x7, x8, x9, x10 = x
    return (
        ad.exp(abs(x1 * x2) + 1.0)
        - ad.exp(abs(x3 + x4) + 1.0)
        + ad.cos(x5 + x6 - x8)
        + ad.sqrt(x8 * x8 + x9 * x9 + x10 * x10)
    )


# --- f7: (arctan x1 + arctan x2)^2  +  max(x3 x4 + x6, 0)
#         -  1/(1 + (x4 x5 x6 x7 x8)^2)  +  (|x7|/(1 + |x9|))^5
#         +  sum_i x_i
# groups: {1,2}, {3,4,6}, {4,5,6,7,8}, {7,9}.  The max term couples all
# of x3, x4, x6: it is not a sum of pieces over proper subsets, though
# only the {3,4} sub-pair shows a nonzero cross partial almost
# everywhere; the pairs with x6 are witnessed by mixed differences
# across the kink (and by the curvature of any smooth fit).
def _f7(x):
    x1, x2, x3, x4, x5, x6, x7, x8, x9, _x10 = x
    s = x[0]
    for v in x[1:]:
        s = s + v
    t = ad.arctan(x1) + ad.arctan(x2)
    prod = x4 * x5 * x6 * x7 * x8
    return (
        t * t
        + ad.maximum(x3 * x4 + x6, 0.0)
        - 1.0 / (1.0 + prod * prod)
        + (abs(x7) / (1.0 + abs(x9))) ** 5
        + s
    )


# --- f8: x1 x2  +  2^(x3 + x5 + x6)  +  2^(x3 + x4 + x5 + x7)
#         +  sin(x7 sin(x8 + x9))  +  arccos(0.9 x10)
# groups: {1,2}, {3,5,6}, {3,4,5,7}, {7,8,9}.
def _f8(x):
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = x
    return (
        x1 * x2
        + ad.exp((x3 + x5 + x6) * _LN2)
        + ad.exp((x3 + x4 + x5 + x7) * _LN2)
        + ad.sin(x7 * ad.sin(x8 + x9))
        + ad.arccos(0.9 * x10)
    )


# --- f9: tanh(x1 x2 + x3 x4) sqrt|x5|  +  exp(x5 + x6)
#         +  log((x6 x7 x8)^2 + 1)  +  x9 x10  +  1/(1 + |x10|)
# groups: {1,2,3,4,5}, {5,6}, {6,7,8}, {9,10}.
def _f9(x):
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = x
    prod = x6 * x7 * x8
    return (
        ad.tanh(x1 * x2 + x3 * x4) * ad.sqrt(abs(x5))
        + ad.exp(x5 + x6)
        + ad.log(prod * prod + 1.0)
        + x9 * x10
        + 1.0 / (1.0 + abs(x10))
    )


# --- f10: sinh(x1 + x2)  +  arccos(tanh(x3 + x5 + x7))  +  cos(x4 + x5)
#          +  sec(x7 x9)
# groups: {1,2}, {3,5,7}, {4,5}, {7,9}.  |x7 x9| < 1 < pi/2 keeps the
# secant away from its poles on the sampling cube.
def _f10(x):
    x1, x2, x3, x4, x5, _x6, x7, _x8, x9, _x10 = x
    return (
        ad.sinh(x1 + x2)
        + ad.arccos(ad.tanh(x3 + x5 + x7))
        + ad.cos(x4 + x5)
        + 1.0 / ad.cos(x7 * x9)
    )


_F1_DOMAIN = (
    Interval(0.0, 1.0, True, False),   # x1
    Interval(0.0, 1.0, True, False),   # x2
    Interval(0.1, 1.0, True, False),   # x3
    _UNIT,                             # x4
    Interval(0.1, 1.0, True, False),   # x5
    _UNIT,                             # x6 (unused by the formula)
    Interval(0.1, 1.0, True, False),   # x7
    Interval(0.1, 1.0, True, False),   # x8
    Interval(0.1, 1.0, True, False),   # x9
    Interval(0.1, 1.0, True, False),   # x10
)

FUNCTIONS: dict[str, SynthFunction] = {
    "F1": SynthFunction("F1", _f1, _F1_DOMAIN, ((0, 1, 2), (2, 4), (6, 7, 8, 9), (1, 6))),
    "F2": SynthFunction("F2", _f2, _DEFAULT_DOMAIN, ((0, 1, 2), (2, 4), (6, 7, 8, 9), (1, 6))),
    "F3": SynthFunction("F3", _f3, _DEFAULT_DOMAIN, ((0, 1), (1, 2), (2, 3), (3, 4, 6, 7))),
    "F4": SynthFunction("F4", _f4, _DEFAULT_DOMAIN, ((0, 1), (1, 2), (2, 3), (3, 4, 6, 7), (0, 3))),
    "F5": SynthFunction("F5", _f5, _DEFAULT_DOMAIN, ((0, 1, 2), (3, 4), (5, 6), (7, 8, 9))),
    "F6": SynthFunction("F6", _f6, _DEFAULT_DOMAIN, ((0, 1), (2, 3), (4, 5, 7), (7, 8, 9))),
    "F7": SynthFunction("F7", _f7, _DEFAULT_DOMAIN, ((0, 1), (2, 3, 5), (3, 4, 5, 6, 7), (6, 8))),
    "F8": SynthFunction("F8", _f8, _DEFAULT_DOMAIN, ((0, 1), (2, 4, 5), (2, 3, 4, 6), (6, 7, 8))),
    "F9": SynthFunction("F9", _f9, _DEFAULT_DOMAIN, ((0, 1, 2, 3, 4), (4, 5), (5, 6, 7), (8, 9))),
    "F10": SynthFunction("F10", _f10, _DEFAULT_DOMAIN, ((0, 1), (2, 4, 6), (3, 4), (6, 8))),
}

FUNCTION_IDS = tuple(FUNCTIONS)


def get_function(fid: str) -> SynthFunction:
    try:
        return FUNCTIONS[fid]
    except KeyError:
        raise ValueError(f"unknown function id {fid!r}; expected one of {FUNCTION_IDS}") from None


def eval_function(fid: str, x: Sequence):
    """Evaluate a benchmark at x (plain numbers or CrossDuals, batched or
    not), after a per-variable domain check of every value."""
    f = get_function(fid)
    if len(x) != f.arity:
        raise ValueError(f"{fid} takes {f.arity} variables, got {len(x)}")
    for i, (v, iv) in enumerate(zip(x, f.domain)):
        val = np.atleast_1d(v.value if isinstance(v, CrossDual) else float(v))
        bad = ~iv.closure_contains(val)
        if bad.any():
            bound = f"x{i + 1} in [{iv.lo}, {iv.hi}]"
            raise DomainError(f"{fid}:x{i + 1}", float(val[bad][0]), bound)
    return f.fn(x)


def ground_truth(fid: str) -> GroundTruth:
    return GroundTruth(get_function(fid).truth)


def pairwise_truth(fid: str) -> set[tuple[int, int]]:
    """All pairs contained in some maximal ground-truth set."""
    return ground_truth(fid).pairwise()


def sample_dataset(fid: str, n: int, seed: int) -> Dataset:
    """n i.i.d. rows, uniform per variable over the function's domain,
    with targets evaluated exactly.  Deterministic per seed."""
    if n < 1:
        raise ValueError("need at least one sample")
    f = get_function(fid)
    rng = np.random.default_rng(seed)
    cols = []
    for iv in f.domain:
        col = rng.uniform(iv.lo, iv.hi, size=n)
        # uniform() is half-open; redraw the measure-zero boundary hits
        bad = ~iv.contains(col)
        while bad.any():
            col[bad] = rng.uniform(iv.lo, iv.hi, size=int(bad.sum()))
            bad = ~iv.contains(col)
        cols.append(col)
    targets = np.asarray(f.fn(cols), dtype=np.float64)[:, None]
    return Dataset(np.column_stack(cols), targets)


def truth_document(fid: str) -> dict:
    """JSON-ready ground truth: id, maximal sets, derived pairwise sets."""
    gt = ground_truth(fid)
    return {
        "id": fid,
        "maximal_sets": [list(s) for s in gt.maximal_sets],
        "pairwise": [list(p) for p in sorted(gt.pairwise())],
    }
