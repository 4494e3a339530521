"""Forward-mode arithmetic for exact mixed partial derivatives.

A CrossDual carries one coefficient per subset of up to eight tagged
variables: the coefficient of subset S is the mixed partial of the
computed quantity with respect to the variables in S, each variable
differentiated exactly once (the empty-set coefficient is the plain
value).  Multiplication follows the Leibniz rule (lattice_mul), a
convolution over complementary submask pairs; an elementary scalar
function follows the chain rule (lattice_compose, Faa di Bruno on set
partitions).  Both rules are closed on the lattice precisely because no
variable is ever differentiated twice.

The module also hosts the ordinary-derivative tables of the elementary
functions (ElementaryTable) and two entry points: lattice_call, which
hands a callable its inputs as CrossDuals and returns the coefficients
of its value, and cross_partial, which reads one mixed partial at a
point off lattice_call.  A table is callable on plain numbers, arrays and
CrossDuals alike, with the same domain check for each, so one formula
source evaluates both ways: ``exp``, ``log``, ... are the tables.

The coefficient routines and CrossDual accept arrays whose last axis is
the 2^t subset axis and whose leading axes are a batch, so one
evaluation of a network or a formula yields the partials of many
seedings at once (vector forward mode).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy import special

MAX_TAGS = 8

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ASIN_CLAMP = 1.0 - 1e-9


class CapacityError(ValueError):
    """More tagged variables were requested than the lattice supports."""


class TagMismatchError(ValueError):
    """Binary operation between CrossDuals with different tag universes."""


class SingularityError(ZeroDivisionError):
    """Division or reciprocal taken at a value of zero."""


class DomainError(ValueError):
    """An elementary function was evaluated outside its domain."""

    def __init__(self, fname: str, value: float, constraint: str):
        self.fname = fname
        self.value = value
        self.constraint = constraint
        super().__init__(f"{fname} evaluated at {value!r}, which violates {constraint}")


# --- Subset-lattice index tables (memoized per tag count) ------------------


@lru_cache(maxsize=None)
def _submask_pairs(t: int):
    """Per mask S, the aligned index arrays (A, S ^ A) over all submasks A."""
    pairs = []
    for s in range(1 << t):
        subs = []
        a = s
        while True:
            subs.append(a)
            if a == 0:
                break
            a = (a - 1) & s
        idx = np.asarray(subs, dtype=np.intp)
        pairs.append((idx, s ^ idx))
    return pairs


@lru_cache(maxsize=None)
def _chain_pairs(t: int):
    """Per level j = 0..t, per nonempty mask S over tags j..t-1 (in order of
    S >> j), the index arrays (B, (S ^ B) >> (j + 1)) over the submasks B
    of S that hold S's lowest tag."""
    pairs = _submask_pairs(t)
    levels = []
    for j in range(t + 1):
        rows = []
        for k in range(1, 1 << (t - j)):
            s = k << j
            low = s & -s
            a, rest = pairs[s ^ low]
            rows.append((a | low, rest >> (j + 1)))
        levels.append(rows)
    return levels


@lru_cache(maxsize=32)
def _live_chain_pairs(t: int, live: bytes):
    """Per level j and per nonempty mask of _chain_pairs(t), the (B, rest)
    pairs as Python ints, without the pairs whose block B is dead:
    ``live`` holds one byte per mask of g, zero where that mask is zero
    across the whole batch."""
    return [
        [[(b, r) for b, r in zip(ib.tolist(), ir.tolist()) if live[b]] for ib, ir in level]
        for level in _chain_pairs(t)
    ]


def lattice_mul(a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
    """Leibniz product of two coefficient arrays (subset axis last).

    Each mask's products are added in sequence, in submask order, for
    every batch shape (np.sum would add them pairwise for one row but in
    sequence for a batch), so a row's bytes do not depend on its batch."""
    k = 1 << t
    if a.shape[-1] != k or b.shape[-1] != k:
        raise TagMismatchError("coefficient arrays do not match the tag count")
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (k,)
    out = np.empty(shape, dtype=np.float64)
    for s, (ia, ib) in enumerate(_submask_pairs(t)):
        out[..., s] = np.cumsum(a[..., ia] * b[..., ib], axis=-1)[..., -1]
    return out


def lattice_compose(
    table: "ElementaryTable", g: np.ndarray, t: int, *, overwrite_g=False, top_only=False
) -> np.ndarray:
    """Chain rule: coefficients of table(g) from the coefficients of g.

    Level j holds the coefficients of f^(j)(g) over the masks S of tags
    j..t-1, at index S >> j.  Its empty slot is f^(j)(g_0); a nonempty S
    whose lowest tag is i sums g[B] * level_{j+1}[S ^ B] over the submasks
    B of S that hold i.  Level t is f^(t)(g_0) alone and level 0 is the
    result; two levels are alive at a time.  With ``top_only`` level 0
    is its full-mask sum alone, and the result is zero everywhere else.

    g is left as it is unless ``overwrite_g`` is set (a C-contiguous
    float64 g the caller drops): then level 0 is written into g's buffer
    once its live rows are copied, so a dense g peaks at 2.5 g-sized
    arrays.

    Only live blocks enter the sums: a mask B of g is live when g[..., B]
    is nonzero somewhere in the batch.  A value plus one direction per
    tag (a first hidden layer fed seeded inputs) keeps the single pair
    B = {i} per S, about 2^(t+1) products per element; a dense g keeps
    every pair, about 3^t.  The terms dropped are +-0 * x, so the result
    equals the full recurrence's wherever that result is finite and
    nonzero.  An exact-zero coefficient may change sign, and where
    f^(k)(g_0) is infinite (or NaN) the full recurrence's 0 * inf = NaN
    becomes a finite or infinite value.

    Each S's sum adds its pairs' products one at a time, in _chain_pairs
    order, from a +0.0 start (a -0.0 coefficient becomes +0.0): the
    order in which np.sum adds the rows of a batch of two or more
    columns, so there the bytes are those of gathering the pairs and
    calling np.sum.  The series f^(j)(g_0) is computed once when every
    row's value equals the first row's bit for bit; it is elementwise,
    so the bytes are those of the series over the whole batch.
    """
    gt = np.moveaxis(g, -1, 0).reshape(1 << t, -1)
    masks = np.flatnonzero(np.any(gt[1:] != 0.0, axis=1)) + 1  # mask 0 is never a block B
    rows = dict(zip(masks.tolist(), gt[masks]))
    into = g.reshape(1 << t, -1) if overwrite_g else None
    return _compose_levels(table, g[..., 0], rows, t, into, top_only)


def _rows_equal(x0: np.ndarray) -> bool:
    """Whether x0 has two or more rows, all bitwise equal to the first
    (a -0.0 does not equal a +0.0 here: series values may carry its sign);
    rows broadcast from one (stride 0) are, without a comparison."""
    if x0.ndim == 0 or len(x0) < 2:
        return False
    if x0.strides[0] == 0:
        return True
    first = x0[:1]
    return bool((x0 == first).all() and (np.signbit(x0) == np.signbit(first)).all())


def _compose_levels(table, x0: np.ndarray, rows: dict, t: int, top=None, top_only=False):
    """lattice_compose's levels t..0, mask-last, shaped x0.shape + (2^t,).

    ``x0`` is g's value slot and ``rows`` holds a contiguous copy of
    g[..., B] for each live mask B; it is emptied.  The domain check,
    the series f^(j)(x0) and the live pairs of _chain_pairs are taken
    here.  Level 0 is written into ``top`` when given, a (2^t, n) array
    that may share the rows' source."""
    table.check(x0)
    series = table.series(t, x0[:1] if _rows_equal(x0) else x0)
    deriv = [np.broadcast_to(d, x0.shape) for d in series]
    chain = _live_chain_pairs(t, bytes(m in rows for m in range(1 << t)))
    n = deriv[0].size
    tmp = np.empty(n)
    below = None
    for j in range(t, -1, -1):
        if j > 0 or top is None:
            level = np.empty((1 << (t - j), n), dtype=np.float64)
        else:
            level = top
        if j == 0 and top_only:
            level[:-1] = 0.0
            sums = zip(level[-1:], chain[0][-1:])
        else:
            level[0].reshape(deriv[j].shape)[...] = deriv[j]
            sums = zip(level[1:], chain[j])
        for acc, pairs in sums:
            if not pairs:
                acc[:] = 0.0
                continue
            (b, r), *more = pairs
            np.multiply(rows[b], below[r], acc)
            for b, r in more:
                np.multiply(rows[b], below[r], tmp)
                acc += tmp
        below = list(level)  # row views made once, not once per pair
    rows.clear()
    del tmp  # before the mask-last copy: held through it, glibc trims and refaults the heap
    # Each sum starts from +0.0, so none is -0.0.  The sign of a zero
    # moves no other value, so setting it on level 0 alone suffices.
    level[1:] += 0.0
    return np.ascontiguousarray(np.moveaxis(level.reshape((1 << t,) + x0.shape), 0, -1))


# --- Elementary function derivative tables ---------------------------------


class ElementaryTable:
    """Ordinary-derivative table for one scalar elementary function.

    ``series(k, x)`` returns the list [f(x), f'(x), ..., f^(k)(x)], each
    entry shaped like ``x``.  ``check(x)`` raises DomainError (or
    SingularityError) when x lies outside the function's domain.  Calling
    the table checks the value and applies it: a CrossDual goes through
    the chain rule (lattice_compose), anything else gets the order-0
    entry, a float for a scalar and an array for an array.  A table built
    with ``into`` (the network activations) also has that ``out=`` form,
    with the bytes of ``series(1, x)``.
    """

    __slots__ = ("name", "_series", "_check", "_into")

    def __init__(
        self,
        name: str,
        series: Callable,
        check: Callable | None = None,
        into: Callable | None = None,
    ):
        self.name = name
        self._series = series
        self._check = check
        self._into = into

    def series(self, k: int, x) -> list:
        return self._series(k, np.asarray(x, dtype=np.float64))

    def into(self, x: np.ndarray, value: np.ndarray, slope: np.ndarray | None = None) -> None:
        """f(x) into ``value`` and, unless it is None, f'(x) into ``slope``:
        float64 arrays shaped like ``x``, neither of them ``x`` itself."""
        if self._into is None:
            raise TypeError(f"{self.name} has no out= form")
        self._into(x, value, slope)

    def __call__(self, x):
        if isinstance(x, CrossDual):
            return CrossDual(x.ntags, lattice_compose(self, x.coeffs, x.ntags))
        self.check(x)
        v = self.series(0, x)[0]
        return v if isinstance(x, np.ndarray) else float(v)

    def check(self, x) -> None:
        if self._check is not None:
            self._check(np.asarray(x, dtype=np.float64))

    def __repr__(self) -> str:  # pragma: no cover
        return f"ElementaryTable({self.name!r})"


def _first_offender(x: np.ndarray, bad: np.ndarray) -> float:
    return float(np.atleast_1d(x)[np.atleast_1d(bad)][0])


def _check_positive(name: str, constraint: str = "x > 0"):
    def check(x):
        bad = ~(x > 0)
        if np.any(bad):
            raise DomainError(name, _first_offender(x, bad), constraint)

    return check


def _check_nonzero_singular(x):
    if np.any(x == 0.0):
        raise SingularityError("reciprocal of a value of zero")


def _check_unit_interval(name: str):
    def check(x):
        bad = np.abs(x) > 1.0 + 1e-6
        if np.any(bad):
            raise DomainError(name, _first_offender(x, bad), "|x| <= 1")

    return check


def _poly_ladder(start, step, n: int = MAX_TAGS):
    """Polynomial ladder L[1..n] with L[m+1] = step(L[m], m); L[0] unused."""
    polys: list = [None, np.asarray(start, dtype=np.float64)]
    for m in range(1, n):
        polys.append(step(polys[m], m))
    return polys


_X = np.asarray([0.0, 1.0])  # the monomial x, ascending coefficients

# tanh' = 1 - tanh^2
_TANH_POLY = _poly_ladder([1, 0, -1], lambda c, m: npoly.polymul(npoly.polyder(c), [1, 0, -1]))
# d^m arcsin = Q_m(x) (1-x^2)^(1/2-m):  Q_{m+1} = Q_m'(1-x^2) + (2m-1) x Q_m
_ASIN_POLY = _poly_ladder(
    [1],
    lambda c, m: npoly.polyadd(
        npoly.polymul(npoly.polyder(c), [1, 0, -1]), (2 * m - 1) * npoly.polymul(_X, c)
    ),
)
# d^m arctan = P_m(x) (1+x^2)^-m:  P_{m+1} = P_m'(1+x^2) - 2m x P_m
_ATAN_POLY = _poly_ladder(
    [1],
    lambda c, m: npoly.polysub(
        npoly.polymul(npoly.polyder(c), [1, 0, 1]), 2 * m * npoly.polymul(_X, c)
    ),
)
# d^m erf = E_m(x) exp(-x^2):  E_{m+1} = E_m' - 2x E_m
_ERF_POLY = _poly_ladder(
    [2.0 / math.sqrt(math.pi)],
    lambda c, m: npoly.polysub(npoly.polyder(c), 2 * npoly.polymul(_X, c)),
)


# Probabilists' Hermite polynomials He_0..He_MAX_TAGS: He_{m+1} = x He_m - He_m'
_HERMITE = _poly_ladder([0, 1], lambda c, m: npoly.polysub(npoly.polymul(_X, c), npoly.polyder(c)))
_HERMITE[0] = np.ones(1)
# d^m gelu = G_m(x) phi(x) for m >= 2, with G_m = (-1)^(m+1) (He_m - He_{m-2})
_GELU_POLY = [None, None] + [
    (-1.0) ** (m + 1) * npoly.polysub(_HERMITE[m], _HERMITE[m - 2]) for m in range(2, MAX_TAGS + 1)
]


def _exp_series(k, x):
    e = np.exp(x)
    return [e] * (k + 1)


def _log_series(k, x):
    vals = [np.log(x)]
    for m in range(1, k + 1):
        vals.append((-1.0) ** (m - 1) * math.factorial(m - 1) * x ** (-float(m)))
    return vals


def _sin_series(k, x):
    s, c = np.sin(x), np.cos(x)
    cyc = (s, c, -s, -c)
    return [cyc[m % 4] for m in range(k + 1)]


def _cos_series(k, x):
    s, c = np.sin(x), np.cos(x)
    cyc = (c, -s, -c, s)
    return [cyc[m % 4] for m in range(k + 1)]


def _sinh_series(k, x):
    s, c = np.sinh(x), np.cosh(x)
    return [s if m % 2 == 0 else c for m in range(k + 1)]


def _tanh_series(k, x):
    u = np.tanh(x)
    return [u] + [npoly.polyval(u, _TANH_POLY[m]) for m in range(1, k + 1)]


def _arcsin_series(k, x):
    x = np.clip(x, -_ASIN_CLAMP, _ASIN_CLAMP)
    vals = [np.arcsin(x)]
    if k >= 1:
        w = 1.0 - x * x
        for m in range(1, k + 1):
            vals.append(npoly.polyval(x, _ASIN_POLY[m]) * w ** (0.5 - m))
    return vals


def _arccos_series(k, x):
    tail = _arcsin_series(k, x)
    return [np.arccos(np.clip(x, -_ASIN_CLAMP, _ASIN_CLAMP))] + [-v for v in tail[1:]]


def _arctan_series(k, x):
    vals = [np.arctan(x)]
    if k >= 1:
        w = 1.0 + x * x
        for m in range(1, k + 1):
            vals.append(npoly.polyval(x, _ATAN_POLY[m]) * w ** (-float(m)))
    return vals


def _erf_series(k, x):
    vals = [special.erf(x)]
    if k >= 1:
        e = np.exp(-x * x)
        for m in range(1, k + 1):
            vals.append(npoly.polyval(x, _ERF_POLY[m]) * e)
    return vals


def _first_two(into: Callable, k: int, x: np.ndarray) -> list:
    """[f(x)], or [f(x), f'(x)] for k >= 1, from an ``into`` form."""
    value = np.empty_like(x)
    slope = np.empty_like(x) if k >= 1 else None
    into(x, value, slope)
    return [value] if slope is None else [value, slope]


def _gelu_into(x, value, slope=None):
    """GELU's value 0.5 x e and slope 0.5 e + x phi(x), e = 1 + erf(x / sqrt 2).

    The value is formed as x * (0.5 * e), which has the bytes of
    (0.5 * x) * e: e is 0 or at least 2^-53 (erf rounds to multiples of
    2^-53 near -1), so halving it is exact, and where halving x rounds
    (|x| below 2^-1021) e is exactly 1.
    """
    np.divide(x, _SQRT2, out=value)
    special.erf(value, out=value)
    value += 1.0
    if slope is not None:
        np.multiply(-0.5, x, out=slope)
        slope *= x
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= x
    value *= 0.5
    if slope is not None:
        slope += value
    value *= x


def _gelu_series(k, x):
    # The plain activation is entry 0, so lattice and plain values agree bit for bit.
    vals = _first_two(_gelu_into, k, x)
    if k >= 2:
        phi = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        for m in range(2, k + 1):
            vals.append(npoly.polyval(x, _GELU_POLY[m]) * phi)
    return vals


def _abs_series(k, x):
    # Subgradient convention: derivative 0 at the kink, all higher orders 0.
    vals = [np.abs(x)]
    if k >= 1:
        vals.append(np.sign(x))
        zero = np.zeros_like(x)
        vals.extend([zero] * (k - 1))
    return vals


def _recip_series(k, x):
    vals = []
    for m in range(k + 1):
        vals.append((-1.0) ** m * math.factorial(m) * x ** (-float(m + 1)))
    return vals


def _power_series_fn(p: float):
    def series(k, x):
        vals = [np.power(x, p)]
        c = 1.0
        for m in range(1, k + 1):
            c *= p - (m - 1)
            if c == 0.0:
                # Integer exponent exhausted; avoids 0^(negative) at x = 0.
                vals.append(np.zeros_like(x))
            else:
                vals.append(c * np.power(x, p - m))
        return vals

    return series


EXP = ElementaryTable("exp", _exp_series)
LOG = ElementaryTable("log", _log_series, _check_positive("log"))
SIN = ElementaryTable("sin", _sin_series)
COS = ElementaryTable("cos", _cos_series)
SINH = ElementaryTable("sinh", _sinh_series)
TANH = ElementaryTable("tanh", _tanh_series)
ARCSIN = ElementaryTable("arcsin", _arcsin_series, _check_unit_interval("arcsin"))
ARCCOS = ElementaryTable("arccos", _arccos_series, _check_unit_interval("arccos"))
ARCTAN = ElementaryTable("arctan", _arctan_series)
ERF = ElementaryTable("erf", _erf_series)
GELU = ElementaryTable("gelu", _gelu_series, into=_gelu_into)
ABS = ElementaryTable("abs", _abs_series)
RECIPROCAL = ElementaryTable("reciprocal", _recip_series, _check_nonzero_singular)


def _check_nonzero_domain(x):
    if np.any(x == 0.0):
        raise DomainError("power", 0.0, "x != 0 for negative exponents")


@lru_cache(maxsize=None)
def power_table(p: float) -> ElementaryTable:
    """Derivative table for x^p (guards the integer-exponent zero run)."""
    p = float(p)
    if p.is_integer():
        check = None if p >= 0 else _check_nonzero_domain
    else:
        check = _check_positive("power", "x > 0 for non-integer exponents")
    return ElementaryTable(f"power[{p!r}]", _power_series_fn(p), check)


SQRT = ElementaryTable("sqrt", _power_series_fn(0.5), _check_positive("sqrt"))


@lru_cache(maxsize=None)
def max_const_table(c: float) -> ElementaryTable:
    """Derivative table for max(x, c) with subderivative 0 at the kink."""
    c = float(c)

    def into(x, value, slope=None):
        np.maximum(x, c, out=value)
        if slope is not None:
            np.greater(x, c, out=slope)

    def series(k, x):
        vals = _first_two(into, k, x)
        if k >= 2:
            vals.extend([np.zeros_like(x)] * (k - 1))
        return vals

    return ElementaryTable(f"max[{c!r}]", series, into=into)


# --- CrossDual scalar type -------------------------------------------------


class CrossDual:
    """A value together with its mixed partials over tagged variables.

    ``coeffs[..., s]`` is the mixed partial with respect to the tag subset
    whose bitmask is ``s``; ``coeffs[..., 0]`` is the value itself.  The
    leading axes, if any, hold a batch of independent duals evaluated by
    one pass (one candidate or direction per row); plain numbers and
    unbatched duals broadcast against them.  Instances are treated as
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("ntags", "coeffs")

    # Keep numpy scalars from absorbing us into object arrays.
    __array_ufunc__ = None

    def __init__(self, ntags: int, coeffs):
        if ntags > MAX_TAGS:
            raise CapacityError(f"{ntags} tags requested, the lattice caps at {MAX_TAGS}")
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim == 0 or coeffs.shape[-1] != 1 << ntags:
            raise ValueError(f"expected {1 << ntags} coefficients, got shape {coeffs.shape}")
        self.ntags = ntags
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value: float, ntags: int) -> "CrossDual":
        c = np.zeros(1 << ntags)
        c[0] = value
        return cls(ntags, c)

    @classmethod
    def variable(cls, value: float, tag: int, ntags: int) -> "CrossDual":
        if not 0 <= tag < ntags:
            raise ValueError(f"tag {tag} outside universe of {ntags}")
        c = np.zeros(1 << ntags)
        c[0] = value
        c[1 << tag] = 1.0
        return cls(ntags, c)

    def _slot(self, mask: int):
        v = self.coeffs[..., mask]
        return float(v) if v.ndim == 0 else v

    @property
    def value(self):
        """The value: a float, or an array over the batch axes."""
        return self._slot(0)

    def partial(self, tags: Iterable[int]):
        """Mixed partial with respect to the given tag slots (a float, or
        an array over the batch axes)."""
        mask = 0
        for tag in tags:
            if not 0 <= tag < self.ntags:
                raise ValueError(f"tag {tag} outside universe of {self.ntags}")
            mask |= 1 << tag
        return self._slot(mask)

    def _lift(self, other):
        if isinstance(other, CrossDual):
            if other.ntags != self.ntags:
                raise TagMismatchError(
                    f"operands carry {self.ntags} and {other.ntags} tags"
                )
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return CrossDual.constant(float(other), self.ntags)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CrossDual(self.ntags, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CrossDual(self.ntags, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CrossDual(self.ntags, o.coeffs - self.coeffs)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if isinstance(other, (int, float, np.integer, np.floating)):
            return CrossDual(self.ntags, self.coeffs * float(other))
        return CrossDual(self.ntags, lattice_mul(self.coeffs, o.coeffs, self.ntags))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            if float(other) == 0.0:
                raise SingularityError("division by zero")
            return CrossDual(self.ntags, self.coeffs / float(other))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        quot = self * RECIPROCAL(o)
        # a*(1/b) rounds twice; pin the value slot to the true quotient
        # so plain and dual evaluation stay bit-identical
        quot.coeffs[..., 0] = self.coeffs[..., 0] / o.coeffs[..., 0]
        return quot

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        quot = o * RECIPROCAL(self)
        quot.coeffs[..., 0] = o.coeffs[..., 0] / self.coeffs[..., 0]
        return quot

    def __neg__(self):
        return CrossDual(self.ntags, -self.coeffs)

    def __pos__(self):
        return self

    def __abs__(self):
        return ABS(self)

    def __pow__(self, p):
        if isinstance(p, CrossDual):
            return EXP(p * LOG(self))
        return power_table(float(p))(self)

    def __rpow__(self, base):
        b = float(base)
        if b <= 0.0:
            raise DomainError("pow", b, "base > 0 for a tagged exponent")
        return EXP(self * math.log(b))

    def __repr__(self) -> str:
        return f"CrossDual(value={self.value!r}, ntags={self.ntags})"


# Scalar math on CrossDuals and plain numbers alike, with one domain
# check: plain numbers read the table's order-0 entry rather than libm
# (np.exp and math.exp disagree by an ulp on some inputs), so a dual's
# value slice matches plain evaluation bit for bit.
exp, log, sqrt, sin, cos, sinh, tanh = EXP, LOG, SQRT, SIN, COS, SINH, TANH
arcsin, arccos, arctan, erf = ARCSIN, ARCCOS, ARCTAN, ERF


def maximum(x, c: float):
    """max(x, c) with subderivative 0 at the kink; NaN stays NaN."""
    return max_const_table(float(c))(x)


# --- The derivative entry points -------------------------------------------


def lattice_call(f: Callable, arr: np.ndarray, t: int) -> np.ndarray:
    """The coefficients, shape (..., 2^t), of a scalar callable's value.

    ``f`` receives the input rows of ``arr``, shape (..., inputs, 2^t)
    with any leading batch axes (or none), as a list of CrossDuals; a
    plain-number return means f ignored them, so every partial is zero.
    """
    y = f([CrossDual(t, arr[..., j, :]) for j in range(arr.shape[-2])])
    if not isinstance(y, CrossDual):
        y = CrossDual.constant(y, t)
    return np.broadcast_to(y.coeffs, arr.shape[:-2] + (1 << t,))


def cross_partial(f: Callable, point: Sequence[float], indices: Iterable[int]) -> float:
    """The mixed partial of f at ``point`` over the given coordinate set.

    Each index is differentiated exactly once.  ``f`` receives the point
    through ``lattice_call`` as unbatched CrossDuals, the indices taking
    tag slots in sorted order, and returns a scalar.
    """
    tags = sorted({int(i) for i in indices})
    if len(tags) > MAX_TAGS:
        raise CapacityError(f"{len(tags)} tags requested, the lattice caps at {MAX_TAGS}")
    arr = np.zeros((len(point), 1 << len(tags)))
    if tags and (tags[0] < 0 or tags[-1] >= len(arr)):
        raise ValueError(f"tagged index outside the point's {len(arr)} coordinates")
    arr[:, 0] = point
    arr[tags, 1 << np.arange(len(tags))] = 1.0
    return float(lattice_call(f, arr, len(tags))[-1])
