import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xdiff import autodiff as ad, mlp
from xdiff.autodiff import (
    CapacityError,
    CrossDual,
    DomainError,
    MAX_TAGS,
    SingularityError,
    TagMismatchError,
    cross_partial,
    lattice_call,
    lattice_compose,
    lattice_mul,
    power_table,
)
from xdiff.benchmarks import FUNCTION_IDS, eval_function, sample_dataset
from xdiff.detect import local_ies

from dense_lattice import dense_pass, detect_seeds, salience_seeds
from finite_difference import fd_oracle


# --- elementary derivative tables, each checked against differencing its
# own previous order (independent of the lattice machinery)

TABLE_POINTS = [
    (ad.EXP, 0.3),
    (ad.LOG, 0.7),
    (ad.SIN, 0.4),
    (ad.COS, -0.9),
    (ad.SINH, 0.8),
    (ad.TANH, -0.3),
    (ad.ARCSIN, 0.4),
    (ad.ARCCOS, -0.2),
    (ad.ARCTAN, 1.1),
    (ad.ERF, 0.6),
    (ad.GELU, -0.7),
    (ad.SQRT, 1.3),
    (ad.RECIPROCAL, 0.6),
    (power_table(2.5), 1.2),
    (power_table(3.0), -0.8),
]


@pytest.mark.parametrize("table,x0", TABLE_POINTS, ids=lambda v: getattr(v, "name", v))
def test_table_orders_consistent(table, x0):
    """Order k of each series must be the derivative of order k - 1."""
    h = 1e-6
    lo = table.series(4, x0 - h)
    hi = table.series(4, x0 + h)
    mid = table.series(4, x0)
    for k in range(1, 5):
        fd = (hi[k - 1] - lo[k - 1]) / (2 * h)
        scale = max(1.0, abs(float(mid[k])))
        assert abs(float(mid[k]) - fd) / scale < 1e-5, (table.name, k)


def test_integer_power_series_terminates():
    # cubic: 4th derivative exactly zero, no 0^negative blowup at x = 0
    t = power_table(3.0)
    s = t.series(5, 0.0)
    assert [float(v) for v in s] == [0.0, 0.0, 0.0, 6.0, 0.0, 0.0]


def test_abs_subgradient_zero_at_kink():
    s = ad.ABS.series(3, 0.0)
    assert float(s[0]) == 0.0
    assert float(s[1]) == 0.0
    assert float(s[2]) == 0.0


def test_arcsin_clamps_at_one():
    vals = ad.ARCSIN.series(2, 1.0)
    assert all(np.isfinite(v) for v in vals)
    assert float(vals[0]) == pytest.approx(math.pi / 2, abs=1e-4)


# --- plain and dual evaluation through one table

SCALAR_POINTS = {
    "exp": 0.3, "log": 0.7, "sin": 0.4, "cos": -0.9, "sinh": 0.8, "tanh": -0.3,
    "arcsin": 0.4, "arccos": -0.2, "arctan": 1.1, "sqrt": 1.3, "erf": 0.6,
}


@pytest.mark.parametrize("name", sorted(SCALAR_POINTS))
def test_scalar_function_plain_value_is_the_dual_value_slot(name):
    f, table, x0 = getattr(ad, name), getattr(ad, name.upper()), SCALAR_POINTS[name]
    plain = f(x0)
    assert type(plain) is float
    assert plain == f(CrossDual.variable(x0, 0, 2)).value
    assert type(f(np.float64(x0))) is float
    xs = x0 * np.linspace(0.5, 1.0, 7)
    out = f(xs)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, table.series(0, xs)[0])


def test_plain_arcsin_just_past_one_stays_finite():
    assert math.isfinite(ad.arcsin(1.0000005))
    assert math.isfinite(ad.arccos(-1.0000005))


# --- cross_partial worked cases

def test_product_pair():
    f = lambda x: x[0] * x[1]
    assert cross_partial(f, [2.0, 5.0], (0, 1)) == 1.0
    assert cross_partial(f, [2.0, 5.0], (0,)) == 5.0


def test_exp_product_closed_form():
    x0, y0 = 0.3, -0.7
    f = lambda v: ad.exp(v[0] * v[1])
    got = cross_partial(f, [x0, y0], (0, 1))
    want = math.exp(x0 * y0) * (1 + x0 * y0)
    assert got == pytest.approx(want, rel=1e-12)


def test_triple_product():
    f = lambda x: x[0] * x[1] * x[2]
    assert cross_partial(f, [1.5, -2.0, 0.25], (0, 1, 2)) == pytest.approx(1.0)


def test_additive_function_has_zero_cross():
    f = lambda x: ad.sin(x[0]) + ad.exp(x[1])
    assert cross_partial(f, [0.3, 0.4], (0, 1)) == 0.0


def test_untagged_result_is_zero_partial():
    # f ignores the tagged coordinate entirely, returning a plain float
    f = lambda x: 42.0
    assert cross_partial(f, [1.0, 2.0], (0, 1)) == 0.0
    # a one-shot iterable of indices is read once, not once per use
    assert cross_partial(f, [1.0, 2.0], (i for i in (0, 1))) == 0.0


def test_duplicate_indices_collapse():
    f = lambda x: x[0] * x[0] * x[1]
    once = cross_partial(f, [3.0, 4.0], (0, 1))
    doubled = cross_partial(f, [3.0, 4.0], (0, 0, 1))
    assert once == doubled == pytest.approx(6.0)


def test_eight_tag_boundary():
    def prod(x):
        acc = x[0]
        for v in x[1:]:
            acc = acc * v
        return acc

    point = [1.0 + 0.1 * i for i in range(MAX_TAGS)]
    assert cross_partial(prod, point, range(MAX_TAGS)) == pytest.approx(1.0)


def test_capacity_error_past_eight():
    with pytest.raises(CapacityError):
        cross_partial(lambda x: x[0], [0.0] * 9, range(9))


def test_cross_partial_seeds_unbatched_duals_in_sorted_tag_order():
    seen = []

    def f(x):
        seen.extend(x)
        return x[0] * x[2]

    assert cross_partial(f, [5.0, 6.0, 7.0], (2, 0)) == 1.0
    # tag slots in sorted coordinate order: x0 -> tag 0, x2 -> tag 1
    assert [type(d.value) for d in seen] == [float] * 3
    assert [d.value for d in seen] == [5.0, 6.0, 7.0]
    assert seen[0].partial((0,)) == 1.0
    assert seen[0].partial((1,)) == 0.0
    assert seen[2].partial((1,)) == 1.0
    assert seen[1].coeffs[1:].sum() == 0.0
    for bad in ((3,), (-1,)):
        with pytest.raises(ValueError, match="outside the point's 1 coordinates"):
            cross_partial(lambda x: x[0], [1.0], bad)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_cross_partial_matches_local_ies(order):
    """One point seeded alone and the same point in detect's batch of
    every candidate give the same partials on F1..F10, bit for bit: a
    lattice_mul sum adds its terms in one order for any batch size."""
    cands = list(itertools.combinations(range(10), order))
    for fid in FUNCTION_IDS:
        f = lambda x: eval_function(fid, x)
        point = sample_dataset(fid, 1, seed=order).features[0]
        batch = local_ies(f, point, order, cands)
        assert list(batch) == cands
        got = np.array([cross_partial(f, point, c) for c in cands])
        want = np.array(list(batch.values()))
        assert got.tobytes() == want.tobytes(), fid


def test_lattice_mul_row_bytes_do_not_depend_on_the_batch():
    """Masks of 3+ tags sum 8+ terms, which np.sum adds pairwise for one
    row but in sequence for a batch."""
    rng = np.random.default_rng(17)
    for t in (3, 4, 5):
        a, b = rng.normal(size=(2, 3, 1 << t))
        batch = lattice_mul(a, b, t)
        assert lattice_mul(a[0], b[0], t).tobytes() == batch[0].tobytes()
        assert lattice_mul(a[:1], b[:1], t).tobytes() == batch[:1].tobytes()


def test_lattice_call_takes_any_leading_batch_axes():
    f = lambda x: ad.exp(x[0] * x[1]) + x[2]
    arr = np.random.default_rng(5).normal(size=(2, 3, 3, 4))
    got = lattice_call(f, arr, 2)
    assert got.shape == (2, 3, 4)
    for i, j in itertools.product(range(2), range(3)):
        np.testing.assert_array_equal(got[i, j], lattice_call(f, arr[i, j], 2))
    plain = lattice_call(lambda x: 4.5, arr, 2)
    assert plain.shape == (2, 3, 4)
    assert (plain[..., 0] == 4.5).all() and (plain[..., 1:] == 0.0).all()


# --- agreement with the nested finite-difference oracle

FD_CASES = [
    (lambda x: ad.exp(x[0] * x[1]) + ad.sin(x[2]), [0.4, -0.3, 1.0], (0, 1)),
    (lambda x: 2.0 ** (x[0] + x[1] + x[2]), [0.2, 0.5, -0.1], (0, 1, 2)),
    (lambda x: ad.sin(x[0] * ad.sin(x[1] + x[2])), [0.7, 0.3, 0.2], (0, 1)),
    (lambda x: ad.tanh(x[0] * x[1]) * ad.sqrt(abs(x[2])), [0.5, -0.4, 0.8], (0, 1, 2)),
    (lambda x: (x[0] / x[1]) * ad.sqrt(x[2] / x[3]), [0.9, 0.7, 0.6, 0.8], (0, 1, 2, 3)),
]


@pytest.mark.parametrize("f,point,idx", FD_CASES)
def test_matches_fd_oracle(f, point, idx):
    exact = cross_partial(f, point, idx)
    approx = fd_oracle(f, point, idx, h=1e-3 if len(idx) > 2 else 1e-4)
    assert exact == pytest.approx(approx, rel=5e-4, abs=5e-6)


def test_fd_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_oracle(lambda x: x[0], [1.0], (0,), h=0.0)


# --- algebraic laws on the lattice (property-based)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _rand_dual(draw, ntags=3):
    coeffs = [draw(finite) for _ in range(1 << ntags)]
    return CrossDual(ntags, coeffs)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_mul_commutes_and_distributes(data):
    a = _rand_dual(data.draw)
    b = _rand_dual(data.draw)
    c = _rand_dual(data.draw)
    # same terms, summed in a different order, so ulp-level slack
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, rtol=1e-12, atol=1e-12)
    left = ((a + b) * c).coeffs
    right = (a * c + b * c).coeffs
    np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_mul_associates(data):
    a = _rand_dual(data.draw)
    b = _rand_dual(data.draw)
    c = _rand_dual(data.draw)
    np.testing.assert_allclose(
        ((a * b) * c).coeffs, (a * (b * c)).coeffs, rtol=1e-9, atol=1e-9
    )


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_exp_log_roundtrip(data):
    ntags = 2
    value = data.draw(st.floats(min_value=0.2, max_value=4.0))
    w0 = data.draw(finite)
    w1 = data.draw(finite)
    x = CrossDual(ntags, [value, w0, w1, 0.0])
    y = ad.exp(ad.log(x))
    np.testing.assert_allclose(y.coeffs, x.coeffs, rtol=1e-9, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(finite, finite, st.floats(min_value=-1.2, max_value=1.2))
def test_partial_extraction_is_linear(alpha, beta, x0):
    f = lambda v: ad.sin(v[0] * v[1])
    g = lambda v: ad.exp(v[0] + v[1]) * v[0]
    combo = lambda v: alpha * f(v) + beta * g(v)
    point = [x0, 0.4]
    want = alpha * cross_partial(f, point, (0, 1)) + beta * cross_partial(g, point, (0, 1))
    assert cross_partial(combo, point, (0, 1)) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_tanh_two_routes_agree():
    x = CrossDual(2, [0.6, 1.0, -0.5, 0.0])
    direct = ad.tanh(x)
    e = ad.exp(2.0 * x)
    manual = (e - 1.0) / (e + 1.0)
    np.testing.assert_allclose(direct.coeffs, manual.coeffs, rtol=1e-10, atol=1e-12)


def test_sqrt_equals_half_power():
    x = CrossDual(2, [1.7, 0.3, 2.0, 0.0])
    np.testing.assert_allclose(ad.sqrt(x).coeffs, (x ** 0.5).coeffs, rtol=1e-12)


# --- batched lattice arrays match scalar duals

def test_lattice_mul_batched_matches_scalar():
    rng = np.random.default_rng(7)
    t = 3
    a = rng.normal(size=(5, 1 << t))
    b = rng.normal(size=(5, 1 << t))
    batched = lattice_mul(a, b, t)
    for i in range(5):
        da = CrossDual(t, a[i])
        db = CrossDual(t, b[i])
        np.testing.assert_allclose(batched[i], (da * db).coeffs, rtol=1e-12)


def test_lattice_compose_batched_matches_scalar():
    rng = np.random.default_rng(8)
    t = 3
    g = rng.normal(size=(6, 1 << t))
    g[:, 0] = np.abs(g[:, 0]) + 0.5  # keep log in-domain
    batched = lattice_compose(ad.LOG, g, t)
    for i in range(6):
        np.testing.assert_allclose(
            batched[i], ad.log(CrossDual(t, g[i])).coeffs, rtol=1e-12
        )


# --- a batch of duals (coefficients shaped (B, 2^t)) against the same
# duals one row at a time; numpy sums a batch in another order, so the
# comparison allows a few hundred ulps of the largest coefficient

TABLE_FUNCTIONS = (
    "exp", "sin", "cos", "sinh", "tanh", "arcsin", "arccos", "arctan", "erf",
)

BATCH_OPS = {
    "add": lambda a, b: a + b,
    "add_const": lambda a, b: 0.75 + a,
    "sub": lambda a, b: a - b,
    "rsub": lambda a, b: 1.5 - a,
    "mul": lambda a, b: a * b,
    "mul_const": lambda a, b: a * 2.5,
    "div": lambda a, b: a / b,
    "div_const": lambda a, b: a / 3.0,
    "rdiv": lambda a, b: 2.0 / a,
    "neg": lambda a, b: -a,
    "pow": lambda a, b: a ** 2.5,
    "pow_int": lambda a, b: a ** 5,
    "pow_dual": lambda a, b: a ** b,
    "rpow": lambda a, b: 2.0 ** a,
    "abs": lambda a, b: abs(a - 0.5),
    "maximum": lambda a, b: ad.maximum(a - b, 0.0),
    "log": lambda a, b: ad.log(a),
    "sqrt": lambda a, b: ad.sqrt(a),
    **{name: (lambda a, b, f=getattr(ad, name): f(a)) for name in TABLE_FUNCTIONS},
}


def _dual_batch(rng, t, rows=5):
    c = 0.5 * rng.normal(size=(rows, 1 << t))
    c[:, 0] = rng.uniform(0.2, 0.8, size=rows)  # inside every domain above
    return c


@pytest.mark.parametrize("op", sorted(BATCH_OPS))
def test_batched_dual_matches_row_by_row(op):
    f = BATCH_OPS[op]
    rng = np.random.default_rng(21)
    for t in (1, 3, 5):
        a, b = _dual_batch(rng, t), _dual_batch(rng, t)
        got = f(CrossDual(t, a), CrossDual(t, b)).coeffs
        want = [f(CrossDual(t, a[i]), CrossDual(t, b[i])).coeffs for i in range(len(a))]
        assert got.shape == a.shape
        _assert_lattice_close(got, np.stack(want))
        # an unbatched operand broadcasts against the batch
        got = f(CrossDual(t, a), CrossDual(t, b[0])).coeffs
        want = [f(CrossDual(t, a[i]), CrossDual(t, b[0])).coeffs for i in range(len(a))]
        _assert_lattice_close(got, np.stack(want))


def test_batched_quotient_pins_every_value_slot():
    rng = np.random.default_rng(22)
    a, b = _dual_batch(rng, 3), _dual_batch(rng, 3)
    quot = CrossDual(3, a) / CrossDual(3, b)
    np.testing.assert_array_equal(quot.value, a[:, 0] / b[:, 0])
    np.testing.assert_array_equal((1.0 / CrossDual(3, b)).value, 1.0 / b[:, 0])


def test_value_and_partial_are_floats_unbatched_and_arrays_batched():
    single = CrossDual(2, [1.0, 2.0, 3.0, 4.0])
    assert type(single.value) is float and single.value == 1.0
    assert type(single.partial((0, 1))) is float and single.partial((0, 1)) == 4.0
    batch = CrossDual(2, [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    np.testing.assert_array_equal(batch.value, [1.0, 5.0])
    np.testing.assert_array_equal(batch.partial((1,)), [3.0, 7.0])
    for bad in (1.0, [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="coefficients"):
            CrossDual(2, bad)


# --- lattice_compose against the chain rule written out over set partitions
# (Faa di Bruno: the coefficient of S sums f^(|pi|)(g_0) * prod_{B in pi} g[B]
# over the set partitions pi of S), a reference independent of its recurrence


def _set_partitions(bits):
    """Yield the set partitions of ``bits``; each block is a bitmask."""
    if not bits:
        yield ()
        return
    first, rest = bits[0], bits[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] | 1 << first,) + part[i + 1 :]
        yield part + (1 << first,)


def _compose_by_partitions(table, g, t):
    deriv = table.series(t, g[..., 0])
    out = np.empty_like(g)
    out[..., 0] = deriv[0]
    for s in range(1, 1 << t):
        acc = 0.0
        for part in _set_partitions(tuple(i for i in range(t) if s >> i & 1)):
            term = deriv[len(part)]
            for blk in part:
                term = term * g[..., blk]
            acc = acc + term
        out[..., s] = acc
    return out


def _assert_lattice_close(got, want):
    # the two sum the same terms in different orders: a few hundred ulps of
    # the largest coefficient
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())


def _random_lattice(rng, x0, t):
    g = rng.normal(size=(3, 2, 1 << t))
    g[..., 0] = x0 + 0.05 * rng.uniform(-1.0, 1.0, size=(3, 2))
    return g


@pytest.mark.parametrize("table,x0", TABLE_POINTS, ids=lambda v: getattr(v, "name", v))
def test_lattice_compose_matches_set_partition_sum(table, x0):
    rng = np.random.default_rng(12)
    for t in range(1, 7):
        g = _random_lattice(rng, x0, t)
        _assert_lattice_close(lattice_compose(table, g, t), _compose_by_partitions(table, g, t))


def test_lattice_compose_matches_set_partition_sum_at_eight_tags():
    g = _random_lattice(np.random.default_rng(13), -0.7, MAX_TAGS)
    _assert_lattice_close(
        lattice_compose(ad.GELU, g, MAX_TAGS), _compose_by_partitions(ad.GELU, g, MAX_TAGS)
    )


# --- lattice_compose sums only the blocks B that are nonzero somewhere in
# the batch; the dropped terms are +-0 * x, so on finite data it must match
# the recurrence over every submask pair exactly, not just to rounding


def _compose_full(table, g, t, overwrite_g=False):
    """lattice_compose's recurrence over every pair of _chain_pairs, each
    mask summed row by row from +0.0 (for a batch, np.sum's order); it
    never writes g, which ``overwrite_g`` allows but does not require."""
    x0 = g[..., 0]
    deriv = table.series(t, x0)
    gt = np.moveaxis(g, -1, 0).reshape(1 << t, -1)
    below = None
    for j in range(t, -1, -1):
        level = np.empty((1 << (t - j), gt.shape[1]))
        level[0] = np.reshape(deriv[j], -1)
        for k, (ib, ir) in enumerate(ad._chain_pairs(t)[j], start=1):
            level[k] = sum(gt[ib] * below[ir], np.zeros(gt.shape[1]))
        below = level
    return np.ascontiguousarray(np.moveaxis(below.reshape(g.shape[-1:] + x0.shape), 0, -1))


@pytest.mark.parametrize("table,x0", TABLE_POINTS, ids=lambda v: getattr(v, "name", v))
def test_lattice_compose_with_dead_masks_matches_full_recurrence(table, x0):
    rng = np.random.default_rng(15)
    for t in range(1, 8):
        # a batch and one unbatched element, each on its own shape
        for shape in ((3, 2), ()):
            for _ in range(3):
                g = rng.normal(size=shape + (1 << t,))
                g[..., 0] = x0 + 0.05 * rng.uniform(-1.0, 1.0, size=shape)
                dead = 1 + np.flatnonzero(rng.random((1 << t) - 1) < 0.5)
                g[..., dead] = np.where(rng.random(dead.size) < 0.5, 0.0, -0.0)
                g[..., 1:][rng.random(g[..., 1:].shape) < 0.1] = 0.0  # zeros inside live masks
                want = _compose_full(table, g, t)
                np.testing.assert_array_equal(lattice_compose(table, g, t), want)


def _assert_same_bytes(got, want):
    # assert_array_equal alone takes -0.0 for +0.0
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _dense_lattice(rng, x0, shape, t):
    g = rng.normal(size=shape + (1 << t,))
    g[..., 0] = x0 + 0.05 * rng.uniform(-1.0, 1.0, size=shape)
    zeros = rng.random(g[..., 1:].shape) < 0.1
    g[..., 1:][zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return g


def _singleton_lattice(rng, x0, shape, t):
    g = np.zeros(shape + (1 << t,))
    g[..., 0] = x0 + 0.05 * rng.uniform(-1.0, 1.0, size=shape)
    for i in range(t):
        g[..., 1 << i] = rng.normal(size=shape) * (rng.random(shape) < 0.8)
    return g


@pytest.mark.parametrize("table,x0", TABLE_POINTS, ids=lambda v: getattr(v, "name", v))
def test_lattice_compose_keeps_the_bytes_of_the_full_recurrence(table, x0):
    """The in-place sums over contiguous row copies give np.sum's bytes,
    signed zeros included, for any memory layout of g, and leave g alone."""
    rng = np.random.default_rng(18)
    t = MAX_TAGS
    cases = [_dense_lattice(rng, x0, (3, 2), t), _singleton_lattice(rng, x0, (4, 3), t)]
    big = _dense_lattice(rng, x0, (4, 6), 5)
    wide = _dense_lattice(rng, x0, (3, 4), 6)
    cases += [
        big[:, ::2, :],
        np.asfortranarray(big),
        wide[..., ::2],  # a strided subset axis: t = 5 over every other mask
        np.zeros((0, 7, 1 << 5)),
    ]
    for g in cases:
        t = int(g.shape[-1]).bit_length() - 1
        before = g.copy()
        got = lattice_compose(table, g, t)
        _assert_same_bytes(got, _compose_full(table, g, t))
        assert got.shape == g.shape and got.flags.c_contiguous
        _assert_same_bytes(g, before)


@pytest.mark.parametrize("make", [_dense_lattice, _singleton_lattice])
def test_lattice_compose_writes_g_only_when_asked(make):
    """A public call leaves g bit-identical; overwrite_g, which only
    forward_lattice passes, gives the same bytes with g's buffer as
    scratch (its level 0 is written there)."""
    rng = np.random.default_rng(22)
    for t in range(1, MAX_TAGS + 1):
        g = make(rng, -0.7, (5, 3), t)
        before = g.copy()
        want = lattice_compose(ad.GELU, g, t)
        _assert_same_bytes(g, before)
        got = lattice_compose(ad.GELU, g, t, overwrite_g=True)
        _assert_same_bytes(got, want)
        assert not np.shares_memory(got, g)
        assert g.tobytes() != before.tobytes()


def _spy_table(table, shapes):
    """``table`` recording the shape of every array its series is taken on."""
    def series(k, x):
        shapes.append(x.shape)
        return table.series(k, x)

    return ad.ElementaryTable(table.name, series, table.check)


@pytest.mark.parametrize("table,x0", TABLE_POINTS, ids=lambda v: getattr(v, "name", v))
def test_lattice_compose_takes_a_shared_value_slot_series_once(table, x0):
    """Rows that share g's value slot get the series of the first row
    alone, with the bytes of the series over the whole batch; one
    differing row takes the series over every row."""
    rng = np.random.default_rng(20)
    for t, width in ((3, 1), (5, 7), (7, 33)):
        for make in (_dense_lattice, _singleton_lattice):
            g = make(rng, x0, (6, width), t)
            g[..., 0] = g[:1, :, 0]
            differing = g.copy()
            differing[4, width // 2, 0] += 0.01
            for case, series_shape in ((g, (1, width)), (differing, (6, width))):
                shapes = []
                got = lattice_compose(_spy_table(table, shapes), case, t)
                assert shapes == [series_shape]
                _assert_same_bytes(got, _compose_full(table, case, t))


def test_lattice_compose_tells_a_negative_zero_value_from_a_positive_one():
    """gelu(-0.0) is -0.0: rows whose values differ only in a zero's sign
    do not share one series."""
    g = _singleton_lattice(np.random.default_rng(21), 0.0, (3, 2), 4)
    g[..., 0] = 0.0
    g[2, 1, 0] = -0.0
    _assert_same_bytes(lattice_compose(ad.GELU, g, 4), _compose_full(ad.GELU, g, 4))


def test_rows_broadcast_from_one_are_equal_without_a_comparison(traced_peak):
    """A value broadcast along its rows (stride 0), as forward_lattice's
    first layer gives it, is equal row for row by construction."""
    x0 = np.broadcast_to(np.linspace(-1.0, 1.0, 140), (200_000, 140))
    assert ad._rows_equal(x0)
    assert traced_peak(ad._rows_equal, x0) < 1 << 20
    assert not ad._rows_equal(np.broadcast_to(np.linspace(-1.0, 1.0, 140), (1, 140)))


@pytest.mark.parametrize("shape,t", [((512, 64), 4), ((32, 100), 7)])
@pytest.mark.parametrize("make", [_dense_lattice, _singleton_lattice])
def test_lattice_compose_peak_memory_is_bounded_by_its_result(shape, t, make, traced_peak):
    """Row copies, scratch row and levels stay within 3x the result, which
    is shaped like g."""
    g = make(np.random.default_rng(19), -0.7, shape, t)
    lattice_compose(ad.GELU, g, t)  # fill the memo of live pairs first
    peak = traced_peak(lattice_compose, ad.GELU, g, t)
    assert peak <= 3.0 * g.nbytes, f"peak {peak / g.nbytes:.2f}x the result"


def _salience_parts(x, tuples, local):
    """The parts of salience_seeds(x, tuples, t, local) for forward_lattice:
    the value row, a bank holding tag 0's direction of each vector and
    then the all-ones direction of each vector, and each row's tags."""
    n, d = x.shape
    bank = np.zeros((n, d, 2 * n))
    for v in range(n):
        if local:
            bank[v, :, v] = x[v]
        else:
            bank[:, :, v] = x[v]
        bank[v, :, n + v] = 1.0
    tags = np.array(tuples)
    tags[:, 1:] += n
    return {"value": x.ravel(), "bank": bank.reshape(n * d, 2 * n)}, tags


def test_forward_lattice_matches_full_recurrence(monkeypatch):
    """forward_lattice, run from the parts of a seeded batch, has the
    bytes of the dense seeded pass (its full-mask coefficient alone too,
    with top_only) and equals that pass with the full recurrence in every
    chain rule; each row alone has the bytes of its row in a batch of
    several row chunks."""
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 2))
    net = mlp.init_mlp(mlp.MlpConfig(input_dim=x.size, hidden=(9, 7, 5), seed=3))
    net = mlp.Mlp(net.weights, [rng.normal(size=b.shape) for b in net.biases], net.config)
    cases = []  # (model, tags, t, parts, the dense seeded input)
    unit = {"value": x.ravel(), "bank": np.eye(x.size)}
    for t in range(1, 8):
        candidates = np.array(list(itertools.combinations(range(x.size), t)))
        cases.append((net, candidates, t, unit, detect_seeds(x.ravel(), candidates, t)))
    for t in range(1, 5):
        tuples = list(itertools.permutations(range(x.shape[0]), t))
        for local in (True, False):
            parts, tags = _salience_parts(x, tuples, local)
            cases.append((net, tags, t, parts, salience_seeds(x, tuples, t, local)))
    # every order-4 tuple of a 9x4 grid through a 36-64-32 net: a batch of
    # several row chunks; then the same batch with tag 1 on an all-zero
    # bank column in its second half, so that block is live in some
    # chunks, dead in others, and live but zero in some rows of the chunk
    # that straddles
    grid = rng.normal(size=(9, 4))
    wide = mlp.init_mlp(mlp.MlpConfig(input_dim=grid.size, hidden=(64, 32), seed=4))
    tuples = list(itertools.permutations(range(9), 4))
    parts, tags = _salience_parts(grid, tuples, True)
    big = salience_seeds(grid, tuples, 4, True)
    zero = {"value": parts["value"], "bank": np.column_stack([parts["bank"], np.zeros(grid.size)])}
    ztags = tags.copy()
    ztags[len(tags) // 2 :, 1] = zero["bank"].shape[1] - 1
    partial = big.copy()
    partial[len(big) // 2 :, :, 2] = 0.0
    cases += [(wide, tags, 4, parts, big), (wide, ztags, 4, zero, partial)]
    chunk_rows = []

    def spy(table, g, t, **kwargs):
        chunk_rows.append(len(g))
        return lattice_compose(table, g, t, **kwargs)

    monkeypatch.setattr(mlp, "lattice_compose", spy)
    mlp.forward_lattice(wide, tags, 4, **parts)
    # the 64-wide first layer is built from its parts; the 32-wide one
    # takes one dense chain rule per chunk
    assert len(chunk_rows) > 2 and sum(chunk_rows) == len(big)
    got = [mlp.forward_lattice(model, tags, t, **parts) for model, tags, t, parts, _ in cases]
    for (model, tags, t, parts, arr), out in zip(cases, got):
        _assert_same_bytes(out, dense_pass(model, arr, t))
        _assert_same_bytes(mlp.forward_lattice(model, tags, t, top_only=True, **parts), out[..., -1])
    for (_, tags, _, parts, _), out in zip(cases[-2:], got[-2:]):
        for r in range(len(tags)):
            _assert_same_bytes(out[r : r + 1], mlp.forward_lattice(wide, tags[r : r + 1], 4, **parts))
    for (model, _, t, _, arr), out in zip(cases, got):
        np.testing.assert_array_equal(out, dense_pass(model, arr, t, _compose_full))


# --- a value plus one direction per tag (a first hidden layer's input):
# Faa di Bruno keeps one partition, so S = {i1 < ... < ik} is
# a_i1 * (a_i2 * (... * (a_ik * f^(k)(g_0)))), multiplied in that order


@pytest.mark.parametrize("table,x0", TABLE_POINTS, ids=lambda v: getattr(v, "name", v))
def test_lattice_compose_on_singletons_is_the_closed_form(table, x0):
    rng = np.random.default_rng(17)
    for t in range(1, MAX_TAGS + 1):
        for shape in ((4, 3), ()):
            g = np.zeros(shape + (1 << t,))
            g[..., 0] = x0 + 0.05 * rng.uniform(-1.0, 1.0, size=shape)
            for i in range(t):
                g[..., 1 << i] = rng.normal(size=shape)
            series = table.series(t, g[..., 0])
            want = np.empty_like(g)
            want[..., 0] = series[0]
            for s in range(1, 1 << t):
                tags = [i for i in range(t) if s >> i & 1]
                term = series[len(tags)]
                for i in reversed(tags):
                    term = g[..., 1 << i] * term
                want[..., s] = term
            np.testing.assert_array_equal(lattice_compose(table, g, t), want)


def test_gelu_table_matches_erf_construction():
    """GELU(z) = 0.5 z (1 + erf(z / sqrt 2)), composed and multiplied on the lattice."""
    rng = np.random.default_rng(14)
    for t in range(MAX_TAGS + 1):
        z = rng.normal(size=(4, 3, 1 << t))
        e = lattice_compose(ad.ERF, z / math.sqrt(2.0), t)
        e[..., 0] += 1.0
        _assert_lattice_close(lattice_compose(ad.GELU, z, t), 0.5 * lattice_mul(z, e, t))


# --- error surfaces

def test_tag_mismatch():
    a = CrossDual.variable(1.0, 0, 2)
    b = CrossDual.variable(1.0, 0, 3)
    with pytest.raises(TagMismatchError):
        a + b
    with pytest.raises(TagMismatchError):
        a * b


def test_singularity_on_zero_division():
    z = CrossDual.constant(0.0, 1)
    with pytest.raises(SingularityError):
        1.0 / z
    with pytest.raises(SingularityError):
        CrossDual.variable(2.0, 0, 1) / 0.0


@pytest.mark.parametrize(
    "expr",
    [
        lambda: ad.log(CrossDual.constant(-1.0, 1)),
        lambda: ad.sqrt(CrossDual.constant(-2.0, 1)),
        lambda: ad.arcsin(CrossDual.constant(1.5, 1)),
        lambda: power_table(-2.0).check(np.asarray(0.0)),
        lambda: ad.log(-3.0),
        lambda: ad.sqrt(-0.1),
    ],
)
def test_domain_errors(expr):
    with pytest.raises(DomainError):
        expr()


def test_domain_error_message_names_function_and_bound():
    with pytest.raises(DomainError) as exc:
        ad.log(CrossDual.constant(-1.0, 1))
    assert "log" in str(exc.value)
    assert "x > 0" in str(exc.value)


@pytest.mark.parametrize(
    "table, x, error",
    [
        (ad.ARCSIN, 1.5, DomainError),
        (ad.ARCCOS, -3.0, DomainError),
        (ad.LOG, 0.0, DomainError),
        (ad.SQRT, -1.0, DomainError),
        (ad.RECIPROCAL, 0.0, SingularityError),
        (power_table(-1.0), 0.0, DomainError),
        (power_table(0.5), -1.0, DomainError),
    ],
    ids=lambda v: v.name if isinstance(v, ad.ElementaryTable) else None,
)
def test_every_kind_of_argument_gets_the_same_domain_check(table, x, error):
    for arg in (x, np.array([0.5, x]), CrossDual.variable(x, 0, 2)):
        with pytest.raises(error):
            table(arg)


def test_maximum_kink_has_zero_slope():
    x = CrossDual.variable(0.0, 0, 1)
    y = ad.maximum(x, 0.0)
    assert y.value == 0.0
    assert y.partial((0,)) == 0.0
    above = ad.maximum(CrossDual.variable(0.5, 0, 1), 0.0)
    assert above.partial((0,)) == 1.0


def test_maximum_of_plain_numbers_keeps_the_larger_value():
    assert ad.maximum(-1, 0.5) == 0.5
    assert ad.maximum(2, 0.5) == 2
    assert ad.maximum(-3.0, -2.5) == -2.5


def test_maximum_of_an_array_is_elementwise():
    x = np.array([-1.0, 0.0, 0.25, 2.0])
    np.testing.assert_array_equal(ad.maximum(x, 0.25), [0.25, 0.25, 0.25, 2.0])


def test_maximum_of_nan_is_nan_for_every_kind():
    assert math.isnan(ad.maximum(math.nan, 0.5))
    np.testing.assert_array_equal(ad.maximum(np.array([math.nan, 1.0]), 0.5), [math.nan, 1.0])
    assert math.isnan(ad.maximum(CrossDual.variable(math.nan, 0, 1), 0.5).value)


def test_constant_pow_dual_exponent():
    # c^x for positive c routes through exp(x log c)
    x = CrossDual.variable(0.4, 0, 1)
    y = 2.0 ** x
    assert y.value == pytest.approx(2.0 ** 0.4)
    assert y.partial((0,)) == pytest.approx(math.log(2.0) * 2.0 ** 0.4)
    with pytest.raises(DomainError):
        (-2.0) ** x


# --- the activations' out= form

def _activation_points() -> np.ndarray:
    rng = np.random.default_rng(0)
    subnormal = rng.integers(1, 2**52, size=200).view(np.float64)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.5e-323, -1e-310, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 4.450147717014403e-308, 40.0, -40.0],
        subnormal, -subnormal, rng.normal(scale=4.0, size=2000), rng.normal(size=500) * 1e-300,
    ])


@pytest.mark.parametrize("name", ["gelu", "relu"])
def test_activation_out_form_has_the_bytes_of_the_written_out_expressions(name):
    """``into`` writes the bytes of the expressions training was written
    with: 0.5 x (1 + erf(x / sqrt 2)) and 0.5 e + x phi(x) for GELU,
    max(x, 0) and (x > 0) for ReLU; ``series(1, x)`` and the table
    itself agree, signed zeros and subnormals included."""
    x = _activation_points()
    if name == "gelu":
        table = ad.GELU
        e = 1.0 + ad.special.erf(x / math.sqrt(2.0))
        phi = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
        want = (0.5 * x * e, 0.5 * e + x * phi)
    else:
        table = ad.max_const_table(0.0)
        want = (np.maximum(x, 0.0), (x > 0.0).astype(np.float64))
    value, slope, alone = (np.full_like(x, np.nan) for _ in range(3))
    table.into(x, value, slope)
    table.into(x, alone)
    series = table.series(1, x)
    for got in ((value, slope), series[:2], (alone, want[1]), (table(x), want[1])):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for i, point in enumerate(x[:11].tolist()):  # the scalar path
        assert np.float64(table(point)).tobytes() == want[0][i].tobytes()


def test_tables_without_an_out_form_say_so():
    with pytest.raises(TypeError, match="exp has no out= form"):
        ad.EXP.into(np.ones(2), np.empty(2))
