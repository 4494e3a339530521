from dataclasses import replace
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from xdiff import autodiff as ad
from xdiff import salience
from xdiff.autodiff import CapacityError, CrossDual
from xdiff.mlp import ActivationError, MlpConfig, forward_lattice, init_mlp
from xdiff.salience import (
    CamOptions,
    FeatureGrid,
    SalienceTensor,
    grad_cam,
    hessian_cam,
    render_heatmap,
    salience_document,
    symmetrize,
    taylor_cam,
    top_interactions,
)

from dense_lattice import dense_pass, salience_seeds, small_chunks

RAW = CamOptions(square=False, symmetrize=False)
SQUARED = CamOptions(square=True, symmetrize=False)


def grid_callable(model):
    """An Mlp as a grid callable: the rows' batched CrossDuals, stacked
    into lattice coefficients, through the dense lattice pass."""

    def fn(rows):
        duals = [v for row in rows for v in row]
        t = duals[0].ntags
        arr = np.stack([v.coeffs for v in duals], axis=1)
        return CrossDual(t, dense_pass(model, arr, t)[:, 0, :])

    return fn


def bilinear(rows):
    """F = sum_p x0p * x1p over however many coordinates the grid has."""
    acc = rows[0][0] * rows[1][0]
    for p in range(1, len(rows[0])):
        acc = acc + rows[0][p] * rows[1][p]
    return acc


def test_grad_cam_bilinear_local_returns_f():
    grid = FeatureGrid(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]))
    want = float(np.dot(grid.x[0], grid.x[1]))
    assert grad_cam(bilinear, grid, 0, RAW) == pytest.approx(want, rel=1e-12)


def test_grad_cam_constant_function_is_zero():
    grid = FeatureGrid(np.array([[1.0], [2.0], [3.0]]))
    for i in range(3):
        assert grad_cam(lambda rows: 7.0, grid, i, RAW) == 0.0


def test_grad_cam_global_picks_up_other_gradients():
    # F = x00 alone; the global k-sum routes vector 0's gradient to i=1
    grid = FeatureGrid(np.array([[4.0], [9.0]]))
    opts = CamOptions(local_k=False, square=False, symmetrize=False)
    assert grad_cam(lambda rows: rows[0][0], grid, 1, opts) == pytest.approx(9.0)
    # locally vector 1 has no gradient at all
    assert grad_cam(lambda rows: rows[0][0], grid, 1, RAW) == 0.0


def test_grad_cam_rectify():
    grid = FeatureGrid(np.array([[2.0], [1.0]]))
    f = lambda rows: -3.0 * rows[0][0]
    assert grad_cam(f, grid, 0, RAW) == pytest.approx(-6.0)
    assert grad_cam(f, grid, 0, CamOptions(square=False, rectify=True)) == 0.0


def test_grad_cam_index_range():
    grid = FeatureGrid(np.ones((2, 2)))
    with pytest.raises(IndexError):
        grad_cam(bilinear, grid, 2)


def test_hessian_cam_bilinear_worked_example():
    grid = FeatureGrid(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]))
    t = hessian_cam(bilinear, grid, SQUARED)
    assert t.values[0, 1] == 36.0  # (1+2+3)^2, exact
    assert t.values[1, 0] == (0.5 - 1.0 + 2.0) ** 2
    assert t.values[0, 0] == 0.0 and t.values[1, 1] == 0.0
    # default symmetrization folds the two squared cells together
    sym = hessian_cam(bilinear, grid)
    assert sym.values[0, 1] == sym.values[1, 0] == pytest.approx(36.0 + 2.25)
    assert sym.symmetrized and sym.diagonal_zeroed


def test_additive_model_has_exactly_zero_salience():
    def additive(rows):
        acc = 0.0
        for row in rows:
            s = row[0]
            for v in row[1:]:
                s = s + v
            acc = acc + s * s  # nonlinear per vector, additive across
        return acc

    grid = FeatureGrid(np.random.default_rng(0).normal(size=(4, 3)))
    t = hessian_cam(additive, grid, SQUARED)
    off = t.values[~np.eye(4, dtype=bool)]
    assert (off == 0.0).all()


def test_taylor_order1_equals_grad_cam():
    """Order 1 is one batch of n lattice rows, rectified but neither
    squared nor folded, and each cell holds grad_cam's bytes."""
    models, grid = _cam_models()
    for model, local_k, rectify in product(models, (True, False), (False, True)):
        opts = CamOptions(local_k=local_k, rectify=rectify)
        t = taylor_cam(model, grid, 1, opts)
        want = np.array([grad_cam(model, grid, i, opts) for i in range(grid.n)])
        assert t.values.tobytes() == want.tobytes()
        raw = taylor_cam(model, grid, 1, replace(RAW, local_k=local_k)).values
        assert t.values.tobytes() == (np.maximum(raw, 0.0) if rectify else raw).tobytes()


def test_taylor_order3_trilinear_worked_example():
    grid = FeatureGrid(np.array([[1.7], [0.3], [-2.0]]))
    f = lambda rows: rows[0][0] * rows[1][0] * rows[2][0]
    t = taylor_cam(f, grid, 3, SQUARED)
    assert t.values[0, 1, 2] == pytest.approx(1.7**2, rel=1e-12)
    assert t.values[1, 0, 2] == pytest.approx(0.3**2, rel=1e-12)
    assert t.values[0, 0, 1] == 0.0  # repeated index: not a set
    # symmetrized form folds all six permutation cells into the smallest
    sym = taylor_cam(f, grid, 3)
    want = 2 * (1.7**2 + 0.3**2 + 2.0**2)
    assert sym.values[0, 1, 2] == pytest.approx(want, rel=1e-12)
    assert sym.values[1, 0, 2] == 0.0


def test_taylor_order2_is_hessian_cam():
    model = init_mlp(MlpConfig(input_dim=6, hidden=(7, 4), seed=4))
    grid = FeatureGrid(np.random.default_rng(2).uniform(-1, 1, (2, 3)))
    a = taylor_cam(model, grid, 2)
    b = hessian_cam(model, grid)
    np.testing.assert_array_equal(a.values, b.values)


def dense(rows):
    """tanh of a weighted sum: every mixed partial of every order is nonzero."""
    acc = 0.3
    for v, row in enumerate(rows):
        for p, x in enumerate(row):
            acc = acc + (0.4 + 0.1 * v - 0.05 * p) * x
    return ad.tanh(acc)


def _cam_models():
    net = init_mlp(MlpConfig(input_dim=10, hidden=(7, 5), seed=8))
    grid = FeatureGrid(np.random.default_rng(9).uniform(-1, 1, (5, 2)))
    return [net, dense], grid


def _every_tuple_raw(model, grid, order, opts):
    """The raw tensor with every directed tuple evaluated as its own row."""
    tuples = [
        t for t in product(range(grid.n), repeat=order)
        if not opts.zero_diagonal or len(set(t)) == order
    ]
    raw = np.zeros((grid.n,) * order)
    for t, v in zip(tuples, salience._evaluate_tuples(model, grid, tuples, order, opts.local_k)):
        raw[t] = v
    return raw


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("zero_diagonal", [True, False])
@pytest.mark.parametrize("local_k", [True, False])
def test_directed_cells_are_exact_copies_across_orderings(order, zero_diagonal, local_k):
    """Cell (i, *rest) holds the bytes of (i, *sorted(rest)) for every
    ordering of rest, and agrees with one row per directed tuple: exactly
    in the sorted cells, to rounding in the others."""
    models, grid = _cam_models()
    opts = CamOptions(
        local_k=local_k, square=False, symmetrize=False, zero_diagonal=zero_diagonal
    )
    for model in models:
        raw = taylor_cam(model, grid, order, opts).values
        want = _every_tuple_raw(model, grid, order, opts)
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(raw - want).max() <= 1e-14 * scale
        for cell in product(range(grid.n), repeat=order):
            canonical = (cell[0],) + tuple(sorted(cell[1:]))
            assert raw[cell].tobytes() == raw[canonical].tobytes(), cell
            assert raw[canonical].tobytes() == want[canonical].tobytes(), canonical


def test_one_lattice_row_per_vector_and_multiset_of_the_others(monkeypatch):
    seen = []

    def spy(model, tags, t, **parts):
        seen.append(tags.shape[0])
        return forward_lattice(model, tags, t, **parts)

    monkeypatch.setattr(salience, "forward_lattice", spy)
    (net, _), grid = _cam_models()
    n = grid.n
    for order in (1, 2, 3, 4):
        for zero_diagonal in (True, False):
            seen.clear()
            taylor_cam(net, grid, order, CamOptions(zero_diagonal=zero_diagonal))
            rest = comb(n - 1, order - 1) if zero_diagonal else comb(n + order - 2, order - 1)
            assert seen == [n * rest]


def test_order4_taylor_cam_peak_memory_is_bounded_by_its_row_chunks(traced_peak):
    """Order 4 on a 9x4 grid is 504 lattice rows; run whole, the 36-64-32-1
    net's (504, 64, 16) layers lifted the peak to about 14 MB."""
    net = init_mlp(MlpConfig(input_dim=36, hidden=(64, 32), seed=0))
    grid = FeatureGrid(np.random.default_rng(1).normal(size=(9, 4)))
    taylor_cam(net, grid, 4)  # fill the caches of index sets and live pairs first
    peak = traced_peak(taylor_cam, net, grid, 4)
    assert peak <= 8e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("local_k", [True, False])
def test_tuples_have_the_bytes_of_the_dense_seeded_pass(order, local_k, monkeypatch):
    """Every lattice row of a tensor, whole and cut into row chunks, has
    the bytes of the dense seeded pass's full-mask coefficient, through
    two hidden layers and through one."""
    grid = FeatureGrid(np.random.default_rng(1).normal(size=(9, 4)))
    tuples, _, _ = salience._cell_schedule(grid.n, order, False)
    for hidden in ((64, 32), (20,)):
        net = init_mlp(MlpConfig(input_dim=36, hidden=hidden, seed=0))
        seeds = salience_seeds(grid.x, tuples, order, local_k)
        want = dense_pass(net, seeds, order)[:, 0, -1].tobytes()
        for columns in (None, 4 * hidden[0]):
            with monkeypatch.context() as m:
                if columns:
                    small_chunks(m, columns)
                got = salience._evaluate_tuples(net, grid, tuples, order, local_k)
            assert got.tobytes() == want, (hidden, columns)


def test_paper_scale_order2_taylor_cam_peak_memory(traced_peak):
    """Order 2 on a 7x7 grid of 64-channel vectors, 2,352 lattice rows of
    3,136 inputs through a 64-32 net: about 5.2 MB at the peak, mostly the
    bank of 98 direction columns and its packed copy.  The dense seeded
    input it replaced took 236 MB alone (237 MB at the peak)."""
    net = init_mlp(MlpConfig(input_dim=49 * 64, hidden=(64, 32), seed=0))
    grid = FeatureGrid(np.random.default_rng(1).normal(size=(49, 64)), (7, 7))
    taylor_cam(net, grid, 2)  # fill the caches of index sets and live pairs first
    peak = traced_peak(taylor_cam, net, grid, 2)
    assert peak <= 7e6, f"peak {peak / 1e6:.2f} MB"


def test_order_above_grid_size_gives_a_zero_tensor():
    grid = FeatureGrid(np.array([[0.5, 1.0], [-1.0, 2.0]]))
    for opts in (CamOptions(), RAW):
        t = taylor_cam(dense, grid, 3, opts)
        assert t.values.shape == (2, 2, 2)
        assert not t.values.any()


def test_mlp_and_callable_routes_agree():
    """The batched lattice pass over an Mlp and the pass over the same
    network wrapped as a grid callable give the same tensor."""
    model = init_mlp(MlpConfig(input_dim=6, hidden=(9, 5), seed=6))
    grid = FeatureGrid(np.random.default_rng(3).uniform(-1, 1, (3, 2)))
    a = hessian_cam(model, grid, SQUARED)
    b = hessian_cam(grid_callable(model), grid, SQUARED)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-12)


def test_salience_matches_finite_difference_of_importance():
    """Differentiating the order-1 importance numerically reproduces the
    directed pair salience."""
    model = init_mlp(MlpConfig(input_dim=6, hidden=(8, 4), seed=11))
    rng = np.random.default_rng(5)
    grid = FeatureGrid(rng.uniform(-1, 1, (3, 2)))
    t = hessian_cam(model, grid, RAW)
    h = 1e-4
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            fd = 0.0
            for m in range(2):
                bumped = grid.x.copy()
                bumped[j, m] += h
                up = grad_cam(model, FeatureGrid(bumped), i, RAW)
                bumped[j, m] -= 2 * h
                dn = grad_cam(model, FeatureGrid(bumped), i, RAW)
                fd += (up - dn) / (2 * h)
            assert t.values[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def combine_mutual_loops(raw, order, opts):
    """``_combine_mutual`` as it was written, one Python walk over every
    index set and its permutation cells, kept as the reference.  It
    squares a fold with ``s * s``; the walk had ``** 2``, whose pow
    rounds a few values differently."""
    if order == 2:
        if opts.square and opts.sum_before_square:
            s = raw + raw.T
            return s * s
        if opts.square:
            sq = raw * raw
            return sq + sq.T
        return raw + raw.T
    out = np.zeros_like(raw)
    for c in combinations(range(raw.shape[0]), order):
        cells = [raw[p] for p in permutations(c)]
        if opts.square and opts.sum_before_square:
            s = sum(cells)
            out[c] = s * s
        elif opts.square:
            out[c] = sum(v * v for v in cells)
        else:
            out[c] = sum(cells)
    return out


def top_interactions_loops(tensor, k, threshold=None):
    """``top_interactions`` as it was written, kept as the reference."""
    rows = []
    for c in combinations(range(tensor.n), tensor.order):
        rows.append((c, max(float(tensor.values[p]) for p in permutations(c))))
    if threshold is not None:
        rows = [r for r in rows if r[1] > threshold]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


def random_tensors(seed, count):
    """Orders 1-5 over up to 6 vectors: plain normals, values drawn from
    a few with ties and both signed zeros, and normals with zeros of
    either sign scattered in."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        order = int(rng.integers(1, 6))
        shape = (int(rng.integers(1, 7)),) * order
        kind = rng.integers(3)
        if kind == 1:
            vals = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=shape)
        else:
            vals = rng.normal(size=shape)
        if kind == 2:
            zeros = rng.random(shape) < 0.4
            vals[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        yield order, vals


FOLDS = [
    CamOptions(square=square, sum_before_square=first)
    for square in (True, False)
    for first in (True, False)
]


def test_fold_matches_the_permutation_walk_byte_for_byte():
    for order, raw in random_tensors(0, 1000):
        for opts in FOLDS:
            got = salience._combine_mutual(raw, order, opts)
            want = combine_mutual_loops(raw, order, opts)
            assert got.tobytes() == want.tobytes(), (order, raw.shape, opts)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("zero_diagonal", [True, False])
def test_taylor_cam_folds_as_the_permutation_walk(order, zero_diagonal):
    models, grid = _cam_models()
    for model in models:
        for rectify in (False, True):
            base = CamOptions(square=False, symmetrize=False, zero_diagonal=zero_diagonal)
            raw = taylor_cam(model, grid, order, base).values
            if rectify:
                raw = np.maximum(raw, 0.0)
            for fold in FOLDS:
                opts = replace(fold, zero_diagonal=zero_diagonal, rectify=rectify)
                got = taylor_cam(model, grid, order, opts).values
                want = combine_mutual_loops(raw, order, opts)
                assert got.tobytes() == want.tobytes(), opts


def test_ranking_matches_the_permutation_walk():
    for order, vals in random_tensors(1, 600):
        t = SalienceTensor(order, vals)
        picks = [None, 0.0, -0.0, 0.25, float(vals.flat[len(vals.flat) // 2])]
        for threshold in picks:
            for k in (0, 1, 3, 10**6):
                got = top_interactions(t, k, threshold)
                want = top_interactions_loops(t, k, threshold)
                # repr tells -0.0 from 0.0 and numpy scalars from Python ones
                assert repr(got) == repr(want), (order, vals.shape, threshold, k)
                assert all(type(i) is int for s, _ in got for i in s)
                assert all(type(v) is float for _, v in got)


def test_symmetrize_is_idempotent():
    vals = np.array([[0.0, 3.0], [5.0, 0.0]])
    t = SalienceTensor(2, vals)
    once = symmetrize(t)
    twice = symmetrize(once)
    np.testing.assert_array_equal(once.values, [[0.0, 8.0], [8.0, 0.0]])
    assert twice is once


def test_sum_before_square_option():
    grid = FeatureGrid(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]))
    t = hessian_cam(bilinear, grid, CamOptions(sum_before_square=True))
    assert t.values[0, 1] == pytest.approx((6.0 + 1.5) ** 2)


def test_top_interactions_ranking():
    t = SalienceTensor(2, np.array([[0.0, 5.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    rows = top_interactions(t, 10)
    assert rows[0] == ((0, 1), 5.0)  # strongest permutation cell wins
    assert [s for s, _ in rows] == [(0, 1), (0, 2), (1, 2)]
    assert top_interactions(t, 1) == [((0, 1), 5.0)]
    assert top_interactions(t, 0) == []
    with pytest.raises(ValueError):
        top_interactions(t, -1)


def test_top_interactions_zero_tensor_and_threshold():
    t = SalienceTensor(2, np.zeros((3, 3)))
    assert top_interactions(t, 10, threshold=0.0) == []
    rows = top_interactions(t, 10)
    assert [s for s, _ in rows] == [(0, 1), (0, 2), (1, 2)]  # lexicographic ties


def test_argmax_stable_under_positive_scaling():
    f = grid_callable(init_mlp(MlpConfig(input_dim=8, hidden=(6,), seed=8)))
    grid = FeatureGrid(np.random.default_rng(7).uniform(-1, 1, (4, 2)))
    base = top_interactions(hessian_cam(f, grid), 6)
    scaled = top_interactions(hessian_cam(lambda r: 3.0 * f(r), grid), 6)
    assert [s for s, _ in base] == [s for s, _ in scaled]
    for (_, v1), (_, v2) in zip(base, scaled):
        assert v2 == pytest.approx(9.0 * v1, rel=1e-9)


def test_relu_and_capacity_errors():
    relu = init_mlp(MlpConfig(input_dim=4, hidden=(5,), activation="relu"))
    grid = FeatureGrid(np.ones((2, 2)))
    with pytest.raises(ActivationError):
        hessian_cam(relu, grid)
    assert isinstance(grad_cam(relu, grid, 0), float)  # order 1 is fine
    with pytest.raises(CapacityError):
        taylor_cam(bilinear, FeatureGrid(np.ones((9, 1))), 9)
    with pytest.raises(ValueError, match="order"):
        taylor_cam(bilinear, grid, 0)


def test_grid_validation():
    with pytest.raises(ValueError, match="2-d"):
        FeatureGrid(np.ones(4))
    with pytest.raises(ValueError, match="at least 2"):
        FeatureGrid(np.ones((1, 3)))
    with pytest.raises(ValueError, match="finite"):
        FeatureGrid(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="tile"):
        FeatureGrid(np.ones((4, 2)), layout=(3, 2))
    g = FeatureGrid(np.ones((6, 2)), layout=(2, 3))
    assert (g.n, g.d) == (6, 2)


def test_layouts_below_one_are_rejected(tmp_path):
    # (-3) * (-3) is 9, but no grid has negative rows or columns
    with pytest.raises(ValueError, match="layout -3x-3"):
        FeatureGrid(np.ones((9, 2)), layout=(-3, -3))
    with pytest.raises(ValueError, match="layout -3x-3"):
        render_heatmap(SalienceTensor(2, np.zeros((9, 9))), tmp_path / "h.svg", layout=(-3, -3))
    assert not (tmp_path / "h.svg").exists()


def test_model_grid_size_mismatch():
    model = init_mlp(MlpConfig(input_dim=5, hidden=(3,)))
    with pytest.raises(ValueError, match="flattens"):
        hessian_cam(model, FeatureGrid(np.ones((2, 2))))


def test_tensor_validation():
    with pytest.raises(ValueError):
        SalienceTensor(2, np.zeros(3))
    with pytest.raises(ValueError):
        SalienceTensor(2, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SalienceTensor(2, np.full((2, 2), np.inf))


def test_render_heatmap_deterministic(tmp_path):
    vals = np.zeros((4, 4))
    vals[0, 1] = vals[1, 0] = 2.5
    t = SalienceTensor(2, vals, symmetrized=True)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_heatmap(t, p1, layout=(2, 2))
    render_heatmap(t, p2, layout=(2, 2))
    assert p1.read_bytes() == p2.read_bytes()
    svg = p1.read_text()
    assert svg.count("stroke-dasharray") == 1  # one linked pair drawn


def test_render_heatmap_zero_tensor_has_no_boxes(tmp_path):
    t = SalienceTensor(2, np.zeros((4, 4)))
    path = tmp_path / "z.svg"
    render_heatmap(t, path, layout=(2, 2))
    assert "stroke-dasharray" not in path.read_text()


def test_render_heatmap_errors(tmp_path):
    with pytest.raises(ValueError, match="order-2"):
        render_heatmap(SalienceTensor(1, np.zeros(3)), tmp_path / "x.svg")
    with pytest.raises(ValueError, match="tile"):
        render_heatmap(SalienceTensor(2, np.zeros((4, 4))), tmp_path / "y.svg", layout=(3, 2))


def test_salience_document_shape():
    t = SalienceTensor(2, np.array([[0.0, 4.0], [4.0, 0.0]]), symmetrized=True)
    doc = salience_document(t, CamOptions(), top=3)
    assert doc["order"] == 2
    assert doc["tuples"] == [{"set": [0, 1], "salience": 4.0}]
    assert set(doc["options"]) == {
        "local_k", "square", "symmetrize", "zero_diagonal",
        "sum_before_square", "rectify",
    }
    # order 1 is neither squared nor folded: it ranks by signed importance
    # and echoes only the options it applies
    one = salience_document(SalienceTensor(1, np.array([2.0, -3.0, 1.0])), CamOptions(), top=3)
    assert [t["set"] for t in one["tuples"]] == [[0], [2], [1]]
    assert one["options"] == {"local_k": True, "rectify": False}
