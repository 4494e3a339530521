import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import xdiff
from xdiff import autodiff as ad
from xdiff import benchmarks as bm
from xdiff import detect as detect_mod
from xdiff import mlp
from xdiff.autodiff import CapacityError, cross_partial
from xdiff.detect import (
    AGGREGATION_LABELS,
    REPRESENTATIVE_LABELS,
    DetectConfig,
    aggregation_sweep,
    binned_mode,
    detect,
    local_ies,
    ranking_document,
    representative_samples,
    verify_extension_schedule,
)
from xdiff.mlp import (
    ActivationError,
    Dataset,
    Mlp,
    MlpConfig,
    Normalizer,
    TrainConfig,
    init_mlp,
    normalize,
    train,
)

from dense_lattice import dense_pass, detect_seeds, small_chunks


def _random_setup(seed=3, n=400):
    """Untrained random net plus normalized data: the detection
    mechanics do not care whether the model fits anything."""
    model = init_mlp(MlpConfig(input_dim=10, hidden=(16, 8), seed=seed))
    data = normalize(bm.sample_dataset("F9", n, seed=seed))
    return model, data


# --- representatives

def test_representative_examples_from_tiny_dataset():
    rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    data = Dataset(rows, np.zeros((3, 1)))
    reps = {r.label: r for r in representative_samples(data, ("mean", "min"), seed=0)}
    assert reps["mean"].row_index == 1
    assert reps["min"].row_index == 0
    np.testing.assert_array_equal(reps["mean"].row, [1.0, 1.0])


def test_single_row_dataset_every_label():
    data = Dataset(np.array([[3.0, 4.0]]), np.zeros((1, 1)))
    reps = representative_samples(data, REPRESENTATIVE_LABELS, seed=5)
    assert [r.row_index for r in reps] == [0] * 6


def test_representatives_follow_canonical_order():
    data = Dataset(np.random.default_rng(0).normal(size=(20, 3)), np.zeros((20, 1)))
    reps = representative_samples(data, ("random", "min", "mean"), seed=1)
    assert [r.label for r in reps] == ["mean", "min", "random"]


def test_random_representative_is_seeded():
    data = Dataset(np.random.default_rng(2).normal(size=(50, 2)), np.zeros((50, 1)))
    a = representative_samples(data, ("random",), seed=9)[0]
    b = representative_samples(data, ("random",), seed=9)[0]
    assert a.row_index == b.row_index


def test_empty_dataset_rejected():
    data = Dataset(np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="empty"):
        representative_samples(data, ("mean",), seed=0)


def test_unknown_label_rejected():
    data = Dataset(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="unknown representative"):
        representative_samples(data, ("centroid",), seed=0)


def test_binned_mode():
    # 3 of 4 values land in the first of ten bins over [0, 5]
    assert binned_mode([0.0, 0.1, 0.2, 5.0]) == pytest.approx(0.25)
    # tie between first and last bin resolves leftmost
    assert binned_mode([1.0, 2.0]) == pytest.approx(1.05)
    assert binned_mode([3.0, 3.0]) == 3.0
    with pytest.raises(ValueError):
        binned_mode([])


# --- local IEs

def _train_pair_model(target_fn, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(3000, 2))
    data = normalize(Dataset(x, target_fn(x)[:, None]))
    model, report = train(
        data,
        MlpConfig(input_dim=2, hidden=(32, 16), seed=seed),
        TrainConfig(max_epochs=200, patience=30, seed=seed),
    )
    assert report.best_val_loss < 1e-3, "fixture net failed to fit"
    return model, data


def test_multiplicative_pair_has_visible_ie():
    model, data = _train_pair_model(lambda x: x[:, 0] * x[:, 1])
    reps = representative_samples(data, ("mean", "min", "mode", "random"), seed=0)
    strengths = [abs(local_ies(model, r.row, 2, [(0, 1)])[(0, 1)]) for r in reps]
    assert max(strengths) > 0.01


def test_additive_pair_is_quiet():
    mult_model, mult_data = _train_pair_model(lambda x: x[:, 0] * x[:, 1])
    add_model, add_data = _train_pair_model(lambda x: x[:, 0] + x[:, 1])
    rep_m = representative_samples(mult_data, ("mean",), seed=0)[0]
    rep_a = representative_samples(add_data, ("mean",), seed=0)[0]
    strong = abs(local_ies(mult_model, rep_m.row, 2, [(0, 1)])[(0, 1)])
    quiet = abs(local_ies(add_model, rep_a.row, 2, [(0, 1)])[(0, 1)])
    assert quiet < 0.05 * strong


def test_zero_network_gives_exact_zeros():
    cfg = MlpConfig(input_dim=4, hidden=(3,))
    model = Mlp([np.zeros((3, 4)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)], cfg)
    out = local_ies(model, np.ones(4), 2, [(0, 1), (2, 3)])
    assert out == {(0, 1): 0.0, (2, 3): 0.0}


def test_relu_rejected_for_cross_partials():
    model = init_mlp(MlpConfig(input_dim=4, hidden=(5,), activation="relu"))
    with pytest.raises(ActivationError, match="relu"):
        local_ies(model, np.zeros(4), 2, [(0, 1)])


def test_order_above_tag_capacity():
    model = init_mlp(MlpConfig(input_dim=12, hidden=(4,)))
    with pytest.raises(CapacityError):
        local_ies(model, np.zeros(12), 9, [tuple(range(9))])


def test_bad_candidate_shapes():
    model = init_mlp(MlpConfig(input_dim=5, hidden=(4,)))
    with pytest.raises(ValueError, match="distinct"):
        local_ies(model, np.zeros(5), 2, [(1, 1)])
    with pytest.raises(ValueError, match="size"):
        local_ies(model, np.zeros(5), 3, [(0, 1)])


def test_local_ies_rejects_a_sample_or_candidate_that_does_not_fit():
    model = init_mlp(MlpConfig(input_dim=4, hidden=(3,)))
    with pytest.raises(ValueError, match="model expects 4 features, sample has 5"):
        local_ies(model, np.zeros(5), 2, [(0, 1)])
    for cand in ((1, 7), (-1, 2)):
        msg = re.escape(f"candidate {tuple(sorted(cand))} indexes outside the sample's 4 features")
        with pytest.raises(ValueError, match=msg):
            local_ies(model, np.zeros(4), 2, [(0, 1), cand])
    with pytest.raises(ValueError, match="indexes outside the sample's 3 features"):
        local_ies(lambda x: x[0] * x[1], np.zeros(3), 2, [(0, 3)])
    with pytest.raises(ValueError, match="order must be at least 1, got 0"):
        local_ies(model, np.zeros(4), 0, [()])


def test_classification_ie_matches_closed_form():
    """Two-class linear net: logits (z, -z) with z = x0 - x1, so
    p0 = sigmoid(2z) and the pair IE is -4 s'(u)(1 - 2 s(u)) at u = 2z."""
    cfg = MlpConfig(input_dim=2, hidden=(), output_dim=2)
    model = Mlp([np.array([[1.0, -1.0], [-1.0, 1.0]])], [np.zeros(2)], cfg)
    x = np.array([1.0, 0.0])
    u = 2.0 * (x[0] - x[1])
    s = 1.0 / (1.0 + np.exp(-u))
    want = -4.0 * s * (1 - s) * (1 - 2 * s)
    got = local_ies(model, x, 2, [(0, 1)], task="classification", class_index=0)
    assert got[(0, 1)] == pytest.approx(want, rel=1e-9)
    # the complementary class mirrors the sign
    other = local_ies(model, x, 2, [(0, 1)], task="classification", class_index=1)
    assert other[(0, 1)] == pytest.approx(-want, rel=1e-9)
    # on the logit itself the model is linear: exactly zero
    logit = local_ies(
        model, x, 2, [(0, 1)], task="classification", class_index=0, use_logit=True
    )
    assert logit[(0, 1)] == 0.0


# --- callables go through the same batched lattice pass as an Mlp


@pytest.mark.parametrize("fid", bm.FUNCTION_IDS)
def test_local_ies_of_a_callable_match_one_cross_partial_each(fid):
    def fn(z):
        return bm.eval_function(fid, z)

    rng = np.random.default_rng(31)
    row = bm.sample_dataset(fid, 1, seed=4).features[0]
    for order in (2, 3, 4):
        cands = list(combinations(range(10), order))
        cands = [cands[i] for i in sorted(rng.choice(len(cands), size=15, replace=False))]
        got = local_ies(fn, row, order, cands)
        assert list(got) == cands
        for c in cands:
            want = cross_partial(fn, row, c)
            assert abs(got[c] - want) <= 1e-13 * max(1.0, abs(want)), (order, c)


def test_callable_domain_error_drops_all_candidates_at_that_representative():
    def fn(z):
        return ad.log(z[0]) * z[1] * z[2] + z[1] * z[2]

    rng = np.random.default_rng(32)
    x = rng.uniform(0.5, 1.0, size=(40, 3))
    x[7] = [-1.0, 0.5, 0.5]  # the "min" representative, outside log's domain
    cfg = DetectConfig(max_order=2, representatives=("mean", "min"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ranking = detect(fn, Dataset(x, np.zeros((40, 1))), cfg)
    assert [str(w.message) for w in caught] == [
        "dropped 3 candidate(s) at one representative (domain error)"
    ]
    assert ranking.per_representative["min"][2] == {}
    mean_row = ranking.representatives[0].row
    for c in combinations(range(3), 2):
        want = cross_partial(fn, mean_row, c)
        assert ranking.per_representative["mean"][2][c] == pytest.approx(want, rel=1e-13)
    assert {s for s, _ in ranking.orders[2]} == set(combinations(range(3), 2))


# --- one order's candidates stream through the lattice pass in row chunks


def _chunk_rows(monkeypatch):
    """The row count of every chunk of the lattice passes detect makes,
    and the number of forward_lattice calls it makes."""
    rows, calls = [], []
    real_chunks, real_pass = mlp.row_chunks, mlp.forward_lattice

    def chunks(model, n, inputs, t):
        out = real_chunks(model, n, inputs, t)
        rows.extend(hi - lo for lo, hi in out)
        return out

    def spy(model, tags, t, **parts):
        calls.append(len(tags))
        return real_pass(model, tags, t, **parts)

    monkeypatch.setattr(mlp, "row_chunks", chunks)
    monkeypatch.setattr(detect_mod, "forward_lattice", spy)
    return rows, calls


def test_streamed_scores_have_the_bytes_of_one_batch(monkeypatch):
    """Scores from 2-8 row chunks equal those of one whole batch bit for
    bit, for a regression net, a classifier through softmax and a
    callable; the chunks are cut inside one forward_lattice call per
    model and order."""
    rng = np.random.default_rng(33)
    net = init_mlp(MlpConfig(input_dim=10, hidden=(16, 8), seed=5))
    clf = init_mlp(MlpConfig(input_dim=10, hidden=(12,), output_dim=3, seed=6))
    row = bm.sample_dataset("F4", 1, seed=7).features[0]
    cases = [
        (net, {}), (clf, {"task": "classification", "class_index": 2}),
        (lambda z: bm.eval_function("F4", z), {}),
    ]
    for order in (2, 3, 4):
        cands = list(combinations(range(10), order))
        want = [local_ies(model, row, order, cands, **kw) for model, kw in cases]
        with monkeypatch.context() as m:
            small_chunks(m, 16 * 8)  # eight candidates of the 16-wide net per chunk
            rows, calls = _chunk_rows(m)
            got = [local_ies(model, row, order, cands, **kw) for model, kw in cases]
        assert sum(rows) == 3 * len(cands) and len(rows) > 3 * 2
        assert calls == [len(cands)] * 3
        for w, g in zip(want, got):
            assert list(g) == list(w) == cands
            assert np.array(list(g.values())).tobytes() == np.array(list(w.values())).tobytes()


def _dense_scores(model, row, order, cands, task="regression", class_index=0, use_logit=False):
    """The scores of the dense seeded pass, read as detect read them."""
    out = dense_pass(model, detect_seeds(row, cands, order), order)
    if task == "classification" and not use_logit:
        out = mlp.softmax_lattice(out, order)
    return out[:, class_index if task == "classification" else 0, -1]


def test_scores_have_the_bytes_of_the_dense_seeded_pass(monkeypatch):
    """local_ies, whole and cut into row chunks, has the bytes of the
    dense seeded pass for a regression net, a 3-class classifier through
    softmax and on a logit, a net whose first layer ignores one input
    (a dead tag wherever a candidate holds it) or holds a -0.0 weight,
    and a callable."""
    rng = np.random.default_rng(38)
    net = init_mlp(MlpConfig(input_dim=10, hidden=(16, 8), seed=5))
    net = Mlp(net.weights, [rng.normal(size=b.shape) for b in net.biases], net.config)
    clf = init_mlp(MlpConfig(input_dim=10, hidden=(12,), output_dim=3, seed=6))
    dead = init_mlp(MlpConfig(input_dim=10, hidden=(16, 8), seed=7))
    dead.weights[0][:, 3] = 0.0
    negzero = init_mlp(MlpConfig(input_dim=10, hidden=(16, 8), seed=8))
    negzero.weights[0][[2, 5], [4, 6]] = -0.0
    row = bm.sample_dataset("F4", 1, seed=7).features[0]
    cases = [
        (net, {}), (clf, {"task": "classification", "class_index": 2}),
        (clf, {"task": "classification", "class_index": 1, "use_logit": True}),
        (dead, {}), (negzero, {}), (lambda z: bm.eval_function("F4", z), {}),
    ]
    for order in (2, 3, 4, 7):
        every = list(combinations(range(10), order))
        # tag 0 on input 3 in every row: its block is zero in the whole batch
        on_dead = [c for c in every if c[0] == 3]
        for (model, kw), cands in product(cases, (every, on_dead)):
            want = _dense_scores(model, row, order, cands, **kw).tobytes()
            for columns in (None, 16 * 8):
                with monkeypatch.context() as m:
                    if columns:
                        small_chunks(m, columns)
                    got = local_ies(model, row, order, cands, **kw)
                assert np.array(list(got.values())).tobytes() == want, (order, kw, columns)


def test_domain_error_in_a_later_chunk_drops_every_candidate_of_the_row(monkeypatch):
    calls = []

    def fn(z):
        calls.append(len(z[0].coeffs))
        if len(calls) == 2:
            raise ad.DomainError("log", -1.0, "x > 0")
        return z[0] * z[1]

    small_chunks(monkeypatch, 10 * 10)  # ten candidates per chunk
    cands = list(combinations(range(10), 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert local_ies(fn, np.ones(10), 2, cands) == {}
    assert calls == [11, 11]  # the first chunk scored, the second raised, none after
    assert [str(w.message) for w in caught] == [
        "dropped 45 candidate(s) at one representative (domain error)"
    ]


def test_detect_memory_at_p_100_is_one_row_chunk(traced_peak):
    """4,950 order-2 candidates at one representative: seeded whole, their
    (4950, 100, 4) input alone took 15 MiB and the pass peaked at 19 MiB."""
    rng = np.random.default_rng(34)
    data = normalize(Dataset(rng.normal(size=(50, 100)), rng.normal(size=50)))
    model = init_mlp(MlpConfig(input_dim=100, seed=0))
    cfg = DetectConfig(max_order=2, representatives=("mean",))
    detect(model, data, cfg)  # fill the memo of live pairs first
    peak = traced_peak(detect, model, data, cfg)
    assert peak <= 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_callable_with_classification_task_is_rejected():
    fn = lambda z: z[0] * z[1]
    with pytest.raises(ValueError, match="callable"):
        local_ies(fn, np.zeros(2), 2, [(0, 1)], task="classification")
    data = Dataset(np.ones((5, 2)), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="callable"):
        detect(fn, data, DetectConfig(max_order=2, task="classification"))


# --- detect

def test_detect_orders_and_schedule():
    model, data = _random_setup()
    cfg = DetectConfig(max_order=4, full_order=2, top_k=6)
    ranking = detect(model, data, cfg)
    assert sorted(ranking.orders) == [2, 3, 4]
    assert len(ranking.orders[2]) == 45  # exhaustive pairs
    assert verify_extension_schedule(ranking) == len(ranking.orders[3]) + len(
        ranking.orders[4]
    )
    # strengths are squared for regression and sorted descending
    for rows in ranking.orders.values():
        vals = [v for _, v in rows]
        assert all(v >= 0 for v in vals)
        assert vals == sorted(vals, reverse=True)


def test_detect_exhaustive_when_full_order_equals_max():
    model, data = _random_setup()
    ranking = detect(model, data, DetectConfig(max_order=3, full_order=3))
    assert len(ranking.orders[2]) == 45
    assert len(ranking.orders[3]) == 120  # all C(10,3): no subsampling
    assert verify_extension_schedule(ranking) == 0


def test_detect_is_deterministic_and_thread_invariant():
    model, data = _random_setup()
    cfg = DetectConfig(max_order=3)
    a = detect(model, data, cfg)
    b = detect(model, data, cfg)
    assert a.orders == b.orders


def test_monotone_candidate_growth_with_k():
    model, data = _random_setup()
    small = detect(model, data, DetectConfig(max_order=3, top_k=5))
    large = detect(model, data, DetectConfig(max_order=3, top_k=8))
    assert {s for s, _ in small.orders[3]} <= {s for s, _ in large.orders[3]}


def test_detect_on_analytic_function_is_permutation_equivariant():
    perm = np.array([3, 1, 4, 0, 2])  # reorder five columns
    inv = np.argsort(perm)

    def f(z):
        return bm.eval_function("F9", list(z) + [0.1] * 5)

    def f_permuted(z):
        return f(np.asarray(z)[inv][: len(perm)])

    rng = np.random.default_rng(8)
    x = rng.uniform(-0.9, 0.9, size=(300, 5))
    data = Dataset(x, np.zeros((300, 1)))
    data_p = Dataset(x[:, perm], np.zeros((300, 1)))
    cfg = DetectConfig(max_order=3, top_k=4)
    base = detect(f, data, cfg)
    moved = detect(f_permuted, data_p, cfg)
    for order in (2, 3):
        got = {tuple(sorted(inv[list(s)])): v for s, v in moved.orders[order]}
        want = dict(base.orders[order])
        assert set(got) == set(want)
        for s, v in want.items():
            assert got[s] == pytest.approx(v, rel=1e-9)


def test_detect_requires_normalized_data_for_models():
    model = init_mlp(MlpConfig(input_dim=10, hidden=(4,)))
    raw = bm.sample_dataset("F9", 50, seed=0)
    with pytest.raises(ValueError, match="normalize"):
        detect(model, raw, DetectConfig())


def test_detect_dimension_mismatch():
    model = init_mlp(MlpConfig(input_dim=7, hidden=(4,)))
    _, data = _random_setup()
    with pytest.raises(ValueError, match="features"):
        detect(model, data, DetectConfig())


def _five_column_data():
    data = normalize(bm.sample_dataset("F9", 50, seed=0))
    norm = Normalizer(data.normalizer.std[:5], data.normalizer.mean[:5])
    return Dataset(data.features[:, :5], data.targets, norm)


@pytest.mark.parametrize(
    "run",
    [
        lambda model, data: detect(model, data, DetectConfig(max_order=3)),
        lambda model, data: aggregation_sweep(model, data, DetectConfig(max_order=3), lambda r: 0.0),
    ],
    ids=["detect", "sweep"],
)
@pytest.mark.parametrize(
    "make_data, message",
    [
        (lambda: bm.sample_dataset("F9", 50, seed=0),
         "normalize the dataset before detecting on a trained model"),
        (_five_column_data, "model expects 10 features, data has 5"),
    ],
    ids=["unnormalized", "dimension"],
)
def test_detect_and_sweep_reject_bad_data_alike(run, make_data, message):
    model = init_mlp(MlpConfig(input_dim=10, hidden=(4,)))
    with pytest.raises(ValueError, match=message):
        run(model, make_data())


def test_detect_rejects_non_model():
    _, data = _random_setup()
    with pytest.raises(TypeError):
        detect(42, data, DetectConfig())


def test_squared_multiclass_flag():
    cfg = MlpConfig(input_dim=4, hidden=(6,), output_dim=3, seed=2)
    model = init_mlp(cfg)
    data = Dataset(
        np.random.default_rng(1).normal(size=(60, 4)),
        np.zeros((60, 3)),
        Normalizer(np.ones(4), np.zeros(4)),
    )
    dcfg = DetectConfig(
        max_order=2, task="classification", class_index=1, squared_multiclass=True
    )
    ranking = detect(model, data, dcfg)
    assert all(v >= 0 for _, v in ranking.orders[2])


def test_ranking_document_shape():
    model, data = _random_setup()
    doc = ranking_document(detect(model, data, DetectConfig(max_order=3)))
    assert set(doc) == {"config", "orders", "representatives"}
    assert set(doc["orders"]) == {"2", "3"}
    entry = doc["orders"]["2"][0]
    assert set(entry) == {"set", "strength"}
    assert [r["label"] for r in doc["representatives"]] == [
        "mean", "min", "mode", "random",
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(full_order=1)
    with pytest.raises(ValueError):
        DetectConfig(max_order=9)
    with pytest.raises(ValueError):
        DetectConfig(full_order=4, max_order=3)
    with pytest.raises(ValueError):
        DetectConfig(top_k=0)
    with pytest.raises(ValueError):
        DetectConfig(representatives=())
    with pytest.raises(ValueError):
        DetectConfig(representatives=("mean", "mean"))
    with pytest.raises(ValueError):
        DetectConfig(aggregation="sum")
    with pytest.raises(ValueError):
        DetectConfig(task="ranking")


def test_tampered_ranking_fails_schedule_check():
    model, data = _random_setup()
    ranking = detect(model, data, DetectConfig(max_order=3, top_k=3))
    bogus = ranking.orders[3] + (((0, 8, 9) if (0, 8, 9) not in dict(ranking.orders[3]) else (1, 8, 9), 99.0),)
    broken = type(ranking)(
        orders={2: ranking.orders[2], 3: bogus},
        representatives=ranking.representatives,
        per_representative=ranking.per_representative,
        top_parents={3: {lab: ((5, 6),) for lab in ranking.top_parents[3]}},
        config=ranking.config,
    )
    with pytest.raises(ValueError, match="parent"):
        verify_extension_schedule(broken)


# --- sweep

def test_aggregation_sweep_mechanics():
    model, data = _random_setup(n=200)
    cfg = DetectConfig(max_order=3)
    rows = aggregation_sweep(model, data, cfg, lambda r: float(r.orders[2][0][1]))
    assert len(rows) == 315  # (2^6 - 1) rep subsets x 5 aggregations
    labels = {r.label for r in rows}
    assert "Mean Of Mean-Min-Mode-Rand" in labels
    scores = [r.score for r in rows]
    assert scores == sorted(scores, reverse=True)
    # single-representative rows are aggregation-invariant
    for rep in REPRESENTATIVE_LABELS:
        single = {r.score for r in rows if r.representatives == (rep,)}
        assert len(single) == 1
    # labels are unique across the table
    assert len(labels) == 315
    assert {r.aggregation for r in rows} == set(AGGREGATION_LABELS)


def test_package_attribute_detect_is_the_module():
    """The package does not re-export the function under its module's
    name, so ``import xdiff.detect as m`` binds the module."""
    import xdiff
    import xdiff.detect as m

    assert m is xdiff.detect
    assert m.__name__ == "xdiff.detect"
    assert "detect" not in xdiff.__all__


def test_package_all_is_its_public_attributes_that_are_not_modules():
    """``from xdiff import *`` binds ``__all__``; without it, it would also
    bind the submodules, ``detect`` among them, over a caller's names."""
    public = {
        name for name, value in vars(xdiff).items()
        if not name.startswith("_") and not isinstance(value, type(xdiff))
    }
    assert len(set(xdiff.__all__)) == len(xdiff.__all__)
    assert set(xdiff.__all__) == public


def test_ranking_top_is_the_head_of_one_order():
    model, data = _random_setup(n=200)
    ranking = detect(model, data, DetectConfig(max_order=3))
    assert len(ranking.orders[2]) > 5
    assert ranking.top(2, 5) == ranking.orders[2][:5]
    assert ranking.top(3, 10**6) == ranking.orders[3]
    assert ranking.top(4, 5) == ()
    with pytest.raises(ValueError, match="k must be non-negative"):
        ranking.top(2, -1)


# --- representatives scored on w processes: the caller and w - 1 forked workers


def _force_shares(monkeypatch, w):
    """Score on w processes whatever the CPU count."""
    monkeypatch.setattr(detect_mod, "_share_count", lambda jobs, cells: min(jobs, w))


def _ranking_bytes(ranking):
    per = [
        (lab, order, tuple(vals), np.array(list(vals.values())).tobytes())
        for lab, by_order in ranking.per_representative.items()
        for order, vals in by_order.items()
    ]
    orders = [
        (order, tuple(s for s, _ in rows), np.array([v for _, v in rows]).tobytes())
        for order, rows in ranking.orders.items()
    ]
    return per, orders, ranking.top_parents


def _child_pids():
    """The pids of this process's children, read from /proc."""
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process is gone
            continue
        if int(fields[1]) == os.getpid():
            pids.add(int(stat.parent.name))
    return pids


def test_share_count_is_one_for_one_job_or_beside_another_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    lots = 10 * detect_mod.SHARE_MIN_CELLS
    assert detect_mod._share_count(1, lots) == 1
    assert detect_mod._share_count(6, lots) == 2
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert detect_mod._share_count(6, lots) == 1
    finally:
        stop.set()
        other.join()


def test_share_count_gives_each_process_its_least_work(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    least = detect_mod.SHARE_MIN_CELLS
    assert [detect_mod._share_count(6, k * least - 1) for k in range(1, 9)] == [1, 1, 2, 3, 4, 5, 6, 6]
    assert detect_mod._share_count(6, 0) == 1


def test_lattice_cells_bound_the_candidates_of_each_order():
    """Per order t: C(10, 2) pairs, then at most top_k * (11 - t)
    extensions, each 2^t cells wide, times the sum of the layer widths
    (an Mlp) or the inputs (a callable)."""
    per_width = 45 * 4 + 80 * 8 + 70 * 16 + 60 * 32 + 50 * 64 + 40 * 128
    default = init_mlp(MlpConfig(input_dim=10, seed=0))
    cfg = DetectConfig(max_order=7)
    assert detect_mod._lattice_cells(default, 10, cfg) == per_width * (140 + 100 + 60 + 20 + 1)
    assert detect_mod._lattice_cells(lambda z: z[0], 10, cfg) == per_width * 10
    # exhaustive to order 3, and no subsets at all beyond the dimension
    small = DetectConfig(max_order=5, full_order=3, top_k=2)
    assert detect_mod._lattice_cells(lambda z: z[0], 4, small) == (6 * 4 + 4 * 8 + 1 * 16) * 4
    # the default 4-representative detect forks at max order 4, not at 3
    two = 2 * detect_mod.SHARE_MIN_CELLS
    assert 4 * detect_mod._lattice_cells(default, 10, DetectConfig(max_order=3)) < two
    assert 4 * detect_mod._lattice_cells(default, 10, DetectConfig(max_order=4)) >= two
    # an analytic sweep (six representatives of a 10-input callable) never forks
    assert 6 * detect_mod._lattice_cells(lambda z: z[0], 10, DetectConfig()) == 231_600 < two


def _detect_in_pool_worker(cfg):
    model, data = _random_setup()
    return detect_mod._share_count(4, 2), _ranking_bytes(detect(model, data, cfg))


def test_detect_in_a_pool_worker_scores_in_that_worker(monkeypatch):
    """In a multiprocessing.Pool worker, whose pool already fills the
    CPUs, detect scores in one process, with the bytes of the caller's
    detect, though two CPUs and enough work for both are on offer."""
    import multiprocessing

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(detect_mod, "SHARE_MIN_CELLS", 1)
    assert detect_mod._share_count(4, 2) == 2
    cfg = DetectConfig(max_order=3)
    model, data = _random_setup()
    want = _ranking_bytes(detect(model, data, cfg))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        shares, got = pool.apply(_detect_in_pool_worker, (cfg,))
    assert shares == 1
    assert got == want


def test_scores_on_two_processes_have_the_bytes_of_one(monkeypatch):
    """per_representative, orders and top parents of detect, for a
    regression net, a softmax classifier and a callable, are the same bit
    for bit on one process and on two."""
    rng = np.random.default_rng(35)
    clf = init_mlp(MlpConfig(input_dim=10, hidden=(12,), output_dim=3, seed=6))
    clf_data = normalize(Dataset(rng.normal(size=(120, 10)), rng.normal(size=(120, 3))))
    cases = [
        (*_random_setup(), {}),
        (clf, clf_data, {"task": "classification", "class_index": 2}),
        (lambda z: bm.eval_function("F4", z), bm.sample_dataset("F4", 120, seed=8), {}),
    ]
    for model, data, kw in cases:
        cfg = DetectConfig(max_order=4, top_k=3, representatives=REPRESENTATIVE_LABELS, **kw)
        got = []
        for w in (1, 2):
            _force_shares(monkeypatch, w)
            got.append(_ranking_bytes(detect(model, data, cfg)))
        assert got[0] == got[1]


def test_sweep_splits_as_detect_does(monkeypatch):
    """aggregation_sweep reaches _share_count as detect does: on two CPUs
    with work enough for two shares both score on two processes, and the
    sweep's 315 rows and every ranking it scores have the bytes of one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    shares = []
    real = detect_mod._profiles
    monkeypatch.setattr(detect_mod, "_profiles", lambda *a: shares.append(a[-1]) or real(*a))
    model, data = _random_setup()
    cfg = DetectConfig(max_order=3)

    def sweep():
        rankings = []

        def score(r):
            rankings.append(_ranking_bytes(r))
            return float(r.orders[2][0][1])

        rows = aggregation_sweep(model, data, cfg, score)
        return [(r.label, r.representatives, r.aggregation, np.float64(r.score).tobytes())
                for r in rows], rankings

    monkeypatch.setattr(detect_mod, "SHARE_MIN_CELLS", 1)
    split = sweep()
    detect(model, data, cfg)
    monkeypatch.setattr(detect_mod, "SHARE_MIN_CELLS", 1 << 62)
    one = sweep()
    assert shares == [2, 2, 1]
    assert len(split[0]) == len(split[1]) == 315
    assert split == one


def test_an_interrupt_as_a_worker_forks_still_reaps_it(monkeypatch):
    """Ctrl-C landing just after the fork, before the caller has listed
    its worker, is raised once the worker is listed: the worker is
    killed and reaped, not left to run on."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    _force_shares(monkeypatch, 2)
    model, data = _random_setup()
    try:
        with pytest.raises(KeyboardInterrupt):
            detect(model, data, DetectConfig(max_order=3))
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def test_domain_errors_in_both_shares_warn_in_representative_order(monkeypatch):
    """"min" (a worker's share) drops its 6 order-2 candidates, "max" (the
    caller's share) its 2 order-3 candidates; on two processes the caller
    scores "max" first, yet the warnings come in representative order."""

    def fn(z):
        if z[0].ntags == 3 and z[0].coeffs.flat[0] > 2.0:
            raise ad.DomainError("sqrt", -1.0, "x >= 0")
        return ad.log(z[0]) * z[1] * z[2] + z[2] * z[3]

    rng = np.random.default_rng(36)
    x = rng.uniform(0.5, 1.0, size=(40, 4))
    x[7] = [-1.0, 0.1, 0.1, 0.1]  # "min": outside log's domain
    x[9] = [3.0, 2.0, 2.0, 2.0]  # "max": fails at order 3 only
    data = Dataset(x, np.zeros((40, 1)))
    cfg = DetectConfig(max_order=3, top_k=1, representatives=("mean", "min", "max", "mode"))
    runs = []
    for w in (1, 2):
        _force_shares(monkeypatch, w)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranking = detect(fn, data, cfg)
        runs.append(([str(c.message) for c in caught], _ranking_bytes(ranking)))
    assert runs[0][0] == [
        "dropped 6 candidate(s) at one representative (domain error)",
        "dropped 2 candidate(s) at one representative (domain error)",
    ]
    assert runs[1] == runs[0]
    assert ranking.per_representative["min"] == {2: {}, 3: {}}
    assert ranking.per_representative["max"][3] == {}


@pytest.mark.parametrize("raises", [False, True])
def test_no_worker_process_or_thread_outlives_detect(monkeypatch, raises):
    """A ValueError at "min", which a forked worker scores, reaches the
    caller with its type and message; returning or raising, detect leaves
    no child process and no thread behind."""

    def fn(z):
        if raises and z[0].coeffs.flat[0] < -2.0:
            raise ValueError("no value at the minimum")
        return z[0] * z[1] * z[2]

    rng = np.random.default_rng(37)
    x = rng.uniform(-1.0, 1.0, size=(30, 3))
    x[4] = [-3.0, -3.0, -3.0]
    data = Dataset(x, np.zeros((30, 1)))
    cfg = DetectConfig(max_order=3, representatives=("mean", "min", "max"))
    _force_shares(monkeypatch, 2)
    children, threads = _child_pids(), set(threading.enumerate())
    if raises:
        with pytest.raises(ValueError, match="^no value at the minimum$"):
            detect(fn, data, cfg)
    else:
        assert len(detect(fn, data, cfg).orders[3]) == 1
    assert _child_pids() == children
    assert set(threading.enumerate()) == threads
    if "multiprocessing" in sys.modules:
        assert sys.modules["multiprocessing"].active_children() == []


class _TwoArgError(Exception):
    """Pickles, but its unpickling calls __init__ with one argument."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def _split_setup(monkeypatch):
    """Three representatives on two processes: a forked worker scores
    "min", the row whose first value is below -2."""
    rng = np.random.default_rng(37)
    x = rng.uniform(-1.0, 1.0, size=(30, 3))
    x[4] = [-3.0, -3.0, -3.0]
    _force_shares(monkeypatch, 2)
    return Dataset(x, np.zeros((30, 1))), DetectConfig(max_order=3, representatives=("mean", "min", "max"))


@pytest.mark.parametrize("end, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), 9), -9),  # a signal's number, negated
], ids=["exit", "sigkill"])
def test_a_worker_that_dies_mid_share_raises_a_clear_error(monkeypatch, end, code):
    """A worker that ends at its representative, by an exit or a kill,
    without writing its share: detect raises naming its exit code, and
    no child process is left."""
    caller = os.getpid()

    def fn(z):
        if z[0].coeffs.flat[0] < -2.0 and os.getpid() != caller:
            end()
        return z[0] * z[1] * z[2]

    data, cfg = _split_setup(monkeypatch)
    children = _child_pids()
    message = f"a detect worker ended with code {code} before returning its share"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        detect(fn, data, cfg)
    assert _child_pids() == children


def _attribute_that_does_not_pickle():
    err = ValueError("no value at the minimum")
    err.hook = lambda: None
    return err


@pytest.mark.parametrize("make, message", [
    (_attribute_that_does_not_pickle, "ValueError: no value at the minimum"),
    (lambda: _TwoArgError("no value at the minimum", 2), "_TwoArgError: no value at the minimum"),
], ids=["pickling-fails", "unpickling-fails"])
def test_a_worker_exception_that_does_not_pickle_arrives_as_a_clear_error(monkeypatch, make, message):
    """A worker's exception that fails to pickle, or to unpickle, arrives
    as a RuntimeError naming its type and message, not as a hang."""

    def fn(z):
        if z[0].coeffs.flat[0] < -2.0:
            raise make()
        return z[0] * z[1] * z[2]

    data, cfg = _split_setup(monkeypatch)
    children = _child_pids()
    full = f"{message} (the worker's exception did not pickle)"
    with pytest.raises(RuntimeError, match=f"^{re.escape(full)}$"):
        detect(fn, data, cfg)
    assert _child_pids() == children


def test_import_leaves_the_process_pool_unloaded():
    """Importing xdiff loads no process pool, and neither does a detect
    split in two shares: its worker is a bare fork."""
    src = str(Path(xdiff.__file__).resolve().parent.parent)
    code = (
        "import sys, xdiff\n"
        "from xdiff import benchmarks as bm, detect as d\n"
        "def pools():\n"
        "    print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
        "pools()\n"
        "d._share_count = lambda jobs, cells: min(jobs, 2)\n"
        "cfg = d.DetectConfig(max_order=2, representatives=('mean', 'min'))\n"
        "ranking = d.detect(lambda z: z[0] * z[1], bm.sample_dataset('F4', 50, seed=0), cfg)\n"
        "print(len(ranking.orders[2]))\n"
        "pools()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "45", "[]", ""]
