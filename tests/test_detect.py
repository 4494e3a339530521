import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from xdiff import autodiff as ad
from xdiff import benchmarks as bm
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
