import os
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xdiff
from xdiff import benchmarks as bm
from xdiff.detect import DetectConfig, InteractionRanking, detect
from xdiff.evaluate import (
    AucReport,
    UndefinedAucError,
    auc,
    default_pipeline,
    mean_truth_auc,
    pair_scores,
    pairwise_suite,
    truth_auc_per_order,
)
from xdiff.mlp import Dataset, MlpConfig, TrainConfig


def _ranking(orders):
    """Wrap plain {order: [(subset, strength)]} dicts in a ranking; the
    provenance fields do not matter for scoring."""
    return InteractionRanking(
        orders={
            o: tuple((tuple(s), float(v)) for s, v in rows)
            for o, rows in orders.items()
        },
        representatives=(),
        per_representative={},
        top_parents={},
        config=DetectConfig(),
    )


def _auc_brute(scores, positives):
    pos = [abs(v) for k, v in scores.items() if k in positives]
    neg = [abs(v) for k, v in scores.items() if k not in positives]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


# --- auc

def test_worked_three_item_example():
    scores = {(0,): 3.0, (1,): 2.0, (2,): 1.0}
    assert auc(scores, {(0,), (2,)}) == 0.5


def test_perfect_separation():
    scores = {(0, 1): 5.0, (0, 2): 4.0, (1, 2): 0.5, (2, 3): 0.1}
    assert auc(scores, {(0, 1), (0, 2)}) == 1.0
    assert auc(scores, {(1, 2), (2, 3)}) == 0.0


def test_all_tied_scores_give_half():
    scores = {(i,): 2.0 for i in range(6)}
    assert auc(scores, {(0,), (3,)}) == 0.5


def test_tie_midrank_by_hand():
    # pairs: (5,2)=1, (5,1)=1, (2,2)=0.5, (2,1)=1 -> 3.5 of 4
    scores = {(0,): 5.0, (1,): 2.0, (2,): 2.0, (3,): 1.0}
    assert auc(scores, {(0,), (1,)}) == pytest.approx(3.5 / 4, abs=1e-15)


def test_sign_is_ignored():
    scores = {(0,): -3.0, (1,): 2.0, (2,): -1.0}
    assert auc(scores, {(0,), (2,)}) == 0.5
    assert auc({(0,): -9.0, (1,): 1.0}, {(0,)}) == 1.0


def test_unsorted_subset_keys_are_normalized():
    scores = {(1, 0): 4.0, (0, 2): 1.0}
    assert auc(scores, {(0, 1)}) == 1.0


def test_brute_force_agreement_and_sqrt_invariance():
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        vals = rng.integers(-4, 5, size=n) / 2.0  # halves force ties
        n_pos = int(rng.integers(1, n))
        keys = [(i,) for i in range(n)]
        scores = dict(zip(keys, vals.tolist()))
        positives = set(keys[:n_pos])
        got = auc(scores, positives)
        assert abs(got - _auc_brute(scores, positives)) < 1e-12
        # sqrt on magnitudes is strictly monotone, so ranks are unchanged
        rooted = {k: float(np.sqrt(abs(v))) for k, v in scores.items()}
        assert abs(auc(rooted, positives) - got) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        # scaling by 2**exponent is exact, hence strictly monotone, except
        # where it rounds into the subnormal range: there 5e-324 / 2 ties
        # with 0.0, so keep nonzero magnitudes well above that range
        st.tuples(
            st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-300),
            st.booleans(),
        ),
        min_size=2,
        max_size=30,
    ).filter(
        lambda xs: any(p for _, p in xs) and any(not p for _, p in xs)
    ),
    st.integers(-3, 6),
)
def test_monotone_rescaling_leaves_auc_alone(items, exponent):
    scores = {(i,): v for i, (v, _) in enumerate(items)}
    positives = {(i,) for i, (_, p) in enumerate(items) if p}
    scaled = {k: v * 2.0**exponent for k, v in scores.items()}
    assert auc(scaled, positives) == auc(scores, positives)


def test_reversing_magnitudes_complements_auc():
    # scores enter through their absolute value, so the complement pair
    # is magnitude reversal rather than sign flip
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        mags = rng.permutation(n) + 1.0
        keys = [(i,) for i in range(n)]
        scores = dict(zip(keys, mags.tolist()))
        positives = set(keys[: int(rng.integers(1, n))])
        flipped = {k: float(n + 2) - v for k, v in scores.items()}
        total = auc(scores, positives) + auc(flipped, positives)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_duplicate_subsets_rejected():
    with pytest.raises(ValueError, match="duplicate subsets"):
        auc({(0, 1): 1.0, (1, 0): 2.0}, {(0, 1)})


def test_positives_outside_universe_rejected():
    with pytest.raises(ValueError, match="not in the scored universe"):
        auc({(0,): 1.0, (1,): 2.0}, {(0,), (5,)})


def test_degenerate_classes_are_undefined():
    with pytest.raises(UndefinedAucError, match="1 positives and 0 negatives"):
        auc({(0,): 1.0}, {(0,)})
    with pytest.raises(UndefinedAucError):
        auc({(0,): 1.0, (1,): 2.0}, set())


def test_auc_does_not_import_scipy_stats():
    """scipy.stats adds about 45 MB to a process that imports it; nothing
    in xdiff needs it, AUC's midranks included."""
    src = str(Path(xdiff.__file__).resolve().parent.parent)
    code = (
        "import sys, xdiff; xdiff.auc({(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0}, [(0, 1)]); "
        "print('scipy.stats' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout.split() == ["False"], proc.stderr


def test_non_finite_scores_rejected():
    with pytest.raises(ValueError, match="finite"):
        auc({(0,): float("nan"), (1,): 1.0}, {(0,)})
    with pytest.raises(ValueError, match="finite"):
        auc({(0,): float("inf"), (1,): 1.0}, {(0,)})


# --- AucReport

def test_report_statistics_and_rows():
    report = AucReport(
        order=2,
        trials=2,
        per_function={"F1": (1.0, 0.5), "F2": (0.25, 0.75)},
    )
    assert report.mean("F1") == pytest.approx(0.75)
    assert report.std("F1") == pytest.approx(0.25)
    assert report.overall_mean() == pytest.approx(0.625)
    rows = report.rows()
    assert rows[0] == ("F1", pytest.approx(0.75), pytest.approx(0.25))
    assert rows[-1] == ("average", pytest.approx(0.625), pytest.approx(0.125))


def test_report_validates_trial_count_and_range():
    with pytest.raises(ValueError, match="2 values for 3 trials"):
        AucReport(order=2, trials=3, per_function={"F1": (0.5, 0.5)})
    with pytest.raises(ValueError, match="outside"):
        AucReport(order=2, trials=1, per_function={"F1": (1.5,)})
    with pytest.raises(ValueError, match="outside"):
        AucReport(order=2, trials=1, per_function={"F1": (-0.1,)})


# --- pair scores

def test_pair_scores_fills_the_full_universe():
    ranking = _ranking({2: [((0, 1), 3.5), ((4, 7), 1.25)]})
    scores = pair_scores(ranking)
    assert set(scores) == set(combinations(range(10), 2))
    assert scores[(0, 1)] == 3.5
    assert scores[(4, 7)] == 1.25
    assert scores[(2, 3)] == 0.0


def test_pair_scores_respects_dim():
    scores = pair_scores(_ranking({2: []}), dim=4)
    assert set(scores) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert all(v == 0.0 for v in scores.values())


# --- truth scoring

def test_truth_auc_per_order_skips_degenerate_orders():
    truth = bm.GroundTruth(maximal_sets=((0, 1, 2), (3, 4)))
    ranking = _ranking(
        {
            2: [((0, 1), 5.0), ((0, 2), 4.0), ((1, 2), 3.0), ((3, 4), 2.0), ((0, 3), 1.0)],
            3: [((0, 1, 2), 2.0)],  # every scored triple is true: no negatives
        }
    )
    per_order = truth_auc_per_order(ranking, truth)
    assert set(per_order) == {2}
    assert per_order[2] == 1.0


def test_unscored_positives_count_as_zero():
    truth = bm.GroundTruth(maximal_sets=((0, 1, 2), (3, 4)))
    ranking = _ranking({2: [((0, 3), 1.0), ((0, 1), 0.5)]})
    assert truth_auc_per_order(ranking, truth) == {2: 0.0}


def test_mean_truth_auc():
    truth = bm.GroundTruth(maximal_sets=((0, 1, 2),))
    ranking = _ranking(
        {
            2: [((0, 1), 5.0), ((0, 2), 4.0), ((1, 2), 3.0), ((0, 3), 1.0)],
            3: [((0, 1, 2), 0.5), ((0, 1, 3), 2.0)],
        }
    )
    per_order = truth_auc_per_order(ranking, truth)
    assert per_order[2] == 1.0
    assert per_order[3] == 0.0
    assert mean_truth_auc(ranking, truth) == pytest.approx(0.5)


def test_mean_truth_auc_needs_a_scoreable_order():
    truth = bm.GroundTruth(maximal_sets=((0, 1, 2),))
    with pytest.raises(UndefinedAucError, match="no order"):
        mean_truth_auc(_ranking({3: [((0, 1, 2), 1.0)]}), truth)


# --- suite plumbing

def test_pairwise_suite_with_injected_pipeline(monkeypatch):
    # one process: a job forked to a worker would append to its own copy
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []

    def pipeline(fid, seed):
        calls.append((fid, seed))
        rows = [(p, 1.0) for p in sorted(bm.pairwise_truth(fid))]
        return _ranking({2: rows})

    report = pairwise_suite(functions=("F8", "F10"), trials=3, seed=5, pipeline=pipeline)
    assert report.order == 2
    assert report.trials == 3
    assert set(report.per_function) == {"F8", "F10"}
    assert calls == [("F8", 5), ("F8", 6), ("F8", 7), ("F10", 5), ("F10", 6), ("F10", 7)]
    assert report.overall_mean() == 1.0
    assert report.rows()[-1] == ("average", 1.0, 0.0)


def test_pairwise_suite_is_the_same_on_one_process_and_two(monkeypatch):
    """Each trial's AUC lands in its (function, trial) slot whichever
    process ran it: seed s ranks s % 3 false pairs above the true ones."""

    def pipeline(fid, seed):
        false = [p for p in combinations(range(10), 2) if p not in bm.pairwise_truth(fid)]
        rows = [(p, 2.0) for p in false[: seed % 3]]
        rows += [(p, 1.0) for p in sorted(bm.pairwise_truth(fid))]
        return _ranking({2: rows})

    reports = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        reports.append(pairwise_suite(functions=("F8", "F10"), trials=3, seed=5, pipeline=pipeline))
    assert reports[0] == reports[1]
    for fid, (a5, a6, a7) in reports[0].per_function.items():
        assert a6 == 1.0 > a7 > a5, fid


def test_pairwise_suite_takes_a_one_shot_iterator():
    """The name check must not spend the functions the trials run over."""

    def pipeline(fid, seed):
        return _ranking({2: [(p, 1.0) for p in sorted(bm.pairwise_truth(fid))]})

    report = pairwise_suite(functions=iter(["F1"]), trials=2, pipeline=pipeline)
    assert report.per_function == {"F1": (1.0, 1.0)}
    assert report.overall_mean() == 1.0


def test_pairwise_suite_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        pairwise_suite(trials=0)
    with pytest.raises(ValueError, match="unknown function"):
        pairwise_suite(functions=("F11",), trials=1, pipeline=lambda f, s: None)
    with pytest.raises(ValueError, match="functions"):
        pairwise_suite(functions=(), trials=1, pipeline=lambda f, s: None)


def test_analytic_oracle_saturates_detectable_functions():
    # detection run on the exact function instead of a model: every pair
    # carried by a nonzero cross partial separates perfectly, while the
    # F5 and F7 groups that exist only along |.| and max(.,0) creases
    # are invisible to smooth derivatives
    detectable = {f: None for f in bm.FUNCTION_IDS if f not in ("F5", "F7")}
    for fid in bm.FUNCTION_IDS:
        raw = bm.sample_dataset(fid, 300, seed=11)
        data = Dataset(raw.features, raw.targets)

        def fn(z, fid=fid):
            return bm.eval_function(fid, list(z))

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="dropped")
            ranking = detect(fn, data, DetectConfig(max_order=2))
        value = auc(pair_scores(ranking), bm.pairwise_truth(fid))
        if fid in detectable:
            assert value == 1.0, fid
        else:
            assert 0.9 < value < 1.0, fid


def test_default_pipeline_smoke():
    ranking = default_pipeline(
        "F9",
        seed=0,
        samples=300,
        mlp_config=MlpConfig(input_dim=10, hidden=(8,)),
        train_config=TrainConfig(max_epochs=5, patience=3),
        detect_config=DetectConfig(max_order=2),
    )
    assert len(ranking.orders[2]) == 45
    again = default_pipeline(
        "F9",
        seed=0,
        samples=300,
        mlp_config=MlpConfig(input_dim=10, hidden=(8,)),
        train_config=TrainConfig(max_epochs=5, patience=3),
        detect_config=DetectConfig(max_order=2),
    )
    assert again.orders == ranking.orders
