import itertools
import math

import numpy as np
import pytest

from xdiff.autodiff import CrossDual, DomainError, cross_partial
from xdiff.benchmarks import (
    FUNCTION_IDS,
    FUNCTIONS,
    GroundTruth,
    eval_function,
    get_function,
    ground_truth,
    pairwise_truth,
    sample_dataset,
    truth_document,
)


def test_f5_worked_example():
    x = [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
    assert eval_function("F5", x) == pytest.approx(4 + math.sqrt(2), rel=1e-12)


def test_f8_worked_example():
    assert eval_function("F8", [0.0] * 10) == pytest.approx(2 + math.pi / 2, rel=1e-12)


def test_eval_accepts_closed_hull():
    # sampling stays interior, but exact endpoints still evaluate
    x = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert math.isfinite(eval_function("F1", x))


def test_eval_domain_violation_names_variable():
    x = [0.5] * 10
    x[2] = 0.05  # below F1's x3 bound
    with pytest.raises(DomainError, match="x3"):
        eval_function("F1", x)
    x = [0.5] * 10
    x[3] = 1.5
    with pytest.raises(DomainError, match="x4"):
        eval_function("F1", x)


def test_eval_arity_check():
    with pytest.raises(ValueError, match="takes 10"):
        eval_function("F5", [0.0] * 9)


def test_unknown_function_id():
    with pytest.raises(ValueError, match="unknown function"):
        get_function("F11")


def test_sampling_deterministic():
    a = sample_dataset("F3", 100, seed=7)
    b = sample_dataset("F3", 100, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    c = sample_dataset("F3", 100, seed=8)
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_sampled_targets_match_the_row_by_row_evaluation(fid):
    """The targets are evaluated once on the column arrays; row by row
    on plain numbers they agree bit for bit, except F7, whose ``** 5``
    rounds differently on an array (a few rows, in the last bits)."""
    data = sample_dataset(fid, 300, seed=5)
    f = get_function(fid)
    rows = np.array([f.fn(list(row)) for row in data.features])[:, None]
    if fid == "F7":
        np.testing.assert_allclose(data.targets, rows, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_array_equal(data.targets, rows)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_samples_in_domain(fid):
    data = sample_dataset(fid, 200, seed=3)
    f = get_function(fid)
    for j, iv in enumerate(f.domain):
        col = data.features[:, j]
        assert all(iv.contains(v) for v in col), f"{fid} x{j + 1} leaves {iv}"
    assert np.isfinite(data.targets).all()


def test_f1_sampling_constraints():
    x = sample_dataset("F1", 500, seed=1).features
    assert (x[:, 2] + x[:, 4] > 0).all()
    assert (x[:, 6] / x[:, 7] >= 0).all()


def _mixed_second_difference(fn, x, i, j, h):
    """f(x+he_i+he_j) - f(x+he_i) - f(x+he_j) + f(x), with each step
    flipped inward when it would leave the closed domain."""
    f = get_function(fn) if isinstance(fn, str) else fn
    hi_ = h if x[i] + h <= f.domain[i].hi else -h
    hj = h if x[j] + h <= f.domain[j].hi else -h
    xs = []
    for di, dj in ((hi_, hj), (hi_, 0.0), (0.0, hj), (0.0, 0.0)):
        p = x.copy()
        p[i] += di
        p[j] += dj
        xs.append(f.fn(p))
    return xs[0] - xs[1] - xs[2] + xs[3]


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_ground_truth_is_machine_verified(fid):
    """Every true pair carries signal on the exact function; every
    excluded pair carries none.

    A pair counts as witnessed when its cross partial is nonzero at one
    of 50 sampled points, or, for interactions carried entirely by a
    kink (|x6+x7| in F5, the max term in F7), when a mixed second
    difference at a macroscopic step is nonzero there.  Excluded pairs
    must show neither, at every point.
    """
    f = get_function(fid)
    rows = sample_dataset(fid, 50, seed=1234).features
    truth = pairwise_truth(fid)
    for pair in itertools.combinations(range(10), 2):
        derivs = [abs(cross_partial(f.fn, row, pair)) for row in rows]
        diffs = [
            abs(_mixed_second_difference(f, row.copy(), *pair, h=0.25))
            for row in rows
        ]
        if pair in truth:
            assert max(max(derivs), max(diffs)) > 1e-6, f"{fid} {pair} unwitnessed"
        else:
            assert max(derivs) < 1e-9, f"{fid} {pair} has a cross partial"
            assert max(diffs) < 1e-9, f"{fid} {pair} has a mixed difference"


def test_ground_truth_rejects_non_maximal_sets():
    with pytest.raises(ValueError, match="maximal"):
        GroundTruth(((0, 1), (0, 1, 2)))


def test_ground_truth_subset_expansion():
    gt = ground_truth("F8")
    assert (2, 4) in gt.pairwise()  # inside {3,5,6} (1-based)
    assert (0, 2) not in gt.pairwise()  # no shared term
    order3 = gt.subsets(3)
    assert (2, 4, 5) in order3
    assert (3, 4, 6) in order3
    assert (0, 1, 2) not in order3


def test_pairwise_truth_shape():
    for fid in FUNCTION_IDS:
        for i, j in pairwise_truth(fid):
            assert 0 <= i < j < 10


def test_dual_value_slice_matches_plain_eval():
    for fid in FUNCTION_IDS:
        rows = sample_dataset(fid, 5, seed=9).features
        for row in rows:
            duals = [CrossDual.constant(v, 1) for v in row]
            assert eval_function(fid, duals).value == eval_function(fid, list(row))


def test_truth_document_layout():
    doc = truth_document("F6")
    assert set(doc) == {"id", "maximal_sets", "pairwise"}
    assert doc["id"] == "F6"
    assert [7, 8, 9] in doc["maximal_sets"]
    assert doc["pairwise"] == sorted(doc["pairwise"])
    assert all(len(p) == 2 for p in doc["pairwise"])


def test_sample_dataset_rejects_empty():
    with pytest.raises(ValueError):
        sample_dataset("F1", 0, seed=0)


def test_registry_is_complete():
    assert FUNCTION_IDS == tuple(f"F{k}" for k in range(1, 11))
    for fid, f in FUNCTIONS.items():
        assert f.fid == fid and f.arity == 10
        assert all(i < 10 for s in f.truth for i in s)
