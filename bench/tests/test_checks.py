"""Each output check rejects a corrupted output, so none passes vacuously.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed
from xdiff import DetectConfig, auc
from xdiff.mlp import MlpConfig, init_mlp, normalize

# --- AUC ---------------------------------------------------------------------


def test_auc_hand_worked_with_ties():
    # positives |3| and |1| against negatives |1| and |0|:
    # 3>1, 3>0, 1=1 (half), 1>0  ->  3.5 of 4 pairs
    scores = {(0, 1): -3.0, (0, 2): 1.0, (1, 2): 1.0, (2, 3): 0.0}
    assert checks.pairwise_auc(scores, {(0, 1), (0, 2)}) == 0.875
    # all tied: every pair counts half
    assert checks.pairwise_auc({(0,): 2.0, (1,): 2.0, (2,): -2.0}, {(0,)}) == 0.5


def test_auc_agrees_with_xdiff_on_ties():
    rng = np.random.default_rng(0)
    keys = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    scores = {k: float(v) for k, v in zip(keys, rng.integers(-3, 4, len(keys)))}
    positives = set(keys[::3])
    assert checks.pairwise_auc(scores, positives) == pytest.approx(auc(scores, positives), abs=1e-15)


def test_truth_auc_scores_missing_truth_as_zero():
    rows = [((0, 1), 4.0), ((1, 2), 2.0), ((2, 3), 1.0)]
    # order-2 truth of one group (0, 1, 2): (0, 2) is left out, so it scores 0
    value = checks.truth_auc(rows, ((0, 1, 2),), 2)
    assert value == pytest.approx((1.0 + 1.0 + 0.0) / 3)
    assert checks.truth_auc(rows, ((5, 6),), 3) is None


# --- CLI artifacts -----------------------------------------------------------


def _run_doc(tmp_path):
    (tmp_path / "a.csv").write_text("x1,y\n1.0,2.0\n")
    digest = hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest()
    return {"status": "ok", "artifacts": {"a.csv": digest}}


def test_run_doc_accepts_matching_hashes(tmp_path):
    checks.check_run_doc(_run_doc(tmp_path), tmp_path)


def test_run_doc_rejects_wrong_hash(tmp_path):
    doc = _run_doc(tmp_path)
    (tmp_path / "a.csv").write_text("x1,y\n1.0,2.5\n")
    with pytest.raises(CheckFailed, match="sha256"):
        checks.check_run_doc(doc, tmp_path)


def test_run_doc_rejects_unfinished_run(tmp_path):
    doc = dict(_run_doc(tmp_path), status="running")
    with pytest.raises(CheckFailed, match="status"):
        checks.check_run_doc(doc, tmp_path)


def _ranking_doc():
    pairs = [[0, 1], [1, 2], [0, 2], [2, 3], [0, 3], [1, 3]]
    triples = [[0, 1, 2], [1, 2, 3]]
    return {"orders": {
        "2": [{"set": s, "strength": 6.0 - i} for i, s in enumerate(pairs)],
        "3": [{"set": s, "strength": -2.0 + i} for i, s in enumerate(triples)],
    }}


def _corrupt(fn):
    doc = _ranking_doc()
    fn(doc["orders"])
    return doc


@pytest.mark.parametrize("corruption, message", [
    (lambda o: o["2"].insert(1, o["2"].pop(3)), "descending"),        # swapped ranking
    (lambda o: o["2"][0].update(set=[1, 0]), "sorted"),
    (lambda o: o["2"][1].update(set=[0, 1]), "repeats"),
    (lambda o: o["3"][0].update(set=[0, 1]), "order-3 list"),
    (lambda o: o["2"][5].update(strength=math.nan), "non-finite"),
    (lambda o: o["2"].pop(), "exhaustive"),
    (lambda o: o["3"][1].update(set=[1, 2, 4]), "leaves"),
    (lambda o: o.pop("3"), "orders"),
])
def test_ranking_doc_rejects(corruption, message):
    checks.check_ranking_doc(_ranking_doc(), dim=4, max_order=3, full_order=2)
    with pytest.raises(CheckFailed, match=message):
        checks.check_ranking_doc(_corrupt(corruption), dim=4, max_order=3, full_order=2)


# --- detect-deep -------------------------------------------------------------


@pytest.fixture(scope="module")
def deep():
    """An untrained model: every check but the truth AUC must hold."""
    wk = workloads.DetectDeep(None)
    wk.data = normalize(workloads.bm.sample_dataset("F8", 500, 0))
    wk.model = init_mlp(MlpConfig(input_dim=10, hidden=(12, 8), seed=3))
    wk.cfg = DetectConfig(max_order=4)
    wk.perm = np.random.default_rng(1).permutation(10)
    return wk, wk.run(None)


def test_deep_check_reaches_the_truth_auc(deep):
    wk, ranking = deep
    with pytest.raises(CheckFailed, match="truth AUC"):
        wk.check(None, ranking)


@pytest.mark.parametrize("order, message", [(2, "central differences"),
                                            (3, "central differences"),
                                            (4, "permuted")])
def test_deep_check_rejects_a_perturbed_partial(deep, order, message):
    wk, ranking = deep
    bad = copy.deepcopy(ranking)
    profile = bad.per_representative[bad.representatives[0].label][order]
    top = max(profile, key=lambda s: abs(profile[s]))
    profile[top] *= 1.1
    with pytest.raises(CheckFailed, match=message):
        wk.check(None, bad)


# --- taylor-cam --------------------------------------------------------------


@pytest.fixture(scope="module")
def cam():
    wk = workloads.TaylorCam(None)
    wk.setup(0)
    grid = wk.prepare(0)
    return wk, grid, wk.run(grid)


def test_cam_check_accepts_the_program_output(cam):
    wk, grid, out = cam
    wk.check(grid, out)


def _cam_corrupted(out, order, fn):
    tensors, tops = copy.deepcopy(out)
    values = tensors[order].values.copy()
    fn(values)
    tensors[order] = dataclasses.replace(tensors[order], values=values)
    return tensors, tops


def test_cam_check_rejects_a_perturbed_order2_cell(cam):
    wk, grid, out = cam

    def bump(v):
        v[2, 5] *= 1.01
        v[5, 2] *= 1.01

    with pytest.raises(CheckFailed, match="order-2 cell"):
        wk.check(grid, _cam_corrupted(out, 2, bump))


def test_cam_check_rejects_a_perturbed_order3_cell(cam):
    wk, grid, out = cam
    comb = out[1][3][0][0]

    def bump(v):
        v[comb] *= 1.01

    with pytest.raises(CheckFailed, match="order-3 cell"):
        wk.check(grid, _cam_corrupted(out, 3, bump))


def test_cam_check_rejects_an_unfolded_order4_cell(cam):
    wk, grid, out = cam

    def unfold(v):
        v[3, 2, 1, 0] = v[0, 1, 2, 3]

    with pytest.raises(CheckFailed, match="off the sorted sets"):
        wk.check(grid, _cam_corrupted(out, 4, unfold))


def test_cam_check_rejects_a_swapped_top_list(cam):
    wk, grid, out = cam
    tensors, tops = copy.deepcopy(out)
    tops[2][0], tops[2][1] = tops[2][1], tops[2][0]
    with pytest.raises(CheckFailed, match="descending"):
        wk.check(grid, (tensors, tops))
