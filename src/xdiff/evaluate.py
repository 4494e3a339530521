"""Scoring interaction rankings against analytic ground truth.

AUC here is the Mann-Whitney form on absolute scores: the probability
that a uniformly drawn true subset outranks a uniformly drawn false one,
ties counting half.  The pairwise protocol scores all 45 pairs of the
ten-variable benchmarks; a higher order is scored over the subsets the
detector scored plus the unscored true ones, which count 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from . import benchmarks as bm
from .detect import DetectConfig, InteractionRanking, detect, verify_extension_schedule
from .mlp import MlpConfig, TrainConfig, normalize, train
from .parallel import fork_map

log = logging.getLogger(__name__)


class UndefinedAucError(ValueError):
    """Raised when AUC has no value: one of the classes is empty."""


def auc(scores: Mapping[tuple[int, ...], float], positives) -> float:
    """Mann-Whitney AUC of |score| as a classifier of membership in
    positives.  Tied scores contribute half per positive-negative pair."""
    pos = {tuple(sorted(p)) for p in positives}
    keys = [tuple(sorted(k)) for k in scores]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate subsets in the score map")
    missing = pos - set(keys)
    if missing:
        raise ValueError(f"positives not in the scored universe: {sorted(missing)}")
    n_pos = len(pos)
    n_neg = len(keys) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"AUC undefined with {n_pos} positives and {n_neg} negatives"
        )
    vals = np.array([abs(float(scores[k])) for k in scores], dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("scores must be finite")
    # midranks: tied values share the mean of the ordinal ranks they span
    _, inverse, counts = np.unique(vals, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = sum(ranks[idx] for idx, k in enumerate(keys) if k in pos)
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class AucReport:
    """Per-function AUCs across trials at one interaction order."""

    order: int
    trials: int
    per_function: dict[str, tuple[float, ...]]

    def __post_init__(self):
        for fid, vals in self.per_function.items():
            if len(vals) != self.trials:
                raise ValueError(f"{fid} has {len(vals)} values for {self.trials} trials")
            for v in vals:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"AUC {v} for {fid} outside [0, 1]")

    def mean(self, fid: str) -> float:
        return float(np.mean(self.per_function[fid]))

    def std(self, fid: str) -> float:
        return float(np.std(self.per_function[fid]))

    def overall_mean(self) -> float:
        return float(np.mean([self.mean(f) for f in self.per_function]))

    def rows(self) -> list[tuple[str, float, float]]:
        """CSV-shaped rows (id, mean, std) plus a trailing average row
        over the per-function means."""
        out = [(fid, self.mean(fid), self.std(fid)) for fid in self.per_function]
        means = [r[1] for r in out]
        out.append(("average", float(np.mean(means)), float(np.std(means))))
        return out


def pair_scores(ranking: InteractionRanking, dim: int = 10) -> dict[tuple[int, int], float]:
    """Strengths for all C(dim,2) pairs; pairs the detector never
    scored count as 0."""
    found = dict(ranking.orders.get(2, ()))
    return {p: float(found.get(p, 0.0)) for p in combinations(range(dim), 2)}


def default_pipeline(
    fid: str,
    seed: int,
    samples: int = 10000,
    mlp_config: MlpConfig | None = None,
    train_config: TrainConfig | None = None,
    detect_config: DetectConfig | None = None,
):
    """Sample, normalize, train, detect: the standard benchmark chain.
    Returns the ranking; the extension lineage is self-checked on every
    run."""
    data = normalize(bm.sample_dataset(fid, samples, seed))
    mcfg = replace(mlp_config or MlpConfig(input_dim=10), seed=seed)
    tcfg = replace(train_config or TrainConfig(), seed=seed)
    model, report = train(data, mcfg, tcfg)
    log.info("%s seed=%d trained to val %.3g (epoch %d)", fid, seed, report.best_val_loss, report.best_epoch)
    dcfg = replace(detect_config or DetectConfig(), seed=seed)
    ranking = detect(model, data, dcfg)
    verify_extension_schedule(ranking)
    return ranking


def pairwise_suite(
    functions: Sequence[str] = bm.FUNCTION_IDS,
    trials: int = 3,
    samples: int = 10000,
    seed: int = 0,
    pipeline: Callable[[str, int], InteractionRanking] | None = None,
) -> AucReport:
    """Pairwise AUC per benchmark across trials.  Trial t of every
    function runs with seed + t; a custom pipeline(fid, seed) can stand
    in for the sample-train-detect chain.  The (function, trial) jobs run
    through ``fork_map``, so a pipeline's side effects may stay in the
    worker that ran it."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    functions = tuple(functions)  # an iterator would be spent by the checks below
    if not functions:
        raise ValueError("functions must name at least one benchmark")
    for fid in functions:
        bm.get_function(fid)
    if pipeline is None:
        def pipeline(fid, s):
            return default_pipeline(fid, s, samples=samples)

    jobs = [(fid, seed + t) for fid in functions for t in range(trials)]
    values = fork_map(lambda job: auc(pair_scores(pipeline(*job)), bm.pairwise_truth(job[0])), jobs)
    per_function: dict[str, tuple[float, ...]] = {}
    for (fid, _), value in zip(jobs, values):
        per_function[fid] = per_function.get(fid, ()) + (value,)
    return AucReport(order=2, trials=trials, per_function=per_function)


def truth_auc_per_order(ranking: InteractionRanking, truth: bm.GroundTruth) -> dict[int, float]:
    """AUC per order against the truth's size-m subsets.  The universe
    at each order is everything the detector scored plus any unscored
    truth subsets (scored 0); orders where either class is empty are
    skipped."""
    out = {}
    for order, rows in sorted(ranking.orders.items()):
        scores = {s: v for s, v in rows}
        positives = set(truth.subsets(order))
        for p in positives:
            scores.setdefault(p, 0.0)
        try:
            out[order] = auc(scores, positives)
        except UndefinedAucError:
            continue
    return out


def mean_truth_auc(ranking: InteractionRanking, truth: bm.GroundTruth) -> float:
    """Mean of the per-order AUCs; the sweep's scoring callback."""
    per_order = truth_auc_per_order(ranking, truth)
    if not per_order:
        raise UndefinedAucError("no order has both a true and a false subset")
    return float(np.mean(list(per_order.values())))
