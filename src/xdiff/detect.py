"""Global interaction detection on a trained model.

The detector picks a handful of representative rows from the dataset,
scores candidate variable subsets at each of them by exact cross
partials of the model output, and aggregates the per-row values into a
single ranking per interaction order.  Orders up to ``full_order`` are
scored exhaustively; beyond that, each representative extends its own
top-k subsets one variable at a time, so the candidate count stays
polynomial while anything strong at a lower order keeps its lineage.

Models can be ``Mlp`` instances or plain callables taking a length-p
vector, which is how the analytic benchmark functions are plugged in
directly.  ``detect`` and ``aggregation_sweep`` share one profile pass
(``_profile_pass``), which may score the representatives on several
processes; the bytes do not depend on how many.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import combinations
from math import comb
from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import MAX_TAGS, DomainError
from .mlp import Dataset, Mlp, check_derivative_order, forward_lattice, softmax_lattice

REPRESENTATIVE_LABELS = ("mean", "median", "min", "max", "mode", "random")
AGGREGATION_LABELS = ("mean", "median", "min", "max", "mode")

_REP_DISPLAY = {"mean": "Mean", "median": "Med", "min": "Min", "max": "Max", "mode": "Mode",
                "random": "Rand"}


def binned_mode(values) -> float:
    """Mode of a continuous sample: midpoint of the most populated of 10
    equal-width bins over the observed range, leftmost bin on ties."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mode of an empty sample")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return lo
    counts, edges = np.histogram(arr, bins=10, range=(lo, hi))
    b = int(np.argmax(counts))
    return float((edges[b] + edges[b + 1]) / 2.0)


@dataclass(frozen=True)
class DetectConfig:
    max_order: int = 5
    full_order: int = 2
    top_k: int = 10
    representatives: tuple[str, ...] = ("mean", "min", "mode", "random")
    aggregation: str = "mean"
    task: str = "regression"
    class_index: int = 0
    use_logit: bool = False
    squared_multiclass: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (2 <= self.full_order <= self.max_order <= MAX_TAGS):
            raise ValueError(
                f"need 2 <= full_order <= max_order <= {MAX_TAGS}, "
                f"got full_order={self.full_order}, max_order={self.max_order}"
            )
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        reps = tuple(self.representatives)
        if not reps:
            raise ValueError("at least one representative label is required")
        for r in reps:
            if r not in REPRESENTATIVE_LABELS:
                raise ValueError(f"unknown representative {r!r}; expected one of {REPRESENTATIVE_LABELS}")
        if len(set(reps)) != len(reps):
            raise ValueError("duplicate representative labels")
        object.__setattr__(self, "representatives", reps)
        if self.aggregation not in AGGREGATION_LABELS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}; expected one of {AGGREGATION_LABELS}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"task must be 'regression' or 'classification', got {self.task!r}")
        if self.class_index < 0:
            raise ValueError("class_index must be non-negative")


@dataclass(frozen=True)
class Representative:
    label: str
    row_index: int
    row: np.ndarray


@dataclass(frozen=True)
class InteractionRanking:
    """Aggregated subset strengths per order, with full per-representative
    provenance so rankings can be re-aggregated without re-scoring."""

    orders: dict[int, tuple[tuple[tuple[int, ...], float], ...]]
    representatives: tuple[Representative, ...]
    per_representative: dict[str, dict[int, dict[tuple[int, ...], float]]]
    top_parents: dict[int, dict[str, tuple[tuple[int, ...], ...]]]
    config: DetectConfig

    def __post_init__(self):
        for order, rows in self.orders.items():
            seen = set()
            for subset, strength in rows:
                if subset in seen:
                    raise ValueError(f"duplicate subset {subset} at order {order}")
                seen.add(subset)
                if tuple(sorted(subset)) != subset:
                    raise ValueError(f"subset {subset} is not sorted")
                if not np.isfinite(strength):
                    raise ValueError(f"non-finite strength for {subset} at order {order}")

    def top(self, order: int, k: int) -> tuple[tuple[tuple[int, ...], float], ...]:
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.orders.get(order, ())[:k]


def representative_samples(data: Dataset, labels: Sequence[str], seed: int) -> list[Representative]:
    """One dataset row per aggregate label: the row nearest (L2) to the
    per-feature aggregate vector, ties to the lowest index; ``random``
    draws a row uniformly.  Labels are processed in canonical order."""
    if data.n == 0:
        raise ValueError("cannot pick representatives from an empty dataset")
    for lab in labels:
        if lab not in REPRESENTATIVE_LABELS:
            raise ValueError(f"unknown representative {lab!r}; expected one of {REPRESENTATIVE_LABELS}")
    x = data.features
    rng = np.random.default_rng(seed)
    out = []
    for lab in REPRESENTATIVE_LABELS:
        if lab not in labels:
            continue
        if lab == "random":
            idx = int(rng.integers(data.n))
        else:
            if lab == "mode":
                agg = np.array([binned_mode(x[:, j]) for j in range(x.shape[1])])
            else:
                agg = getattr(np, lab)(x, axis=0)  # np.mean, np.median, np.min or np.max
            d = np.linalg.norm(x - agg, axis=1)
            idx = int(np.argmin(d))
        out.append(Representative(lab, idx, x[idx].copy()))
    return out


def _make_evaluator(model, task: str, class_index: int, use_logit: bool):
    """Check the model against the task and return scores(row, order,
    candidates), which scores every same-order candidate at a row in one
    ``forward_lattice`` pass, candidate b's tags on row b as unit
    directions.  A domain error, which a callable raises from the value
    slot that every candidate shares, drops all of them.  scores returns
    (values, dropped count) and warns of nothing, since it may run in a
    forked worker: the caller warns (``_warn_dropped``)."""
    if isinstance(model, Mlp):
        if task == "classification" and class_index >= model.config.output_dim:
            raise ValueError(
                f"class_index {class_index} out of range for output_dim {model.config.output_dim}"
            )
    elif not callable(model):
        raise TypeError(f"model must be an Mlp or a callable, got {type(model).__name__}")
    elif task == "classification":
        raise ValueError("a callable model returns one scalar; use task='regression'")
    column = class_index if task == "classification" else 0
    top_only = task == "regression" or use_logit

    def scores(row: np.ndarray, order: int, candidates: Sequence[tuple[int, ...]]):
        if not candidates:
            return {}, 0
        try:
            out = forward_lattice(
                model, np.asarray(candidates), order, value=row, bank=np.eye(row.size),
                top_only=top_only,
            )
            full = out[:, column] if top_only else softmax_lattice(out, order)[:, column, -1]
        except DomainError:
            return {}, len(candidates)
        return {cand: float(full[b]) for b, cand in enumerate(candidates)}, 0

    return scores


def _warn_dropped(dropped: int) -> None:
    warnings.warn(f"dropped {dropped} candidate(s) at one representative (domain error)")


def local_ies(
    model,
    sample: np.ndarray,
    order: int,
    candidates: Sequence[Sequence[int]],
    *,
    task: str = "regression",
    class_index: int = 0,
    use_logit: bool = False,
) -> dict[tuple[int, ...], float]:
    """Raw signed cross partials of the model output at one sample, for
    every candidate subset of the given order."""
    check_derivative_order(model, order)
    row = np.asarray(sample, dtype=np.float64)
    if isinstance(model, Mlp) and row.size != model.config.input_dim:
        raise ValueError(f"model expects {model.config.input_dim} features, sample has {row.size}")
    cands = []
    for c in candidates:
        c = tuple(sorted(c))
        if len(c) != order or len(set(c)) != order:
            raise ValueError(f"candidate {c} is not a distinct index set of size {order}")
        if any(not 0 <= i < row.size for i in c):
            raise ValueError(f"candidate {c} indexes outside the sample's {row.size} features")
        cands.append(c)
    values, dropped = _make_evaluator(model, task, class_index, use_logit)(row, order, cands)
    if dropped:
        _warn_dropped(dropped)
    return values


def _by_strength(items) -> list:
    """(subset, value) pairs, strongest |value| first, ties by subset."""
    return sorted(items, key=lambda kv: (-abs(kv[1]), kv[0]))


def _rep_profile(evaluator, rep: Representative, dim: int, cfg: DetectConfig):
    """Candidate schedule and raw scores for one representative: all
    subsets up to full_order, then single-element extensions of this
    representative's own top-k at each later order.  Also returns the
    candidate counts that domain errors dropped, in order."""
    raw: dict[int, dict[tuple[int, ...], float]] = {}
    parents: dict[int, tuple[tuple[int, ...], ...]] = {}
    dropped = []
    for order in range(2, cfg.max_order + 1):
        if order <= cfg.full_order:
            cands = [tuple(c) for c in combinations(range(dim), order)]
        else:
            top = tuple(s for s, _ in _by_strength(raw[order - 1].items())[: cfg.top_k])
            parents[order] = top
            cands = sorted(
                {tuple(sorted(set(p) | {j})) for p in top for j in range(dim) if j not in p}
            )
        raw[order], n = evaluator(rep.row, order, cands)
        if n:
            dropped.append(n)
    return raw, parents, dropped


def _aggregate(
    profiles: Mapping[str, dict[int, dict[tuple[int, ...], float]]],
    labels: Sequence[str],
    cfg: DetectConfig,
) -> dict[int, tuple[tuple[tuple[int, ...], float], ...]]:
    """Combine per-representative raw values into one strength per subset,
    aggregating only over the representatives that scored it; regression
    and squared_multiclass square each value first."""
    square = cfg.task == "regression" or cfg.squared_multiclass
    agg = {
        "mean": lambda v: float(np.mean(v)),
        "median": lambda v: float(np.median(v)),
        "min": min,
        "max": max,
        "mode": binned_mode,
    }[cfg.aggregation]
    orders = {}
    for order in range(2, cfg.max_order + 1):
        union = sorted({s for lab in labels for s in profiles[lab].get(order, {})})
        rows = []
        for s in union:
            raw = [profiles[lab][order][s] for lab in labels if s in profiles[lab].get(order, {})]
            vals = [v * v for v in raw] if square else raw
            rows.append((s, float(agg(vals))))
        orders[order] = tuple(_by_strength(rows))
    return orders


SHARE_MIN_CELLS = 1 << 20


def _lattice_cells(model, dim: int, cfg: DetectConfig) -> int:
    """An upper bound on the lattice cells one representative's profile
    pushes through the model: at each order t, candidates times 2^t times
    a width, the sum of an Mlp's layer widths or a callable's inputs.
    Beyond full_order a representative extends top_k subsets of t - 1
    variables by one of the other dim - t + 1."""
    if isinstance(model, Mlp):
        width = sum(model.config.hidden) + model.config.output_dim
    else:
        width = dim
    cells = 0
    for t in range(2, cfg.max_order + 1):
        n = comb(dim, t)
        if t > cfg.full_order:
            n = min(n, cfg.top_k * max(0, dim - t + 1))
        cells += n << t
    return cells * width


def _share_count(jobs: int, cells: int) -> int:
    """The number of processes to score ``jobs`` representatives on, with
    ``cells`` the estimated work of all of them (``_lattice_cells``): one
    per CPU in ``os.sched_getaffinity``, at most one per job and one per
    SHARE_MIN_CELLS, on Linux while no other thread runs (a fork copies
    the calling thread only) and outside a multiprocessing child (its
    pool already fills the CPUs, so a split would oversubscribe them);
    else 1."""
    if not sys.platform.startswith("linux") or threading.active_count() != 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return max(1, min(jobs, len(os.sched_getaffinity(0)), cells // SHARE_MIN_CELLS))


def _profiles(evaluator, reps: Sequence[Representative], dim: int, cfg: DetectConfig, w: int) -> list:
    """``_rep_profile`` of every representative, in their order, on w
    processes: representative i is in share i mod w, the caller scores
    share 0, and w - 1 workers, each forked by a bare ``os.fork`` with
    one pipe, score one other share each.  A worker's exception reaches
    the caller with its type and message (as a RuntimeError naming both
    if it does not survive a pickle round trip); a worker that ends
    without its share raises a RuntimeError.  No worker outlives the
    call.  A worker's warnings and log records stay in it, except the
    domain-error drop counts, which ``_rep_profile`` returns."""
    shares = [reps[i::w] for i in range(w)]
    workers = []
    try:
        for share in shares[1:]:
            # an interrupt raised before the worker is listed would orphan it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                fd_r, fd_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(fd_r)
                    _score_in_worker(fd_w, evaluator, share, dim, cfg)
                os.close(fd_w)
                workers.append((pid, os.fdopen(fd_r, "rb")))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done = [[_rep_profile(evaluator, rep, dim, cfg) for rep in shares[0]]]
        while workers:
            pid, pipe = workers[0]
            msg = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            pipe.close()
            if code or not msg:  # a negative code is the signal that ended it
                raise RuntimeError(f"a detect worker ended with code {code} before returning its share")
            ok, payload = pickle.loads(msg)
            if not ok:
                raise payload
            done.append(payload)
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(reps)
    for i, share in enumerate(done):
        results[i::w] = share
    return results


def _score_in_worker(fd: int, evaluator, share, dim: int, cfg: DetectConfig) -> None:
    """A forked worker's whole life: score ``share``, write (True,
    profiles) or (False, exception) to ``fd`` pickled, and exit, running
    none of the caller's cleanup."""
    status = 1
    try:
        try:
            msg = pickle.dumps((True, [_rep_profile(evaluator, r, dim, cfg) for r in share]))
        except BaseException as e:
            try:
                msg = pickle.dumps((False, e))
                pickle.loads(msg)
            except Exception:
                err = RuntimeError(f"{type(e).__name__}: {e} (the worker's exception did not pickle)")
                msg = pickle.dumps((False, err))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(msg)
        status = 0
    finally:
        os._exit(status)


def _profile_pass(model, data: Dataset, cfg: DetectConfig):
    """Score every configured representative once, on as many processes
    as ``_share_count`` gives for their estimated work (see ``_profiles``).
    Returns the representatives in canonical order, their raw values by
    order, and the top-k parents each one extended at orders beyond
    full_order.  Domain errors are warned of here, in representative
    order, whichever process met them."""
    check_derivative_order(model, cfg.max_order)
    if isinstance(model, Mlp):
        if model.config.input_dim != data.dim:
            raise ValueError(
                f"model expects {model.config.input_dim} features, data has {data.dim}"
            )
        if not data.normalized:
            raise ValueError("normalize the dataset before detecting on a trained model")
    evaluator = _make_evaluator(model, cfg.task, cfg.class_index, cfg.use_logit)
    reps = representative_samples(data, cfg.representatives, cfg.seed)
    w = _share_count(len(reps), len(reps) * _lattice_cells(model, data.dim, cfg))
    results = _profiles(evaluator, reps, data.dim, cfg, w)
    for _, _, dropped in results:
        for n in dropped:
            _warn_dropped(n)
    profiles = {rep.label: raw for rep, (raw, _, _) in zip(reps, results)}
    parents = {rep.label: pts for rep, (_, pts, _) in zip(reps, results)}
    return reps, profiles, parents


def _ranking(reps, profiles, parents, cfg: DetectConfig) -> InteractionRanking:
    """Aggregate the profiles of cfg's representatives into a ranking."""
    active = tuple(r for r in reps if r.label in cfg.representatives)
    labels = [r.label for r in active]
    top_parents: dict[int, dict[str, tuple[tuple[int, ...], ...]]] = {}
    for lab in labels:
        for order, pts in parents[lab].items():
            top_parents.setdefault(order, {})[lab] = pts
    return InteractionRanking(
        orders=_aggregate(profiles, labels, cfg),
        representatives=active,
        per_representative={lab: profiles[lab] for lab in labels},
        top_parents=top_parents,
        config=cfg,
    )


def detect(model, data: Dataset, cfg: DetectConfig) -> InteractionRanking:
    """Rank variable subsets of every order 2..max_order by aggregated
    cross-partial strength at the configured representatives."""
    return _ranking(*_profile_pass(model, data, cfg), cfg)


def verify_extension_schedule(ranking: InteractionRanking) -> int:
    """Check that every subset reported beyond full_order contains a
    top-k parent of some representative.  Returns the number of subsets
    checked; raises if the lineage is broken anywhere."""
    cfg = ranking.config
    checked = 0
    for order, rows in ranking.orders.items():
        if order <= cfg.full_order:
            continue
        by_label = ranking.top_parents.get(order, {})
        for subset, _ in rows:
            s = set(subset)
            if not any(set(p) < s for parents in by_label.values() for p in parents):
                raise ValueError(
                    f"order-{order} subset {subset} contains no top-{cfg.top_k} parent"
                )
            checked += 1
    return checked


@dataclass(frozen=True)
class SweepRow:
    label: str
    representatives: tuple[str, ...]
    aggregation: str
    score: float


def aggregation_sweep(
    model,
    data: Dataset,
    cfg: DetectConfig,
    score_fn: Callable[[InteractionRanking], float],
) -> list[SweepRow]:
    """Score every non-empty representative subset crossed with every
    aggregation: (2^6 - 1) * 5 = 315 rows, sorted by descending score.

    Each representative's candidate schedule depends only on its own
    local values, so all six profiles are computed once, by detect's
    profile pass, and the 315 combinations just re-aggregate them.
    """
    base = replace(cfg, representatives=REPRESENTATIVE_LABELS)
    reps, profiles, parents = _profile_pass(model, data, base)
    rows = []
    for mask in range(1, 1 << len(REPRESENTATIVE_LABELS)):
        labels = tuple(
            lab for i, lab in enumerate(REPRESENTATIVE_LABELS) if mask & (1 << i)
        )
        for agg in AGGREGATION_LABELS:
            combo = replace(base, representatives=labels, aggregation=agg)
            ranking = _ranking(reps, profiles, parents, combo)
            name = f"{agg.capitalize()} Of {'-'.join(_REP_DISPLAY[l] for l in labels)}"
            rows.append(SweepRow(name, labels, agg, float(score_fn(ranking))))
    rows.sort(key=lambda r: (-r.score, r.label))
    return rows


def ranking_document(ranking: InteractionRanking) -> dict:
    """JSON-ready view of a ranking: config echo, per-order subset lists,
    and the representatives that produced them."""
    return {
        "config": asdict(ranking.config),
        "orders": {
            str(order): [{"set": list(s), "strength": v} for s, v in rows]
            for order, rows in sorted(ranking.orders.items())
        },
        "representatives": [
            {"label": r.label, "row_index": r.row_index} for r in ranking.representatives
        ],
    }
