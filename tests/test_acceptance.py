"""Desk-scale acceptance gates for the whole pipeline.

These are the slow, end-to-end checks: exact derivatives against
finite differences and closed forms, the three-trial pairwise AUC
benchmark, higher-order discovery on the two benchmarks with known
deep interactions, the salience identities, the planted-pair CLI
experiment, and byte determinism of every subcommand.  Expect the
file to take on the order of ten minutes of CPU.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from xdiff import benchmarks as bm
from xdiff.autodiff import DomainError, cross_partial
from xdiff.detect import (
    DetectConfig,
    aggregation_sweep,
    verify_extension_schedule,
)
from xdiff.evaluate import default_pipeline, mean_truth_auc, pairwise_suite
from xdiff.mlp import Dataset, MlpConfig, TrainConfig, forward, init_mlp, save_csv
from xdiff.parallel import fork_map
from xdiff.salience import (
    CamOptions,
    FeatureGrid,
    grad_cam,
    hessian_cam,
    taylor_cam,
)

from finite_difference import fd_oracle

RAW = CamOptions(square=False, symmetrize=False, zero_diagonal=False)


# --- shared expensive runs

@pytest.fixture(scope="session")
def pairwise_runs():
    """The three-trial, 10k-sample benchmark over F1-F10 at default
    configuration, keeping every ranking for the structural checks.  The
    30 pipelines run through fork_map, and pairwise_suite reads their
    rankings back: a pipeline's writes would stay in its worker."""
    t0 = time.monotonic()
    jobs = [(fid, seed) for fid in bm.FUNCTION_IDS for seed in range(3)]
    captured = dict(zip(jobs, fork_map(lambda job: default_pipeline(*job), jobs)))
    report = pairwise_suite(trials=3, samples=10000, seed=0,
                            pipeline=lambda fid, seed: captured[fid, seed])
    return report, captured, time.monotonic() - t0


@pytest.fixture(scope="session")
def higher_order_rankings():
    """Deep-interaction runs on F8 and F6.

    The pairwise defaults overfit here: F6's absolute-value and
    rectified terms put derivative creases through the middle of the
    data, and a large net trained to a sharp fit turns those creases
    into huge spurious third derivatives right where the mean
    representative sits.  A compacter net fits the creases smoothly,
    longer patience lets the genuinely interacting square-root term be
    learned well, and the median across representatives discards spikes
    that exist at only one of them.
    """
    mlp = MlpConfig(input_dim=10, hidden=(64, 48, 32))
    tr = TrainConfig(max_epochs=400, patience=40)
    jobs = [(fid, seed) for fid in ("F8", "F6") for seed in (0, 1, 2)]

    def run(job):
        cfg = DetectConfig(max_order={"F8": 4, "F6": 3}[job[0]], aggregation="median")
        return default_pipeline(*job, mlp_config=mlp, train_config=tr, detect_config=cfg)

    return dict(zip(jobs, fork_map(run, jobs)))


def _top_sets(ranking, order, k=10):
    return [s for s, _ in ranking.orders[order][:k]]


# --- exact derivatives

def test_cross_partials_match_finite_differences_suite_wide():
    """Every benchmark, 20 points, 10 pairs and 5 triples each: the
    lattice derivative agrees with an independent nested central
    difference.  Stencil legs that step outside a function's domain
    skip that combination; the count check keeps the skips honest."""
    t0 = time.monotonic()
    for fid in bm.FUNCTION_IDS:
        rng = np.random.default_rng(1000 + int(fid[1:]))
        rows = bm.sample_dataset(fid, 200, seed=77).features
        points = rows[rng.choice(len(rows), size=20, replace=False)]
        pairs = [tuple(sorted(rng.choice(10, size=2, replace=False))) for _ in range(10)]
        triples = [tuple(sorted(rng.choice(10, size=3, replace=False))) for _ in range(5)]
        fn = bm.get_function(fid).fn

        def plain(x, fid=fid):
            return bm.eval_function(fid, list(x))

        checked = skipped = 0
        for x in points:
            for subset, h, rtol, floor in (
                [(s, 1e-4, 1e-3, 1e-3) for s in pairs]
                + [(s, 1e-2, 1e-2, 1e-2) for s in triples]
            ):
                try:
                    fd = fd_oracle(plain, x, subset, h=h)
                except DomainError:
                    skipped += 1
                    continue
                got = cross_partial(fn, x, subset)
                assert abs(got - fd) <= max(floor, rtol * abs(fd)), (fid, subset)
                checked += 1
        assert checked >= 0.9 * (checked + skipped), fid
    assert time.monotonic() - t0 < 60.0


def test_closed_form_triple_partials():
    # only one term of F8 touches all of x3, x5, x6 (1-based), so the
    # full mixed partial reduces to the base-2 exponential's closed form
    ln2 = math.log(2.0)
    f8 = bm.get_function("F8").fn
    for x in bm.sample_dataset("F8", 10, seed=5).features:
        got = cross_partial(f8, x, (2, 4, 5))
        want = ln2**3 * 2.0 ** (x[2] + x[4] + x[5])
        assert got == pytest.approx(want, rel=1e-9)

    # the x8*x9*x10 product is F5's only term over those variables and
    # differentiates to exactly 1
    f5 = bm.get_function("F5").fn
    for x in bm.sample_dataset("F5", 10, seed=5).features:
        assert abs(cross_partial(f5, x, (7, 8, 9)) - 1.0) <= 1e-12


# --- benchmark quality gates

def test_pairwise_benchmark_auc(pairwise_runs):
    report, _, elapsed = pairwise_runs
    assert report.trials == 3
    assert set(report.per_function) == set(bm.FUNCTION_IDS)
    assert report.overall_mean() >= 0.90
    for fid in ("F8", "F10"):
        strong = sum(a >= 0.95 for a in report.per_function[fid])
        assert strong >= 2, (fid, report.per_function[fid])
    assert elapsed < 1500.0


def test_higher_order_discovery(higher_order_rankings):
    # targets are 0-indexed: x4*x5*x6 and the {x4,x5,x6,x8} group of F8,
    # the square-root group {x8,x9,x10} of F6, all 1-based in their
    # canonical descriptions
    for fid, order, target in (
        ("F8", 3, (2, 4, 5)),
        ("F8", 4, (2, 3, 4, 6)),
        ("F6", 3, (7, 8, 9)),
    ):
        hits = sum(
            target in _top_sets(higher_order_rankings[fid, seed], order)
            for seed in (0, 1, 2)
        )
        assert hits >= 2, (fid, order, target, hits)


def test_every_reported_subset_extends_a_top_parent(pairwise_runs):
    _, captured, _ = pairwise_runs
    assert len(captured) == 30
    for ranking in captured.values():
        # default config carries orders 3..5, so the lineage check has
        # real work to do on every run
        assert verify_extension_schedule(ranking) > 0


# --- salience identities

def test_bilinear_salience_identity():
    def bilinear(rows):
        return sum(a * b for a, b in zip(rows[0], rows[1]))

    opts = CamOptions(square=True, symmetrize=False)
    rng = np.random.default_rng(606)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        x = rng.uniform(-2.0, 2.0, size=(2, d))
        tensor = hessian_cam(bilinear, FeatureGrid(x), opts)
        want = float(x[0].sum()) ** 2
        assert abs(tensor.values[0, 1] - want) <= 1e-12 * max(1.0, abs(want))


def test_additive_model_has_zero_cross_salience():
    def additive(rows):
        return sum(sum(row) ** 2 for row in rows)

    rng = np.random.default_rng(607)
    x = rng.uniform(-1.5, 1.5, size=(4, 3))
    tensor = hessian_cam(additive, FeatureGrid(x), RAW)
    off = tensor.values[~np.eye(4, dtype=bool)]
    assert (off == 0.0).all()


def test_salience_order_reductions_are_bit_exact():
    rng = np.random.default_rng(707)
    for draw in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        width = int(rng.integers(4, 10))
        model = init_mlp(MlpConfig(input_dim=n * d, hidden=(width,), seed=draw))
        grid = FeatureGrid(rng.uniform(-1.0, 1.0, size=(n, d)))
        opts = CamOptions() if draw % 2 else RAW
        order1 = taylor_cam(model, grid, 1, opts)
        for i in range(n):
            assert order1.values[i] == grad_cam(model, grid, i, opts)
        order2 = taylor_cam(model, grid, 2, opts)
        direct = hessian_cam(model, grid, opts)
        np.testing.assert_array_equal(order2.values, direct.values)


def test_salience_matches_finite_differences():
    model = init_mlp(MlpConfig(input_dim=6, hidden=(8, 5), seed=17))
    rng = np.random.default_rng(18)
    grid = FeatureGrid(rng.uniform(-1.0, 1.0, size=(3, 2)))
    h = 1e-4

    def forward_scalar(x):
        return float(forward(model, np.asarray(x, dtype=np.float64))[0])

    # first order: salience is the input-weighted gradient of the output
    order1 = taylor_cam(model, grid, 1, RAW)
    for i in range(3):
        fd = 0.0
        for m in range(2):
            bumped = grid.x.copy()
            bumped[i, m] += h
            up = forward_scalar(bumped.reshape(-1))
            bumped[i, m] -= 2 * h
            dn = forward_scalar(bumped.reshape(-1))
            fd += grid.x[i, m] * (up - dn) / (2 * h)
        assert order1.values[i] == pytest.approx(fd, rel=1e-3, abs=1e-8)

    # second order: differentiating the first-order salience numerically
    # reproduces the directed pair salience
    order2 = hessian_cam(model, grid, RAW)
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
            assert order2.values[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-8)


# --- planted-pair CLI experiment

def test_planted_pair_recovery_cli(tmp_path, xdiff_cli):
    t0 = time.monotonic()
    proc = xdiff_cli("cam-demo", "--seeds", "20", "--out-dir", str(tmp_path))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "cam_demo.json").read_text())
    assert doc["seeds"] == 20
    assert doc["hits"] >= 16, [t for t in doc["trials"] if not t["hit"]]
    assert elapsed < 300.0


# --- sweep mechanics

def test_sweep_emits_all_aggregation_rows():
    raw = bm.sample_dataset("F9", 200, seed=0)
    data = Dataset(raw.features, raw.targets)
    truth = bm.ground_truth("F9")

    def fn(z):
        return bm.eval_function("F9", list(z))

    rows = aggregation_sweep(
        fn,
        data,
        DetectConfig(max_order=3, top_k=4),
        lambda r: mean_truth_auc(r, truth),
    )
    labels = [r.label for r in rows]
    assert len(rows) == 315
    assert len(set(labels)) == 315
    assert "Mean Of Mean-Min-Mode-Rand" in labels


# --- CLI determinism

def _run_cli(xdiff_cli, argv, out_dir):
    proc = xdiff_cli(*argv, "--out-dir", str(out_dir))
    assert proc.returncode == 0, (argv, proc.stderr)


def _tree_bytes(root):
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_cli_byte_determinism(tmp_path, xdiff_cli):
    """Each subcommand runs three times (twice serial, once with four
    threads) and must produce identical bytes for every artifact,
    run.json included."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(160, 4))
    y = (x[:, 0] * x[:, 1] + 0.5 * x[:, 3])[:, None]
    toy = tmp_path / "toy.csv"
    save_csv(Dataset(x, y), toy)
    grid = tmp_path / "grid.csv"
    grid.write_text("0.3,-0.4\n0.8,0.1\n")

    train_argv = ["train", "--data", str(toy), "--hidden", "8",
                  "--epochs", "4", "--patience", "3", "--seed", "0"]
    _run_cli(xdiff_cli, train_argv, tmp_path / "train_seedrun")
    model = tmp_path / "train_seedrun" / "model.json"

    commands = {
        "gen-data": ["gen-data", "--function", "F4", "--samples", "100", "--seed", "1"],
        "train": train_argv,
        "detect": ["detect", "--model", str(model), "--data", str(toy),
                   "--max-order", "3", "--top-k", "3", "--seed", "0"],
        "sweep": ["sweep", "--function", "F9", "--analytic", "--samples", "120",
                  "--max-order", "3", "--top-k", "3", "--seed", "0"],
        "suite": ["suite", "--functions", "F9", "--trials", "1",
                  "--samples", "250", "--seed", "0"],
        "cam": ["cam", "--model", str(model), "--grid", str(grid),
                "--svg", "heat.svg", "--seed", "0"],
        "cam-demo": ["cam-demo", "--seeds", "1", "--grids", "100", "--epochs", "3",
                     "--patience", "2", "--test-grids", "1", "--hidden", "8",
                     "--seed", "3"],
    }
    for name, argv in commands.items():
        trees = []
        for variant, extra in (("a", []), ("b", []), ("t4", ["--threads", "4"])):
            d = tmp_path / f"{name}_{variant}"
            _run_cli(xdiff_cli, argv + extra, d)
            trees.append(_tree_bytes(d))
        assert trees[0] == trees[1], name
        assert trees[0] == trees[2], name
