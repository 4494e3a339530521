"""The workloads: fixed inputs from a seed, one operation, its checks.

Each workload class has ``setup(seed)`` building the fixed inputs,
``prepare(i)`` drawing operation i's own inputs (untimed), ``run(inp)``
the timed operation, and ``check(inp, out)``, which raises CheckFailed.
xdiff is called through module attributes looked up at call time, so
that a Tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import shutil
from contextlib import nullcontext
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.special import expit

import checks
from checks import require

cli = importlib.import_module("xdiff.cli")
bm = importlib.import_module("xdiff.benchmarks")
detect_mod = importlib.import_module("xdiff.detect")
mlp = importlib.import_module("xdiff.mlp")
salience = importlib.import_module("xdiff.salience")

# cli-pipeline trains for a fixed number of epochs (patience = epochs, so
# the best epoch is still the one kept): with the default patience the
# stopping epoch ran from 25 to 60 over seeds 0-7, which spreads the
# operation's time by a third from one seed to the next.
PIPELINE_EPOCHS = 30
# detect-deep trains its model in set-up for a fixed 15 epochs.
DEEP_EPOCHS = 15
DEEP_ORDER = 7
# taylor-cam trains a cam-demo shaped model: 9 vectors of dimension 4.
CAM_N, CAM_D, CAM_GRIDS, CAM_HIDDEN, CAM_EPOCHS = 9, 4, 2000, (64, 32), 20
CAM_ORDERS = (2, 3, 4)

# Pass marks for the truth AUCs, set well below the lowest values seen
# and well above the 0.5 of a detector that ranks at random, since a
# seed that misses a mark fails every operation of its runs.  Pairs in
# cli-pipeline: 0.952 at the lowest over seeds 0-15.  detect-deep takes
# the mean over orders 2-4: order 4 has one true subset among ~100, so
# its AUC alone swings (0.71 and 0.73 on seeds 10 and 17, else >= 0.93);
# the mean was 0.895 at the lowest over seeds 0-29.
PIPELINE_MIN_PAIR_AUC = 0.85
DEEP_MIN_MEAN_AUC = 0.8


class Workload:
    def __init__(self, out_root: Path, tracer=None):
        self.out_root = out_root
        self.tracer = tracer

    def prepare(self, i: int):
        return None


class CliPipeline(Workload):
    """gen-data, train and detect through xdiff.cli.main, in-process."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.out_root.mkdir(parents=True, exist_ok=True)

    def prepare(self, i: int) -> Path:
        out = self.out_root / f"op{i}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _main(self, sub: str, argv: list[str], out: Path) -> tuple[int, dict]:
        span = self.tracer.span(f"cli.{sub}") if self.tracer else nullcontext({})
        with span as counters:
            rc = cli.main([sub, *argv, "--seed", str(self.seed), "--out-dir", str(out)])
            doc = json.loads((out / "run.json").read_text())
            counters["cli.bytes_written"] = sum(
                (out / name).stat().st_size for name in [*doc["artifacts"], "run.json"])
        return rc, doc

    def run(self, out: Path):
        data = str(out / "f8_data.csv")
        model = str(out / "model.json")
        calls = [
            self._main("gen-data", ["--function", "F8", "--samples", "10000"], out),
            self._main("train", ["--data", data, "--epochs", str(PIPELINE_EPOCHS),
                                 "--patience", str(PIPELINE_EPOCHS)], out),
            self._main("detect", ["--model", model, "--data", data], out),
        ]
        return calls

    def check(self, out: Path, calls) -> None:
        try:
            for rc, doc in calls:
                require(rc == 0, f"{doc.get('subcommand')} exited {rc}")
                checks.check_run_doc(doc, out)
            ranking = json.loads((out / "detect.json").read_text())
            checks.check_ranking_doc(ranking, dim=10, max_order=5, full_order=2)
            pairs = {tuple(r["set"]): r["strength"] for r in ranking["orders"]["2"]}
            value = checks.pairwise_auc(pairs, checks.truth_subsets(checks.F8_GROUPS, 2))
            require(value >= PIPELINE_MIN_PAIR_AUC, f"pairwise AUC {value:.4f} on F8")
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _train_f8(seed: int, epochs: int):
    data = mlp.normalize(bm.sample_dataset("F8", 10000, seed))
    model, _ = mlp.train(data, mlp.MlpConfig(input_dim=10, seed=seed),
                         mlp.TrainConfig(max_epochs=epochs, patience=epochs, seed=seed))
    return data, model


class DetectDeep(Workload):
    """detect at max order 7 on a model trained in set-up."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.data, self.model = _train_f8(seed, DEEP_EPOCHS)
        self.cfg = detect_mod.DetectConfig(max_order=DEEP_ORDER, seed=seed)
        self.perm = np.random.default_rng([seed, 1]).permutation(10)

    def run(self, _inp):
        return detect_mod.detect(self.model, self.data, self.cfg)

    def check(self, _inp, ranking) -> None:
        rep = ranking.representatives[0]
        profile = ranking.per_representative[rep.label]

        def plain(rows):
            return mlp.forward(self.model, rows)[:, 0]

        # orders 2-3: exact partials against nested central differences
        checks.check_partials_fd(profile[2], plain, rep.row, h=1e-3, rel=1e-3, abs_=1e-5)
        checks.check_partials_fd(profile[3], plain, rep.row, h=1e-2, rel=5e-3, abs_=5e-5)

        # every order: the same partials with the inputs relabelled, so
        # each variable rides in another tag slot
        inv = np.argsort(self.perm)  # new column c holds old variable perm[c]
        w = [self.model.weights[0][:, self.perm], *self.model.weights[1:]]
        permuted = mlp.Mlp(w, list(self.model.biases), self.model.config)
        for order in range(2, self.cfg.max_order + 1):
            top = [s for s, _ in sorted(profile[order].items(), key=lambda kv: -abs(kv[1]))[:6]]
            mapped = [tuple(sorted(int(inv[v]) for v in s)) for s in top]
            got = detect_mod.local_ies(permuted, rep.row[self.perm], order, mapped)
            back = {s: got[m] for s, m in zip(top, mapped)}
            scale = max(abs(v) for v in profile[order].values())
            checks.check_relabelled({s: profile[order][s] for s in top}, back, scale)

        # F8 truth AUC at orders 2-4, computed here
        aucs = [checks.truth_auc(ranking.orders[m], checks.F8_GROUPS, m) for m in (2, 3, 4)]
        require(None not in aucs and sum(aucs) / 3 >= DEEP_MIN_MEAN_AUC,
                f"F8 truth AUCs at orders 2-4 are {aucs}")


class TaylorCam(Workload):
    """Order 2, 3 and 4 salience tensors of a planted-pair grid model."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        a, b = sorted(int(v) for v in rng.choice(CAM_N, size=2, replace=False))
        d = CAM_D
        x = rng.uniform(-1.0, 1.0, size=(CAM_GRIDS, CAM_N * d))
        dots = np.sum(x[:, a * d:(a + 1) * d] * x[:, b * d:(b + 1) * d], axis=1)
        data = mlp.normalize(mlp.Dataset(x, expit(dots)[:, None]))
        self.std = data.feature_std.reshape(CAM_N, d)
        self.model, _ = mlp.train(
            data, mlp.MlpConfig(input_dim=CAM_N * d, hidden=CAM_HIDDEN, seed=seed),
            mlp.TrainConfig(max_epochs=CAM_EPOCHS, patience=CAM_EPOCHS, seed=seed))

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, 2, i])
        x = rng.uniform(-1.0, 1.0, size=(CAM_N, CAM_D)) / self.std
        return salience.FeatureGrid(x, (3, 3))

    def run(self, grid):
        tensors = {m: salience.taylor_cam(self.model, grid, m) for m in CAM_ORDERS}
        tops = {m: salience.top_interactions(t, 5) for m, t in tensors.items()}
        return tensors, tops

    def check(self, grid, out) -> None:
        tensors, tops = out
        model, n, d, h = self.model, CAM_N, CAM_D, 1e-4
        raw_opts = salience.CamOptions(square=False, symmetrize=False)

        def plain(x):
            return float(mlp.forward(model, x.reshape(-1))[0])

        # order 1 is grad_cam, and grad_cam is x_i times the gradient
        order1 = salience.taylor_cam(model, grid, 1).values
        for i in range(n):
            g = salience.grad_cam(model, grid, i)
            require(order1[i] == g, f"order-1 cell {i} is {order1[i]!r}, grad_cam {g!r}")
            fd = 0.0
            for m in range(d):
                up, dn = grid.x.copy(), grid.x.copy()
                up[i, m] += h
                dn[i, m] -= h
                fd += grid.x[i, m] * (plain(up) - plain(dn)) / (2 * h)
            require(checks.close(g, fd, 1e-4, 1e-9), f"grad_cam {i} is {g!r}, differences {fd!r}")

        def bumped(j: int, m: int, step: float):
            x = grid.x.copy()
            x[j, m] += step
            return salience.FeatureGrid(x)

        # order 2: each directed cell differentiates grad_cam along vector j
        raw2 = {}
        for j in range(n):
            for m in range(d):
                up = [salience.grad_cam(model, bumped(j, m, h), i) for i in range(n)]
                dn = [salience.grad_cam(model, bumped(j, m, -h), i) for i in range(n)]
                for i in range(n):
                    if i != j:
                        raw2[i, j] = raw2.get((i, j), 0.0) + (up[i] - dn[i]) / (2 * h)
        t2 = tensors[2].values
        for i in range(n):
            for j in range(i + 1, n):
                want = checks.fold_squared(raw2, (i, j))
                require(checks.close(t2[i, j], want, 2e-3, 1e-10),
                        f"order-2 cell {(i, j)} is {t2[i, j]!r}, differences give {want!r}")
                require(t2[i, j] == t2[j, i], f"order-2 cells {(i, j)} differ by symmetry")

        # order 3: directed cells differentiate order-2 ones along a third vector
        top3 = tops[3][0][0]
        for comb in (top3, (0, 4, 8)):
            raw3 = {}
            for k in comb:
                for m in range(d):
                    up = salience.taylor_cam(model, bumped(k, m, h), 2, raw_opts).values
                    dn = salience.taylor_cam(model, bumped(k, m, -h), 2, raw_opts).values
                    for i, j in permutations([v for v in comb if v != k]):
                        raw3[i, j, k] = raw3.get((i, j, k), 0.0) + (up[i, j] - dn[i, j]) / (2 * h)
            want = checks.fold_squared(raw3, comb)
            got = tensors[3].values[comb]
            require(checks.close(got, want, 2e-3, 1e-12),
                    f"order-3 cell {comb} is {got!r}, differences give {want!r}")

        for m in (3, 4):
            checks.check_folded_tensor(tensors[m].values, m)
        for m in CAM_ORDERS:
            checks.check_top_list(tops[m], tensors[m].values, 5)


WORKLOADS = {
    "cli-pipeline": CliPipeline,
    "detect-deep": DetectDeep,
    "taylor-cam": TaylorCam,
}
