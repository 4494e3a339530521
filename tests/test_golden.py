"""Golden digests: the sha256 of every file the CLI writes, and of trained
weights and losses, on small configs, against ``golden.json`` beside
this file.

The cases are the commands of ``test_cli_byte_determinism``, ``detect
--max-order 7``, ``cam`` at orders 1-4 and with each fold option,
``sweep --analytic`` and ``gen-data`` for F1-F10, and ``train`` in four
configurations: Adam, SGD, ReLU with batch 64, and a 3-class softmax
whose last batch is short, each run to its epoch limit and each again
with a patience that stops it (ReLU's on its last epoch).  They run in
this process, within about 10 s.

The digests hold only where they were recorded.  The matrix products
sum in an order that depends on the BLAS library, its version, its
kernel family and its thread count, and numpy's elementwise loops depend
on its version and on the SIMD features it dispatches to.  ``golden.json``
records that environment; anywhere else the test skips and says why.

After an intended byte change, regenerate the file from the root of the
checkout; the command prints an old -> new table of every digest that
moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import xdiff
from xdiff import benchmarks as bm
from xdiff import cli
from xdiff.mlp import (
    Dataset,
    MlpConfig,
    TrainConfig,
    init_mlp,
    normalize,
    save_csv,
    save_model,
    train,
)

GOLDEN = Path(__file__).with_name("golden.json")


def environment() -> dict:
    """What the digests depend on besides the code."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    simd = cfg["SIMD Extensions"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": xdiff.blas.core(),
        "blas_threads": xdiff.blas.threads(),
        "simd": {k: sorted(simd.get(k, [])) for k in ("baseline", "found")},
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Cases:
    """Runs every case in one work directory, each CLI command into its
    own out-dir, with relative paths so run.json holds no temp path."""

    def __init__(self, root: Path):
        self.root = root
        self.digests: dict[str, dict[str, str]] = {}

    def cli(self, case: str, *argv: str) -> None:
        out = self.root / case
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            code = cli.main([*argv, "--out-dir", case])
        finally:
            os.chdir(cwd)
        assert code == 0, (case, argv, (out / "run.json").read_text())
        self.digests[case] = {
            p.relative_to(out).as_posix(): _digest(p.read_bytes())
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    def train(self, case: str, data: Dataset, mcfg: MlpConfig, tcfg: TrainConfig) -> None:
        model, report = train(data, mcfg, tcfg)
        arrays = {
            "weights": np.concatenate([w.ravel() for w in model.weights]),
            "biases": np.concatenate(model.biases),
            "train_losses": np.asarray(report.train_losses),
            "val_losses": np.asarray(report.val_losses),
        }
        self.digests[case] = {k: _digest(v.tobytes()) for k, v in arrays.items()}
        self.digests[case]["epochs"] = f"best {report.best_epoch}, stopped {report.stopped_epoch}"


def _write_inputs(root: Path) -> None:
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(160, 4))
    save_csv(Dataset(x, (x[:, 0] * x[:, 1] + 0.5 * x[:, 3])[:, None]), root / "toy.csv")
    (root / "grid.csv").write_text("0.3,-0.4\n0.8,0.1\n")
    # a fixed 9x4 grid model: initialized, not trained, so the cam cases
    # read the lattice alone
    save_model(init_mlp(MlpConfig(input_dim=36, hidden=(16, 8), seed=2)), root / "grid_model.json")
    grid = np.random.default_rng(1).uniform(-1.0, 1.0, size=(9, 4))
    (root / "grid9x4.csv").write_text("".join(",".join(map(repr, r)) + "\n" for r in grid.tolist()))


def _classification_data() -> Dataset:
    # 200 rows: 40 validate, 160 train, so batches of 37 end in one of 12
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, size=(200, 5))
    labels = np.argmax(x[:, :3] + 0.5 * x[:, 3:4] * x[:, 4:5], axis=1)
    return normalize(Dataset(x, np.eye(3)[labels]))


def compute_digests(root: Path) -> dict[str, dict[str, str]]:
    _write_inputs(root)
    run = _Cases(root)
    # the commands of test_cli_byte_determinism
    toy_train = ("train", "--data", "toy.csv", "--hidden", "8",
                 "--epochs", "4", "--patience", "3", "--seed", "0")
    run.cli("train", *toy_train)
    run.cli("gen-data", "gen-data", "--function", "F4", "--samples", "100", "--seed", "1")
    run.cli("detect", "detect", "--model", "train/model.json", "--data", "toy.csv",
            "--max-order", "3", "--top-k", "3", "--seed", "0")
    run.cli("sweep", "sweep", "--function", "F9", "--analytic", "--samples", "120",
            "--max-order", "3", "--top-k", "3", "--seed", "0")
    run.cli("suite", "suite", "--functions", "F9", "--trials", "1",
            "--samples", "250", "--seed", "0")
    run.cli("cam", "cam", "--model", "train/model.json", "--grid", "grid.csv",
            "--svg", "heat.svg", "--seed", "0")
    run.cli("cam-demo", "cam-demo", "--seeds", "1", "--grids", "100", "--epochs", "3",
            "--patience", "2", "--test-grids", "1", "--hidden", "8", "--seed", "3")
    # every benchmark function, sampled and swept analytically
    for fid in bm.FUNCTION_IDS:
        run.cli(f"gen-data-{fid}", "gen-data", "--function", fid, "--samples", "200",
                "--seed", "2")
        run.cli(f"sweep-{fid}", "sweep", "--function", fid, "--analytic", "--samples", "60",
                "--max-order", "3", "--top-k", "3", "--seed", "2")
    # the widest lattice detect builds, on a model of F8
    run.cli("train-F8", "train", "--data", "gen-data-F8/f8_data.csv", "--hidden", "16,8",
            "--epochs", "3", "--patience", "3", "--seed", "2")
    run.cli("detect-o7", "detect", "--model", "train-F8/model.json",
            "--data", "gen-data-F8/f8_data.csv", "--max-order", "7", "--top-k", "4",
            "--seed", "2")
    for order in (2, 3, 4):
        run.cli(f"cam-o{order}", "cam", "--model", "grid_model.json", "--grid", "grid9x4.csv",
                "--order", str(order), "--seed", "0")
    # order 1 and the fold options beyond the defaults
    for case, *flags in (
        ("cam-o1", "--order", "1"),
        ("cam-o1-rectify", "--order", "1", "--rectify"),
        ("cam-o3-no-square", "--order", "3", "--no-square"),
        ("cam-o3-sum-before-square", "--order", "3", "--sum-before-square"),
        ("cam-o4-diagonal-directed", "--order", "4", "--no-zero-diagonal", "--no-symmetrize"),
    ):
        run.cli(case, "cam", "--model", "grid_model.json", "--grid", "grid9x4.csv",
                *flags, "--seed", "0")
    # train in process: weights, biases and every epoch's losses
    f8 = normalize(bm.sample_dataset("F8", 400, seed=3))
    small = MlpConfig(input_dim=10, hidden=(16, 8), seed=3)
    run.train("train-adam", f8, small, TrainConfig(max_epochs=4, patience=4, seed=3))
    run.train("train-sgd", f8, small,
              TrainConfig(learning_rate=0.01, max_epochs=4, patience=4, optimizer="sgd", seed=3))
    run.train("train-relu-b64", f8, MlpConfig(input_dim=10, hidden=(16, 8), activation="relu", seed=3),
              TrainConfig(max_epochs=4, patience=4, batch_size=64, seed=3))
    run.train("train-softmax-b37", _classification_data(),
              MlpConfig(input_dim=5, hidden=(12,), output_dim=3, seed=3),
              TrainConfig(max_epochs=4, patience=4, batch_size=37, seed=3))
    # the same four, stopped early by patience 2
    run.train("train-adam-stop", f8, small,
              TrainConfig(learning_rate=0.01, max_epochs=12, patience=2, seed=3))
    run.train("train-sgd-stop", f8, small,
              TrainConfig(learning_rate=0.3, max_epochs=12, patience=2, optimizer="sgd", seed=3))
    run.train("train-relu-b64-stop", f8,
              MlpConfig(input_dim=10, hidden=(16, 8), activation="relu", seed=3),
              TrainConfig(learning_rate=0.03, max_epochs=12, patience=2, batch_size=64, seed=3))
    run.train("train-softmax-b37-stop", _classification_data(),
              MlpConfig(input_dim=5, hidden=(12,), output_dim=3, seed=3),
              TrainConfig(learning_rate=0.03, max_epochs=30, patience=2, batch_size=37, seed=3))
    return run.digests


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def _case_names() -> list[str]:
    return sorted(_load()["digests"])


@pytest.fixture(scope="module")
def recorded():
    doc = _load()
    here = environment()
    if doc["environment"] != here:
        moved = sorted(k for k in here if doc["environment"].get(k) != here[k])
        pytest.skip(
            "the golden digests were recorded in another environment, so they cannot "
            f"judge this one (differs in {', '.join(moved)}: recorded "
            f"{[doc['environment'].get(k) for k in moved]}, here {[here[k] for k in moved]})"
        )
    return doc["digests"]


@pytest.fixture(scope="module")
def computed(recorded, tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


def test_golden_cases_are_the_computed_cases(recorded, computed):
    assert sorted(computed) == sorted(recorded)


@pytest.mark.parametrize("case", _case_names())
def test_golden_digest(case, recorded, computed):
    moved = {
        name: (recorded[case].get(name), computed[case].get(name))
        for name in sorted(set(recorded[case]) | set(computed[case]))
        if recorded[case].get(name) != computed[case].get(name)
    }
    assert not moved, f"{case}: (recorded, computed) digests {moved}"


def regenerate() -> None:
    """Recompute every digest, print an old -> new table of the moved
    ones, and rewrite golden.json with this environment."""
    old = _load() if GOLDEN.exists() else {"environment": None, "digests": {}}
    with tempfile.TemporaryDirectory() as tmp:
        new = compute_digests(Path(tmp))
    env = environment()
    if old["environment"] != env:
        print(f"environment: {old['environment']} -> {env}")
    print("| case | file | old | new |")
    print("|---|---|---|---|")
    unchanged = 0
    for case in sorted(set(old["digests"]) | set(new)):
        before, after = old["digests"].get(case, {}), new.get(case, {})
        for name in sorted(set(before) | set(after)):
            a, b = before.get(name), after.get(name)
            if a == b:
                unchanged += 1
            else:
                print(f"| {case} | {name} | {(a or '-')[:12]} | {(b or '-')[:12]} |")
    print(f"{unchanged} digests unchanged")
    doc = {"environment": env, "digests": new}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
