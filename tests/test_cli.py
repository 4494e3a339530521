import hashlib
import importlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from xdiff import __main__ as xdiff_main
from xdiff import cli
from xdiff.autodiff import SingularityError
from xdiff.cli import main
from xdiff.detect import DetectConfig
from xdiff.mlp import (
    Dataset,
    MlpConfig,
    Normalizer,
    TrainConfig,
    init_mlp,
    save_csv,
    save_model,
)
from xdiff.salience import CamOptions


def _read_run(out_dir):
    return json.loads((Path(out_dir) / "run.json").read_text())


def _tree_bytes(root):
    """Every file under root as {relative name: bytes}."""
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def small_csv(tmp_path):
    """A 4-feature regression table small enough to train in a blink."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(240, 4))
    y = (x[:, 0] * x[:, 1] + 0.3 * x[:, 2])[:, None]
    path = tmp_path / "toy.csv"
    save_csv(Dataset(x, y), path)
    return path


def _train_toy(tmp_path, small_csv, out_dir="m"):
    d = tmp_path / out_dir
    code = main([
        "train", "--data", str(small_csv), "--out", "model.json",
        "--hidden", "8", "--epochs", "4", "--patience", "3",
        "--seed", "0", "--out-dir", str(d),
    ])
    assert code == 0
    return d / "model.json"


# --- run.json lifecycle

def test_gen_data_writes_artifacts_and_hashes(tmp_path):
    code = main([
        "gen-data", "--function", "F5", "--samples", "50",
        "--seed", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    run = _read_run(tmp_path)
    assert run["status"] == "ok"
    assert run["subcommand"] == "gen-data"
    assert set(run["artifacts"]) == {"f5_data.csv", "f5_truth.json"}
    for name, digest in run["artifacts"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    truth = json.loads((tmp_path / "f5_truth.json").read_text())
    assert truth["id"] == "F5"


def test_run_json_lists_exactly_the_files_each_subcommand_wrote(tmp_path, small_csv):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.4,-0.2\n0.1,0.9\n")
    model = tmp_path / "train" / "model.json"
    runs = {  # train first: detect and cam read its model
        "train": ["--data", str(small_csv), "--hidden", "8", "--epochs", "2"],
        "gen-data": ["--function", "F9", "--samples", "60"],
        "detect": ["--model", str(model), "--data", str(small_csv), "--max-order", "3",
                   "--top-k", "2"],
        "sweep": ["--function", "F9", "--analytic", "--samples", "60", "--max-order", "3",
                  "--top-k", "2"],
        "suite": ["--functions", "F9", "--trials", "1", "--samples", "250"],
        "cam": ["--model", str(model), "--grid", str(grid), "--svg", "heat.svg"],
        "cam-demo": ["--seeds", "2", "--grids", "80", "--epochs", "2", "--test-grids", "1",
                     "--hidden", "8"],
    }
    for sub, argv in runs.items():
        out = tmp_path / sub
        assert main([sub, *argv, "--seed", "0", "--out-dir", str(out)]) == 0, sub
        written = {name: hashlib.sha256(data).hexdigest()
                   for name, data in _tree_bytes(out).items() if name != "run.json"}
        assert _read_run(out)["artifacts"] == written, sub


def test_config_echo_contents(tmp_path):
    main([
        "gen-data", "--function", "F1", "--samples", "20",
        "--seed", "9", "--threads", "4", "--out-dir", str(tmp_path),
    ])
    cfg = _read_run(tmp_path)["config"]
    assert cfg["seed"] == 9
    assert cfg["function"] == "F1"
    assert cfg["samples"] == 20
    for hidden in ("threads", "out_dir", "log_level", "subcommand", "func"):
        assert hidden not in cfg


def test_failed_run_reports_error_status(tmp_path):
    code = main([
        "gen-data", "--function", "F11", "--samples", "20",
        "--out-dir", str(tmp_path),
    ])
    assert code == 1
    run = _read_run(tmp_path)
    assert run["status"] == "error"
    assert "unknown function" in run["error"]


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (SingularityError("reciprocal of a value of zero"), 1, "reciprocal of a value of zero"),
        (KeyboardInterrupt(), 130, "interrupted"),
        (cli.Terminated(), 143, "terminated"),
    ],
    ids=["singularity", "interrupt", "terminated"],
)
def test_unexpected_exception_still_finishes_run(tmp_path, monkeypatch, capsys, exc, code, message):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.bm, "sample_dataset", boom)
    try:
        got = main(["gen-data", "--function", "F1", "--out-dir", str(tmp_path)])
    except BaseException as escaped:
        pytest.fail(f"{type(escaped).__name__} escaped main")
    assert got == code
    run = _read_run(tmp_path)
    assert run["status"] == "error"
    assert run["error"] == message
    assert f"error: {message}" in capsys.readouterr().err


def test_sigterm_finishes_run_json_as_error(tmp_path, xdiff_cli):
    """A train sent SIGTERM while its run.json reads running exits 143
    with run.json finished as error, and leaves no process behind."""
    rng = np.random.default_rng(4)
    data = tmp_path / "big.csv"
    save_csv(Dataset(rng.normal(size=(3000, 10)), rng.normal(size=3000)), data)
    out = tmp_path / "out"
    proc = xdiff_cli("train", "--data", str(data), "--epochs", "1000", "--patience", "1000",
                     "--out-dir", str(out), background=True)
    try:
        deadline = time.monotonic() + 60
        while not (out / "run.json").exists() or _read_run(out)["status"] != "running":
            assert proc.poll() is None and time.monotonic() < deadline, proc.returncode
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143, err
    assert err.strip().endswith("error: terminated")
    run = _read_run(out)
    assert (run["status"], run["error"]) == ("error", "terminated")
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="detect forks workers on Linux with two or more CPUs only")
def test_sigterm_during_a_split_detect_leaves_no_worker(tmp_path, xdiff_cli):
    """SIGTERM to a detect whose forked worker is scoring: the caller
    finishes run.json as error and exits 143, and its worker is reaped."""
    rng = np.random.default_rng(5)
    save_csv(Dataset(rng.normal(size=(2000, 60)), rng.normal(size=2000)), tmp_path / "wide.csv")
    save_model(init_mlp(MlpConfig(input_dim=60)), tmp_path / "wide.json")
    out = tmp_path / "out"
    proc = xdiff_cli("detect", "--model", str(tmp_path / "wide.json"), "--data",
                     str(tmp_path / "wide.csv"), "--max-order", "3", "--full-order", "3",
                     "--out-dir", str(out), background=True)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while not children.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline, proc.returncode
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143, err
    run = _read_run(out)
    assert (run["status"], run["error"]) == ("error", "terminated")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_sigterm_handler_is_the_runs_alone(tmp_path):
    """main installs its SIGTERM handler for the run only, and runs off
    the main thread, where no handler can be installed."""
    before = signal.getsignal(signal.SIGTERM)
    argv = ["gen-data", "--function", "F1", "--samples", "20", "--out-dir"]
    assert main([*argv, str(tmp_path / "main")]) == 0
    assert signal.getsignal(signal.SIGTERM) is before
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main([*argv, str(tmp_path / "off")])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [0]
    for name in ("main", "off"):
        files = sorted(p.name for p in (tmp_path / name).iterdir())
        assert files == ["f1_data.csv", "f1_truth.json", "run.json"]  # no temporary file


def test_empty_csv_reports_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    code = main(["train", "--data", str(empty), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    run = _read_run(tmp_path / "out")
    assert run["status"] == "error"
    assert run["error"] == f"{empty}: empty file, no header row"
    assert f"error: {empty}: empty file" in capsys.readouterr().err


def test_missing_model_file_is_io_error(tmp_path, small_csv):
    code = main([
        "detect", "--model", str(tmp_path / "absent.json"),
        "--data", str(small_csv), "--out-dir", str(tmp_path),
    ])
    assert code == 2


def test_missing_required_flag_fails_before_run_json(tmp_path):
    code = main(["train", "--out-dir", str(tmp_path / "sub")])
    assert code == 1
    assert not (tmp_path / "sub" / "run.json").exists()


def test_unparseable_hidden_flag(tmp_path, small_csv):
    code = main(["train", "--data", str(small_csv), "--hidden", "8,oops",
                 "--epochs", "3", "--patience", "2", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "comma-separated integers" in _read_run(tmp_path)["error"]


def test_seed_resolution(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["gen-data", "--function", "F2", "--samples", "30",
          "--seed", "3", "--out-dir", str(a)])
    monkeypatch.setenv("XDIFF_SEED", "3")
    main(["gen-data", "--function", "F2", "--samples", "30", "--out-dir", str(b)])
    # explicit flag beats the environment
    main(["gen-data", "--function", "F2", "--samples", "30",
          "--seed", "4", "--out-dir", str(c)])
    assert (a / "f2_data.csv").read_bytes() == (b / "f2_data.csv").read_bytes()
    assert (a / "f2_data.csv").read_bytes() != (c / "f2_data.csv").read_bytes()
    assert _read_run(b)["config"]["seed"] == 3


def test_malformed_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XDIFF_SEED", "many")
    code = main(["gen-data", "--function", "F1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "XDIFF_SEED must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("<html>not a checkpoint</html>", "not a JSON checkpoint"),
    ('{"config": {"input_dim": 4, "hidden": [8]}}', "checkpoint field layers is missing"),
    ('{"config": {"input_dim": 4, "hidden": [8]}, "layers": [{"weights": []}, {}]}',
     "checkpoint field layers[0].bias is missing"),
], ids=["not-json", "no-layers", "no-bias"])
def test_malformed_checkpoint_exits_1_naming_its_path(tmp_path, small_csv, capsys, text, message):
    model = tmp_path / "broken_model.json"
    model.write_text(text)
    code = main(["detect", "--model", str(model), "--data", str(small_csv),
                 "--out-dir", str(tmp_path / "det")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: {message}"), err
    assert _read_run(tmp_path / "det")["status"] == "error"


# --- train / detect / cam round trip

def test_train_detect_cam_round_trip(tmp_path, small_csv):
    model = _train_toy(tmp_path, small_csv)
    run = _read_run(model.parent)
    assert run["status"] == "ok"
    assert set(run["result"]) == {"best_epoch", "stopped_epoch", "best_val_loss"}
    assert "model.json" in run["artifacts"]

    det = tmp_path / "det"
    code = main([
        "detect", "--model", str(model), "--data", str(small_csv),
        "--max-order", "3", "--top-k", "3", "--reps", "mean,random",
        "--seed", "0", "--out-dir", str(det),
    ])
    assert code == 0
    doc = json.loads((det / "detect.json").read_text())
    pairs = {tuple(row["set"]) for row in doc["orders"]["2"]}
    assert pairs == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    assert [r["label"] for r in doc["representatives"]] == ["mean", "random"]

    grid = tmp_path / "grid.csv"
    grid.write_text("0.4,-0.2\n0.1,0.9\n")
    cam = tmp_path / "cam"
    code = main([
        "cam", "--model", str(model), "--grid", str(grid),
        "--order", "2", "--svg", "heat.svg", "--out-dir", str(cam),
    ])
    assert code == 0
    doc = json.loads((cam / "cam.json").read_text())
    assert doc["order"] == 2
    svg = (cam / "heat.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg
    assert set(_read_run(cam)["artifacts"]) == {"cam.json", "heat.svg"}


def test_cam_rejects_bad_grid(tmp_path, small_csv):
    model = _train_toy(tmp_path, small_csv)
    grid = tmp_path / "bad.csv"
    grid.write_text("a,b\nalso,bad\n")
    code = main(["cam", "--model", str(model), "--grid", str(grid),
                 "--out-dir", str(tmp_path / "camx")])
    assert code == 1
    grid.write_text("")
    code = main(["cam", "--model", str(model), "--grid", str(grid),
                 "--out-dir", str(tmp_path / "camy")])
    assert code == 1


def test_cam_rejects_a_ragged_grid_naming_its_line(tmp_path, small_csv, capsys):
    model = _train_toy(tmp_path, small_csv)
    grid = tmp_path / "ragged.csv"
    grid.write_text("a,b\n0.4,-0.2\n0.1\n")
    code = main(["cam", "--model", str(model), "--grid", str(grid),
                 "--out-dir", str(tmp_path / "cam")])
    assert code == 1
    assert "line 3 has 1 cells, expected 2" in capsys.readouterr().err


def test_cam_names_a_bad_cell_in_a_first_row_that_has_numbers(tmp_path, capsys):
    """A first row with a number in it is data, not a header to drop."""
    model = tmp_path / "m8.json"
    save_model(init_mlp(MlpConfig(input_dim=8, hidden=(4,))), model)
    grid = tmp_path / "grid.csv"
    grid.write_text("0.1,abc\n0.2,0.3\n0.4,0.5\n0.6,0.7\n0.8,0.9\n")
    out = tmp_path / "cam"
    code = main(["cam", "--model", str(model), "--grid", str(grid), "--out-dir", str(out)])
    assert code == 1
    assert "line 1: could not convert string to float: 'abc'" in _read_run(out)["error"]
    assert not (out / "cam.json").exists()


def test_cam_grid_header_and_blank_lines_are_skipped(tmp_path):
    """A grid with an all-text header row and blank lines gives the same
    cam.json as the bare grid; a bad cell names its line, blanks counted."""
    model = tmp_path / "m4.json"
    save_model(init_mlp(MlpConfig(input_dim=4, hidden=(4,))), model)
    docs = []
    for name, text in (("bare", "0.4,-0.2\n0.1,0.9\n"), ("headed", "a,b\n\n0.4,-0.2\n\n0.1,0.9\n")):
        grid = tmp_path / f"{name}.csv"
        grid.write_text(text)
        out = tmp_path / name
        assert main(["cam", "--model", str(model), "--grid", str(grid), "--out-dir", str(out)]) == 0
        docs.append((out / "cam.json").read_bytes())
    assert docs[0] == docs[1]
    grid = tmp_path / "bad.csv"
    grid.write_text("a,b\n\n0.4,-0.2\n\n0.1,x\n")
    out = tmp_path / "bad"
    assert main(["cam", "--model", str(model), "--grid", str(grid), "--out-dir", str(out)]) == 1
    assert "line 5: could not convert string to float: 'x'" in _read_run(out)["error"]


def test_width_mismatch_names_both_widths(tmp_path, small_csv, capsys):
    wide = tmp_path / "wide.json"
    save_model(init_mlp(MlpConfig(input_dim=10, hidden=(4,))), wide,
               normalizer=Normalizer(np.ones(10), np.zeros(10)))
    code = main(["detect", "--model", str(wide), "--data", str(small_csv),
                 "--max-order", "2", "--out-dir", str(tmp_path / "det")])
    assert code == 1
    assert "expects 10 features, got 4" in capsys.readouterr().err

    model = _train_toy(tmp_path, small_csv)
    grid = tmp_path / "grid.csv"
    grid.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
    code = main(["cam", "--model", str(model), "--grid", str(grid),
                 "--out-dir", str(tmp_path / "cam")])
    assert code == 1
    assert "expects 4 features, got 6" in capsys.readouterr().err


def test_cam_svg_with_another_order_fails_before_any_work(tmp_path, small_csv, capsys):
    model = _train_toy(tmp_path, small_csv)
    grid = tmp_path / "grid.csv"
    grid.write_text("0.4,-0.2\n0.1,0.9\n")
    out = tmp_path / "cam"
    code = main(["cam", "--model", str(model), "--grid", str(grid), "--order", "3",
                 "--svg", "heat.svg", "--out-dir", str(out)])
    assert code == 1
    run = _read_run(out)
    assert run["status"] == "error"
    assert "--svg" in run["error"] and "--order" in run["error"]
    assert run["artifacts"] == {}
    assert not (out / "cam.json").exists() and not (out / "heat.svg").exists()
    assert "--svg" in capsys.readouterr().err


def test_cam_layout_flag(tmp_path, small_csv):
    model = _train_toy(tmp_path, small_csv)
    grid = tmp_path / "grid.csv"
    grid.write_text("0.4\n-0.2\n0.1\n0.9\n")
    out = tmp_path / "cam"
    code = main([
        "cam", "--model", str(model), "--grid", str(grid),
        "--layout", "2x2", "--svg", "heat.svg", "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "heat.svg").exists()
    code = main([
        "cam", "--model", str(model), "--grid", str(grid),
        "--layout", "nonsense", "--out-dir", str(out),
    ])
    assert code == 1


def test_cam_rejects_a_layout_below_one(tmp_path, small_csv):
    model = _train_toy(tmp_path, small_csv)
    grid = tmp_path / "grid.csv"
    grid.write_text("".join(f"{v}\n" for v in range(9)))
    out = tmp_path / "cam"
    code = main(["cam", "--model", str(model), "--grid", str(grid),
                 "--layout=-3x-3", "--out-dir", str(out)])
    assert code == 1
    run = _read_run(out)
    assert run["status"] == "error"
    assert "layout -3x-3" in run["error"]
    assert not (out / "cam.json").exists()


def test_detect_rejects_a_checkpoint_with_missing_layers(tmp_path, small_csv):
    model = _train_toy(tmp_path, small_csv)  # --hidden 8: two layers
    doc = json.loads(model.read_text())
    doc["layers"] = doc["layers"][:1]  # would rank the hidden units
    model.write_text(json.dumps(doc))
    out = tmp_path / "det"
    code = main(["detect", "--model", str(model), "--data", str(small_csv),
                 "--max-order", "2", "--out-dir", str(out)])
    assert code == 1
    run = _read_run(out)
    assert run["status"] == "error"
    assert "config has 2 layers, got 1 weight and 1 bias arrays" in run["error"]
    assert not (out / "detect.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epochs", "0"], "max_epochs must be at least 1, got 0"),
        (["--batch-size", "0"], "batch_size must be at least 1, got 0"),
        (["--patience", "0"], "patience must be at least 1, got 0"),
    ],
)
def test_train_rejects_counts_below_one(tmp_path, small_csv, flags, message):
    out = tmp_path / "t"
    code = main(["train", "--data", str(small_csv), "--hidden", "8", *flags,
                 "--out-dir", str(out)])
    assert code == 1
    run = _read_run(out)
    assert run["status"] == "error"
    assert message in run["error"]
    assert "result" not in run
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("rate", ["0", "-1", "nan"])
def test_train_rejects_a_learning_rate_that_is_not_finite_and_positive(tmp_path, small_csv, rate):
    out = tmp_path / "t"
    code = main(["train", "--data", str(small_csv), "--hidden", "8", "--learning-rate", rate,
                 "--out-dir", str(out)])
    assert code == 1
    run = _read_run(out)
    assert run["status"] == "error"
    assert f"learning_rate must be finite and positive, got {float(rate)!r}" in run["error"]
    assert not (out / "model.json").exists()


# --- sweep and suite

def test_analytic_sweep_row_count(tmp_path):
    out = tmp_path / "sw"
    code = main([
        "sweep", "--function", "F9", "--samples", "200", "--analytic",
        "--max-order", "3", "--top-k", "4", "--seed", "0",
        "--out-dir", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "label,score"
    assert len(lines) == 1 + 315
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert "Mean Of Mean-Min-Mode-Rand" in labels


def test_sweep_trains_for_fewer_epochs_than_the_default_patience(tmp_path, small_csv):
    out = tmp_path / "sw"
    code = main([
        "sweep", "--function", "F8", "--samples", "300", "--epochs", "3",
        "--max-order", "3", "--top-k", "2", "--out-dir", str(out),
    ])
    assert code == 0
    assert _read_run(out)["status"] == "ok"
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 315

    # train and cam-demo cap the default patience of 10 at --epochs too
    for argv in (
        ["train", "--data", str(small_csv), "--hidden", "8", "--epochs", "3"],
        ["cam-demo", "--seeds", "1", "--grids", "80", "--epochs", "3",
         "--test-grids", "1", "--hidden", "8", "--no-svg"],
    ):
        out = tmp_path / argv[0]
        assert main([*argv, "--out-dir", str(out)]) == 0
        assert _read_run(out)["status"] == "ok"


def test_suite_single_function(tmp_path):
    out = tmp_path / "suite"
    code = main([
        "suite", "--functions", "F9", "--trials", "1", "--samples", "300",
        "--seed", "0", "--out-dir", str(out),
    ])
    assert code == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "id,mean_auc,std"
    assert lines[1].startswith("F9,")
    assert lines[2].startswith("average,")
    value = float(lines[1].split(",")[1])
    assert 0.0 <= value <= 1.0


def test_function_range_parsing(tmp_path):
    code = main(["suite", "--functions", "F2..F1", "--trials", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "selected nothing" in _read_run(tmp_path)["error"]


# --- cam-demo

def test_cam_demo_small(tmp_path):
    out = tmp_path / "demo"
    code = main([
        "cam-demo", "--seeds", "2", "--grids", "120", "--epochs", "4",
        "--patience", "3", "--test-grids", "2", "--hidden", "8", "--no-svg",
        "--seed", "5", "--out-dir", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "cam_demo.json").read_text())
    assert doc["seeds"] == 2
    assert len(doc["trials"]) == 2
    for trial in doc["trials"]:
        assert len(trial["planted"]) == 2
        assert len(trial["top"]) == 2
        assert trial["hit"] == (trial["top"] == trial["planted"])
    assert _read_run(out)["result"]["hit_rate"] == doc["hit_rate"]


@pytest.mark.parametrize("flag", ["--seeds", "--grids", "--test-grids", "--patience"])
def test_cam_demo_rejects_counts_below_one_before_training(tmp_path, monkeypatch, flag):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the flags")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "demo"
    code = main(["cam-demo", flag, "0", "--out-dir", str(out)])
    assert code == 1
    run = _read_run(out)
    assert run["status"] == "error"
    assert run["error"] == f"{flag} must be at least 1, got 0"
    assert run["artifacts"] == {}


def test_a_failed_cam_demo_lists_the_svgs_it_wrote(tmp_path, monkeypatch):
    real_train, calls = cli.train, []

    def fail_on_the_second_seed(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second seed failed")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", fail_on_the_second_seed)
    out = tmp_path / "demo"
    code = main([
        "cam-demo", "--seeds", "2", "--grids", "80", "--epochs", "2",
        "--test-grids", "1", "--hidden", "8", "--seed", "4", "--out-dir", str(out),
    ])
    assert code == 1
    run = _read_run(out)
    assert (run["status"], run["error"]) == ("error", "second seed failed")
    svg = (out / "cam_demo_seed4.svg").read_bytes()
    assert run["artifacts"] == {"cam_demo_seed4.svg": hashlib.sha256(svg).hexdigest()}
    assert not (out / "cam_demo_seed5.svg").exists()


def test_cam_demo_writes_svgs_by_default(tmp_path):
    out = tmp_path / "demo"
    code = main([
        "cam-demo", "--seeds", "1", "--grids", "80", "--epochs", "3",
        "--patience", "2", "--test-grids", "1", "--hidden", "8",
        "--seed", "2", "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "cam_demo_seed2.svg").exists()
    assert "cam_demo_seed2.svg" in _read_run(out)["artifacts"]


# --- determinism

def test_repeated_runs_are_byte_identical(tmp_path, small_csv):
    # two identical trainings agree byte for byte, and so do two detect
    # runs over the resulting model (run.json included: no timestamps)
    model_a = _train_toy(tmp_path, small_csv, out_dir="r1_m")
    model_b = _train_toy(tmp_path, small_csv, out_dir="r2_m")
    assert model_a.read_bytes() == model_b.read_bytes()

    dirs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        assert main([
            "detect", "--model", str(model_a), "--data", str(small_csv),
            "--max-order", "3", "--top-k", "3", "--seed", "0",
            "--out-dir", str(d),
        ]) == 0
        dirs.append(d)
    assert _tree_bytes(dirs[0]) == _tree_bytes(dirs[1])


def test_thread_count_never_changes_bytes(tmp_path, small_csv):
    model = _train_toy(tmp_path, small_csv)
    trees = []
    for threads in ("1", "4"):
        d = tmp_path / f"t{threads}"
        assert main([
            "detect", "--model", str(model), "--data", str(small_csv),
            "--max-order", "3", "--threads", threads, "--seed", "0",
            "--out-dir", str(d),
        ]) == 0
        trees.append(_tree_bytes(d))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_1_naming_the_flag(tmp_path, capsys, threads):
    out = tmp_path / "run"
    code = main(["gen-data", "--function", "F3", "--samples", "5",
                 "--threads", threads, "--out-dir", str(out)])
    assert code == 1
    message = f"--threads must be at least 1, got {threads}"
    assert capsys.readouterr().err.strip() == f"error: {message}"
    run = _read_run(out)
    assert (run["status"], run["error"], run["artifacts"]) == ("error", message, {})


def test_installed_entry_point(tmp_path, xdiff_cli):
    proc = xdiff_cli("gen-data", "--function", "F3", "--samples", "25",
                     "--seed", "0", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "f3_data.csv").exists()

    # the installed `xdiff` script and `python -m xdiff` run the same main
    assert xdiff_main.main is main
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["xdiff"]
        assert target == "xdiff.cli:main"
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is xdiff_main.main


@pytest.mark.parametrize("module", ["xdiff", "xdiff.cli"])
def test_module_invocation_runs_cli(module, xdiff_cli):
    proc = xdiff_cli("--help", module=module)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: xdiff ")


# Each subcommand's required flags, and the config-dataclass field behind
# each flag that has one.
_FIELD_BACKED_FLAGS = {
    "train": (["--data", "d.csv"], {
        "hidden": (MlpConfig, "hidden"),
        "activation": (MlpConfig, "activation"),
        "output_dim": (MlpConfig, "output_dim"),
        "learning_rate": (TrainConfig, "learning_rate"),
        "epochs": (TrainConfig, "max_epochs"),
        "patience": (TrainConfig, "patience"),
        "batch_size": (TrainConfig, "batch_size"),
        "val_fraction": (TrainConfig, "val_fraction"),
        "optimizer": (TrainConfig, "optimizer"),
    }),
    "detect": (["--model", "m.json", "--data", "d.csv"], {
        "max_order": (DetectConfig, "max_order"),
        "full_order": (DetectConfig, "full_order"),
        "top_k": (DetectConfig, "top_k"),
        "reps": (DetectConfig, "representatives"),
        "agg": (DetectConfig, "aggregation"),
        "task": (DetectConfig, "task"),
        "class_index": (DetectConfig, "class_index"),
        "use_logit": (DetectConfig, "use_logit"),
        "squared_multiclass": (DetectConfig, "squared_multiclass"),
    }),
    "sweep": (["--function", "F1"], {
        "epochs": (TrainConfig, "max_epochs"),
        "max_order": (DetectConfig, "max_order"),
        "full_order": (DetectConfig, "full_order"),
        "top_k": (DetectConfig, "top_k"),
    }),
    "cam": (["--model", "m.json", "--grid", "g.csv"], {
        f.name: (CamOptions, f.name) for f in fields(CamOptions)
    }),
    "cam-demo": ([], {"patience": (TrainConfig, "patience")}),
}
# flags that carry a tuple field as text
_FLAG_TEXT = {"hidden": cli._parse_hidden, "reps": lambda text: tuple(text.split(","))}


@pytest.mark.parametrize("sub", sorted(_FIELD_BACKED_FLAGS))
def test_flag_defaults_are_the_config_fields(sub):
    required, backed = _FIELD_BACKED_FLAGS[sub]
    args = cli.build_parser().parse_args([sub, *required])
    for dest, (cls, name) in backed.items():
        default = next(f.default for f in fields(cls) if f.name == name)
        got = _FLAG_TEXT.get(dest, lambda v: v)(getattr(args, dest))
        assert got == default, (sub, dest)
