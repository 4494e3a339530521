"""Command-line front end.

Every subcommand resolves its flags, writes its artifacts under
--out-dir, and drops a run.json there echoing the resolved config plus
a sha256 per artifact.  Outputs are JSON, CSV, and SVG only, written
through deterministic serializers, so a run is reproducible byte for
byte from (flags, seed); thread count never changes output bytes and is
therefore left out of the config echo.

Exit codes: 0 success, 1 configuration, domain or any other error, 2 I/O
error, 130 interrupted, 143 terminated (SIGTERM).  run.json always ends
as ok or error.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import signal
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import benchmarks as bm
from .detect import (
    AGGREGATION_LABELS,
    DetectConfig,
    REPRESENTATIVE_LABELS,
    aggregation_sweep,
    detect,
    ranking_document,
)
from .evaluate import mean_truth_auc, pairwise_suite
from .mlp import (
    Dataset,
    MlpConfig,
    TrainConfig,
    load_csv,
    load_model,
    normalize,
    parse_rows,
    read_rows,
    save_csv,
    save_model,
    train,
    write_csv,
    write_json,
)
from .parallel import fork_map
from .salience import (
    CamOptions,
    FeatureGrid,
    SalienceTensor,
    hessian_cam,
    render_heatmap,
    salience_document,
    taylor_cam,
    top_interactions,
)

log = logging.getLogger(__name__)


class CliError(Exception):
    """Configuration mistake surfaced to the user; exits with code 1."""


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the main thread while a subcommand runs."""


def _terminate(signum, frame):
    raise Terminated


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class Run:
    """run.json lifecycle: created as running, finished as ok or error,
    recording each artifact's hash as it is written."""

    def __init__(self, out_dir: Path, subcommand: str, config: dict):
        self.out_dir = out_dir
        self.doc = {
            "subcommand": subcommand,
            "config": config,
            "artifacts": {},
            "status": "running",
        }
        self._flush()

    def _flush(self):
        write_json(self.out_dir / "run.json", self.doc)

    def write(self, name: str, writer) -> None:
        """Write artifact ``name`` (under out_dir unless absolute) by
        ``writer(path)`` and record its sha256 under its out_dir-relative
        name, or its file name if it lies elsewhere; a name that is run.json
        or already recorded is refused before anything is written."""
        path = self.out_dir / name
        try:
            key = path.relative_to(self.out_dir).as_posix()
        except ValueError:
            key = path.name
        if key == "run.json" or key in self.doc["artifacts"]:
            raise CliError(f"artifact {name}: the name {key} is taken")
        writer(path)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:  # fixed-size reads: a large CSV is never held whole
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        self.doc["artifacts"][key] = digest.hexdigest()

    def result(self, payload: dict):
        self.doc["result"] = payload

    def finish(self, status: str, error: str | None = None):
        self.doc["status"] = status
        if error is not None:
            self.doc["error"] = error
        self._flush()


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("XDIFF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"XDIFF_SEED must be an integer, got {env!r}") from None
    return 0


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text.lower() == "none":
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliError(f"--hidden expects comma-separated integers, got {text!r}") from None


def _parse_functions(text: str) -> tuple[str, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            a, b = int(lo.lstrip("Ff")), int(hi.lstrip("Ff"))
        except ValueError:
            raise CliError(f"cannot parse function range {text!r}") from None
        ids = tuple(f"F{i}" for i in range(a, b + 1))
    else:
        ids = tuple(t.strip().upper() for t in text.split(",") if t.strip())
    if not ids:
        raise CliError("--functions selected nothing")
    for fid in ids:
        bm.get_function(fid)
    return ids


def _parse_layout(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        r, c = text.lower().split("x", 1)
        return int(r), int(c)
    except ValueError:
        raise CliError(f"--layout expects ROWSxCOLS, got {text!r}") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _config(cls, args, **given):
    """A ``cls`` from the flags named like its fields, with ``given`` (the
    fields no such flag carries as they are) on top."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**flags, **given})


def _load_grid(path, layout) -> FeatureGrid:
    rows = list(read_rows(path))
    if rows and not any(_is_number(c) for c in rows[0][1]):
        rows = rows[1:]  # a header: none of its cells is a number
    if not rows:
        raise CliError(f"grid file {path} is empty")
    return FeatureGrid(parse_rows(path, rows), layout)


# --- subcommands -----------------------------------------------------------


def _cmd_gen_data(args, run: Run) -> None:
    fid = args.function.upper()
    data = bm.sample_dataset(fid, args.samples, args.seed)
    run.write(args.out or f"{fid.lower()}_data.csv", lambda p: save_csv(data, p))
    run.write(args.truth_out or f"{fid.lower()}_truth.json",
              lambda p: write_json(p, bm.truth_document(fid)))


def _cmd_train(args, run: Run) -> None:
    data = normalize(load_csv(args.data), center=args.center)
    mcfg = _config(MlpConfig, args, input_dim=data.dim, hidden=_parse_hidden(args.hidden))
    tcfg = _config(TrainConfig, args, max_epochs=args.epochs,
                   patience=min(args.patience, args.epochs))
    model, report = train(data, mcfg, tcfg)
    log.info("train: best epoch %d, val loss %.6g", report.best_epoch, report.best_val_loss)
    run.write(args.out, lambda p: save_model(model, p, normalizer=data.normalizer))
    run.result(
        {
            "best_epoch": report.best_epoch,
            "stopped_epoch": report.stopped_epoch,
            "best_val_loss": report.best_val_loss,
        }
    )


def _cmd_detect(args, run: Run) -> None:
    model, norm = load_model(args.model)
    data = load_csv(args.data)
    # the checkpoint's stored scaling when present, a fitted one otherwise
    data = Dataset(norm.apply(data.features), data.targets, norm) if norm else normalize(data)
    reps = tuple(t.strip() for t in args.reps.split(",") if t.strip())
    cfg = _config(DetectConfig, args, representatives=reps, aggregation=args.agg)
    ranking = detect(model, data, cfg)
    run.write(args.out, lambda p: write_json(p, ranking_document(ranking)))


def _cmd_sweep(args, run: Run) -> None:
    fid = args.function.upper()
    truth = bm.ground_truth(fid)
    raw = bm.sample_dataset(fid, args.samples, args.seed)
    if args.analytic:
        model, data = (lambda z: bm.eval_function(fid, z)), raw
    else:
        data = normalize(raw)
        tcfg = _config(TrainConfig, args, max_epochs=args.epochs,
                       patience=min(TrainConfig.patience, args.epochs))
        model, _ = train(data, _config(MlpConfig, args, input_dim=raw.dim), tcfg)
    cfg = _config(DetectConfig, args)
    rows = aggregation_sweep(model, data, cfg, lambda r: mean_truth_auc(r, truth))
    run.write(args.out,
              lambda p: write_csv(p, ("label", "score"), [(r.label, r.score) for r in rows]))


def _cmd_suite(args, run: Run) -> None:
    report = pairwise_suite(_parse_functions(args.functions), args.trials, args.samples, args.seed)
    run.write(args.out, lambda p: write_csv(p, ("id", "mean_auc", "std"), report.rows()))


def _cmd_cam(args, run: Run) -> None:
    if args.svg and args.order != 2:
        raise CliError(f"--svg renders an order-2 tensor; --order is {args.order}")
    model, norm = load_model(args.model)
    layout = _parse_layout(args.layout)
    grid = _load_grid(args.grid, layout)
    if norm is not None:
        grid = FeatureGrid(
            norm.apply(grid.x.reshape(-1)).reshape(grid.x.shape), layout
        )
    opts = _config(CamOptions, args)
    tensor = taylor_cam(model, grid, args.order, opts)
    run.write(args.out, lambda p: write_json(p, salience_document(tensor, opts, args.top)))
    if args.svg:
        run.write(args.svg, lambda p: render_heatmap(tensor, p, layout=grid.layout, top=args.top))


def _demo_trial(seed: int, args) -> tuple[dict, SalienceTensor]:
    """One planted-pair experiment: draw a pair, synthesize labels from
    it alone, train, and ask the averaged pairwise salience for its
    top-1 pair.  Returns the trial's record and that salience."""
    n, d = 9, 4
    rng = np.random.default_rng(seed)
    a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
    X = rng.uniform(-1.0, 1.0, size=(args.grids, n * d))
    dots = np.sum(X[:, a * d : (a + 1) * d] * X[:, b * d : (b + 1) * d], axis=1)
    data = normalize(Dataset(X, expit(dots)[:, None]))
    mcfg = _config(MlpConfig, args, input_dim=n * d, hidden=_parse_hidden(args.hidden), seed=seed)
    tcfg = _config(TrainConfig, args, max_epochs=args.epochs,
                   patience=min(args.patience, args.epochs), seed=seed)
    model, report = train(data, mcfg, tcfg)

    acc = np.zeros((n, n))
    for _ in range(args.test_grids):
        test = rng.uniform(-1.0, 1.0, size=(n, d))
        scaled = data.normalizer.apply(test.reshape(-1)).reshape(n, d)
        acc += hessian_cam(model, FeatureGrid(scaled)).values
    acc /= args.test_grids
    avg = SalienceTensor(2, acc)
    top = top_interactions(avg, 1)[0][0]
    return {
        "seed": seed,
        "planted": [a, b],
        "top": list(top),
        "hit": list(top) == [a, b],
        "val_loss": report.best_val_loss,
    }, avg


def _cmd_cam_demo(args, run: Run) -> None:
    for flag in ("seeds", "grids", "test_grids", "patience"):
        if (value := getattr(args, flag)) < 1:
            raise CliError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    done = fork_map(lambda seed: _demo_trial(seed, args), range(args.seed, args.seed + args.seeds))
    trials = [trial for trial, _ in done]
    if args.svg:
        for trial, avg in done:
            run.write(f"cam_demo_seed{trial['seed']}.svg",
                      lambda p: render_heatmap(avg, p, layout=(3, 3), top=1))
    hits = sum(t["hit"] for t in trials)
    log.info("cam-demo: %d/%d planted pairs recovered", hits, len(trials))
    doc = {
        "hit_rate": hits / len(trials),
        "hits": hits,
        "seeds": len(trials),
        "trials": trials,
    }
    run.write(args.out, lambda p: write_json(p, doc))
    run.result({"hit_rate": doc["hit_rate"]})


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="base RNG seed (default: XDIFF_SEED env var, else 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="at least 1; accepted by every subcommand and used by none "
                             "(each works out its own process count); never changes output bytes")
    common.add_argument("--out-dir", default=".", help="directory for artifacts and run.json")
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"))

    parser = _Parser(prog="xdiff", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", parents=[common],
                       help="sample a benchmark dataset and its ground truth")
    p.add_argument("--function", required=True, help="benchmark id, F1..F10")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--out", default=None, help="dataset CSV name")
    p.add_argument("--truth-out", default=None, help="ground-truth JSON name")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", parents=[common], help="train a model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="model.json")
    p.add_argument("--hidden", default=",".join(map(str, MlpConfig.hidden)))
    p.add_argument("--activation", default=MlpConfig.activation, choices=("gelu", "relu"))
    p.add_argument("--output-dim", type=int, default=MlpConfig.output_dim)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--val-fraction", type=float, default=TrainConfig.val_fraction)
    p.add_argument("--optimizer", default=TrainConfig.optimizer, choices=("adam", "sgd"))
    p.add_argument("--center", action="store_true",
                   help="also subtract feature means when normalizing")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("detect", parents=[common],
                       help="rank interactions of a trained model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--max-order", type=int, default=DetectConfig.max_order)
    p.add_argument("--full-order", type=int, default=DetectConfig.full_order)
    p.add_argument("--top-k", type=int, default=DetectConfig.top_k)
    p.add_argument("--reps", default=",".join(DetectConfig.representatives),
                   help=f"comma list from {','.join(REPRESENTATIVE_LABELS)}")
    p.add_argument("--agg", default=DetectConfig.aggregation, choices=AGGREGATION_LABELS)
    p.add_argument("--task", default=DetectConfig.task, choices=("regression", "classification"))
    p.add_argument("--class-index", type=int, default=DetectConfig.class_index)
    p.add_argument("--use-logit", action="store_true")
    p.add_argument("--squared-multiclass", action="store_true")
    p.add_argument("--out", default="detect.json")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", parents=[common],
                       help="score every representative-subset x aggregation combination")
    p.add_argument("--function", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--max-order", type=int, default=DetectConfig.max_order)
    p.add_argument("--full-order", type=int, default=DetectConfig.full_order)
    p.add_argument("--top-k", type=int, default=DetectConfig.top_k)
    p.add_argument("--analytic", action="store_true",
                   help="sweep the exact function instead of a trained model")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("suite", parents=[common],
                       help="pairwise AUC benchmark across functions and trials")
    p.add_argument("--functions", default="F1..F10")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--out", default="table.csv")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("cam", parents=[common],
                       help="salience tensor of a model over a feature grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, help="CSV of n rows x d columns")
    p.add_argument("--order", type=int, default=2)
    for name in ("local_k", "square", "symmetrize", "zero_diagonal"):
        p.add_argument(f"--{name.replace('_', '-')}", action=argparse.BooleanOptionalAction,
                       default=getattr(CamOptions, name))
    p.add_argument("--sum-before-square", action="store_true")
    p.add_argument("--rectify", action="store_true")
    p.add_argument("--top", type=int, default=4)
    p.add_argument("--layout", default=None, help="ROWSxCOLS for the SVG panel")
    p.add_argument("--svg", default=None, help="also render a heatmap SVG")
    p.add_argument("--out", default="cam.json")
    p.set_defaults(func=_cmd_cam)

    p = sub.add_parser("cam-demo", parents=[common],
                       help="planted-pair experiment: train on labels that depend on "
                            "one vector pair and check the top-1 salience hit rate")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--grids", type=int, default=2000, help="training grids per seed")
    p.add_argument("--test-grids", type=int, default=8)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--hidden", default="64,32")
    p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True,
                   help="write one heatmap SVG per seed")
    p.add_argument("--out", default="cam_demo.json")
    p.set_defaults(func=_cmd_cam_demo)

    return parser


_ECHO_EXCLUDED = {"func", "threads", "out_dir", "log_level", "subcommand"}


def _config_echo(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in _ECHO_EXCLUDED}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.seed = _resolve_seed(args.seed)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    # signal.signal works from the main thread only
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        return _run(args)
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


def _run(args) -> int:
    """Run the parsed subcommand, finish its run.json and give the exit code."""
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        run = Run(out_dir, args.subcommand, _config_echo(args))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        if args.threads < 1:
            raise CliError(f"--threads must be at least 1, got {args.threads}")
        args.func(args, run)
        run.finish("ok")
        return 0
    except OSError as e:
        error, code = str(e), 2
    except Exception as e:
        log.debug("%s failed", args.subcommand, exc_info=True)
        error, code = str(e), 1
    except KeyboardInterrupt as e:
        error, code = ("terminated", 143) if isinstance(e, Terminated) else ("interrupted", 130)
    run.finish("error", error)
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
