"""Small dense network with deterministic training, plus its data plumbing.

The model is a plain affine stack with GELU (or ReLU) hidden activations
and a linear head, trained by minibatch Adam or SGD with early stopping
on a validation split.  Everything is seeded, so a given (data, config)
pair reproduces bit-identical weights.  Training computes each epoch's
validation loss on one worker thread while the next epoch trains; the
losses and the kept weights are those of the sequential loop, whenever
the worker finishes.  The matrix products would sum in another order at
another OpenBLAS thread count, so importing xdiff pins OpenBLAS to one
thread (``blas``); where it cannot (numpy loaded first with a BLAS whose
setter it does not find) it warns once, and the weights then depend on
the thread count.

``forward`` evaluates plain arrays.  ``forward_lattice`` pushes a batch
of subset-lattice coefficients through the same affine and activation
stack, so any mixed partial derivative of the trained network is
available exactly; it is the one route from lattice coefficients into a
model, and it hands a callable model to ``autodiff.lattice_call``.
GELU uses the exact erf form, never the tanh approximation.  The plain
pass, the lattice pass and training's backward pass all read the
activation from one derivative table in ``autodiff`` (for GELU a closed
form: Hermite polynomials times the normal density), so training takes
each layer's value and slope from a single call.

Datasets are plain feature/target matrices with scale-only
normalization: each feature column is divided by its population standard
deviation; means are recorded but not subtracted unless centering is
requested explicitly.  A normalized ``Dataset`` holds the ``Normalizer``
that scaled it, and a checkpoint stores it.  Every JSON artifact is
written by ``write_json``, every CSV by ``write_csv``.  ``load_csv`` and
``save_csv`` stream their rows in fixed blocks, so only one block's cells
are ever Python objects: a save's memory is one block beside the
dataset, a load's one block plus the matrix, held twice while its parsed
blocks are joined.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    EXP,
    GELU,
    MAX_TAGS,
    RECIPROCAL,
    CapacityError,
    ElementaryTable,
    lattice_call,
    lattice_compose,
    lattice_mul,
    max_const_table,
)

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


class ActivationError(ValueError):
    """The model's activation cannot support the requested derivative order."""


def check_derivative_order(model, order: int) -> None:
    """Reject mixed partials of ``order`` below 1, beyond what the lattice
    can carry, or that a ReLU model (zero second derivative) makes
    meaningless."""
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if order > MAX_TAGS:
        raise CapacityError(f"order {order} exceeds the {MAX_TAGS}-tag limit")
    if isinstance(model, Mlp) and model.config.activation == "relu" and order >= 2:
        raise ActivationError(
            "relu has an identically zero second derivative, so cross partials "
            f"of order {order} are meaningless; train with gelu instead"
        )


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normalizer:
    """Per-column feature scaling, fitted by ``normalize``."""

    std: np.ndarray
    mean: np.ndarray
    centered: bool = False

    def __post_init__(self):
        for name in ("std", "mean"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    def apply(self, features: np.ndarray) -> np.ndarray:
        feats = np.asarray(features, dtype=np.float64)
        if feats.shape[-1] != self.std.shape[0]:
            raise ValueError(
                f"normalizer expects {self.std.shape[0]} features, got {feats.shape[-1]}"
            )
        if self.centered:
            feats = feats - self.mean
        return feats / self.std


@dataclass
class Dataset:
    """Feature/target matrices, plus the ``Normalizer`` once normalized."""

    features: np.ndarray
    targets: np.ndarray
    normalizer: Normalizer | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        f, y = self.features.shape, self.targets.shape
        if len(f) != 2 or len(y) not in (1, 2) or f[0] != y[0]:
            raise ValueError(f"dataset shapes {f} and {y} are not (n, d) and (n,) or (n, q)")
        if self.targets.ndim == 1:
            self.targets = self.targets[:, None]
        for name, mat in (("features", self.features), ("targets", self.targets)):
            bad = ~np.isfinite(mat)
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise ValueError(
                    f"dataset {name} hold a non-finite value, {float(mat[row, col])!r},"
                    f" at row {row}, column {col} (0-based)"
                )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def normalized(self) -> bool:
        return self.normalizer is not None

    @property
    def feature_std(self) -> np.ndarray | None:
        return None if self.normalizer is None else self.normalizer.std


def normalize(data: Dataset, center: bool = False) -> Dataset:
    """Scale each feature column by its population standard deviation.

    Means are fitted and recorded but subtracted only when ``center`` is
    set.  Constant columns keep their values: their std is recorded as 1
    and a warning is emitted.
    """
    if data.normalized:
        raise ValueError("dataset is already normalized")
    if data.n == 0:
        raise ValueError("cannot normalize an empty dataset")
    std = data.features.std(axis=0)
    constant = std == 0.0
    if constant.any():
        warnings.warn(
            f"{int(constant.sum())} constant feature column(s); std recorded as 1",
            stacklevel=2,
        )
        std = np.where(constant, 1.0, std)
    norm = Normalizer(std, data.features.mean(axis=0), center)
    return Dataset(norm.apply(data.features), data.targets.copy(), norm)


_TARGET_NAME = re.compile(r"^y\d*$")


def write_json(path, doc) -> None:
    """Write ``doc`` as key-sorted, 2-space-indented JSON and a newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Write a header line and one comma-separated line per row, taking
    ``rows`` lazily: floats as ``repr``, any other cell as ``str``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in itertools.chain((header,), rows):
            cells = (repr(float(c)) if isinstance(c, float) else str(c) for c in row)
            fh.write(",".join(cells) + "\n")


def parse_rows(path, rows, width: int | None = None) -> np.ndarray:
    """Parse CSV rows, given as (1-based line number, cells) pairs, into a
    float matrix of ``width`` columns (default: the first row's count);
    a row with another count or a non-numeric cell names its line."""
    if width is None:
        width = len(rows[0][1]) if rows else 0
    try:  # numpy parses a str cell as float() does
        out = np.array([cells for _, cells in rows], dtype=np.float64)
        if out.shape == (len(rows), width):
            return out
    except ValueError:
        pass
    out = np.empty((len(rows), width))
    for i, (line, cells) in enumerate(rows):
        if len(cells) != width:
            raise ValueError(f"{path}: line {line} has {len(cells)} cells, expected {width}")
        try:
            out[i] = [float(c) for c in cells]
        except ValueError as e:
            raise ValueError(f"{path}: line {line}: {e}") from None
    return out


# rows per block of a streamed CSV load or save
_BLOCK_ROWS = 1024


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV: header row, features first, targets in
    trailing columns named y (or y1..yq); one block of rows at a time."""
    q = data.targets.shape[1]
    names = [f"x{i + 1}" for i in range(data.dim)]
    names += ["y"] if q == 1 else [f"y{j + 1}" for j in range(q)]
    blocks = (
        np.hstack([data.features[i : i + _BLOCK_ROWS], data.targets[i : i + _BLOCK_ROWS]]).tolist()
        for i in range(0, data.n, _BLOCK_ROWS)
    )
    write_csv(path, names, itertools.chain.from_iterable(blocks))


def read_rows(path):
    """Yield a CSV file's non-empty rows as (1-based line number, cells)
    pairs; the file is open until the generator ends or is closed."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            if cells:
                yield reader.line_num, cells


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv (or any CSV with trailing y*
    columns), parsing one block of rows at a time; the file is closed
    before it returns or raises."""
    with closing(read_rows(path)) as rows:
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: empty file, no header row")
        header = first[1]
        is_target = [bool(_TARGET_NAME.match(name.strip())) for name in header]
        try:
            split = is_target.index(True)
        except ValueError:
            raise ValueError(f"{path}: no target columns (named y, y1, ...) found") from None
        if not all(is_target[split:]):
            raise ValueError(f"{path}: target columns must be trailing")
        blocks = [np.empty((0, len(header)))]
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            blocks.append(parse_rows(path, block, len(header)))
    mat = np.concatenate(blocks)
    return Dataset(mat[:, :split], mat[:, split:])


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden: tuple[int, ...] = (140, 100, 60, 20)
    output_dim: int = 1
    activation: str = "gelu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be at least 1")
        if any(w < 1 for w in self.hidden):
            raise ValueError("all hidden widths must be at least 1")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class Mlp:
    """Affine stack; weights[i] has shape (fan_out, fan_in)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: MlpConfig

    def __post_init__(self):
        dims = [self.config.input_dim, *self.config.hidden, self.config.output_dim]
        if not len(self.weights) == len(self.biases) == len(dims) - 1:
            raise ValueError(
                f"config has {len(dims) - 1} layers, got {len(self.weights)} weight "
                f"and {len(self.biases)} bias arrays"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} has shape {w.shape}, expected {(dims[i+1], dims[i])}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} contains non-finite values")


def init_mlp(cfg: MlpConfig) -> Mlp:
    """Fan-in scaled uniform weights (bound 1/sqrt(fan_in)), zero biases.

    The modest bound matters beyond optimization speed: larger-gain
    variants leave high-frequency initialization noise in the fitted
    net, which shows up directly in its second and higher derivatives
    and drowns out weak interactions downstream.
    """
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.input_dim, *cfg.hidden, cfg.output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases, cfg)


# Exact-erf GELU, 0.5 * x * (1 + erf(x / sqrt(2))), on numbers, arrays and CrossDuals.
gelu = GELU


def activation_table(cfg: MlpConfig) -> ElementaryTable:
    """The hidden activation's derivative table; training, the plain
    forward pass and the lattice pass all read it."""
    return GELU if cfg.activation == "gelu" else max_const_table(0.0)


# Row chunks of a lattice pass (see row_chunks).
CHUNK_BYTES = 1 << 20
CHUNK_MIN_COLUMNS = 8192


def row_chunks(model, rows: int, inputs: int, t: int) -> list[tuple[int, int]]:
    """The even (lo, hi) row chunks of a lattice pass of ``rows`` rows of
    ``inputs`` inputs each at t tags; a small batch is one chunk.

    With W the widest of the input and, for an ``Mlp``, its layers, and
    F = max(1, floor(CHUNK_BYTES / (W * 2^t * 8))) the rows that fit in
    CHUNK_BYTES, there are min(ceil(rows / F), floor(rows * W /
    CHUNK_MIN_COLUMNS)) chunks, and at least one.  CHUNK_BYTES (1 MiB)
    keeps each coefficient array of a chunk, its seeded input included,
    within a 2 MiB L2 cache, and bounds a pass's peak memory by the chunk
    rather than the batch.  CHUNK_MIN_COLUMNS keeps at least 8192 columns
    (rows times width) in each chunk, so numpy's ~1 us per call stays
    small against the work of each elementwise call.  A chunk given back
    to this rule is one chunk, so ``forward_lattice`` runs a caller's
    chunk whole.
    """
    width = inputs
    if isinstance(model, Mlp):
        width = max(width, *model.config.hidden, model.config.output_dim)
    fit = max(1, CHUNK_BYTES // (width << (t + 3)))
    n = max(1, min(-(-rows // fit), rows * width // CHUNK_MIN_COLUMNS))
    return [(rows * c // n, rows * (c + 1) // n) for c in range(n)]


def forward_lattice(model, arr: np.ndarray, t: int) -> np.ndarray:
    """Push a batch of lattice coefficients through a model.

    ``arr`` has shape (batch, inputs, 2^t).  An ``Mlp`` returns shape
    (batch, output_dim, 2^t), whose entry [..., 0] is the plain forward
    pass up to the summation order of the affine maps.  Any other
    callable goes through ``lattice_call``, giving (batch, 1, 2^t).

    An ``Mlp`` takes its batch in the row chunks of ``row_chunks``, each
    written into one result array.  No layer-sized array outlives its
    last reader: a layer's input is dropped once its pre-activation z is
    formed, and lattice_compose writes its level 0 into z's buffer
    (``overwrite_g``).  So a dense layer holds 2.5 layer arrays at the
    peak (z's live rows, copied subset-first, and two chain-rule levels)
    and 2 while it transposes level 0 into the layer's output.  detect,
    whose batch can be too large to seed whole, builds and passes it one
    ``row_chunks`` chunk at a time.

    Chunking leaves every finite result's bytes as they are.  np.matmul
    runs one product per batch row, and lattice_compose works column by
    column.  A chunk's live blocks are a subset of the batch's: the
    blocks it drops add +-0 * x terms, and lattice_compose's final
    +0.0 clears the sign of a zero, so no byte moves (the GELU and ReLU
    derivatives are always finite).  A batch whose rows share one value
    slot shares it within each chunk too, so each chunk still takes the
    derivative series once.
    """
    if not isinstance(model, Mlp):
        return lattice_call(model, arr, t)[:, None, :]
    table = activation_table(model.config)
    last = len(model.weights) - 1
    out = np.empty((len(arr), model.config.output_dim, 1 << t))
    for lo, hi in row_chunks(model, len(arr), arr.shape[1], t):
        h = arr[lo:hi]
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = np.matmul(w, h)
            del h
            z[..., 0] += b
            # looked up in this module at call time, so a patched or traced
            # lattice_compose sees every chain rule
            h = z if i == last else lattice_compose(table, z, t, overwrite_g=True)
            del z
        out[lo:hi] = h
    return out


def forward(model: Mlp, x):
    """Evaluate the network on a single point (1d array) or a batch (2d).

    Derivatives come from ``forward_lattice`` instead, whose [..., 0]
    slot equals this pass up to rounding: each activation's value is
    the same expression, but the affine maps sum in another order (the
    tests hold the two to 1e-12 relative).
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    h = arr[None, :] if single else arr
    if h.shape[1] != model.config.input_dim:
        raise ValueError(f"expected {model.config.input_dim} features, got {h.shape[1]}")
    out = _forward_into(model, h, _forward_buffers(len(h), model.config))
    return (out[0] if single else out).copy()


def _forward_buffers(rows: int, cfg: MlpConfig) -> tuple[np.ndarray, np.ndarray]:
    """The two flat buffers ``_forward_into`` needs for ``rows`` rows."""
    size = rows * max((*cfg.hidden, cfg.output_dim))
    return np.empty(size), np.empty(size)


def _forward_into(model: Mlp, h: np.ndarray, buffers) -> np.ndarray:
    """The plain pass over the rows of ``h``: each layer's pre-activation
    is written into the first buffer and its activation into the second
    (see ``_forward_buffers``).  Returns the output layer, a view into the
    first buffer.  Training's validation pass runs it on a worker thread,
    so it calls nothing that ``bench/bindings.py`` wraps: the benchmark's
    tracer keeps one span stack per process."""
    zbuf, hbuf = buffers
    table = activation_table(model.config)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        shape = (len(h), len(w))
        z = np.matmul(h, w.T, out=zbuf[: math.prod(shape)].reshape(shape))
        z += b
        if i == last:
            return z
        h = hbuf[: z.size].reshape(shape)
        table.into(z, h)


def softmax_lattice(arr: np.ndarray, t: int) -> np.ndarray:
    """Softmax across axis 1 of a (batch, classes, 2^t) coefficient array."""
    shifted = arr.copy()
    shifted[..., 0] -= arr[..., 0].max(axis=1, keepdims=True)
    e = lattice_compose(EXP, shifted, t)
    total = e.sum(axis=1, keepdims=True)
    return lattice_mul(e, lattice_compose(RECIPROCAL, total, t), t)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.003
    max_epochs: int = 200
    patience: int = 10
    batch_size: int = 100
    val_fraction: float = 0.2
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}"
            )
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie strictly between 0 and 1")
        for name in ("max_epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainingReport:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    stopped_epoch: int
    best_val_loss: float


def _loss(pred: np.ndarray, y: np.ndarray, classification: bool) -> float:
    """Mean loss: softmax cross-entropy by an exact log-softmax for
    classification, squared error otherwise."""
    if classification:
        z = pred - pred.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-np.sum(y * logp) / len(y))
    diff = pred - y
    return float(np.mean(diff * diff))


def _loss_and_grad(pred: np.ndarray, y: np.ndarray, classification: bool):
    """``_loss`` and its gradient in ``pred``."""
    grad = (_softmax(pred) - y) / len(y) if classification else 2.0 * (pred - y) / y.size
    return _loss(pred, y, classification), grad


def _flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive pieces of ``flat``, reshaped to ``shapes``: views, not copies."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


def train(data: Dataset, mcfg: MlpConfig, tcfg: TrainConfig) -> tuple[Mlp, TrainingReport]:
    """Minibatch training with early stopping on a held-out split.

    Regression (output_dim 1) minimizes mean squared error; wider heads
    are trained as classifiers with softmax cross-entropy on one-hot (or
    soft) target rows.  Returns the weights of the best validation epoch.

    Regression targets are standardized internally (centered, unit
    spread) so the optimizer sees the same residual scale regardless of
    the target's units; the affine map is folded back into the last
    layer afterwards and reported losses stay in raw target units, so
    the returned model and report read as if the loop had run on raw
    targets with better conditioning.

    A step allocates nothing the size of the network.  Every weight and
    bias is a reshaped view into one flat vector, and every gradient a
    view into a second one, which the backward pass fills through
    ``out=``; each batch size keeps its own pre-activation, activation,
    slope and delta buffers, which the activation table's ``out=`` form
    fills; Adam or SGD then updates the flat vector in place through two
    scratch vectors, in the same operand order as a per-array update, so
    the bytes are those of one.

    Validation runs one epoch behind, on one worker thread owned by this
    call.  At the end of epoch e the flat vector is copied into a
    snapshot, and the worker computes epoch e's validation loss on it
    while epoch e+1 trains.  The main thread collects that loss at the
    first step boundary after it is ready (at the latest before epoch
    e+1 ends): it records the loss, keeps the snapshot if it is the best
    so far, and stops when patience runs out, dropping the partial epoch
    e+1.  So the model, the report and the stopped epoch are those of
    validating each epoch before the next one starts.  A non-finite
    training loss raises at the end of its epoch, a non-finite
    validation loss when it is collected; either names its epoch.  The
    worker is shut down before ``train`` returns or raises.
    """
    if not data.normalized:
        raise ValueError("train expects a normalized dataset")
    if data.dim != mcfg.input_dim:
        raise ValueError(f"dataset has {data.dim} features, config expects {mcfg.input_dim}")
    if data.targets.shape[1] != mcfg.output_dim:
        raise ValueError(
            f"dataset has {data.targets.shape[1]} targets, config expects {mcfg.output_dim}"
        )
    classification = mcfg.output_dim > 1
    y_scale, y_shift = 1.0, 0.0
    if not classification:
        spread = float(data.targets.std())
        if math.isfinite(spread) and spread > 0.0:
            y_scale = spread
        y_shift = float(data.targets.mean())
    if y_scale != 1.0 or y_shift != 0.0:
        targets = (data.targets - y_shift) / y_scale
    else:
        targets = data.targets
    rng = np.random.default_rng(tcfg.seed)
    perm = rng.permutation(data.n)
    n_val = max(1, int(round(tcfg.val_fraction * data.n)))
    if n_val >= data.n:
        raise ValueError("validation split leaves no training rows")
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_tr, y_tr = data.features[train_idx], targets[train_idx]
    x_va, y_va = data.features[val_idx], targets[val_idx]

    init = init_mlp(mcfg)
    nlayers = len(init.weights)
    dims = [mcfg.input_dim, *mcfg.hidden, mcfg.output_dim]
    shapes = [a.shape for a in init.weights + init.biases]
    flat = np.concatenate([a.ravel() for a in init.weights + init.biases])
    grad = np.zeros_like(flat)
    params, grads = _flat_views(flat, shapes), _flat_views(grad, shapes)
    weights, biases = params[:nlayers], params[nlayers:]
    grads_w, grads_b = grads[:nlayers], grads[nlayers:]
    table = activation_table(mcfg)
    adam_m, adam_v = np.zeros_like(flat), np.zeros_like(flat)
    scratch, scratch2 = np.empty_like(flat), np.empty_like(flat)
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = tcfg.learning_rate
    nsteps = 0
    # per batch size: each layer's pre-activation; each hidden layer's
    # activation, slope and delta
    buffers: dict[int, tuple[list[np.ndarray], ...]] = {}

    def step(idx: np.ndarray) -> float:
        """One optimizer step on the rows ``idx``; returns their summed loss."""
        nonlocal nsteps
        nonlocal flat, adam_m, adam_v, scratch  # rebound only by in-place operators
        if len(idx) not in buffers:
            buffers[len(idx)] = tuple(
                [np.empty((len(idx), d)) for d in widths]
                for widths in (dims[1:], dims[1:-1], dims[1:-1], dims[1:-1])
            )
        zs, acts, slopes, deltas = buffers[len(idx)]
        xb, yb = x_tr[idx], y_tr[idx]
        inputs = [xb, *acts]
        for i in range(nlayers):
            z = np.matmul(inputs[i], weights[i].T, out=zs[i])
            z += biases[i]
            if i < nlayers - 1:
                table.into(z, acts[i], slopes[i])
        loss, delta = _loss_and_grad(zs[-1], yb, classification)
        # backward, into the gradient vector's views
        for i in range(nlayers - 1, -1, -1):
            np.matmul(delta.T, inputs[i], out=grads_w[i])
            np.sum(delta, axis=0, out=grads_b[i])
            if i > 0:
                delta = np.matmul(delta, weights[i], out=deltas[i - 1])
                delta *= slopes[i - 1]
        nsteps += 1
        if tcfg.optimizer == "adam":
            # m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
            # flat -= lr (m / c1) / (sqrt(v / c2) + eps)
            adam_m *= b1
            adam_m += np.multiply(1 - b1, grad, out=scratch)
            adam_v *= b2
            np.multiply(1 - b2, grad, out=scratch)
            scratch *= grad
            adam_v += scratch
            denom = np.sqrt(np.divide(adam_v, 1 - b2**nsteps, out=scratch2), out=scratch2)
            denom += eps
            update = np.divide(adam_m, 1 - b1**nsteps, out=scratch)
            update *= lr
            update /= denom
            flat -= update
        else:
            flat -= np.multiply(lr, grad, out=scratch)
        return loss * len(idx)

    # The worker validates the snapshot; it starts as a copy of flat
    # because Mlp rejects non-finite weights.
    snapshot = flat.copy()
    views = _flat_views(snapshot, shapes)
    val_model = Mlp(views[:nlayers], views[nlayers:], mcfg)
    val_buffers = _forward_buffers(n_val, mcfg)

    def validate() -> float:
        return _loss(_forward_into(val_model, x_va, val_buffers), y_va, classification)

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch, best_val = 0, math.inf
    best = flat.copy()
    pending = None  # the future of the last epoch's validation loss

    def collect(wait: bool) -> bool:
        """Settle the pending validation loss if it is ready (or once it
        is, with ``wait``); True when it ends training."""
        nonlocal pending, best_epoch, best_val
        if pending is None or not (wait or pending.done()):
            return False
        val_loss, pending = pending.result(), None
        epoch = len(val_losses) + 1
        if not math.isfinite(val_loss):
            raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
        val_losses.append(val_loss)
        log.debug("epoch %d train %.6g val %.6g", epoch, train_losses[-1], val_loss)
        if val_loss < best_val:
            best_epoch, best_val = epoch, val_loss
            best[...] = snapshot
        return epoch - best_epoch >= tcfg.patience

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="xdiff-validate") as worker:
        for epoch in range(1, tcfg.max_epochs + 1):
            order = rng.permutation(len(x_tr))
            epoch_loss, halt = 0.0, False
            for start in range(0, len(x_tr), tcfg.batch_size):
                halt = collect(wait=False)
                if halt:
                    break  # the last epoch ended training: drop this partial one
                epoch_loss += step(order[start : start + tcfg.batch_size])
            if halt or collect(wait=True):
                break
            train_loss = epoch_loss / len(x_tr)
            if not math.isfinite(train_loss):
                raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
            train_losses.append(train_loss)
            snapshot[...] = flat
            pending = worker.submit(validate)
        else:
            collect(wait=True)
    stopped = len(val_losses)

    kept = [v.copy() for v in _flat_views(best, shapes)]
    best_weights, best_biases = kept[:nlayers], kept[nlayers:]
    if y_scale != 1.0 or y_shift != 0.0:
        best_weights[-1] = best_weights[-1] * y_scale
        best_biases[-1] = best_biases[-1] * y_scale + y_shift
        raw = y_scale * y_scale
        train_losses = [l * raw for l in train_losses]
        val_losses = [l * raw for l in val_losses]
        best_val *= raw
    report = TrainingReport(train_losses, val_losses, best_epoch, stopped, best_val)
    return Mlp(best_weights, best_biases, mcfg), report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: Mlp, path, normalizer: Normalizer | None = None) -> None:
    doc = {
        "config": asdict(model.config),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
    }
    if normalizer is not None:
        doc["normalizer"] = {
            "std": normalizer.std.tolist(),
            "mean": normalizer.mean.tolist(),
            "centered": normalizer.centered,
        }
    write_json(path, doc)


def load_model(path) -> tuple[Mlp, Normalizer | None]:
    """Read a checkpoint written by ``save_model``.  Every error names the
    path: a file that is not JSON, or a missing or ill-typed ``config``,
    ``layers``, ``layers[i].weights``, ``layers[i].bias`` or
    ``normalizer``, raises a ValueError that also names the field.  A
    config the model rejects keeps its error's type (TypeError for an
    unknown or missing key)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not a JSON checkpoint: {e}") from None

    def bad(name: str) -> ValueError:
        return ValueError(f"{path}: checkpoint field {name} is missing or ill-typed")

    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise bad("config")
    try:
        cfg = MlpConfig(**doc["config"])
    except (TypeError, ValueError) as e:
        raise type(e)(f"{path}: config: {e}") from None
    if not isinstance(doc.get("layers"), list):
        raise bad("layers")
    arrays = []
    for i, layer in enumerate(doc["layers"]):
        for key in ("weights", "bias"):
            try:
                arrays.append(np.asarray(layer[key], dtype=np.float64))
            except (KeyError, TypeError, ValueError):
                raise bad(f"layers[{i}].{key}") from None
    norm = None
    if "normalizer" in doc:
        try:
            norm = Normalizer(**doc["normalizer"])
        except (TypeError, ValueError):
            raise bad("normalizer") from None
    try:
        return Mlp(arrays[0::2], arrays[1::2], cfg), norm
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
