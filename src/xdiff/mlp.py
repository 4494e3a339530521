"""Small dense network with deterministic training, plus its data plumbing.

The model is a plain affine stack with GELU (or ReLU) hidden activations
and a linear head, trained by minibatch Adam or SGD with early stopping
on a validation split.  Everything is seeded, so a given (data, config)
pair reproduces bit-identical weights while OpenBLAS runs on one thread,
as importing xdiff sets it (``blas``, which warns where it cannot).

``forward`` evaluates plain arrays; ``forward_lattice`` pushes seeded
subset-lattice rows through the same stack, so any mixed partial of the
trained network is available exactly.  GELU uses the exact erf form.
The plain pass, the lattice pass and training's backward pass all read
the activation from one derivative table in ``autodiff``.

Datasets are feature/target matrices with scale-only normalization.
Every JSON and CSV artifact is written whole or not at all
(``replacing``).
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import os
import re
import warnings
from contextlib import closing, contextmanager
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
    _compose_levels,
    _live_chain_pairs,
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


# --- Datasets --------------------------------------------------------------


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


@contextmanager
def replacing(path):
    """A UTF-8 text file written beside ``path`` and moved onto it when
    the block ends, or removed if it raises: ``path`` is never partial."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc) -> None:
    """Write ``doc`` as key-sorted, 2-space-indented JSON and a newline."""
    with replacing(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a header line and one comma-separated line per row, taking
    ``rows`` lazily: floats as ``repr``, any other cell as ``str``."""
    with replacing(path) as fh:
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


# --- Model -----------------------------------------------------------------


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
    A larger gain leaves initialization noise in the fitted net's higher
    derivatives, which drowns out weak interactions."""
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

    With W the widest of an ``Mlp``'s layers, or the input count for a
    callable or an ``Mlp`` without hidden layers (their chunks are seeded
    densely), and F = max(1, floor(CHUNK_BYTES / (W * 2^t * 8))) the rows
    that fit in CHUNK_BYTES, there are min(ceil(rows / F), floor(rows * W
    / CHUNK_MIN_COLUMNS)) chunks, and at least one: a pass's peak memory
    is bounded by the chunk, and each numpy call has at least
    CHUNK_MIN_COLUMNS columns of work.  A chunk given back to this rule
    is one chunk.
    """
    width = inputs
    if isinstance(model, Mlp) and model.config.hidden:
        width = max(*model.config.hidden, model.config.output_dim)
    fit = max(1, CHUNK_BYTES // (width << (t + 3)))
    n = max(1, min(-(-rows // fit), rows * width // CHUNK_MIN_COLUMNS))
    return [(rows * c // n, rows * (c + 1) // n) for c in range(n)]


def forward_lattice(model, tags: np.ndarray, t: int, *, value, bank, top_only=False) -> np.ndarray:
    """Push a batch of seeded lattice rows, given by their parts, through
    a model: every row's value slot holds ``value`` (one entry per input),
    row r's tag i runs along ``bank[:, tags[r, i]]``, a column of the
    (inputs, m) ``bank``, and every other coefficient is zero.  An
    ``Mlp`` returns shape (rows, output_dim, 2^t), whose entry [..., 0]
    is the plain forward pass up to the summation order of the affine
    maps; a callable gets each row chunk's dense input (``lattice_call``)
    and gives (rows, 1, 2^t).  ``top_only`` returns the full-mask
    coefficient alone, (rows, output_dim).

    The rows run in ``row_chunks``.  Each row has the bytes of the dense
    seeded pass of that row alone wherever its coefficients are finite:
    an ``Mlp``'s first layer is one gemm of W0 in the per-row (fan_out,
    inputs) @ (inputs, 2^t) shape, whose columns do not depend on their
    position, and the blocks a chunk drops add only +-0 * x terms.
    """
    tags = np.asarray(tags, dtype=np.intp)
    isnet = isinstance(model, Mlp)
    out = np.empty((len(tags), model.config.output_dim if isnet else 1, 1 << t))
    if isnet:
        table, last = activation_table(model.config), len(model.weights) - 1
        # the value and bank columns through one gemm with W0, 2^t to a block
        k, fan, c = 1 << t, len(model.biases[0]), np.arange(1, 1 + bank.shape[1])
        blocks = np.zeros((len(c) // k + 1, value.size, k))
        blocks[0, :, 0] = value
        blocks[c // k, :, c % k] = bank.T
        cols = np.matmul(model.weights[0], blocks).transpose(0, 2, 1).reshape(-1, fan)
        del blocks
        z0, dirs = cols[0] + model.biases[0], cols[1 : len(c) + 1]
        table.check(z0)
        series = table.series(t, z0[None])
        # the live blocks of the first layer's chain rule: the single tags {i}
        chain = _live_chain_pairs(t, bytes(int(m & (m - 1) == 0) for m in range(1 << t)))
    for lo, hi in row_chunks(model, len(tags), value.size, t):
        if not isnet:
            out[lo:hi, 0] = lattice_call(model, _seeded(value, bank, tags[lo:hi], t), t)
            continue
        if last == 0:  # no hidden layer: the output layer takes the seeded input
            h = _seeded(value, bank, tags[lo:hi], t)
        else:
            deriv = [np.broadcast_to(d, (hi - lo, fan)) for d in series]
            rows = {1 << i: dirs[tags[lo:hi, i]].ravel() for i in range(t)}
            h = _compose_levels(deriv, rows, chain, t, top_only=top_only and last == 1)
            h = np.ascontiguousarray(np.moveaxis(h.reshape(1 << t, hi - lo, fan), 0, -1))
        for i in range(min(1, last), last + 1):
            z = np.matmul(model.weights[i], h)
            del h
            z[..., 0] += model.biases[i]
            # looked up in this module at call time, so a patched or traced
            # lattice_compose sees every dense chain rule
            top = top_only and i == last - 1
            h = z if i == last else lattice_compose(table, z, t, overwrite_g=True, top_only=top)
            del z
        out[lo:hi] = h
    return out[..., -1] if top_only else out


def _seeded(value: np.ndarray, bank: np.ndarray, tags: np.ndarray, t: int) -> np.ndarray:
    """The dense (rows, inputs, 2^t) input of the seeded rows ``tags``."""
    arr = np.zeros((len(tags), value.size, 1 << t))
    arr[..., 0] = value
    arr[..., 1 << np.arange(t)] = bank[:, tags].transpose(1, 0, 2)
    return arr


def forward(model: Mlp, x):
    """Evaluate the network on a single point (1d array) or a batch (2d).
    The [..., 0] slot of ``forward_lattice`` equals this pass to 1e-12
    relative, as the tests hold it: its affine maps sum in another order."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    h = arr[None, :] if single else arr
    if h.shape[1] != model.config.input_dim:
        raise ValueError(f"expected {model.config.input_dim} features, got {h.shape[1]}")
    out = _forward_into(model, h, _forward_buffers(len(h), model.config))
    return (out[0] if single else out).copy()


_ACT_ROWS = 128  # rows per block of the plain pass's in-place activation


def _forward_buffers(rows: int, cfg: MlpConfig) -> tuple[np.ndarray, ...]:
    """The flat buffers ``_forward_into`` needs for ``rows`` rows: one
    for the widest even-indexed layer, one for the widest odd-indexed
    layer, and an activation scratch of at most ``_ACT_ROWS`` rows."""
    widths = (*cfg.hidden, cfg.output_dim)
    even, odd = max(widths[0::2]), max(widths[1::2], default=0)
    scratch = min(rows, _ACT_ROWS) * max(cfg.hidden, default=0)
    return np.empty(rows * even), np.empty(rows * odd), np.empty(scratch)


def _forward_into(model: Mlp, h: np.ndarray, buffers) -> np.ndarray:
    """The plain pass over the rows of ``h``: layer i's gemm writes into
    buffer i mod 2 (see ``_forward_buffers``), whole, since a gemm cut
    into row blocks can sum in another order; the elementwise activation
    is applied in place, one row block at a time through the scratch.
    Returns the output layer, a view into a buffer."""
    *layer_bufs, scratch = buffers
    table = activation_table(model.config)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        shape = (len(h), len(w))
        z = np.matmul(h, w.T, out=layer_bufs[i % 2][: math.prod(shape)].reshape(shape))
        z += b
        if i == last:
            return z
        for lo in range(0, len(z), _ACT_ROWS):
            block = z[lo : lo + _ACT_ROWS]
            act = scratch[: block.size].reshape(block.shape)
            table.into(block, act)
            block[...] = act
        h = z


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


# --- Training --------------------------------------------------------------


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

    Regression (output_dim 1) minimizes mean squared error on targets
    standardized internally (centered, unit spread); the affine map is
    folded back into the last layer afterwards and the reported losses
    are in raw target units.  Wider heads are trained as classifiers with
    softmax cross-entropy on one-hot (or soft) target rows.  Returns the
    weights of the best validation epoch.  A non-finite training or
    validation loss raises TrainingError, naming its epoch.

    No copy of the training split is made: a step gathers its batch by
    index, and updates the parameters as one flat vector in place, in
    the operand order of a per-array update, so the bytes are those of
    one.
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
    x_va, y_va = data.features[val_idx], targets[val_idx]

    init = init_mlp(mcfg)
    nlayers = len(init.weights)
    dims = [mcfg.input_dim, *mcfg.hidden, mcfg.output_dim]
    shapes = [a.shape for a in init.weights + init.biases]
    flat = np.concatenate([a.ravel() for a in init.weights + init.biases])
    del init  # flat holds its values
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
        """One optimizer step on the dataset rows ``idx``; returns their summed loss."""
        nonlocal nsteps
        nonlocal flat, adam_m, adam_v, scratch  # rebound only by in-place operators
        if len(idx) not in buffers:
            buffers[len(idx)] = tuple(
                [np.empty((len(idx), d)) for d in widths]
                for widths in (dims[1:], dims[1:-1], dims[1:-1], dims[1:-1])
            )
        zs, acts, slopes, deltas = buffers[len(idx)]
        xb, yb = data.features[idx], targets[idx]
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

    val_model = Mlp(weights, biases, mcfg)  # views into flat, finite at init
    val_buffers = _forward_buffers(n_val, mcfg)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch, best_val = 0, math.inf
    best = flat.copy()
    for epoch in range(1, tcfg.max_epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        for start in range(0, len(order), tcfg.batch_size):
            epoch_loss += step(order[start : start + tcfg.batch_size])
        train_loss = epoch_loss / len(order)
        if not math.isfinite(train_loss):
            raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
        val_loss = _loss(_forward_into(val_model, x_va, val_buffers), y_va, classification)
        if not math.isfinite(val_loss):
            raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        log.debug("epoch %d train %.6g val %.6g", epoch, train_loss, val_loss)
        if val_loss < best_val:
            best_epoch, best_val = epoch, val_loss
            best[...] = flat
        if epoch - best_epoch >= tcfg.patience:
            break
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


# --- Checkpoints -----------------------------------------------------------


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
