"""Small dense network with deterministic training, plus its data plumbing.

The model is a plain affine stack with GELU (or ReLU) hidden activations
and a linear head, trained by minibatch Adam or SGD with early stopping
on a validation split.  Everything is seeded and runs in one Python
thread, so a given (data, config) pair reproduces bit-identical weights.
The matrix products would sum in another order at another OpenBLAS
thread count, so importing xdiff pins OpenBLAS to one thread (``blas``);
where it cannot (numpy loaded first with a BLAS whose setter it does not
find) it warns once, and the weights then depend on the thread count.

``forward`` evaluates plain arrays.  ``forward_lattice`` pushes a batch
of subset-lattice coefficients through the same affine and activation
stack, so any mixed partial derivative of the trained network is
available exactly; it is the one route from lattice coefficients into a
model, and it hands a callable model its inputs as batched CrossDuals.
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
written by ``write_json``, every CSV by ``write_csv``.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    EXP,
    GELU,
    MAX_TAGS,
    RECIPROCAL,
    CapacityError,
    CrossDual,
    ElementaryTable,
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
    """Reject mixed partials of ``order`` that the lattice cannot carry, or
    that a ReLU model (zero second derivative) makes meaningless."""
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
    """Write a header line and one comma-separated line per row: floats
    as ``repr``, any other cell as ``str``; no quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in (header, *rows):
            cells = (repr(float(c)) if isinstance(c, float) else str(c) for c in row)
            fh.write(",".join(cells) + "\n")


def parse_rows(path, rows, width: int | None = None) -> np.ndarray:
    """Parse CSV rows, given as (1-based line number, cells) pairs, into a
    float matrix of ``width`` columns (default: the first row's count);
    a row with another count or a non-numeric cell names its line."""
    if width is None:
        width = len(rows[0][1]) if rows else 0
    out = np.empty((len(rows), width))
    for i, (line, cells) in enumerate(rows):
        if len(cells) != width:
            raise ValueError(f"{path}: line {line} has {len(cells)} cells, expected {width}")
        try:
            out[i] = [float(c) for c in cells]
        except ValueError as e:
            raise ValueError(f"{path}: line {line}: {e}") from None
    return out


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV: header row, features first, targets in
    trailing columns named y (or y1..yq)."""
    q = data.targets.shape[1]
    names = [f"x{i + 1}" for i in range(data.dim)]
    names += ["y"] if q == 1 else [f"y{j + 1}" for j in range(q)]
    write_csv(path, names, np.hstack([data.features, data.targets]).tolist())


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv (or any CSV with trailing y* columns)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header row")
        rows = [(reader.line_num, r) for r in reader if r]
    is_target = [bool(_TARGET_NAME.match(name.strip())) for name in header]
    try:
        split = is_target.index(True)
    except ValueError:
        raise ValueError(f"{path}: no target columns (named y, y1, ...) found") from None
    if not all(is_target[split:]):
        raise ValueError(f"{path}: target columns must be trailing")
    mat = parse_rows(path, rows, len(header))
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


def gelu(x):
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    return GELU(x)


def activation_table(cfg: MlpConfig) -> ElementaryTable:
    """The hidden activation's derivative table; training, the plain
    forward pass and the lattice pass all read it."""
    return GELU if cfg.activation == "gelu" else max_const_table(0.0)


def forward_lattice(model, arr: np.ndarray, t: int) -> np.ndarray:
    """Push a batch of lattice coefficients through a model.

    ``arr`` has shape (batch, inputs, 2^t).  An ``Mlp`` returns shape
    (batch, output_dim, 2^t), whose entry [..., 0] is the plain forward
    pass up to the summation order of the affine maps.  Any other
    callable receives the input columns as a list of batched CrossDuals
    and returns one scalar, giving shape (batch, 1, 2^t); a plain-number
    return means every partial is zero.
    """
    if not isinstance(model, Mlp):
        y = model([CrossDual(t, arr[:, j, :]) for j in range(arr.shape[1])])
        if isinstance(y, CrossDual):
            return np.broadcast_to(y.coeffs, arr.shape[:1] + (1 << t,))[:, None, :]
        out = np.zeros((arr.shape[0], 1, 1 << t))
        out[..., 0] = y
        return out
    table = activation_table(model.config)
    h = arr
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(w, h)
        z[..., 0] += b
        h = z if i == last else lattice_compose(table, z, t)
    return h


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
    table = activation_table(model.config)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        h = z if i == last else table(z)
    return h[0] if single else h


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
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie strictly between 0 and 1")
        for name in ("max_epochs", "batch_size"):
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


def _loss_and_grad(pred: np.ndarray, y: np.ndarray, classification: bool):
    """Mean loss and its gradient in ``pred``: softmax cross-entropy by an
    exact log-softmax for classification, squared error otherwise."""
    if classification:
        z = pred - pred.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-np.sum(y * logp) / len(y)), (_softmax(pred) - y) / len(y)
    diff = pred - y
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


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
    ``out=``; each batch size keeps its own pre-activation and delta
    buffers; Adam or SGD then updates the flat vector in place through
    two scratch vectors, in the same operand order as a per-array
    update, so the bytes are those of one.  The activation's value and
    slope still come from its derivative table, fresh per step.
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
    model = Mlp(weights, biases, mcfg)  # views of flat, for the validation pass
    table = activation_table(mcfg)
    adam_m, adam_v = np.zeros_like(flat), np.zeros_like(flat)
    scratch, scratch2 = np.empty_like(flat), np.empty_like(flat)
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = tcfg.learning_rate
    step = 0
    # per batch size: each layer's pre-activation, each hidden layer's delta
    buffers: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch, best_val = 0, math.inf
    best = flat.copy()
    stopped = 0

    for epoch in range(1, tcfg.max_epochs + 1):
        order = rng.permutation(len(x_tr))
        epoch_loss = 0.0
        for start in range(0, len(x_tr), tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            if len(idx) not in buffers:
                buffers[len(idx)] = (
                    [np.empty((len(idx), d)) for d in dims[1:]],
                    [np.empty((len(idx), d)) for d in dims[1:-1]],
                )
            zs, deltas = buffers[len(idx)]
            xb, yb = x_tr[idx], y_tr[idx]
            # forward, caching each hidden activation's slope
            acts = [xb]
            slopes = []
            for i in range(nlayers):
                h = np.matmul(acts[i], weights[i].T, out=zs[i])
                h += biases[i]
                if i < nlayers - 1:
                    h, slope = table.series(1, h)
                    slopes.append(slope)
                acts.append(h)
            loss, delta = _loss_and_grad(h, yb, classification)
            epoch_loss += loss * len(idx)
            # backward, into the gradient vector's views
            for i in range(nlayers - 1, -1, -1):
                np.matmul(delta.T, acts[i], out=grads_w[i])
                np.sum(delta, axis=0, out=grads_b[i])
                if i > 0:
                    delta = np.matmul(delta, weights[i], out=deltas[i - 1])
                    delta *= slopes[i - 1]
            step += 1
            if tcfg.optimizer == "adam":
                # m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
                # flat -= lr (m / c1) / (sqrt(v / c2) + eps)
                adam_m *= b1
                adam_m += np.multiply(1 - b1, grad, out=scratch)
                adam_v *= b2
                np.multiply(1 - b2, grad, out=scratch)
                scratch *= grad
                adam_v += scratch
                denom = np.sqrt(np.divide(adam_v, 1 - b2**step, out=scratch2), out=scratch2)
                denom += eps
                update = np.divide(adam_m, 1 - b1**step, out=scratch)
                update *= lr
                update /= denom
                flat -= update
            else:
                flat -= np.multiply(lr, grad, out=scratch)

        train_loss = epoch_loss / len(x_tr)
        val_loss, _ = _loss_and_grad(forward(model, x_va), y_va, classification)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        log.debug("epoch %d train %.6g val %.6g", epoch, train_loss, val_loss)
        if val_loss < best_val:
            best_epoch, best_val = epoch, val_loss
            best[...] = flat
        if epoch - best_epoch >= tcfg.patience:
            stopped = epoch
            break
    else:
        stopped = tcfg.max_epochs

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
    doc = json.loads(Path(path).read_text())
    cfg = MlpConfig(**doc["config"])
    weights = [np.asarray(l["weights"], dtype=np.float64) for l in doc["layers"]]
    biases = [np.asarray(l["bias"], dtype=np.float64) for l in doc["layers"]]
    norm = Normalizer(**doc["normalizer"]) if "normalizer" in doc else None
    return Mlp(weights, biases, cfg), norm
