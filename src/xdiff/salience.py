"""Interaction salience over grids of feature vectors.

A grid holds n feature vectors of dimension d.  The first-order
importance of vector i weights the model gradient by x_i's coordinates;
higher orders differentiate that inner sum once per additional vector,
summing over each vector's coordinates.  Every entry of the resulting
order-l tensor is a single multilinear directional derivative, which one
lattice row with l tags computes: tag 0 carries x_i's coordinates as the
direction (on vector i alone for the local variant, replicated across
every vector slot otherwise) and each further tag carries an all-ones
direction over one vector's coordinates.  Those further tags are
interchangeable, so entry (i, j, k, ...) is the same mixed partial for
every ordering of j, k, ...: one row per vector i and multiset of the
others is evaluated, and every ordering's cell is a copy of it.

Models can be ``Mlp`` instances over the flattened n*d input or
callables taking the grid as a list of n rows of d scalars, which is how
analytic toys plug in.  Either way one batched lattice pass computes a
whole tensor: a callable is called once, on rows of batched CrossDuals
holding one index tuple per batch row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from .mlp import Mlp, check_derivative_order, forward_lattice, replacing


@dataclass(frozen=True)
class FeatureGrid:
    """n feature vectors of dimension d, with an optional rows*cols
    spatial layout used only for rendering."""

    x: np.ndarray
    layout: tuple[int, int] | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"grid must be a 2-d matrix, got shape {x.shape}")
        n, d = x.shape
        if n < 2 or d < 1:
            raise ValueError(f"grid needs at least 2 vectors of dimension >= 1, got {n}x{d}")
        if not np.isfinite(x).all():
            raise ValueError("grid contains non-finite entries")
        object.__setattr__(self, "x", x)
        if self.layout is not None:
            r, c = self.layout
            if r < 1 or c < 1 or r * c != n:
                raise ValueError(f"layout {r}x{c} does not tile {n} vectors")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class CamOptions:
    local_k: bool = True
    square: bool = True
    symmetrize: bool = True
    zero_diagonal: bool = True
    sum_before_square: bool = False
    rectify: bool = False


@dataclass(frozen=True)
class SalienceTensor:
    order: int
    values: np.ndarray
    symmetrized: bool = False
    diagonal_zeroed: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != self.order:
            raise ValueError(f"order-{self.order} tensor cannot have shape {v.shape}")
        if self.order >= 1 and len(set(v.shape)) > 1:
            raise ValueError(f"tensor axes must share one grid size, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("salience values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@lru_cache(maxsize=32)
def _cell_schedule(n: int, order: int, zero_diagonal: bool):
    """The lattice rows of an order-l tensor over n vectors and the cells
    each one fills.

    Tags 1..l-1 each carry an all-ones direction over one vector, so a
    tag is only a label: the cells (i, *rest) for every ordering of rest
    hold one mixed partial.  One row (i, *sorted(rest)) is evaluated per
    vector i and multiset rest of the other l-1 indices (distinct, and
    other than i, under zero_diagonal).  Returns the rows as a tuple of
    index tuples, every cell they fill as an l-tuple of index arrays
    (numpy fancy-index form), and each cell's row as an index array.
    """
    rows, cells, source = [], [], []
    for i in range(n):
        if zero_diagonal:
            rests = combinations([v for v in range(n) if v != i], order - 1)
        else:
            rests = combinations_with_replacement(range(n), order - 1)
        for rest in rests:
            for perm in dict.fromkeys(permutations(rest)):
                cells.append((i,) + perm)
                source.append(len(rows))
            rows.append((i,) + rest)
    cells = np.array(cells, dtype=np.intp).reshape(-1, order).T
    source = np.array(source, dtype=np.intp)
    for arr in (cells, source):
        arr.setflags(write=False)
    return tuple(rows), tuple(cells), source


@lru_cache(maxsize=32)
def _index_sets(n: int, order: int):
    """The sets of ``order`` distinct vectors out of n, as sorted index
    rows in lexicographic order, and the flat tensor index of each set's
    permutation cells: one row per permutation, in ``itertools.permutations``
    order, one column per set."""
    sets = np.array(list(combinations(range(n), order)), dtype=np.intp).reshape(-1, order)
    perms = np.array(list(permutations(range(order))), dtype=np.intp)
    cells = np.ravel_multi_index(tuple(sets[:, perms].T), (n,) * order)
    for arr in (sets, cells):
        arr.setflags(write=False)
    return sets, cells


def _evaluate_tuples(model, grid: FeatureGrid, tuples, order: int, local_k: bool) -> np.ndarray:
    """Directed salience value for each index tuple, in the given order,
    from the full-mask coefficients of one ``forward_lattice`` pass with
    one tuple per row: the grid is the value row, and the bank holds tag
    0's direction for each vector i (x_i on vector i alone, or on every
    vector slot), then each vector's all-ones direction."""
    if not tuples:
        return np.zeros(0)
    n, d = grid.x.shape
    if isinstance(model, Mlp):
        if model.config.input_dim != n * d:
            raise ValueError(
                f"model expects {model.config.input_dim} inputs, grid flattens to {n * d}"
            )
    else:
        grid_fn = model
        model = lambda xs: grid_fn([xs[v * d : (v + 1) * d] for v in range(n)])
    v = np.arange(n)
    bank = np.zeros((n, d, 2 * n))
    if local_k:
        bank[v, :, v] = grid.x
    else:
        bank[:, :, :n] = grid.x.T
    bank[v, :, n + v] = 1.0
    tags = np.array(tuples)
    tags[:, 1:] += n  # each further tag runs along all of one vector's coordinates
    out = forward_lattice(
        model, tags, order, value=grid.x.ravel(), bank=bank.reshape(n * d, 2 * n), top_only=True
    )
    return out[:, 0]


def grad_cam(model, grid: FeatureGrid, i: int, opts: CamOptions = CamOptions()) -> float:
    """First-order importance of vector i: its coordinates times the
    model gradient, summed over the vector's own coordinates (local) or
    over every vector slot."""
    if not 0 <= i < grid.n:
        raise IndexError(f"vector index {i} out of range for a {grid.n}-vector grid")
    val = _evaluate_tuples(model, grid, [(i,)], 1, opts.local_k)
    if opts.rectify:
        val = np.maximum(val, 0.0)
    return float(val[0])


def taylor_cam(
    model,
    grid: FeatureGrid,
    order: int,
    opts: CamOptions = CamOptions(),
) -> SalienceTensor:
    """Order-l salience tensor over the grid.  Order 1 is exactly the
    per-vector importance, ``grad_cam`` of every vector, and is neither
    squared nor folded, so its tuples rank by signed importance, as
    Grad-CAM does; order 2 weights second cross partials; each further
    order differentiates along one more vector's coordinates.

    One lattice pass evaluates one row per vector i and multiset of the
    other l-1 indices (sorted), and the cells (i, *rest) for every
    ordering of rest are filled from it, so the directed cells are
    exactly symmetric in their trailing l-1 indices, bit for bit."""
    check_derivative_order(model, order)
    n = grid.n
    tuples, cells, source = _cell_schedule(n, order, opts.zero_diagonal)
    vals = _evaluate_tuples(model, grid, tuples, order, opts.local_k)
    raw = np.zeros((n,) * order)
    raw[cells] = vals[source]
    if opts.rectify:
        raw = np.maximum(raw, 0.0)
    if order == 1:
        return SalienceTensor(1, raw)

    if opts.symmetrize:
        values = _combine_mutual(raw, order, opts)
    elif opts.square:
        values = raw * raw
    else:
        values = raw
    return SalienceTensor(
        order, values, symmetrized=opts.symmetrize, diagonal_zeroed=opts.zero_diagonal
    )


def hessian_cam(model, grid: FeatureGrid, opts: CamOptions = CamOptions()) -> SalienceTensor:
    """Pairwise salience matrix; the order-2 tensor."""
    return taylor_cam(model, grid, 2, opts)


def _combine_mutual(raw: np.ndarray, order: int, opts: CamOptions) -> np.ndarray:
    """Fold the mutual cells of each index set together.  Order 2 keeps
    a full symmetric matrix; beyond that the lexicographically smallest
    tuple carries the combined value and the other permutations go to 0.
    Squaring happens cell-wise before the fold unless sum_before_square
    asks for the fold first.  The permutation cells are added one at a
    time, from zero, in ``itertools.permutations`` order."""
    vals = raw * raw if opts.square and not opts.sum_before_square else raw
    if order == 2:
        fold = vals + vals.T
    else:
        sets, cells = _index_sets(raw.shape[0], order)
        flat = vals.ravel()
        acc = np.zeros(len(sets))
        for f in flat[cells]:
            acc += f
        fold = np.zeros_like(raw)
        fold[tuple(sets.T)] = acc
    if opts.square and opts.sum_before_square:
        fold *= fold
    return fold


def symmetrize(tensor: SalienceTensor) -> SalienceTensor:
    """Fold mutual cells of an unsymmetrized tensor; a second call
    returns the tensor unchanged."""
    if tensor.symmetrized:
        return tensor
    values = _combine_mutual(tensor.values, tensor.order, CamOptions(square=False))
    return replace(tensor, values=values, symmetrized=True)


def top_interactions(
    tensor: SalienceTensor, k: int, threshold: float | None = None
) -> list[tuple[tuple[int, ...], float]]:
    """Distinct index sets ranked by salience, strongest first, ties
    lexicographic.  Each set is reported once, at the strongest of its
    permutation cells; sets with fewer distinct entries than the order
    (diagonals) are not sets and never appear."""
    if k < 0:
        raise ValueError("k must be non-negative")
    sets, cells = _index_sets(tensor.n, tensor.order)
    flat = tensor.values.ravel()
    best, *rest = flat[cells]
    for f in rest:
        best = np.where(f > best, f, best)  # the first of equal cells, as max() keeps
    ranked = np.argsort(-best, kind="stable")  # sets are lexicographic already
    if threshold is not None:
        ranked = ranked[best[ranked] > threshold]
    return [(tuple(sets[j].tolist()), float(best[j])) for j in ranked[:k]]


_BOX_PALETTE = ("#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_CELL = 26
_PAD = 44


def _shade(t: float) -> str:
    # white at 0 to deep blue at 1
    r = round(255 + (30 - 255) * t)
    g = round(255 + (72 - 255) * t)
    b = round(255 + (132 - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(
    tensor: SalienceTensor,
    path,
    layout: tuple[int, int] | None = None,
    top: int = 4,
) -> None:
    """Write an SVG of the pairwise salience matrix and, when a spatial
    layout is given, the strongest pairs as linked boxes on the grid.
    Identical tensors produce identical bytes."""
    if tensor.order != 2:
        raise ValueError(f"rendering needs an order-2 tensor, got order {tensor.order}")
    n = tensor.n
    vals = tensor.values
    vmax = float(np.abs(vals).max())
    width = _PAD + n * _CELL + _PAD
    if layout is not None:
        rows, cols = layout
        if rows < 1 or cols < 1 or rows * cols != n:
            raise ValueError(f"layout {rows}x{cols} does not tile {n} vectors")
        panel_x = width
        width += cols * _CELL + _PAD
    height = _PAD + n * _CELL + _PAD

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i in range(n):
        for j in range(n):
            t = abs(float(vals[i, j])) / vmax if vmax > 0 else 0.0
            x, y = _PAD + j * _CELL, _PAD + i * _CELL
            out.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_shade(t)}" stroke="#cccccc" stroke-width="1"/>'
            )
    for i in range(n):
        cx = _PAD + i * _CELL + _CELL // 2
        out.append(
            f'<text x="{cx}" y="{_PAD - 8}" font-size="10" text-anchor="middle" '
            f'fill="#333333" font-family="monospace">{i}</text>'
        )
        out.append(
            f'<text x="{_PAD - 8}" y="{_PAD + i * _CELL + _CELL // 2 + 3}" font-size="10" '
            f'text-anchor="end" fill="#333333" font-family="monospace">{i}</text>'
        )

    if layout is not None:
        rows, cols = layout
        for v in range(n):
            r, c = divmod(v, cols)
            x, y = panel_x + c * _CELL, _PAD + r * _CELL
            out.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="#f5f5f5" stroke="#bbbbbb" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 3}" font-size="9" '
                f'text-anchor="middle" fill="#666666" font-family="monospace">{v}</text>'
            )
        pairs = top_interactions(tensor, top, threshold=0.0)
        for rank, ((i, j), _val) in enumerate(pairs):
            color = _BOX_PALETTE[rank % len(_BOX_PALETTE)]
            centers = []
            for v in (i, j):
                r, c = divmod(v, cols)
                x, y = panel_x + c * _CELL, _PAD + r * _CELL
                out.append(
                    f'<rect x="{x + 2}" y="{y + 2}" width="{_CELL - 4}" height="{_CELL - 4}" '
                    f'fill="none" stroke="{color}" stroke-width="2"/>'
                )
                centers.append((x + _CELL // 2, y + _CELL // 2))
            (x1, y1), (x2, y2) = centers
            out.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}" '
                f'stroke-width="2" stroke-dasharray="4 2"/>'
            )
    out.append("</svg>")
    with replacing(path) as fh:
        fh.write("\n".join(out) + "\n")


def salience_document(tensor: SalienceTensor, opts: CamOptions, top: int) -> dict:
    """JSON-ready view: order, ranked tuples, and the options the order
    applies.  Order 1 is neither squared nor folded and has no diagonal,
    so it applies only local_k and rectify."""
    options = asdict(opts)
    if tensor.order == 1:
        options = {k: options[k] for k in ("local_k", "rectify")}
    return {
        "order": tensor.order,
        "tuples": [
            {"set": list(s), "salience": v} for s, v in top_interactions(tensor, top)
        ],
        "options": options,
    }
