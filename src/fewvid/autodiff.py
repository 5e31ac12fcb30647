"""Minimal reverse-mode autodiff over dense float64 arrays.

Just enough machinery to train the embedding head: a Tensor wraps a numpy
array and remembers the node that produced it, `forward` re-evaluates a
built graph in place (used by the finite-difference checker), and `backward`
accumulates adjoints in reverse topological order.

Each layer of the training graph is one `_node` with a hand-written forward
and backward, built in `model` and `losses`. The formulas they share with
evaluation's no-grad path live here once, as plain-array `*_forward` and
`*_backward` functions. The only other graph ops are the row gather and the
row normalization that training builds.

The helpers that run once per training step or evaluation stack call no
NumPy wrapper written in Python where a C function does the same work; at
these sizes a wrapper costs as much as the arithmetic. A reduction is its
ufunc's `reduce` (`np.add.reduce`, not `x.sum` or `np.sum`, which on NumPy
2.x run `_core/_methods.py` wrappers), a strided view is built by the
`np.ndarray` constructor, and the rest are ufuncs, integer indexing and the
array methods that are pure C (`argmax`, `argmin`, `argsort`, `copy`,
`cumsum`, `repeat`, `nonzero`, `sort`, `take`). Each keeps the wrapper's
ufunc, operands, order and dtype, so the bits are the same.

A node computes its big (rows, d) intermediates in place, into arrays the
same call has just made (`np.multiply(..., out=...)` and the like, the same
ufunc on the same operands in the same order, so the bits are the same),
and lets each one go as soon as it is read for the last time. It never
writes into its inputs or into what its forward kept, so `forward` and a
repeated `backward` see the values they saw before.

A backward builds only what reaches a requires_grad leaf: an operand that
needs no gradient (a constant) gets none, and a row gather (`take_rows`)
returns just the rows it touches, which `backward` adds into the source's
gradient in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Incompatible operand shapes for a graph op."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        detail = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {detail}")


class Tensor:
    """Node of the computation graph; leaves hold parameters or constants."""

    __slots__ = ("data", "grad", "op", "inputs", "requires_grad", "_fwd", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.grad = None
        self.op = "leaf"
        self.inputs = ()
        self.requires_grad = requires_grad
        self._fwd = None
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


class RowGrad(NamedTuple):
    """A gradient that is zero outside the source rows `index` (no repeats),
    whose gradient rows are `rows`. `backward` adds it into its parent's
    gradient in place and zero-fills only a parent's first gradient."""

    index: np.ndarray
    rows: np.ndarray


def _node(op: str, inputs, fwd, bwd) -> Tensor:
    """Build an eagerly evaluated graph node.

    fwd: (*input_arrays) -> array.
    bwd: (out_grad, out_value, *input_arrays) -> tuple of per-input grads:
    an array, a `RowGrad`, or None for an input that needs no gradient.
    """
    out = Tensor.__new__(Tensor)
    out.data = fwd(*[t.data for t in inputs])
    out.grad = None
    out.op = op
    out.inputs = tuple(inputs)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out._fwd = fwd
    out._bwd = bwd
    return out


def _topo(root: Tensor):
    """Inputs-before-consumers ordering, iterative to spare the stack."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.inputs:
            stack.append((parent, False))
    return order


def forward(root: Tensor) -> Tensor:
    """Re-evaluate every non-leaf node from current leaf data."""
    for node in _topo(root):
        if node.inputs:
            node.data = node._fwd(*[t.data for t in node.inputs])
    return root


def backward(root: Tensor) -> dict:
    """Accumulate d(root)/d(leaf) for every requires_grad leaf.

    Each node is visited exactly once in reverse topological order. Returns
    a mapping from leaf Tensor to its gradient array (also left on .grad).
    """
    if root.data.size != 1:
        raise ShapeError("backward", root.data.shape)
    order = _topo(root)
    for node in order:
        node.grad = None
    root.grad = np.empty_like(root.data)
    root.grad.fill(1.0)
    leaves = {}
    for node in reversed(order):
        if node.grad is None or not node.requires_grad:
            continue
        if not node.inputs:
            leaves[node] = node.grad
            continue
        grads = node._bwd(node.grad, node.data, *[t.data for t in node.inputs])
        for parent, g in zip(node.inputs, grads):
            if g is None or not parent.requires_grad:
                continue
            if isinstance(g, RowGrad):
                # rows outside g.index keep their bits: a dense add of zeros
                # would only turn a -0.0 there into 0.0
                if parent.grad is None:
                    parent.grad = np.zeros(parent.data.shape)
                    parent.grad[g.index] = g.rows
                else:
                    parent.grad[g.index] += g.rows
            elif parent.grad is None:
                # keep an array the backward has just made for this input alone;
                # copy a view, the node's own gradient, or one array given twice
                owned = (g.base is None and g is not node.grad
                         and sum(h is g for h in grads) == 1)
                parent.grad = g if owned else g.copy()
            else:
                parent.grad += g
    return leaves


def divisor_backward(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of x / y with respect to y, at the output's shape."""
    return -g * x / (y * y)


def check_rows(op: str, shape, index) -> np.ndarray:
    """A 1-D row index into a 2-D array of `shape`, as intp."""
    index = np.asarray(index, dtype=np.intp)
    if len(shape) != 2 or index.ndim != 1:
        raise ShapeError(op, shape, index.shape)
    if index.size and not 0 <= np.minimum.reduce(index) <= np.maximum.reduce(index) < shape[0]:
        raise IndexError(f"{op}: row index outside [0, {shape[0]})")
    return index


class RowGather(NamedTuple):
    """Where the gradient rows of a gather by a 1-D row index go: `order`
    stable-sorts the index (None when it is sorted already), `firsts` starts
    each run of one source row in sorted order, and `sources` names the
    distinct source rows, ascending."""

    order: np.ndarray
    firsts: np.ndarray
    sources: np.ndarray

    @classmethod
    def of(cls, index: np.ndarray) -> "RowGather":
        order, sorted_index = None, index
        if np.logical_or.reduce(index[1:] < index[:-1], axis=None):
            order = index.argsort(kind="stable")
            sorted_index = index[order]
        run_starts = np.empty(index.size, dtype=bool)
        run_starts.fill(True)
        run_starts[1:] = sorted_index[1:] != sorted_index[:-1]
        firsts = run_starts.nonzero()[0]
        return cls(order, firsts, sorted_index[firsts])


def take_rows_backward(g: np.ndarray, gather: RowGather) -> RowGrad:
    """The source gradient of a row gather whose output gradient is g, as a
    `RowGrad`: one `np.add.reduceat` over the gradient rows in stable-sorted
    index order, so each source row gets its first gradient row plus the sum
    of the rest. A sorted index needs no reordering, and one without repeats
    no sums."""
    rows = g if gather.order is None else g[gather.order]
    if gather.sources.size < rows.shape[0]:
        rows = np.add.reduceat(rows, gather.firsts, axis=0)
    return RowGrad(gather.sources, rows)


def take_rows(a: Tensor, index) -> Tensor:
    """Rows `index` of a 2-D tensor, in that order; an index may repeat.
    The backward (`take_rows_backward`) returns only the rows it touches."""
    index = check_rows("take_rows", a.data.shape, index)
    gather = RowGather.of(index)
    return _node("take_rows", (a,), lambda x: x[index],
                 lambda g, out, x: (take_rows_backward(g, gather),))


def check_lengths(op: str, shape, lengths) -> np.ndarray:
    """Per-video row counts of a 2-D stack: each at least 1, summing to its rows."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if (len(shape) != 2 or lengths.ndim != 1 or lengths.size == 0
            or np.minimum.reduce(lengths) < 1 or np.add.reduce(lengths) != shape[0]):
        raise ShapeError(op, shape, lengths.shape)
    return lengths


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function on a plain array: with e = exp(-|x|),
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, so exp never
    overflows, and 1 + e is taken once for both branches.

    -|x| is taken as min(0 - x, x). The subtraction makes a signalling NaN
    quiet and raises the invalid flag, and np.minimum returns the first of
    two NaNs, so on every SIMD loop a NaN comes back as that NaN made quiet,
    sign and payload kept, and only a signalling NaN raises invalid (exp
    alone raises for it on AVX2 loops and not on AVX-512 ones)."""
    e = np.exp(np.minimum(0.0 - x, x))
    one_plus_e = 1.0 + e
    return np.where(x >= 0, 1.0 / one_plus_e, e / one_plus_e)


def sigmoid_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The input gradient of the logistic function whose output is `out`."""
    return g * out * (1.0 - out)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def normalized_rows(x: np.ndarray):
    """(each row of a plain 2-D array over its norm plus NORM_EPS, the (n, 1)
    row norms). The rows are divided into the array of their squares."""
    out = np.multiply(x, x)
    norms = np.sqrt(np.add.reduce(out, axis=1, keepdims=True))
    return np.divide(x, norms + NORM_EPS, out=out), norms


def l2_normalize_rows_forward(x: np.ndarray) -> np.ndarray:
    """Each row of a plain 2-D array over its norm plus NORM_EPS."""
    return normalized_rows(x)[0]


def l2_normalize_rows_backward(g: np.ndarray, x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The input gradient of `normalized_rows` at x, whose row norms are `norms`:
    g / denom - x * dot / (norms * denom * denom), with dot each row's g . x
    and denom = norms + NORM_EPS. An all-zero row, where the guarded function
    is flat, gets 0. The radial term is computed in the array of g * x, and
    the gradient in the array of g / denom."""
    denom = norms + NORM_EPS
    nonzero = norms > 0.0
    radial = np.multiply(g, x)
    dot = np.add.reduce(radial, axis=1, keepdims=True)
    np.multiply(x, dot, out=radial)
    np.divide(radial, np.where(nonzero, norms, 1.0) * denom * denom, out=radial)
    gx = np.divide(g, denom)
    np.subtract(gx, radial, out=gx)
    if not np.logical_and.reduce(nonzero, axis=None):
        np.copyto(gx, 0.0, where=~nonzero)
    return gx


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row to unit norm; an all-zero row stays zero (guard NORM_EPS).
    The backward reuses the row norms of the latest forward evaluation."""
    if a.data.ndim != 2:
        raise ShapeError("l2_normalize_rows", a.data.shape)
    norms = None

    def fwd(x):
        nonlocal norms
        out, norms = normalized_rows(x)
        return out

    return _node("l2_normalize_rows", (a,), fwd,
                 lambda g, out, x: (l2_normalize_rows_backward(g, x, norms),))


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array, shifted by its max."""
    ex = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return ex / np.add.reduce(ex, axis=-1, keepdims=True)


def softmax_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The input gradient of a row softmax whose output is `out`."""
    inner = np.add.reduce(g * out, axis=1, keepdims=True)
    return (g - inner) * out


class ConvGrid:
    """The videos of a (sum(lengths), d) stack laid out once for the conv.

    Outputs live on a (videos, T_max, d) grid, with no gap rows: video v's
    rows fill the first lengths[v] rows of its slab and zeros the rest, and
    a stack of equal-length videos is its grid without a copy. `padded` is
    the (videos, T_max + w - 1, d) input grid with (w - 1) // 2 zero rows
    above each video and the rest below, so each video is zero-padded
    exactly as on its own.
    """

    def __init__(self, xv: np.ndarray, w: int, lengths: np.ndarray):
        self.shape, self.w = (lengths.size, int(np.maximum.reduce(lengths)), xv.shape[1]), w
        # the (videos, T_max) cells that hold the stack's rows; None: all of them
        self.mask = None if np.minimum.reduce(lengths) == self.shape[1] else (
            np.arange(self.shape[1]) < lengths[:, None])
        self.padded = self.pad(xv, (w - 1) // 2)

    def pad(self, stack: np.ndarray, top: int) -> np.ndarray:
        """A zeroed (videos, T_max + w - 1, d) grid holding each video's rows
        of a stack laid out like the one the grid was built from, from row
        `top` of its slab."""
        n, t_max, d = self.shape
        padded = np.zeros((n, t_max + self.w - 1, d), dtype=stack.dtype)
        if self.mask is None:
            padded[:, top : top + t_max] = stack.reshape(self.shape)
        else:
            padded[:, top : top + t_max][self.mask] = stack
        return padded

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """The stack's rows of an output grid."""
        return grid.reshape(-1, self.shape[2]) if self.mask is None else grid[self.mask]

    def convolve(self, kv: np.ndarray) -> np.ndarray:
        """The stack's rows convolved by the (d, w) kernel kv: one einsum over
        the padded grid's tap-leading windows (`_windows`, `_taps`), so every
        output adds its taps in order j = 0..w-1 to a zero start."""
        windows = _windows(self.padded, self.shape[1])
        return self.gather(np.einsum("jvtc,jvtc->vtc", windows, _taps(kv, self.shape)))


def _windows(padded: np.ndarray, t_max: int, reverse: bool = False) -> np.ndarray:
    """A read-only (w, videos, t_max, d) view of a (videos, t_max + w - 1, d)
    padded grid: slab j holds rows j .. j + t_max - 1 of every video, or with
    `reverse` rows w - 1 - j .. w - 2 - j + t_max.

    The taps lead, so an einsum over this view and `_taps` adds tap j = 0,
    1, ..., w - 1 in turn to each output's zero start, as a loop over taps
    would. Window strides: tap and row 8 d bytes, channel 8, video
    8 d (t_max + w - 1); reversed, the tap stride is -8 d and slab 0 starts
    w - 1 rows down. The view is built on the C-contiguous grid's buffer.
    """
    n, rows, d = padded.shape
    s_video, s_row, s_col = padded.strides
    view = np.ndarray((rows - t_max + 1, n, t_max, d), padded.dtype, padded,
                      (rows - t_max) * s_row if reverse else 0,
                      (-s_row if reverse else s_row, s_video, s_row, s_col))
    view.flags.writeable = False
    return view


def _taps(kv: np.ndarray, shape) -> np.ndarray:
    """The (d, w) kernel as a read-only (w, videos, t_max, d) operand for
    `_windows`: entry [j, v, t, c] is kv[c, j].

    einsum (at its default optimize=False) sums in the axis order NumPy's
    iterator picks from the operands' strides, and may add a run along its
    innermost axis in several partial sums, not in order. The taps sit two
    rows apart in a (w, 2, d) block, so their stride, 16 d bytes, ties
    neither the windows' row nor their channel stride, and the iterator
    keeps them outermost. With a plain (w, d) kernel at d = 1, the tap, row
    and channel steps are all 8 bytes, and the iterator can move the taps
    innermost.
    """
    d, w = kv.shape
    block = np.zeros((w, 2, d), dtype=kv.dtype)
    block[:, 0] = kv.T
    s_tap, _, s_col = block.strides
    # a length-1 axis steps 0 bytes, as in a view np.broadcast_to makes
    view = np.ndarray((w,) + tuple(shape), block.dtype, block, 0,
                      (s_tap if w > 1 else 0, 0, 0, s_col if d > 1 else 0))
    view.flags.writeable = False
    return view


def depthwise_conv1d_forward(xv: np.ndarray, kv: np.ndarray, lengths=None) -> np.ndarray:
    """Per-channel 1-D convolution along axis 0 with "same" zero padding.

    xv is (T, d), kv is (d, w); output (T, d) with
    out[i, c] = sum_j xv[i + j - pad_left, c] * kv[c, j], zeros outside,
    pad_left = (w - 1) // 2 so a delta kernel at that tap is the identity.
    With `lengths`, xv stacks videos of those lengths and each is padded on
    its own: the output rows equal one call per video, bit for bit
    (`ConvGrid.convolve`).
    """
    lengths = check_lengths("depthwise_conv1d", xv.shape,
                            [len(xv)] if lengths is None else lengths)
    return ConvGrid(xv, kv.shape[1], lengths).convolve(kv)


def depthwise_conv1d_backward(g: np.ndarray, kv: np.ndarray, grid: ConvGrid):
    """(input gradient, kernel gradient) of `depthwise_conv1d_forward` by the
    (d, w) kernel kv on the input's `grid`, for the output gradient g.

    With g laid w // 2 rows down each slab, input row t collects
    g[t + (w - 1) // 2 - j] * k_j over taps j = 0..w-1: the same terms in
    the same order as adding each tap's products to its rows. Each kernel
    gradient entry is one in-order sum over the grid's rows.
    """
    t_max, top = grid.shape[1], grid.w // 2
    gsp = grid.pad(g, top)
    del g  # a gradient the caller passes on frees here, before gx is made
    gk = np.einsum("vtc,jvtc->cj", gsp[:, top : top + t_max], _windows(grid.padded, t_max))
    gx = np.einsum("jvtc,jvtc->vtc", _windows(gsp, t_max, reverse=True), _taps(kv, grid.shape))
    del gsp  # before the gather copies the stack's rows out of gx
    return grid.gather(gx), gk


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_err: float
    per_param: dict = field(default_factory=dict)
    h: float = 1e-5
    tol: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"grad check: max relative error {self.max_rel_err:.3e} (tol {self.tol:.1e}) {status}"


def grad_check(loss_builder, params: dict, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check d(loss)/d(param) coordinate by coordinate.

    loss_builder maps {name: leaf Tensor} to a scalar Tensor and is called
    once; numeric probes re-run `forward` on that same graph, so any
    data-dependent choices baked in at build time stay frozen.
    """
    leaves = {name: Tensor(value, requires_grad=True) for name, value in params.items()}
    root = loss_builder(leaves)
    backward(root)
    analytic = {name: np.array(leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
                for name, leaf in leaves.items()}

    per_param = {}
    worst = 0.0
    for name, leaf in leaves.items():
        errs = 0.0
        flat = leaf.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = float(forward(root).data)
            flat[i] = keep - h
            lo = float(forward(root).data)
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            errs = max(errs, abs(aflat[i] - numeric) / denom)
        per_param[name] = errs
        worst = max(worst, errs)
    forward(root)  # leave cached values consistent with unperturbed params
    return GradCheckReport(max_rel_err=worst, per_param=per_param, h=h, tol=tol)
