"""Minimal reverse-mode autodiff over dense float64 arrays.

Just enough machinery to train the embedding head: a Tensor wraps a numpy
array and remembers the primitive that produced it, `forward` re-evaluates a
built graph in place (used by the finite-difference checker), and `backward`
accumulates adjoints in reverse topological order. Not a general framework:
only the primitives the training objective needs exist, matmul is strictly
2-D, and elementwise operands broadcast as in NumPy (a scalar against an
array, or an (n, 1) column against an (n, k) matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Incompatible operand shapes for a primitive."""

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

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    # reductions as methods so the module namespace keeps the builtins
    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return _reduce(self, "sum", axis, keepdims)

    def mean(self, axis=None) -> "Tensor":
        return _reduce(self, "mean", axis)

    def max(self, axis=None) -> "Tensor":
        return _reduce(self, "max", axis)

    def min(self, axis=None) -> "Tensor":
        return _reduce(self, "min", axis)

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _node(op: str, inputs, fwd, bwd) -> Tensor:
    """Build an eagerly evaluated graph node.

    fwd: (*input_arrays) -> array.
    bwd: (out_grad, out_value, *input_arrays) -> tuple of per-input grads
    (None for inputs that need no gradient).
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
    root.grad = np.ones_like(root.data)
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
            if parent.grad is None:
                # keep an array the backward has just made for this input alone;
                # copy a view, the node's own gradient, or one array given twice
                owned = (g.base is None and g is not node.grad
                         and sum(h is g for h in grads) == 1)
                parent.grad = g if owned else g.copy()
            else:
                parent.grad += g
    return leaves


def _match_reduce(g: np.ndarray, shape) -> np.ndarray:
    """Inverse of broadcasting: sum g over the axes an operand of `shape` was
    stretched along."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    stretched = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return np.sum(g, axis=stretched).reshape(shape)


def _check_elementwise(op: str, a: Tensor, b: Tensor):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(op, a.data.shape, b.data.shape) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)
    return _node(
        "add",
        (a, b),
        lambda x, y: x + y,
        lambda g, out, x, y: (_match_reduce(g, x.shape), _match_reduce(g, y.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)
    return _node(
        "sub",
        (a, b),
        lambda x, y: x - y,
        lambda g, out, x, y: (_match_reduce(g, x.shape), _match_reduce(-g, y.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)
    return _node(
        "mul",
        (a, b),
        lambda x, y: x * y,
        lambda g, out, x, y: (_match_reduce(g * y, x.shape), _match_reduce(g * x, y.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("div", a, b)
    return _node(
        "div",
        (a, b),
        lambda x, y: x / y,
        lambda g, out, x, y: (
            _match_reduce(g / y, x.shape),
            _match_reduce(-g * x / (y * y), y.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul", a.data.shape, b.data.shape)
    return _node(
        "matmul",
        (a, b),
        lambda x, y: x @ y,
        lambda g, out, x, y: (g @ y.T, x.T @ g),
    )


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose", a.data.shape)
    return _node("transpose", (a,), lambda x: x.T.copy(), lambda g, out, x: (g.T,))


def concat_rows(tensors) -> Tensor:
    """Stack 2-D tensors along axis 0; all must share the column count."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows", ())
    cols = tensors[0].data.shape[1] if tensors[0].data.ndim == 2 else None
    for t in tensors:
        if t.data.ndim != 2 or t.data.shape[1] != cols:
            raise ShapeError("concat_rows", tensors[0].data.shape, t.data.shape)
    sizes = [t.data.shape[0] for t in tensors]

    def bwd(g, out, *xs):
        grads, at = [], 0
        for n in sizes:
            grads.append(g[at : at + n])
            at += n
        return tuple(grads)

    return _node("concat_rows", tuple(tensors), lambda *xs: np.concatenate(xs, axis=0), bwd)


def take_rows(a: Tensor, index) -> Tensor:
    """Rows `index` of a 2-D tensor, in that order; an index may repeat.

    The backward adds each output row's gradient into its source row: one
    `np.add.reduceat` over the gradient rows in stable-sorted index order,
    so each source row gets its first gradient row plus the sum of the rest.
    A sorted index needs no reordering, and one without repeats no sums.
    """
    index = np.asarray(index, dtype=np.intp)
    if a.data.ndim != 2 or index.ndim != 1:
        raise ShapeError("take_rows", a.data.shape, index.shape)
    if index.size and not 0 <= index.min() <= index.max() < a.data.shape[0]:
        raise IndexError(f"take_rows: row index outside [0, {a.data.shape[0]})")
    order, sorted_index = None, index
    if np.any(index[1:] < index[:-1]):
        order = np.argsort(index, kind="stable")
        sorted_index = index[order]
    run_starts = np.ones(index.size, dtype=bool)
    run_starts[1:] = sorted_index[1:] != sorted_index[:-1]
    firsts = np.flatnonzero(run_starts)

    def bwd(g, out, x):
        gx = np.zeros_like(x)
        rows = g if order is None else g[order]
        if firsts.size == index.size:
            gx[sorted_index] = rows
        elif index.size:
            gx[sorted_index[firsts]] = np.add.reduceat(rows, firsts, axis=0)
        return (gx,)

    return _node("take_rows", (a,), lambda x: x[index], bwd)


def take_per_row(a: Tensor, cols) -> Tensor:
    """Entry cols[i] of each row i of a 2-D tensor, as an (n,) vector. The
    backward writes each entry's gradient back to that entry, zeros elsewhere."""
    cols = np.asarray(cols, dtype=np.intp)
    if a.data.ndim != 2 or cols.shape != a.data.shape[:1]:
        raise ShapeError("take_per_row", a.data.shape, cols.shape)
    if cols.size and not 0 <= cols.min() <= cols.max() < a.data.shape[1]:
        raise IndexError(f"take_per_row: column index outside [0, {a.data.shape[1]})")
    rows = np.arange(cols.size)

    def bwd(g, out, x):
        gx = np.zeros_like(x)
        gx[rows, cols] = g
        return (gx,)

    return _node("take_per_row", (a,), lambda x: x[rows, cols], bwd)


def check_lengths(op: str, shape, lengths) -> np.ndarray:
    """Per-video row counts of a 2-D stack: each at least 1, summing to its rows."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if (len(shape) != 2 or lengths.ndim != 1 or lengths.size == 0
            or lengths.min() < 1 or lengths.sum() != shape[0]):
        raise ShapeError(op, shape, lengths.shape)
    return lengths


def segment_sum(a: Tensor, lengths) -> Tensor:
    """Sum each run of consecutive rows: (sum(lengths), k) -> (len(lengths), k).

    Every run must hold at least one row.
    """
    lengths = check_lengths("segment_sum", a.data.shape, lengths)
    starts = np.cumsum(lengths) - lengths
    return _node(
        "segment_sum",
        (a,),
        lambda x: np.add.reduceat(x, starts, axis=0),
        lambda g, out, x: (np.repeat(g, lengths, axis=0),),
    )


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function on a plain array."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    return _node("sigmoid", (a,), sigmoid_forward, lambda g, out, x: (g * out * (1.0 - out),))


def log(a: Tensor) -> Tensor:
    return _node("log", (a,), np.log, lambda g, out, x: (g / x,))


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(a: Tensor) -> Tensor:
    return _node("relu", (a,), relu_forward, lambda g, out, x: (g * (x > 0.0),))


def square(a: Tensor) -> Tensor:
    return _node("square", (a,), np.square, lambda g, out, x: (2.0 * x * g,))


def l2_normalize_rows_forward(x: np.ndarray) -> np.ndarray:
    """Each row of a plain 2-D array over its norm plus NORM_EPS."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return x / (norms + NORM_EPS)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row to unit norm; an all-zero row stays zero (guard NORM_EPS)."""
    if a.data.ndim != 2:
        raise ShapeError("l2_normalize_rows", a.data.shape)

    def bwd(g, out, x):
        norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
        denom = norms + NORM_EPS
        dot = np.sum(g * x, axis=1, keepdims=True)
        gx = g / denom - x * dot / (np.where(norms > 0.0, norms, 1.0) * denom * denom)
        # zero rows: function is flat at the origin under the guard, take 0
        return (np.where(norms > 0.0, gx, 0.0),)

    return _node("l2_normalize_rows", (a,), l2_normalize_rows_forward, bwd)


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Softmax over each row of a plain 2-D array, shifted by the row max."""
    ex = np.exp(x - np.max(x, axis=1, keepdims=True))
    return ex / np.sum(ex, axis=1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Softmax over each row of a 2-D tensor."""

    def bwd(g, out, x):
        inner = np.sum(g * out, axis=1, keepdims=True)
        return ((g - inner) * out,)

    return _node("softmax", (a,), softmax_forward, bwd)


def _reduce(a: Tensor, kind: str, axis, keepdims: bool = False) -> Tensor:
    reduce_fn = {"sum": np.sum, "mean": np.mean, "max": np.max, "min": np.min}[kind]

    def fwd(x):
        return np.asarray(reduce_fn(x, axis=axis, keepdims=keepdims))

    def bwd(g, out, x):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        if kind in ("sum", "mean"):
            gx = np.broadcast_to(g, x.shape).copy()
            if kind == "mean":
                gx /= x.size if axis is None else x.shape[axis]
            return (gx,)
        # max/min subgradient: the first attaining index (row-major) takes it all
        argfn = np.argmax if kind == "max" else np.argmin
        gx = np.zeros_like(x)
        if axis is None:
            gx.flat[argfn(x)] = g
        else:
            idx = np.expand_dims(argfn(x, axis=axis), axis)
            np.put_along_axis(gx, idx, g, axis=axis)
        return (gx,)

    return _node(kind, (a,), fwd, bwd)


class ConvGrid:
    """The videos of a (sum(lengths), d) stack laid out once for the conv.

    Outputs live on a (videos, T_max, d) grid, with no gap rows: video v's
    rows fill the first lengths[v] rows of its slab and zeros the rest, and
    a stack of equal-length videos is its grid without a copy. `padded` is
    the (videos, T_max + w - 1, d) input grid with (w - 1) // 2 zero rows
    above each video and the rest below, so each video is zero-padded
    exactly as on its own.
    """

    def __init__(self, xv: np.ndarray, w: int, lengths=None):
        if lengths is None:  # one video
            self.shape = (1,) + xv.shape
        else:
            self.shape = (lengths.size, int(lengths.max()), xv.shape[1])
        self.rows = None  # each stack row's row of the flattened grid; None: all of them
        if lengths is not None and lengths.min() != self.shape[1]:
            video = np.repeat(np.arange(lengths.size), lengths)
            self.rows = (np.arange(xv.shape[0]) + video * self.shape[1]
                         - np.repeat(np.cumsum(lengths) - lengths, lengths))
        n, t_max, d = self.shape
        self.padded = np.zeros((n, t_max + w - 1, d), dtype=xv.dtype)
        self.padded[:, (w - 1) // 2 : (w - 1) // 2 + t_max] = self.scatter(xv)

    def scatter(self, stack: np.ndarray) -> np.ndarray:
        """The output grid of a stack laid out like the one the grid was built from."""
        if self.rows is None:
            return stack.reshape(self.shape)
        grid = np.zeros(self.shape, dtype=stack.dtype)
        grid.reshape(-1, self.shape[2])[self.rows] = stack
        return grid

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """The stack's rows of an output grid."""
        flat = grid.reshape(-1, self.shape[2])
        return flat if self.rows is None else flat[self.rows]


def depthwise_conv1d_forward(xv: np.ndarray, kv: np.ndarray, lengths=None,
                             grid: ConvGrid = None) -> np.ndarray:
    """`depthwise_conv1d` on plain arrays: (T, d) by (d, w) kernel -> (T, d),
    with `lengths` as there. `grid`, when given, is xv's `ConvGrid`.

    Every output adds its taps in order j = 0..w-1 to a zero start.
    """
    if grid is None:
        if lengths is not None:
            lengths = check_lengths("depthwise_conv1d", xv.shape, lengths)
        grid = ConvGrid(xv, kv.shape[1], lengths)
    t_max = grid.shape[1]
    out = np.zeros(grid.shape, dtype=xv.dtype)
    for j in range(kv.shape[1]):
        out += grid.padded[:, j : j + t_max] * kv[:, j]
    return grid.gather(out)


def depthwise_conv1d(x: Tensor, kernel: Tensor, lengths=None) -> Tensor:
    """Per-channel 1-D convolution along axis 0 with "same" zero padding.

    x is (T, d), kernel is (d, w); output (T, d) with
    out[i, c] = sum_j x[i + j - pad_left, c] * kernel[c, j], zeros outside,
    pad_left = (w - 1) // 2 so a delta kernel at that tap is the identity.
    With `lengths`, x stacks videos of those lengths and each is padded on
    its own: the output rows equal one call per video, bit for bit. The
    backward reuses the forward's `ConvGrid`.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 2 or x.data.shape[1] != kernel.data.shape[0]:
        raise ShapeError("depthwise_conv1d", x.data.shape, kernel.data.shape)
    if lengths is not None:
        lengths = check_lengths("depthwise_conv1d", x.data.shape, lengths)
    w = kernel.data.shape[1]
    grid = None  # set by each forward evaluation, read by the backward

    def fwd(xv, kv):
        nonlocal grid
        grid = ConvGrid(xv, w, lengths)
        return depthwise_conv1d_forward(xv, kv, grid=grid)

    def bwd(g, out, xv, kv):
        xp, gs = grid.padded, grid.scatter(g)
        t_max, pad = gs.shape[1], (w - 1) // 2
        # input row t collects gs[t + pad - j] * k_j over taps j = 0..w-1: the
        # same terms in the same order as adding each tap's products to its rows
        gsp = np.zeros_like(xp)
        gsp[:, w - 1 - pad : w - 1 - pad + t_max] = gs
        gx = np.zeros(gs.shape)
        gk = np.zeros_like(kv)
        for j in range(w):
            gx += gsp[:, w - 1 - j : w - 1 - j + t_max] * kv[:, j]
            gk[:, j] = np.sum((gs * xp[:, j : j + t_max]).reshape(-1, gs.shape[2]), axis=0)
        return (grid.gather(gx), gk)

    return _node("depthwise_conv1d", (x, kernel), fwd, bwd)


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
