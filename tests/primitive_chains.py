"""The training objective's layers as chains of autodiff primitives.

Each layer of the training graph is one node: the embedding
(`model._embedding_node`), the attention baseline (`model._attention_node`),
the self-weighting (`losses._self_weight_rows`), the aggregation
(`losses._aggregate_videos`), the cross entropy (`losses._cross_entropy`)
and the weighted loss sum (`losses._loss_sum`). These are the primitive
chains those nodes replaced, kept as the oracles they must equal bit for
bit, value and input gradients. `install` builds the whole objective from
them.

The primitives below, `matmul`, `transpose` and `concat_rows` among them,
are built only by these chains and the tests, so they live here rather than
in `fewvid.autodiff`. Each is one `ad._node` whose backward forms no
gradient for an operand that needs none. Elementwise operands broadcast as
in NumPy (a scalar against an array, or an (n, 1) column against an (n, k)
matrix), and a plain number is taken as a constant Tensor.

`strided_windows` and `broadcast_taps` build the conv's operand views as
NumPy's stride tricks build them, the oracles of `ad._windows` and
`ad._taps`, which build the same views with the `np.ndarray` constructor.
"""

import numpy as np

from fewvid import autodiff as ad
from fewvid import losses, model


def _wrap(value) -> ad.Tensor:
    return value if isinstance(value, ad.Tensor) else ad.Tensor(value)


def _match_reduce(g, shape):
    """Inverse of broadcasting: sum g over the axes an operand of `shape` was
    stretched along."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    stretched = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return np.sum(g, axis=stretched).reshape(shape)


def _elementwise(op, a, b, fwd, grad_a, grad_b):
    """A broadcasting binary node. grad_a / grad_b: (g, x, y) -> the output-shaped
    gradient of an operand, reduced to its shape; an operand that needs no
    gradient gets None, and its gradient is never formed."""
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa and sb:
        try:
            np.broadcast_shapes(sa, sb)
        except ValueError:
            raise ad.ShapeError(op, sa, sb) from None

    def bwd(g, out, x, y):
        return (_match_reduce(grad_a(g, x, y), x.shape) if a.requires_grad else None,
                _match_reduce(grad_b(g, x, y), y.shape) if b.requires_grad else None)

    return ad._node(op, (a, b), fwd, bwd)


def add(a, b):
    return _elementwise("add", a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _elementwise("sub", a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _elementwise("mul", a, b, lambda x, y: x * y,
                        lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _elementwise("div", a, b, lambda x, y: x / y, lambda g, x, y: g / y,
                        ad.divisor_backward)


def neg(a):
    return mul(a, -1.0)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ad.ShapeError("matmul", a.data.shape, b.data.shape)
    return ad._node(
        "matmul",
        (a, b),
        lambda x, y: x @ y,
        lambda g, out, x, y: (g @ y.T if a.requires_grad else None,
                              x.T @ g if b.requires_grad else None),
    )


def transpose(a):
    """The transpose of a 2-D tensor, as a C-ordered copy."""
    if a.data.ndim != 2:
        raise ad.ShapeError("transpose", a.data.shape)
    return ad._node("transpose", (a,), lambda x: x.T.copy(), lambda g, out, x: (g.T,))


def concat_rows(tensors):
    """Stack 2-D tensors along axis 0; all must share the column count."""
    tensors = list(tensors)
    if not tensors:
        raise ad.ShapeError("concat_rows", ())
    cols = tensors[0].data.shape[1] if tensors[0].data.ndim == 2 else None
    for t in tensors:
        if t.data.ndim != 2 or t.data.shape[1] != cols:
            raise ad.ShapeError("concat_rows", tensors[0].data.shape, t.data.shape)
    sizes = [t.data.shape[0] for t in tensors]

    def bwd(g, out, *xs):
        grads, at = [], 0
        for n in sizes:
            grads.append(g[at : at + n])
            at += n
        return tuple(grads)

    return ad._node("concat_rows", tuple(tensors), lambda *xs: np.concatenate(xs, axis=0), bwd)


def matmul_t(a, b):
    """a @ b.T: transpose -> matmul."""
    return matmul(a, transpose(b))


def take_per_row(a, cols):
    """Entry cols[i] of each row i of a 2-D tensor, as an (n,) vector. The
    backward writes each entry's gradient back to that entry, zeros elsewhere."""
    cols = np.asarray(cols, dtype=np.intp)
    if a.data.ndim != 2 or cols.shape != a.data.shape[:1]:
        raise ad.ShapeError("take_per_row", a.data.shape, cols.shape)
    if cols.size and not 0 <= cols.min() <= cols.max() < a.data.shape[1]:
        raise IndexError(f"take_per_row: column index outside [0, {a.data.shape[1]})")
    rows = np.arange(cols.size)

    def bwd(g, out, x):
        gx = np.zeros_like(x)
        gx[rows, cols] = g
        return (gx,)

    return ad._node("take_per_row", (a,), lambda x: x[rows, cols], bwd)


def segment_sum(a, lengths):
    """Sum each run of consecutive rows: (sum(lengths), k) -> (len(lengths), k).
    Every run must hold at least one row."""
    lengths = ad.check_lengths("segment_sum", a.data.shape, lengths)
    starts = np.cumsum(lengths) - lengths
    return ad._node("segment_sum", (a,), lambda x: np.add.reduceat(x, starts, axis=0),
                    lambda g, out, x: (np.repeat(g, lengths, axis=0),))


def sigmoid(a):
    return ad._node("sigmoid", (a,), ad.sigmoid_forward,
                    lambda g, out, x: (ad.sigmoid_backward(g, out),))


def log(a):
    return ad._node("log", (a,), np.log, lambda g, out, x: (g / x,))


def relu(a):
    return ad._node("relu", (a,), ad.relu_forward, lambda g, out, x: (g * (x > 0.0),))


def square(a):
    return ad._node("square", (a,), np.square, lambda g, out, x: (2.0 * x * g,))


def softmax(a):
    """Softmax over each row of a 2-D tensor."""
    return ad._node("softmax", (a,), ad.softmax_forward,
                    lambda g, out, x: (ad.softmax_backward(g, out),))


def _reduce(a, kind, axis, keepdims=False):
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
            np.put_along_axis(gx, np.expand_dims(argfn(x, axis=axis), axis), g, axis=axis)
        return (gx,)

    return ad._node(kind, (a,), fwd, bwd)


def reduce_sum(a, axis=None, keepdims=False):
    return _reduce(a, "sum", axis, keepdims)


def reduce_mean(a, axis=None):
    return _reduce(a, "mean", axis)


def reduce_max(a, axis=None):
    return _reduce(a, "max", axis)


def reduce_min(a, axis=None):
    return _reduce(a, "min", axis)


def depthwise_conv1d(x, kernel, lengths=None):
    """`ad.depthwise_conv1d_forward` as a graph node over (x, kernel), whose
    backward reuses the `ConvGrid` of its latest forward evaluation."""
    if x.data.ndim != 2 or kernel.data.ndim != 2 or x.data.shape[1] != kernel.data.shape[0]:
        raise ad.ShapeError("depthwise_conv1d", x.data.shape, kernel.data.shape)
    lengths = ad.check_lengths("depthwise_conv1d", x.data.shape,
                               [len(x.data)] if lengths is None else lengths)
    w = kernel.data.shape[1]
    grid = None

    def fwd(xv, kv):
        nonlocal grid
        grid = ad.ConvGrid(xv, w, lengths)
        return grid.convolve(kv)

    return ad._node("depthwise_conv1d", (x, kernel), fwd,
                    lambda g, out, xv, kv: ad.depthwise_conv1d_backward(g, kv, grid))


def strided_windows(padded, t_max, reverse=False):
    """`ad._windows` by `as_strided`: slab j of the read-only view holds rows
    j .. j + t_max - 1 of every video of the padded grid, or with `reverse`
    rows w - 1 - j .. w - 2 - j + t_max."""
    n, rows, d = padded.shape
    s_video, s_row, s_col = padded.strides
    start = padded[:, rows - t_max :] if reverse else padded
    return np.lib.stride_tricks.as_strided(
        start, (rows - t_max + 1, n, t_max, d),
        (-s_row if reverse else s_row, s_video, s_row, s_col), writeable=False)


def broadcast_taps(kv, shape):
    """`ad._taps` by `broadcast_to`: the (d, w) kernel as a read-only
    (w, videos, t_max, d) view of a (w, 2, d) block of its taps."""
    d, w = kv.shape
    block = np.zeros((w, 2, d), dtype=kv.dtype)
    block[:, 0] = kv.T
    return np.broadcast_to(block[:, :1, None], (w,) + tuple(shape))


def chain_embedding(params, raw, lengths):
    """transpose -> matmul -> depthwise_conv1d -> l2_normalize_rows."""
    transformed = matmul_t(ad.Tensor(raw), params.transform)
    return ad.l2_normalize_rows(depthwise_conv1d(transformed, params.temporal_kernel, lengths))


def chain_attention(f, attn_hidden, attn_out):
    """transpose -> matmul -> relu -> transpose -> matmul -> sigmoid."""
    return sigmoid(matmul_t(relu(matmul_t(f, attn_hidden)), attn_out))


def _weight_curve(cos, cfg):
    """(1 - c) - cos -> tau_s * -> sigmoid."""
    return sigmoid(mul(cfg.tau_s, sub(1.0 - cfg.c, cos)))


def chain_self_weight(f, i_bg, cfg):
    """take_rows -> mul -> sum -> (1 - c) - cos -> tau_s * -> sigmoid."""
    return _weight_curve(reduce_sum(mul(f, ad.take_rows(f, i_bg)), axis=1, keepdims=True), cfg)


def chain_aggregate(f, weights, lengths):
    """mul -> segment_sum, segment_sum -> div."""
    num, den = segment_sum(mul(weights, f), lengths), segment_sum(weights, lengths)
    if np.any(den.data == 0):
        raise ValueError("cannot aggregate with weights that sum to zero")
    return div(num, den)


def chain_cross_entropy(feats, labels, classifier, tau):
    """transpose -> matmul -> tau * -> softmax -> take_per_row -> log -> mean -> neg."""
    probs = softmax(mul(tau, matmul_t(feats, classifier)))
    return neg(reduce_mean(log(take_per_row(probs, labels))))


def chain_loss_sum(first, weighted):
    """first, then + gamma * term for each (gamma, term): a mul and an add each."""
    loss = first
    for gamma, term in weighted:
        loss = add(loss, mul(gamma, term))
    return loss


def install(monkeypatch):
    """Build every layer of the training objective from its chain."""
    monkeypatch.setattr(model, "_embedding_node", chain_embedding)
    monkeypatch.setattr(model, "_attention_node", chain_attention)
    monkeypatch.setattr(losses, "_self_weight_rows", chain_self_weight)
    monkeypatch.setattr(losses, "_aggregate_videos", chain_aggregate)
    monkeypatch.setattr(losses, "_cross_entropy", chain_cross_entropy)
    monkeypatch.setattr(losses, "_loss_sum", chain_loss_sum)


def video_self_weight(f, i_bg, cfg):
    """One video's self-weights by a product with its BG row:
    f @ take_rows(f, [i_bg]).T -> (1 - c) - cos -> tau_s * -> sigmoid, the
    one-video graph the array path of `losses.self_weight` equals."""
    return _weight_curve(matmul_t(f, ad.take_rows(f, [i_bg])), cfg)


def video_aggregate(f, weights):
    """One video's aggregate weights.T @ f / weights.sum(), the one-video
    graph the array path of `losses.aggregate_video_feature` equals."""
    return div(matmul(transpose(weights), f), reduce_sum(weights))


def weighted(out, g):
    """A scalar root whose gradient at `out` is exactly g."""
    return reduce_sum(mul(out, ad.Tensor(g)))
