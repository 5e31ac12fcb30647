"""Trainable head: segment embedding, cosine classifier, baseline attention.

A raw (T, d_in) segment-feature matrix is mapped per segment through a
linear transform, a depthwise temporal convolution over neighboring
segments, and row-wise L2 normalization, so every embedded segment lives on
the unit sphere and classifier logits are plain cosines. With a gradient,
the embedding is one graph node over the transform and the kernel. The
classifier has one row per base class plus one background row; its rows are
kept unit-norm by the trainer. The small attention net is only used by the
soft-attention baseline configuration; with a gradient it is one graph node
too, and its forward is the no-grad path's `_attention`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import open_for_writing, read_file
from .errors import (BadMagicError, DataError, MalformedFileError, TruncatedFileError,
                     VersionError)

CKPT_MAGIC = b"FVCP"
CKPT_VERSION = 2  # 2: the header records the training settings

PARAM_ORDER = ("transform", "temporal_kernel", "classifier", "attn_hidden", "attn_out")


@dataclass
class ModelParams:
    transform: ad.Tensor  # (d, d_in)
    temporal_kernel: ad.Tensor  # (d, w)
    classifier: ad.Tensor  # (N+1, d), rows unit-norm
    attn_hidden: ad.Tensor  # (hidden, d)
    attn_out: ad.Tensor  # (1, hidden)

    @property
    def d(self) -> int:
        return self.transform.data.shape[0]

    @property
    def d_in(self) -> int:
        return self.transform.data.shape[1]

    @property
    def n_classes(self) -> int:
        return self.classifier.data.shape[0] - 1

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_ORDER}


def init_params(n_classes: int, d_in: int, d: int = 64, kernel_width: int = 8,
                attn_width: int = 32, seed: int = 0) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); classifier rows start unit-norm."""
    rng = np.random.default_rng(seed)
    classifier = rng.normal(size=(n_classes + 1, d))
    # each row over its norm, with the arithmetic of np.linalg.norm
    classifier /= np.sqrt(np.add.reduce(classifier * classifier, axis=1, keepdims=True))
    return ModelParams(
        transform=ad.Tensor(rng.normal(scale=d_in ** -0.5, size=(d, d_in)), requires_grad=True),
        temporal_kernel=ad.Tensor(rng.normal(scale=kernel_width ** -0.5, size=(d, kernel_width)),
                                  requires_grad=True),
        classifier=ad.Tensor(classifier, requires_grad=True),
        attn_hidden=ad.Tensor(rng.normal(scale=d ** -0.5, size=(attn_width, d)), requires_grad=True),
        attn_out=ad.Tensor(rng.normal(scale=attn_width ** -0.5, size=(1, attn_width)),
                           requires_grad=True),
    )


def embed_segments(params: ModelParams, raw, grad: bool = True, lengths=None):
    """(T, d_in) raw feature array -> (T, d) unit-norm embeddings, as one
    graph node over the transform and the temporal kernel.

    With `lengths`, raw stacks videos of those lengths (one batch, one
    graph) and the temporal convolution pads each video on its own. With
    grad=False the same arithmetic runs on plain arrays and an ndarray comes
    back, with no autodiff graph behind it, and every row has the bits of
    embedding its video alone. The graph path keeps those bits for videos of
    two or more rows only: a one-row video's row comes from the stack's
    matrix product (gemm), not a one-row product (gemv), and may differ in
    the last bits. The graph keeps a C-ordered float64 raw itself, not a
    copy, so raw must not change while the graph is in use.
    """
    if not grad:
        raw = np.asarray(raw, dtype=np.float64)
        weight = params.transform.data.T.copy()  # C-ordered, as the node's forward makes it
        transformed = raw @ weight
        if lengths is not None:
            lengths = ad.check_lengths("embed_segments", raw.shape, lengths)
            # NumPy hands a one-row product to gemv, whose bits can differ
            # from a gemm row, so a one-row video gets its own one-row product
            ones = (lengths.cumsum() - 1)[lengths == 1]
            transformed[ones] = (raw[ones, None] @ weight)[:, 0]
        mixed = ad.depthwise_conv1d_forward(transformed, params.temporal_kernel.data, lengths)
        return ad.l2_normalize_rows_forward(mixed)
    return _embedding_node(params, raw, lengths)


def _embedding_node(params: ModelParams, raw, lengths) -> ad.Tensor:
    """`embed_segments`'s graph: one node over (transform, temporal_kernel)
    that keeps the conv's `ConvGrid`, the conv output and its row norms from
    its latest forward evaluation.

    Its forward and backward do the float operations of the chain
    transpose -> matmul -> depthwise_conv1d -> l2_normalize_rows in that
    order, so the rows and both gradients keep their bits.
    """
    # read, never written: a C-ordered float64 stack, as `total_loss` makes, is not copied
    x = np.ascontiguousarray(raw, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise ad.ShapeError("embed_segments", x.shape, params.transform.data.shape)
    lengths = ad.check_lengths("embed_segments", x.shape, [len(x)] if lengths is None else lengths)
    transform, kernel = params.transform, params.temporal_kernel
    grid = mixed = norms = None

    def fwd(tv, kv):
        nonlocal grid, mixed, norms
        # the transformed rows are freed once the grid holds them
        grid = ad.ConvGrid(x @ tv.T.copy(), kv.shape[1], lengths)
        mixed = grid.convolve(kv)
        out, norms = ad.normalized_rows(mixed)
        return out

    def bwd(g, out, tv, kv):
        g_transformed, g_kernel = ad.depthwise_conv1d_backward(
            ad.l2_normalize_rows_backward(g, mixed, norms), kv, grid)
        return ((x.T @ g_transformed).T if transform.requires_grad else None,
                g_kernel if kernel.requires_grad else None)

    return ad._node("embed_segments", (transform, kernel), fwd, bwd)


def segment_logits(params: ModelParams, f: np.ndarray) -> np.ndarray:
    """Cosine logits of plain embedded rows against the class rows, without
    the background row."""
    return f @ params.classifier.data[:params.n_classes].T.copy()


def class_rows(params: ModelParams) -> ad.Tensor:
    """The classifier without its background (last) row, as a graph node."""
    return ad.take_rows(params.classifier, np.arange(params.n_classes))


def _attention(f: np.ndarray, attn_hidden: np.ndarray, attn_out: np.ndarray):
    """(hidden activations, weights) of the attention net on plain arrays:
    relu(f @ attn_hidden.T), then sigmoid(hidden @ attn_out.T), each
    transpose a C-ordered copy as the graph's transpose node made it."""
    hidden = ad.relu_forward(f @ attn_hidden.T.copy())
    return hidden, ad.sigmoid_forward(hidden @ attn_out.T.copy())


def baseline_attention(params: ModelParams, f):
    """(T, 1) per-segment weights in (0, 1) from a tiny two-layer net.

    A Tensor f gives one graph node over (f, attn_hidden, attn_out); a plain
    array gives a plain array, and a plain (..., T, d) stack of videos gives
    (..., T, 1). Both run `_attention`.
    """
    if not isinstance(f, ad.Tensor):
        return _attention(f, params.attn_hidden.data, params.attn_out.data)[1]
    return _attention_node(f, params.attn_hidden, params.attn_out)


def _attention_node(f: ad.Tensor, attn_hidden: ad.Tensor, attn_out: ad.Tensor) -> ad.Tensor:
    """`baseline_attention`'s graph: one node that keeps the hidden
    activations of its latest forward evaluation.

    Its backward does the float operations of the chain's backward,
    transpose -> matmul -> relu -> transpose -> matmul -> sigmoid, in that
    order, so every input gradient keeps its bits.
    """
    hidden = None

    def fwd(fv, hv, ov):
        nonlocal hidden
        hidden, out = _attention(fv, hv, ov)
        return out

    def bwd(g, out, fv, hv, ov):
        # each matmul's backward multiplies by the transpose of the C-ordered
        # copy the chain's transpose node held
        hidden_w, out_w = hv.T.copy(), ov.T.copy()
        g_logit = ad.sigmoid_backward(g, out)
        g_pre = (g_logit @ out_w.T) * (hidden > 0.0)  # relu passes where it was positive
        return (g_pre @ hidden_w.T if f.requires_grad else None,
                (fv.T @ g_pre).T if attn_hidden.requires_grad else None,
                (hidden.T @ g_logit).T if attn_out.requires_grad else None)

    return ad._node("attention", (f, attn_hidden, attn_out), fwd, bwd)


def save_checkpoint(params: ModelParams, path, config_echo: dict = None):
    """Header (JSON: tensor names + shapes + config echo) then the tensors
    as little-endian float64, concatenated in header order."""
    tensors = params.tensors()
    header = {
        "tensors": [{"name": n, "shape": list(tensors[n].data.shape)} for n in PARAM_ORDER],
        "config": config_echo or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open_for_writing(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(blob)))
        fh.write(blob)
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(tensors[name].data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (ModelParams, config echo dict)."""
    blob = read_file(path, "checkpoint")
    if blob[:4] != CKPT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    if len(blob) < 12:
        raise TruncatedFileError(f"{path}: checkpoint ends inside its fixed header")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != CKPT_VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}" + (
            ", which predates the recorded training settings; retrain it" if version == 1 else ""))
    if 12 + header_len > len(blob):
        raise TruncatedFileError(f"{path}: checkpoint ends inside its {header_len}-byte header")
    try:
        header = json.loads(blob[12 : 12 + header_len])
    # JSONDecodeError, UnicodeDecodeError and an integer too long to convert
    # are ValueErrors
    except (ValueError, RecursionError) as err:
        raise DataError(f"{path}: corrupt checkpoint header: {err}") from err
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("config"), dict)):
        raise DataError(f"{path}: checkpoint header lacks its tensors list or config")
    at = 12 + header_len
    loaded = {}
    for entry in header["tensors"]:
        name = entry.get("name") if isinstance(entry, dict) else None
        if name not in PARAM_ORDER:
            raise DataError(f"{path}: checkpoint tensor entry needs a shape and a name from "
                            f"{list(PARAM_ORDER)}, got name {name!r}")
        if name in loaded:
            raise DataError(f"{path}: checkpoint lists tensor {name} twice")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n >= 1 for n in shape)):
            raise DataError(f"{path}: checkpoint tensors must be non-empty matrices, "
                            f"got {name} shape {shape!r}")
        end = at + 8 * math.prod(shape)  # Python ints: a huge shape cannot wrap
        if end > len(blob):
            raise TruncatedFileError(f"{path}: tensor {name} extends past end of file")
        arr = np.frombuffer(blob[at:end], dtype="<f8").reshape(shape).astype(np.float64)
        loaded[name] = ad.Tensor(arr, requires_grad=True)
        at = end
    if at < len(blob):
        raise MalformedFileError(f"{path}: {len(blob) - at} bytes follow the last "
                                 f"checkpoint tensor")
    missing = [n for n in PARAM_ORDER if n not in loaded]
    if missing:
        raise DataError(f"{path}: checkpoint missing tensors {missing}")
    params = ModelParams(**{n: loaded[n] for n in PARAM_ORDER})
    _check_loaded(params, path)
    return params, header["config"]


def _check_loaded(params: ModelParams, path):
    """Raise DataError unless the tensors' (matrix) shapes agree with each
    other, the classifier has a class row besides the background row, and
    their values are all finite."""
    shapes = {name: t.data.shape for name, t in params.tensors().items()}
    d, d_in = shapes["transform"]
    h = shapes["attn_hidden"][0]
    agreed = {"transform": (d, d_in), "temporal_kernel": (d, shapes["temporal_kernel"][1]),
              "classifier": (shapes["classifier"][0], d), "attn_hidden": (h, d),
              "attn_out": (1, h)}
    if shapes != agreed:
        raise DataError(f"{path}: checkpoint shapes {shapes} disagree; expected transform "
                        f"(d, d_in), temporal_kernel (d, w), classifier (N+1, d), "
                        f"attn_hidden (h, d), attn_out (1, h)")
    if shapes["classifier"][0] < 2:
        raise DataError(f"{path}: checkpoint classifier has only its background row, "
                        f"no class row")
    for name, t in params.tensors().items():
        if not np.all(np.isfinite(t.data)):
            raise DataError(f"{path}: checkpoint tensor {name} holds non-finite values")
