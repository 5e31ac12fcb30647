"""Trainable head: segment embedding, cosine classifier, baseline attention.

A raw (T, d_in) segment-feature matrix is mapped per segment through a
linear transform, a depthwise temporal convolution over neighboring
segments, and row-wise L2 normalization, so every embedded segment lives on
the unit sphere and classifier logits are plain cosines. The classifier has
one row per base class plus one background row; its rows are kept unit-norm
by the trainer. The small attention net is only used by the soft-attention
baseline configuration.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import read_file
from .errors import (BadMagicError, DataError, MalformedFileError, TruncatedFileError,
                     VersionError)

CKPT_MAGIC = b"FVCP"
CKPT_VERSION = 1

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

    def copy(self) -> "ModelParams":
        return ModelParams(**{
            name: ad.Tensor(t.data.copy(), requires_grad=True)
            for name, t in self.tensors().items()
        })


def init_params(n_classes: int, d_in: int, d: int = 64, kernel_width: int = 8,
                attn_width: int = 32, seed: int = 0) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); classifier rows start unit-norm."""
    rng = np.random.default_rng(seed)
    classifier = rng.normal(size=(n_classes + 1, d))
    classifier /= np.linalg.norm(classifier, axis=1, keepdims=True)
    return ModelParams(
        transform=ad.Tensor(rng.normal(scale=d_in ** -0.5, size=(d, d_in)), requires_grad=True),
        temporal_kernel=ad.Tensor(rng.normal(scale=kernel_width ** -0.5, size=(d, kernel_width)),
                                  requires_grad=True),
        classifier=ad.Tensor(classifier, requires_grad=True),
        attn_hidden=ad.Tensor(rng.normal(scale=d ** -0.5, size=(attn_width, d)), requires_grad=True),
        attn_out=ad.Tensor(rng.normal(scale=attn_width ** -0.5, size=(1, attn_width)),
                           requires_grad=True),
    )


def _rows_t(weight: ad.Tensor) -> np.ndarray:
    # a C-ordered copy of the transpose, as the graph's transpose node makes,
    # so array products equal the graph's bit for bit
    return weight.data.T.copy()


def embed_segments(params: ModelParams, raw, grad: bool = True, lengths=None):
    """(T, d_in) raw features -> (T, d) unit-norm embeddings.

    With `lengths`, raw stacks videos of those lengths (one batch, one
    graph) and the temporal convolution pads each video on its own. With
    grad=False the same arithmetic runs on plain arrays and an ndarray comes
    back, with no autodiff graph behind it, and every row has the bits of
    embedding its video alone. The graph path keeps those bits for videos of
    two or more rows only: a one-row video's row comes from the stack's
    matrix product (gemm), not a one-row product (gemv), and may differ in
    the last bits.
    """
    if not grad:
        raw = np.asarray(raw, dtype=np.float64)
        weight = _rows_t(params.transform)
        transformed = raw @ weight
        if lengths is not None:
            lengths = ad.check_lengths("embed_segments", raw.shape, lengths)
            # NumPy hands a one-row product to gemv, whose bits can differ
            # from a gemm row, so a one-row video gets its own one-row product
            ones = (np.cumsum(lengths) - 1)[lengths == 1]
            transformed[ones] = (raw[ones, None] @ weight)[:, 0]
        mixed = ad.depthwise_conv1d_forward(transformed, params.temporal_kernel.data, lengths)
        return ad.l2_normalize_rows_forward(mixed)
    x = raw if isinstance(raw, ad.Tensor) else ad.Tensor(raw)
    transformed = x @ params.transform.T
    mixed = ad.depthwise_conv1d(transformed, params.temporal_kernel, lengths)
    return ad.l2_normalize_rows(mixed)


def segment_logits(params: ModelParams, f):
    """Cosine logits against the class rows, without the background row.

    A Tensor f gives a graph node; a plain array gives a plain array.
    """
    if not isinstance(f, ad.Tensor):
        return f @ params.classifier.data[:params.n_classes].T.copy()
    return f @ class_rows(params).T


def class_rows(params: ModelParams) -> ad.Tensor:
    """The classifier without its background (last) row, as a graph node."""
    return ad.take_rows(params.classifier, np.arange(params.n_classes))


def baseline_attention(params: ModelParams, f):
    """(T, 1) per-segment weights in (0, 1) from a tiny two-layer net.

    A Tensor f gives a graph node; a plain array gives a plain array, and a
    plain (Q, T, d) stack of videos gives (Q, T, 1).
    """
    if not isinstance(f, ad.Tensor):
        hidden = ad.relu_forward(f @ _rows_t(params.attn_hidden))
        return ad.sigmoid_forward(hidden @ _rows_t(params.attn_out))
    hidden = ad.relu(f @ params.attn_hidden.T)
    return ad.sigmoid(hidden @ params.attn_out.T)


def save_checkpoint(params: ModelParams, path, config_echo: dict = None):
    """Header (JSON: tensor names + shapes + config echo) then the tensors
    as little-endian float64, concatenated in header order."""
    tensors = params.tensors()
    header = {
        "tensors": [{"name": n, "shape": list(tensors[n].data.shape)} for n in PARAM_ORDER],
        "config": config_echo or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
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
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
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
    other and their values are all finite."""
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
    for name, t in params.tensors().items():
        if not np.all(np.isfinite(t.data)):
            raise DataError(f"{path}: checkpoint tensor {name} holds non-finite values")


def check_feature_width(params: ModelParams, features: np.ndarray, source):
    """Raise DataError unless the (T, d_in) features match the parameters' d_in."""
    if features.shape[1] != params.d_in:
        raise DataError(f"{source}: features are {features.shape[1]} wide, the checkpoint "
                        f"expects d_in = {params.d_in}")


def delta_kernel(d: int, width: int = 8) -> np.ndarray:
    """Identity kernel for the temporal convolution (single center tap)."""
    k = np.zeros((d, width))
    k[:, (width - 1) // 2] = 1.0
    return k
