"""Base-class training: batching, momentum updates, logging, checkpoints.

Training consumes untrimmed base videos with only their video-level labels;
everything temporal (which segments are background, which are confident
foreground) is pseudo-labeled on the fly from the model's own logits. The
optimizer is plain Nesterov momentum, and classifier rows are projected back
to the unit sphere after every step so logits stay cosines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import DatasetManifest, write_csv
from .errors import DataError, NumericError
from .evaluate import classification_accuracy
from .losses import BatchVideo, LossConfig, total_loss

LOG_COLUMNS = ("step", "L_total", "L_cls", "L_contrast", "L_bg", "n_nbg")


@dataclass
class OptimizerState:
    lr: float = 0.01
    momentum: float = 0.9
    velocity: dict = field(default_factory=dict)  # tensor name -> ndarray


def nesterov_step(tensors: dict, grads: dict, state: OptimizerState):
    """v <- mu*v - lr*g; p <- p + mu*v - lr*g. Updates tensors in place.

    The tensor named "classifier", if present, gets its rows rescaled to unit
    norm after the update.
    """
    for name, tensor in tensors.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != tensor.data.shape:
            raise ad.ShapeError("nesterov_step", tensor.data.shape, g.shape)
        v = state.velocity.setdefault(name, np.zeros_like(tensor.data))
        v *= state.momentum
        v -= state.lr * g
        tensor.data += state.momentum * v - state.lr * g
    if "classifier" in tensors:
        w = tensors["classifier"].data
        norms = np.linalg.norm(w, axis=-1, keepdims=True)
        w /= np.where(norms > 0.0, norms, 1.0)
    return tensors, state


@dataclass
class TrainResult:
    params: model_mod.ModelParams
    log_rows: list
    label_order: list  # classifier row index -> original class label


def load_training_videos(manifest: DatasetManifest):
    """All base videos in memory, labels remapped to classifier row indices.

    Raises DataError naming the file when a video's feature width differs
    from the first video's, and naming the video when its intervals or
    segment roles do not fit its features (`SegmentFeatureSequence.validate`).
    """
    labels = manifest.class_labels()
    remap = {label: i for i, label in enumerate(labels)}
    videos, width = [], None
    for entry in manifest.entries:
        path = os.path.join(manifest.root, entry.feature_file)
        features = manifest.load_sequence(entry).features
        if width is None:
            width, first = features.shape[1], path
        elif features.shape[1] != width:
            raise DataError(f"{path}: features are {features.shape[1]} wide, but "
                            f"{first} is {width} wide")
        videos.append(BatchVideo(features=features, label=remap[entry.class_label]))
    return videos, labels


def _check_writable(path):
    """Raise DataError naming `path` unless a file can be written there: it
    is not a directory and its parent exists or can be created (it is
    created). An existing file is left as it is."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DataError(f"cannot write {path}: cannot create its directory: "
                        f"{err.strerror}") from err


# a diverging step overflows before its loss turns non-finite; the finite-loss
# check is the one place that decides what follows, so NumPy does not warn
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_base(manifest: DatasetManifest, loss_cfg: LossConfig = None, *,
               d: int = 64, kernel_width: int = 8, attn_width: int = 32,
               lr: float = 0.01, momentum: float = 0.9,
               batch_size: int = 16, epochs: int = 30, seed: int = 0,
               t_n: float = 0.25, top_m: int = None,
               ckpt_path=None, log_path=None, config_echo: dict = None) -> TrainResult:
    """Train the head on a base manifest; deterministic given seed.

    Raises DataError before the first step when ckpt_path or log_path
    cannot be written.
    """
    loss_cfg = (loss_cfg or LossConfig()).validate()
    if not manifest.entries:
        raise DataError("cannot train on an empty manifest")
    videos, label_order = load_training_videos(manifest)
    for path in (ckpt_path, log_path):
        if path:
            _check_writable(path)
    n_classes = len(label_order)
    d_in = videos[0].features.shape[1]
    params = model_mod.init_params(
        n_classes=n_classes, d_in=d_in, d=d, kernel_width=kernel_width,
        attn_width=attn_width, seed=seed)
    state = OptimizerState(lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)

    echo = dict(config_echo or {})
    echo.update({"n_classes": n_classes, "d": d, "d_in": d_in,
                 "kernel_width": kernel_width, "attn_width": attn_width,
                 "label_order": [int(x) for x in label_order]})

    log_rows = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(videos))
        for at in range(0, len(videos), batch_size):
            batch = [videos[i] for i in order[at : at + batch_size]]
            loss, stats = total_loss(params, batch, loss_cfg, t_n=t_n, top_m=top_m)
            step += 1
            if not np.isfinite(stats["l_total"]):
                if ckpt_path:
                    model_mod.save_checkpoint(params, ckpt_path, echo)
                if log_path:
                    write_csv(log_path, LOG_COLUMNS, log_rows)
                where = f"; last good checkpoint written to {ckpt_path}" if ckpt_path else ""
                raise NumericError(f"non-finite loss at step {step}{where}")
            ad.backward(loss)
            grads = {name: t.grad for name, t in params.tensors().items() if t.grad is not None}
            nesterov_step(params.tensors(), grads, state)
            log_rows.append((step, stats["l_total"], stats["l_cls"],
                             stats["l_contrast"], stats["l_bg"], stats["n_nbg"]))

    if ckpt_path:
        model_mod.save_checkpoint(params, ckpt_path, echo)
    if log_path:
        write_csv(log_path, LOG_COLUMNS, log_rows)
    return TrainResult(params=params, log_rows=log_rows, label_order=label_order)


def training_accuracy(params: model_mod.ModelParams, manifest: DatasetManifest,
                      loss_cfg: LossConfig = None) -> float:
    """Fraction of base videos whose aggregated feature lands on its own class.

    The videos are classified as evaluation classifies queries, with the
    classifier's class rows as the prototypes and no autodiff graph.
    """
    if not manifest.entries:
        raise DataError("cannot take the training accuracy of an empty manifest")
    videos, _ = load_training_videos(manifest)
    embeddings = [model_mod.embed_segments(params, video.features, grad=False)
                  for video in videos]
    return classification_accuracy(params, embeddings, [video.label for video in videos],
                                   params.classifier.data[:params.n_classes], loss_cfg)


def gradcheck_objective(seed: int = 0, loss_cfg: LossConfig = None):
    """Standard fixture for checking the full objective's gradients: two
    random (8, 8) videos of 3 classes, an 8-wide head, and t_n = 0.5 so
    every loss term participates.

    Returns (param arrays, loss builder) ready for autodiff.grad_check.
    """
    rng = np.random.default_rng(seed)
    batch = [
        BatchVideo(features=rng.normal(size=(8, 8)), label=int(rng.integers(3)))
        for _ in range(2)
    ]
    params = model_mod.init_params(n_classes=3, d_in=8, d=8, seed=seed)
    cfg = loss_cfg or LossConfig()

    def builder(leaves):
        p = model_mod.ModelParams(**leaves)
        loss, _ = total_loss(p, batch, cfg, t_n=0.5)
        return loss

    return {name: t.data for name, t in params.tensors().items()}, builder
