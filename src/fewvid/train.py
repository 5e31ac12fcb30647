"""Base-class training: batching, momentum updates, logging, checkpoints.

Training consumes untrimmed base videos with only their video-level labels;
everything temporal (which segments are background, which are confident
foreground) is pseudo-labeled on the fly from the model's own logits. The
optimizer is plain Nesterov momentum, and classifier rows are projected back
to the unit sphere after every step so logits stay cosines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .config import RunConfig
from .data import DatasetManifest, check_writable, write_csv
from .errors import DataError, NumericError
from .losses import BatchVideo, LossConfig, total_loss

LOG_COLUMNS = ("step", "L_total", "L_cls", "L_contrast", "L_bg", "n_nbg")
ECHO_KEYS = (*(f.name for f in fields(LossConfig)), "d", "kernel_width", "attn_width", "lr",
             "momentum", "batch_size", "epochs", "seed")


@dataclass
class OptimizerState:
    lr: float = 0.01
    momentum: float = 0.9
    velocity: dict = field(default_factory=dict)  # tensor name -> ndarray


def nesterov_step(tensors: dict, grads: dict, state: OptimizerState):
    """v <- mu*v - lr*g; p <- p + mu*v - lr*g. Updates tensors in place.

    Each velocity starts at zero and is made once, at its tensor's first
    step. The tensor named "classifier", if present, gets its rows rescaled
    to unit norm after the update, with np.linalg.norm's arithmetic.
    """
    for name, tensor in tensors.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != tensor.data.shape:
            raise ad.ShapeError("nesterov_step", tensor.data.shape, g.shape)
        v = state.velocity.get(name)
        if v is None:
            v = state.velocity[name] = np.zeros(tensor.data.shape)
        v *= state.momentum
        v -= state.lr * g
        tensor.data += state.momentum * v - state.lr * g
    if "classifier" in tensors:
        w = tensors["classifier"].data
        norms = np.sqrt(np.add.reduce(w * w, axis=-1, keepdims=True))
        w /= np.where(norms > 0.0, norms, 1.0)
    return tensors, state


@dataclass
class TrainResult:
    params: model_mod.ModelParams
    log_rows: list


def load_training_videos(manifest: DatasetManifest):
    """All base videos' rows (`DatasetManifest.read_videos`), labels
    remapped to classifier row indices."""
    labels = manifest.class_labels()
    remap = {label: i for i, label in enumerate(labels)}
    rows = manifest.read_videos(range(len(manifest.entries)))
    return [BatchVideo(features=features, label=remap[entry.class_label])
            for entry, features in zip(manifest.entries, rows.values())], labels


# a diverging step overflows before its loss turns non-finite; the finite-loss
# check is the one place that decides what follows, so NumPy does not warn
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_base(manifest: DatasetManifest, cfg: RunConfig, *,
               ckpt_path=None, log_path=None) -> TrainResult:
    """Train the head on a base manifest with cfg's settings, deterministic
    given cfg.seed; the checkpoint's config echo holds the ECHO_KEYS (every
    objective key, then the model's and the optimizer's), n_classes, d_in
    and label_order. Raises DataError before the first step when ckpt_path
    or log_path cannot be written."""
    cfg.validate()
    if not manifest.entries:
        raise DataError("cannot train on an empty manifest")
    videos, label_order = load_training_videos(manifest)
    for path in (ckpt_path, log_path):
        if path:
            check_writable(path, make_parent=True)
    n_classes = len(label_order)
    d_in = videos[0].features.shape[1]
    params = model_mod.init_params(
        n_classes=n_classes, d_in=d_in, d=cfg.d, kernel_width=cfg.kernel_width,
        attn_width=cfg.attn_width, seed=cfg.seed)
    state = OptimizerState(lr=cfg.lr, momentum=cfg.momentum)
    rng = np.random.default_rng(cfg.seed)

    echo = {key: getattr(cfg, key) for key in ECHO_KEYS}
    echo.update(n_classes=n_classes, d_in=d_in, label_order=[int(x) for x in label_order])

    log_rows = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(videos))
        for at in range(0, len(videos), cfg.batch_size):
            batch = [videos[i] for i in order[at : at + cfg.batch_size]]
            loss, stats = total_loss(params, batch, cfg)
            step = len(log_rows) + 1
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
    return TrainResult(params=params, log_rows=log_rows)


def gradcheck_objective(seed: int = 0, loss_cfg: LossConfig = None):
    """Standard fixture for checking the full objective's gradients: two
    random (8, 8) videos of 3 classes, an 8-wide head, and t_n = 0.5 (with
    the default top_m) so every loss term participates.

    Returns (param arrays, loss builder) ready for autodiff.grad_check.
    """
    rng = np.random.default_rng(seed)
    batch = [
        BatchVideo(features=rng.normal(size=(8, 8)), label=int(rng.integers(3)))
        for _ in range(2)
    ]
    params = model_mod.init_params(n_classes=3, d_in=8, d=8, seed=seed)
    cfg = replace(loss_cfg or LossConfig(), t_n=0.5, top_m=0)

    def builder(leaves):
        p = model_mod.ModelParams(**leaves)
        loss, _ = total_loss(p, batch, cfg)
        return loss

    return {name: t.data for name, t in params.tensors().items()}, builder
