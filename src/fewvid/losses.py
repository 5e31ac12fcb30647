"""Training objectives over weakly labeled untrimmed videos.

The total objective has three parts. A soft classification loss on the
aggregated video feature carries the video-level label. A background
classification loss teaches the extra classifier row to claim pseudo-labeled
non-informative background (NBG) segments. A margin contrastive loss pulls
NBG segments from different videos together and pushes them away from
high-confidence foreground/informative segments, so that "uninformative"
becomes a compact region of the embedding space instead of a blanket
suppression of everything the base classifier does not recognize.

Aggregation weights come either from the per-video self-weighting (distance
to the video's own pseudo-labeled background segment) or, in the baseline
configuration, from the global attention net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from . import pseudo as pseudo_mod
from .errors import DataError


@dataclass
class LossConfig:
    tau: float = 10.0  # classification softmax temperature
    tau_s: float = 8.0  # peakedness of the self-weighting curve
    c: float = 0.5  # cosine at which self-weight crosses 0.5
    margin: float = 2.0  # contrastive margin on squared distances
    beta: float = 1.0  # weight of the push-apart term
    gamma1: float = 0.05  # contrastive loss weight
    gamma2: float = 0.05  # background classification loss weight
    bg: bool = True  # background row + background classification loss
    sw: bool = True  # self-weighting (off: use the attention net)
    cl: bool = True  # contrastive loss

    def validate(self):
        for name in ("tau", "tau_s"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.margin <= 4.0:
            raise DataError(f"margin must be in [0, 4], got {self.margin}")
        for name in ("beta", "gamma1", "gamma2"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.c <= 2.0:  # 1 - c stays a cosine
            raise DataError(f"c must be in [0, 2], got {self.c}")
        return self


def self_weight(f, i_bg, cfg: LossConfig = None):
    """(T, 1) weights decreasing in cosine similarity to the BG segment.

    weight = sigmoid(tau_s * (1 - c - cos)): exactly 0.5 when cos == 1 - c,
    near 0 for segments that look like the background, near 1 for segments
    far from it. i_bg is the BG row of one video; for a Tensor f that stacks
    a batch it may instead be an index array naming, for every row of f, the
    BG row of that row's video. A plain (Q, T, d) array f stacks Q videos of
    one length, with a (Q,) i_bg, and gives (Q, T, 1) weights. A Tensor f
    gives a graph node; a plain array gives a plain array.
    """
    cfg = cfg or LossConfig()
    if not isinstance(f, ad.Tensor):
        # each video's BG row as a C-ordered (d, 1) column, like the graph's transpose
        at = np.reshape(i_bg, np.shape(i_bg) + (1, 1))
        cos = f @ np.take_along_axis(f, at, axis=-2).swapaxes(-1, -2).copy()
        sigmoid = ad.sigmoid_forward
    elif np.ndim(i_bg):
        cos = (f * ad.take_rows(f, i_bg)).sum(axis=1, keepdims=True)
        sigmoid = ad.sigmoid
    else:
        cos = f @ ad.take_rows(f, [i_bg]).T
        sigmoid = ad.sigmoid
    return sigmoid(cfg.tau_s * ((1.0 - cfg.c) - cos))


def aggregate_video_feature(f, weights, lengths=None):
    """(1, d) convex combination of segment features, weights normalized.

    Takes Tensors or plain arrays, and returns the same kind. With `lengths`
    (Tensors only), f and weights stack videos of those lengths and each
    video gets its own row of the (len(lengths), d) result. Plain (Q, T, d)
    features with (Q, T, 1) weights stack Q videos of one length and give
    (Q, 1, d).
    """
    if lengths is not None:
        num, den = ad.segment_sum(weights * f, lengths), ad.segment_sum(weights, lengths)
    elif isinstance(f, ad.Tensor):
        num, den = weights.T @ f, weights.sum()
    else:
        # each video's weights summed along its own contiguous T axis
        num = weights.swapaxes(-1, -2) @ f
        den = weights[..., 0].sum(axis=-1)[..., None, None]
    if np.any((den.data if isinstance(den, ad.Tensor) else den) == 0):
        raise ValueError("cannot aggregate with weights that sum to zero")
    return num / den


def _cross_entropy(feats: ad.Tensor, labels: np.ndarray, classifier: ad.Tensor,
                   tau: float) -> ad.Tensor:
    """Mean over rows of -log softmax(tau * feats @ classifier.T)[row, label]."""
    probs = ad.softmax(tau * (feats @ classifier.T))
    return -(ad.log(ad.take_per_row(probs, labels))).mean()


def _stack(feats):
    """Feature rows as one Tensor, from a Tensor or a list of row Tensors;
    None when there are no rows."""
    if isinstance(feats, ad.Tensor):
        return feats if feats.data.shape[0] else None
    return ad.concat_rows(feats) if feats else None


def soft_cls_loss(F: ad.Tensor, y, classifier: ad.Tensor,
                  cfg: LossConfig = None) -> ad.Tensor:
    """Cross entropy of video features, each re-normalized to unit length,
    against classifier rows, averaged over videos: F has one row per video,
    y one label per row (an int for a single video)."""
    cfg = cfg or LossConfig()
    labels = np.atleast_1d(np.asarray(y, dtype=np.intp))
    n_rows = classifier.data.shape[0]
    if labels.min() < 0 or labels.max() >= n_rows:
        raise ValueError(f"labels {labels.tolist()} out of range for {n_rows} classifier rows")
    return _cross_entropy(ad.l2_normalize_rows(F), labels, classifier, cfg.tau)


def bg_cls_loss(nbg_feats, classifier: ad.Tensor, cfg: LossConfig = None) -> ad.Tensor:
    """Mean cross entropy of NBG segment features (a Tensor of rows or a
    list of row Tensors) against the BG row (the last classifier row); zero
    when the batch has no NBG."""
    cfg = cfg or LossConfig()
    rows = _stack(nbg_feats)
    if rows is None:
        return ad.Tensor(0.0)
    bg_row = classifier.data.shape[0] - 1
    return _cross_entropy(rows, np.full(rows.data.shape[0], bg_row), classifier, cfg.tau)


def _summed_squares(diffs: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis of difference rows (squared in
    place), with the bits of the graph's square(diff).sum() on one pair."""
    return np.square(diffs, out=diffs).sum(axis=-1)


def contrastive_loss(nbg_feats, fgibg_feats, cfg: LossConfig = None) -> ad.Tensor:
    """Hardest-pair contrastive objective on squared Euclidean distances.

    Pull: the farthest pair of NBG features (they should all look alike).
    Push: hinge on the closest NBG-to-foreground pair staying at least
    `margin` apart. Either term is dropped when its pool is too small. Each
    pool is a Tensor of rows or a list of row Tensors.

    Only the chosen pair carries a gradient, so each pair is picked on plain
    arrays and only its two rows enter the graph. Ties go to the first pair,
    NBG pairs in `np.triu_indices` order and cross pairs FG-row-major, as a
    max/min over every pair would pick.
    """
    cfg = cfg or LossConfig()
    nb, fg = _stack(nbg_feats), _stack(fgibg_feats)
    terms = []
    if nb is not None and nb.data.shape[0] >= 2:
        first, second = np.triu_indices(nb.data.shape[0], 1)
        at = np.argmax(_summed_squares(nb.data[first] - nb.data[second]))
        i, j = first[at], second[at]
        diff = ad.take_rows(nb, [i]) - ad.take_rows(nb, [j])
        terms.append(ad.square(diff).sum())
    if nb is not None and fg is not None:
        dist = _summed_squares(fg.data[:, None] - nb.data[None])
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        cross = ad.take_rows(fg, [i]) - ad.take_rows(nb, [j])
        closest = ad.square(cross).sum()
        terms.append(cfg.beta * ad.relu(cfg.margin - closest))
    if not terms:
        return ad.Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


@dataclass
class BatchVideo:
    features: np.ndarray  # (T, d_in) raw segment features
    label: int  # base-class index in 0..N-1


def total_loss(params: model_mod.ModelParams, batch: list, cfg: LossConfig = None,
               t_n: float = 0.25, top_m: int = None):
    """Full training objective over a batch of untrimmed videos, as one graph.

    The batch is embedded as one stack of segment rows. The videos are
    pseudo-labeled from their current logits, computed as plain arrays since
    no gradient flows through the decisions, in one call over the whole
    batch; the decisions enter the graph as constant row indices. Each video
    is aggregated and classified, and the batch loss is the mean
    classification loss plus the background and contrastive terms over the
    batch's NBG and FG+IBG rows, weighted by gamma2 and gamma1. Returns (loss
    Tensor, stats dict); stats["labels"] is the batch's `PseudoLabelRecord`.
    """
    cfg = (cfg or LossConfig()).validate()
    lengths = np.array([video.features.shape[0] for video in batch], dtype=np.intp)
    f = model_mod.embed_segments(
        params, np.concatenate([video.features for video in batch]), lengths=lengths)
    labels = pseudo_mod.pseudo_label_video(
        model_mod.segment_logits(params, f.data), lengths, t_n=t_n, M=top_m)

    if cfg.sw:
        weights = self_weight(f, np.repeat(labels.bg_rows, lengths), cfg)
    else:
        weights = model_mod.baseline_attention(params, f)
    F = aggregate_video_feature(f, weights, lengths)
    head = params.classifier if cfg.bg else model_mod.class_rows(params)
    l_cls = soft_cls_loss(F, [video.label for video in batch], head, cfg)

    nbg = ad.take_rows(f, labels.bg_rows[labels.is_nbg])
    fgibg = ad.take_rows(f, labels.fg_rows)

    loss = l_cls
    l_contrast = ad.Tensor(0.0)
    if cfg.cl:
        l_contrast = contrastive_loss(nbg, fgibg, cfg)
        loss = loss + cfg.gamma1 * l_contrast
    l_bg = ad.Tensor(0.0)
    if cfg.bg:
        l_bg = bg_cls_loss(nbg, params.classifier, cfg)
        loss = loss + cfg.gamma2 * l_bg

    stats = {
        "l_total": float(loss.data),
        "l_cls": float(l_cls.data),
        "l_contrast": float(l_contrast.data),
        "l_bg": float(l_bg.data),
        "n_nbg": nbg.data.shape[0],
        "labels": labels,
    }
    return loss, stats
