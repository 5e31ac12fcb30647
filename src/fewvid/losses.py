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


@dataclass
class LossConfig:
    tau: float = 10.0  # classification softmax temperature
    tau_s: float = 8.0  # peakedness of the self-weighting curve
    c: float = 0.5  # cosine at which self-weight crosses 0.5
    margin: float = 2.0  # contrastive margin on squared distances
    beta: float = 1.0  # weight of the push-apart term
    gamma1: float = 0.05  # contrastive loss weight
    gamma2: float = 0.05  # background classification loss weight
    soft: bool = True  # soft video-level classification (always on)
    bg: bool = True  # background row + background classification loss
    sw: bool = True  # self-weighting (off: use the attention net)
    cl: bool = True  # contrastive loss
    renormalize_video_feature: bool = True  # re-unit-norm the aggregate

    def validate(self):
        if self.tau <= 0 or self.tau_s <= 0:
            raise ValueError("temperatures must be positive")
        if not 0.0 <= self.margin <= 4.0:
            raise ValueError(f"margin must be in [0, 4], got {self.margin}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("loss weights must be non-negative")
        if not self.soft:
            raise ValueError("the soft classification loss cannot be disabled; "
                             "every configuration builds on it")
        return self


def self_weight(f, i_bg: int, cfg: LossConfig = None):
    """(T, 1) weights decreasing in cosine similarity to the BG segment.

    weight = sigmoid(tau_s * (1 - c - cos)): exactly 0.5 when cos == 1 - c,
    near 0 for segments that look like the background, near 1 for segments
    far from it. A Tensor f gives a graph node; a plain array gives a plain
    array.
    """
    cfg = cfg or LossConfig()
    if isinstance(f, ad.Tensor):
        cos = f @ (ad.one_hot_row(i_bg, f.data.shape[0]) @ f).T
        sigmoid = ad.sigmoid
    else:
        cos = f @ f[i_bg : i_bg + 1].T.copy()  # C-ordered, like the graph's transpose
        sigmoid = ad.sigmoid_forward
    return sigmoid(cfg.tau_s * ((1.0 - cfg.c) - cos))


def aggregate_video_feature(f, weights):
    """(1, d) convex combination of segment features, weights normalized.

    Takes Tensors or plain arrays, and returns the same kind.
    """
    if not np.any(weights.data if isinstance(weights, ad.Tensor) else weights):
        raise ValueError("cannot aggregate with all-zero weights")
    return (weights.T @ f) / weights.sum()


def soft_cls_loss(F: ad.Tensor, y: int, classifier: ad.Tensor,
                  cfg: LossConfig = None, renormalize: bool = None) -> ad.Tensor:
    """Cross entropy of the video feature against classifier rows."""
    cfg = cfg or LossConfig()
    if renormalize is None:
        renormalize = cfg.renormalize_video_feature
    n_rows = classifier.data.shape[0]
    if not 0 <= y < n_rows:
        raise ValueError(f"label {y} out of range for {n_rows} classifier rows")
    feat = ad.l2_normalize_rows(F) if renormalize else F
    probs = ad.softmax(cfg.tau * (feat @ classifier.T), axis=1)
    pick = np.zeros((1, n_rows))
    pick[0, y] = 1.0
    return -ad.log((probs * ad.Tensor(pick)).sum())


def bg_cls_loss(nbg_feats: list, classifier: ad.Tensor, cfg: LossConfig = None) -> ad.Tensor:
    """Mean cross entropy of NBG segment features against the BG row
    (the last classifier row); zero when the batch has no NBG."""
    cfg = cfg or LossConfig()
    if not nbg_feats:
        return ad.Tensor(0.0)
    rows = ad.concat_rows(nbg_feats)
    n_rows = classifier.data.shape[0]
    probs = ad.softmax(cfg.tau * (rows @ classifier.T), axis=1)
    pick = np.zeros((len(nbg_feats), n_rows))
    pick[:, n_rows - 1] = 1.0
    return -(ad.log((probs * ad.Tensor(pick)).sum(axis=1))).mean()


def _pair_diff_matrix(n: int) -> np.ndarray:
    """(n*(n-1)/2, n) selector: row r maps a stack of n vectors to v_i - v_j."""
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(n)
            r[i], r[j] = 1.0, -1.0
            rows.append(r)
    return np.array(rows)


def _cross_diff_matrices(na: int, nb: int):
    """Selectors producing all a_i - b_j differences from stacked inputs."""
    ra = np.repeat(np.eye(na), nb, axis=0)
    rb = np.tile(np.eye(nb), (na, 1))
    return ra, rb


def contrastive_loss(nbg_feats: list, fgibg_feats: list, cfg: LossConfig = None) -> ad.Tensor:
    """Hardest-pair contrastive objective on squared Euclidean distances.

    Pull: the farthest pair of NBG features (they should all look alike).
    Push: hinge on the closest NBG-to-foreground pair staying at least
    `margin` apart. Either term is dropped when its pool is too small.
    """
    cfg = cfg or LossConfig()
    terms = []
    if len(nbg_feats) >= 2:
        stack = ad.concat_rows(nbg_feats)
        diffs = ad.Tensor(_pair_diff_matrix(len(nbg_feats))) @ stack
        terms.append(ad.square(diffs).sum(axis=1).max())
    if nbg_feats and fgibg_feats:
        fg = ad.concat_rows(fgibg_feats)
        nb = ad.concat_rows(nbg_feats)
        ra, rb = _cross_diff_matrices(fg.data.shape[0], nb.data.shape[0])
        cross = ad.Tensor(ra) @ fg - ad.Tensor(rb) @ nb
        closest = ad.square(cross).sum(axis=1).min()
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
               t_n: float = 0.25, top_m: int = None, use_probabilities: bool = False):
    """Full training objective over a batch of untrimmed videos.

    Per video: embed, pseudo-label from current logits (decisions are frozen
    into the graph as constants), aggregate, classify. Batch level: mean
    classification loss, plus the background and contrastive terms weighted
    by gamma2 and gamma1. Returns (loss Tensor, stats dict).
    """
    cfg = (cfg or LossConfig()).validate()
    cls_terms, nbg_pool, fgibg_pool, records = [], [], [], []
    for video in batch:
        f = model_mod.embed_segments(params, video.features)
        base_logits = model_mod.segment_logits(params, f)
        rec = pseudo_mod.pseudo_label_video(
            base_logits.data, t_n=t_n, M=top_m, use_probabilities=use_probabilities)
        records.append(rec)

        if cfg.sw:
            weights = self_weight(f, rec.i_bg, cfg)
        else:
            weights = model_mod.baseline_attention(params, f)
        F = aggregate_video_feature(f, weights)

        if cfg.bg:
            cls_terms.append(soft_cls_loss(F, video.label, params.classifier, cfg))
        else:
            n = params.n_classes
            head = ad.Tensor(np.eye(n + 1)[:n]) @ params.classifier
            cls_terms.append(soft_cls_loss(F, video.label, head, cfg))

        if rec.is_nbg:
            nbg_pool.append(ad.one_hot_row(rec.i_bg, f.data.shape[0]) @ f)
        if rec.fg_ibg_indices:
            sel = np.zeros((len(rec.fg_ibg_indices), f.data.shape[0]))
            for r, idx in enumerate(rec.fg_ibg_indices):
                sel[r, idx] = 1.0
            fgibg_pool.append(ad.Tensor(sel) @ f)

    l_cls = cls_terms[0]
    for t in cls_terms[1:]:
        l_cls = l_cls + t
    l_cls = l_cls / float(len(cls_terms))

    loss = l_cls
    l_contrast = ad.Tensor(0.0)
    if cfg.cl:
        l_contrast = contrastive_loss(nbg_pool, fgibg_pool, cfg)
        loss = loss + cfg.gamma1 * l_contrast
    l_bg = ad.Tensor(0.0)
    if cfg.bg:
        l_bg = bg_cls_loss(nbg_pool, params.classifier, cfg)
        loss = loss + cfg.gamma2 * l_bg

    stats = {
        "l_total": float(loss.data),
        "l_cls": float(l_cls.data),
        "l_contrast": float(l_contrast.data),
        "l_bg": float(l_bg.data),
        "n_nbg": len(nbg_pool),
        "records": records,
    }
    return loss, stats
