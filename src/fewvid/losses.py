"""Training objectives over weakly labeled untrimmed videos.

The total objective has three parts. A soft classification loss on the
aggregated video feature carries the video-level label. A background
classification loss teaches the extra classifier row to claim pseudo-labeled
non-informative background (NBG) segments. A margin contrastive loss pulls
NBG segments from different videos together and pushes them away from
high-confidence foreground/informative segments, so that "uninformative"
becomes a compact region of the embedding space instead of a blanket
suppression of everything the base classifier does not recognize. The
contrastive term is one graph node over the two pools; its hardest pairs
come from one Gram product, used only to filter candidates whose exact
distances then decide. The batch's self-weighting, its aggregation, each
cross entropy and the weighted sum of the terms are one graph node too, each
with the float operations of the primitive chain it replaces, in that
chain's order (the chains are kept as test oracles).

Aggregation weights come either from the per-video self-weighting (distance
to the video's own pseudo-labeled background segment) or, in the baseline
configuration, from the global attention net.
"""

from __future__ import annotations

import math
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
    t_n: float = 0.25  # best logit below which a BG segment is NBG
    top_m: int = 0  # FG+IBG segments per video; 0 picks max(2, ceil(T/8))

    def validate(self):
        for name in ("tau", "tau_s"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.margin <= 4.0:
            raise DataError(f"margin must be in [0, 4], got {self.margin}")
        for name in ("beta", "gamma1", "gamma2", "top_m"):
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
    BG row of that row's video. A plain (..., T, d) array f stacks videos of
    one length, with i_bg broadcasting against its leading dims, and gives
    (..., T, 1) weights: a (V, 1, T, d) stack of V videos with a (V, r) i_bg
    weighs r uses of each video. A Tensor f gives a graph node
    (`_self_weight_rows`); a plain array gives a plain array, each use's BG
    row taken by one flat row index into a fresh C-ordered (..., d) array
    whose (..., d, 1) columns make each product the one-video BLAS call.
    """
    cfg = cfg or LossConfig()
    if isinstance(f, ad.Tensor):
        i_bg = np.asarray(i_bg)
        if i_bg.ndim == 0:
            i_bg = i_bg.repeat(len(f.data))
        return _self_weight_rows(f, i_bg, cfg)
    video = np.arange(math.prod(f.shape[:-2])).reshape(f.shape[:-2])  # each stacked video
    bg = f.reshape(-1, f.shape[-1]).take(video * f.shape[-2] + i_bg, axis=0)
    return _weight_curve(f @ bg[..., None], cfg)


def _weight_curve(cos: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """sigmoid(tau_s * ((1 - c) - cos)) of a plain array."""
    return ad.sigmoid_forward(cfg.tau_s * ((1.0 - cfg.c) - cos))


def _self_weight_rows(f: ad.Tensor, i_bg, cfg: LossConfig) -> ad.Tensor:
    """`self_weight` of a stack f with the BG row of every row's video, as
    one graph node over (f, f).

    Its forward and backward do the float operations of the chain
    take_rows -> mul -> sum(axis=1, keepdims) -> (1 - c) - cos -> tau_s * ->
    sigmoid in that order. The backward gives the first input the mul's
    dense gradient and the second the gather's `RowGrad`, so `backward` adds
    them into f's gradient in the chain's order. Each pass gathers the BG
    rows itself and multiplies into the gathered array, so no (rows, d)
    array lives from forward to backward.
    """
    index = ad.check_rows("self_weight", f.data.shape, i_bg)
    if index.shape != f.data.shape[:1]:
        raise ad.ShapeError("self_weight", f.data.shape, index.shape)
    gather = ad.RowGather.of(index)

    def fwd(fv, _):
        products = fv[index]
        np.multiply(fv, products, out=products)
        return _weight_curve(np.add.reduce(products, axis=1, keepdims=True), cfg)

    def bwd(g, out, fv, _):
        g_cos = -(ad.sigmoid_backward(g, out) * cfg.tau_s)
        # the BG rows' gradient first, so its (rows, d) product is reduced
        # and freed before the dense gradient is made
        g_bg = ad.take_rows_backward(g_cos * fv, gather)
        g_f = fv[index]
        return np.multiply(g_cos, g_f, out=g_f), g_bg

    return ad._node("self_weight", (f, f), fwd, bwd)


def aggregate_video_feature(f, weights, lengths=None):
    """(1, d) convex combination of segment features, weights normalized.

    Takes Tensors or plain arrays, and returns the same kind. Tensors give
    one graph node (`_aggregate_videos`); with `lengths` (Tensors only), f
    and weights stack videos of those lengths and each video gets its own
    row of the (len(lengths), d) result. Plain (..., T, d) features with
    (..., T, 1) weights stack videos of one length, their leading dims
    broadcasting, and give (..., 1, d).
    """
    if isinstance(f, ad.Tensor):
        return _aggregate_videos(f, weights, [len(f.data)] if lengths is None else lengths)
    # each video's weights summed along its own contiguous T axis
    num = weights.swapaxes(-1, -2) @ f
    den = np.add.reduce(weights[..., 0], axis=-1)[..., None, None]
    _check_weight_sums(den)
    return num / den


def _check_weight_sums(den):
    if np.logical_or.reduce(den == 0, axis=None):
        raise ValueError("cannot aggregate with weights that sum to zero")


def _aggregate_videos(f: ad.Tensor, weights: ad.Tensor, lengths) -> ad.Tensor:
    """`aggregate_video_feature` of a stack of videos, as one graph node over
    (weights, f) that keeps each video's weighted sum `num` and weight sum
    `den` from its latest forward evaluation.

    Its forward and backward do the float operations of the chain
    mul -> segment_sum (num), segment_sum (den) -> div in that order; the
    weights' gradient is the mul's part plus the repeated den part.
    """
    lengths = ad.check_lengths("aggregate_video_feature", f.data.shape, lengths)
    if weights.data.shape != f.data.shape[:1] + (1,):
        raise ad.ShapeError("aggregate_video_feature", f.data.shape, weights.data.shape)
    starts = lengths.cumsum() - lengths
    num = den = None

    def fwd(wv, fv):
        nonlocal num, den
        num = np.add.reduceat(wv * fv, starts, axis=0)
        den = np.add.reduceat(wv, starts, axis=0)
        _check_weight_sums(den)
        return num / den

    def bwd(g, out, wv, fv):
        g_wf = (g / den).repeat(lengths, axis=0)
        g_w = None
        if weights.requires_grad:
            g_den = np.add.reduce(ad.divisor_backward(g, num, den), axis=1, keepdims=True)
            g_w = np.add.reduce(g_wf * fv, axis=1, keepdims=True) + g_den.repeat(lengths, axis=0)
        # the features' gradient overwrites the repeated rows, read for the last time
        return g_w, (np.multiply(g_wf, wv, out=g_wf) if f.requires_grad else None)

    return ad._node("aggregate", (weights, f), fwd, bwd)


def _cross_entropy(feats: ad.Tensor, labels: np.ndarray, classifier: ad.Tensor,
                   tau: float) -> ad.Tensor:
    """Mean over rows of -log softmax(tau * feats @ classifier.T)[row, label],
    as one graph node over (feats, classifier) that keeps the transposed
    classifier and the softmax of its latest forward evaluation.

    Its forward and backward do the float operations of the chain
    transpose -> matmul -> tau * -> softmax -> take_per_row -> log -> mean ->
    neg in that order, so the loss and both gradients keep their bits.
    """
    rows = np.arange(labels.size)
    classifier_t = probs = None

    def fwd(xv, wv):
        nonlocal classifier_t, probs
        classifier_t = wv.T.copy()
        probs = ad.softmax_forward(tau * (xv @ classifier_t))
        return np.asarray(-(np.add.reduce(np.log(probs[rows, labels]), axis=None) / labels.size))

    def bwd(g, out, xv, wv):
        # neg, mean and log: each picked probability's gradient is -(g / n) / p
        g_probs = np.zeros(probs.shape)
        g_probs[rows, labels] = -(g / labels.size) / probs[rows, labels]
        g_logits = ad.softmax_backward(g_probs, probs) * tau
        return (g_logits @ classifier_t.T if feats.requires_grad else None,
                (xv.T @ g_logits).T if classifier.requires_grad else None)

    return ad._node("cross_entropy", (feats, classifier), fwd, bwd)


def _rows(feats: ad.Tensor):
    """A pool of feature rows, or None when it has no rows."""
    return feats if feats.data.shape[0] else None


def soft_cls_loss(F: ad.Tensor, y, classifier: ad.Tensor,
                  cfg: LossConfig = None) -> ad.Tensor:
    """Cross entropy of video features, each re-normalized to unit length,
    against classifier rows, averaged over videos: F has one row per video,
    y one label per row (an int for a single video)."""
    cfg = cfg or LossConfig()
    labels = np.array(y, dtype=np.intp, ndmin=1)
    if labels.shape != F.data.shape[:1]:
        raise ad.ShapeError("soft_cls_loss", F.data.shape, labels.shape)
    n_rows = classifier.data.shape[0]
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= n_rows:
        raise ValueError(f"labels {labels.tolist()} out of range for {n_rows} classifier rows")
    return _cross_entropy(ad.l2_normalize_rows(F), labels, classifier, cfg.tau)


def bg_cls_loss(nbg_feats: ad.Tensor, classifier: ad.Tensor,
                cfg: LossConfig = None) -> ad.Tensor:
    """Mean cross entropy of NBG segment features (a Tensor of rows) against
    the BG row (the last classifier row); zero when the batch has no NBG."""
    cfg = cfg or LossConfig()
    rows = _rows(nbg_feats)
    if rows is None:
        return ad.Tensor(0.0)
    labels = np.empty(rows.data.shape[0], dtype=np.intp)
    labels.fill(classifier.data.shape[0] - 1)  # the BG row
    return _cross_entropy(rows, labels, classifier, cfg.tau)


def _summed_squares(diffs: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis of difference rows (squared in
    place), with the bits of the squared distance `contrastive_loss` takes
    for one pair."""
    return np.add.reduce(np.square(diffs, out=diffs), axis=-1)


_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _hardest_pairs(nb: np.ndarray, fg):
    """The farthest NBG pair (i, j), i < j, and the closest FG+IBG-to-NBG
    pair (k, l) of plain (n, d) and (m, d) pools (fg may be None), each None
    when its pool is too small.

    One Gram product estimates every pair's squared distance as
    |a|^2 + |b|^2 - 2 a.b. The estimate only filters: a pair stays a
    candidate unless its estimate is further than a rounding bound from the
    best estimate, and each candidate's distance is then taken exactly by
    `_summed_squares`. The pick is the first exact best candidate, NBG pairs
    in `np.triu_indices` order and cross pairs FG-row-major, so it is the
    first exact best pair over all pairs, ties included: an estimate is
    within (2d + 5) eps (|a|^2 + |b|^2) of the exact distance, and the bound
    8 (d + 3) eps max|row|^2 (plus the smallest normal, for underflow) is
    at least twice that at its largest. A NaN estimate or bound keeps every pair, and
    so does a bound whose 8 max|row|^2 overflows, before any estimate can.
    """
    n, d = nb.shape
    rows = nb if fg is None else np.concatenate([nb, fg])
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", rows, rows)
        est = sq[:, None] + sq[:n] - 2.0 * (rows @ nb.T)  # est[r, a]: rows[r] to nb[a]
        tol = 8.0 * np.maximum.reduce(sq) * ((d + 3) * _EPS) + _TINY
        pull_low = np.maximum.reduce(est[:n], axis=None) - tol
        push_high = np.minimum.reduce(est[n:], axis=None, initial=np.inf) + tol
    pull = push = None
    if n >= 2:
        first, second = (~(est[:n] < pull_low)).nonzero()
        upper = first < second
        first, second = first[upper], second[upper]
        at = _summed_squares(nb[first] - nb[second]).argmax()
        pull = first[at], second[at]
    if fg is not None:
        k, l = (~(est[n:] > push_high)).nonzero()
        at = _summed_squares(fg[k] - nb[l]).argmin()
        push = k[at], l[at]
    return pull, push


def contrastive_loss(nbg_feats: ad.Tensor, fgibg_feats: ad.Tensor,
                     cfg: LossConfig = None) -> ad.Tensor:
    """Hardest-pair contrastive objective on squared Euclidean distances.

    Pull: the farthest pair of NBG features (they should all look alike).
    Push: hinge on the closest NBG-to-foreground pair staying at least
    `margin` apart. Either term is dropped when its pool is too small. Each
    pool is a Tensor of rows.

    Both pairs are picked on plain arrays in one `_hardest_pairs` call, ties
    to the first pair, and stay fixed when `autodiff.forward` re-evaluates
    the graph. The loss is one graph node over the two pools, and only the
    chosen pairs' rows get a gradient. Its forward and backward do the float
    operations of the chain gather rows, subtract, square, sum (then
    beta * relu(margin - closest) for the push, and pull + push) in that
    chain's order, so the value keeps its bits, and so do the pools'
    gradient rows when the node is the first to give them a gradient.
    """
    cfg = cfg or LossConfig()
    nb, fg = _rows(nbg_feats), _rows(fgibg_feats)
    if nb is None:
        return ad.Tensor(0.0)
    pull, push = _hardest_pairs(nb.data, None if fg is None else fg.data)
    if pull is None and push is None:
        return ad.Tensor(0.0)
    margin, beta = cfg.margin, cfg.beta

    def fwd(nbv, fgv=None):
        total = None
        if pull is not None:
            total = np.add.reduce(np.square(nbv[pull[0]] - nbv[pull[1]]), axis=None)
        if push is not None:
            closest = np.add.reduce(np.square(fgv[push[0]] - nbv[push[1]]), axis=None)
            hinge = beta * ad.relu_forward(margin - closest)
            total = hinge if total is None else total + hinge
        return total

    def bwd(g, out, nbv, fgv=None):
        # the chain's gradient rows, the NBG ones summed in the order its
        # backward reaches them: pull rows i then j, then push row l
        nb_rows, nb_grads, g_fg = [], [], None
        if pull is not None:
            g_pull = 2.0 * (nbv[pull[0]] - nbv[pull[1]]) * g
            nb_rows += pull
            nb_grads += [g_pull, -g_pull]
        if push is not None:
            cross = fgv[push[0]] - nbv[push[1]]
            active = margin - np.add.reduce(np.square(cross), axis=None) > 0.0
            g_push = 2.0 * cross * -(g * beta * active)
            nb_rows.append(push[1])
            nb_grads.append(-g_push)
            if fg.requires_grad:
                g_fg = ad.RowGrad(np.array([push[0]]), g_push[None])
        g_nb = None
        if nb.requires_grad:
            dense = np.zeros(nbv.shape)
            dense[nb_rows[0]] = nb_grads[0]
            for row, grad in zip(nb_rows[1:], nb_grads[1:]):
                dense[row] += grad
            index = sorted(set(nb_rows))
            g_nb = ad.RowGrad(np.array(index), dense[index])
        return (g_nb,) if fg is None else (g_nb, g_fg)

    return ad._node("contrastive", (nb,) if fg is None else (nb, fg), fwd, bwd)


def _loss_sum(first: ad.Tensor, weighted: list) -> ad.Tensor:
    """first + gamma * term for each (gamma, term) of `weighted`, added left
    to right, as one graph node whose backward gives `first` its gradient g
    and each term g * gamma; with no terms, `first` comes back as it is."""
    if not weighted:
        return first
    gammas = [gamma for gamma, _ in weighted]

    def fwd(total, *terms):
        for gamma, term in zip(gammas, terms):
            total = total + gamma * term
        return total

    def bwd(g, out, *values):
        return (g,) + tuple(g * gamma for gamma in gammas)

    return ad._node("loss_sum", (first,) + tuple(term for _, term in weighted), fwd, bwd)


@dataclass
class BatchVideo:
    features: np.ndarray  # (T, d_in) raw segment features
    label: int  # base-class index in 0..N-1


def total_loss(params: model_mod.ModelParams, batch: list, cfg: LossConfig = None):
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
        model_mod.segment_logits(params, f.data), lengths, t_n=cfg.t_n, M=cfg.top_m or None)

    if cfg.sw:
        weights = self_weight(f, labels.bg_rows.repeat(lengths), cfg)
    else:
        weights = model_mod.baseline_attention(params, f)
    F = aggregate_video_feature(f, weights, lengths)
    head = params.classifier if cfg.bg else model_mod.class_rows(params)
    l_cls = soft_cls_loss(F, [video.label for video in batch], head, cfg)

    # each pool is gathered only when a term reads it
    if cfg.bg or cfg.cl:
        nbg = ad.take_rows(f, labels.bg_rows[labels.is_nbg])

    weighted = []
    l_contrast = ad.Tensor(0.0)
    if cfg.cl:
        l_contrast = contrastive_loss(nbg, ad.take_rows(f, labels.fg_rows), cfg)
        weighted.append((cfg.gamma1, l_contrast))
    l_bg = ad.Tensor(0.0)
    if cfg.bg:
        l_bg = bg_cls_loss(nbg, params.classifier, cfg)
        weighted.append((cfg.gamma2, l_bg))
    loss = _loss_sum(l_cls, weighted)

    stats = {
        "l_total": float(loss.data),
        "l_cls": float(l_cls.data),
        "l_contrast": float(l_contrast.data),
        "l_bg": float(l_bg.data),
        "n_nbg": int(np.add.reduce(labels.is_nbg)),
        "labels": labels,
    }
    return loss, stats
