"""Episodic novel-class evaluation: classification and temporal detection.

Support videos are trimmed, so a class prototype is just the normalized mean
of mean segment embeddings. Queries stay untrimmed: their background is
pseudo-labeled from the K-way cosine logits against the prototypes and
down-weighted before aggregation, exactly as during training but with
prototypes standing in for classifier rows. Detection scores every segment
per class (weight times cosine), turns thresholded runs into proposals, and
reports mean average precision over temporal-IoU thresholds.

An evaluation call draws all its episodes first and reads each feature file
they use once. It embeds each distinct use in passes that hold one role
(query or support) and one length, so no video is padded, and keeps the
results as arrays: one (n_T, T, d) array of query embeddings per length T
and one array of support means. An episode lists its videos class by class,
so a video's episode class is its position, and every prototype of the call
comes from one reshape-mean of the support means gathered by one index. All
the call's queries are classified together, each against its own episode's
prototypes, in stacks of at most EMBED_CHUNK queries of one length, each
gathered from its length's array by one index. In detection the call's
activation maps are stacked into one array, the embeddings are dropped, and
proposals are found over that stack in passes of at most PROPOSAL_CHUNK
videos: one pass finds every run, and NMS steps through all (video, class)
groups at once. The call's episodes are then scored in one AP pass: tIoU is
taken only between a detection and the truths of its own video and class,
only detections that can match are matched, every (video, class) group side
by side over the whole tIoU grid, and AP is summed from the hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import draw_episode, trim_support_video
from .losses import LossConfig, aggregate_video_feature, self_weight
from .pseudo import pseudo_label_bg

DEFAULT_PROPOSAL_THRESHOLDS = tuple(np.round(np.arange(0.1, 1.0, 0.1), 2))
MAP_TIOU_GRID = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
EMBED_CHUNK = 32  # videos per embedding pass of one role and length, or queries per
# classification stack of one length; bounds the memory of either
PROPOSAL_CHUNK = 256  # videos per proposal pass; bounds the memory of one pass


@dataclass
class Detections:
    """Scored intervals as parallel arrays, in the order ties are ranked."""
    video: np.ndarray  # (n,) query index within the episode
    class_index: np.ndarray  # (n,) episode class
    intervals: np.ndarray  # (n, 2) half-open (start, end) in segment units
    scores: np.ndarray  # (n,)

    def take(self, index) -> "Detections":
        return Detections(self.video[index], self.class_index[index],
                          self.intervals[index], self.scores[index])


@dataclass
class ClassifiedQuery:
    """A stack of Q queries' classifications, one row per query."""
    probs: np.ndarray  # (Q, K) softmax over the prototypes
    top1: np.ndarray  # (Q,)
    weights: np.ndarray  # (Q, T) aggregation weight of each segment
    i_bg: np.ndarray  # (Q,) pseudo-labeled background segment
    cosines: np.ndarray  # (Q, T, K) cosine of each segment to each prototype


def support_mean(params: model_mod.ModelParams, features: np.ndarray) -> np.ndarray:
    """(d,) mean segment embedding of one trimmed support video."""
    return model_mod.embed_segments(params, features, grad=False).mean(axis=0)


def prototypes(support_means: np.ndarray, K: int) -> np.ndarray:
    """(..., K, d) prototypes from a (..., K*n, d) stack of support means
    listed class by class, as `draw_episode` lists the support: each class's
    mean of its n means, normalized; a zero mean stays a zero row."""
    *lead, rows, d = support_means.shape
    means = support_means.reshape(*lead, K, rows // K, d).mean(axis=-2)
    norm = np.sqrt(means[..., None, :] @ means[..., :, None])[..., 0]  # np.linalg.norm's dot
    return means / np.where(norm > 0.0, norm, 1.0)


def classify_query(params: model_mod.ModelParams, f: np.ndarray, proto: np.ndarray,
                   cfg: LossConfig = None) -> ClassifiedQuery:
    """Aggregate each embedded query with background-aware weights, then
    softmax over cosines to its prototypes.

    f is a (Q, T, d) stack of equal-length queries classified together;
    proto is one (K, d) prototype matrix for all of them or a (Q, K, d)
    stack, one matrix per query. Every product is a stacked matmul that runs
    the one-query BLAS call on each slice, and every sum runs along a
    contiguous last axis, so a query's result has the same bits whatever
    else its stack holds.
    """
    cfg = cfg or LossConfig()
    cosines = f @ proto.swapaxes(-1, -2)
    i_bg = pseudo_label_bg(cosines)
    if cfg.sw:
        weights = self_weight(f, i_bg, cfg)
    else:
        weights = model_mod.baseline_attention(params, f)
    F = aggregate_video_feature(f, weights)  # (Q, 1, d)
    norm = np.sqrt(F @ F.swapaxes(1, 2))  # the dot product np.linalg.norm takes
    Fn = (F / (norm + 1e-12)).swapaxes(1, 2)
    probs = ad.softmax_forward((proto @ Fn)[..., 0])
    return ClassifiedQuery(probs=probs, top1=np.argmax(probs, axis=1), weights=weights[..., 0],
                           i_bg=i_bg, cosines=cosines)


def _by_length(embeddings: list):
    """(T_i, d) embeddings as {T: (n_T, T, d) stack of those of length T},
    with each embedding's length and row in its stack."""
    length = np.array([len(f) for f in embeddings])
    row, stacks = np.empty_like(length), {}
    for T in np.unique(length):
        at = np.flatnonzero(length == T)
        row[at] = np.arange(at.size)
        stacks[T] = np.stack([embeddings[i] for i in at])
    return stacks, length, row


def _classify_stacks(params: model_mod.ModelParams, embeddings: dict, length: np.ndarray,
                     row: np.ndarray, proto: np.ndarray, which: np.ndarray,
                     cfg: LossConfig = None):
    """Classify queries, query i being row[i] of embeddings[length[i]], a
    (n_T, T, d) array of embeddings of length T, against the (K, d)
    prototypes proto[which[i]]. The queries are classified in stacks of at
    most EMBED_CHUNK queries of one length, lengths in order of first
    appearance; each stack is gathered from its length's array by one index.

    Yields (query indices, ClassifiedQuery of their stack) pairs.
    """
    _, first = np.unique(length, return_index=True)
    for T in length[np.sort(first)]:
        same_length = np.flatnonzero(length == T)
        for start in range(0, same_length.size, EMBED_CHUNK):
            at = same_length[start : start + EMBED_CHUNK]
            yield at, classify_query(params, embeddings[T][row[at]], proto[which[at]], cfg)


def classification_accuracy(params: model_mod.ModelParams, embeddings: list, labels,
                            proto: np.ndarray, cfg: LossConfig = None) -> float:
    """Share of (T_i, d) query embeddings whose top class is their label."""
    if not embeddings:
        raise ValueError("cannot take the accuracy of no queries")
    labels = np.asarray(labels)
    which = np.zeros(len(embeddings), dtype=np.intp)
    correct = sum(np.count_nonzero(res.top1 == labels[at])
                  for at, res in _classify_stacks(params, *_by_length(embeddings), proto[None],
                                                  which, cfg))
    return correct / len(embeddings)


def _tiou(start_a, end_a, start_b, end_b) -> np.ndarray:
    """tIoU of half-open intervals given by broadcastable endpoint arrays,
    0 where they do not overlap."""
    inter = np.minimum(end_a, end_b) - np.maximum(start_a, start_b)
    union = (end_a - start_a) + (end_b - start_b) - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)


def temporal_iou(a, b) -> float:
    """tIoU of two half-open intervals."""
    return float(_tiou(a[0], a[1], b[0], b[1]))


def _runs(A: np.ndarray, lengths, thresholds):
    """Runs of segments above threshold × column max, for every (video,
    class, threshold) whose column max is positive, in that order and left
    to right; a repeated (video, class, start, end) is kept at its first
    place only.

    A stacks the videos' (T_i, K) activation maps, `lengths` gives each T_i.
    Returns video, class, start and end index arrays; no run crosses a video
    boundary.
    """
    lengths = np.asarray(lengths)
    K, T = A.shape[1], int(lengths.max())
    cams = np.full((lengths.size, K, T), -np.inf)  # padding is above no threshold
    cams.transpose(0, 2, 1)[np.arange(T) < lengths[:, None]] = A
    colmax = cams.max(axis=2)
    levels = colmax[:, :, None] * np.asarray(thresholds, dtype=np.float64)
    above = np.zeros(levels.shape + (T + 2,), dtype=np.int8)  # a zero before and after
    above[..., 1:-1] = (cams[:, :, None, :] > levels[..., None]) & (colmax > 0.0)[:, :, None, None]
    # flat order is (video, class, threshold, position), so the k-th rise
    # pairs with the k-th fall
    edges = np.diff(above, axis=3).ravel()
    column, start = np.divmod(np.flatnonzero(edges == 1), T + 1)
    end = np.flatnonzero(edges == -1) % (T + 1)
    column //= levels.shape[2]  # video * K + class
    # a repeated run has its first copy's score and tIoU 1 with it, so NMS
    # would drop it anyway; drop it before
    key = (column * (T + 1) + start) * (T + 1) + end
    first = np.sort(np.unique(key, return_index=True)[1])
    video, cls = np.divmod(column[first], K)
    return video, cls, start[first], end[first]


def _run_means(A: np.ndarray, first_row, cls, length) -> np.ndarray:
    """Mean of A[first_row:first_row + length, cls] for each run.

    Runs of one length are summed together by one row-wise np.add.reduce of
    their gathered (n, length) block. NumPy sums each row pairwise exactly as
    it sums the 1-D slice, so each mean has the bits of
    np.add.reduce(slice) / length; a prefix-sum difference would not.
    """
    means = np.empty(length.size)
    for L in np.flatnonzero(np.bincount(length)):
        at = np.flatnonzero(length == L)
        block = A[first_row[at, None] + np.arange(L), cls[at, None]]
        means[at] = np.add.reduce(block, axis=1) / L
    return means


def _runs_of(sorted_key: np.ndarray):
    """Runs of equal values in a sorted key: (distinct values, each element's
    run, each element's place within its run)."""
    opens = np.ones(sorted_key.size, dtype=bool)
    opens[1:] = sorted_key[1:] != sorted_key[:-1]
    run = np.cumsum(opens) - 1
    return sorted_key[opens], run, np.arange(sorted_key.size) - np.flatnonzero(opens)[run]


def _nms_keep(group, intervals, scores) -> np.ndarray:
    """Indices that greedy non-maximum suppression at tIoU 0.5 keeps within
    each group: groups in ascending order, each highest score first, ties
    keeping the earlier index.

    All groups are suppressed side by side: step r takes the r-th best
    candidate of every group.
    """
    if scores.size == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort((-scores, group))
    _, col, rank = _runs_of(group[order])
    slots = np.full((rank.max() + 1, col[-1] + 1), -1)  # candidate by (rank, group)
    slots[rank, col] = order
    start, end = intervals[slots, 0], intervals[slots, 1]
    suppressed, kept = slots < 0, np.zeros(slots.shape, dtype=bool)
    for r in range(slots.shape[0]):
        kept[r] = ~suppressed[r]
        later = slice(r + 1, None)
        clashes = _tiou(start[r], end[r], start[later], end[later]) >= 0.5
        suppressed[later] |= clashes & kept[r]
    return slots.T[kept.T]


def episode_proposals(A: np.ndarray, lengths) -> Detections:
    """Proposals of every video and class of a stacked (sum T_i, K)
    activation map: thresholded runs, merged across thresholds, scored by
    their mean activation, then NMS at tIoU 0.5 within each (video, class).
    The thresholds are DEFAULT_PROPOSAL_THRESHOLDS. Ordered by video, then
    class, then score."""
    video, cls, start, end = _runs(A, lengths, DEFAULT_PROPOSAL_THRESHOLDS)
    first_row = np.concatenate([[0], np.cumsum(lengths)[:-1]])[video] + start
    scores = _run_means(A, first_row, cls, end - start)
    intervals = np.stack([start, end], axis=1)
    keep = _nms_keep(video * A.shape[1] + cls, intervals, scores)
    return Detections(video, cls, intervals, scores).take(keep)


def _class_aps(detections: Detections, truths: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(classes, thresholds) all-point interpolated AP of each class, NaN for
    a class without truths; classes run from 0 to the largest index seen.

    truths: (m, 4) rows (video, class, start, end). Detections are ranked
    within their class by score, ties keeping the earlier index. A detection
    only ever matches a truth of its own video and class, so tIoU is taken
    only for those pairs, and only detections that reach the lowest
    threshold on one of them (the live rows) are matched.
    """
    video, cls = detections.video, detections.class_index
    t_video, t_cls = truths[:, 0].astype(np.intp), truths[:, 1].astype(np.intp)
    n_classes = 1 + max(cls.max(initial=-1), t_cls.max(initial=-1))
    n_truths = np.bincount(t_cls, minlength=n_classes)
    aps = np.zeros((n_classes, thresholds.size))
    aps[n_truths == 0] = np.nan
    # each detection's truths: the run of its (video, class) key among the
    # truths sorted stably by key, so their columns keep truth row order
    n_keys = n_classes * (1 + max(video.max(initial=-1), t_video.max(initial=-1)))
    key, t_key = video * n_classes + cls, t_video * n_classes + t_cls
    t_order = np.argsort(t_key, kind="stable")
    count = np.bincount(t_key, minlength=n_keys)
    first, count = (np.cumsum(count) - count)[key], count[key]
    cand = np.flatnonzero(count)
    if cand.size == 0:
        return aps
    valid = np.arange(count.max()) < count[cand, None]  # (candidates, truth columns)
    row, col = np.nonzero(valid)
    truth, det = t_order[first[cand[row]] + col], cand[row]
    iou = np.zeros(valid.shape)
    iou[row, col] = _tiou(detections.intervals[det, 0], detections.intervals[det, 1],
                          truths[truth, 2], truths[truth, 3])
    best = iou.max(axis=1)
    live = (best > 0.0) & (best >= thresholds.min())
    rows = cand[live]
    by_key = np.lexsort((-detections.scores[rows], key[rows]))  # in rank order within a key
    rows, iou = rows[by_key], iou[live][by_key]
    hits = _greedy_hits(key[rows], iou, thresholds)
    # AP from the hits alone: a miss adds 0.0 to the running sum and lies
    # below the precision of the hit before it, so it never sets the envelope
    hit_row, hit_thr = np.nonzero(hits)
    if hit_row.size == 0:
        return aps
    order = np.lexsort((-detections.scores, cls))
    rank = np.empty(order.size, dtype=np.intp)  # place within the class, from 1
    rank[order] = np.arange(1, order.size + 1) - np.searchsorted(cls[order], cls[order])
    place = rank[rows[hit_row]]
    cell = cls[rows[hit_row]] * thresholds.size + hit_thr  # flat (class, threshold)
    by_cell = np.lexsort((place, cell))
    cell, place = cell[by_cell], place[by_cell]
    cells, at, k = _runs_of(cell)
    n = n_truths[cells // thresholds.size][at]
    tp = k + 1.0  # true positives up to and including this hit
    precision = np.zeros((cells.size, k.max() + 1))
    precision[at, k] = tp / place
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    steps = np.zeros(precision.shape)
    steps[at, k] = (tp / n - (tp - 1.0) / n) * envelope[at, k]
    # rectangle areas at each recall step, summed left to right
    aps.reshape(-1)[cells] = np.cumsum(steps, axis=1)[:, -1]
    return aps


def _greedy_hits(key, iou, thresholds) -> np.ndarray:
    """(rows, thresholds) true positives of rows grouped by key, each group in
    rank order, matched one to one to the group's truth columns: at each
    threshold a row takes its best-overlapping truth still free at that
    threshold, the first on ties, if that overlap is positive and reaches
    the threshold. A column a group does not use reads tIoU 0, so it is
    never taken.

    All groups are matched side by side: step s takes the s-th row of every
    group.
    """
    keys, group, step = _runs_of(key)
    free = np.ones((keys.size, thresholds.size, iou.shape[1]), dtype=bool)
    hits = np.zeros((key.size, thresholds.size), dtype=bool)
    for s in range(step.max(initial=-1) + 1):
        at = np.flatnonzero(step == s)
        g = group[at]
        open_iou = np.where(free[g], iou[at, None, :], -1.0)
        j = np.argmax(open_iou, axis=2)
        taken = np.take_along_axis(open_iou, j[..., None], axis=2)[..., 0]
        hits[at] = (taken > 0.0) & (taken >= thresholds)
        a, t = np.nonzero(hits[at])
        free[g[a], t, j[a, t]] = False
    return hits


def average_precision(detections, ground_truths, tiou_threshold):
    """All-point interpolated AP with greedy one-to-one matching.

    One group: detections are (score, interval) pairs and ground_truths
    intervals. Returns None when there is nothing to detect, so callers can
    exclude the class from their mean; given a sequence of thresholds, one
    AP per threshold.

    Every class at once: detections are Detections and ground_truths (m, 4)
    rows (video, class, start, end). Returns a (classes, thresholds) array
    for classes 0 to the largest index seen, NaN for a class without truths.
    """
    thresholds = np.atleast_1d(np.asarray(tiou_threshold, dtype=np.float64))
    if isinstance(detections, Detections):
        return _class_aps(detections, np.asarray(ground_truths).reshape(-1, 4), thresholds)
    if len(ground_truths) == 0:
        return None
    scores = np.array([float(score) for score, _ in detections], dtype=np.float64)
    intervals = np.array([tuple(interval) for _, interval in detections]).reshape(-1, 2)
    truths = np.asarray(ground_truths).reshape(-1, 2)
    zeros = np.zeros(scores.size, dtype=np.intp)
    aps = _class_aps(Detections(zeros, zeros, intervals, scores),
                     np.hstack([np.zeros((len(truths), 2), dtype=truths.dtype), truths]),
                     thresholds)[0].tolist()
    return aps if np.ndim(tiou_threshold) else aps[0]


def _maps(detections: Detections, truths: np.ndarray, offset) -> np.ndarray:
    """(episodes, MAP_TIOU_GRID) mAP of each episode over its classes with
    truths, 0 where none has any, from one `average_precision` pass over
    the episodes' detections and truths; episode e's classes run from
    offset[e] to offset[e + 1], so each (episode, class) is ranked on its own.
    """
    aps = average_precision(detections, truths, MAP_TIOU_GRID)
    maps = np.zeros((len(offset) - 1, len(MAP_TIOU_GRID)))
    for e in range(len(maps)):
        rows = aps[offset[e] : offset[e + 1]]
        rows = rows[~np.isnan(rows[:, 0])]
        if rows.size:  # each threshold's mean along a contiguous row: a 1-D mean's bits
            maps[e] = np.ascontiguousarray(rows.T).mean(axis=1)
    return maps


def mean_ci(scores) -> tuple:
    """Mean and half-width of the 95% interval (1.96 * sd / sqrt(E))."""
    scores = np.asarray(scores, dtype=np.float64)
    mean = float(scores.mean())
    if scores.size < 2:
        return mean, 0.0
    return mean, float(1.96 * scores.std(ddof=1) / np.sqrt(scores.size))


def _support_key(entry) -> tuple:
    return "support", entry.feature_file, tuple(tuple(iv) for iv in entry.gt_intervals)


def _embed_pass(params, raws: list, T: int) -> np.ndarray:
    """(n, T, d) embeddings of the first n <= EMBED_CHUNK (T, d_in) raw
    videos of the list, in one pass. They are taken off the list before the
    pass runs, so their memory is free once the pass has their stack."""
    stack = np.concatenate(raws[:EMBED_CHUNK])
    del raws[:EMBED_CHUNK]
    f = model_mod.embed_segments(params, stack, grad=False, lengths=[T] * (len(stack) // T))
    return f.reshape(-1, T, params.d)


def _embed_queries(params, raws: list, T: int) -> np.ndarray:
    """(n, T, d) embeddings of a list of n (T, d_in) raw videos, in passes
    of at most EMBED_CHUNK videos that empty the list."""
    n = len(raws)
    for start in range(0, n, EMBED_CHUNK):
        f = _embed_pass(params, raws, T)
        if start == 0:  # allocated once the first pass's scratch memory is free
            embedded = np.empty((n, T, params.d))
        embedded[start : start + len(f)] = f
        del f  # before the next pass
    return embedded


class _NovelVideos:
    """Embeddings of the videos an evaluation call's episodes use, all
    computed when it is built.

    Each distinct feature file is read once, files in order of first use,
    also when its video serves in both roles: the support is trimmed in
    memory. Once every file is read, the distinct uses are grouped by role
    (query or support) and length, and each group is embedded in passes of
    at most EMBED_CHUNK videos, so a pass pads no video. Each row has the
    bits its video gets embedded alone.

    `queries` maps a length T to the (n_T, T, d) untrimmed embeddings of the
    query videos of that length, `means` stacks the (d,) mean embedding of
    each trimmed support, and `at` maps a use key to its (T, row) there.
    """

    def __init__(self, params: model_mod.ModelParams, manifest, draws):
        groups = {"support": {}, "query": {}}  # role -> T -> (use keys, raw rows) in use order
        for key, rows in self._uses(params, manifest, draws):
            keys, raws = groups[key[0]].setdefault(rows.shape[0], ([], []))
            keys.append(key)
            raws.append(rows)
        self.at = {}
        for T, (keys, _) in groups["support"].items():
            self.at.update((key, (T, row)) for row, key in enumerate(keys, len(self.at)))
        for T, (keys, _) in groups["query"].items():
            self.at.update((key, (T, row)) for row, key in enumerate(keys))
        # supports first, so their raw rows are freed before the query arrays exist
        self.means = np.concatenate([_embed_pass(params, raws, T).mean(axis=1)
                                     for T, (keys, raws) in groups["support"].items()
                                     for _ in keys[::EMBED_CHUNK]])
        self.queries = {T: _embed_queries(params, raws, T)
                        for T, (_, raws) in groups["query"].items()}

    @staticmethod
    def _uses(params, manifest, draws):
        """(use key, raw rows) of each distinct use, files in order of first
        use; each file is read once and checked against the parameters' d_in,
        and every entry that uses it is checked against its rows."""
        by_file = {}  # feature file -> {use key: {id: each entry with that use}}
        for draw in draws:
            for key, entry in ([(_support_key(e), e) for e in draw.support]
                               + [(("query", e.feature_file), e) for e in draw.queries]):
                by_file.setdefault(entry.feature_file, {}).setdefault(key, {})[id(entry)] = entry
        for file, uses in by_file.items():
            seq = None
            for key, entries in uses.items():
                for entry in entries.values():
                    if seq is None:
                        seq = manifest.load_sequence(entry)
                        model_mod.check_feature_width(params, seq.features, file)
                    else:  # another entry or use of the file: its own intervals and roles
                        seq = manifest.sequence(entry, seq.features)
                yield key, seq.features if key[0] == "query" else trim_support_video(seq).features


def _classify_call(params: model_mod.ModelParams, manifest, draws, K: int, q: int, mode: str,
                   cfg: LossConfig = None):
    """Each episode's accuracy, or in detection the call's stacked (sum T, K)
    activation maps (weight times cosine) and query lengths, from every
    draw's queries in draw order, classified in call-wide stacks. The
    embeddings (`_NovelVideos`) are dropped when it returns."""
    videos = _NovelVideos(params, manifest, draws)
    support = [videos.at[_support_key(entry)][1] for draw in draws for entry in draw.support]
    means = videos.means[support].reshape(len(draws), -1, params.d)
    length, row = np.array([videos.at["query", entry.feature_file]
                            for draw in draws for entry in draw.queries]).T
    Q = K * q  # an episode's queries, listed class by class
    stacks = _classify_stacks(params, videos.queries, length, row, prototypes(means, K),
                              np.arange(length.size) // Q, cfg)
    if mode == "classification":
        hits = np.zeros(len(draws), dtype=np.intp)
        for at, res in stacks:
            np.add.at(hits, at // Q, res.top1 == at % Q // q)
        return (hits / Q).tolist()
    lengths = length.tolist()
    first = np.cumsum([0] + lengths)
    A = np.empty((first[-1], K))
    for at, res in stacks:
        rows = (first[at, None] + np.arange(res.weights.shape[1])).ravel()
        A[rows] = (res.weights[..., None] * res.cosines).reshape(rows.size, -1)
    return A, lengths


def _call_detections(A: np.ndarray, lengths: list, Q: int) -> Detections:
    """`episode_proposals` of a call's stacked (sum T, K) activation maps,
    found in passes of at most PROPOSAL_CHUNK videos; episode e's Q queries
    are videos e*Q to e*Q + Q - 1 of the stack. Detections come back keyed
    for `_maps`: video within its episode, class e*K + k. A query's
    detections count against every class of its episode: a proposal for
    class k on a query of another class is a false positive for k."""
    K, ends = A.shape[1], np.cumsum(lengths)
    parts = []
    for v in range(0, len(lengths), PROPOSAL_CHUNK):
        chunk = lengths[v : v + PROPOSAL_CHUNK]
        dets = episode_proposals(A[ends[v] - chunk[0] : ends[v + len(chunk) - 1]], chunk)
        episode, video = np.divmod(dets.video + v, Q)
        parts.append((video, episode * K + dets.class_index, dets.intervals, dets.scores))
    return Detections(*(np.concatenate(arrays) for arrays in zip(*parts)))


def evaluate(params: model_mod.ModelParams, manifest, mode: str, K: int = 5, n: int = 1,
             q: int = 5, episodes: int = 100, seed: int = 0, cfg: LossConfig = None) -> dict:
    """Run `episodes` independent episodes and aggregate with a 95% CI."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    per_episode = episode_scores(params, manifest, mode, range(episodes), K=K, n=n, q=q,
                                 seed=seed, cfg=cfg)
    report = {"mode": mode, "episodes": len(per_episode), "per_episode": per_episode,
              "K": K, "n": n, "q": q, "seed": seed}
    if mode == "classification":
        mean, ci = mean_ci(per_episode)
        report.update({"accuracy_mean": mean, "accuracy_ci": ci})
    else:
        m50, c50 = mean_ci([p[0] for p in per_episode])
        mavg, cavg = mean_ci([p[1] for p in per_episode])
        report.update({"map50_mean": m50, "map50_ci": c50,
                       "avg_map_mean": mavg, "avg_map_ci": cavg})
    return report


@np.errstate(over="raise", invalid="raise", divide="raise")  # huge weights overflow
def episode_scores(params: model_mod.ModelParams, manifest, mode: str, episode_ids,
                   K: int = 5, n: int = 1, q: int = 5, seed: int = 0,
                   cfg: LossConfig = None) -> list:
    """Accuracy, or (map50, avg_map), of each episode in `episode_ids`.

    Episode e is drawn with seed (seed, e), so any subset of episodes can be
    reproduced independently. Every episode is drawn first; then each feature
    file they use is read once and all their videos are embedded in passes of
    one role and one length (`_NovelVideos`), so a bad file is reported
    before any episode is scored. All the call's queries are then classified together
    (`_classify_call`). Detection stacks their activation maps, drops the
    embeddings, and finds the call's proposals in bounded passes and its APs
    in one pass.

    Raises ValueError when K, n or q is below 1. Overflow and invalid
    arithmetic raise FloatingPointError: finite but huge weights would
    otherwise give chance-level numbers.
    """
    if mode not in ("classification", "detection"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    for key, value in (("K", K), ("n", n), ("q", q)):
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
    groups = manifest.by_class()
    draws = [draw_episode(manifest, K=K, n=n, q=q, seed=[seed, e], groups=groups)
             for e in episode_ids]
    if not draws:
        return []
    if mode == "classification":
        return _classify_call(params, manifest, draws, K, q, mode, cfg)
    detections = _call_detections(*_classify_call(params, manifest, draws, K, q, mode, cfg),
                                  K * q)
    truths = [(i, e * K + i // q, start, end)
              for e, draw in enumerate(draws) for i, entry in enumerate(draw.queries)
              for start, end in entry.gt_intervals]
    maps = _maps(detections, np.array(truths, dtype=np.intp).reshape(-1, 4),
                 np.arange(len(draws) + 1) * K)
    return [(m[0], float(np.mean(m))) for m in maps.tolist()]
