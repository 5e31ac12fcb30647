"""Episodic novel-class evaluation: classification and temporal detection.

Support videos are trimmed, so a class prototype is just the normalized mean
of mean segment embeddings. Queries stay untrimmed: their background is
pseudo-labeled from the K-way cosine logits against the prototypes and
down-weighted before aggregation, exactly as during training but with
prototypes standing in for classifier rows. Detection scores every segment
per class (weight times cosine), turns thresholded runs into proposals, and
reports mean average precision over temporal-IoU thresholds.

Every no-grad embedding of a set of videos goes through `embed_by_length`:
passes of at most EMBED_CHUNK videos of one length, so no video is padded,
kept as one (n_T, T, d) array per length T. An evaluation call draws all its
episodes first, as arrays of manifest-entry indices, reads their videos with
`DatasetManifest.read_videos` (each feature file once, every entry checked
against its rows, every file against the checkpoint's d_in) and finds their
distinct uses with np.unique. It embeds the distinct trimmed supports, keeping
only their means, and then the distinct queries. It then scores its episodes
in blocks of at most EPISODE_BLOCK, so what grows with the episode count is
only index arrays. An episode lists its videos class by class, so a video's
episode class is its position, and every prototype of a block comes from one
reshape-mean of the support means gathered by one index. All the block's
query uses are classified together, each against its own episode's
prototypes, video-major: each distinct video of a stack is copied once from
its length's array and broadcast against the prototypes of all its uses, in
stacks of one length and one use count, at most EMBED_CHUNK videos and
STACK_USES uses (`_classify_stacks`). In detection the block's activation
maps are stacked into one array, and proposals are found over that stack in
passes of at most PROPOSAL_CHUNK videos, the last block's once the
embeddings are dropped: one pass finds every run, and NMS steps through all
(video, class) groups at once. The block's episodes are then scored in one
AP pass: tIoU is taken only between a detection and the truths of its own
video and class, only detections that can match are matched, every (video,
class) group side by side over the whole tIoU grid, and AP is summed from
the hits.

The detection tail sorts only distinct integer keys, with NumPy's default
(unstable) argsort: no tie is left for the sort to order, so no stable sort
is needed. `_ranked` ranks proposals and detections that way; `_runs` finds
repeated runs with no sort. Interval endpoints must be non-negative integers
with start < end: NMS then tests tIoU >= 0.5 as 3 * inter >= len_a + len_b
on narrow integers and never divides; AP matching keeps `_tiou`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import draw_episodes, trim_support_rows
from .losses import LossConfig, aggregate_video_feature, self_weight
from .pseudo import pseudo_label_bg

DEFAULT_PROPOSAL_THRESHOLDS = tuple(np.round(np.arange(0.1, 1.0, 0.1), 2))
MAP_TIOU_GRID = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
EMBED_CHUNK = 32  # videos per embedding pass of one length, or distinct queries
# per classification stack of one length; bounds the memory of either
STACK_USES = 8 * EMBED_CHUNK  # query uses per classification stack; bounds its memory
PROPOSAL_CHUNK = 256  # videos per proposal pass; bounds the memory of one pass
EPISODE_BLOCK = 100  # episodes classified and scored together; bounds a call's memory


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
    """A stack of query uses' classifications, one row per use: the leading
    dims ... are those of the stack's uses."""
    probs: np.ndarray  # (..., K) softmax over the prototypes
    top1: np.ndarray  # (...)
    weights: np.ndarray  # (..., T) aggregation weight of each segment
    i_bg: np.ndarray  # (...) pseudo-labeled background segment
    cosines: np.ndarray  # (..., T, K) cosine of each segment to each prototype


def prototypes(support_means: np.ndarray, K: int) -> np.ndarray:
    """(..., K, d) prototypes from a (..., K*n, d) stack of support means
    listed class by class, as `draw_episodes` lists the support: each class's
    mean of its n means, normalized; a zero mean stays a zero row."""
    *lead, rows, d = support_means.shape
    means = support_means.reshape(*lead, K, rows // K, d).mean(axis=-2)
    norm = np.sqrt(means[..., None, :] @ means[..., :, None])[..., 0]  # np.linalg.norm's dot
    return means / np.where(norm > 0.0, norm, 1.0)


def classify_query(params: model_mod.ModelParams, f: np.ndarray, proto: np.ndarray,
                   cfg: LossConfig = None) -> ClassifiedQuery:
    """Aggregate each embedded query with background-aware weights, then
    softmax over cosines to its prototypes.

    f is a (..., T, d) stack of equal-length query embeddings and proto a
    (..., K, d) stack of prototype matrices; their leading dims broadcast to
    those of the uses classified. A (V, 1, T, d) stack of V distinct videos
    against (V, r, K, d) prototypes classifies r uses of each video from one
    copy of it; a (Q, T, d) stack against one (K, d) matrix classifies Q
    queries against the same prototypes. Every product is a stacked matmul
    that runs the one-query BLAS call on each slice (a broadcast slice of f
    is the same contiguous (T, d) block), and every sum runs along a
    contiguous last axis, so a use's result has the same bits whatever else
    its stack holds. The attention weights of `--ablate sw` depend on the
    video alone and are taken once per video.
    """
    cfg = cfg or LossConfig()
    cosines = f @ proto.swapaxes(-1, -2)
    i_bg = pseudo_label_bg(cosines)
    if cfg.sw:
        weights = self_weight(f, i_bg, cfg)
    else:
        weights = model_mod.baseline_attention(params, f)
    F = aggregate_video_feature(f, weights)  # (..., 1, d)
    norm = np.sqrt(F @ F.swapaxes(-1, -2))  # the dot product np.linalg.norm takes
    Fn = (F / (norm + 1e-12)).swapaxes(-1, -2)
    probs = ad.softmax_forward((proto @ Fn)[..., 0])
    weights = weights[..., 0]
    if not cfg.sw:  # one row per video: one per use
        weights = np.broadcast_to(weights, cosines.shape[:-1])
    return ClassifiedQuery(probs=probs, top1=probs.argmax(axis=-1), weights=weights,
                           i_bg=i_bg, cosines=cosines)


def embed_by_length(params: model_mod.ModelParams, raws):
    """Embeddings of (T_i, d_in) raw videos as ({T: (n_T, T, d) array of the
    videos of length T}, each video's length, each video's row in its
    length's array): lengths in order of first appearance, rows in list
    order.

    The videos of one length are embedded in passes of at most EMBED_CHUNK,
    so no pass pads a video. Each row has the bits of its video embedded
    alone on OpenBLAS's SkylakeX kernels, not on its Haswell ones. The
    function keeps its own references to the raw videos and drops a pass's
    once they are stacked, so a caller that keeps no other reference to
    them has their memory back pass by pass.
    """
    raws = dict(enumerate(raws))
    length = np.array([len(x) for x in raws.values()], dtype=np.intp)
    row, embedded = np.empty_like(length), {}
    _, first = np.unique(length, return_index=True)
    for T in length[np.sort(first)].tolist():
        same_length = np.flatnonzero(length == T)
        row[same_length] = np.arange(same_length.size)
        for start in range(0, same_length.size, EMBED_CHUNK):
            at = same_length[start : start + EMBED_CHUNK].tolist()
            f = model_mod.embed_segments(params, np.concatenate([raws.pop(i) for i in at]),
                                         grad=False, lengths=[T] * len(at))
            if start == 0:  # allocated once the first pass's scratch memory is free
                embedded[T] = np.empty((same_length.size, T, params.d))
            embedded[T][start : start + len(at)] = f.reshape(-1, T, params.d)
            del f  # before the next pass
    return embedded, length, row


def _classify_stacks(params: model_mod.ModelParams, embeddings: dict, length: np.ndarray,
                     row: np.ndarray, proto: np.ndarray, which: np.ndarray,
                     cfg: LossConfig = None):
    """Classify query uses, use i being video row[i] of embeddings[length[i]],
    a (n_T, T, d) array of embeddings of length T, against the (K, d)
    prototypes proto[which[i]].

    Classification is video-major. Within each length (in order of first
    appearance) the uses are ordered by use count and video, stably, so the
    videos with equally many uses r form one run of r uses each. They are
    classified in stacks of at most EMBED_CHUNK videos and STACK_USES uses:
    one (V, 1, T, d) copy of the V videos against their uses' (V, r, K, d)
    prototypes. A video with more than STACK_USES uses has them split over
    stacks of one video each, all against one copy of it.

    Yields (use indices, ClassifiedQuery of those uses) pairs, both flat in
    the same order.
    """
    _, first = np.unique(length, return_index=True)
    for T in length[np.sort(first)]:
        same_length = np.flatnonzero(length == T)
        slot_video = row[same_length]
        uses = np.bincount(slot_video)  # each video's uses
        slots = same_length[np.argsort(uses[slot_video] * uses.size + slot_video,
                                       kind="stable")]
        videos_of = np.bincount(uses)  # videos_of[r]: how many videos have r uses
        videos_of[0] = 0  # videos of length T that this block does not use
        end = 0
        for r in np.flatnonzero(videos_of).tolist():
            by_video = slots[end : end + r * videos_of[r]].reshape(-1, r)  # (videos, r) uses
            end += by_video.size
            video = row[by_video[:, 0]]
            width = min(r, STACK_USES)
            height = min(EMBED_CHUNK, STACK_USES // width)
            for v in range(0, len(video), height):
                f = embeddings[T][video[v : v + height], None]  # one copy of each video
                for c in range(0, r, width):
                    at = by_video[v : v + height, c : c + width]
                    res = classify_query(params, f, proto[which[at]], cfg)
                    yield at.ravel(), ClassifiedQuery(*(x.reshape(at.size, *x.shape[2:])
                                                        for x in vars(res).values()))


def _tiou(start_a, end_a, start_b, end_b) -> np.ndarray:
    """tIoU of half-open intervals given by broadcastable endpoint arrays,
    0 where they do not overlap."""
    inter = np.minimum(end_a, end_b) - np.maximum(start_a, start_b)
    union = (end_a - start_a) + (end_b - start_b) - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)


def _runs(A: np.ndarray, lengths, thresholds):
    """Runs of segments above threshold × column max, for every (video,
    class, threshold) whose column max is positive, in that order and left
    to right; a repeated (video, class, start, end) is kept at its first
    place only.

    A stacks the videos' (T_i, K) activation maps, `lengths` gives each T_i;
    the thresholds must be non-decreasing (ValueError otherwise). Returns
    video, class, start and end index arrays; no run crosses a video
    boundary, and every run has integer endpoints with start < end, as
    `_nms_keep` requires. A column whose max is not positive gets the level
    +inf, which nothing is above. Starts and ends come from one flatnonzero
    of the edges. The levels of a column never fall, so a run at threshold
    index i > 0 lies inside one run at i - 1, and repeats an earlier run
    exactly when neither cell around it is above level i - 1.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if not (thresholds[1:] >= thresholds[:-1]).all():
        raise ValueError(f"proposal thresholds must be non-decreasing, got {thresholds.tolist()}")
    lengths, n_thr = np.asarray(lengths), thresholds.size
    K, T = A.shape[1], int(lengths.max())
    if (lengths == T).all():  # no padding: a (video, class, position) view
        cams = A.reshape(lengths.size, T, K).transpose(0, 2, 1)
    else:
        cams = np.full((lengths.size, K, T), -np.inf)  # padding is above no threshold
        cams.transpose(0, 2, 1)[np.arange(T) < lengths[:, None]] = A
    colmax = cams.max(axis=2)[:, :, None]
    levels = np.where(colmax > 0.0, colmax * thresholds, np.inf)
    above = np.zeros(levels.shape + (T + 2,), dtype=bool)  # a False before and after
    np.greater(cams[:, :, None, :], levels[..., None], out=above[..., 1:-1])
    # flat order is (video, class, threshold, position), so edges alternate:
    # each rise is followed by its fall
    flat = above.ravel()
    edge = np.flatnonzero(flat[1:] != flat[:-1])
    rise, fall = edge[0::2], edge[1::2]  # the cell before the run, its last cell
    # floor division by a scalar is far cheaper than divmod or %
    row = rise // (T + 2)  # (video * K + class) * n_thr + threshold index
    column = row // n_thr  # video * K + class
    # a repeated run has its first copy's score and tIoU 1 with it, so NMS
    # would drop it anyway; drop it before. At threshold index 0 the gathers
    # read another row, and are ignored.
    at = np.flatnonzero((row == column * n_thr) | flat[rise - (T + 2)] | flat[fall - (T + 1)])
    row, column = row[at], column[at]
    video = column // K
    return video, column - video * K, rise[at] - row * (T + 2), fall[at] - row * (T + 2)


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


def _ranked(group, scores) -> np.ndarray:
    """np.lexsort((-scores, group)): indices by group ascending, each group
    highest score first, tied scores (0.0 and -0.0 tie) in index order.
    Scores must not be NaN.

    One unstable argsort of the scores gives each index its score's place
    among the distinct scores, best first, so tied scores share a place; one
    unstable argsort of the distinct integers (group, place, index) then
    puts each run of tied scores back in index order. Keys that would not
    fit in int64 fall back to np.lexsort.
    """
    n = scores.size
    by_score = np.argsort(-scores)
    ranked = scores[by_score]
    place = np.empty(n, dtype=np.intp)  # inline: `_runs_of` would hold more temporaries
    place[by_score] = np.cumsum(np.r_[False, ranked[1:] != ranked[:-1]])
    n_places = int(place.max(initial=0)) + 1
    if (int(np.abs(group).max(initial=0)) + 1) * n_places * max(n, 1) >= 2**63:
        return np.lexsort((-scores, group))
    return np.argsort((group * n_places + place) * n + np.arange(n))


def _nms_keep(group, intervals, scores) -> np.ndarray:
    """Indices that greedy non-maximum suppression at tIoU 0.5 keeps within
    each group: groups in ascending order, each highest score first, ties
    keeping the earlier index (`_ranked`).

    All groups are suppressed side by side: step r takes the r-th best
    candidate of every group, laid out as a (rank, group) slot matrix whose
    empty slots are never kept. Endpoints must be non-negative integers with
    start < end: a clash, tIoU >= 0.5, is then exactly 3 * inter >=
    len_a + len_b, so no step divides. With endpoints in [0, m], 3 * inter
    lies in [-3m, 3m], so the steps run on the narrowest integer type that
    holds -3m.
    """
    if scores.size == 0:
        return np.zeros(0, dtype=np.intp)
    order = _ranked(group, scores)
    _, col, rank = _runs_of(group[order])
    slots = np.full((rank.max() + 1, col[-1] + 1), -1)  # candidate by (rank, group)
    slots[rank, col] = order
    narrow = intervals.astype(np.min_scalar_type(-3 * int(intervals.max())))
    start, end = narrow[slots, 0], narrow[slots, 1]
    length = end - start
    suppressed, kept = slots < 0, np.zeros(slots.shape, dtype=bool)
    for r in range(slots.shape[0]):
        kept[r] = ~suppressed[r]
        later = slice(r + 1, None)
        inter = np.minimum(end[r], end[later]) - np.maximum(start[r], start[later])
        suppressed[later] |= (3 * inter >= length[r] + length[later]) & kept[r]
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

    Every sort is NumPy's default (unstable) argsort with no tie left to
    order: `_ranked` for detections by class or (video, class) key and
    score, and distinct integer keys (key and row, cell and place) for the
    truths and the hits.
    """
    video, cls = detections.video, detections.class_index
    t_video, t_cls = truths[:, 0].astype(np.intp), truths[:, 1].astype(np.intp)
    n_classes = 1 + max(cls.max(initial=-1), t_cls.max(initial=-1))
    n_truths = np.bincount(t_cls, minlength=n_classes)
    aps = np.zeros((n_classes, thresholds.size))
    aps[n_truths == 0] = np.nan
    # each detection's truths: the run of its (video, class) key among the
    # truths sorted by key and then row, so their columns keep truth row order
    n_keys = n_classes * (1 + max(video.max(initial=-1), t_video.max(initial=-1)))
    key, t_key = video * n_classes + cls, t_video * n_classes + t_cls
    t_order = np.argsort(t_key * t_key.size + np.arange(t_key.size))
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
    by_key = _ranked(key[rows], detections.scores[rows])  # in rank order within a key
    rows, iou = rows[by_key], iou[live][by_key]
    hits = _greedy_hits(key[rows], iou, thresholds)
    # AP from the hits alone: a miss adds 0.0 to the running sum and lies
    # below the precision of the hit before it, so it never sets the envelope
    hit_row, hit_thr = np.nonzero(hits)
    if hit_row.size == 0:
        return aps
    order = _ranked(cls, detections.scores)
    rank = np.empty(order.size, dtype=np.intp)  # place within the class, from 1
    rank[order] = np.arange(1, order.size + 1) - np.searchsorted(cls[order], cls[order])
    place = rank[rows[hit_row]]
    cell = cls[rows[hit_row]] * thresholds.size + hit_thr  # flat (class, threshold)
    by_cell = np.argsort(cell * (order.size + 1) + place)  # distinct (cell, place) keys
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
    thr = np.arange(thresholds.size)
    for s in range(step.max(initial=-1) + 1):
        at = np.flatnonzero(step == s)
        g = group[at]
        open_iou = np.where(free[g], iou[at, None, :], -1.0)
        j = open_iou.argmax(axis=2)
        taken = open_iou[np.arange(at.size)[:, None], thr, j]
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


def _distinct_uses(slots: np.ndarray, key):
    """The distinct uses of (E, m) entry indices, a use being the value of
    key(entry index), numbered in first-use order: each use's first entry,
    and each slot's use as an (E, m) array."""
    entries, inverse = np.unique(slots.ravel(), return_inverse=True)
    ids = {}
    use = np.array([ids.setdefault(key(i), len(ids)) for i in entries.tolist()])[inverse]
    _, first, inverse = np.unique(use, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return slots.ravel()[first[order]], np.argsort(order)[inverse].reshape(slots.shape)


def _call_videos(params: model_mod.ModelParams, manifest, support: np.ndarray,
                 queries: np.ndarray):
    """Embeddings of the videos of an evaluation call's (E, K*n) support and
    (E, K*q) query entry indices: the distinct supports' means and each
    support slot's row there as an (E, K*n) array, the query embeddings
    ({T: (n_T, T, d) array}), and each query slot's length and row there as
    (E*K*q,) arrays. Only the index arrays grow with E.

    The videos are read by `DatasetManifest.read_videos`, against the
    parameters' d_in: each feature file once, every entry checked. Each
    distinct support is trimmed from its checked rows (`trim_support_rows`).
    A query use is a file, a support use a file and its intervals. The
    distinct trimmed supports and then the distinct queries are embedded by
    `embed_by_length`.
    """
    entries = manifest.entries
    rows = manifest.read_videos(np.concatenate([support, queries], axis=1), params.d_in)
    support_uses, support_use = _distinct_uses(
        support, lambda i: (entries[i].feature_file, tuple(map(tuple, entries[i].gt_intervals))))
    query_uses, query_use = _distinct_uses(queries, lambda i: entries[i].feature_file)
    raws = {"support": [trim_support_rows(entries[i].video_id, rows[i], entries[i].gt_intervals)
                        for i in support_uses.tolist()],
            "query": [rows[i] for i in query_uses.tolist()]}
    del rows  # so each embedding pass frees its raw rows
    # supports first, so their raw rows are freed before the query arrays exist
    embedded, length, _ = embed_by_length(params, raws.pop("support"))
    means = np.empty((length.size, params.d))
    for T in list(embedded):  # each array freed once its means are taken
        means[length == T] = embedded.pop(T).mean(axis=1)
    embedded, length, row = embed_by_length(params, raws.pop("query"))
    return means, support_use, embedded, length[query_use].ravel(), row[query_use].ravel()


def _classify_block(params: model_mod.ModelParams, support_means: np.ndarray, embedded: dict,
                    length: np.ndarray, row: np.ndarray, K: int, q: int, mode: str,
                    cfg: LossConfig = None):
    """Each episode's accuracy, or in detection the stacked (sum T, K)
    activation maps (weight times cosine) and query lengths, of a block of
    episodes given by their (E, K*n, d) support means and each query slot's
    length and row in `embedded`, all its query slots classified together
    in video-major stacks (`_classify_stacks`)."""
    Q = K * q  # an episode's queries, listed class by class
    stacks = _classify_stacks(params, embedded, length, row, prototypes(support_means, K),
                              np.arange(length.size) // Q, cfg)
    if mode == "classification":
        hit = np.empty(length.size, dtype=bool)  # each query slot's top class is its own
        for at, res in stacks:
            hit[at] = res.top1 == at % Q // q
        return (hit.reshape(-1, Q).sum(axis=1) / Q).tolist()
    lengths = length.tolist()
    first = np.cumsum([0] + lengths)
    A = np.empty((first[-1], K))
    for at, res in stacks:
        rows = (first[at, None] + np.arange(res.weights.shape[1])).ravel()
        A[rows] = (res.weights[..., None] * res.cosines).reshape(rows.size, -1)
    return A, lengths


def _call_detections(A: np.ndarray, lengths: list, Q: int) -> Detections:
    """`episode_proposals` of a block's stacked (sum T, K) activation maps,
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
    reproduced independently. Every episode is drawn first (`draw_episodes`);
    then each feature file they use is read once, and the supports and then
    the queries are embedded in passes of one length (`_call_videos`), so a
    bad file is reported before any episode is scored. The episodes are then
    scored in blocks of at most EPISODE_BLOCK, so that what grows with the
    episode count is only index arrays; episodes are independent, so the
    blocks change no score. Each block's queries are classified together
    (`_classify_block`); detection stacks their activation maps and finds the
    block's proposals and APs (`_block_maps`), the last block once the
    embeddings are dropped.

    Raises ValueError when K, n or q is below 1. Overflow and invalid
    arithmetic raise FloatingPointError: finite but huge weights would
    otherwise give chance-level numbers.
    """
    if mode not in ("classification", "detection"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    for key, value in (("K", K), ("n", n), ("q", q)):
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
    _, support, queries = draw_episodes(manifest, K, n, q, [[seed, e] for e in episode_ids])
    if not len(queries):
        return []
    means, support_use, embedded, length, row = _call_videos(params, manifest, support, queries)
    Q, scores = K * q, []
    for b in range(0, len(queries), EPISODE_BLOCK):
        e, at = slice(b, b + EPISODE_BLOCK), slice(b * Q, (b + EPISODE_BLOCK) * Q)
        result = _classify_block(params, means[support_use[e]], embedded, length[at], row[at],
                                 K, q, mode, cfg)
        if mode == "detection":  # each rebinding frees what the next step no longer needs
            if b + EPISODE_BLOCK >= len(queries):  # the last block's proposals run
                means = embedded = None  # without the embeddings
            result = _call_detections(*result, Q)  # the AP pass runs without the maps
            result = _block_maps(manifest, queries[e], result, K, q)
        scores += result
    return scores


def _block_maps(manifest, queries: np.ndarray, detections: Detections, K: int, q: int) -> list:
    """(map50, avg_map) of each episode of a block, from its (E, K*q) query
    entry indices and its detections (`_call_detections`), all its APs in
    one pass (`_maps`)."""
    # truths keyed as the detections: video within its episode, class e*K + k
    intervals = [manifest.entries[i].gt_intervals for i in queries.ravel().tolist()]
    episode, video = np.divmod(np.repeat(np.arange(queries.size), list(map(len, intervals))),
                               K * q)
    rows = np.array([iv for ivs in intervals for iv in ivs], dtype=np.intp).reshape(-1, 2)
    maps = _maps(detections, np.column_stack([video, episode * K + video // q, rows]),
                 np.arange(len(queries) + 1) * K)
    return [(m[0], float(np.mean(m))) for m in maps.tolist()]
