"""Episodic novel-class evaluation: classification and temporal detection.

Support videos are trimmed, so a class prototype is just the normalized mean
of mean segment embeddings. Queries stay untrimmed: their background is
pseudo-labeled from the K-way cosine logits against the prototypes and
down-weighted before aggregation, exactly as during training but with
prototypes standing in for classifier rows. Detection scores every segment
per class (weight times cosine), turns thresholded runs into proposals, and
reports mean average precision over temporal-IoU thresholds.

An evaluation call draws all its episodes first, reads each feature file
they use once, and embeds their videos in a few stacked passes; an episode
then only indexes those embeddings. Its queries are classified as one stack
per distinct query length, and their detections are scored together on index
arrays: one pass finds every run, NMS steps through all (video, class)
groups at once, and matching sweeps the whole tIoU grid in one pass over
each class's ranked detections.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import draw_episode, trim_support_video
from .errors import DataError
from .losses import LossConfig, aggregate_video_feature, self_weight
from .pseudo import pseudo_label_bg

DEFAULT_PROPOSAL_THRESHOLDS = tuple(np.round(np.arange(0.1, 1.0, 0.1), 2))
MAP_TIOU_GRID = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
EMBED_CHUNK = 32  # videos per stacked embedding pass; bounds the memory of one pass


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


def prototypes_from_means(K: int, class_means) -> np.ndarray:
    """(K, d): the mean of the support means of each episode class,
    normalized, one row per class; a zero mean stays a zero row.

    class_means: (episode class index, support mean) pairs, in support order.
    """
    sums = {k: [] for k in range(K)}
    for k, mean in class_means:
        sums[k].append(mean)
    rows = []
    for k in range(K):
        if not sums[k]:
            raise DataError(f"episode class {k} has no support videos")
        mean = np.mean(sums[k], axis=0)
        norm = np.linalg.norm(mean)
        rows.append(mean / norm if norm > 0.0 else mean)
    return np.stack(rows)


def classify_query(params: model_mod.ModelParams, f: np.ndarray, proto: np.ndarray,
                   cfg: LossConfig = None) -> ClassifiedQuery:
    """Aggregate each embedded query with background-aware weights, then
    softmax over cosines to the (K, d) prototype matrix.

    f is a (Q, T, d) stack of equal-length queries classified together.
    Every product is a stacked matmul that runs the one-query BLAS call on
    each slice, and every sum runs along a contiguous last axis, so a
    query's result has the same bits whatever else its stack holds.
    """
    cfg = cfg or LossConfig()
    cosines = f @ proto.T
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


def _classify_stacks(params: model_mod.ModelParams, embeddings: list, proto: np.ndarray,
                     cfg: LossConfig = None):
    """Classify (T_i, d) query embeddings with one stacked classify_query
    call per distinct length, lengths in order of first appearance.

    Yields (query indices, ClassifiedQuery of their stack) pairs.
    """
    groups = {}
    for i, f in enumerate(embeddings):
        groups.setdefault(f.shape[0], []).append(i)
    for at in groups.values():
        yield at, classify_query(params, np.stack([embeddings[i] for i in at]), proto, cfg)


def classification_accuracy(params: model_mod.ModelParams, embeddings: list, labels,
                            proto: np.ndarray, cfg: LossConfig = None) -> float:
    """Share of (T_i, d) query embeddings whose top class is their label."""
    labels = np.asarray(labels)
    correct = sum(np.count_nonzero(res.top1 == labels[at])
                  for at, res in _classify_stacks(params, embeddings, proto, cfg))
    return correct / len(embeddings)


def _tiou(start_a, end_a, start_b, end_b) -> np.ndarray:
    """tIoU of half-open intervals given by broadcastable endpoint arrays,
    0 where they do not overlap."""
    inter = np.minimum(end_a, end_b) - np.maximum(start_a, start_b)
    union = (end_a - start_a) + (end_b - start_b) - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=inter > 0)


def temporal_iou_matrix(a, b) -> np.ndarray:
    """(len(a), len(b)) tIoU of half-open intervals, 0 where they do not overlap."""
    a = np.asarray(a).reshape(-1, 2)
    b = np.asarray(b).reshape(-1, 2)
    return _tiou(a[:, :1], a[:, 1:], b[:, 0], b[:, 1])


def temporal_iou(a, b) -> float:
    """tIoU of two half-open intervals."""
    return float(temporal_iou_matrix(a, b)[0, 0])


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
    sorted_group = group[order]
    opens = np.r_[True, sorted_group[1:] != sorted_group[:-1]]
    col = np.cumsum(opens) - 1
    rank = np.arange(order.size) - np.flatnonzero(opens)[col]
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


def _greedy_matches(iou: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(len(thresholds), n) true positives of detections (rows, best score
    first) matched one to one to ground truths (columns), all thresholds in
    one pass over the rows: at each threshold a row takes its
    best-overlapping truth still free at that threshold, the first on ties,
    if that overlap is positive and reaches the threshold."""
    tp = np.zeros((thresholds.size, iou.shape[0]))
    free = np.ones((thresholds.size, iou.shape[1]), dtype=bool)
    best = iou.max(axis=1)
    # a row below every threshold can never match, so skip it
    for i in np.flatnonzero((best >= np.min(thresholds, initial=np.inf)) & (best > 0.0)):
        open_iou = np.where(free, iou[i], -1.0)
        j = np.argmax(open_iou, axis=1)
        taken = open_iou[np.arange(thresholds.size), j]
        hit = (taken > 0.0) & (taken >= thresholds)
        free[hit, j[hit]] = False
        tp[hit, i] = 1.0
    return tp


def _interpolated_aps(tp: np.ndarray, n_truths: int) -> np.ndarray:
    """All-point interpolated AP of each row of true positives."""
    if tp.shape[1] == 0:
        return np.zeros(tp.shape[0])
    cum_tp = np.cumsum(tp, axis=1)
    precision = cum_tp / np.arange(1, tp.shape[1] + 1)
    # precision envelope from the right, then rectangle areas at each recall
    # step (recall moves at hits only), summed left to right
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    steps = np.where(tp > 0.0, cum_tp / n_truths - (cum_tp - 1.0) / n_truths, 0.0) * envelope
    return np.cumsum(steps, axis=1)[:, -1]


def average_precision(detections, ground_truths, tiou_threshold):
    """All-point interpolated AP with greedy one-to-one matching.

    detections: Detections, or (score, interval) pairs; ground_truths:
    (video_id-agnostic) intervals. Returns None when there is nothing to
    detect, so callers can exclude the class from their mean.
    Given a sequence of thresholds, returns one AP per threshold, all
    matched in one pass over one tIoU matrix.
    """
    if len(ground_truths) == 0:
        return None
    if isinstance(detections, Detections):
        scores, intervals = detections.scores, detections.intervals
    else:
        scores = np.array([float(score) for score, _ in detections], dtype=np.float64)
        intervals = np.array([tuple(interval) for _, interval in detections]).reshape(-1, 2)
    order = np.argsort(-scores, kind="stable")
    iou = temporal_iou_matrix(intervals[order], np.asarray(ground_truths).reshape(-1, 2))
    thresholds = np.atleast_1d(np.asarray(tiou_threshold, dtype=np.float64))
    aps = _interpolated_aps(_greedy_matches(iou, thresholds), len(ground_truths)).tolist()
    return aps if np.ndim(tiou_threshold) else aps[0]


def detection_maps(detections: Detections, truths: np.ndarray) -> dict:
    """mAP at each tIoU threshold of MAP_TIOU_GRID over classes with ground
    truth.

    truths: (m, 4) rows (video, class, start, end) with start >= 0; of two
    equally overlapping truths a detection takes the earlier row. A
    detection only ever matches a truth of its own video.
    """
    # offset each video into its own span so intervals from different videos
    # never overlap
    span = 1 + max(detections.intervals.max(initial=0), truths[:, 3].max(initial=0))
    shifted = replace(detections,
                      intervals=detections.intervals + span * detections.video[:, None])
    truth_intervals = truths[:, 2:] + span * truths[:, :1]
    per_class = [  # one AP per grid threshold, for each class with truths
        average_precision(shifted.take(shifted.class_index == k),
                          truth_intervals[truths[:, 1] == k], list(MAP_TIOU_GRID))
        for k in sorted(set(truths[:, 1].tolist()))]
    return {float(thr): float(np.mean([aps[i] for aps in per_class])) if per_class else 0.0
            for i, thr in enumerate(MAP_TIOU_GRID)}


def _detection(params, remap: dict, proto: np.ndarray, queries: list, cfg):
    """(map50, avg_map, maps) of (video, (T, d) embedding) query pairs; a
    video carries its class_label and gt_intervals. Each query's activation
    map is its segment weights times its cosines; the maps are stacked and
    scored together as arrays, macro-averaged over classes. Detections from
    every query count against every class: a proposal for class k on a query
    of another class is a false positive for k."""
    cams = [None] * len(queries)
    for at, res in _classify_stacks(params, [f for _, f in queries], proto, cfg):
        for i, cam in zip(at, res.weights[..., None] * res.cosines):
            cams[i] = cam
    truths = [(i, remap[video.class_label], start, end)
              for i, (video, _) in enumerate(queries) for start, end in video.gt_intervals]
    detections = episode_proposals(np.concatenate(cams), [len(cam) for cam in cams])
    maps = detection_maps(detections, np.array(truths).reshape(-1, 4))
    avg_map = float(np.mean([maps[float(t)] for t in MAP_TIOU_GRID]))
    return maps[0.5], avg_map, maps


def mean_ci(scores) -> tuple:
    """Mean and half-width of the 95% interval (1.96 * sd / sqrt(E))."""
    scores = np.asarray(scores, dtype=np.float64)
    mean = float(scores.mean())
    if scores.size < 2:
        return mean, 0.0
    return mean, float(1.96 * scores.std(ddof=1) / np.sqrt(scores.size))


def _support_key(entry) -> tuple:
    return "support", entry.feature_file, tuple(tuple(iv) for iv in entry.gt_intervals)


class _NovelVideos:
    """Embeddings of the videos an evaluation call's episodes use, all
    computed when it is built.

    A video used as a query keeps its untrimmed (T, d) embedding, one used as
    support its trimmed (d,) mean. Each distinct feature file is read once,
    also when its video serves in both roles: the support is trimmed in
    memory. The videos are embedded in stacked passes of at most EMBED_CHUNK
    videos, and each row has the bits its video gets embedded alone.
    """

    def __init__(self, params: model_mod.ModelParams, manifest, draws):
        self._kept = {}  # use key -> (T, d) query embedding or (d,) support mean
        uses = self._uses(params, manifest, draws)
        while chunk := list(islice(uses, EMBED_CHUNK)):
            lengths = [rows.shape[0] for _, rows in chunk]
            f = model_mod.embed_segments(params, np.concatenate([rows for _, rows in chunk]),
                                         grad=False, lengths=lengths)
            for (key, _), end, T in zip(chunk, np.cumsum(lengths), lengths):
                rows = f[end - T : end]
                self._kept[key] = rows if key[0] == "query" else rows.mean(axis=0)

    @staticmethod
    def _uses(params, manifest, draws):
        """(use key, raw rows) of each distinct use, files in order of first
        use; each file is read once and checked against the parameters' d_in."""
        by_file = {}  # feature file -> {use key: entry}
        for draw in draws:
            for entry in draw.support:
                by_file.setdefault(entry.feature_file, {}).setdefault(_support_key(entry), entry)
            for entry in draw.queries:
                by_file.setdefault(entry.feature_file, {}).setdefault(
                    ("query", entry.feature_file), entry)
        for file, uses in by_file.items():
            seq = None
            for key, entry in uses.items():
                if seq is None:
                    seq = manifest.load_sequence(entry)
                    model_mod.check_feature_width(params, seq.features, file)
                else:  # another entry of the same file: check its own intervals
                    seq = replace(seq, video_id=entry.video_id,
                                  gt_intervals=[tuple(iv) for iv in entry.gt_intervals]).validate()
                yield key, seq.features if key[0] == "query" else trim_support_video(seq).features

    def query(self, entry) -> np.ndarray:
        return self._kept["query", entry.feature_file]

    def support_mean(self, entry) -> np.ndarray:
        return self._kept[_support_key(entry)]


def evaluate(params: model_mod.ModelParams, manifest, mode: str, K: int = 5, n: int = 1,
             q: int = 5, episodes: int = 100, seed: int = 0, cfg: LossConfig = None) -> dict:
    """Run `episodes` independent episodes and aggregate with a 95% CI."""
    per_episode = episode_scores(params, manifest, mode, range(episodes), K=K, n=n, q=q,
                                 seed=seed, cfg=cfg)
    return summarize(mode, per_episode, K=K, n=n, q=q, seed=seed)


def episode_scores(params: model_mod.ModelParams, manifest, mode: str, episode_ids,
                   K: int = 5, n: int = 1, q: int = 5, seed: int = 0,
                   cfg: LossConfig = None) -> list:
    """Accuracy, or (map50, avg_map), of each episode in `episode_ids`.

    Episode e is drawn with seed (seed, e), so any subset of episodes can be
    reproduced independently. Every episode is drawn first; then each feature
    file they use is read once and all their videos are embedded in stacked
    passes (`_NovelVideos`), so a bad file is reported before any episode is
    scored. An episode then only indexes those arrays.
    """
    if mode not in ("classification", "detection"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    groups = manifest.by_class()
    draws = [draw_episode(manifest, K=K, n=n, q=q, seed=[seed, e], groups=groups)
             for e in episode_ids]
    videos = _NovelVideos(params, manifest, draws)
    per_episode = []
    for draw in draws:
        remap = {label: i for i, label in enumerate(draw.classes)}
        proto = prototypes_from_means(K, [
            (remap[entry.class_label], videos.support_mean(entry)) for entry in draw.support])
        if mode == "classification":
            per_episode.append(classification_accuracy(
                params, [videos.query(entry) for entry in draw.queries],
                [remap[entry.class_label] for entry in draw.queries], proto, cfg))
        else:
            queries = [(entry, videos.query(entry)) for entry in draw.queries]
            map50, avg_map, _ = _detection(params, remap, proto, queries, cfg)
            per_episode.append((map50, avg_map))
    return per_episode


def summarize(mode: str, per_episode: list, **meta) -> dict:
    report = {"mode": mode, "episodes": len(per_episode), "per_episode": per_episode}
    report.update(meta)
    if mode == "classification":
        mean, ci = mean_ci(per_episode)
        report.update({"accuracy_mean": mean, "accuracy_ci": ci})
    else:
        m50, c50 = mean_ci([p[0] for p in per_episode])
        mavg, cavg = mean_ci([p[1] for p in per_episode])
        report.update({"map50_mean": m50, "map50_ci": c50,
                       "avg_map_mean": mavg, "avg_map_ci": cavg})
    return report
