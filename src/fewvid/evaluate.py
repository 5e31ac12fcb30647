"""Episodic novel-class evaluation: classification and temporal detection.

Support videos are trimmed, so a class prototype is just the normalized mean
of mean segment embeddings. Queries stay untrimmed: their background is
pseudo-labeled from the K-way cosine logits against the prototypes and
down-weighted before aggregation, exactly as during training but with
prototypes standing in for classifier rows. Detection scores every segment
per class (weight times cosine), turns thresholded runs into proposals, and
reports mean average precision over temporal-IoU thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .data import Episode, draw_episode, trim_support_video
from .errors import DataError
from .losses import LossConfig, aggregate_video_feature, self_weight
from .pseudo import pseudo_label_bg

DEFAULT_PROPOSAL_THRESHOLDS = tuple(np.round(np.arange(0.1, 1.0, 0.1), 2))
MAP_TIOU_GRID = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))


@dataclass
class Prototype:
    class_index: int  # 0..K-1 within the episode
    vector: np.ndarray  # (d,), unit norm unless degenerate
    degenerate: bool = False


@dataclass
class DetectionResult:
    video_id: str
    class_index: int
    interval: tuple  # half-open (start, end) in segment units
    score: float


@dataclass
class ClassifiedQuery:
    probs: np.ndarray  # (K,)
    top1: int
    predicted_set: list
    weights: np.ndarray  # (T,)
    i_bg: int


def support_mean(params: model_mod.ModelParams, features: np.ndarray) -> np.ndarray:
    """(d,) mean segment embedding of one trimmed support video."""
    return model_mod.embed_segments(params, features, grad=False).mean(axis=0)


def prototypes_from_means(K: int, class_means) -> list:
    """Mean of the support means per class, normalized.

    class_means: (episode class index, support mean) pairs, in support order.
    """
    sums = {k: [] for k in range(K)}
    for k, mean in class_means:
        sums[k].append(mean)
    prototypes = []
    for k in range(K):
        if not sums[k]:
            raise DataError(f"episode class {k} has no support videos")
        mean = np.mean(sums[k], axis=0)
        norm = np.linalg.norm(mean)
        prototypes.append(Prototype(
            class_index=k,
            vector=mean / norm if norm > 0.0 else mean,
            degenerate=norm == 0.0,
        ))
    return prototypes


def compute_prototypes(params: model_mod.ModelParams, episode: Episode) -> list:
    """Mean segment embedding per support video, mean per class, normalized."""
    remap = episode.class_remap
    return prototypes_from_means(episode.K, [
        (remap[seq.class_label], support_mean(params, seq.features)) for seq in episode.support])


def prototype_matrix(prototypes: list) -> np.ndarray:
    """(K, d): one prototype vector per row, in episode class order."""
    return np.stack([p.vector for p in prototypes])


def classify_query(params: model_mod.ModelParams, f: np.ndarray, proto: np.ndarray,
                   cfg: LossConfig = None, t_a: float = None) -> ClassifiedQuery:
    """Aggregate the embedded (T, d) query with background-aware weights,
    then softmax over cosines to the (K, d) prototype matrix."""
    cfg = cfg or LossConfig()
    kway = f @ proto.T
    i_bg = pseudo_label_bg(kway)
    if cfg.sw:
        weights = self_weight(f, i_bg, cfg)
    else:
        weights = model_mod.baseline_attention(params, f)
    F = aggregate_video_feature(f, weights)[0]
    Fn = F / (np.linalg.norm(F) + 1e-12)
    sims = proto @ Fn
    ex = np.exp(sims - sims.max())
    probs = ex / ex.sum()
    K = proto.shape[0]
    if t_a is None:
        t_a = 0.5 / K
    return ClassifiedQuery(
        probs=probs,
        top1=int(np.argmax(probs)),
        predicted_set=[k for k in range(K) if probs[k] > t_a],
        weights=weights[:, 0],
        i_bg=i_bg,
    )


def _embedded_queries(params: model_mod.ModelParams, episode: Episode) -> list:
    return [(seq, model_mod.embed_segments(params, seq.features, grad=False))
            for seq in episode.queries]


def episode_accuracy(params: model_mod.ModelParams, episode: Episode,
                     cfg: LossConfig = None) -> float:
    proto = prototype_matrix(compute_prototypes(params, episode))
    return _accuracy(params, episode.class_remap, proto, _embedded_queries(params, episode), cfg)


def _accuracy(params, remap: dict, proto: np.ndarray, queries: list, cfg) -> float:
    """Share of queries classified correctly; queries are (video, (T, d)
    embedding) pairs and a video carries its class_label."""
    correct = sum(classify_query(params, f, proto, cfg).top1 == remap[video.class_label]
                  for video, f in queries)
    return correct / len(queries)


def tcam(f: np.ndarray, weights: np.ndarray, proto: np.ndarray) -> np.ndarray:
    """(T, K) activation: per-segment weight times cosine to each prototype row."""
    return np.asarray(weights)[:, None] * (f @ proto.T)


def temporal_iou_matrix(a, b) -> np.ndarray:
    """(len(a), len(b)) tIoU of half-open intervals, 0 where they do not overlap."""
    a = np.asarray(a).reshape(-1, 2)
    b = np.asarray(b).reshape(-1, 2)
    inter = np.minimum(a[:, 1:], b[:, 1]) - np.maximum(a[:, :1], b[:, 0])
    union = (a[:, 1:] - a[:, :1]) + (b[:, 1] - b[:, 0]) - inter
    overlap = inter > 0
    return np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)


def temporal_iou(a, b) -> float:
    """tIoU of two half-open intervals."""
    return float(temporal_iou_matrix(a, b)[0, 0])


def _runs_above(column: np.ndarray, thresholds) -> np.ndarray:
    """(n, 2) half-open runs where column > threshold, threshold by threshold
    and left to right within each."""
    above = column[None, :] > np.asarray(thresholds)[:, None]
    padded = np.zeros((above.shape[0], above.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = above
    edges = np.diff(padded, axis=1)
    # row-major nonzero pairs the k-th rise with the k-th fall
    return np.stack([np.nonzero(edges == 1)[1], np.nonzero(edges == -1)[1]], axis=1)


def nms(detections: list, tiou_threshold: float = 0.5) -> list:
    """Greedy non-maximum suppression, highest score first; ties keep the
    earlier interval."""
    if not detections:
        return []
    scores = np.array([d.score for d in detections], dtype=np.float64)
    intervals = [d.interval for d in detections]
    clashes = temporal_iou_matrix(intervals, intervals) >= tiou_threshold
    suppressed = np.zeros(len(detections), dtype=bool)
    kept = []
    for i in np.argsort(-scores, kind="stable"):
        if not suppressed[i]:
            kept.append(detections[i])
            suppressed |= clashes[i]
    return kept


def extract_proposals(A: np.ndarray, thresholds=DEFAULT_PROPOSAL_THRESHOLDS,
                      video_id: str = "") -> list:
    """Thresholded runs of the activation map, merged across thresholds."""
    out = []
    for k in range(A.shape[1]):
        column = A[:, k]
        colmax = column.max()
        if colmax <= 0.0:
            continue
        runs = _runs_above(column, np.asarray(thresholds) * colmax)
        # a repeated run has its first copy's score and tIoU 1 with it, so
        # NMS would drop it anyway; drop it before
        _, first = np.unique(runs[:, 0] * (column.size + 1) + runs[:, 1], return_index=True)
        candidates = [
            DetectionResult(
                video_id=video_id,
                class_index=k,
                interval=(start, end),
                score=float(np.add.reduce(column[start:end]) / (end - start)),
            )
            for start, end in runs[np.sort(first)].tolist()
        ]
        out.extend(nms(candidates, 0.5))
    return out


def _greedy_matches(iou: np.ndarray, tiou_threshold: float) -> np.ndarray:
    """True positives of detections (rows, best score first) matched one to
    one to ground truths (columns): each takes its best-overlapping unmatched
    truth, the first on ties, if that overlap is positive and reaches the
    threshold."""
    tp = np.zeros(iou.shape[0])
    best = iou.max(axis=1)
    # a row below the threshold everywhere can never match, so skip it
    rows = np.flatnonzero((best >= tiou_threshold) & (best > 0.0))
    free = np.ones(iou.shape[1], dtype=bool)
    for i in rows:
        open_iou = np.where(free, iou[i], -1.0)
        j = int(np.argmax(open_iou))
        if open_iou[j] > 0.0 and open_iou[j] >= tiou_threshold:
            free[j] = False
            tp[i] = 1.0
    return tp


def _interpolated_ap(tp: np.ndarray, n_truths: int) -> float:
    hits = np.flatnonzero(tp)
    if hits.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, tp.size + 1)
    recall = cum_tp / n_truths
    # precision envelope from the right, then rectangle areas at each recall
    # step, summed left to right
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(recall[hits], prepend=0.0) * envelope[hits]
    return float(np.cumsum(steps)[-1])


def average_precision(detections: list, ground_truths: list, tiou_threshold):
    """All-point interpolated AP with greedy one-to-one matching.

    detections: (score, interval) pairs or DetectionResult; ground_truths:
    (video_id-agnostic) intervals. Returns None when there is nothing to
    detect, so callers can exclude the class from their mean. Given a
    sequence of thresholds, returns one AP per threshold, all matched on one
    tIoU matrix.
    """
    if not ground_truths:
        return None
    scores = np.array([d.score if isinstance(d, DetectionResult) else float(d[0])
                       for d in detections], dtype=np.float64)
    intervals = [d.interval if isinstance(d, DetectionResult) else tuple(d[1])
                 for d in detections]
    order = np.argsort(-scores, kind="stable")
    iou = temporal_iou_matrix(np.asarray(intervals).reshape(-1, 2)[order], ground_truths)
    thresholds = np.atleast_1d(tiou_threshold)
    aps = [_interpolated_ap(_greedy_matches(iou, thr), len(ground_truths))
           for thr in thresholds]
    return aps if np.ndim(tiou_threshold) else aps[0]


def _detections_by_class(detections: list):
    keyed = {}
    for det in detections:
        keyed.setdefault(det.class_index, []).append(det)
    return keyed


def detection_maps(detections: list, truths: dict, tiou_grid) -> dict:
    """mAP at each tIoU threshold over classes with ground truth.

    truths maps each class index to its (video_id, interval) pairs; a
    detection only ever matches a truth of its own video.
    """
    by_class = _detections_by_class(detections)
    per_class = []  # one AP per grid threshold, for each class with truths
    for k, class_truths in truths.items():
        if not class_truths:
            continue
        # offset each video into its own span so intervals from different
        # videos never overlap
        dets = by_class.get(k, [])
        vids = sorted({v for v, _ in class_truths} | {d.video_id for d in dets})
        span = 1 + max([iv[1] for _, iv in class_truths] + [d.interval[1] for d in dets])
        offset = {v: i * span for i, v in enumerate(vids)}
        gt_shifted = [(iv[0] + offset[v], iv[1] + offset[v]) for v, iv in class_truths]
        det_shifted = [
            (d.score, (d.interval[0] + offset[d.video_id], d.interval[1] + offset[d.video_id]))
            for d in dets
        ]
        per_class.append(average_precision(det_shifted, gt_shifted, list(tiou_grid)))
    return {float(thr): float(np.mean([aps[i] for aps in per_class])) if per_class else 0.0
            for i, thr in enumerate(tiou_grid)}


def episode_detection(params: model_mod.ModelParams, episode: Episode,
                      cfg: LossConfig = None, tiou_grid=MAP_TIOU_GRID):
    """Per-episode mAP at each tIoU threshold, macro-averaged over classes.

    Detections from every query count against every class: a proposal for
    class k on a query of another class is a false positive for k.
    """
    proto = prototype_matrix(compute_prototypes(params, episode))
    return _detection(params, episode.class_remap, proto, _embedded_queries(params, episode),
                      cfg, tiou_grid)


def _detection(params, remap: dict, proto: np.ndarray, queries: list, cfg, tiou_grid):
    """(map50, avg_map, maps) of (video, (T, d) embedding) query pairs; a
    video carries its class_label, video_id and gt_intervals."""
    all_dets, gts = [], {k: [] for k in range(len(remap))}
    for video, f in queries:
        res = classify_query(params, f, proto, cfg)
        all_dets.extend(extract_proposals(tcam(f, res.weights, proto), video_id=video.video_id))
        for interval in video.gt_intervals:
            gts[remap[video.class_label]].append((video.video_id, tuple(interval)))
    maps = detection_maps(all_dets, gts, tiou_grid)
    avg_map = float(np.mean([maps[float(t)] for t in tiou_grid]))
    return maps[0.5], avg_map, maps


def mean_ci(scores) -> tuple:
    """Mean and half-width of the 95% interval (1.96 * sd / sqrt(E))."""
    scores = np.asarray(scores, dtype=np.float64)
    mean = float(scores.mean())
    if scores.size < 2:
        return mean, 0.0
    return mean, float(1.96 * scores.std(ddof=1) / np.sqrt(scores.size))


class _NovelVideos:
    """Embeddings of a manifest's videos under one set of parameters, each
    computed on first use.

    A video used as a query keeps its untrimmed (T, d) embedding, one used as
    support its trimmed (d,) mean. Features are not kept, so a video used in
    both roles is read twice.
    """

    def __init__(self, params: model_mod.ModelParams, manifest):
        self.params = params
        self.manifest = manifest
        self._embeddings = {}  # feature file -> (T, d)
        self._means = {}  # (feature file, gt intervals) -> (d,)

    def _load(self, entry):
        seq = self.manifest.load_sequence(entry)
        model_mod.check_feature_width(self.params, seq.features, entry.feature_file)
        return seq

    def query(self, entry) -> np.ndarray:
        key = entry.feature_file
        if key not in self._embeddings:
            self._embeddings[key] = model_mod.embed_segments(
                self.params, self._load(entry).features, grad=False)
        return self._embeddings[key]

    def support_mean(self, entry) -> np.ndarray:
        key = (entry.feature_file, tuple(tuple(iv) for iv in entry.gt_intervals))
        if key not in self._means:
            trimmed = trim_support_video(self._load(entry))
            self._means[key] = support_mean(self.params, trimmed.features)
        return self._means[key]


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
    reproduced independently. Each video is read and embedded at most once
    per role for the whole call; an episode then only indexes those arrays.
    """
    if mode not in ("classification", "detection"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    videos = _NovelVideos(params, manifest)
    per_episode = []
    for e in episode_ids:
        draw = draw_episode(manifest, K=K, n=n, q=q, seed=[seed, e])
        remap = {label: i for i, label in enumerate(draw.classes)}
        proto = prototype_matrix(prototypes_from_means(K, [
            (remap[entry.class_label], videos.support_mean(entry)) for entry in draw.support]))
        queries = [(entry, videos.query(entry)) for entry in draw.queries]
        if mode == "classification":
            per_episode.append(_accuracy(params, remap, proto, queries, cfg))
        else:
            map50, avg_map, _ = _detection(params, remap, proto, queries, cfg, MAP_TIOU_GRID)
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
