"""Pseudo-labeling of untrimmed base videos from their own logits.

The segment whose best class logit is lowest is the least action-like and
becomes the video's background (BG) segment. If even that best logit sits
below a threshold the segment is non-informative background (NBG): the
classifier sees nothing it knows, which is the open-set rejection case.
Segments with the highest best-logits are foreground or informative
background (FG+IBG); more than one is kept because a single top segment
behaves like multiple-instance learning and starves the contrastive pool.

All functions here work on plain arrays and return indices; the training
graph treats these decisions as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def default_m(T):
    """FG+IBG set size for a video of T segments (or an array of T): max(2, ceil(T/8))."""
    return np.maximum(2, -(-T // 8))


def _segment_scores(logits: np.ndarray) -> np.ndarray:
    """Per-segment best class logit: the max over the last axis."""
    return np.asarray(logits, dtype=np.float64).max(axis=-1)


def pseudo_label_bg(logits: np.ndarray):
    """Index of the segment with the smallest best-class score; first on ties.

    (T, C) logits of one video give one index; a (Q, T, C) stack of videos
    gives a (Q,) index array, one BG segment per video.
    """
    return np.argmin(_segment_scores(logits), axis=-1)


def select_fg_ibg(logits: np.ndarray, M: int) -> list:
    """Indices (ascending) of the M segments with the largest best-class
    scores; ties prefer the lower index."""
    scores = _segment_scores(logits)
    T = scores.shape[0]
    if not 1 <= M <= T - 1:
        raise ValueError(f"M must satisfy 1 <= M <= T-1 = {T - 1}, got {M}")
    top = np.argsort(-scores, kind="stable")[:M]
    return sorted(int(i) for i in top)


@dataclass
class PseudoLabelRecord:
    """Pseudo-labels of a batch of V videos, as rows of its stacked logits."""

    bg_rows: np.ndarray  # (V,) each video's BG row
    is_nbg: np.ndarray  # (V,) whether that BG segment is NBG
    fg_rows: np.ndarray  # FG+IBG rows, videos in batch order, ascending within each
    max_logits: np.ndarray  # (sum T,) each row's best-class score


def pseudo_label_video(logits: np.ndarray, lengths, t_n: float = 0.25,
                       M: int = None) -> PseudoLabelRecord:
    """Label every video of a (sum T, C) logits stack of videos of those
    lengths, each exactly as on its own.

    A video's BG segment is its first lowest-scoring one, NBG when that
    score is below t_n. Its FG+IBG set is its M highest-scoring other
    segments, ties to the lower index; M defaults to `default_m(T)` and is
    clipped to T - 1, so the BG segment stays out of the set even under total
    ties and a one-segment video has none. Zero videos give an empty record.
    """
    scores = _segment_scores(logits)
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    # one (V, T_max) row per video, padded with +inf so argmin skips the padding
    valid = np.arange(lengths.max(initial=1)) < lengths[:, None]
    padded = np.full(valid.shape, np.inf)
    padded[valid] = scores
    i_bg = np.argmin(padded, axis=1)
    m = np.clip(default_m(lengths) if M is None else M, 0, lengths - 1)
    # rank the other segments by descending score, ties by index
    left_out = ~valid
    left_out[np.arange(lengths.size), i_bg] = True
    order = np.lexsort((-padded, left_out), axis=1)[:, :m.max(initial=0)]
    kept = np.arange(order.shape[1]) < m[:, None]
    fg = np.sort(np.where(kept, order, valid.shape[1]), axis=1)
    bg_rows = starts + i_bg
    return PseudoLabelRecord(bg_rows=bg_rows, is_nbg=scores[bg_rows] < t_n,
                             fg_rows=(starts[:, None] + fg)[kept], max_logits=scores)


def segment_roles(record: PseudoLabelRecord) -> list:
    """One role name per row of the labeled stack, for inspection dumps."""
    roles = np.full(record.max_logits.shape, "other", dtype=object)
    roles[record.fg_rows] = "FGIBG"
    roles[record.bg_rows] = np.where(record.is_nbg, "NBG", "BG")
    return roles.tolist()
