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


def default_m(T: int) -> int:
    return max(2, -(-T // 8))


def _segment_scores(logits: np.ndarray) -> np.ndarray:
    """Per-segment best class logit: the max over the last axis."""
    return np.asarray(logits, dtype=np.float64).max(axis=-1)


def pseudo_label_bg(logits: np.ndarray):
    """Index of the segment with the smallest best-class score; first on ties.

    (T, C) logits of one video give an int; a (Q, T, C) stack of videos
    gives a (Q,) index array, one BG segment per video.
    """
    i_bg = np.argmin(_segment_scores(logits), axis=-1)
    return int(i_bg) if i_bg.ndim == 0 else i_bg


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
    """One video's pseudo-labels; a stack of Q videos gives the same fields
    with a leading video axis (i_bg and is_nbg (Q,) arrays, fg_ibg_indices
    (Q, M), max_logits (Q, T)), and `video(q)` is one video's record."""

    i_bg: int
    is_nbg: bool
    fg_ibg_indices: list
    max_logits: np.ndarray  # per-segment best-class score, length T

    def video(self, q: int) -> "PseudoLabelRecord":
        return PseudoLabelRecord(
            i_bg=int(self.i_bg[q]),
            is_nbg=bool(self.is_nbg[q]),
            fg_ibg_indices=self.fg_ibg_indices[q].tolist(),
            max_logits=self.max_logits[q],
        )


def pseudo_label_video(logits: np.ndarray, t_n: float = 0.25, M: int = None) -> PseudoLabelRecord:
    """Full per-video labeling; keeps i_bg out of the FG+IBG set even under
    total ties, and tolerates degenerate videos (tiny T, constant logits).

    (T, C) logits of one video give that video's record; a (Q, T, C) stack of
    videos of one length gives the stacked record, each video labeled exactly
    as on its own.
    """
    one = np.ndim(logits) == 2
    scores = _segment_scores(np.asarray(logits)[None] if one else logits)
    Q, T = scores.shape
    i_bg = np.argmin(scores, axis=1)
    if M is None:
        M = default_m(T)
    M = max(0, min(M, T - 1))
    order = np.argsort(-scores, axis=1, kind="stable")
    order = order[order != i_bg[:, None]].reshape(Q, T - 1)
    record = PseudoLabelRecord(
        i_bg=i_bg,
        is_nbg=scores[np.arange(Q), i_bg] < t_n,
        fg_ibg_indices=np.sort(order[:, :M], axis=1),
        max_logits=scores,
    )
    return record.video(0) if one else record


def segment_roles(record: PseudoLabelRecord) -> list:
    """Per-segment role names for inspection dumps."""
    roles = ["other"] * record.max_logits.shape[0]
    for i in record.fg_ibg_indices:
        roles[i] = "FGIBG"
    roles[record.i_bg] = "NBG" if record.is_nbg else "BG"
    return roles
