"""Pseudo-labeling vs a brute-force scan oracle, plus its invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fewvid import pseudo


# deliberately dumb reference implementations: python loops, no numpy tricks
def oracle_bg(logits):
    best_idx, best_val = 0, math.inf
    for i, row in enumerate(logits):
        m = max(row)
        if m < best_val:
            best_idx, best_val = i, m
    return best_idx


def oracle_top_m(logits, M):
    vals = [max(row) for row in logits]
    chosen = []
    for _ in range(M):
        pick, pick_val = None, -math.inf
        for i, v in enumerate(vals):
            if i not in chosen and v > pick_val:
                pick, pick_val = i, v
        chosen.append(pick)
    return sorted(chosen)


def label_one(logits, **kwargs):
    """The batch labeler on a batch of one video."""
    return pseudo.pseudo_label_video(logits, [len(logits)], **kwargs)


def logit_matrices():
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 32), st.integers(1, 16)),
        elements=st.floats(-1.0, 1.0, width=16),  # coarse grid makes ties common
    )


class TestExamples:
    def test_bg_picks_weakest_segment(self):
        logits = np.array([[0.9, 0.1], [0.3, 0.2], [0.5, 0.4]])
        assert pseudo.pseudo_label_bg(logits) == 1

    def test_bg_tie_takes_first(self):
        assert pseudo.pseudo_label_bg(np.tile([0.4, 0.2], (5, 1))) == 0

    def test_bg_singleton(self):
        assert pseudo.pseudo_label_bg(np.array([[0.1, 0.9]])) == 0

    def test_nbg_threshold(self):
        logits = np.array([[0.9, 0.1], [0.3, 0.2], [0.5, 0.4]])
        assert label_one(logits, t_n=0.25).is_nbg.tolist() == [False]
        assert label_one(logits, t_n=0.35).is_nbg.tolist() == [True]

    def test_nbg_never_fires_below_cosine_floor(self):
        logits = np.random.default_rng(0).uniform(-1, 1, size=(8, 4))
        assert label_one(logits, t_n=-1.0).is_nbg.tolist() == [False]

    def test_top_m(self):
        logits = np.array([[0.9, 0.1], [0.3, 0.2], [0.5, 0.4]])
        assert pseudo.select_fg_ibg(logits, 1) == [0]
        assert pseudo.select_fg_ibg(logits, 2) == [0, 2]

    def test_top_m_tie_takes_lowest(self):
        assert pseudo.select_fg_ibg(np.tile([0.4, 0.2], (5, 1)), 2) == [0, 1]

    def test_m_out_of_range(self):
        logits = np.zeros((4, 2))
        with pytest.raises(ValueError):
            pseudo.select_fg_ibg(logits, 0)
        with pytest.raises(ValueError):
            pseudo.select_fg_ibg(logits, 4)

    def test_default_m(self):
        assert pseudo.default_m(8) == 2
        assert pseudo.default_m(20) == 3
        assert pseudo.default_m(100) == 13


class TestOracleAgreement:
    def test_many_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            T = int(rng.integers(2, 33))
            N = int(rng.integers(1, 17))
            # half the draws land on a coarse grid so exact ties occur
            if rng.random() < 0.5:
                logits = rng.integers(-4, 5, size=(T, N)) / 4.0
            else:
                logits = rng.uniform(-1, 1, size=(T, N))
            M = int(rng.integers(1, T))
            assert pseudo.pseudo_label_bg(logits) == oracle_bg(logits.tolist())
            assert pseudo.select_fg_ibg(logits, M) == oracle_top_m(logits.tolist(), M)


class TestInvariances:
    @settings(max_examples=100, deadline=None)
    @given(logit_matrices(), st.floats(-0.5, 0.5, width=16))
    def test_shift_invariance(self, logits, shift):
        shifted = logits + shift
        M = max(1, logits.shape[0] // 3)
        assert pseudo.pseudo_label_bg(shifted) == pseudo.pseudo_label_bg(logits)
        assert pseudo.select_fg_ibg(shifted, M) == pseudo.select_fg_ibg(logits, M)

    @settings(max_examples=100, deadline=None)
    @given(logit_matrices(), st.randoms(use_true_random=False))
    def test_permutation_consistency(self, logits, rand):
        T = logits.shape[0]
        perm = list(range(T))
        rand.shuffle(perm)
        perm = np.array(perm)
        # ties break differently across orderings, so jitter rows apart
        logits = logits + np.arange(T)[:, None] * 1e-9
        i_bg = pseudo.pseudo_label_bg(logits)
        assert pseudo.pseudo_label_bg(logits[perm]) == int(np.flatnonzero(perm == i_bg)[0])
        M = max(1, T // 3)
        direct = pseudo.select_fg_ibg(logits[perm], M)
        mapped = sorted(int(np.flatnonzero(perm == i)[0]) for i in pseudo.select_fg_ibg(logits, M))
        assert direct == mapped

    @settings(max_examples=100, deadline=None)
    @given(logit_matrices())
    def test_nbg_depends_on_absolute_level(self, logits):
        assert label_one(logits - 10.0, t_n=0.25).is_nbg.tolist() == [True]
        assert label_one(logits + 10.0, t_n=0.25).is_nbg.tolist() == [False]


class TestRecord:
    def test_bg_excluded_from_fg_ibg(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.uniform(-1, 1, size=(int(rng.integers(2, 20)), 4))
            rec = label_one(logits)
            assert rec.bg_rows[0] not in rec.fg_rows

    def test_bg_excluded_even_under_total_tie(self):
        rec = label_one(np.zeros((6, 3)), M=3)
        assert rec.bg_rows.tolist() == [0]
        assert rec.fg_rows.tolist() == [1, 2, 3]

    def test_matches_components(self):
        logits = np.random.default_rng(2).uniform(-1, 1, size=(12, 5))
        rec = label_one(logits, t_n=0.3, M=4)
        assert rec.bg_rows.tolist() == [pseudo.pseudo_label_bg(logits)]
        assert rec.is_nbg.tolist() == [logits[rec.bg_rows[0]].max() < 0.3]
        assert rec.fg_rows.tolist() == pseudo.select_fg_ibg(logits, 4)
        np.testing.assert_array_equal(rec.max_logits, logits.max(axis=1))

    def test_tiny_video_does_not_crash(self):
        rec = label_one(np.array([[0.2, 0.1]]))
        assert rec.bg_rows.tolist() == [0]
        assert rec.fg_rows.tolist() == []

    def test_roles_cover_every_segment(self):
        logits = np.random.default_rng(3).uniform(-1, 1, size=(10, 4))
        rec = label_one(logits, M=3)
        roles = pseudo.segment_roles(rec)
        assert len(roles) == 10
        assert roles.count("FGIBG") == 3
        assert roles.count("BG") + roles.count("NBG") == 1


def oracle_record(logits, t_n, M):
    """One video's labels, straight from the brute-force oracles."""
    T = logits.shape[0]
    i_bg = oracle_bg(logits)
    M = max(0, min(pseudo.default_m(T) if M is None else M, T - 1))
    rest = [i for i in range(T) if i != i_bg]
    fg = [rest[i] for i in oracle_top_m(logits[rest], M)]
    return i_bg, max(logits[i_bg]) < t_n, sorted(fg)


@st.composite
def ragged_stacks(draw):
    """(sum T, C) logits of up to 6 videos of 1-12 segments, and their lengths."""
    lengths = draw(st.lists(st.integers(1, 12), max_size=6))
    logits = draw(hnp.arrays(np.float64, (sum(lengths), draw(st.integers(1, 6))),
                             elements=st.floats(-1.0, 1.0, width=16)))  # coarse grid: many ties
    return logits, lengths


class TestStack:
    """A ragged stack of videos is labeled as its videos are one by one."""

    @settings(max_examples=300, deadline=None)
    @given(ragged_stacks(), st.sampled_from([-2.0, 0.0, 0.25, 2.0]),
           st.sampled_from([None, 0, 1, 2, 5, 40]))
    def test_equals_per_video_calls(self, stack, t_n, M):
        logits, lengths = stack
        kwargs = dict(t_n=t_n, M=M)
        got = pseudo.pseudo_label_video(logits, lengths, **kwargs)
        assert got.bg_rows.shape == got.is_nbg.shape == (len(lengths),)
        np.testing.assert_array_equal(got.max_logits, [max(row) for row in logits])
        starts = np.cumsum(lengths, dtype=int) - lengths
        fg_rows, roles = [], []
        for v, (start, T) in enumerate(zip(starts, lengths)):
            video = logits[start : start + T]
            i_bg, is_nbg, fg = oracle_record(video, **kwargs)
            assert (got.bg_rows[v], got.is_nbg[v]) == (start + i_bg, is_nbg)
            one = label_one(video, **kwargs)
            assert (one.bg_rows.tolist(), one.is_nbg.tolist(), one.fg_rows.tolist()) == (
                [i_bg], [is_nbg], fg)
            fg_rows += [start + i for i in fg]
            roles += pseudo.segment_roles(one)
        assert got.fg_rows.tolist() == fg_rows
        assert pseudo.segment_roles(got) == roles

    @pytest.mark.parametrize("T", [1, 2])
    def test_shortest_videos(self, T):
        stack = np.array([[0.3, 0.1]] * T + [[0.1, 0.0], [0.5, 0.2]][:T])
        got = pseudo.pseudo_label_video(stack, [T, T], t_n=0.2)
        assert got.bg_rows.tolist() == [0, T]
        assert got.is_nbg.tolist() == [False, True]
        assert got.fg_rows.tolist() == [1, T + 1] * (T - 1)

    def test_no_videos_give_an_empty_record(self):
        got = pseudo.pseudo_label_video(np.zeros((0, 3)), [])
        assert got.bg_rows.size == got.is_nbg.size == got.fg_rows.size == 0
        assert got.max_logits.shape == (0,)
        assert pseudo.segment_roles(got) == []
