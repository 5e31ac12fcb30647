"""Loss values against closed forms and an independent numpy reimplementation."""

import dataclasses
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import primitive_chains as chains
from reference import copy_params
from fewvid import autodiff as ad
from fewvid import losses, model, pseudo, train


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def rows(*vs):
    return ad.Tensor(np.array([unit(v) for v in vs]))


NO_ROWS = ad.Tensor(np.zeros((0, 2)))  # an empty pool of 2-D features


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestSelfWeight:
    def test_half_at_center_cosine(self):
        f = rows([1, 0, 0], [0.5, np.sqrt(0.75), 0])
        w = losses.self_weight(f, i_bg=0)
        assert abs(w.data[1, 0] - 0.5) < 1e-9

    def test_bg_segment_itself(self):
        f = rows([1, 0], [0, 1])
        w = losses.self_weight(f, i_bg=0)
        assert abs(w.data[0, 0] - 1.0 / (1.0 + np.exp(4.0))) < 1e-9

    def test_orthogonal_segment(self):
        f = rows([1, 0], [0, 1])
        w = losses.self_weight(f, i_bg=0)
        assert abs(w.data[1, 0] - 1.0 / (1.0 + np.exp(-4.0))) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_monotone_decreasing_in_cosine(self, seed, T):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(T, 5))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        w = losses.self_weight(ad.Tensor(f), i_bg=0).data[:, 0]
        cos = f @ f[0]
        order = np.argsort(cos)
        assert np.all(np.diff(w[order]) <= 1e-12)
        assert np.all((w > 0.0) & (w < 1.0))


class TestAggregate:
    def test_uniform_weights_give_mean(self):
        f = ad.Tensor(np.array([[2.0, 0.0], [0.0, 4.0]]))
        out = losses.aggregate_video_feature(f, ad.Tensor([[1.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 2.0]], atol=1e-12)

    def test_one_hot_selects_row(self):
        f = ad.Tensor(np.array([[2.0, 0.0], [0.0, 4.0]]))
        out = losses.aggregate_video_feature(f, ad.Tensor([[1.0], [0.0]]))
        np.testing.assert_allclose(out.data, [[2.0, 0.0]], atol=1e-12)

    def test_hand_weights(self):
        f = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = losses.aggregate_video_feature(f, ad.Tensor([[1.0], [3.0]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            losses.aggregate_video_feature(ad.Tensor(np.ones((2, 2))), ad.Tensor([[0.0], [0.0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 8))
    def test_weights_normalize_to_one(self, seed, T, d):
        # aggregating constant rows must return that constant exactly:
        # the normalized weights sum to 1
        rng = np.random.default_rng(seed)
        weights = ad.Tensor(rng.uniform(0.01, 1.0, size=(T, 1)))
        out = losses.aggregate_video_feature(ad.Tensor(np.ones((T, d))), weights)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-10)
        # and the output matches the explicit convex combination
        f = rng.normal(size=(T, d))
        out2 = losses.aggregate_video_feature(ad.Tensor(f), weights)
        expect = (weights.data * f).sum(axis=0) / weights.data.sum()
        np.testing.assert_allclose(out2.data[0], expect, atol=1e-10)


class TestSoftCls:
    def test_separated_logits(self):
        F = ad.Tensor(np.array([[1.0, 0.0]]))
        classifier = rows([1, 0], [0, 1])
        loss = losses.soft_cls_loss(F, 0, classifier)
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)

    def test_uniform_two_classes(self):
        F = ad.Tensor(np.array([[0.0, 0.0, 1.0]]))
        classifier = rows([1, 0, 0], [0, 1, 0])
        loss = losses.soft_cls_loss(F, 1, classifier)
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_uniform_many_classes(self):
        F = ad.Tensor(np.array([[0.0, 0.0, 1.0]]))
        classifier = rows([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])
        loss = losses.soft_cls_loss(F, 2, classifier)
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            losses.soft_cls_loss(ad.Tensor(np.ones((1, 2))), 5, rows([1, 0], [0, 1]))

    def test_label_count_must_match_rows(self):
        # one label for three rows used to score row 0 alone, with no
        # gradient for rows 1 and 2
        F = ad.Tensor(np.eye(3), requires_grad=True)
        classifier = rows([1, 0, 0], [0, 1, 0], [0, 0, 1])
        for y in (1, [0, 1], [0, 1, 2, 0]):
            with pytest.raises(ad.ShapeError):
                losses.soft_cls_loss(F, y, classifier)
        assert losses.soft_cls_loss(F, [0, 1, 2], classifier).data.shape == ()

    def test_video_feature_renormalized(self):
        F = ad.Tensor(np.array([[3.0, 0.0]]))  # deliberately not unit norm
        loss = losses.soft_cls_loss(F, 0, rows([1, 0], [0, 1]))
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)


class TestBgCls:
    def test_nbg_on_its_row(self):
        classifier = rows([1, 0], [0, 1])  # last row is the background row
        loss = losses.bg_cls_loss(ad.Tensor(np.array([[0.0, 1.0]])), classifier)
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)

    def test_uniform_three_rows(self):
        classifier = rows([1, 0, 0], [0, 1, 0], [0, 0, 1])
        feat = ad.Tensor(unit([1, 1, 1])[None, :])
        loss = losses.bg_cls_loss(feat, classifier)
        assert float(loss.data) == pytest.approx(np.log(3.0), rel=1e-9)

    def test_empty_batch_is_zero(self):
        assert float(losses.bg_cls_loss(NO_ROWS, rows([1, 0], [0, 1])).data) == 0.0

    def test_averages_over_segments(self):
        classifier = rows([1, 0], [0, 1])
        a, b = [[0.0, 1.0]], [[1.0, 0.0]]
        both = losses.bg_cls_loss(ad.Tensor(a + b), classifier)
        la = losses.bg_cls_loss(ad.Tensor(a), classifier)
        lb = losses.bg_cls_loss(ad.Tensor(b), classifier)
        assert float(both.data) == pytest.approx((float(la.data) + float(lb.data)) / 2.0, rel=1e-12)


class TestContrastive:
    def test_reference_fixture(self):
        nbg = ad.Tensor([[1.0, 0.0], [0.0, 1.0]])
        fgibg = ad.Tensor([[1.0, 0.0]])
        loss = losses.contrastive_loss(nbg, fgibg)
        assert abs(float(loss.data) - 4.0) < 1e-9

    def test_margin_exactly_met(self):
        nbg = ad.Tensor([[1.0, 0.0], [1.0, 0.0]])
        fgibg = ad.Tensor([[0.0, 1.0]])
        assert float(losses.contrastive_loss(nbg, fgibg).data) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_nbg(self):
        nbg = ad.Tensor([[1.0, 0.0], [-1.0, 0.0]])
        loss = losses.contrastive_loss(nbg, NO_ROWS)
        assert float(loss.data) == pytest.approx(4.0, abs=1e-12)

    def test_single_nbg_only_hinge(self):
        nbg = ad.Tensor([[1.0, 0.0]])
        fgibg = ad.Tensor([[1.0, 0.0]])
        assert float(losses.contrastive_loss(nbg, fgibg).data) == pytest.approx(2.0, abs=1e-12)

    def test_empty_pools_give_zero(self):
        assert float(losses.contrastive_loss(NO_ROWS, NO_ROWS).data) == 0.0
        assert float(losses.contrastive_loss(NO_ROWS, ad.Tensor([[1.0, 0.0]])).data) == 0.0

    def test_beta_scales_hinge(self):
        nbg = ad.Tensor([[1.0, 0.0], [0.0, 1.0]])
        fgibg = ad.Tensor([[1.0, 0.0]])
        cfg = losses.LossConfig(beta=0.5)
        assert float(losses.contrastive_loss(nbg, fgibg, cfg).data) == pytest.approx(3.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 6))
    def test_nonnegative_and_hinge_cutoff(self, seed, n_nbg, n_fg):
        rng = np.random.default_rng(seed)
        nb = np.array([unit(rng.normal(size=4)) for _ in range(n_nbg)])
        fgm = np.array([unit(rng.normal(size=4)) for _ in range(n_fg)])
        cfg = losses.LossConfig()
        total = float(losses.contrastive_loss(ad.Tensor(nb), ad.Tensor(fgm), cfg).data)
        assert total >= 0.0
        cross = ((fgm[:, None, :] - nb[None, :, :]) ** 2).sum(-1)
        pos = max(((nb[i] - nb[j]) ** 2).sum() for i in range(n_nbg) for j in range(i + 1, n_nbg))
        if cross.min() >= cfg.margin:
            assert total == pytest.approx(pos, abs=1e-9)



def all_pairs_contrastive(nb, fg, cfg):
    """`contrastive_loss` with every pair in the graph: the max over all NBG
    pairs (np.triu_indices order) and the min over all FG-row-major cross
    pairs, each taken by the graph's own max/min."""
    terms = []
    if nb.data.shape[0] >= 2:
        first, second = np.triu_indices(nb.data.shape[0], 1)
        terms.append(chains.reduce_max(chains.reduce_sum(chains.square(
            chains.sub(ad.take_rows(nb, first), ad.take_rows(nb, second))), axis=1)))
    if nb.data.shape[0] and fg.data.shape[0]:
        n_fg, n_nb = fg.data.shape[0], nb.data.shape[0]
        cross = chains.sub(ad.take_rows(fg, np.repeat(np.arange(n_fg), n_nb)),
                           ad.take_rows(nb, np.tile(np.arange(n_nb), n_fg)))
        closest = chains.reduce_min(chains.reduce_sum(chains.square(cross), axis=1))
        terms.append(chains.mul(cfg.beta, chains.relu(chains.sub(cfg.margin, closest))))
    total = ad.Tensor(0.0)
    for i, t in enumerate(terms):
        total = t if i == 0 else chains.add(total, t)
    return total


class TestHardestPairAgainstAllPairs:
    """Picking the pairs on arrays gives the all-pairs loss and gradients."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 7), st.integers(1, 4),
           st.sampled_from([0.5, 2.0, 4.0]))
    def test_loss_and_pool_gradients(self, seed, n_nb, n_fg, d, margin):
        rng = np.random.default_rng(seed)
        # few distinct rows on a coarse grid: duplicated rows and tied
        # distances are common, so ties must go to the first pair
        base = rng.integers(-2, 3, size=(4, d)) / 2.0
        nb = base[rng.integers(0, 3, size=n_nb)].reshape(n_nb, d)
        fg = base[rng.integers(0, 4, size=n_fg)].reshape(n_fg, d)
        cfg = losses.LossConfig(margin=margin)
        got, want = [], []
        for build, out in ((losses.contrastive_loss, got), (all_pairs_contrastive, want)):
            pools = ad.Tensor(nb, requires_grad=True), ad.Tensor(fg, requires_grad=True)
            loss = build(*pools, cfg)
            ad.backward(loss)
            out.append(np.asarray(loss.data).tobytes())
            out.extend(np.zeros_like(p.data) if p.grad is None else p.grad for p in pools)
        assert got[0] == want[0]  # the loss, bit for bit
        # equal values; the all-pairs graph may leave -0.0 where this leaves 0.0
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        # only the chosen pairs' rows carry a gradient
        chosen_nb, chosen_fg = set(), set()
        if n_nb >= 2:
            first, second = np.triu_indices(n_nb, 1)
            at = np.argmax(((nb[first] - nb[second]) ** 2).sum(axis=1))
            chosen_nb |= {first[at], second[at]}
        if n_nb and n_fg:
            i, j = np.unravel_index(
                np.argmin(((fg[:, None] - nb[None]) ** 2).sum(axis=2)), (n_fg, n_nb))
            chosen_fg.add(i)
            chosen_nb.add(j)
        assert set(np.flatnonzero(got[1].any(axis=1))) <= chosen_nb
        assert set(np.flatnonzero(got[2].any(axis=1))) <= chosen_fg

    def test_tied_pairs_go_to_the_first(self):
        # rows 0 and 2 are the same point: pairs (0, 1) and (1, 2) tie for
        # the pull, (fg 0, nb 0) and (fg 0, nb 2) for the push
        nb = ad.Tensor([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], requires_grad=True)
        fg = ad.Tensor([[0.0, 0.5]], requires_grad=True)
        ad.backward(losses.contrastive_loss(nb, fg))
        np.testing.assert_array_equal(nb.grad, [[-2.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(fg.grad, [[0.0, -1.0]])


def gathered_pair_contrastive(nb, fg, cfg):
    """`contrastive_loss` as a chain of graph primitives: each hardest pair
    picked over every pair from broadcast differences, its two rows gathered
    into take_rows -> sub -> square -> sum, the push through
    beta * relu(margin - closest). The one-node loss must keep its bits."""
    terms = []
    if nb.data.shape[0] >= 2:
        first, second = np.triu_indices(nb.data.shape[0], 1)
        at = np.argmax(np.square(nb.data[first] - nb.data[second]).sum(axis=-1))
        diff = chains.sub(ad.take_rows(nb, [first[at]]), ad.take_rows(nb, [second[at]]))
        terms.append(chains.reduce_sum(chains.square(diff)))
    if nb.data.shape[0] and fg.data.shape[0]:
        dist = np.square(fg.data[:, None] - nb.data[None]).sum(axis=-1)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        closest = chains.reduce_sum(chains.square(
            chains.sub(ad.take_rows(fg, [i]), ad.take_rows(nb, [j]))))
        terms.append(chains.mul(cfg.beta, chains.relu(chains.sub(cfg.margin, closest))))
    total = ad.Tensor(0.0)
    for i, t in enumerate(terms):
        total = t if i == 0 else chains.add(total, t)
    return total


def loss_and_pool_grads(build, nb, fg, cfg):
    """(loss, NBG pool gradient, FG+IBG pool gradient) of `build` on fresh
    leaves, a pool without a gradient as zeros."""
    pools = ad.Tensor(nb, requires_grad=True), ad.Tensor(fg, requires_grad=True)
    loss = build(*pools, cfg)
    ad.backward(loss)
    return (np.asarray(loss.data),
            *(np.zeros_like(p.data) if p.grad is None else p.grad for p in pools))


def exhaustive_pairs(nb, fg):
    """The first farthest NBG pair (np.triu_indices order) and the first
    closest cross pair (FG-row-major), over every pair."""
    pull = push = None
    if len(nb) >= 2:
        first, second = np.triu_indices(len(nb), 1)
        at = np.argmax(((nb[first] - nb[second]) ** 2).sum(axis=1))
        pull = (first[at], second[at])
    if len(nb) and len(fg):
        dist = ((fg[:, None] - nb[None]) ** 2).sum(axis=2)
        push = np.unravel_index(np.argmin(dist), dist.shape)
    return pull, push


def gram_estimates(nb, fg):
    """Every pull and cross pair's squared distance as |a|^2 + |b|^2 - 2 a.b,
    in the exhaustive orders."""
    sq_nb, sq_fg = (nb * nb).sum(axis=1), (fg * fg).sum(axis=1)
    first, second = np.triu_indices(len(nb), 1)
    pull = sq_nb[first] + sq_nb[second] - 2.0 * (nb @ nb.T)[first, second]
    cross = sq_fg[:, None] + sq_nb[None] - 2.0 * (fg @ nb.T)
    return pull, cross


def near_tied_pools(seed, offset, d=8, n_nb=6, n_fg=5):
    """Rows of norm about `offset` that differ from one common row by a few
    ulps: every squared distance is far below the Gram estimate's rounding."""
    rng = np.random.default_rng(seed)
    common = offset * rng.normal(size=d) / np.sqrt(d)
    step = np.spacing(np.abs(common))
    nb = common + rng.integers(-3, 4, size=(n_nb, d)) * step
    fg = common + rng.integers(-3, 4, size=(n_fg, d)) * step
    return nb, fg


class TestNearTiedPools:
    """The Gram estimate only filters: where it misorders pairs, the exact
    distances still pick, and the node keeps the chain's bits."""

    @pytest.mark.parametrize("offset", [1e4, 1e5, 1e6])
    def test_pick_loss_and_gradients_equal_all_pairs(self, offset):
        cfg = losses.LossConfig()
        misordered = 0
        for seed in range(40):
            nb, fg = near_tied_pools(seed, offset)
            pull, push = losses._hardest_pairs(nb, fg)
            want_pull, want_push = exhaustive_pairs(nb, fg)
            assert (pull, push) == (want_pull, tuple(want_push))
            est_pull, est_cross = gram_estimates(nb, fg)
            first, second = np.triu_indices(len(nb), 1)
            misordered += (first[np.argmax(est_pull)], second[np.argmax(est_pull)]) != pull
            misordered += np.unravel_index(np.argmin(est_cross), est_cross.shape) != push
            got = loss_and_pool_grads(losses.contrastive_loss, nb, fg, cfg)
            want = loss_and_pool_grads(all_pairs_contrastive, nb, fg, cfg)
            chain = loss_and_pool_grads(gathered_pair_contrastive, nb, fg, cfg)
            assert got[0].tobytes() == want[0].tobytes() == chain[0].tobytes()
            for g, w, c in zip(got[1:], want[1:], chain[1:]):
                np.testing.assert_array_equal(g, w)
                assert g.tobytes() == c.tobytes()
        # the fixture is one the estimate alone gets wrong
        assert misordered >= 20

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 7), st.integers(1, 4),
           st.sampled_from([1e-3, 1e3]))
    def test_scaled_pools(self, seed, n_nb, n_fg, d, scale):
        # duplicated rows and tied distances, as in TestHardestPairAgainstAllPairs,
        # with every hinge active (1e-3) or active only on duplicates (1e3)
        rng = np.random.default_rng(seed)
        base = scale * rng.integers(-2, 3, size=(4, d)) / 2.0
        nb = base[rng.integers(0, 3, size=n_nb)].reshape(n_nb, d)
        fg = base[rng.integers(0, 4, size=n_fg)].reshape(n_fg, d)
        cfg = losses.LossConfig()
        got = loss_and_pool_grads(losses.contrastive_loss, nb, fg, cfg)
        want = loss_and_pool_grads(all_pairs_contrastive, nb, fg, cfg)
        chain = loss_and_pool_grads(gathered_pair_contrastive, nb, fg, cfg)
        assert got[0].tobytes() == want[0].tobytes() == chain[0].tobytes()
        for g, w, c in zip(got[1:], want[1:], chain[1:]):
            np.testing.assert_array_equal(g, w)
            assert g.tobytes() == c.tobytes()
        if n_nb:
            pull, push = losses._hardest_pairs(nb, fg if n_fg else None)
            want_pull, want_push = exhaustive_pairs(nb, fg)
            assert pull == want_pull
            assert push == (None if want_push is None else tuple(want_push))


def recorded_warnings(build, nb, fg, cfg):
    """(loss, NBG gradient, FG+IBG gradient) and the set of NumPy warnings
    `build` and its backward emit under NumPy's default error handling."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("always")
        out = loss_and_pool_grads(build, nb, fg, cfg)
    return out, {(w.category, str(w.message)) for w in caught}


def nonfinite_pools():
    rng = np.random.default_rng(5)
    nb, fg = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    cases = {}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
                        ("huge", 1e200)):
        for pool in ("nb", "fg"):
            a, b = nb.copy(), fg.copy()
            (a if pool == "nb" else b)[2, 1] = value
            cases[f"{name}-in-{pool}"] = (a, b)
    a = nb.copy()
    a[1] = np.nan
    cases["nan-row"] = (a, fg)
    cases["all-inf"] = (np.full_like(nb, np.inf), np.full_like(fg, np.inf))
    # finite distances whose Gram estimate overflows: |a|^2 + |b|^2 of the
    # closest cross pair (0, 0) is past the largest float, so its estimate is
    # inf, while the farther pair (0, 1) has a finite one
    p, q = np.sqrt(np.finfo(float).max * np.array([0.55, 0.01]))
    cases["estimate-overflows"] = (np.array([[0.8 * p, 0.6 * p], [-q, 0.0]]),
                                   np.array([[p, 0.0]]))
    return cases


class TestNonFinitePools:
    """NaN, inf or overflowing rows give the chain's value and gradients, no
    exception, and no NumPy warning that the chain does not emit."""

    @pytest.mark.parametrize("case", sorted(nonfinite_pools()))
    def test_value_gradients_and_warnings(self, case):
        nb, fg = nonfinite_pools()[case]
        cfg = losses.LossConfig()
        got, got_warned = recorded_warnings(losses.contrastive_loss, nb, fg, cfg)
        want, want_warned = recorded_warnings(gathered_pair_contrastive, nb, fg, cfg)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert got_warned <= want_warned
        if case.startswith("nan"):
            assert np.isnan(got[0])

    def test_pull_only_nan_pool(self):
        nb = np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])
        loss = losses.contrastive_loss(ad.Tensor(nb), NO_ROWS)
        assert np.isnan(loss.data)


class TestContrastiveNode:
    """The loss is one graph node whose backward matches central
    differences while its pairs stay frozen."""

    @staticmethod
    def check(nb, fg):
        """Grad-check the node on leaf pools; returns each pool's gradient."""
        cfg = losses.LossConfig()
        params = {"nb": nb} if fg is None else {"nb": nb, "fg": fg}
        grads = {}

        def builder(leaves):
            loss = losses.contrastive_loss(leaves["nb"], leaves.get("fg", NO_ROWS), cfg)
            assert loss.op == "contrastive"
            assert loss.inputs == tuple(leaves.values())
            return loss

        report = ad.grad_check(builder, params, h=1e-6, tol=1e-6)
        assert report.passed, report.summary()
        leaves = {name: ad.Tensor(value, requires_grad=True) for name, value in params.items()}
        ad.backward(builder(leaves))
        return {name: leaf.grad for name, leaf in leaves.items()}

    @staticmethod
    def rows_with_gradient(g):
        return np.flatnonzero(g.any(axis=1)).tolist()

    def test_pull_only(self):
        rng = np.random.default_rng(11)
        grads = self.check(rng.normal(size=(5, 3)), None)
        assert len(self.rows_with_gradient(grads["nb"])) == 2

    def test_push_only(self):
        rng = np.random.default_rng(12)
        grads = self.check(0.2 * rng.normal(size=(1, 3)), 0.2 * rng.normal(size=(4, 3)))
        assert self.rows_with_gradient(grads["nb"]) == [0]
        assert len(self.rows_with_gradient(grads["fg"])) == 1

    def test_both_terms(self):
        rng = np.random.default_rng(13)
        grads = self.check(0.3 * rng.normal(size=(4, 3)), 0.3 * rng.normal(size=(5, 3)))
        assert len(self.rows_with_gradient(grads["nb"])) in (2, 3)
        assert len(self.rows_with_gradient(grads["fg"])) == 1

    def test_hinge_inactive_gives_zero_pool_gradient(self):
        nb = np.array([[0.0, 0.0, 0.0]])
        fg = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0]])  # closest 4 >= margin 2
        grads = self.check(nb, fg)
        assert not grads["nb"].any() and not grads["fg"].any()
        assert float(losses.contrastive_loss(ad.Tensor(nb), ad.Tensor(fg)).data) == 0.0

    def test_forward_keeps_the_pair(self):
        nb = ad.Tensor([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5]])
        loss = losses.contrastive_loss(nb, NO_ROWS)
        assert float(loss.data) == 4.0  # pair (0, 1)
        nb.data[2] = [0.0, 9.0]  # now the farthest pair would be (1, 2)
        assert float(ad.forward(loss).data) == 4.0


def make_fixture(seed=0, B=2, T=8, d_in=8, d=8, n_classes=3):
    rng = np.random.default_rng(seed)
    params = model.init_params(n_classes=n_classes, d_in=d_in, d=d, seed=seed)
    batch = [
        losses.BatchVideo(features=rng.normal(size=(T, d_in)), label=int(rng.integers(n_classes)))
        for _ in range(B)
    ]
    return params, batch


def straight_line_total_loss(arrays, batch, cfg):
    """Independent recomputation of the full objective: plain numpy, no
    shared code with the library beyond the pseudo-label tie rules."""
    A, K, W = arrays["transform"], arrays["temporal_kernel"], arrays["classifier"]
    N = W.shape[0] - 1
    w = K.shape[1]
    pl = (w - 1) // 2

    def softmax_rows(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    cls_losses, nbg, fgibg = [], [], []
    for feats, label in batch:
        T = feats.shape[0]
        z = feats @ A.T
        zp = np.pad(z, ((pl, w - 1 - pl), (0, 0)))
        h = np.zeros_like(z)
        for j in range(w):
            h += zp[j : j + T] * K[:, j]
        f = h / (np.linalg.norm(h, axis=1, keepdims=True) + 1e-12)

        maxl = (f @ W[:N].T).max(axis=1)
        i_bg = int(np.argmin(maxl))
        M = cfg.top_m or max(2, -(-T // 8))
        M = min(M, T - 1)
        keep = [int(i) for i in np.argsort(-maxl, kind="stable") if int(i) != i_bg][:M]

        sw = 1.0 / (1.0 + np.exp(-cfg.tau_s * (1.0 - cfg.c - f @ f[i_bg])))
        F = (sw[:, None] * f).sum(axis=0) / sw.sum()
        Fn = F / (np.linalg.norm(F) + 1e-12)
        probs = softmax_rows(cfg.tau * (W @ Fn))
        cls_losses.append(-np.log(probs[label]))

        if maxl[i_bg] < cfg.t_n:
            nbg.append(f[i_bg])
        fgibg.extend(f[i] for i in sorted(keep))

    total = np.mean(cls_losses)
    contrast = 0.0
    if len(nbg) >= 2:
        contrast += max(((nbg[i] - nbg[j]) ** 2).sum()
                        for i in range(len(nbg)) for j in range(i + 1, len(nbg)))
    if nbg and fgibg:
        closest = min(((a - b) ** 2).sum() for a in fgibg for b in nbg)
        contrast += cfg.beta * max(0.0, cfg.margin - closest)
    total += cfg.gamma1 * contrast
    if nbg:
        stack = np.array(nbg)
        p = softmax_rows(cfg.tau * (stack @ W.T))
        total += cfg.gamma2 * np.mean(-np.log(p[:, N]))
    return total


class TestTotalLoss:
    def test_zero_gammas_reduce_to_classification(self):
        params, batch = make_fixture(seed=1)
        cfg = losses.LossConfig(gamma1=0.0, gamma2=0.0)
        loss, stats = losses.total_loss(params, batch, cfg)
        assert float(loss.data) == pytest.approx(stats["l_cls"], rel=1e-12)

    def test_matches_straight_line_oracle(self):
        for seed in range(5):
            params, batch = make_fixture(seed=seed, B=3, T=10, d_in=6, d=6)
            # nudge the threshold so some videos land in the NBG pool
            cfg = losses.LossConfig(t_n=0.6)
            loss, stats = losses.total_loss(params, batch, cfg)
            arrays = {k: t.data for k, t in params.tensors().items()}
            want = straight_line_total_loss(
                arrays, [(v.features, v.label) for v in batch], cfg)
            assert float(loss.data) == pytest.approx(want, rel=1e-9)

    def test_stats_reflect_terms(self):
        params, batch = make_fixture(seed=2)
        cfg = losses.LossConfig(t_n=0.9)
        loss, stats = losses.total_loss(params, batch, cfg)
        assert stats["n_nbg"] == np.count_nonzero(stats["labels"].is_nbg)
        want = stats["l_cls"] + cfg.gamma1 * stats["l_contrast"] + cfg.gamma2 * stats["l_bg"]
        assert stats["l_total"] == pytest.approx(want, rel=1e-12)

    def test_bg_off_drops_row_and_term(self):
        params, batch = make_fixture(seed=3)
        cfg = losses.LossConfig(bg=False, cl=False, t_n=0.9)
        loss, stats = losses.total_loss(params, batch, cfg)
        assert stats["l_bg"] == 0.0
        assert stats["l_contrast"] == 0.0

    def test_sw_off_uses_attention_net(self):
        params, batch = make_fixture(seed=4)
        with_sw, _ = losses.total_loss(params, batch, losses.LossConfig(sw=True))
        without, _ = losses.total_loss(params, batch, losses.LossConfig(sw=False))
        assert float(with_sw.data) != pytest.approx(float(without.data))

    def test_gradients_match_finite_differences(self):
        params, batch = make_fixture(seed=6, B=2, T=6, d_in=6, d=6)
        cfg = losses.LossConfig(t_n=0.5)

        def builder(leaves):
            p = model.ModelParams(**leaves)
            loss, _ = losses.total_loss(p, batch, cfg)
            return loss

        report = ad.grad_check(
            builder, {k: t.data for k, t in params.tensors().items()}, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()

    def test_labels_the_batch_in_one_call(self, monkeypatch):
        rng = np.random.default_rng(7)
        params = model.init_params(n_classes=3, d_in=6, d=6, seed=7)
        batch = [losses.BatchVideo(features=rng.normal(size=(T, 6)), label=T % 3)
                 for T in (5, 9, 5, 12)]
        rows_labeled = []
        label = pseudo.pseudo_label_video

        def counting(logits, *args, **kwargs):
            rows_labeled.append(len(logits))
            return label(logits, *args, **kwargs)

        monkeypatch.setattr(pseudo, "pseudo_label_video", counting)
        losses.total_loss(params, batch, losses.LossConfig(t_n=0.5))
        assert rows_labeled == [31]

    @staticmethod
    def graph_size(root):
        """Distinct nodes reachable from root through their inputs, root included."""
        seen, stack = {id(root)}, [root]
        while stack:
            for parent in stack.pop().inputs:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    def test_full_objective_graph_size(self):
        # t_n 2 flags every video, so both contrastive terms and the bg loss are live
        params, batch = make_fixture(seed=8, B=16, T=20, d_in=32, d=64, n_classes=20)
        loss, stats = losses.total_loss(params, batch, losses.LossConfig(t_n=2.0))
        assert stats["n_nbg"] == 16
        # 3 parameter leaves, one node per layer (embedding, self-weight,
        # aggregate, normalize, cross entropy, two pool gathers, contrastive,
        # bg cross entropy) and the weighted sum of the terms
        assert self.graph_size(loss) == 13

    @pytest.mark.parametrize("bg,cl,pools", [(True, True, 2), (False, True, 2),
                                             (True, False, 1), (False, False, 0)])
    def test_gathers_only_the_pools_a_term_reads(self, monkeypatch, bg, cl, pools):
        params, batch = make_fixture(seed=9, B=3)
        gathers = []
        take_rows = ad.take_rows

        def counting(a, index):
            if a is not params.classifier:  # bg off gathers the class rows
                gathers.append(len(index))
            return take_rows(a, index)

        monkeypatch.setattr(ad, "take_rows", counting)
        # sw gathers the BG rows itself
        cfg = losses.LossConfig(bg=bg, cl=cl, sw=False, t_n=2.0)
        _, stats = losses.total_loss(params, batch, cfg)
        assert len(gathers) == pools
        assert type(stats["n_nbg"]) is int and stats["n_nbg"] == 3


class TestRotationInvariance:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_all_losses_invariant_under_rotation(self, seed):
        rng = np.random.default_rng(seed)
        d, T, C = 6, 5, 4
        f = rng.normal(size=(T, d))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        W = rng.normal(size=(C, d))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        Q = random_orthogonal(rng, d)
        cfg = losses.LossConfig()

        def all_values(fv, wv):
            ft = ad.Tensor(fv)
            wt = ad.Tensor(wv)
            sw = losses.self_weight(ft, 0, cfg)
            F = losses.aggregate_video_feature(ft, sw)
            return (
                float(losses.soft_cls_loss(F, 1, wt, cfg).data),
                float(losses.bg_cls_loss(ad.Tensor(fv[:2]), wt, cfg).data),
                float(losses.contrastive_loss(ad.Tensor(fv[:2]), ad.Tensor(fv[2:3]), cfg).data),
                tuple(sw.data[:, 0]),
            )

        base = all_values(f, W)
        rotated = all_values(f @ Q, W @ Q)
        np.testing.assert_allclose(base[0], rotated[0], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(base[1], rotated[1], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(base[2], rotated[2], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(base[3], rotated[3], rtol=1e-9, atol=1e-9)


# The per-video objective as it stood before training built one graph per
# batch: one embedding graph per video and one-hot / difference selector
# matmuls. Kept as the oracle the batched `total_loss` must agree with.

def _oracle_one_hot_row(index, length):
    row = np.zeros((1, length))
    row[0, index] = 1.0
    return ad.Tensor(row)


def _oracle_pair_diff_matrix(n):
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(n)
            r[i], r[j] = 1.0, -1.0
            rows.append(r)
    return np.array(rows)


def _oracle_cross_diff_matrices(na, nb):
    return np.repeat(np.eye(na), nb, axis=0), np.tile(np.eye(nb), (na, 1))


def _oracle_soft_cls(F, y, classifier, cfg):
    probs = chains.softmax(chains.mul(cfg.tau, chains.matmul_t(ad.l2_normalize_rows(F), classifier)))
    pick = np.zeros((1, classifier.data.shape[0]))
    pick[0, y] = 1.0
    return chains.neg(chains.log(chains.weighted(probs, pick)))


def _oracle_bg_cls(nbg_feats, classifier, cfg):
    if not nbg_feats:
        return ad.Tensor(0.0)
    rows = chains.concat_rows(nbg_feats)
    n_rows = classifier.data.shape[0]
    probs = chains.softmax(chains.mul(cfg.tau, chains.matmul_t(rows, classifier)))
    pick = np.zeros((len(nbg_feats), n_rows))
    pick[:, n_rows - 1] = 1.0
    picked = chains.reduce_sum(chains.mul(probs, ad.Tensor(pick)), axis=1)
    return chains.neg(chains.reduce_mean(chains.log(picked)))


def _oracle_contrastive(nbg_feats, fgibg_feats, cfg):
    terms = []
    if len(nbg_feats) >= 2:
        stack = chains.concat_rows(nbg_feats)
        diffs = chains.matmul(ad.Tensor(_oracle_pair_diff_matrix(len(nbg_feats))), stack)
        terms.append(chains.reduce_max(chains.reduce_sum(chains.square(diffs), axis=1)))
    if nbg_feats and fgibg_feats:
        fg = chains.concat_rows(fgibg_feats)
        nb = chains.concat_rows(nbg_feats)
        ra, rb = _oracle_cross_diff_matrices(fg.data.shape[0], nb.data.shape[0])
        cross = chains.sub(chains.matmul(ad.Tensor(ra), fg), chains.matmul(ad.Tensor(rb), nb))
        closest = chains.reduce_min(chains.reduce_sum(chains.square(cross), axis=1))
        terms.append(chains.mul(cfg.beta, chains.relu(chains.sub(cfg.margin, closest))))
    if not terms:
        return ad.Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = chains.add(total, t)
    return total


def per_video_total_loss(params, batch, cfg):
    n = params.n_classes
    cls_terms, nbg_pool, fgibg_pool, records = [], [], [], []
    start = 0
    for video in batch:
        x = ad.Tensor(video.features)
        f = ad.l2_normalize_rows(chains.depthwise_conv1d(chains.matmul_t(x, params.transform),
                                                         params.temporal_kernel))
        class_rows = chains.matmul(ad.Tensor(np.eye(n + 1)[:n]), params.classifier)
        base_logits = chains.matmul_t(f, class_rows)
        T = f.data.shape[0]
        rec = pseudo.pseudo_label_video(base_logits.data, [T], t_n=cfg.t_n, M=cfg.top_m or None)
        i_bg, is_nbg, fg_ibg = int(rec.bg_rows[0]), bool(rec.is_nbg[0]), rec.fg_rows.tolist()
        # this video's labels in batch-row coordinates
        records.append((start + i_bg, is_nbg, [start + i for i in fg_ibg], rec.max_logits))
        start += T
        if cfg.sw:
            cos = chains.matmul_t(f, chains.matmul(_oracle_one_hot_row(i_bg, f.data.shape[0]), f))
            weights = chains.sigmoid(chains.mul(cfg.tau_s, chains.sub(1.0 - cfg.c, cos)))
        else:
            weights = chains.chain_attention(f, params.attn_hidden, params.attn_out)
        F = chains.video_aggregate(f, weights)
        head = (params.classifier if cfg.bg
                else chains.matmul(ad.Tensor(np.eye(n + 1)[:n]), params.classifier))
        cls_terms.append(_oracle_soft_cls(F, video.label, head, cfg))
        if is_nbg:
            nbg_pool.append(chains.matmul(_oracle_one_hot_row(i_bg, f.data.shape[0]), f))
        if fg_ibg:
            sel = np.zeros((len(fg_ibg), f.data.shape[0]))
            for r, idx in enumerate(fg_ibg):
                sel[r, idx] = 1.0
            fgibg_pool.append(chains.matmul(ad.Tensor(sel), f))
    l_cls = cls_terms[0]
    for t in cls_terms[1:]:
        l_cls = chains.add(l_cls, t)
    loss = chains.div(l_cls, float(len(cls_terms)))
    if cfg.cl:
        l_contrast = _oracle_contrastive(nbg_pool, fgibg_pool, cfg)
        loss = chains.add(loss, chains.mul(cfg.gamma1, l_contrast))
    if cfg.bg:
        l_bg = _oracle_bg_cls(nbg_pool, params.classifier, cfg)
        loss = chains.add(loss, chains.mul(cfg.gamma2, l_bg))
    return loss, len(nbg_pool), records


def loss_and_grads(build, params):
    leaves = copy_params(params)
    loss, *rest = build(leaves)
    ad.backward(loss)
    grads = {name: t.grad for name, t in leaves.tensors().items()}
    return float(loss.data), grads, rest


CONFIGS = [losses.LossConfig(bg=bg, sw=sw, cl=cl)
           for bg in (False, True) for sw in (False, True) for cl in (False, True)]


class TestBatchedAgainstPerVideoOracle:
    """One graph per batch equals the per-video graphs within 1e-12."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"bg{c.bg:d}sw{c.sw:d}cl{c.cl:d}")
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 24), min_size=1, max_size=6),
           st.sampled_from([-2.0, 0.3, 0.5, 2.0]), st.sampled_from([0, 1, 3]),
           st.integers(1, 9))
    def test_loss_grads_and_decisions(self, cfg, seed, lengths, t_n, top_m, width):
        # t_n -2 flags no video as NBG and 2 flags every video
        rng = np.random.default_rng(seed)
        params = model.init_params(n_classes=4, d_in=6, d=5, kernel_width=width, seed=seed)
        batch = [losses.BatchVideo(features=rng.normal(size=(t, 6)), label=int(rng.integers(4)))
                 for t in lengths]
        cfg = dataclasses.replace(cfg, t_n=t_n, top_m=top_m)  # top_m 0 picks default_m

        def batched(p):
            loss, stats = losses.total_loss(p, batch, cfg)
            return loss, stats["n_nbg"], stats["labels"]

        want, want_grads, (want_nbg, want_recs) = loss_and_grads(
            lambda p: per_video_total_loss(p, batch, cfg), params)
        got, got_grads, (got_nbg, got_labels) = loss_and_grads(batched, params)

        assert abs(got - want) <= 1e-12
        for name, g in want_grads.items():
            if g is None:
                assert got_grads[name] is None, name
            else:
                np.testing.assert_allclose(got_grads[name], g, rtol=0, atol=1e-12, err_msg=name)
        assert got_nbg == want_nbg
        assert len(want_recs) == got_labels.bg_rows.size == len(batch)
        for v, (bg_row, is_nbg, _, _) in enumerate(want_recs):
            assert (got_labels.bg_rows[v], got_labels.is_nbg[v]) == (bg_row, is_nbg)
        assert got_labels.fg_rows.tolist() == [row for rec in want_recs for row in rec[2]]
        np.testing.assert_allclose(got_labels.max_logits,
                                   np.concatenate([rec[3] for rec in want_recs]),
                                   rtol=0, atol=1e-12)
        if t_n == -2.0:
            assert got_nbg == 0
        if t_n == 2.0:
            assert got_nbg == len(batch)


# what `autodiff` exposed before the oracle primitives moved to `primitive_chains`
MOVED_NAMES = ("add", "sub", "mul", "div", "take_per_row", "segment_sum", "log", "square",
               "_reduce", "sigmoid", "relu", "softmax", "depthwise_conv1d", "_wrap",
               "_match_reduce", "_check_elementwise", "_elementwise")
MOVED_METHODS = ("sum", "mean", "max", "min", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__neg__")


class TestOpInventory:
    """A training step on a ragged batch with a one-row video builds only
    the layer nodes, the row gathers and the video features'
    normalization, under every subset of the objective."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"bg{c.bg:d}sw{c.sw:d}cl{c.cl:d}")
    def test_total_loss_ops(self, cfg):
        rng = np.random.default_rng(0)
        params = model.init_params(n_classes=4, d_in=6, d=5, seed=0)
        batch = [losses.BatchVideo(features=rng.normal(size=(t, 6)), label=t % 4)
                 for t in (5, 1, 8, 3)]
        # t_n 2: every video NBG
        loss, stats = losses.total_loss(params, batch, dataclasses.replace(cfg, t_n=2.0))
        assert stats["n_nbg"] == len(batch)
        order = ad._topo(loss)
        want = {"leaf", "embed_segments", "aggregate", "l2_normalize_rows", "cross_entropy",
                "self_weight" if cfg.sw else "attention"}
        if cfg.bg or cfg.cl:
            want |= {"take_rows", "loss_sum"}
        if not cfg.bg:
            want.add("take_rows")  # the class rows
        if cfg.cl:
            want.add("contrastive")
        assert {node.op for node in order} == want
        if cfg == losses.LossConfig():
            assert len(order) == 13

    def test_moved_primitives_are_gone(self):
        assert [name for name in MOVED_NAMES if hasattr(ad, name)] == []
        assert [name for name in MOVED_METHODS if hasattr(ad.Tensor, name)] == []


def training_step(params, batch, cfg, state):
    """One step as `train.train_base` takes it: the loss, its backward and
    the Nesterov update."""
    loss, _ = losses.total_loss(params, batch, cfg)
    ad.backward(loss)
    grads = {name: t.grad for name, t in params.tensors().items() if t.grad is not None}
    train.nesterov_step(params.tensors(), grads, state)


NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
ERRSTATE_CODES = {f.__code__ for f in vars(np.errstate).values() if hasattr(f, "__code__")}


def numpy_frame_allowed(code) -> bool:
    """Whether a training step may run this NumPy Python function: the
    dispatcher of a C function (a function of `_core/multiarray.py`, or
    one named `*_dispatcher`), `np.einsum`, or a method of `np.errstate`."""
    path = code.co_filename
    return (path.endswith(os.path.join("_core", "multiarray.py"))
            or code.co_name.endswith("_dispatcher")
            or (path.endswith("einsumfunc.py") and code.co_name == "einsum")
            or code in ERRSTATE_CODES)


def profiled_calls(run):
    """(the Python calls run() makes, counted as `sys.setprofile` "call"
    events, and a line naming each NumPy function outside
    `numpy_frame_allowed` it ran and that function's caller)."""
    calls, stray = 0, []

    def where(code):
        return "/".join(Path(code.co_filename).parts[-2:]) + f" {code.co_name}"

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        calls += 1
        code = frame.f_code
        if code.co_filename.startswith(NUMPY_DIR) and not numpy_frame_allowed(code):
            caller = frame.f_back
            stray.append(f"{where(code)}, called from {where(caller.f_code)} "
                         f"line {caller.f_lineno}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, stray


class TestStepRunsNoNumpyPython:
    """A training step, from `total_loss` to `nesterov_step`, runs no NumPy
    function written in Python but C functions' dispatchers, `np.einsum`
    and `np.errstate`: reductions are ufunc `reduce` calls, the conv's views
    come from the `np.ndarray` constructor, and the rest are ufuncs and C
    array methods."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"bg{c.bg:d}sw{c.sw:d}cl{c.cl:d}")
    def test_two_steps(self, cfg):
        rng = np.random.default_rng(0)
        params = model.init_params(n_classes=4, d_in=6, d=5, seed=0)
        # ragged, with a one-row video, every video NBG: every pool and node runs
        batch = [losses.BatchVideo(features=rng.normal(size=(t, 6)), label=t % 4)
                 for t in (5, 1, 8, 3)]
        state = train.OptimizerState()

        def two_steps():  # the first makes the velocities, the second reuses them
            for _ in range(2):
                training_step(params, batch, dataclasses.replace(cfg, t_n=2.0), state)

        _, stray = profiled_calls(two_steps)
        assert not stray, "NumPy Python functions in a training step:\n" + "\n".join(
            dict.fromkeys(stray))

    def test_full_step_call_budget(self):
        """A 16-video step of the full objective at the benchmark's sizes
        makes at most 260 Python calls (370 when reductions ran NumPy's
        `_methods` wrappers and the conv's views `as_strided`)."""
        rng = np.random.default_rng(0)
        params = model.init_params(n_classes=20, d_in=32, d=64, seed=0)
        batch = [losses.BatchVideo(features=rng.normal(size=(20, 32)), label=i % 20)
                 for i in range(16)]
        cfg, state = losses.LossConfig(), train.OptimizerState()
        training_step(params, batch, cfg, state)
        calls, _ = profiled_calls(lambda: training_step(params, batch, cfg, state))
        assert calls <= 260


class TestStepAllocation:
    """A 16-video step of the full objective at the benchmark's sizes keeps
    its traced allocation peak (`tracemalloc`: NumPy's array buffers and
    Python objects made during the step and alive at once) under a bound.
    The nodes compute their (rows, d) intermediates in place, into arrays
    they made: the peak read 1336 KB with them and 1659 KB before. Unlike a
    timing, the peak is the same on every run of one NumPy build."""

    PEAK_KB = 1400

    def test_full_step_peak(self):
        rng = np.random.default_rng(0)
        params = model.init_params(n_classes=20, d_in=32, d=64, seed=0)
        batch = [losses.BatchVideo(features=rng.normal(size=(20, 32)), label=i % 20)
                 for i in range(16)]
        cfg, state = losses.LossConfig(), train.OptimizerState()
        training_step(params, batch, cfg, state)  # makes the velocities
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            training_step(params, batch, cfg, state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= self.PEAK_KB * 1024, f"step peak {peak / 1024:.1f} KB"


def kept_bytes(root):
    """The bytes of every array a graph keeps from its forward evaluation:
    each node's output and each array its forward and backward closures
    hold (a `ConvGrid` by its padded grid), keyed by (node, name)."""
    kept = {}
    for i, node in enumerate(ad._topo(root)):
        kept[i, "data"] = node.data.tobytes()
        for fn in (node._fwd, node._bwd):
            if fn is None or fn.__closure__ is None:
                continue
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
                value = cell.cell_contents
                if isinstance(value, ad.ConvGrid):
                    value = value.padded
                if isinstance(value, np.ndarray):
                    kept[i, name] = value.tobytes()
    return kept


class TestBackwardWritesOnlyItsOwnArrays:
    """The nodes compute in place only into arrays they made. On one graph,
    a second backward and a backward after `autodiff.forward` (as grad-check
    re-evaluates it) give the first backward's gradient bytes, and no pass
    changes the batch's features or what the forward kept."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"bg{c.bg:d}sw{c.sw:d}cl{c.cl:d}")
    def test_repeated_backward(self, cfg):
        rng = np.random.default_rng(3)
        params = model.init_params(n_classes=4, d_in=6, d=5, seed=3)
        # ragged, with a one-row video, every video NBG: every pool and node runs
        batch = [losses.BatchVideo(features=rng.normal(size=(t, 6)), label=t % 4)
                 for t in (5, 1, 8, 3)]
        features = [video.features.tobytes() for video in batch]
        loss, stats = losses.total_loss(params, batch, dataclasses.replace(cfg, t_n=2.0))
        assert stats["n_nbg"] == len(batch)
        kept = kept_bytes(loss)

        def gradients():
            ad.backward(loss)
            return {name: None if t.grad is None else t.grad.tobytes()
                    for name, t in params.tensors().items()}

        first = gradients()
        assert kept_bytes(loss) == kept
        assert gradients() == first
        assert kept_bytes(loss) == kept
        ad.forward(loss)
        assert kept_bytes(loss) == kept
        assert gradients() == first
        assert kept_bytes(loss) == kept
        assert [video.features.tobytes() for video in batch] == features


def node_and_chain(build_node, build_chain, make_leaves, g):
    """(output bytes, gradient bytes of each leaf) of the node and of its
    chain, each on fresh leaves, with the output's gradient g."""
    results = []
    for build in (build_node, build_chain):
        leaves = make_leaves()
        out = build(*leaves)
        ad.backward(chains.weighted(out, g))
        results.append((np.asarray(out.data).tobytes(),
                        [None if t.grad is None else t.grad.tobytes() for t in leaves]))
    return results


def video_lengths(max_length=9):
    return st.lists(st.integers(1, max_length), min_size=1, max_size=6)


def bg_index(rng, lengths, per_video):
    """Each row's BG row: one row of each video, as `total_loss` gives it
    (sorted, repeated), or any rows, unsorted and repeated."""
    n = sum(lengths)
    if per_video:
        starts = np.cumsum(lengths) - lengths
        return np.repeat(starts + [rng.integers(t) for t in lengths], lengths)
    return rng.integers(0, n, size=n)


class TestLayerNodesAgainstChains:
    """Each layer node keeps its primitive chain's bits: its value and the
    gradient of every input."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), video_lengths(), st.integers(1, 8), st.booleans())
    def test_self_weight(self, seed, lengths, d, per_video):
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        fv, g = rng.normal(size=(n, d)), rng.normal(size=(n, 1))
        index = bg_index(rng, lengths, per_video)
        cfg = losses.LossConfig(tau_s=rng.uniform(1.0, 10.0), c=rng.uniform(0.0, 2.0))
        got, want = node_and_chain(
            lambda f: losses.self_weight(f, index, cfg),
            lambda f: chains.chain_self_weight(f, index, cfg),
            lambda: [ad.Tensor(fv, requires_grad=True)], g)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), video_lengths(), st.integers(1, 8), st.booleans())
    def test_aggregate(self, seed, lengths, d, weights_grad):
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        fv, wv = rng.normal(size=(n, d)), rng.uniform(0.01, 1.0, size=(n, 1))
        got, want = node_and_chain(
            lambda w, f: losses.aggregate_video_feature(f, w, lengths),
            lambda w, f: chains.chain_aggregate(f, w, lengths),
            lambda: [ad.Tensor(wv, requires_grad=weights_grad), ad.Tensor(fv, requires_grad=True)],
            rng.normal(size=(len(lengths), d)))
        assert got == want
        assert (got[1][0] is None) == (not weights_grad)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 6), st.integers(1, 8),
           st.booleans(), st.booleans())
    def test_cross_entropy(self, seed, n, n_rows, d, class_rows, feats_grad):
        # class_rows: the head is a gather of the classifier, as with bg off
        rng = np.random.default_rng(seed)
        fv, wv = rng.normal(size=(n, d)), rng.normal(size=(n_rows, d))
        labels = rng.integers(0, n_rows - class_rows, size=n)
        tau = rng.uniform(1.0, 20.0)

        def leaves():
            return [ad.Tensor(fv, requires_grad=feats_grad), ad.Tensor(wv, requires_grad=True)]

        def head(w):
            return ad.take_rows(w, np.arange(n_rows - 1)) if class_rows else w

        got, want = node_and_chain(
            lambda x, w: losses._cross_entropy(x, labels, head(w), tau),
            lambda x, w: chains.chain_cross_entropy(x, labels, head(w), tau),
            leaves, rng.normal())
        assert got == want

    def test_repeated_bg_rows_sum_in_index_order(self):
        # one source row read by every row of the stack, unsorted
        rng = np.random.default_rng(3)
        fv, g = rng.normal(size=(6, 4)), rng.normal(size=(6, 1))
        index = np.array([4, 4, 1, 4, 1, 4])
        got, want = node_and_chain(
            lambda f: losses.self_weight(f, index), lambda f: chains.chain_self_weight(
                f, index, losses.LossConfig()),
            lambda: [ad.Tensor(fv, requires_grad=True)], g)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), video_lengths(), st.integers(1, 8), st.integers(1, 6),
           st.sampled_from([(True, True, True), (True, False, True), (False, True, False)]))
    def test_attention(self, seed, lengths, d, hidden, needs_grad):
        # needs_grad: (f, attn_hidden, attn_out); f is a ragged stack of videos
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        arrays = rng.normal(size=(n, d)), rng.normal(size=(hidden, d)), rng.normal(size=(1, hidden))
        got, want = node_and_chain(
            model._attention_node, chains.chain_attention,
            lambda: [ad.Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)],
            rng.normal(size=(n, 1)))
        assert got == want
        assert [g is None for g in got[1]] == [not r for r in needs_grad]
        assert model._attention(*arrays)[1].tobytes() == got[0]  # the no-grad forward

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (2,), (1, 2)]),
           st.sampled_from([(True, True), (False, True), (True, False), (False, False)]))
    def test_loss_sum(self, seed, terms, pooled):
        # terms: the weighted terms present (1 contrastive, 2 bg); pooled:
        # whether each term's pool had rows, else it is the constant 0.0
        rng = np.random.default_rng(seed)
        values = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, size=3)
        gammas = rng.uniform(0.0, 2.0, size=3)

        def leaves():
            return [ad.Tensor(values[0], requires_grad=True)] + [
                ad.Tensor(values[t], requires_grad=True) if pooled[t - 1] else ad.Tensor(0.0)
                for t in terms]

        def weighted_terms(rest):
            return [(gammas[t], term) for t, term in zip(terms, rest)]

        got, want = node_and_chain(
            lambda first, *rest: losses._loss_sum(first, weighted_terms(rest)),
            lambda first, *rest: chains.chain_loss_sum(first, weighted_terms(rest)),
            leaves, rng.normal())
        assert got == want
        lone = ad.Tensor(1.0)
        assert losses._loss_sum(lone, []) is lone

    def test_self_weight_rejects_a_short_index(self):
        with pytest.raises(ad.ShapeError):
            losses.self_weight(ad.Tensor(np.ones((3, 2))), np.array([0, 0]))
        with pytest.raises(IndexError):
            losses.self_weight(ad.Tensor(np.ones((3, 2))), np.array([0, 3, 0]))

    def test_aggregate_rejects_zero_weight_sums(self):
        with pytest.raises(ValueError):
            losses.aggregate_video_feature(ad.Tensor(np.ones((3, 2))),
                                           ad.Tensor([[1.0], [0.0], [0.0]]), [1, 2])
        with pytest.raises(ad.ShapeError):
            losses.aggregate_video_feature(ad.Tensor(np.ones((3, 2))),
                                           ad.Tensor(np.ones((3, 2))), [1, 2])


def layer_nodes(rng):
    """{name: (builder of a scalar root over its leaves, leaf arrays)}: each
    loss layer node on its own, its output weighted by a fixed gradient."""
    lengths, index = [3, 1, 4], np.array([2, 2, 2, 3, 6, 4, 6, 6])
    g_w, g_f = rng.normal(size=(8, 1)), rng.normal(size=(3, 5))
    labels = rng.integers(0, 4, size=5)
    return {
        "self_weight": (lambda L: chains.weighted(losses.self_weight(L["f"], index), g_w),
                        {"f": 0.3 * rng.normal(size=(8, 5))}),
        "aggregate": (lambda L: chains.weighted(
            losses.aggregate_video_feature(L["f"], L["w"], lengths), g_f),
            {"w": rng.uniform(0.1, 1.0, size=(8, 1)), "f": rng.normal(size=(8, 5))}),
        "cross_entropy": (lambda L: losses._cross_entropy(L["x"], labels, L["w"], 3.0),
                          {"x": 0.3 * rng.normal(size=(5, 5)), "w": rng.normal(size=(4, 5))}),
        "attention": (lambda L: chains.weighted(
            model._attention_node(L["f"], L["h"], L["o"]), g_w),
            {"f": rng.normal(size=(8, 5)), "h": rng.normal(size=(3, 5)),
             "o": rng.normal(size=(1, 3))}),
        "loss_sum": (lambda L: losses._loss_sum(
            L["cls"], [(0.3, ad.Tensor(0.0)), (1.7, chains.reduce_sum(chains.square(L["bg"])))]),
            {"cls": rng.normal(size=()), "bg": rng.normal(size=(2, 3))}),
    }


LAYER_NODES = ["self_weight", "aggregate", "cross_entropy", "attention", "loss_sum"]


class TestLayerNodes:
    @pytest.mark.parametrize("name", LAYER_NODES)
    def test_grad_check(self, name):
        builder, arrays = layer_nodes(np.random.default_rng(4))[name]
        report = ad.grad_check(builder, arrays, h=1e-5, tol=1e-6)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("name", LAYER_NODES)
    def test_forward_after_a_change_equals_a_fresh_graph(self, name):
        rng = np.random.default_rng(5)
        builder, arrays = layer_nodes(rng)[name]
        leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        root = builder(leaves)
        for leaf in leaves.values():
            leaf.data += 0.1 * rng.normal(size=leaf.data.shape)
        ad.forward(root)
        ad.backward(root)
        fresh = {k: ad.Tensor(t.data, requires_grad=True) for k, t in leaves.items()}
        fresh_root = builder(fresh)
        ad.backward(fresh_root)
        assert root.data.tobytes() == fresh_root.data.tobytes()
        for k in leaves:
            assert leaves[k].grad.tobytes() == fresh[k].grad.tobytes(), k


class TestObjectiveAgainstChains:
    """`total_loss` built from the layer nodes equals it built from the
    primitive chains, bit for bit: loss, stats and every parameter gradient,
    on ragged batches with one-row videos and empty or one-row NBG pools."""

    @staticmethod
    def loss_and_grads(params, batch, cfg):
        leaves = copy_params(params)
        loss, stats = losses.total_loss(leaves, batch, cfg)
        ad.backward(loss)
        return (loss.data.tobytes(), {k: v for k, v in stats.items() if k != "labels"},
                {k: None if t.grad is None else t.grad.tobytes()
                 for k, t in leaves.tensors().items()})

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"bg{c.bg:d}sw{c.sw:d}cl{c.cl:d}")
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), video_lengths(12), st.sampled_from([-2.0, 0.3, 2.0]),
           st.integers(1, 8))
    def test_loss_stats_and_grads(self, cfg, seed, lengths, t_n, width):
        rng = np.random.default_rng(seed)
        params = model.init_params(n_classes=4, d_in=6, d=5, kernel_width=width, seed=seed)
        batch = [losses.BatchVideo(features=rng.normal(size=(t, 6)), label=int(rng.integers(4)))
                 for t in lengths]
        cfg = dataclasses.replace(cfg, t_n=t_n)
        got = self.loss_and_grads(params, batch, cfg)
        with pytest.MonkeyPatch.context() as patch:
            chains.install(patch)
            want = self.loss_and_grads(params, batch, cfg)
        assert got == want

    def test_chains_rebuild_the_primitive_graph(self, monkeypatch):
        # the oracle objective is the graph the nodes replaced: 50 nodes
        chains.install(monkeypatch)
        params, batch = make_fixture(seed=8, B=16, T=20, d_in=32, d=64, n_classes=20)
        loss, _ = losses.total_loss(params, batch, losses.LossConfig(t_n=2.0))
        assert TestTotalLoss.graph_size(loss) == 50
