"""Loss values against closed forms and an independent numpy reimplementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewvid import autodiff as ad
from fewvid import losses, model, pseudo


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def rows(*vs):
    return ad.Tensor(np.array([unit(v) for v in vs]))


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

    def test_video_feature_renormalized(self):
        F = ad.Tensor(np.array([[3.0, 0.0]]))  # deliberately not unit norm
        loss = losses.soft_cls_loss(F, 0, rows([1, 0], [0, 1]))
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)


class TestBgCls:
    def test_nbg_on_its_row(self):
        classifier = rows([1, 0], [0, 1])  # last row is the background row
        loss = losses.bg_cls_loss([ad.Tensor(np.array([[0.0, 1.0]]))], classifier)
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)

    def test_uniform_three_rows(self):
        classifier = rows([1, 0, 0], [0, 1, 0], [0, 0, 1])
        feat = ad.Tensor(unit([1, 1, 1])[None, :])
        loss = losses.bg_cls_loss([feat], classifier)
        assert float(loss.data) == pytest.approx(np.log(3.0), rel=1e-9)

    def test_empty_batch_is_zero(self):
        assert float(losses.bg_cls_loss([], rows([1, 0], [0, 1])).data) == 0.0

    def test_averages_over_segments(self):
        classifier = rows([1, 0], [0, 1])
        a = ad.Tensor(np.array([[0.0, 1.0]]))
        b = ad.Tensor(np.array([[1.0, 0.0]]))
        both = losses.bg_cls_loss([a, b], classifier)
        la = losses.bg_cls_loss([a], classifier)
        lb = losses.bg_cls_loss([b], classifier)
        assert float(both.data) == pytest.approx((float(la.data) + float(lb.data)) / 2.0, rel=1e-12)


class TestContrastive:
    def test_reference_fixture(self):
        nbg = [ad.Tensor([[1.0, 0.0]]), ad.Tensor([[0.0, 1.0]])]
        fgibg = [ad.Tensor([[1.0, 0.0]])]
        loss = losses.contrastive_loss(nbg, fgibg)
        assert abs(float(loss.data) - 4.0) < 1e-9

    def test_margin_exactly_met(self):
        nbg = [ad.Tensor([[1.0, 0.0]]), ad.Tensor([[1.0, 0.0]])]
        fgibg = [ad.Tensor([[0.0, 1.0]])]
        assert float(losses.contrastive_loss(nbg, fgibg).data) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_nbg(self):
        nbg = [ad.Tensor([[1.0, 0.0]]), ad.Tensor([[-1.0, 0.0]])]
        loss = losses.contrastive_loss(nbg, [])
        assert float(loss.data) == pytest.approx(4.0, abs=1e-12)

    def test_single_nbg_only_hinge(self):
        nbg = [ad.Tensor([[1.0, 0.0]])]
        fgibg = [ad.Tensor([[1.0, 0.0]])]
        assert float(losses.contrastive_loss(nbg, fgibg).data) == pytest.approx(2.0, abs=1e-12)

    def test_empty_pools_give_zero(self):
        assert float(losses.contrastive_loss([], []).data) == 0.0
        assert float(losses.contrastive_loss([], [ad.Tensor([[1.0, 0.0]])]).data) == 0.0

    def test_beta_scales_hinge(self):
        nbg = [ad.Tensor([[1.0, 0.0]]), ad.Tensor([[0.0, 1.0]])]
        fgibg = [ad.Tensor([[1.0, 0.0]])]
        cfg = losses.LossConfig(beta=0.5)
        assert float(losses.contrastive_loss(nbg, fgibg, cfg).data) == pytest.approx(3.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 6))
    def test_nonnegative_and_hinge_cutoff(self, seed, n_nbg, n_fg):
        rng = np.random.default_rng(seed)
        nbg = [ad.Tensor(unit(rng.normal(size=4))[None, :]) for _ in range(n_nbg)]
        fg = [ad.Tensor(unit(rng.normal(size=4))[None, :]) for _ in range(n_fg)]
        cfg = losses.LossConfig()
        total = float(losses.contrastive_loss(nbg, fg, cfg).data)
        assert total >= 0.0
        nb = np.concatenate([t.data for t in nbg])
        fgm = np.concatenate([t.data for t in fg])
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
        terms.append(ad.square(ad.take_rows(nb, first) - ad.take_rows(nb, second))
                     .sum(axis=1).max())
    if nb.data.shape[0] and fg.data.shape[0]:
        n_fg, n_nb = fg.data.shape[0], nb.data.shape[0]
        cross = (ad.take_rows(fg, np.repeat(np.arange(n_fg), n_nb))
                 - ad.take_rows(nb, np.tile(np.arange(n_nb), n_fg)))
        terms.append(cfg.beta * ad.relu(cfg.margin - ad.square(cross).sum(axis=1).min()))
    total = ad.Tensor(0.0)
    for i, t in enumerate(terms):
        total = t if i == 0 else total + t
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

def make_fixture(seed=0, B=2, T=8, d_in=8, d=8, n_classes=3):
    rng = np.random.default_rng(seed)
    params = model.init_params(n_classes=n_classes, d_in=d_in, d=d, seed=seed)
    batch = [
        losses.BatchVideo(features=rng.normal(size=(T, d_in)), label=int(rng.integers(n_classes)))
        for _ in range(B)
    ]
    return params, batch


def straight_line_total_loss(arrays, batch, cfg, t_n=0.25, top_m=None):
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
        M = top_m if top_m is not None else max(2, -(-T // 8))
        M = min(M, T - 1)
        keep = [int(i) for i in np.argsort(-maxl, kind="stable") if int(i) != i_bg][:M]

        sw = 1.0 / (1.0 + np.exp(-cfg.tau_s * (1.0 - cfg.c - f @ f[i_bg])))
        F = (sw[:, None] * f).sum(axis=0) / sw.sum()
        Fn = F / (np.linalg.norm(F) + 1e-12)
        probs = softmax_rows(cfg.tau * (W @ Fn))
        cls_losses.append(-np.log(probs[label]))

        if maxl[i_bg] < t_n:
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
            cfg = losses.LossConfig()
            # nudge the threshold so some videos land in the NBG pool
            loss, stats = losses.total_loss(params, batch, cfg, t_n=0.6)
            arrays = {k: t.data for k, t in params.tensors().items()}
            want = straight_line_total_loss(
                arrays, [(v.features, v.label) for v in batch], cfg, t_n=0.6)
            assert float(loss.data) == pytest.approx(want, rel=1e-9)

    def test_stats_reflect_terms(self):
        params, batch = make_fixture(seed=2)
        cfg = losses.LossConfig()
        loss, stats = losses.total_loss(params, batch, cfg, t_n=0.9)
        assert stats["n_nbg"] == np.count_nonzero(stats["labels"].is_nbg)
        want = stats["l_cls"] + cfg.gamma1 * stats["l_contrast"] + cfg.gamma2 * stats["l_bg"]
        assert stats["l_total"] == pytest.approx(want, rel=1e-12)

    def test_bg_off_drops_row_and_term(self):
        params, batch = make_fixture(seed=3)
        cfg = losses.LossConfig(bg=False, cl=False)
        loss, stats = losses.total_loss(params, batch, cfg, t_n=0.9)
        assert stats["l_bg"] == 0.0
        assert stats["l_contrast"] == 0.0

    def test_sw_off_uses_attention_net(self):
        params, batch = make_fixture(seed=4)
        with_sw, _ = losses.total_loss(params, batch, losses.LossConfig(sw=True))
        without, _ = losses.total_loss(params, batch, losses.LossConfig(sw=False))
        assert float(with_sw.data) != pytest.approx(float(without.data))

    def test_gradients_match_finite_differences(self):
        params, batch = make_fixture(seed=6, B=2, T=6, d_in=6, d=6)
        cfg = losses.LossConfig()

        def builder(leaves):
            p = model.ModelParams(**leaves)
            loss, _ = losses.total_loss(p, batch, cfg, t_n=0.5)
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
        losses.total_loss(params, batch, t_n=0.5)
        assert rows_labeled == [31]


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
                float(losses.bg_cls_loss([ad.Tensor(fv[:1]), ad.Tensor(fv[1:2])], wt, cfg).data),
                float(losses.contrastive_loss(
                    [ad.Tensor(fv[:1]), ad.Tensor(fv[1:2])], [ad.Tensor(fv[2:3])], cfg).data),
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
    probs = ad.softmax(cfg.tau * (ad.l2_normalize_rows(F) @ classifier.T))
    pick = np.zeros((1, classifier.data.shape[0]))
    pick[0, y] = 1.0
    return -ad.log((probs * ad.Tensor(pick)).sum())


def _oracle_bg_cls(nbg_feats, classifier, cfg):
    if not nbg_feats:
        return ad.Tensor(0.0)
    rows = ad.concat_rows(nbg_feats)
    n_rows = classifier.data.shape[0]
    probs = ad.softmax(cfg.tau * (rows @ classifier.T))
    pick = np.zeros((len(nbg_feats), n_rows))
    pick[:, n_rows - 1] = 1.0
    return -(ad.log((probs * ad.Tensor(pick)).sum(axis=1))).mean()


def _oracle_contrastive(nbg_feats, fgibg_feats, cfg):
    terms = []
    if len(nbg_feats) >= 2:
        stack = ad.concat_rows(nbg_feats)
        diffs = ad.Tensor(_oracle_pair_diff_matrix(len(nbg_feats))) @ stack
        terms.append(ad.square(diffs).sum(axis=1).max())
    if nbg_feats and fgibg_feats:
        fg = ad.concat_rows(fgibg_feats)
        nb = ad.concat_rows(nbg_feats)
        ra, rb = _oracle_cross_diff_matrices(fg.data.shape[0], nb.data.shape[0])
        cross = ad.Tensor(ra) @ fg - ad.Tensor(rb) @ nb
        closest = ad.square(cross).sum(axis=1).min()
        terms.append(cfg.beta * ad.relu(cfg.margin - closest))
    if not terms:
        return ad.Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def per_video_total_loss(params, batch, cfg, t_n=0.25, top_m=None):
    n = params.n_classes
    cls_terms, nbg_pool, fgibg_pool, records = [], [], [], []
    start = 0
    for video in batch:
        x = ad.Tensor(video.features)
        f = ad.l2_normalize_rows(ad.depthwise_conv1d(x @ params.transform.T,
                                                     params.temporal_kernel))
        class_rows = ad.Tensor(np.eye(n + 1)[:n]) @ params.classifier
        base_logits = f @ class_rows.T
        T = f.data.shape[0]
        rec = pseudo.pseudo_label_video(base_logits.data, [T], t_n=t_n, M=top_m)
        i_bg, is_nbg, fg_ibg = int(rec.bg_rows[0]), bool(rec.is_nbg[0]), rec.fg_rows.tolist()
        # this video's labels in batch-row coordinates
        records.append((start + i_bg, is_nbg, [start + i for i in fg_ibg], rec.max_logits))
        start += T
        if cfg.sw:
            cos = f @ (_oracle_one_hot_row(i_bg, f.data.shape[0]) @ f).T
            weights = ad.sigmoid(cfg.tau_s * ((1.0 - cfg.c) - cos))
        else:
            hidden = ad.relu(f @ params.attn_hidden.T)
            weights = ad.sigmoid(hidden @ params.attn_out.T)
        F = (weights.T @ f) / weights.sum()
        head = params.classifier if cfg.bg else ad.Tensor(np.eye(n + 1)[:n]) @ params.classifier
        cls_terms.append(_oracle_soft_cls(F, video.label, head, cfg))
        if is_nbg:
            nbg_pool.append(_oracle_one_hot_row(i_bg, f.data.shape[0]) @ f)
        if fg_ibg:
            sel = np.zeros((len(fg_ibg), f.data.shape[0]))
            for r, idx in enumerate(fg_ibg):
                sel[r, idx] = 1.0
            fgibg_pool.append(ad.Tensor(sel) @ f)
    l_cls = cls_terms[0]
    for t in cls_terms[1:]:
        l_cls = l_cls + t
    loss = l_cls / float(len(cls_terms))
    if cfg.cl:
        loss = loss + cfg.gamma1 * _oracle_contrastive(nbg_pool, fgibg_pool, cfg)
    if cfg.bg:
        loss = loss + cfg.gamma2 * _oracle_bg_cls(nbg_pool, params.classifier, cfg)
    return loss, len(nbg_pool), records


def loss_and_grads(build, params):
    leaves = params.copy()
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
           st.sampled_from([-2.0, 0.3, 0.5, 2.0]), st.sampled_from([None, 1, 3]),
           st.integers(1, 9))
    def test_loss_grads_and_decisions(self, cfg, seed, lengths, t_n, top_m, width):
        # t_n -2 flags no video as NBG and 2 flags every video
        rng = np.random.default_rng(seed)
        params = model.init_params(n_classes=4, d_in=6, d=5, kernel_width=width, seed=seed)
        batch = [losses.BatchVideo(features=rng.normal(size=(t, 6)), label=int(rng.integers(4)))
                 for t in lengths]
        kwargs = dict(t_n=t_n, top_m=top_m)

        def batched(p):
            loss, stats = losses.total_loss(p, batch, cfg, **kwargs)
            return loss, stats["n_nbg"], stats["labels"]

        want, want_grads, (want_nbg, want_recs) = loss_and_grads(
            lambda p: per_video_total_loss(p, batch, cfg, **kwargs), params)
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
