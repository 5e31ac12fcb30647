"""Gradient correctness for every primitive, checked against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewvid import autodiff as ad


def numeric_grad(build, params, h=1e-6):
    """Central-difference gradient oracle, independent of the library path.

    build maps {name: ndarray} to a float; differentiates by re-calling it.
    """
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = build({k: v for k, v in params.items()})
            flat[i] = keep - h
            lo = build({k: v for k, v in params.items()})
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def analytic_grad(expr, leaves):
    root = expr(leaves)
    ad.backward(root)
    return {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for name, leaf in leaves.items()}


def assert_matches_numeric(expr_t, expr_np, arrays, tol=1e-6):
    leaves = {k: ad.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    got = analytic_grad(expr_t, leaves)
    want = numeric_grad(lambda p: float(expr_np(p)), {k: v.copy() for k, v in arrays.items()})
    for name in arrays:
        np.testing.assert_allclose(got[name], want[name], rtol=tol, atol=tol)


RNG = np.random.default_rng(7)


class TestElementwise:
    def test_add_sub_mul_div(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
        assert_matches_numeric(
            lambda L: ((L["a"] + L["b"]) * L["a"] - L["b"] / L["a"].max()).sum(),
            lambda p: np.sum((p["a"] + p["b"]) * p["a"] - p["b"] / np.max(p["a"])),
            {"a": a + 2.0, "b": b},
        )

    def test_scalar_broadcast(self):
        a = RNG.normal(size=(2, 5))
        assert_matches_numeric(
            lambda L: (L["a"] * L["s"] + L["s"]).sum(),
            lambda p: np.sum(p["a"] * p["s"] + p["s"]),
            {"a": a, "s": np.array(1.7)},
        )

    def test_column_broadcast(self):
        a = RNG.normal(size=(4, 3))
        c = RNG.normal(size=(4, 1)) + 3.0
        assert_matches_numeric(
            lambda L: ad.square(L["a"] * L["c"] - L["a"] / L["c"] + L["c"]).sum(),
            lambda p: np.sum((p["a"] * p["c"] - p["a"] / p["c"] + p["c"]) ** 2),
            {"a": a, "c": c},
        )

    def test_unary_chain(self):
        a = RNG.uniform(0.5, 2.0, size=(4, 3))
        assert_matches_numeric(
            lambda L: (ad.log(L["a"]) + ad.sigmoid(L["a"])
                       + ad.relu(L["a"] - 1.0) + ad.square(L["a"])).sum(),
            lambda p: np.sum(np.log(p["a"]) + 1.0 / (1.0 + np.exp(-p["a"]))
                             + np.maximum(p["a"] - 1.0, 0.0) + p["a"] ** 2),
            {"a": a},
        )

    def test_quadratic_is_exact(self):
        # d/dx sum(x^2) = 2x has no truncation error to speak of
        x = RNG.normal(size=(5,))
        leaf = ad.Tensor(x, requires_grad=True)
        ad.backward(ad.square(leaf).sum())
        np.testing.assert_allclose(leaf.grad, 2.0 * x, rtol=1e-8, atol=1e-8)


class TestMatmulAndShaping:
    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        assert_matches_numeric(
            lambda L: (L["a"] @ L["b"]).sum(),
            lambda p: np.sum(p["a"] @ p["b"]),
            {"a": a, "b": b},
        )

    def test_transpose(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 3))
        assert_matches_numeric(
            lambda L: (L["a"].T @ L["b"]).sum(),
            lambda p: np.sum(p["a"].T @ p["b"]),
            {"a": a, "b": b},
        )

    def test_concat_rows(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(4, 3))
        assert_matches_numeric(
            lambda L: ad.square(ad.concat_rows([L["a"], L["b"]])).sum(),
            lambda p: np.sum(np.concatenate([p["a"], p["b"]], axis=0) ** 2),
            {"a": a, "b": b},
        )

    def test_take_rows_picks_and_scatters(self):
        m = RNG.normal(size=(4, 3))
        index = [2, 0, 2, 3, 2]
        np.testing.assert_array_equal(ad.take_rows(ad.Tensor(m), index).data, m[index])
        assert_matches_numeric(
            lambda L: ad.square(ad.take_rows(L["m"], index) * L["w"]).sum(),
            lambda p: np.sum((p["m"][index] * p["w"]) ** 2),
            {"m": m, "w": RNG.normal(size=(5, 3))},
        )

    def test_take_rows_rejects_bad_index(self):
        m = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError):
            ad.take_rows(m, [0, 3])
        with pytest.raises(IndexError):
            ad.take_rows(m, [-1])
        with pytest.raises(ad.ShapeError):
            ad.take_rows(m, [[0]])

    def test_take_per_row_picks_and_scatters(self):
        m = RNG.normal(size=(4, 3))
        cols = [2, 0, 2, 1]
        np.testing.assert_array_equal(ad.take_per_row(ad.Tensor(m), cols).data,
                                      m[np.arange(4), cols])
        report = ad.grad_check(
            lambda L: (ad.take_per_row(L["m"], cols) * L["w"]).sum(),
            {"m": m, "w": RNG.normal(size=4)})
        assert report.passed, report.summary()
        leaf = ad.Tensor(m, requires_grad=True)
        ad.backward(ad.take_per_row(leaf, cols).sum())
        want = np.zeros((4, 3))
        want[np.arange(4), cols] = 1.0
        np.testing.assert_array_equal(leaf.grad, want)

    def test_take_per_row_rejects_bad_cols(self):
        m = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError):
            ad.take_per_row(m, [0, 2, 1])
        with pytest.raises(IndexError):
            ad.take_per_row(m, [0, -1, 1])
        with pytest.raises(ad.ShapeError):
            ad.take_per_row(m, [0, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 60), st.integers(1, 5))
    def test_take_rows_backward_matches_add_at(self, seed, rows, n, d):
        # reduceat gives each source row its first gradient row plus the sum
        # of the rest, where np.add.at adds them one by one: equal bits up to
        # two repeats, and within rounding beyond
        rng = np.random.default_rng(seed)
        index = rng.integers(0, rows, size=n)
        g = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        leaf = ad.Tensor(rng.normal(size=(rows, d)), requires_grad=True)
        out = ad.take_rows(leaf, index)
        ad.backward((out * ad.Tensor(g)).sum())
        want = np.zeros((rows, d))
        np.add.at(want, index, g)
        if n == 0 or np.bincount(index).max() <= 2:
            np.testing.assert_array_equal(leaf.grad, want)
        else:
            np.testing.assert_allclose(leaf.grad, want, rtol=0,
                                       atol=1e-13 * np.abs(g).sum())

    def test_segment_sum(self):
        a = RNG.normal(size=(6, 3))
        lengths = [2, 1, 3]
        got = ad.segment_sum(ad.Tensor(a), lengths).data
        np.testing.assert_allclose(got, [a[:2].sum(0), a[2], a[3:].sum(0)], rtol=1e-15)
        assert_matches_numeric(
            lambda L: ad.square(ad.segment_sum(L["a"], lengths) * L["w"]).sum(),
            lambda p: np.sum((np.stack([p["a"][:2].sum(0), p["a"][2], p["a"][3:].sum(0)])
                              * p["w"]) ** 2),
            {"a": a, "w": RNG.normal(size=(3, 3))},
        )

    @pytest.mark.parametrize("lengths", [[2, 3], [1, 0, 5], [7], [], [[6]]])
    def test_segment_sum_rejects_bad_lengths(self, lengths):
        with pytest.raises(ad.ShapeError):
            ad.segment_sum(ad.Tensor(np.ones((6, 2))), lengths)


class TestNormalizeAndSoftmax:
    def test_l2_normalize_rows(self):
        a = RNG.normal(size=(4, 6))
        assert_matches_numeric(
            lambda L: (ad.l2_normalize_rows(L["a"]) * L["w"]).sum(),
            lambda p: np.sum(p["a"] / (np.linalg.norm(p["a"], axis=1, keepdims=True) + 1e-12) * p["w"]),
            {"a": a, "w": RNG.normal(size=(4, 6))},
        )

    def test_l2_normalize_zero_row(self):
        a = np.zeros((2, 3))
        a[1] = [3.0, 0.0, 4.0]
        leaf = ad.Tensor(a, requires_grad=True)
        out = ad.l2_normalize_rows(leaf)
        np.testing.assert_array_equal(out.data[0], 0.0)
        ad.backward(out.sum())
        np.testing.assert_array_equal(leaf.grad[0], 0.0)
        assert np.all(np.isfinite(leaf.grad))

    def test_softmax_rows_sum_to_one(self):
        a = RNG.normal(size=(5, 7)) * 30.0  # large logits must not overflow
        s = ad.softmax(ad.Tensor(a))
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-10)

    def test_softmax_grad(self):
        a = RNG.normal(size=(3, 5))
        w = RNG.normal(size=(3, 5))

        def np_softmax(x):
            e = np.exp(x - x.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        assert_matches_numeric(
            lambda L: (ad.softmax(L["a"]) * L["w"]).sum(),
            lambda p: np.sum(np_softmax(p["a"]) * p["w"]),
            {"a": a, "w": w},
        )

    def test_unit_rows_distance_identity(self):
        # for unit vectors, |u - v|^2 == 2 - 2 cos(u, v)
        u = RNG.normal(size=(1, 8))
        v = RNG.normal(size=(1, 8))
        un = ad.l2_normalize_rows(ad.Tensor(u))
        vn = ad.l2_normalize_rows(ad.Tensor(v))
        dist2 = ad.square(un - vn).sum()
        cos = (un * vn).sum()
        assert abs(float(dist2.data) - (2.0 - 2.0 * float(cos.data))) < 1e-10


class TestReductions:
    def test_sum_mean_axes(self):
        a = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(3, 4))
        for axis in (None, 0, 1):
            assert_matches_numeric(
                lambda L, ax=axis: ad.square(L["a"].mean(ax)).sum() + L["a"].sum(ax).sum(),
                lambda p, ax=axis: np.sum(np.mean(p["a"], axis=ax) ** 2) + np.sum(p["a"]),
                {"a": a},
            )
            # keepdims keeps the reduced axis, so the result broadcasts back
            assert_matches_numeric(
                lambda L, ax=axis: ad.square(L["a"].sum(ax, keepdims=True) * w).sum(),
                lambda p, ax=axis: np.sum((np.sum(p["a"], axis=ax, keepdims=True) * w) ** 2),
                {"a": a},
            )

    def test_max_min_grad(self):
        a = RNG.normal(size=(4, 5))
        for axis in (None, 0, 1):
            assert_matches_numeric(
                lambda L, ax=axis: (L["a"].max(ax) - L["a"].min(ax)).sum(),
                lambda p, ax=axis: np.sum(np.max(p["a"], axis=ax) - np.min(p["a"], axis=ax)),
                {"a": a},
            )

    def test_max_tie_goes_to_first_index(self):
        a = np.array([[1.0, 3.0, 3.0, 0.0]])
        leaf = ad.Tensor(a, requires_grad=True)
        ad.backward(leaf.max())
        np.testing.assert_array_equal(leaf.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_min_tie_goes_to_first_index(self):
        a = np.array([[2.0, -1.0], [-1.0, 5.0]])
        leaf = ad.Tensor(a, requires_grad=True)
        ad.backward(leaf.min())
        np.testing.assert_array_equal(leaf.grad, [[0.0, 1.0], [0.0, 0.0]])


class TestConv:
    def test_identity_kernel(self):
        x = RNG.normal(size=(9, 3))
        w = 4
        k = np.zeros((3, w))
        k[:, (w - 1) // 2] = 1.0  # delta at the center tap
        out = ad.depthwise_conv1d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_conv_grad(self):
        x = RNG.normal(size=(7, 2))
        k = RNG.normal(size=(2, 4))

        def np_conv(xv, kv):
            w = kv.shape[1]
            pl = (w - 1) // 2
            xp = np.pad(xv, ((pl, w - 1 - pl), (0, 0)))
            out = np.zeros_like(xv)
            for j in range(w):
                out += xp[j : j + xv.shape[0]] * kv[:, j]
            return out

        assert_matches_numeric(
            lambda L: ad.square(ad.depthwise_conv1d(L["x"], L["k"])).sum(),
            lambda p: np.sum(np_conv(p["x"], p["k"]) ** 2),
            {"x": x, "k": k},
        )


    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 24), min_size=1, max_size=6),
           st.integers(1, 9), st.integers(1, 4))
    def test_per_video_padding_equals_per_video_calls(self, seed, lengths, w, d):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(t, d)) for t in lengths]
        ws = [rng.normal(size=(t, d)) for t in lengths]
        k = rng.normal(size=(d, w))

        x = ad.Tensor(np.concatenate(xs), requires_grad=True)
        kernel = ad.Tensor(k, requires_grad=True)
        out = ad.depthwise_conv1d(x, kernel, lengths)
        ad.backward((out * ad.Tensor(np.concatenate(ws))).sum())
        np.testing.assert_array_equal(
            out.data, np.concatenate([ad.depthwise_conv1d_forward(xv, k) for xv in xs]))
        np.testing.assert_array_equal(
            ad.depthwise_conv1d_forward(np.concatenate(xs), k, lengths), out.data)

        x_grads, k_grad = [], np.zeros_like(k)
        for xv, wv in zip(xs, ws):
            leaf = ad.Tensor(xv, requires_grad=True)
            kleaf = ad.Tensor(k, requires_grad=True)
            one = ad.depthwise_conv1d(leaf, kleaf)
            np.testing.assert_array_equal(one.data, ad.depthwise_conv1d_forward(xv, k))
            ad.backward((one * ad.Tensor(wv)).sum())
            x_grads.append(leaf.grad)
            k_grad += kleaf.grad
        # input rows see the same taps in the same order; the kernel gradient
        # is one sum over the batch instead of a sum of per-video sums
        np.testing.assert_array_equal(x.grad, np.concatenate(x_grads))
        np.testing.assert_allclose(kernel.grad, k_grad, rtol=1e-12, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 24), min_size=1, max_size=6),
           st.integers(1, 9), st.integers(1, 5))
    def test_matches_gapped_sweep(self, seed, lengths, w, d):
        """Bit for bit against one sweep over a stack whose videos sit
        w - 1 zero rows apart, each tap added in order j = 0..w-1."""
        rng = np.random.default_rng(seed)
        xv, g = rng.normal(size=(2, sum(lengths), d))
        k = rng.normal(size=(d, w))
        pad = (w - 1) // 2
        rows = np.arange(xv.shape[0]) + (w - 1) * np.repeat(np.arange(len(lengths)), lengths)
        xp = np.zeros((xv.shape[0] + len(lengths) * (w - 1), d))
        xp[rows + pad] = xv
        sweep = xp.shape[0] - (w - 1)
        want_out, gs = np.zeros((sweep, d)), np.zeros((sweep, d))
        gs[rows] = g
        want_gxp, want_gk = np.zeros_like(xp), np.zeros_like(k)
        for j in range(w):
            want_out += xp[j : j + sweep] * k[:, j]
            want_gxp[j : j + sweep] += gs * k[:, j]
            want_gk[:, j] = np.sum(gs * xp[j : j + sweep], axis=0)

        x, kernel = ad.Tensor(xv, requires_grad=True), ad.Tensor(k, requires_grad=True)
        out = ad.depthwise_conv1d(x, kernel, lengths)
        ad.backward((out * ad.Tensor(g)).sum())
        assert out.data.tobytes() == want_out[rows].tobytes()
        assert x.grad.tobytes() == want_gxp[rows + pad].tobytes()
        if d > 1:
            assert kernel.grad.tobytes() == want_gk.tobytes()
        else:  # NumPy sums a single column pairwise, so its zero terms move the rounding
            np.testing.assert_allclose(kernel.grad, want_gk, rtol=1e-12, atol=1e-12)

    def test_forward_refreshes_what_backward_reuses(self):
        rng = np.random.default_rng(5)
        lengths = [4, 6, 1]
        x = ad.Tensor(rng.normal(size=(11, 3)), requires_grad=True)
        kernel = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        root = ad.square(ad.depthwise_conv1d(x, kernel, lengths)).sum()
        x.data[:] = rng.normal(size=(11, 3))  # a new input under the built graph
        ad.forward(root)
        ad.backward(root)

        x2, kernel2 = (ad.Tensor(t.data, requires_grad=True) for t in (x, kernel))
        ad.backward(ad.square(ad.depthwise_conv1d(x2, kernel2, lengths)).sum())
        np.testing.assert_array_equal(x.grad, x2.grad)
        np.testing.assert_array_equal(kernel.grad, kernel2.grad)

    @pytest.mark.parametrize("lengths", [[3, 3], [7, 0], [], [[7]]])
    def test_rejects_bad_lengths(self, lengths):
        with pytest.raises(ad.ShapeError):
            ad.depthwise_conv1d(ad.Tensor(np.ones((7, 2))), ad.Tensor(np.ones((2, 3))), lengths)


class TestGraphMechanics:
    def test_forward_recomputes_after_leaf_change(self):
        leaf = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        out = ad.square(leaf).sum()
        assert float(out.data) == 5.0
        leaf.data[0, 0] = 3.0
        assert float(ad.forward(out).data) == 13.0

    def test_reused_node_gradient_accumulates(self):
        # y = x*x via sharing one node twice: dy/dx = 2x
        leaf = ad.Tensor(np.array(3.0), requires_grad=True)
        y = leaf * leaf
        ad.backward(y)
        assert float(leaf.grad) == 6.0

    def test_shared_output_gradient_gives_independent_grads(self):
        # add hands its own output gradient to both inputs: each leaf must get
        # a private copy, and x + x must sum its two halves into one
        w = ad.Tensor([[5.0, 7.0]])
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[3.0, 4.0]], requires_grad=True)
        ad.backward(((a + b) * w).sum())
        assert a.grad.tolist() == b.grad.tolist() == [[5.0, 7.0]]
        a.grad[0, 0] = -1.0
        assert b.grad.tolist() == [[5.0, 7.0]]
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        s = x + x
        ad.backward((s * w).sum())
        assert x.grad.tolist() == [[10.0, 14.0]]
        assert s.grad.tolist() == [[5.0, 7.0]] and not np.shares_memory(x.grad, s.grad)

    def test_first_gradient_is_never_another_nodes_array(self):
        # sub passes its own output gradient on to its first input, which
        # also gets a second gradient added in place
        w, v = ad.Tensor([[5.0, 7.0]]), ad.Tensor([[1.0, 10.0]])
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        s = x - ad.Tensor([[3.0, 4.0]], requires_grad=True)
        ad.backward((s * w).sum() + (x * v).sum())
        assert x.grad.tolist() == [[6.0, 17.0]] and s.grad.tolist() == [[5.0, 7.0]]
        assert not np.shares_memory(x.grad, s.grad)
        # a backward that returns one fresh array for both of its inputs
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[3.0, 4.0]], requires_grad=True)
        out = ad._node("twice", (a, b), lambda p, q: p + q, lambda g, o, p, q: (2.0 * g,) * 2)
        ad.backward((out * w).sum())
        assert a.grad.tolist() == b.grad.tolist() == [[10.0, 14.0]]
        assert not np.shares_memory(a.grad, b.grad)

    def test_diamond_graph_single_visit(self):
        x = ad.Tensor(np.array(2.0), requires_grad=True)
        a = x * 3.0
        y = a * a + a  # d/dx = 2*9x + 3 = 39 at x=2
        ad.backward(y)
        assert float(x.grad) == pytest.approx(39.0)

    def test_backward_rejects_nonscalar(self):
        leaf = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(leaf * 2.0)

    def test_no_grad_constant_stays_clean(self):
        c = ad.Tensor([[1.0, 2.0]])
        leaf = ad.Tensor([[3.0, 4.0]], requires_grad=True)
        ad.backward((c * leaf).sum())
        assert c.grad is None
        np.testing.assert_array_equal(leaf.grad, [[1.0, 2.0]])

    def test_repeat_evaluation_is_bit_identical(self):
        x = RNG.normal(size=(6, 4))
        leaf = ad.Tensor(x, requires_grad=True)
        out = ad.softmax(ad.l2_normalize_rows(leaf) @ ad.Tensor(RNG.normal(size=(4, 3)))).sum()
        first = out.data.copy()
        for _ in range(3):
            ad.forward(out)
            assert out.data.tobytes() == first.tobytes()


class TestShapeErrors:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2)))),
            lambda: ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3)))),
            lambda: ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2)))),
            lambda: ad.depthwise_conv1d(ad.Tensor(np.ones((5, 3))), ad.Tensor(np.ones((4, 2)))),
            lambda: ad.concat_rows([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4)))]),
            lambda: ad.l2_normalize_rows(ad.Tensor(np.ones(4))),
        ],
    )
    def test_mismatch_raises_with_shapes(self, build):
        with pytest.raises(ad.ShapeError) as err:
            build()
        assert err.value.op
        assert "(" in str(err.value)  # message carries the offending shapes


class TestGradCheckHarness:
    def test_passes_on_clean_graph(self):
        def builder(L):
            z = ad.l2_normalize_rows(L["a"]) @ L["b"]
            return ad.softmax(z).max() + ad.square(z).mean()

        report = ad.grad_check(
            builder,
            {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(4, 5))},
            h=1e-5,
            tol=1e-6,
        )
        assert report.passed, report.summary()
        assert set(report.per_param) == {"a", "b"}
        assert "PASS" in report.summary()

    def test_detects_corrupted_backward(self):
        def builder(L):
            out = ad.square(L["a"])
            # sabotage: bias the adjoint the way a wrong formula would
            good = out._bwd
            out._bwd = lambda g, o, x: (good(g, o, x)[0] + 0.1,)
            return out.sum()

        report = ad.grad_check(builder, {"a": RNG.normal(size=(2, 3))}, tol=1e-4)
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_restores_leaf_values(self):
        a = RNG.normal(size=(2, 2))
        leaves_seen = {}

        def builder(L):
            leaves_seen.update(L)
            return ad.square(L["a"]).sum()

        ad.grad_check(builder, {"a": a})
        np.testing.assert_array_equal(leaves_seen["a"].data, a)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_chain_grads_match_numeric(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    w = rng.normal(size=(cols, 3))

    def expr_t(L):
        return (ad.softmax(ad.l2_normalize_rows(L["a"]) @ L["w"]).max(1)).mean()

    def expr_np(p):
        n = p["a"] / (np.linalg.norm(p["a"], axis=1, keepdims=True) + 1e-12)
        z = n @ p["w"]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        return np.mean(np.max(s, axis=1))

    assert_matches_numeric(expr_t, expr_np, {"a": a, "w": w}, tol=1e-5)
