"""Gradient correctness of the engine, its graph ops and plain-array helpers,
and of the oracle primitives in `primitive_chains`, checked against central
differences."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import primitive_chains as pc
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
            lambda L: pc.reduce_sum(pc.sub(pc.mul(pc.add(L["a"], L["b"]), L["a"]),
                                           pc.div(L["b"], pc.reduce_max(L["a"])))),
            lambda p: np.sum((p["a"] + p["b"]) * p["a"] - p["b"] / np.max(p["a"])),
            {"a": a + 2.0, "b": b},
        )

    def test_scalar_broadcast(self):
        a = RNG.normal(size=(2, 5))
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.add(pc.mul(L["a"], L["s"]), L["s"])),
            lambda p: np.sum(p["a"] * p["s"] + p["s"]),
            {"a": a, "s": np.array(1.7)},
        )

    def test_column_broadcast(self):
        a = RNG.normal(size=(4, 3))
        c = RNG.normal(size=(4, 1)) + 3.0
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.square(pc.add(
                pc.sub(pc.mul(L["a"], L["c"]), pc.div(L["a"], L["c"])), L["c"]))),
            lambda p: np.sum((p["a"] * p["c"] - p["a"] / p["c"] + p["c"]) ** 2),
            {"a": a, "c": c},
        )

    def test_unary_chain(self):
        a = RNG.uniform(0.5, 2.0, size=(4, 3))
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.add(pc.add(pc.add(pc.log(L["a"]), pc.sigmoid(L["a"])),
                                                  pc.relu(pc.sub(L["a"], 1.0))),
                                           pc.square(L["a"]))),
            lambda p: np.sum(np.log(p["a"]) + 1.0 / (1.0 + np.exp(-p["a"]))
                             + np.maximum(p["a"] - 1.0, 0.0) + p["a"] ** 2),
            {"a": a},
        )

    def test_quadratic_is_exact(self):
        # d/dx sum(x^2) = 2x has no truncation error to speak of
        x = RNG.normal(size=(5,))
        leaf = ad.Tensor(x, requires_grad=True)
        ad.backward(pc.reduce_sum(pc.square(leaf)))
        np.testing.assert_allclose(leaf.grad, 2.0 * x, rtol=1e-8, atol=1e-8)


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                  2.2250738585072014e-308, 709.8, -709.8, 745.2, -745.2, 746.0, -746.0, 1e300,
                  -1e300]
QUIET_BIT = np.uint64(1 << 51)
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0xFFF8000000000123, 0x7FF8DEAD00000000,
            0x7FF0000000000001, 0xFFF0000000000101, 0x7FF4000000000000]  # quiet, then signalling
NANS = st.sampled_from(NAN_BITS).map(lambda bits: np.uint64(bits).view(np.float64))


def sigmoid_masked(x):
    """The logistic function by boolean gathers and scatters: the form
    `sigmoid_forward` replaced, kept as its oracle for inputs other than NaN."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def check_sigmoid_contract(x):
    """`sigmoid_forward`'s contract under evaluation's error state, on any
    SIMD loop: a number or an infinity gives the masked form's bytes, a NaN
    gives that NaN with its quiet bit set, and it raises FloatingPointError
    exactly when x holds a signalling NaN."""
    nan = np.isnan(x)
    signalling = nan & ((x.view(np.uint64) & QUIET_BIT) == 0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        if signalling.any():
            with pytest.raises(FloatingPointError):
                ad.sigmoid_forward(x)
        want = sigmoid_masked(x[~nan])
        with np.errstate(invalid="ignore"):
            got = ad.sigmoid_forward(x)
    assert got.shape == x.shape
    assert got[~nan].tobytes() == want.tobytes()
    assert (got[nan].view(np.uint64) == x[nan].view(np.uint64) | QUIET_BIT).all()


class TestSigmoidKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from(SPECIAL_FLOATS), max_size=48),
           st.sampled_from([(-1,), (-1, 1), (1, -1, 1)]))
    def test_bytes_equal_masked_form(self, values, shape):
        # under evaluation's error state: neither form may raise where the other does not
        x = np.array(values, dtype=np.float64).reshape(shape)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ad.sigmoid_forward(x)
            want = sigmoid_masked(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | NANS, max_size=48),
           st.sampled_from([(-1,), (1, -1, 1)]))
    def test_nan_comes_back_quiet(self, values, shape):
        check_sigmoid_contract(np.array(values, dtype=np.float64).reshape(shape))

    def test_every_special_value(self):
        nans = np.array(NAN_BITS, dtype=np.uint64).view(np.float64)
        check_sigmoid_contract(np.array(SPECIAL_FLOATS))
        for size in (1, 7, 33):  # scalar, partial and whole SIMD lanes
            for nan in nans:
                x = np.resize(np.array(SPECIAL_FLOATS), size)
                x[size // 2] = nan
                check_sigmoid_contract(x)

    def test_contract_holds_on_avx2_loops(self):
        # NumPy picks its SIMD loops at import, so a fresh process takes the
        # AVX2 ones, and exp there raises for a signalling NaN
        script = ("import sys; sys.path[:0] = sys.argv[1:]\n"
                  "from hypothesis import settings\n"
                  "settings.register_profile('fresh', database=None)\n"
                  "settings.load_profile('fresh')\n"
                  "from test_autodiff import TestSigmoidKernel\n"
                  "for name in ('test_bytes_equal_masked_form', 'test_nan_comes_back_quiet',\n"
                  "             'test_every_special_value'):\n"
                  "    getattr(TestSigmoidKernel(), name)()\n")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        src = Path(ad.__file__).parents[1]
        run = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent), str(src)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr


class TestMatmulAndShaping:
    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.matmul(L["a"], L["b"])),
            lambda p: np.sum(p["a"] @ p["b"]),
            {"a": a, "b": b},
        )

    def test_transpose(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 3))
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.matmul(pc.transpose(L["a"]), L["b"])),
            lambda p: np.sum(p["a"].T @ p["b"]),
            {"a": a, "b": b},
        )

    def test_concat_rows(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(4, 3))
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.square(pc.concat_rows([L["a"], L["b"]]))),
            lambda p: np.sum(np.concatenate([p["a"], p["b"]], axis=0) ** 2),
            {"a": a, "b": b},
        )

    def test_take_rows_picks_and_scatters(self):
        m = RNG.normal(size=(4, 3))
        index = [2, 0, 2, 3, 2]
        np.testing.assert_array_equal(ad.take_rows(ad.Tensor(m), index).data, m[index])
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.square(pc.mul(ad.take_rows(L["m"], index), L["w"]))),
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
        np.testing.assert_array_equal(pc.take_per_row(ad.Tensor(m), cols).data,
                                      m[np.arange(4), cols])
        report = ad.grad_check(
            lambda L: pc.reduce_sum(pc.mul(pc.take_per_row(L["m"], cols), L["w"])),
            {"m": m, "w": RNG.normal(size=4)})
        assert report.passed, report.summary()
        leaf = ad.Tensor(m, requires_grad=True)
        ad.backward(pc.reduce_sum(pc.take_per_row(leaf, cols)))
        want = np.zeros((4, 3))
        want[np.arange(4), cols] = 1.0
        np.testing.assert_array_equal(leaf.grad, want)

    def test_take_per_row_rejects_bad_cols(self):
        m = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError):
            pc.take_per_row(m, [0, 2, 1])
        with pytest.raises(IndexError):
            pc.take_per_row(m, [0, -1, 1])
        with pytest.raises(ad.ShapeError):
            pc.take_per_row(m, [0, 1])

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
        ad.backward(pc.weighted(out, g))
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
        got = pc.segment_sum(ad.Tensor(a), lengths).data
        np.testing.assert_allclose(got, [a[:2].sum(0), a[2], a[3:].sum(0)], rtol=1e-15)
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.square(pc.mul(pc.segment_sum(L["a"], lengths), L["w"]))),
            lambda p: np.sum((np.stack([p["a"][:2].sum(0), p["a"][2], p["a"][3:].sum(0)])
                              * p["w"]) ** 2),
            {"a": a, "w": RNG.normal(size=(3, 3))},
        )

    @pytest.mark.parametrize("lengths", [[2, 3], [1, 0, 5], [7], [], [[6]]])
    def test_segment_sum_rejects_bad_lengths(self, lengths):
        with pytest.raises(ad.ShapeError):
            pc.segment_sum(ad.Tensor(np.ones((6, 2))), lengths)


class TestNormalizeAndSoftmax:
    def test_l2_normalize_rows(self):
        a = RNG.normal(size=(4, 6))
        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.mul(ad.l2_normalize_rows(L["a"]), L["w"])),
            lambda p: np.sum(p["a"] / (np.linalg.norm(p["a"], axis=1, keepdims=True) + 1e-12) * p["w"]),
            {"a": a, "w": RNG.normal(size=(4, 6))},
        )

    def test_l2_normalize_zero_row(self):
        a = np.zeros((2, 3))
        a[1] = [3.0, 0.0, 4.0]
        leaf = ad.Tensor(a, requires_grad=True)
        out = ad.l2_normalize_rows(leaf)
        np.testing.assert_array_equal(out.data[0], 0.0)
        ad.backward(pc.reduce_sum(out))
        np.testing.assert_array_equal(leaf.grad[0], 0.0)
        assert np.all(np.isfinite(leaf.grad))

    def test_softmax_rows_sum_to_one(self):
        a = RNG.normal(size=(5, 7)) * 30.0  # large logits must not overflow
        s = pc.softmax(ad.Tensor(a))
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-10)

    def test_softmax_grad(self):
        a = RNG.normal(size=(3, 5))
        w = RNG.normal(size=(3, 5))

        def np_softmax(x):
            e = np.exp(x - x.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        assert_matches_numeric(
            lambda L: pc.reduce_sum(pc.mul(pc.softmax(L["a"]), L["w"])),
            lambda p: np.sum(np_softmax(p["a"]) * p["w"]),
            {"a": a, "w": w},
        )

    def test_unit_rows_distance_identity(self):
        # for unit vectors, |u - v|^2 == 2 - 2 cos(u, v)
        u = RNG.normal(size=(1, 8))
        v = RNG.normal(size=(1, 8))
        un = ad.l2_normalize_rows(ad.Tensor(u))
        vn = ad.l2_normalize_rows(ad.Tensor(v))
        dist2 = pc.reduce_sum(pc.square(pc.sub(un, vn)))
        cos = pc.reduce_sum(pc.mul(un, vn))
        assert abs(float(dist2.data) - (2.0 - 2.0 * float(cos.data))) < 1e-10


class TestReductions:
    def test_sum_mean_axes(self):
        a = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(3, 4))
        for axis in (None, 0, 1):
            assert_matches_numeric(
                lambda L, ax=axis: pc.add(pc.reduce_sum(pc.square(pc.reduce_mean(L["a"], ax))),
                                          pc.reduce_sum(pc.reduce_sum(L["a"], ax))),
                lambda p, ax=axis: np.sum(np.mean(p["a"], axis=ax) ** 2) + np.sum(p["a"]),
                {"a": a},
            )
            # keepdims keeps the reduced axis, so the result broadcasts back
            assert_matches_numeric(
                lambda L, ax=axis: pc.reduce_sum(
                    pc.square(pc.mul(pc.reduce_sum(L["a"], ax, keepdims=True), w))),
                lambda p, ax=axis: np.sum((np.sum(p["a"], axis=ax, keepdims=True) * w) ** 2),
                {"a": a},
            )

    def test_max_min_grad(self):
        a = RNG.normal(size=(4, 5))
        for axis in (None, 0, 1):
            assert_matches_numeric(
                lambda L, ax=axis: pc.reduce_sum(pc.sub(pc.reduce_max(L["a"], ax),
                                                        pc.reduce_min(L["a"], ax))),
                lambda p, ax=axis: np.sum(np.max(p["a"], axis=ax) - np.min(p["a"], axis=ax)),
                {"a": a},
            )

    def test_max_tie_goes_to_first_index(self):
        a = np.array([[1.0, 3.0, 3.0, 0.0]])
        leaf = ad.Tensor(a, requires_grad=True)
        ad.backward(pc.reduce_max(leaf))
        np.testing.assert_array_equal(leaf.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_min_tie_goes_to_first_index(self):
        a = np.array([[2.0, -1.0], [-1.0, 5.0]])
        leaf = ad.Tensor(a, requires_grad=True)
        ad.backward(pc.reduce_min(leaf))
        np.testing.assert_array_equal(leaf.grad, [[0.0, 1.0], [0.0, 0.0]])


class TestConv:
    def test_identity_kernel(self):
        x = RNG.normal(size=(9, 3))
        w = 4
        k = np.zeros((3, w))
        k[:, (w - 1) // 2] = 1.0  # delta at the center tap
        out = pc.depthwise_conv1d(ad.Tensor(x), ad.Tensor(k))
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
            lambda L: pc.reduce_sum(pc.square(pc.depthwise_conv1d(L["x"], L["k"]))),
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
        out = pc.depthwise_conv1d(x, kernel, lengths)
        ad.backward(pc.weighted(out, np.concatenate(ws)))
        np.testing.assert_array_equal(
            out.data, np.concatenate([ad.depthwise_conv1d_forward(xv, k) for xv in xs]))
        np.testing.assert_array_equal(
            ad.depthwise_conv1d_forward(np.concatenate(xs), k, lengths), out.data)

        x_grads, k_grad = [], np.zeros_like(k)
        for xv, wv in zip(xs, ws):
            leaf = ad.Tensor(xv, requires_grad=True)
            kleaf = ad.Tensor(k, requires_grad=True)
            one = pc.depthwise_conv1d(leaf, kleaf)
            np.testing.assert_array_equal(one.data, ad.depthwise_conv1d_forward(xv, k))
            ad.backward(pc.weighted(one, wv))
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
        out = pc.depthwise_conv1d(x, kernel, lengths)
        ad.backward(pc.weighted(out, g))
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
        root = pc.reduce_sum(pc.square(pc.depthwise_conv1d(x, kernel, lengths)))
        x.data[:] = rng.normal(size=(11, 3))  # a new input under the built graph
        ad.forward(root)
        ad.backward(root)

        x2, kernel2 = (ad.Tensor(t.data, requires_grad=True) for t in (x, kernel))
        ad.backward(pc.reduce_sum(pc.square(pc.depthwise_conv1d(x2, kernel2, lengths))))
        np.testing.assert_array_equal(x.grad, x2.grad)
        np.testing.assert_array_equal(kernel.grad, kernel2.grad)

    @pytest.mark.parametrize("lengths", [[3, 3], [7, 0], [], [[7]]])
    def test_rejects_bad_lengths(self, lengths):
        with pytest.raises(ad.ShapeError):
            pc.depthwise_conv1d(ad.Tensor(np.ones((7, 2))), ad.Tensor(np.ones((2, 3))), lengths)


def unbroadcast(v, shape):
    """Sum v over the axes an operand of `shape` was stretched along."""
    if v.shape == shape:
        return v
    lead = v.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and v.shape[lead + i] != 1)
    return np.sum(v, axis=axes).reshape(shape)


# the dense gradient of each operand, as every backward formed it for both
DENSE_GRADS = {
    "add": (lambda g, x, y: g, lambda g, x, y: g),
    "sub": (lambda g, x, y: g, lambda g, x, y: -g),
    "mul": (lambda g, x, y: g * y, lambda g, x, y: g * x),
    "div": (lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)),
}


class TestConstantOperands:
    """A backward forms no gradient for an operand that needs none, and the
    other operand's gradient keeps the dense formula's bits."""

    @pytest.mark.parametrize("op", sorted(DENSE_GRADS))
    @pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((3, 4), ()), ((), (3, 4)),
                                        ((3, 4), (3, 1)), ((3, 1), (3, 4))])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_elementwise(self, op, shapes, constant):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=s) + 3.0 for s in shapes]  # divisors away from zero
        operands = [ad.Tensor(v, requires_grad=i != constant) for i, v in enumerate(arrays)]
        out = getattr(pc, op)(*operands)
        g = rng.normal(size=out.data.shape)
        grads = out._bwd(g, out.data, *arrays)
        learned = 1 - constant
        assert grads[constant] is None
        want = unbroadcast(DENSE_GRADS[op][learned](g, *arrays), arrays[learned].shape)
        assert grads[learned].tobytes() == want.tobytes()

        ad.backward(pc.weighted(out, g))
        assert operands[constant].grad is None
        assert operands[learned].grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("constant", [0, 1])
    def test_matmul(self, constant):
        rng = np.random.default_rng(4)
        x, y, g = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        a, b = ad.Tensor(x, requires_grad=constant != 0), ad.Tensor(y, requires_grad=constant != 1)
        out = pc.matmul(a, b)
        grads = out._bwd(g, out.data, x, y)
        assert grads[constant] is None
        want = x.T @ g if constant == 0 else g @ y.T
        assert grads[1 - constant].tobytes() == want.tobytes()


def dense_take_rows_grad(g, index, rows):
    """take_rows' gradient as a zero-filled (rows, d) array: each source row
    gets its first gradient row plus the sum of the rest, in index order."""
    index = np.asarray(index, dtype=np.intp)
    order = np.argsort(index, kind="stable")
    sorted_index, sorted_g = index[order], g[order]
    firsts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]]) if index.size else index
    gx = np.zeros((rows, g.shape[1]))
    if index.size:
        gx[sorted_index[firsts]] = np.add.reduceat(sorted_g, firsts, axis=0)
    return gx


TAKE_INDICES = {
    "sorted": [0, 2, 3, 6],
    "unsorted": [5, 1, 6, 0, 3],
    "repeated": [4, 1, 4, 4, 0, 1, 6, 4],
    "empty": [],
}


class TestTakeRowsGradient:
    """take_rows' backward returns only the rows it touches; `backward` adds
    them into the source's gradient in place."""

    @pytest.mark.parametrize("name", sorted(TAKE_INDICES))
    def test_returns_only_summed_rows(self, name):
        index = TAKE_INDICES[name]
        rng = np.random.default_rng(8)
        x, g = rng.normal(size=(7, 3)), rng.normal(size=(len(index), 3))
        out = ad.take_rows(ad.Tensor(x, requires_grad=True), index)
        (rows,) = out._bwd(g, out.data, x)
        assert isinstance(rows, ad.RowGrad)
        assert sorted(rows.index.tolist()) == sorted(set(index))
        assert rows.rows.shape == (len(set(index)), 3)
        dense = dense_take_rows_grad(g, index, 7)
        assert rows.rows.tobytes() == dense[rows.index].tobytes()

    @pytest.mark.parametrize("name", sorted(TAKE_INDICES))
    def test_first_gradient(self, name):
        index = TAKE_INDICES[name]
        rng = np.random.default_rng(9)
        leaf = ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        g = rng.normal(size=(len(index), 3))
        ad.backward(pc.weighted(ad.take_rows(leaf, index), g))
        assert leaf.grad.tobytes() == dense_take_rows_grad(g, index, 7).tobytes()

    @pytest.mark.parametrize("first", sorted(TAKE_INDICES))
    @pytest.mark.parametrize("later", sorted(TAKE_INDICES))
    def test_later_gradient(self, first, later):
        # two gathers from one source: whichever arrives second is added in place
        rng = np.random.default_rng(10)
        leaf = ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        g1 = rng.normal(size=(len(TAKE_INDICES[first]), 3))
        g2 = rng.normal(size=(len(TAKE_INDICES[later]), 3))
        ad.backward(pc.add(pc.weighted(ad.take_rows(leaf, TAKE_INDICES[first]), g1),
                           pc.weighted(ad.take_rows(leaf, TAKE_INDICES[later]), g2)))
        want = (dense_take_rows_grad(g1, TAKE_INDICES[first], 7)
                + dense_take_rows_grad(g2, TAKE_INDICES[later], 7))
        assert leaf.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(TAKE_INDICES))
    def test_after_a_dense_gradient(self, name):
        index = TAKE_INDICES[name]
        rng = np.random.default_rng(11)
        leaf = ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        g, p = rng.normal(size=(len(index), 3)), rng.normal(size=(7, 3))
        ad.backward(pc.add(pc.weighted(ad.take_rows(leaf, index), g), pc.weighted(leaf, p)))
        assert leaf.grad.tobytes() == (p + dense_take_rows_grad(g, index, 7)).tobytes()

    def test_rows_outside_the_index_keep_their_bits(self):
        # the dense product's gradient (-0.0 in row 0) reaches the leaf
        # first; adding the gather's rows leaves row 0 as it is
        leaf = ad.Tensor(np.ones((3, 1)), requires_grad=True)
        dense, gather = pc.mul(leaf, 0.0), ad.take_rows(leaf, [2])
        root = pc.add(pc.weighted(dense, [[-1.0], [0.0], [2.0]]),
                      pc.reduce_sum(pc.mul(gather, 4.0)))
        order = ad._topo(root)
        assert order.index(dense) > order.index(gather)  # visited first going back
        ad.backward(root)
        assert leaf.grad.tolist() == [[0.0], [0.0], [4.0]]
        assert np.signbit(leaf.grad[0, 0]) and not np.signbit(leaf.grad[1, 0])


def per_tap_conv(xs, k, gs):
    """Outputs, input gradients (one per video) and the kernel gradient of a
    depthwise conv over videos `xs`, written tap by tap: each output adds
    x_j * k[:, j] for j = 0..w-1 to a zero start, each padded input row
    collects g * k[:, j] in that order, and each kernel column is one sum
    over the stack's rows."""
    w = k.shape[1]
    pad = (w - 1) // 2
    outs, gxs, prods = [], [], [[] for _ in range(w)]
    for x, g in zip(xs, gs):
        t = x.shape[0]
        xp = np.zeros((t + w - 1, x.shape[1]))
        xp[pad : pad + t] = x
        out, gxp = np.zeros_like(x), np.zeros_like(xp)
        for j in range(w):
            out += xp[j : j + t] * k[:, j]
            gxp[j : j + t] += g * k[:, j]
            prods[j].append(g * xp[j : j + t])
        outs.append(out)
        gxs.append(gxp[pad : pad + t])
    gk = np.stack([np.sum(np.concatenate(p), axis=0) for p in prods], axis=1)
    return outs, gxs, gk


class TestConvPerTap:
    """The conv and its no-grad forward against `per_tap_conv`, bit for bit."""

    @pytest.mark.parametrize("lengths, w, d", [
        ([5, 1, 3, 12], 4, 4),  # mixed lengths
        ([1, 1, 1], 3, 4),  # one-row videos
        ([2, 3, 1], 8, 4),  # T < w
        ([20, 20, 20, 20], 8, 4),  # equal lengths: the grid is a view of the stack
        ([9], 5, 4),  # one video in a stack
        (None, 6, 4),  # one video, no lengths
        # the shapes that run, where NumPy's iterator picks the summation order
        ([20] * 16, 8, 64),  # a training batch
        ([20] * 32, 8, 64),  # an evaluation pass
        ([12, 311, 40, 97, 150, 23, 311, 64], 8, 64),  # ragged long videos
        ([9, 14, 30, 8], 8, 1),  # one channel
    ])
    def test_matches(self, lengths, w, d):
        rng = np.random.default_rng(12)
        sizes = lengths or [11]
        xs = [rng.normal(size=(t, d)) for t in sizes]
        gs = [rng.normal(size=(t, d)) for t in sizes]
        k = rng.normal(size=(d, w))
        outs, gxs, gk = per_tap_conv(xs, k, gs)

        stack = np.concatenate(xs)
        assert ad.depthwise_conv1d_forward(stack, k, lengths).tobytes() == np.concatenate(outs).tobytes()
        x, kernel = ad.Tensor(stack, requires_grad=True), ad.Tensor(k, requires_grad=True)
        out = pc.depthwise_conv1d(x, kernel, lengths)
        assert out.data.tobytes() == np.concatenate(outs).tobytes()
        ad.backward(pc.weighted(out, np.concatenate(gs)))
        assert x.grad.tobytes() == np.concatenate(gxs).tobytes()
        if d > 1:
            assert kernel.grad.tobytes() == gk.tobytes()
        else:  # NumPy sums a single column pairwise, so the rounding can differ
            np.testing.assert_allclose(kernel.grad, gk, rtol=1e-12, atol=1e-12)

    def test_temporaries_stay_below_three_outputs(self):
        """One forward, and one backward, of a 32 x 20 x 64 stack each peak at
        no more than 3x the output's bytes of new memory."""
        rng = np.random.default_rng(3)
        lengths = [20] * 32
        xv, g = rng.normal(size=(2, sum(lengths), 64))
        kv = rng.normal(size=(64, 8))
        x, kernel = ad.Tensor(xv), ad.Tensor(kv, requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = pc.depthwise_conv1d(x, kernel, lengths)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out._bwd(g, out.data, xv, kv)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= 3 * xv.nbytes
        assert backward_peak <= 3 * xv.nbytes

    def test_ragged_backward_stays_below_four_stacks(self):
        """The backward of 32 videos of 12-20 rows peaks at no more than 4x
        the stack's bytes of new memory: the output gradient goes straight
        into its padded grid."""
        rng = np.random.default_rng(3)
        lengths = rng.integers(12, 21, size=32).tolist()
        xv, g = rng.normal(size=(2, sum(lengths), 64))
        kv = rng.normal(size=(64, 8))
        out = pc.depthwise_conv1d(ad.Tensor(xv), ad.Tensor(kv, requires_grad=True), lengths)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out._bwd(g, out.data, xv, kv)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert backward_peak <= 4 * xv.nbytes


class TestConvViews:
    """`ad._windows` and `ad._taps`, built by the `np.ndarray` constructor,
    are the views `primitive_chains` builds by stride tricks: the same
    shape, strides, dtype, values and read-only flag, on the grid's own
    memory."""

    @staticmethod
    def assert_same_view(got, want, memory):
        assert (got.shape, got.strides, got.dtype) == (want.shape, want.strides, want.dtype)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable
        assert np.shares_memory(got, memory)

    @pytest.mark.parametrize("lengths", [[6, 6, 6], [5, 1, 3, 12], [1], [4]],
                             ids=["equal", "ragged", "one-row", "one-video"])
    @pytest.mark.parametrize("w", [1, 2, 5, 8])
    @pytest.mark.parametrize("d", [1, 3])  # d = 1: all three steps of a plain kernel tie
    def test_match_stride_tricks(self, lengths, w, d):
        rng = np.random.default_rng(31)
        lengths = np.array(lengths)
        grid = ad.ConvGrid(rng.normal(size=(lengths.sum(), d)), w, lengths)
        t_max = grid.shape[1]
        # the forward's input grid and the backward's output-gradient grid
        for padded in (grid.padded, grid.pad(rng.normal(size=(lengths.sum(), d)), w // 2)):
            for reverse in (False, True):
                self.assert_same_view(ad._windows(padded, t_max, reverse),
                                      pc.strided_windows(padded, t_max, reverse), padded)
        kv = rng.normal(size=(d, w))
        got = ad._taps(kv, grid.shape)
        self.assert_same_view(got, pc.broadcast_taps(kv, grid.shape), got.base)
        assert got[:, 0, 0].T.tobytes() == kv.tobytes()


def primitive_input_grad(op, x, g):
    """The gradient a one-input primitive `op` gives its leaf input x when
    its output's gradient is g."""
    leaf = ad.Tensor(x, requires_grad=True)
    ad.backward(pc.weighted(op(leaf), g))
    return leaf.grad


class TestBackwardHelpers:
    """Each `*_backward` helper gives what the primitive that calls it gives,
    and what central differences of its forward give."""

    @staticmethod
    def numeric(forward, x, g, h=1e-6):
        return numeric_grad(lambda p: float(np.sum(forward(p["x"]) * g)), {"x": x.copy()}, h)["x"]

    def test_l2_normalize_rows(self):
        rng = np.random.default_rng(20)
        x, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        x[2] = 0.0  # the flat zero row gets 0
        got = ad.l2_normalize_rows_backward(g, x, ad.normalized_rows(x)[1])
        assert got.tobytes() == primitive_input_grad(ad.l2_normalize_rows, x, g).tobytes()
        assert not got[2].any()
        rows = [0, 1, 3, 4]
        np.testing.assert_allclose(got[rows], self.numeric(ad.l2_normalize_rows_forward, x, g)[rows],
                                   rtol=1e-6, atol=1e-8)

    def test_softmax(self):
        rng = np.random.default_rng(21)
        x, g = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        got = ad.softmax_backward(g, ad.softmax_forward(x))
        assert got.tobytes() == primitive_input_grad(pc.softmax, x, g).tobytes()
        np.testing.assert_allclose(got, self.numeric(ad.softmax_forward, x, g), rtol=1e-6, atol=1e-8)

    def test_sigmoid(self):
        rng = np.random.default_rng(22)
        x, g = 3.0 * rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        got = ad.sigmoid_backward(g, ad.sigmoid_forward(x))
        assert got.tobytes() == primitive_input_grad(pc.sigmoid, x, g).tobytes()
        np.testing.assert_allclose(got, self.numeric(ad.sigmoid_forward, x, g), rtol=1e-6, atol=1e-8)

    def test_divisor(self):
        rng = np.random.default_rng(23)
        x, y, g = rng.normal(size=(3, 4)), rng.uniform(0.5, 2.0, size=(3, 4)), rng.normal(size=(3, 4))
        got = ad.divisor_backward(g, x, y)
        assert got.tobytes() == primitive_input_grad(lambda t: pc.div(x, t), y, g).tobytes()
        np.testing.assert_allclose(got, self.numeric(lambda v: x / v, y, g), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("lengths, w, d", [([5, 1, 3, 12], 4, 4), ([1, 1, 1], 3, 4),
                                               ([20, 20, 20], 8, 4), ([2, 3, 1], 8, 4)])
    def test_depthwise_conv1d(self, lengths, w, d):
        rng = np.random.default_rng(24)
        xs = [rng.normal(size=(t, d)) for t in lengths]
        gs = [rng.normal(size=(t, d)) for t in lengths]
        k = rng.normal(size=(d, w))
        _, gxs, gk = per_tap_conv(xs, k, gs)
        stack, g = np.concatenate(xs), np.concatenate(gs)
        got_x, got_k = ad.depthwise_conv1d_backward(
            g, k, ad.ConvGrid(stack, w, np.array(lengths)))
        assert got_x.tobytes() == np.concatenate(gxs).tobytes()
        assert got_k.tobytes() == gk.tobytes()
        x, kernel = ad.Tensor(stack, requires_grad=True), ad.Tensor(k, requires_grad=True)
        ad.backward(pc.weighted(pc.depthwise_conv1d(x, kernel, lengths), g))
        assert (x.grad.tobytes(), kernel.grad.tobytes()) == (got_x.tobytes(), got_k.tobytes())

    @pytest.mark.parametrize("name", sorted(TAKE_INDICES))
    def test_take_rows(self, name):
        index = np.array(TAKE_INDICES[name], dtype=np.intp)
        rng = np.random.default_rng(25)
        x, g = rng.normal(size=(7, 3)), rng.normal(size=(index.size, 3))
        gather = ad.RowGather.of(index)
        assert (gather.order is None) == bool(np.all(index[1:] >= index[:-1]))
        got = ad.take_rows_backward(g, gather)
        assert got.index.tolist() == sorted(set(index.tolist()))
        dense = dense_take_rows_grad(g, index, 7)
        assert got.rows.tobytes() == dense[got.index].tobytes()
        assert dense.tobytes() == primitive_input_grad(
            lambda t: ad.take_rows(t, index), x, g).tobytes()


class TestGraphMechanics:
    def test_forward_recomputes_after_leaf_change(self):
        leaf = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        out = pc.reduce_sum(pc.square(leaf))
        assert float(out.data) == 5.0
        leaf.data[0, 0] = 3.0
        assert float(ad.forward(out).data) == 13.0

    def test_reused_node_gradient_accumulates(self):
        # y = x*x via sharing one node twice: dy/dx = 2x
        leaf = ad.Tensor(np.array(3.0), requires_grad=True)
        y = pc.mul(leaf, leaf)
        ad.backward(y)
        assert float(leaf.grad) == 6.0

    def test_shared_output_gradient_gives_independent_grads(self):
        # add hands its own output gradient to both inputs: each leaf must get
        # a private copy, and x + x must sum its two halves into one
        w = ad.Tensor([[5.0, 7.0]])
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[3.0, 4.0]], requires_grad=True)
        ad.backward(pc.reduce_sum(pc.mul(pc.add(a, b), w)))
        assert a.grad.tolist() == b.grad.tolist() == [[5.0, 7.0]]
        a.grad[0, 0] = -1.0
        assert b.grad.tolist() == [[5.0, 7.0]]
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        s = pc.add(x, x)
        ad.backward(pc.reduce_sum(pc.mul(s, w)))
        assert x.grad.tolist() == [[10.0, 14.0]]
        assert s.grad.tolist() == [[5.0, 7.0]] and not np.shares_memory(x.grad, s.grad)

    def test_first_gradient_is_never_another_nodes_array(self):
        # sub passes its own output gradient on to its first input, which
        # also gets a second gradient added in place
        w, v = ad.Tensor([[5.0, 7.0]]), ad.Tensor([[1.0, 10.0]])
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        s = pc.sub(x, ad.Tensor([[3.0, 4.0]], requires_grad=True))
        ad.backward(pc.add(pc.reduce_sum(pc.mul(s, w)), pc.reduce_sum(pc.mul(x, v))))
        assert x.grad.tolist() == [[6.0, 17.0]] and s.grad.tolist() == [[5.0, 7.0]]
        assert not np.shares_memory(x.grad, s.grad)
        # a backward that returns one fresh array for both of its inputs
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[3.0, 4.0]], requires_grad=True)
        out = ad._node("twice", (a, b), lambda p, q: p + q, lambda g, o, p, q: (2.0 * g,) * 2)
        ad.backward(pc.reduce_sum(pc.mul(out, w)))
        assert a.grad.tolist() == b.grad.tolist() == [[10.0, 14.0]]
        assert not np.shares_memory(a.grad, b.grad)

    def test_diamond_graph_single_visit(self):
        x = ad.Tensor(np.array(2.0), requires_grad=True)
        a = pc.mul(x, 3.0)
        y = pc.add(pc.mul(a, a), a)  # d/dx = 2*9x + 3 = 39 at x=2
        ad.backward(y)
        assert float(x.grad) == pytest.approx(39.0)

    def test_backward_rejects_nonscalar(self):
        leaf = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(pc.mul(leaf, 2.0))

    def test_no_grad_constant_stays_clean(self):
        c = ad.Tensor([[1.0, 2.0]])
        leaf = ad.Tensor([[3.0, 4.0]], requires_grad=True)
        ad.backward(pc.reduce_sum(pc.mul(c, leaf)))
        assert c.grad is None
        np.testing.assert_array_equal(leaf.grad, [[1.0, 2.0]])

    def test_repeat_evaluation_is_bit_identical(self):
        x = RNG.normal(size=(6, 4))
        leaf = ad.Tensor(x, requires_grad=True)
        logits = pc.matmul(ad.l2_normalize_rows(leaf), ad.Tensor(RNG.normal(size=(4, 3))))
        out = pc.reduce_sum(pc.softmax(logits))
        first = out.data.copy()
        for _ in range(3):
            ad.forward(out)
            assert out.data.tobytes() == first.tobytes()


class TestShapeErrors:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: pc.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2)))),
            lambda: pc.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3)))),
            lambda: pc.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2)))),
            lambda: pc.depthwise_conv1d(ad.Tensor(np.ones((5, 3))), ad.Tensor(np.ones((4, 2)))),
            lambda: pc.concat_rows([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4)))]),
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
            z = pc.matmul(ad.l2_normalize_rows(L["a"]), L["b"])
            return pc.add(pc.reduce_max(pc.softmax(z)), pc.reduce_mean(pc.square(z)))

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
            out = pc.square(L["a"])
            # sabotage: bias the adjoint the way a wrong formula would
            good = out._bwd
            out._bwd = lambda g, o, x: (good(g, o, x)[0] + 0.1,)
            return pc.reduce_sum(out)

        report = ad.grad_check(builder, {"a": RNG.normal(size=(2, 3))}, tol=1e-4)
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_restores_leaf_values(self):
        a = RNG.normal(size=(2, 2))
        leaves_seen = {}

        def builder(L):
            leaves_seen.update(L)
            return pc.reduce_sum(pc.square(L["a"]))

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
        z = pc.matmul(ad.l2_normalize_rows(L["a"]), L["w"])
        return pc.reduce_mean(pc.reduce_max(pc.softmax(z), 1))

    def expr_np(p):
        n = p["a"] / (np.linalg.norm(p["a"], axis=1, keepdims=True) + 1e-12)
        z = n @ p["w"]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        return np.mean(np.max(s, axis=1))

    assert_matches_numeric(expr_t, expr_np, {"a": a, "w": w}, tol=1e-5)
