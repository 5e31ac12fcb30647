"""Embedding head, cosine classifier, attention net, checkpoint format."""

import json
import struct

import numpy as np
import pytest

from fewvid import autodiff as ad
from fewvid import model
from fewvid.errors import (BadMagicError, DataError, MalformedFileError, TruncatedFileError,
                           VersionError)


def tiny_params(d=2, d_in=2, n_classes=2, width=4):
    p = model.init_params(n_classes=n_classes, d_in=d_in, d=d, kernel_width=width, seed=0)
    p.transform.data[:] = np.eye(d, d_in)
    p.temporal_kernel.data[:] = model.delta_kernel(d, width)
    return p


class TestEmbed:
    def test_identity_head_reduces_to_normalization(self):
        p = tiny_params()
        f = model.embed_segments(p, np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(f.data, [[0.6, 0.8]], atol=1e-12)

    def test_zero_input_stays_zero(self):
        p = tiny_params()
        f = model.embed_segments(p, np.zeros((4, 2)))
        np.testing.assert_array_equal(f.data, 0.0)

    def test_rows_unit_or_zero(self):
        p = model.init_params(n_classes=3, d_in=6, d=5, seed=1)
        f = model.embed_segments(p, np.random.default_rng(2).normal(size=(9, 6)))
        norms = np.linalg.norm(f.data, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_delta_kernel_is_permutation_equivariant(self):
        p = model.init_params(n_classes=3, d_in=4, d=4, seed=3)
        p.temporal_kernel.data[:] = model.delta_kernel(4, 8)
        raw = np.random.default_rng(4).normal(size=(6, 4))
        perm = np.random.default_rng(5).permutation(6)
        direct = model.embed_segments(p, raw[perm]).data
        permuted = model.embed_segments(p, raw).data[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    def test_wide_kernel_mixes_neighbors(self):
        p = model.init_params(n_classes=3, d_in=4, d=4, seed=3)
        raw = np.zeros((6, 4))
        raw[2] = 1.0
        f = model.embed_segments(p, raw).data
        assert np.linalg.norm(f[3]) > 0.0  # the impulse bleeds into neighbors

    def test_dimension_mismatch(self):
        p = tiny_params()
        with pytest.raises(ad.ShapeError):
            model.embed_segments(p, np.ones((3, 5)))

    @pytest.mark.parametrize("d_in, d", [(32, 64), (6, 5)])
    def test_stacked_inference_rows_equal_one_call_per_video(self, d_in, d):
        # one-row videos included: NumPy computes a one-row product on its own path
        p = model.init_params(n_classes=3, d_in=d_in, d=d, kernel_width=8, seed=2)
        rng = np.random.default_rng(6)
        lengths = [20, 1, 7, 1, 1, 12, 20, 2, 1]
        videos = [rng.normal(size=(T, d_in)) for T in lengths]
        stacked = model.embed_segments(p, np.concatenate(videos), grad=False, lengths=lengths)
        ends = np.cumsum(lengths)
        for video, end, T in zip(videos, ends, lengths):
            one = model.embed_segments(p, video, grad=False)
            assert np.array_equal(stacked[end - T : end], one)

    def test_stacked_inference_rejects_bad_lengths(self):
        p = model.init_params(n_classes=3, d_in=6, d=5, seed=2)
        with pytest.raises(ad.ShapeError):
            model.embed_segments(p, np.ones((5, 6)), grad=False, lengths=[3, 1, 1, 1])


class TestLogits:
    def test_projection(self):
        p = tiny_params()
        p.classifier.data[:] = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        p.classifier.data[2] = [np.sqrt(0.5), -np.sqrt(0.5)]
        f = ad.Tensor(np.array([[0.6, 0.8]]))
        logits = model.segment_logits(p, f)
        assert logits.data.shape == (1, 2)
        np.testing.assert_allclose(logits.data, [[0.6, 0.8]], atol=1e-12)

    def test_self_similarity_is_one(self):
        p = model.init_params(n_classes=4, d_in=4, d=4, seed=6)
        f = ad.Tensor(p.classifier.data[1:2].copy())
        logits = model.segment_logits(p, f)
        assert logits.data[0, 1] == pytest.approx(1.0)

    def test_orthogonal_gives_zero(self):
        p = tiny_params()
        p.classifier.data[:2] = np.array([[1.0, 0.0], [1.0, 0.0]])
        logits = model.segment_logits(p, ad.Tensor(np.array([[0.0, 1.0]])))
        np.testing.assert_allclose(logits.data, 0.0, atol=1e-12)

    def test_bg_row_left_out(self):
        p = model.init_params(n_classes=4, d_in=4, d=4, seed=7)
        f = np.random.default_rng(8).normal(size=(3, 4))
        logits = model.segment_logits(p, ad.Tensor(f)).data
        np.testing.assert_array_equal(logits, f @ p.classifier.data[:4].T)
        np.testing.assert_array_equal(model.segment_logits(p, f), logits)

    def test_bounded_for_unit_features(self):
        p = model.init_params(n_classes=5, d_in=8, d=8, seed=9)
        raw = np.random.default_rng(10).normal(size=(16, 8))
        f = model.embed_segments(p, raw)
        logits = model.segment_logits(p, f)
        assert np.all(logits.data <= 1.0 + 1e-9)
        assert np.all(logits.data >= -1.0 - 1e-9)


class TestAttention:
    def test_zero_params_give_half(self):
        p = tiny_params()
        p.attn_hidden.data[:] = 0.0
        p.attn_out.data[:] = 0.0
        w = model.baseline_attention(p, ad.Tensor(np.random.default_rng(0).normal(size=(5, 2))))
        np.testing.assert_allclose(w.data, 0.5, atol=1e-12)

    def test_open_interval(self):
        p = model.init_params(n_classes=3, d_in=4, d=4, seed=11)
        w = model.baseline_attention(p, ad.Tensor(np.random.default_rng(1).normal(size=(7, 4))))
        assert w.data.shape == (7, 1)
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)

    def test_permutation_equivariant(self):
        p = model.init_params(n_classes=3, d_in=4, d=4, seed=12)
        f = np.random.default_rng(2).normal(size=(6, 4))
        perm = np.random.default_rng(3).permutation(6)
        np.testing.assert_allclose(
            model.baseline_attention(p, ad.Tensor(f[perm])).data,
            model.baseline_attention(p, ad.Tensor(f)).data[perm],
            atol=1e-12,
        )


class TestInit:
    def test_classifier_rows_unit_norm(self):
        p = model.init_params(n_classes=6, d_in=10, d=8, seed=13)
        np.testing.assert_allclose(np.linalg.norm(p.classifier.data, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = model.init_params(n_classes=3, d_in=5, d=4, seed=14)
        b = model.init_params(n_classes=3, d_in=5, d=4, seed=14)
        for name, t in a.tensors().items():
            assert t.data.tobytes() == b.tensors()[name].data.tobytes()

    def test_copy_is_independent(self):
        a = model.init_params(n_classes=3, d_in=5, d=4, seed=15)
        b = a.copy()
        b.transform.data[:] = 0.0
        assert not np.allclose(a.transform.data, 0.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = model.init_params(n_classes=4, d_in=6, d=5, seed=16)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(p, path, {"d": 5, "seed": 16})
        loaded, echo = model.load_checkpoint(path)
        assert echo == {"d": 5, "seed": 16}
        for name, t in p.tensors().items():
            got = loaded.tensors()[name]
            assert got.data.tobytes() == t.data.tobytes()
            assert got.requires_grad

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            model.load_checkpoint(path)

    def test_version_check(self, tmp_path):
        p = model.init_params(n_classes=2, d_in=3, d=3, seed=17)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            model.load_checkpoint(path)

    def test_shorter_than_fixed_header(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"FVCP\x01\x00\x00\x00\x02")
        with pytest.raises(TruncatedFileError):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("header", [b'{"config": {}}', b'{"tensors": []}', b"[1, 2]"])
    def test_header_without_tensors_or_config(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"FVCP" + struct.pack("<II", 1, len(header)) + header)
        with pytest.raises(DataError):
            model.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            model.load_checkpoint(tmp_path / "missing.ckpt")

    def save_with(self, tmp_path, **tensors):
        p = model.init_params(n_classes=4, d_in=6, d=5, kernel_width=3, attn_width=7, seed=18)
        for name, arr in tensors.items():
            setattr(p, name, ad.Tensor(arr))
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(p, path)
        return path

    @pytest.mark.parametrize("name, shape", [
        ("transform", (4, 6)),  # d disagrees with every other tensor
        ("temporal_kernel", (6, 3)),
        ("classifier", (5, 4)),
        ("attn_hidden", (7, 6)),
        ("attn_out", (1, 8)),
        ("attn_out", (2, 7)),
        ("temporal_kernel", (5,)),
        ("classifier", (5, 5, 1)),
        ("temporal_kernel", (5, 0)),
    ])
    def test_disagreeing_shapes(self, tmp_path, name, shape):
        path = self.save_with(tmp_path, **{name: np.ones(shape)})
        with pytest.raises(DataError, match="matrices|disagree"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("name", model.PARAM_ORDER)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, tmp_path, name, value):
        p = model.init_params(n_classes=4, d_in=6, d=5, kernel_width=3, attn_width=7, seed=18)
        arr = p.tensors()[name].data.copy()
        arr.flat[-1] = value
        with pytest.raises(DataError, match=f"{name} holds non-finite"):
            model.load_checkpoint(self.save_with(tmp_path, **{name: arr}))


def rewrite_checkpoint(path, edit=None, extra=b""):
    """Rewrite a saved checkpoint with `edit` applied to its header's tensor
    list and `extra` bytes appended to its payload."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + header_len])
    if edit:
        header["tensors"] = edit(header["tensors"])
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text
                     + blob[12 + header_len :] + extra)
    return path


class TestCheckpointLayout:
    """The header lists each parameter tensor once, and the file ends where
    the last listed tensor does."""

    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(model.init_params(n_classes=3, d_in=4, d=2, kernel_width=2,
                                                attn_width=2, seed=19), path)
        return path

    def test_huge_shape_runs_past_the_end(self, tmp_path):
        # 2**40 * 2**40 wraps to 0 in int64, which would read as an empty tensor
        def huge(tensors):
            tensors[0]["shape"] = [2 ** 40, 2 ** 40]
            return tensors

        with pytest.raises(TruncatedFileError, match="transform extends past end of file"):
            model.load_checkpoint(rewrite_checkpoint(self.saved(tmp_path), huge))

    def test_trailing_bytes(self, tmp_path):
        path = rewrite_checkpoint(self.saved(tmp_path), extra=b"\0" * 8)
        with pytest.raises(MalformedFileError, match="8 bytes follow the last checkpoint tensor"):
            model.load_checkpoint(path)

    def test_tensor_listed_twice(self, tmp_path):
        # the repeat reads the 8 appended bytes; without the check it would win
        path = rewrite_checkpoint(self.saved(tmp_path),
                                  lambda t: t + [{"name": "attn_out", "shape": [1, 1]}],
                                  extra=b"\0" * 8)
        with pytest.raises(DataError, match=f"{path}: checkpoint lists tensor attn_out twice"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["bias", None, 3, ["transform"]])
    def test_unknown_tensor_name(self, tmp_path, name):
        path = rewrite_checkpoint(self.saved(tmp_path),
                                  lambda t: t + [{"name": name, "shape": [1, 1]}],
                                  extra=b"\0" * 8)
        with pytest.raises(DataError, match="a name from"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[2, -4], [2, True], [2, 4.0], [[2], 4], [2, 0], "2x4",
                                       None])
    def test_bad_shape_entry(self, tmp_path, shape):
        def edit(tensors):
            tensors[0]["shape"] = shape
            return tensors

        with pytest.raises(DataError, match="must be non-empty matrices, got transform shape"):
            model.load_checkpoint(rewrite_checkpoint(self.saved(tmp_path), edit))


class TestFeatureWidth:
    def test_matching_width_passes(self):
        model.check_feature_width(tiny_params(d_in=2), np.ones((3, 2)), "v")

    def test_mismatch_names_source_and_width(self):
        with pytest.raises(DataError, match="v.segf: features are 5 wide.*d_in = 2"):
            model.check_feature_width(tiny_params(d_in=2), np.ones((3, 5)), "v.segf")
