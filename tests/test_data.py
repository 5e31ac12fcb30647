"""Feature-file format, manifests, synthetic generator, and episode drawing."""

import hashlib
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewvid import data
from fewvid.errors import (BadMagicError, DataError, MalformedFileError, TruncatedFileError,
                           VersionError)


def tree_checksum(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestFeatureFile:
    def test_byte_layout(self, tmp_path):
        feats = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "a.segf"
        data.write_feature_file(feats, path)
        blob = path.read_bytes()
        assert len(blob) == 4 + 4 + 4 + 4 + 24
        assert blob[:4] == b"SEGF"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert np.frombuffer(blob[16:], dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]

    def test_round_trip_bit_exact(self, tmp_path):
        feats = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "b.segf"
        data.write_feature_file(feats, path)
        back = data.read_feature_file(path)
        assert back.dtype == np.float64
        assert back.astype(np.float32).tobytes() == feats.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.segf"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(BadMagicError):
            data.read_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.segf"
        path.write_bytes(b"SEGF" + (2).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(VersionError):
            data.read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        feats = np.ones((4, 4))
        path = tmp_path / "t.segf"
        data.write_feature_file(feats, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedFileError):
            data.read_feature_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.segf"
        path.write_bytes(b"SEGF\x01\x00")
        with pytest.raises(TruncatedFileError):
            data.read_feature_file(path)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_matrix_rejected(self, tmp_path, shape):
        path = tmp_path / "e.segf"
        data.write_feature_file(np.ones(shape), path)
        with pytest.raises(MalformedFileError, match="empty"):
            data.read_feature_file(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read feature file"):
            data.read_feature_file(tmp_path / "absent.segf")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "nan.segf"
        data.write_feature_file(np.array([[0.0, 1.0], [value, 2.0]]), path)
        with pytest.raises(MalformedFileError, match="non-finite"):
            data.read_feature_file(path)

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        # casting a signalling NaN (bits 0x7f800001) to float64 warns
        path = tmp_path / "snan.segf"
        data.write_feature_file(np.zeros((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedFileError, match="non-finite"):
                data.read_feature_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.segf"
        data.write_feature_file(np.ones((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(MalformedFileError, match="4 bytes follow"):
            data.read_feature_file(path)


class TestManifest:
    def test_round_trip_preserves_fields(self, tmp_path):
        manifest = data.DatasetManifest(split="base", class_names=["a", "b"], root=tmp_path)
        manifest.entries.append(data.ManifestEntry(
            video_id="base_c000_v000", class_label=0, feature_file="base/x.segf",
            gt_intervals=[(1, 3), (5, 9)], segment_roles="IFFNIFFFFN"))
        path = tmp_path / "m.jsonl"
        data.save_manifest(manifest, path)
        back = data.load_manifest(path)
        assert back.split == "base"
        assert back.class_names == ["a", "b"]
        assert back.root == tmp_path
        entry = back.entries[0]
        assert entry.video_id == "base_c000_v000"
        assert entry.class_label == 0
        assert entry.feature_file == "base/x.segf"
        assert entry.gt_intervals == [(1, 3), (5, 9)]
        assert entry.segment_roles == "IFFNIFFFFN"

    def test_segment_roles_empty_or_absent_load_as_empty(self, tmp_path):
        rec = {"video_id": "v", "class_label": 0, "feature_file": "v.segf",
               "gt_intervals": [[0, 2]]}
        path = tmp_path / "m.jsonl"
        path.write_text('{"split": "novel", "class_names": ["a"]}\n' + json.dumps(rec) + "\n"
                        + json.dumps(dict(rec, segment_roles="")) + "\n")
        assert [e.segment_roles for e in data.load_manifest(path).entries] == ["", ""]

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"split": "base", "class_names": []}\nnot json\n')
        with pytest.raises(DataError):
            data.load_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            data.load_manifest(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("field, value", [
        ("video_id", 3), ("feature_file", 5), ("feature_file", None),
        ("class_label", True), ("class_label", 1.0), ("class_label", "1"),
        ("gt_intervals", "0-3"), ("gt_intervals", [[1.5, 3.0]]), ("gt_intervals", [[0, "a"]]),
        ("gt_intervals", [[0, 1, 2]]), ("gt_intervals", [[0]]), ("gt_intervals", [[3, 3]]),
        ("gt_intervals", [[-1, 2]]), ("gt_intervals", [[0, True]]), ("gt_intervals", [5]),
        ("segment_roles", 5), ("segment_roles", None), ("segment_roles", ["F"]),
        ("segment_roles", "FXN"), ("segment_roles", "fin"),
    ])
    def test_entry_types_checked(self, tmp_path, field, value):
        rec = {"video_id": "v", "class_label": 0, "feature_file": "v.segf",
               "gt_intervals": [[0, 2], [4, 5]], "segment_roles": ""}
        path = tmp_path / "m.jsonl"
        path.write_text('{"split": "novel", "class_names": ["a"]}\n' + json.dumps(rec) + "\n"
                        + json.dumps(dict(rec, **{field: value})) + "\n")
        with pytest.raises(DataError, match=f"entry 1: {field}"):
            data.load_manifest(path)

    @pytest.mark.parametrize("label", [2, 3, -1])
    def test_class_label_indexes_class_names(self, tmp_path, label):
        rec = {"video_id": "v", "class_label": 1, "feature_file": "v.segf", "gt_intervals": []}
        path = tmp_path / "m.jsonl"
        path.write_text('{"split": "novel", "class_names": ["a", "b"]}\n' + json.dumps(rec)
                        + "\n" + json.dumps(dict(rec, class_label=label)) + "\n")
        with pytest.raises(DataError, match=f"entry 1: class_label {label} is outside the 2 "):
            data.load_manifest(path)

    @pytest.mark.parametrize("names", ['"ab"', '{"a": 0}', "null", "3"])
    def test_class_names_must_be_a_list(self, tmp_path, names):
        path = tmp_path / "m.jsonl"
        path.write_text(f'{{"split": "novel", "class_names": {names}}}\n')
        with pytest.raises(DataError, match="class_names must be a list"):
            data.load_manifest(path)


SMALL = data.SyntheticConfig(
    n_base_classes=4, n_novel_classes=3, videos_per_class=6, T=12, d_in=8, seed=3)


class TestGenerator:
    def test_entry_counts(self, tmp_path):
        cfg = data.SyntheticConfig(n_base_classes=20, n_novel_classes=10,
                                   videos_per_class=30, T=20, d_in=16, seed=1)
        base, novel = data.generate_synthetic_dataset(cfg, tmp_path)
        assert len(base.entries) == 600
        assert len(novel.entries) == 300

    def test_deterministic_tree(self, tmp_path):
        data.generate_synthetic_dataset(SMALL, tmp_path / "one")
        data.generate_synthetic_dataset(SMALL, tmp_path / "two")
        assert tree_checksum(tmp_path / "one") == tree_checksum(tmp_path / "two")

    def test_label_sets_disjoint(self, tmp_path):
        base, novel = data.generate_synthetic_dataset(SMALL, tmp_path)
        assert not set(base.class_labels()) & set(novel.class_labels())

    def test_roles_partition_and_intervals_valid(self, tmp_path):
        base, novel = data.generate_synthetic_dataset(SMALL, tmp_path)
        for manifest in (base, novel):
            for entry in manifest.entries:
                seq = manifest.load_sequence(entry)
                roles = entry.segment_roles
                assert len(roles) == seq.T
                fg_from_intervals = set()
                for start, end in entry.gt_intervals:
                    fg_from_intervals.update(range(start, end))
                assert {i for i, r in enumerate(roles) if r == "F"} == fg_from_intervals
                assert set(roles) <= {"F", "I", "N"}
                assert 1 <= len(entry.gt_intervals) <= 3

    def test_overlap_zero_keeps_pools_apart(self):
        cfg = data.SyntheticConfig(n_novel_classes=10, overlap_fraction=0.0, seed=5)
        concepts = data.draw_concepts(cfg, np.random.default_rng(cfg.seed))
        cross = concepts["novel_fg"] @ concepts["ibg"].T
        assert np.max(np.abs(cross - 1.0)) > 1e-6  # no novel concept equals a pool vector
        assert concepts["overlapped_novel"].size == 0

    def test_overlap_count_exact(self):
        cfg = data.SyntheticConfig(n_novel_classes=10, overlap_fraction=0.5, seed=5)
        concepts = data.draw_concepts(cfg, np.random.default_rng(cfg.seed))
        matches = np.isclose(concepts["novel_fg"] @ concepts["ibg"].T, 1.0).any(axis=1)
        assert matches.sum() == 5
        assert concepts["overlapped_novel"].size == 5

    def test_config_validation(self):
        with pytest.raises(DataError):
            data.SyntheticConfig(n_base_classes=0).validate()
        with pytest.raises(DataError):
            data.SyntheticConfig(overlap_fraction=1.5).validate()
        with pytest.raises(DataError):
            data.SyntheticConfig(noise_std=-0.1).validate()

    def test_manifest_paths_resolve(self, tmp_path):
        base, _ = data.generate_synthetic_dataset(SMALL, tmp_path)
        reloaded = data.load_manifest(tmp_path / "base_manifest.jsonl")
        seq = reloaded.load_sequence(reloaded.entries[0])
        assert seq.features.shape == (SMALL.T, SMALL.d_in)


class TestTrim:
    def seq(self, T=10, intervals=None):
        feats = np.arange(T * 2, dtype=float).reshape(T, 2)
        return data.SegmentFeatureSequence(
            video_id="v", class_label=0, features=feats, gt_intervals=intervals or [])

    def test_single_interval(self):
        out = data.trim_support_video(self.seq(intervals=[(2, 5)]))
        assert out.T == 3
        np.testing.assert_array_equal(out.features, self.seq().features[2:5])
        assert out.gt_intervals == [(0, 3)]

    def test_full_cover_is_identity(self):
        src = self.seq(intervals=[(0, 10)])
        out = data.trim_support_video(src)
        np.testing.assert_array_equal(out.features, src.features)
        assert out.gt_intervals == [(0, 10)]

    def test_two_intervals(self):
        out = data.trim_support_video(self.seq(intervals=[(1, 3), (7, 9)]))
        assert out.T == 4
        np.testing.assert_array_equal(out.features, self.seq().features[[1, 2, 7, 8]])

    def test_empty_intervals_error(self):
        with pytest.raises(DataError):
            data.trim_support_video(self.seq())


@pytest.fixture(scope="module")
def novel(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    _, manifest = data.generate_synthetic_dataset(SMALL, root)
    return manifest


class TestEpisode:
    def test_counts(self, novel):
        draw = data.draw_episode(novel, K=3, n=1, q=3, seed=0)
        assert len(draw.support) == 3
        assert len(draw.queries) == 9
        assert len(set(draw.classes)) == 3
        assert [e.class_label for e in draw.support] == draw.classes  # class by class

    def test_deterministic(self, novel):
        a = data.draw_episode(novel, K=3, n=2, q=2, seed=9)
        b = data.draw_episode(novel, K=3, n=2, q=2, seed=9)
        assert a == b
        for x, y in zip(a.support, b.support):
            assert (novel.load_sequence(x).features.tobytes()
                    == novel.load_sequence(y).features.tobytes())

    def test_support_queries_disjoint(self, novel):
        draw = data.draw_episode(novel, K=3, n=2, q=2, seed=4)
        assert not {e.video_id for e in draw.support} & {e.video_id for e in draw.queries}

    def test_support_is_trimmed(self, novel):
        draw = data.draw_episode(novel, K=3, n=1, q=1, seed=2)
        for entry in draw.support:
            s = data.trim_support_video(novel.load_sequence(entry))
            assert s.gt_intervals == [(0, s.T)]
            assert s.T < SMALL.T  # generator keeps some background in every video

    def test_query_classes_within_sampled(self, novel):
        draw = data.draw_episode(novel, K=2, n=1, q=2, seed=7)
        assert {e.class_label for e in draw.queries} <= set(draw.classes)

    def test_too_many_classes(self, novel):
        with pytest.raises(DataError):
            data.draw_episode(novel, K=99, n=1, q=1, seed=0)

    def test_too_few_videos_names_class(self, novel):
        with pytest.raises(DataError) as err:
            data.draw_episode(novel, K=3, n=3, q=5, seed=0)
        assert "novel" in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_lists_videos_class_by_class(self, novel, K, n, q, seed, e):
        # evaluation reads each video's episode class from its position
        draw = data.draw_episode(novel, K=K, n=n, q=q, seed=[seed, e])
        assert [entry.class_label for entry in draw.support] == list(np.repeat(draw.classes, n))
        assert [entry.class_label for entry in draw.queries] == list(np.repeat(draw.classes, q))

    def test_precomputed_groups_draw_the_same(self, novel):
        groups = novel.by_class()
        for e in range(20):
            plain = data.draw_episode(novel, K=3, n=1, q=2, seed=[5, e])
            grouped = data.draw_episode(novel, K=3, n=1, q=2, seed=[5, e], groups=groups)
            assert plain == grouped
