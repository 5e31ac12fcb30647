"""Feature-file format, manifests, synthetic generator, and episode drawing."""

import errno
import hashlib
import json
import os
import dataclasses
import re
import stat
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fewvid import data, evaluate, model
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


class TestReadFile:
    """`data.read_file`, the one read path for manifests, feature files,
    configs and checkpoints."""

    @pytest.mark.parametrize("size", [0, 1, 5000])
    def test_reads_whole_file(self, tmp_path, size):
        blob = np.random.default_rng(size).bytes(size)
        (tmp_path / "f").write_bytes(blob)
        assert data.read_file(tmp_path / "f", "file") == blob

    def test_reads_past_a_stale_size(self, tmp_path, monkeypatch):
        # a file longer than fstat said when it was opened is read to its end
        blob = np.random.default_rng(1).bytes(3 * data.READ_CHUNK + 5)
        (tmp_path / "f").write_bytes(blob)
        monkeypatch.setattr(data.os, "fstat", lambda fd: os.stat_result((0,) * 10))
        assert data.read_file(tmp_path / "f", "file") == blob

    @pytest.mark.parametrize("size", [0, 1, 5000])
    def test_regular_file_takes_one_read(self, tmp_path, monkeypatch, size):
        blob = np.random.default_rng(size).bytes(size)
        (tmp_path / "f").write_bytes(blob)
        asked, read = [], os.read

        def spy(fd, n):
            asked.append(n)
            return read(fd, n)

        monkeypatch.setattr(data.os, "read", spy)
        assert data.read_file(tmp_path / "f", "file") == blob
        assert asked == [size + 1]

    def test_reads_a_regular_file_past_a_stale_size(self, tmp_path, monkeypatch):
        # a regular file that grew since fstat fills the first read and is
        # read on to its end
        blob = np.random.default_rng(2).bytes(2 * data.READ_CHUNK + 7)
        (tmp_path / "f").write_bytes(blob)
        stale = os.stat_result((stat.S_IFREG,) + (0,) * 5 + (10,) + (0,) * 3)
        monkeypatch.setattr(data.os, "fstat", lambda fd: stale)
        assert data.read_file(tmp_path / "f", "file") == blob

    def test_reads_a_pipe_whole(self, monkeypatch):
        # fstat gives a pipe no size, and a read of a pipe returns only what
        # its writer has written so far (here 4096 bytes at a time), so a
        # short read is not its end: it is read until an empty read
        blob = np.random.default_rng(3).bytes(40_000)  # fits the pipe buffer
        read = os.read
        monkeypatch.setattr(data.os, "read", lambda fd, n: read(fd, min(n, 4096)))
        out, into = os.pipe()
        try:
            os.write(into, blob)
            os.close(into)
            into = None
            assert data.read_file(f"/dev/fd/{out}", "file") == blob
        finally:
            os.close(out)
            if into is not None:
                os.close(into)

    def test_text(self, tmp_path):
        (tmp_path / "t").write_bytes("a = é\n".encode())
        assert data.read_file(tmp_path / "t", "config file", text=True) == "a = é\n"
        (tmp_path / "bad").write_bytes(b"\xff\xfe")
        with pytest.raises(DataError, match=f"cannot read config file {re.escape(str(tmp_path / 'bad'))}: "):
            data.read_file(tmp_path / "bad", "config file", text=True)

    def test_missing_file_named(self, tmp_path):
        path = tmp_path / "absent"
        with pytest.raises(DataError, match=f"cannot read manifest {re.escape(str(path))}: .*No such file"):
            data.read_file(path, "manifest")

    def test_directory_named(self, tmp_path):
        with pytest.raises(DataError, match=f"cannot read checkpoint {re.escape(str(tmp_path))}: .*Is a directory"):
            data.read_file(tmp_path, "checkpoint")

    def test_unreadable_file_named(self, tmp_path, monkeypatch):
        # file modes do not stop a root user, so the refusal is simulated
        path = tmp_path / "locked.segf"
        path.write_bytes(b"SEGF")

        def refuse(fd, n):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(data.os, "read", refuse)
        with pytest.raises(DataError, match=f"cannot read feature file {re.escape(str(path))}: .*Permission denied"):
            data.read_feature_file(path)


class FullDiskFile:
    """A file opened for writing whose `write` or `close` fails as on a full
    disk: an OSError that names no file."""

    def __init__(self, fh, failing):
        self.fh, self.failing = fh, failing

    def _fail(self, method):
        if self.failing == method:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, blob):
        self._fail("write")
        return self.fh.write(blob)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        self._fail("close")


def fill_disk(monkeypatch, failing):
    """Make every file `data` opens a `FullDiskFile` failing at `failing`."""
    monkeypatch.setattr(data, "open", lambda path, mode="r": FullDiskFile(open(path, mode), failing),
                        raising=False)


WRITERS = {
    "write_csv": lambda path: data.write_csv(path, ("a", "b"), [(1, 0.5)]),
    "write_feature_file": lambda path: data.write_feature_file(np.ones((2, 3)), path),
    "save_manifest": lambda path: data.save_manifest(data.DatasetManifest("base", ["a"]), path),
    "save_checkpoint": lambda path: model.save_checkpoint(
        model.init_params(n_classes=2, d_in=3, d=4, kernel_width=3, attn_width=4), path),
}


class TestWriteFailure:
    """A write or close that fails raises DataError naming the path."""

    @pytest.mark.parametrize("failing", ["write", "close"])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_names_path(self, tmp_path, monkeypatch, writer, failing):
        path = tmp_path / "out"
        fill_disk(monkeypatch, failing)
        with pytest.raises(DataError) as err:
            WRITERS[writer](path)
        assert str(err.value) == f"cannot write {path}: No space left on device"


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


def reference_entry_problem(rec: dict, n_classes: int):
    """`data._entry_problem` as a chain of isinstance tests and one set
    inclusion per field: the oracle its one-pass form must equal."""
    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    for key in ("video_id", "feature_file"):
        if not isinstance(rec[key], str):
            return f"{key} must be a string, got {rec[key]!r}"
    if not is_int(rec["class_label"]):
        return f"class_label must be an integer, got {rec['class_label']!r}"
    if not 0 <= rec["class_label"] < n_classes:
        return (f"class_label {rec['class_label']} is outside the "
                f"{n_classes} class_names of the header")
    intervals = rec["gt_intervals"]
    if not (isinstance(intervals, list) and all(
            isinstance(iv, list) and len(iv) == 2 and is_int(iv[0]) and is_int(iv[1])
            and 0 <= iv[0] < iv[1] for iv in intervals)):
        return (f"gt_intervals must be a list of [start, end] integer "
                f"pairs with 0 <= start < end, got {intervals!r}")
    roles = rec.get("segment_roles", "")
    if not (isinstance(roles, str) and set(roles) <= {data.ROLE_FG, data.ROLE_IBG, data.ROLE_NBG}):
        return (f"segment_roles must be a string of {data.ROLE_FG}, {data.ROLE_IBG} "
                f"and {data.ROLE_NBG}, got {roles!r}")
    return None


ABSENT = object()  # a field left out of the record
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text("FINab0", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner,
                                                                 max_size=2),
    max_leaves=6)
pairs = st.lists(st.integers(0, 12), min_size=2, max_size=2, unique=True).map(sorted)
good_records = st.fixed_dictionaries({
    "video_id": st.text(max_size=3), "class_label": st.integers(0, 4),  # of 5 classes
    "feature_file": st.text(max_size=3), "gt_intervals": st.lists(pairs, max_size=3),
    "segment_roles": st.text("FIN", max_size=6)})
# each field's bad values, with good ones among them; a bad interval list
# mostly holds good pairs and one out of order, negative, bool, float,
# short, long or nested item
bad_pairs = (st.lists(st.integers(-2, 12) | st.booleans() | st.floats(-1.0, 12.0),
                      min_size=2, max_size=2)
             | st.lists(st.integers(-2, 12), max_size=3) | json_values)
mutations = {
    "video_id": json_values, "feature_file": json_values,
    "class_label": st.integers(-3, 8) | json_values,
    "gt_intervals": st.builds(lambda good, bad, at: good[:at] + [bad] + good[at:],
                              st.lists(pairs, max_size=3), bad_pairs, st.integers(0, 3))
                    | json_values,
    "segment_roles": st.text("FINfx ", min_size=1, max_size=6) | json_values | st.just(ABSENT),
}


GOOD_RECORD = {"video_id": "v", "class_label": 1, "feature_file": "v.segf",
               "gt_intervals": [[0, 2], [4, 5]], "segment_roles": "FIN"}


class TestEntryProblemOracle:
    @settings(max_examples=500, deadline=None)
    @given(good_records, st.data())
    @example(GOOD_RECORD, None)
    # a bool that orders as an int, a non-list, a role letter among others
    @example(dict(GOOD_RECORD, class_label=True), None)
    @example(dict(GOOD_RECORD, gt_intervals=[[0, 2], [0, True]]), None)
    @example(dict(GOOD_RECORD, gt_intervals="0-3"), None)
    @example(dict(GOOD_RECORD, segment_roles="FxN"), None)
    def test_one_pass_check_equals_reference(self, rec, data_):
        if data_ is not None:  # None: the record as given
            for field in data_.draw(st.lists(st.sampled_from(sorted(mutations)), min_size=1,
                                             max_size=2, unique=True)):
                rec[field] = data_.draw(mutations[field], label=field)
        # records as a manifest line holds them: the types json.loads yields
        rec = json.loads(json.dumps({k: v for k, v in rec.items() if v is not ABSENT}))
        assert data._entry_problem(rec, 5) == reference_entry_problem(rec, 5)


class TestReadVideos:
    """`DatasetManifest.read_videos`, the one reader of every command's
    videos."""

    WIDTHS = {"a.segf": (4, 3), "b.segf": (5, 3), "c.segf": (4, 5)}  # file -> (T, d_in)

    def manifest(self, tmp_path, *entries):
        """A manifest of (video_id, feature_file, gt_intervals, segment_roles)
        entries over WIDTHS' files."""
        for name, shape in self.WIDTHS.items():
            data.write_feature_file(np.ones(shape), tmp_path / name)
        return data.DatasetManifest(split="base", class_names=["x"], root=tmp_path, entries=[
            data.ManifestEntry(video_id=v, class_label=0, feature_file=f, gt_intervals=iv,
                               segment_roles=roles) for v, f, iv, roles in entries])

    def counted(self, monkeypatch):
        reads, read = [], data.read_feature_file

        def counting_read(path):
            reads.append(os.path.basename(path))
            return read(path)

        monkeypatch.setattr(data, "read_feature_file", counting_read)
        return reads

    def test_shared_file_read_once(self, tmp_path, monkeypatch):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [(0, 2)], ""),
                                 ("b", "b.segf", [], ""), ("twin", "a.segf", [(1, 4)], "FFFI"))
        reads = self.counted(monkeypatch)
        videos = manifest.read_videos([0, 1, 2, 2, 0])
        assert reads == ["a.segf", "b.segf"]
        assert videos[2] is videos[0] and videos[0].shape == (4, 3)
        assert videos[1].shape == (5, 3)

    @pytest.mark.parametrize("field, value, reason", [
        ("gt_intervals", [(0, 5)], "interval (0, 5) is not inside its 4 segments"),
        ("gt_intervals", [(2, 3), (0, 1)], "intervals overlap or are unsorted"),
        ("segment_roles", "FIN", "segment_roles has 3 roles for its 4 segments")])
    def test_entry_sharing_a_file_is_checked(self, tmp_path, field, value, reason):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [(0, 2)], ""),
                                 ("twin", "a.segf", [], ""))
        manifest.entries[1] = dataclasses.replace(manifest.entries[1], **{field: value})
        with pytest.raises(DataError) as err:
            manifest.read_videos([0, 1])
        assert str(err.value) == f"twin: {reason}"

    @pytest.mark.parametrize("field, value, reason", [
        ("gt_intervals", [(3, 5)], "interval (3, 5) is not inside its 4 segments"),
        ("segment_roles", "FIFIF", "segment_roles has 5 roles for its 4 segments")])
    def test_sole_entry_of_a_file_is_checked(self, tmp_path, field, value, reason):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [(0, 2)], "FFII"))
        assert manifest.read_videos([0])[0].shape == (4, 3)
        manifest.entries[0] = dataclasses.replace(manifest.entries[0], **{field: value})
        with pytest.raises(DataError) as err:
            manifest.read_videos([0])
        assert str(err.value) == f"a: {reason}"

    @pytest.mark.parametrize("indices, order", [
        ([[2, 1], [1, 0]], [2, 1, 0]), (np.array([[[1]], [[0]]]), [1, 0]), (range(3), [0, 1, 2]),
        ([], [])])
    def test_indices_of_any_shape_in_first_use_order(self, tmp_path, indices, order):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [], ""), ("b", "b.segf", [], ""),
                                 ("c", "a.segf", [], ""))
        assert list(manifest.read_videos(indices, d_in=3)) == order

    def test_matching_width_passes(self, tmp_path):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [], ""), ("b", "b.segf", [], ""))
        videos = manifest.read_videos([1, 0], d_in=3)
        assert [v.shape for v in videos.values()] == [(5, 3), (4, 3)]

    @pytest.mark.parametrize("d_in, source", [(None, "a.segf"), (3, None)],
                             ids=["first file", "checkpoint"])
    def test_mismatch_names_source_and_width(self, tmp_path, d_in, source):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [], ""), ("c", "c.segf", [], ""))
        source = tmp_path / source if source else "the checkpoint"
        with pytest.raises(DataError) as err:
            manifest.read_videos([0, 1], d_in)
        assert str(err.value) == (f"{tmp_path / 'c.segf'}: features are 5 wide, but {source} "
                                  f"is 3 wide (d_in = 3)")

    @pytest.mark.parametrize("d_in", [None, 3])
    def test_entry_error_before_width_error(self, tmp_path, d_in):
        manifest = self.manifest(tmp_path, ("a", "a.segf", [], ""), ("c", "c.segf", [(0, 9)], ""))
        with pytest.raises(DataError, match=re.escape("c: interval (0, 9) is not inside")):
            manifest.read_videos([0, 1], d_in)


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
            videos = manifest.read_videos(range(len(manifest.entries)))
            for entry, rows in zip(manifest.entries, videos.values()):
                roles = entry.segment_roles
                assert len(roles) == len(rows)
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
        assert reloaded.read_videos([0])[0].shape == (SMALL.T, SMALL.d_in)


class TestTrim:
    FEATURES = np.arange(20, dtype=float).reshape(10, 2)

    def test_single_interval(self):
        out = data.trim_support_rows("v", self.FEATURES, [(2, 5)])
        np.testing.assert_array_equal(out, self.FEATURES[2:5])

    def test_full_cover_is_identity(self):
        out = data.trim_support_rows("v", self.FEATURES, [(0, 10)])
        np.testing.assert_array_equal(out, self.FEATURES)

    def test_two_intervals(self):
        out = data.trim_support_rows("v", self.FEATURES, [(1, 3), (7, 9)])
        np.testing.assert_array_equal(out, self.FEATURES[[1, 2, 7, 8]])

    def test_empty_intervals_error(self):
        with pytest.raises(DataError, match="^v: cannot trim without ground-truth intervals$"):
            data.trim_support_rows("v", self.FEATURES, [])


class TestOneHandleOnANovelVideo:
    def test_per_video_wrappers_are_gone(self):
        # an entry index and its checked rows are the only handle on a novel
        # video: episodes are index arrays, supports are trimmed rows
        gone = [(data, "draw_episode"), (data, "EpisodeDraw"), (data, "trim_support_video"),
                (evaluate, "support_mean"), (data.DatasetManifest, "sequence"),
                (data, "SegmentFeatureSequence"), (data.DatasetManifest, "load_sequence")]
        assert [name for owner, name in gone if hasattr(owner, name)] == []


@pytest.fixture(scope="module")
def novel(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    _, manifest = data.generate_synthetic_dataset(SMALL, root)
    return manifest


def labels_of(manifest, indices) -> list:
    """The class labels of the manifest entries at `indices`."""
    return [manifest.entries[i].class_label for i in indices]


def listed_draw(novel, K, n, q, seed):
    """One episode's (sampled labels, support entries, query entries), drawn
    with entry lists: the form the call-level draw must reproduce, RNG call
    for RNG call."""
    rng = np.random.default_rng(seed)
    groups = {}
    for entry in novel.entries:
        groups.setdefault(entry.class_label, []).append(entry)
    labels = sorted(groups)
    if K > len(labels):
        raise DataError(f"episode needs {K} classes but the manifest has {len(labels)}")
    classes = [labels[i] for i in rng.choice(len(labels), size=K, replace=False)]
    support, queries = [], []
    for label in classes:
        pool = groups[label]
        if len(pool) < n + q:
            name = novel.class_names[label]
            raise DataError(f"class {name} has {len(pool)} videos, episode needs {n + q}")
        picks = rng.choice(len(pool), size=n + q, replace=False)
        support.extend(pool[j] for j in picks[:n])
        queries.extend(pool[j] for j in picks[n:])
    return classes, support, queries


class TestEpisode:
    def test_counts(self, novel):
        classes, support, queries = data.draw_episodes(novel, K=3, n=1, q=3, seeds=[0])
        assert (classes.shape, support.shape, queries.shape) == ((1, 3), (1, 3), (1, 9))
        assert len(set(classes[0].tolist())) == 3
        assert labels_of(novel, support[0]) == classes[0].tolist()  # class by class

    def test_deterministic(self, novel):
        a = data.draw_episodes(novel, K=3, n=2, q=2, seeds=[9])
        b = data.draw_episodes(novel, K=3, n=2, q=2, seeds=[9])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_support_queries_disjoint(self, novel):
        _, support, queries = data.draw_episodes(novel, K=3, n=2, q=2, seeds=[4])
        assert not ({novel.entries[i].video_id for i in support[0]}
                    & {novel.entries[i].video_id for i in queries[0]})

    def test_support_is_trimmed(self, novel):
        _, support, _ = data.draw_episodes(novel, K=3, n=1, q=1, seeds=[2])
        rows = novel.read_videos(support)
        for i in support[0].tolist():
            entry = novel.entries[i]
            trimmed = data.trim_support_rows(entry.video_id, rows[i], entry.gt_intervals)
            assert len(trimmed) == sum(end - start for start, end in entry.gt_intervals)
            assert len(trimmed) < SMALL.T  # generator keeps some background in every video

    def test_query_classes_within_sampled(self, novel):
        classes, _, queries = data.draw_episodes(novel, K=2, n=1, q=2, seeds=[7])
        assert set(labels_of(novel, queries[0])) <= set(classes[0].tolist())

    def test_too_many_classes(self, novel):
        with pytest.raises(DataError):
            data.draw_episodes(novel, K=99, n=1, q=1, seeds=[0])

    def test_too_few_videos_names_class(self, novel):
        with pytest.raises(DataError) as err:
            data.draw_episodes(novel, K=3, n=3, q=5, seeds=[0])
        assert "novel" in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_lists_videos_class_by_class(self, novel, K, n, q, seed, e):
        # evaluation reads each video's episode class from its position
        classes, support, queries = data.draw_episodes(novel, K=K, n=n, q=q, seeds=[[seed, e]])
        assert labels_of(novel, support[0]) == list(np.repeat(classes[0], n))
        assert labels_of(novel, queries[0]) == list(np.repeat(classes[0], q))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 5), max_size=6) | st.lists(st.integers(0, 2**32 - 1),
                                                              max_size=3),
           st.permutations(range(18)), st.integers(9, 18))
    @example(K=4, n=1, q=1, seed=0, ids=[0], order=list(range(18)), kept=18)
    @example(K=2, n=3, q=4, seed=0, ids=[3, 1], order=list(range(18)), kept=18)
    @example(K=3, n=1, q=1, seed=2, ids=[], order=list(range(18)), kept=9)
    # a pool of exactly n + q and K of K classes: Floyd's first step draws nothing
    @example(K=2, n=2, q=4, seed=5, ids=[0, 1, 2, 3], order=list(range(18)), kept=18)
    @example(K=3, n=1, q=2, seed=5, ids=[0, 1, 2, 3], order=list(range(18)), kept=18)
    def test_call_draw_equals_each_episode(self, novel, K, n, q, seed, ids, order, kept):
        # a manifest of some entries in shuffled order: uneven classes, each
        # pool in manifest order; unsorted and repeated episode ids
        manifest = dataclasses.replace(novel, entries=[novel.entries[i] for i in order[:kept]])
        listed, error = [], None
        try:
            listed = [listed_draw(manifest, K, n, q, [seed, e]) for e in ids]
        except DataError as err:
            error = str(err)
        if error:
            with pytest.raises(DataError) as got:
                data.draw_episodes(manifest, K, n, q, [[seed, e] for e in ids])
            assert str(got.value) == error
            return
        drawn = data.draw_episodes(manifest, K, n, q, [[seed, e] for e in ids])
        classes, support, queries = drawn
        assert (classes.shape, support.shape, queries.shape) == (
            (len(ids), K), (len(ids), K * n), (len(ids), K * q))
        for row, (e, want) in enumerate(zip(ids, listed)):
            alone = data.draw_episodes(manifest, K, n, q, [[seed, e]])
            assert all(np.array_equal(one[0], call[row]) for one, call in zip(alone, drawn))
            assert classes[row].tolist() == want[0]
            for indices, entries in ((support[row], want[1]), (queries[row], want[2])):
                assert len(indices) == len(entries)
                assert all(manifest.entries[i] is entry for i, entry in zip(indices, entries))

    def test_error_texts(self, novel):
        with pytest.raises(DataError, match=r"^episode needs 4 classes but the manifest has 3$"):
            data.draw_episodes(novel, 4, 1, 1, [[0, 0]])
        with pytest.raises(DataError, match=r"^class novel\d\d has 6 videos, episode needs 7$"):
            data.draw_episodes(novel, 2, 3, 4, [[0, 0]])
        # no episode, no error
        assert [a.shape for a in data.draw_episodes(novel, 4, 1, 1, [])] == [(0, 4), (0, 4),
                                                                             (0, 4)]


def entries_manifest(sizes) -> data.DatasetManifest:
    """A manifest of entries only, classes interleaved: `sizes[c]` videos of
    class c, no feature file behind any of them."""
    labels = [c for v in range(max(sizes)) for c in range(len(sizes)) if v < sizes[c]]
    return data.DatasetManifest(
        split="novel", class_names=[f"novel{c:02d}" for c in range(len(sizes))],
        entries=[data.ManifestEntry(f"v{i}", c, f"v{i}.segf", [(0, 1)])
                 for i, c in enumerate(labels)])


def assert_listed(manifest, K, n, q, seeds):
    """`draw_episodes` equals `listed_draw` on every seed."""
    classes, support, queries = data.draw_episodes(manifest, K, n, q, seeds)
    for row, seed in enumerate(seeds):
        want = listed_draw(manifest, K, n, q, seed)
        assert classes[row].tolist() == want[0]
        assert [manifest.entries[i] for i in support[row]] == want[1]
        assert [manifest.entries[i] for i in queries[row]] == want[2]


class TestEpisodeStreams:
    """The call-level draw samples each episode from its PCG64 stream and
    hands `Generator.choice` the episodes that stream cannot give."""

    def test_benchmark_shape_call(self):
        # 5-way 1-shot 5-query, 100 episodes, 10 classes of 30 videos
        assert_listed(entries_manifest([30] * 10), 5, 1, 5, [[3, e] for e in range(100)])

    def test_rejected_draw_is_flagged(self):
        # 5 of 10 classes: Floyd's first draw is in [0, 5], which rejects a
        # uint32 whose x * 6 has its low 32 bits below 2**32 mod 6 = 4
        stream = np.full((1, 64), 2**32 - 1, dtype=np.uint32)  # never rejected
        stream[0, 0] = 0
        _, _, redo = data._choose(stream, np.array([0]), np.array([0]), np.array([10]), 5)
        assert redo.tolist() == [True]
        stream[0, 0] = 1  # 6 is not below 4
        _, _, redo = data._choose(stream, np.array([0]), np.array([0]), np.array([10]), 5)
        assert redo.tolist() == [False]

    def test_rejected_episode_equals_choice(self, monkeypatch):
        class FirstWordZero(np.random.PCG64):
            """PCG64 whose first uint32 is 0. `default_rng` makes its own
            PCG64, so only the call-level stream starts with it."""
            def random_raw(self, size=None):
                raw = super().random_raw(size)
                raw[0] &= np.uint64(0xFFFFFFFF00000000)
                return raw

        manifest = entries_manifest([30] * 10)
        seeds = [[3, e] for e in range(4)]
        monkeypatch.setattr(np.random, "PCG64", FirstWordZero)
        assert_listed(manifest, 5, 1, 5, seeds)

    def test_tail_shuffled_pool_equals_choice(self):
        # a pool above FLOYD_MAX_POP whose sample is above pop // 50: NumPy
        # shuffles its tail instead of Floyd's sampling
        manifest = entries_manifest([10001])
        assert_listed(manifest, 1, 100, 200, [[8, e] for e in range(2)])

    def test_memory_of_a_long_call(self):
        # only index arrays grow with the episode count: 4000 episodes peak
        # within twice the arrays they return
        manifest = entries_manifest([30] * 10)
        seeds = [[0, e] for e in range(4000)]
        tracemalloc.start()
        try:
            drawn = data.draw_episodes(manifest, 5, 1, 5, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sum(a.nbytes for a in drawn)
