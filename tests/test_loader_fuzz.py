"""Fuzzed inputs to the loaders: only DataError escapes.

One valid `.segf` file, one valid checkpoint and one valid novel manifest
are mutated (truncated, bit-flipped, extended, or given rewritten header or
entry fields) and loaded. Whatever the mutation, `read_feature_file`,
`load_checkpoint` and `load_manifest` either load the file or raise a
DataError subclass, which the CLI turns into exit 2; any other exception
would be a traceback and exit 1. A strict prefix of a valid binary file, or
one with bytes appended, must not load. Config files, arbitrary bytes or a
valid file with one line changed, are parsed and validated the same way.

The same mutations then go through the commands: on a tiny corpus and
checkpoint, one file is fuzzed per example and every command that reads it
runs with warnings turned into errors. Each must return 0, 2 or 3 and raise
nothing.
"""

import contextlib
import dataclasses
import io
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fewvid import cli, config, data, model
from fewvid.errors import DataError


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(scratch file path, valid .segf bytes, valid checkpoint bytes)."""
    root = tmp_path_factory.mktemp("fuzz")
    data.write_feature_file(np.random.default_rng(0).normal(size=(3, 4)), root / "a.segf")
    params = model.init_params(n_classes=2, d_in=4, d=3, kernel_width=2, attn_width=2, seed=0)
    model.save_checkpoint(params, root / "a.ckpt", {"seed": 0, "ablate": ["cl"]})
    return root / "fuzzed", (root / "a.segf").read_bytes(), (root / "a.ckpt").read_bytes()


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """(scratch file path, valid novel manifest bytes)."""
    root = tmp_path_factory.mktemp("fuzz_manifest")
    data.generate_synthetic_dataset(data.SyntheticConfig(
        n_base_classes=2, n_novel_classes=2, videos_per_class=2, T=4, d_in=3), root)
    return root / "fuzzed.jsonl", (root / "novel_manifest.jsonl").read_bytes()


# mutations that need no header knowledge: (kind, argument)
TRUNCATE = st.tuples(st.just("truncate"), st.integers(0, 10 ** 6))
FLIP = st.tuples(st.just("flip"), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
APPEND = st.tuples(st.just("append"), st.binary(min_size=1, max_size=24))

# header values that are no count at all, or counts far too large for the file
HUGE = st.sampled_from([2 ** 31, 2 ** 32 - 1, 2 ** 40, 2 ** 63, 2 ** 64, 10 ** 30])
BAD_DIM = st.one_of(
    HUGE, st.integers(2 ** 20, 2 ** 80), st.integers(-(2 ** 70), 0), st.booleans(),
    st.floats(), st.lists(st.integers(0, 4), max_size=2), st.text(max_size=3), st.none())
BAD_SHAPE = st.one_of(
    st.lists(BAD_DIM, max_size=3), st.tuples(HUGE, HUGE).map(list), BAD_DIM)
NAME = st.one_of(st.sampled_from(model.PARAM_ORDER), st.text(max_size=8), st.none(),
                 st.integers(), st.lists(st.sampled_from(model.PARAM_ORDER), max_size=1))


def mutate(blob: bytes, kind: str, arg) -> bytes:
    if kind == "truncate":
        return blob[: arg % len(blob)]
    if kind == "flip":
        out = bytearray(blob)
        for bit in arg:
            bit %= 8 * len(out)
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    assert kind == "append"
    return blob + arg


def segf_mutation(blob: bytes, mutation) -> bytes:
    """A `.segf` file's bytes with one TestFeatureFileFuzz mutation applied."""
    if mutation[0] == "field":  # u32 version, T or d_in
        _, at, value = mutation
        return blob[: 4 + 4 * at] + struct.pack("<I", value) + blob[8 + 4 * at :]
    return mutate(blob, *mutation)


def load_or_data_error(load, path, blob: bytes, must_fail: bool):
    path.write_bytes(blob)
    try:
        load(path)
    except DataError:
        return
    assert not must_fail, "a file that must not load loaded"


class TestFeatureFileFuzz:
    SEGF_FIELD = st.tuples(st.just("field"), st.integers(0, 2), st.one_of(
        st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(TRUNCATE, FLIP, APPEND, SEGF_FIELD))
    @example(("field", 1, 2 ** 32 - 1))
    @example(("append", b"\0"))
    def test_only_data_errors_escape(self, valid, mutation):
        path, blob, _ = valid
        load_or_data_error(data.read_feature_file, path, segf_mutation(blob, mutation),
                           must_fail=mutation[0] in ("truncate", "append"))


class TestCheckpointFuzz:
    HEADER_EDIT = st.one_of(
        st.tuples(st.just("shape"), st.integers(0, 4), BAD_SHAPE),
        st.tuples(st.just("dim"), st.integers(0, 9), BAD_DIM),
        st.tuples(st.just("name"), st.integers(0, 4), NAME),
        st.tuples(st.just("drop"), st.integers(0, 4), st.none()),
        st.tuples(st.just("add"), NAME, BAD_SHAPE))

    @staticmethod
    def edit_header(blob: bytes, kind: str, index, value) -> bytes:
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        tensors = header["tensors"]
        if kind == "shape":
            tensors[index]["shape"] = value
        elif kind == "dim":  # index: tensor, then axis
            tensors[index // 2]["shape"][index % 2] = value
        elif kind == "name":  # an existing name duplicates that tensor
            tensors[index]["name"] = value
        elif kind == "drop":
            del tensors[index]
        else:
            tensors.append({"name": index, "shape": value})
        text = json.dumps(header).encode()
        return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :]

    @classmethod
    def mutated(cls, blob: bytes, mutation) -> bytes:
        if mutation[0] in ("truncate", "flip", "append"):
            return mutate(blob, *mutation)
        return cls.edit_header(blob, *mutation)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(TRUNCATE, FLIP, APPEND, HEADER_EDIT))
    @example(("shape", 0, [2 ** 40, 2 ** 40]))  # wraps to 0 in int64
    @example(("dim", 2, 2 ** 64))
    @example(("name", 1, "transform"))
    @example(("add", "bias", [1, 1]))
    @example(("append", b"\0" * 8))
    def test_only_data_errors_escape(self, valid, mutation):
        path, _, blob = valid
        load_or_data_error(model.load_checkpoint, path, self.mutated(blob, mutation),
                           must_fail=mutation[0] in ("truncate", "append"))

    def test_integer_too_long_to_convert(self, valid):
        path, _, blob = valid
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = blob[12 : 12 + header_len].replace(b'"seed": 0', b'"seed": ' + b"7" * 5000)
        assert len(header) > header_len
        blob = blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len :]
        load_or_data_error(model.load_checkpoint, path, blob, must_fail=True)


class TestManifestFuzz:
    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                    max_size=3),
        max_leaves=6)
    # raw JSON text that json.dumps does not make: nesting past the parser's
    # recursion limit, and an integer too long to convert
    DEEP = "[" * 100_000
    RAW = st.one_of(st.sampled_from([10, 500, 100_000]).map(lambda n: "[" * n + "]" * n),
                    st.just(DEEP), st.just("7" * 5000))
    VALUE = st.one_of(JSON.map(json.dumps), RAW)
    FIELD = st.sampled_from(["split", "class_names", "video_id", "class_label", "feature_file",
                             "gt_intervals", "segment_roles"])
    MUTATION = st.one_of(
        TRUNCATE, FLIP,
        st.tuples(st.just("append"), st.lists(st.one_of(st.text(max_size=12), VALUE),
                                              min_size=1, max_size=3)),
        st.tuples(st.just("line"), st.integers(0, 4), VALUE),
        st.tuples(st.just("field"), st.integers(0, 4), FIELD, st.one_of(VALUE, st.none())))
    MARK = "\0fuzzed"

    @classmethod
    def rewrite(cls, blob: bytes, kind: str, *args) -> bytes:
        """Lines appended, or line `row` (0: the header) replaced by raw text,
        or one of its fields set to raw JSON text (dropped if None)."""
        lines = blob.decode().splitlines()
        if kind == "append":
            lines += args[0]
        elif kind == "line":
            row, text = args
            lines[row % len(lines)] = text
        else:
            row, field, text = args
            record = json.loads(lines[row % len(lines)])
            record.pop(field, None)
            if text is not None:
                record[field] = cls.MARK
            lines[row % len(lines)] = json.dumps(record).replace(json.dumps(cls.MARK), text or "")
        return "\n".join(lines).encode()

    @classmethod
    def mutated(cls, blob: bytes, mutation) -> bytes:
        if mutation[0] in ("truncate", "flip"):
            return mutate(blob, *mutation)
        return cls.rewrite(blob, *mutation)

    @settings(max_examples=300, deadline=None)
    @given(MUTATION)
    @example(("line", 0, DEEP))
    @example(("line", 2, DEEP))
    @example(("field", 1, "class_label", "7" * 5000))
    @example(("field", 0, "class_names", DEEP))
    @example(("field", 3, "gt_intervals", "[[[0, 1]]]"))
    @example(("field", 0, "split", None))
    @example(("append", ["{}", "[]"]))
    def test_only_data_errors_escape(self, manifest, mutation):
        path, blob = manifest
        load_or_data_error(data.load_manifest, path, self.mutated(blob, mutation), must_fail=False)


class TestConfigFuzz:
    """Config files are only parsed and validated, never run: a fuzzed
    `episodes` or `d` can ask for unbounded work."""

    # every key at its default, one `key = value` line each
    VALID = "# every key\n" + "".join(
        f"{f.name} = {getattr(config.RunConfig(), f.name)}\n"
        for f in dataclasses.fields(config.RunConfig))
    KEYS = sorted(config.FIELD_TYPES)
    INT_KEYS = [k for k in KEYS if config.FIELD_TYPES[k] is int]
    FLOAT_KEYS = [k for k in KEYS if config.FIELD_TYPES[k] is float]
    # the last is too long for int() to convert
    HUGE_INT = st.one_of(st.integers(min_value=2 ** 63).map(str),
                         st.integers(max_value=-(2 ** 63)).map(str), st.just("9" * 5000))
    # (kind, key, value text); the kinds in MUST_FAIL never validate
    LINE = st.one_of(
        st.tuples(st.just("unknown"),
                  st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True).filter(
                      lambda key: key not in config.FIELD_TYPES), st.text(max_size=8)),
        st.tuples(st.just("value"), st.sampled_from(KEYS), st.text(max_size=12)),
        st.tuples(st.just("non-finite"), st.sampled_from(FLOAT_KEYS), st.sampled_from(
            ["nan", "-NaN", "inf", "-inf", "Infinity", "1e999", "-1e400", "9" * 400])),
        st.tuples(st.just("huge"), st.sampled_from(INT_KEYS + FLOAT_KEYS), HUGE_INT),
        st.tuples(st.just("jobs"), st.just("jobs"),
                  st.one_of(st.integers().filter(lambda v: v != 1).map(str), HUGE_INT)),
        st.tuples(st.just("non-utf-8"), st.sampled_from(KEYS), st.sampled_from(
            [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])))
    MUST_FAIL = {"unknown", "non-finite", "jobs", "non-utf-8"}

    @staticmethod
    def load(path):
        config.build_config(path, {}).validate()

    def test_valid_file_loads_the_defaults(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(self.VALID)
        assert config.build_config(path, {}) == config.RunConfig()

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    @example(b"jobs = 2\n")
    @example(b"d = " + b"9" * 5000 + b"\n")
    def test_arbitrary_bytes(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("cfg", numbered=True) / "fuzzed.cfg"
        load_or_data_error(self.load, path, blob, must_fail=False)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), LINE)
    @example(0, ("jobs", "jobs", "0"))
    @example(0, ("huge", "episodes", "9" * 5000))
    @example(0, ("non-finite", "lr", "nan"))
    def test_one_line_changed(self, tmp_path_factory, row, line):
        kind, key, value = line
        lines = self.VALID.encode().splitlines()
        if key in config.FIELD_TYPES:  # the key's own line, so no later line resets it
            row = lines.index(f"{key} = {getattr(config.RunConfig(), key)}".encode())
        if kind == "non-utf-8":  # into the line's comment, so only the encoding is bad
            lines[row] += b" # " + value
        else:
            lines[row % len(lines)] = f"{key} = {value}".encode()
        path = tmp_path_factory.mktemp("cfg", numbered=True) / "fuzzed.cfg"
        load_or_data_error(self.load, path, b"\n".join(lines) + b"\n",
                           must_fail=kind in self.MUST_FAIL)


CLI_CONFIG = """
n_base_classes = 2
n_novel_classes = 3
videos_per_class = 3
T = 6
d_in = 4
d = 4
kernel_width = 2
attn_width = 4
epochs = 1
batch_size = 8
K = 2
n = 1
q = 1
episodes = 2
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(root, config path): a tiny corpus and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    cfg = root / "run.cfg"
    cfg.write_text(CLI_CONFIG + f"data_dir = {root / 'data'}\nckpt = {root / 'model.ckpt'}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--config", str(cfg)]) == 0
        assert cli.main(["train", "--config", str(cfg)]) == 0
    return root, cfg


class TestCommandExitCodes:
    """Each fuzzed file goes through the commands that read it. Config files
    are only fuzzed in ways that fail at load, so no fuzzed value ever sets
    the amount of work a command does."""

    @staticmethod
    def run_commands(corpus, commands, fuzzed, blob: bytes) -> list:
        """Exit codes of the commands run with `fuzzed` holding `blob`, with
        warnings as errors; the file's own bytes are put back after."""
        root, cfg = corpus
        kept = fuzzed.read_bytes()
        fuzzed.write_bytes(blob)
        # train writes its checkpoint and log aside, not over the corpus's
        extra = {"train": ["--ckpt", str(root / "trained.ckpt")]}
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                return [cli.main([command, "--config", str(cfg), *extra.get(command, [])])
                        for command in commands]
        finally:
            fuzzed.write_bytes(kept)

    def check(self, corpus, commands, fuzzed, blob: bytes):
        codes = self.run_commands(corpus, commands, fuzzed, blob)
        assert set(codes) <= {0, 2, 3}, dict(zip(commands, codes))

    @staticmethod
    def used_novel_files(corpus) -> list:
        """The novel feature files the eval commands' episodes read."""
        root, cfg = corpus
        c = config.build_config(cfg, {})
        novel = data.load_manifest(root / "data" / "novel_manifest.jsonl")
        draws = [data.draw_episode(novel, c.K, c.n, c.q, [c.seed, e]) for e in range(c.episodes)]
        return sorted({entry.feature_file for draw in draws
                       for entry in draw.support + draw.queries})

    def test_corpus_runs_clean(self, corpus):
        _, cfg = corpus
        commands = ["train", "eval-cls", "eval-det", "inspect"]
        assert self.run_commands(corpus, commands, cfg, cfg.read_bytes()) == [0, 0, 0, 0]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 99), st.one_of(TRUNCATE, FLIP, APPEND, TestFeatureFileFuzz.SEGF_FIELD))
    @example(0, ("field", 1, 2 ** 32 - 1))
    def test_novel_feature_file(self, corpus, which, mutation):
        root, _ = corpus
        files = self.used_novel_files(corpus)
        path = root / "data" / files[which % len(files)]
        self.check(corpus, ["eval-cls", "eval-det"], path,
                   segf_mutation(path.read_bytes(), mutation))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 99), st.one_of(TRUNCATE, FLIP, APPEND, TestFeatureFileFuzz.SEGF_FIELD))
    def test_base_feature_file(self, corpus, which, mutation):
        root, _ = corpus
        files = sorted((root / "data" / "base").iterdir())
        path = files[which % len(files)]
        self.check(corpus, ["train", "inspect"], path, segf_mutation(path.read_bytes(), mutation))

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(TRUNCATE, FLIP, APPEND, TestCheckpointFuzz.HEADER_EDIT))
    @example(("name", 1, "transform"))
    @example(("flip", [3678]))  # a transform weight of this checkpoint becomes about 1e308
    def test_checkpoint(self, corpus, mutation):
        root, _ = corpus
        path = root / "model.ckpt"
        self.check(corpus, ["eval-cls", "eval-det", "inspect"], path,
                   TestCheckpointFuzz.mutated(path.read_bytes(), mutation))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([("base", ["train", "inspect"]), ("novel", ["eval-cls", "eval-det"])]),
           TestManifestFuzz.MUTATION)
    @example(("novel", ["eval-cls", "eval-det"]), ("field", 1, "gt_intervals", "[]"))
    def test_manifest(self, corpus, split, mutation):
        root, _ = corpus
        name, commands = split
        path = root / "data" / f"{name}_manifest.jsonl"
        self.check(corpus, commands, path, TestManifestFuzz.mutated(path.read_bytes(), mutation))

    # lines that fail at load, whatever else the file says
    PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
    TYPED_KEYS = [k for k in TestConfigFuzz.KEYS if config.FIELD_TYPES[k] is not str]
    FAILING_LINE = st.one_of(
        TestConfigFuzz.LINE.filter(lambda line: line[0] in {"unknown", "non-finite", "non-utf-8"}),
        # no int, float or bool parses from text that starts with a letter x
        st.tuples(st.just("value"), st.sampled_from(TYPED_KEYS), PRINTABLE.map("x".__add__)))

    @settings(max_examples=40, deadline=None)
    @given(FAILING_LINE)
    @example(("value", "episodes", "x"))
    def test_config_that_fails_at_load(self, corpus, line):
        _, cfg = corpus
        kind, key, value = line
        blob = cfg.read_bytes()
        if kind == "non-utf-8":  # into a comment, so only the encoding is bad
            blob += b"# " + value + b"\n"
        else:
            blob += f"{key} = {value}\n".encode()
        codes = self.run_commands(corpus, list(cli.COMMANDS), cfg, blob)
        assert codes == [2] * len(cli.COMMANDS)

