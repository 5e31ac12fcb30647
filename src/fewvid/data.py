"""Datasets: feature-file I/O, manifests, the synthetic generator, episodes.

A video is a sequence of T pre-extracted segment features. Base-class videos
are untrimmed and carry only a video-level label at training time; their
ground-truth intervals and per-segment roles exist in the manifest purely for
diagnostics. Novel-class videos are used episodically: trimmed support plus
untrimmed queries.

The synthetic generator builds the hard case this method targets: part of the
novel-class foreground concepts are literally base-video background concepts,
so a model that learned to suppress base background will suppress novel
foreground too unless the background handling is careful.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (BadMagicError, DataError, MalformedFileError, TruncatedFileError,
                     VersionError)

SEGF_MAGIC = b"SEGF"
SEGF_VERSION = 1
READ_CHUNK = 1 << 16  # read size past the first read of a file that grew

# roles used in manifests and inspection output
ROLE_FG = "F"
ROLE_IBG = "I"
ROLE_NBG = "N"

NBG_NOISE_FACTOR = 1.5
NBG_FRACTION = 0.4  # share of non-FG segments that are non-informative
FG_FRACTION_RANGE = (0.25, 0.5)  # share of segments inside ground-truth intervals


def check_segments(video_id: str, gt_intervals, segment_roles: str, T: int):
    """Raise DataError naming the video unless its (start, end) intervals are
    sorted, do not overlap and lie inside its T segments, and its
    segment_roles are empty or one per segment: the check every entry's
    rows pass before use (`DatasetManifest.read_videos`)."""
    prev_end = 0
    for start, end in gt_intervals:
        if not (0 <= start < end <= T):
            raise DataError(f"{video_id}: interval ({start}, {end}) is not inside "
                            f"its {T} segments")
        if start < prev_end:
            raise DataError(f"{video_id}: intervals overlap or are unsorted")
        prev_end = end
    if segment_roles and len(segment_roles) != T:
        raise DataError(f"{video_id}: segment_roles has {len(segment_roles)} "
                        f"roles for its {T} segments")


@dataclass
class ManifestEntry:
    video_id: str
    class_label: int
    feature_file: str  # relative to the manifest's directory
    gt_intervals: list
    segment_roles: str = ""  # generator diagnostics: one of F/I/N per segment


@dataclass
class DatasetManifest:
    split: str  # "base" or "novel"
    class_names: list
    entries: list = field(default_factory=list)
    root: Path = None  # directory feature_file paths resolve against

    def class_labels(self):
        return sorted({e.class_label for e in self.entries})

    def read_videos(self, indices, d_in: int = None) -> dict:
        """{entry index: its checked (T, d_in) feature rows} for the entry
        indices in `indices` (any shape), in first-use order.

        Each feature file is read once; entries that share it share its rows.
        Every entry is checked against its rows (`check_segments`), and then
        each file's width against `d_in`, the checkpoint's, or with d_in None
        against the first file read. Raises DataError naming the video or the
        file.
        """
        distinct, first = np.unique(np.asarray(indices, dtype=np.intp), return_index=True)
        files, videos, source = {}, {}, "the checkpoint"  # feature file -> its rows
        for i in distinct[np.argsort(first)].tolist():
            entry = self.entries[i]
            rows = files.get(entry.feature_file)
            if rows is None:
                path = os.path.join(self.root, entry.feature_file)
                rows = files[entry.feature_file] = read_feature_file(path)
            check_segments(entry.video_id, entry.gt_intervals, entry.segment_roles, len(rows))
            # a shared file's rows passed when first read, so only a file just read can fail
            if d_in is None:
                d_in, source = rows.shape[1], path
            elif rows.shape[1] != d_in:
                raise DataError(f"{path}: features are {rows.shape[1]} wide, but {source} is "
                                f"{d_in} wide (d_in = {d_in})")
            videos[i] = rows
        return videos


def write_feature_file(features: np.ndarray, path):
    """Serialize a (T, d_in) matrix: magic, u32 version, u32 T, u32 d_in,
    then T*d_in float32 values, all little-endian, row-major."""
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {features.shape}")
    t, d = features.shape
    with open_for_writing(path, "wb") as fh:
        fh.write(SEGF_MAGIC)
        fh.write(struct.pack("<III", SEGF_VERSION, t, d))
        fh.write(features.tobytes())


@contextlib.contextmanager
def open_for_writing(path, mode: str = "w"):
    """`open(path, mode)` for writing, raising DataError "cannot write
    {path}: ..." for an OSError from opening, writing or closing the file:
    the OSError of a failed write or close names no file."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as err:
        raise DataError(f"cannot write {path}: {err.strerror or err}") from err


def check_writable(path, make_parent: bool = False):
    """Raise DataError naming `path` unless a file can be written there: it
    is not a directory, no directory on its way is a file, and its parent
    exists, or with `make_parent` can be created (it is created). An
    existing file is left as it is."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    file = next((parent for parent in path.parents if parent.is_file()), None)
    if file:
        raise DataError(f"cannot write {path}: {file} is a file")
    if make_parent:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise DataError(f"cannot write {path}: cannot create its directory: "
                            f"{err.strerror}") from err
    elif not path.parent.is_dir():
        raise DataError(f"cannot write {path}: {path.parent} does not exist")


def read_file(path, what: str, text: bool = False):
    """The file's bytes, or with `text` its UTF-8 text. Raises DataError
    "cannot read {what} {path}: ..." when it cannot be read or decoded.

    Reads with `os.read` until end of file; the first read asks for the size
    `os.fstat` gives plus one byte. A regular file that gives fewer bytes
    than asked is at its end, so it takes that one read; anything else (a
    pipe, a file that grew since `fstat`) is read until an empty read.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            st = os.fstat(fd)
            chunks, size = [], st.st_size + 1
            while chunk := os.read(fd, size):
                chunks.append(chunk)
                if len(chunk) < size and stat.S_ISREG(st.st_mode):
                    break
                size = READ_CHUNK
        finally:
            os.close(fd)
        blob = b"".join(chunks)
        return blob.decode("utf-8") if text else blob
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {what} {path}: {err}") from err


def csv_text(columns, rows) -> str:
    """A header line of `columns`, then one comma-joined line per row:
    strings and integers as written, floats as %.17g, which round-trips."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (str, int, np.integer)) else "%.17g" % v
                              for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, columns, rows):
    """Write `csv_text(columns, rows)` to `path`."""
    with open_for_writing(path) as fh:
        fh.write(csv_text(columns, rows))


def read_feature_file(path) -> np.ndarray:
    blob = read_file(path, "feature file")
    if blob[:4] != SEGF_MAGIC:
        raise BadMagicError(f"{path}: expected magic {SEGF_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: header needs 16 bytes, file has {len(blob)}")
    version, t, d = struct.unpack_from("<III", blob, 4)
    if version != SEGF_VERSION:
        raise VersionError(f"{path}: unsupported version {version}, expected {SEGF_VERSION}")
    if t == 0 or d == 0:
        raise MalformedFileError(f"{path}: declares an empty {t}x{d} feature matrix")
    need = 16 + 4 * t * d
    if len(blob) < need:
        raise TruncatedFileError(f"{path}: declared {t}x{d} needs {need} bytes, file has {len(blob)}")
    if len(blob) > need:
        raise MalformedFileError(f"{path}: {len(blob) - need} bytes follow the declared "
                                 f"{t}x{d} matrix")
    features = np.frombuffer(blob, "<f4", count=t * d, offset=16).reshape(t, d)
    # checked before the cast: casting a signalling NaN warns
    if not np.logical_and.reduce(np.isfinite(features), axis=None):
        raise MalformedFileError(f"{path}: holds non-finite (nan or inf) feature values")
    return features.astype(np.float64)


def save_manifest(manifest: DatasetManifest, path):
    path = Path(path)
    with open_for_writing(path) as fh:
        fh.write(json.dumps({"split": manifest.split, "class_names": manifest.class_names}) + "\n")
        for e in manifest.entries:
            fh.write(json.dumps({
                "video_id": e.video_id,
                "class_label": e.class_label,
                "feature_file": e.feature_file,
                "gt_intervals": [list(iv) for iv in e.gt_intervals],
                "segment_roles": e.segment_roles,
            }) + "\n")


def _entry_problem(rec: dict, n_classes: int):
    """What is wrong with a manifest record, or None when it has string
    video_id and feature_file, an int class_label indexing the header's
    n_classes class_names, a list of [start, end] int pairs with
    0 <= start < end as gt_intervals, and, if present, a string of F/I/N as
    segment_roles. The record comes from json.loads, whose values have
    exactly the types str, int, float, bool, list, dict or None, so exact
    type tests keep a bool out of int."""
    for key in ("video_id", "feature_file"):
        if type(rec[key]) is not str:
            return f"{key} must be a string, got {rec[key]!r}"
    label = rec["class_label"]
    if type(label) is not int:
        return f"class_label must be an integer, got {label!r}"
    if not 0 <= label < n_classes:
        return f"class_label {label} is outside the {n_classes} class_names of the header"
    intervals = rec["gt_intervals"]
    for iv in intervals if type(intervals) is list else [None]:  # a non-list: one bad pair
        if not (type(iv) is list and len(iv) == 2 and type(iv[0]) is int
                and type(iv[1]) is int and 0 <= iv[0] < iv[1]):
            return (f"gt_intervals must be a list of [start, end] integer "
                    f"pairs with 0 <= start < end, got {intervals!r}")
    roles = rec.get("segment_roles", "")
    if type(roles) is not str or roles.strip(ROLE_FG + ROLE_IBG + ROLE_NBG):
        return (f"segment_roles must be a string of {ROLE_FG}, {ROLE_IBG} "
                f"and {ROLE_NBG}, got {roles!r}")
    return None


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    lines = [line for line in read_file(path, "manifest", text=True).splitlines()
             if line.strip()]
    if not lines:
        raise DataError(f"{path}: empty manifest")
    try:
        header = json.loads(lines[0])
        manifest = DatasetManifest(
            split=header["split"], class_names=header["class_names"], root=path.parent)
        if not isinstance(manifest.class_names, list):
            raise DataError(f"{path}: header class_names must be a list, "
                            f"got {manifest.class_names!r}")
        for i, line in enumerate(lines[1:]):
            rec = json.loads(line)
            problem = _entry_problem(rec, len(manifest.class_names))
            if problem:
                raise DataError(f"{path}: entry {i}: {problem}")
            manifest.entries.append(ManifestEntry(
                video_id=rec["video_id"],
                class_label=rec["class_label"],
                feature_file=rec["feature_file"],
                gt_intervals=[tuple(iv) for iv in rec["gt_intervals"]],
                segment_roles=rec.get("segment_roles", ""),
            ))
    # a JSONDecodeError or an integer too long to convert is a ValueError
    except (ValueError, RecursionError, KeyError, TypeError) as err:
        raise DataError(f"{path}: malformed manifest: {err}") from err
    return manifest


@dataclass
class SyntheticConfig:
    n_base_classes: int = 20
    n_novel_classes: int = 10
    videos_per_class: int = 30
    T: int = 20
    d_in: int = 32
    ibg_concepts: int = 12  # shared informative-background pool
    nbg_concepts: int = 3  # few non-informative concepts (logos, credits)
    overlap_fraction: float = 0.5  # novel FG concepts drawn from the base IBG pool
    noise_std: float = 0.5
    seed: int = 0

    def validate(self):
        for name in ("n_base_classes", "n_novel_classes", "videos_per_class",
                     "T", "d_in", "ibg_concepts", "nbg_concepts"):
            if getattr(self, name) < 1:
                raise DataError(f"SyntheticConfig.{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise DataError(f"overlap_fraction must be in [0, 1], got {self.overlap_fraction}")
        if self.noise_std < 0.0:
            raise DataError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        return self


def _unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def draw_concepts(cfg: SyntheticConfig, rng):
    """Latent concept vectors: one FG concept per class plus shared pools.

    Exactly ceil(overlap_fraction * n_novel) novel classes reuse a base IBG
    concept as their foreground, which is what makes the benchmark hard.
    """
    concepts = {
        "base_fg": _unit_rows(rng, cfg.n_base_classes, cfg.d_in),
        "ibg": _unit_rows(rng, cfg.ibg_concepts, cfg.d_in),
        "nbg": _unit_rows(rng, cfg.nbg_concepts, cfg.d_in),
        "novel_fg": _unit_rows(rng, cfg.n_novel_classes, cfg.d_in),
    }
    n_over = int(np.ceil(cfg.overlap_fraction * cfg.n_novel_classes))
    if n_over > 0:
        which = rng.choice(cfg.n_novel_classes, size=n_over, replace=False)
        pool = rng.choice(cfg.ibg_concepts, size=n_over, replace=n_over > cfg.ibg_concepts)
        concepts["novel_fg"][which] = concepts["ibg"][pool]
        concepts["overlapped_novel"] = np.sort(which)
    else:
        concepts["overlapped_novel"] = np.array([], dtype=int)
    return concepts


def _place_fg_intervals(rng, T):
    """1-3 foreground intervals covering a minority of the video,
    separated by at least one background segment."""
    n_int = int(rng.integers(1, 4))
    total_fg = int(round(T * rng.uniform(*FG_FRACTION_RANGE)))
    total_fg = max(1, min(total_fg, max(1, T - 2)))  # keep some background around
    n_int = min(n_int, total_fg, (T - total_fg) + 1)
    # split total_fg into n_int positive parts
    if n_int > 1:
        cuts = np.sort(rng.choice(np.arange(1, total_fg), size=n_int - 1, replace=False))
        lengths = np.diff(np.concatenate([[0], cuts, [total_fg]]))
    else:
        lengths = np.array([total_fg])
    # distribute the free space: interior gaps get 1 guaranteed segment
    free = T - total_fg - (n_int - 1)
    bounds = np.sort(rng.integers(0, free + 1, size=n_int))
    gaps = np.diff(np.concatenate([[0], bounds]))  # leading gap + interior extras
    intervals, at = [], 0
    for i, length in enumerate(lengths):
        at += int(gaps[i]) + (1 if i > 0 else 0)
        intervals.append((at, at + int(length)))
        at += int(length)
    return intervals


def _nbg_positions(rng, candidates, T, count):
    # end-of-video bias: logos and credits live near the edges
    pos = np.asarray(candidates)
    dist_to_edge = np.minimum(pos, T - 1 - pos)
    weights = 1.0 + 3.0 * (1.0 - dist_to_edge / (T / 2.0))
    weights = weights / weights.sum()
    return rng.choice(pos, size=count, replace=False, p=weights)


def _synthesize_video(rng, cfg, fg_concept, ibg_pool, nbg_pool):
    T = cfg.T
    intervals = _place_fg_intervals(rng, T)
    roles = np.full(T, ROLE_IBG, dtype="U1")
    for start, end in intervals:
        roles[start:end] = ROLE_FG
    bg_idx = np.flatnonzero(roles != ROLE_FG)
    n_nbg = int(round(NBG_FRACTION * bg_idx.size))
    if n_nbg:
        roles[_nbg_positions(rng, bg_idx, T, n_nbg)] = ROLE_NBG

    feats = np.empty((T, cfg.d_in))
    for i in range(T):
        if roles[i] == ROLE_FG:
            base = fg_concept
            std = cfg.noise_std
        elif roles[i] == ROLE_IBG:
            base = ibg_pool[rng.integers(len(ibg_pool))]
            std = cfg.noise_std
        else:
            base = nbg_pool[rng.integers(len(nbg_pool))]
            std = cfg.noise_std * NBG_NOISE_FACTOR
        feats[i] = base + rng.normal(scale=std, size=cfg.d_in)
    return feats, intervals, "".join(roles)


def generate_synthetic_dataset(cfg: SyntheticConfig, out_dir):
    """Write the dataset tree {base/, novel/, *_manifest.jsonl} under out_dir.

    Deterministic given cfg.seed: one generator drives concept draws and all
    videos in a fixed iteration order.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    rng = np.random.default_rng(cfg.seed)
    concepts = draw_concepts(cfg, rng)

    class_names = ([f"base{i:02d}" for i in range(cfg.n_base_classes)]
                   + [f"novel{i:02d}" for i in range(cfg.n_novel_classes)])
    manifests = {}
    for split, n_classes, label_base, fg_concepts in (
        ("base", cfg.n_base_classes, 0, concepts["base_fg"]),
        ("novel", cfg.n_novel_classes, cfg.n_base_classes, concepts["novel_fg"]),
    ):
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        manifest = DatasetManifest(split=split, class_names=class_names, root=out_dir)
        for cls in range(n_classes):
            for vid in range(cfg.videos_per_class):
                feats, intervals, roles = _synthesize_video(
                    rng, cfg, fg_concepts[cls], concepts["ibg"], concepts["nbg"])
                video_id = f"{split}_c{cls:03d}_v{vid:03d}"
                rel = f"{split}/{video_id}.segf"
                write_feature_file(feats, out_dir / rel)
                manifest.entries.append(ManifestEntry(
                    video_id=video_id,
                    class_label=label_base + cls,
                    feature_file=rel,
                    gt_intervals=intervals,
                    segment_roles=roles,
                ))
        save_manifest(manifest, out_dir / f"{split}_manifest.jsonl")
        manifests[split] = manifest
    return manifests["base"], manifests["novel"]


def trim_support_rows(video_id: str, features: np.ndarray, gt_intervals) -> np.ndarray:
    """The rows of a video's annotated foreground segments, concatenated in
    order; the intervals must already be checked against the rows
    (`check_segments`)."""
    if not gt_intervals:
        raise DataError(f"{video_id}: cannot trim without ground-truth intervals")
    return np.concatenate([features[s:e] for s, e in gt_intervals], axis=0)


EPISODE_SLICE = 256  # episodes sampled together; bounds the memory of their streams
FLOYD_MAX_POP = 10000  # above it, Generator.choice tail-shuffles a sample above pop // 50


def draw_episodes(novel: DatasetManifest, K: int, n: int, q: int, seeds):
    """Draw one episode per seed, as `default_rng(seed)` alone draws it with
    `Generator.choice`: K classes, then n support + q query videos per
    class, all without replacement. Reads no feature file. Returns the
    (E, K) sampled labels and the (E, K*n) support and (E, K*q) query
    indices into `novel.entries`, listed class by class. The class pools,
    in manifest order, are built once per call.

    Each episode's draws come from `PCG64(seed)`, the bit generator
    `default_rng(seed)` makes, as a stream of uint32: each `random_raw`
    value's low half, then its high half. NEP 19 keeps that stream stable
    across NumPy versions. The episodes of a slice of EPISODE_SLICE are
    sampled together, first their classes and then every class's pool
    (`_choose`), with the algorithms `choice(pop, size, replace=False)`
    runs: Floyd's sampling, then a shuffle of the picks, each draw in
    [0, r] Lemire's bounded integer (Lemire, "Fast Random Integer
    Generation in an Interval", ACM TOMACS 2019). An episode is drawn by
    `default_rng(seed)` and `choice` instead (`_choice_episode`), in draw
    order, when a bounded draw rejects its uint32 (about 1 in 10^8), when
    a population above FLOYD_MAX_POP would be tail-shuffled, when the seed
    makes no PCG64 (a Generator, or one `default_rng` rejects), or when
    one of its classes holds fewer than n + q videos, so that the first
    failing episode raises the error it always did.
    """
    seeds = list(seeds)
    E, m = len(seeds), n + q
    label = np.array([e.class_label for e in novel.entries], dtype=np.intp)
    labels, size = np.unique(label, return_counts=True)
    order = np.argsort(label, kind="stable")  # the class pools, one after another
    start = np.cumsum(size) - size
    if E and K > labels.size:
        raise DataError(f"episode needs {K} classes but the manifest has {labels.size}")
    classes = np.empty((E, K), dtype=np.intp)
    support, queries = np.empty((E, K, n), dtype=np.intp), np.empty((E, K, q), dtype=np.intp)
    # uint32 draws of an episode: K classes, then K pools, each a Floyd pass and a shuffle
    words = (max(2 * K - 1, 0) + K * max(2 * m - 1, 0) + 1) // 2
    for first in range(0, E, EPISODE_SLICE):
        S = min(EPISODE_SLICE, E - first)
        raw, redo = np.zeros((S, words), dtype="<u8"), np.zeros(S, dtype=bool)
        for e, seed in enumerate(seeds[first:first + S]):
            try:
                raw[e] = np.random.PCG64(seed).random_raw(words)
            except (TypeError, ValueError):  # the reference path raises it or takes the
                redo[e] = True  # Generator or BitGenerator as it is
        stream = raw.view("<u4")  # (S, 2 * words)
        drawn, at, rejected = _choose(stream, np.arange(S), np.zeros(S, dtype=np.intp),
                                      np.full(S, labels.size), K)
        redo |= rejected | (size[drawn] < m).any(axis=1)
        keep = np.flatnonzero(~redo)
        pop = size[drawn[keep]]
        draws = 2 * m - 1 - (pop == m)  # Floyd's first step draws nothing from a pool of m
        offset = at[keep, None] + np.cumsum(draws, axis=1) - draws
        picks, _, rejected = _choose(stream, np.repeat(keep, K), offset.ravel(), pop.ravel(), m)
        picks = order[start[drawn[keep]].ravel()[:, None] + picks].reshape(len(keep), K, m)
        redo[keep] |= rejected.reshape(len(keep), K).any(axis=1)
        kept = first + keep
        classes[kept], support[kept], queries[kept] = drawn[keep], picks[..., :n], picks[..., n:]
        for e in (first + np.flatnonzero(redo)).tolist():
            classes[e], picks = _choice_episode(novel, labels, size, seeds[e], K, m)
            picks = order[start[classes[e]][:, None] + picks]
            support[e], queries[e] = picks[:, :n], picks[:, n:]
    return labels[classes], support.reshape(E, K * n), queries.reshape(E, K * q)


def _choice_episode(novel: DatasetManifest, labels, size, seed, K: int, m: int) -> tuple:
    """One episode as `default_rng(seed)` draws it: K of the class indices
    into `labels` and `size`, then m positions in each class's pool, with
    `Generator.choice`. Raises DataError for a class of fewer than m videos."""
    rng = np.random.default_rng(seed)
    classes = rng.choice(labels.size, size=K, replace=False)
    picks = np.empty((K, m), dtype=np.intp)
    for k, c in enumerate(classes.tolist()):
        if size[c] < m:
            name = novel.class_names[labels[c]]
            raise DataError(f"class {name} has {size[c]} videos, episode needs {m}")
        picks[k] = rng.choice(size[c], size=m, replace=False)
    return classes, picks


def _choose(stream: np.ndarray, row: np.ndarray, at: np.ndarray, pop: np.ndarray,
            size: int) -> tuple:
    """`Generator.choice(pop[i], size, replace=False)` for each row i, drawn
    from the uint32 stream `stream[row[i]]` from offset `at[i]` on.

    Floyd's sampling: for j = pop - size ... pop - 1, draw v in [0, j] and
    take j instead if v is taken; j = 0 draws nothing. Then a shuffle: for
    i = size - 1 ... 1, swap pick i with the pick at a draw in [0, i].
    Returns the (R, size) picks, each row's offset past its draws, and the
    rows whose picks `choice` would make otherwise: a rejected draw
    (`_bounded`), or a population above FLOYD_MAX_POP with size above
    pop // 50.
    """
    R = len(row)
    picks = np.empty((R, size), dtype=np.intp)
    redo = (pop > FLOYD_MAX_POP) & (size > pop // 50)
    for t in range(size):
        j = pop - size + t
        v, rejected = _bounded(stream[row, at], j)
        taken = (picks[:, :t] == v[:, None]).any(axis=1)
        picks[:, t] = np.where(taken, j, v)
        redo |= rejected
        at = at + (j > 0)
    every = np.arange(R)
    for i in range(size - 1, 0, -1):
        k, rejected = _bounded(stream[row, at], i)
        swapped = picks[every, k]
        picks[every, k] = picks[:, i]
        picks[:, i] = swapped
        redo |= rejected
        at = at + 1
    return picks, at, redo


def _bounded(x: np.ndarray, r) -> tuple:
    """Lemire's draw in [0, r] from each uint32 in `x`, as NumPy's bounded
    integers make it: the high 32 bits of x * (r + 1). Also returns which x
    it rejects, those whose low 32 bits are below 2**32 mod (r + 1), where
    NumPy would draw again."""
    span = np.asarray(r, dtype=np.uint64) + np.uint64(1)
    product = x.astype(np.uint64) * span
    return (product >> np.uint64(32)).astype(np.intp), (
        product & np.uint64(0xFFFFFFFF)) < np.uint64(1 << 32) % span
