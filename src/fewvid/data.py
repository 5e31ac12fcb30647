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

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (BadMagicError, DataError, MalformedFileError, TruncatedFileError,
                     VersionError)

SEGF_MAGIC = b"SEGF"
SEGF_VERSION = 1

# roles used in manifests and inspection output
ROLE_FG = "F"
ROLE_IBG = "I"
ROLE_NBG = "N"

NBG_NOISE_FACTOR = 1.5
NBG_FRACTION = 0.4  # share of non-FG segments that are non-informative
FG_FRACTION_RANGE = (0.25, 0.5)  # share of segments inside ground-truth intervals


@dataclass
class SegmentFeatureSequence:
    video_id: str
    class_label: int
    features: np.ndarray  # (T, d_in)
    gt_intervals: list = field(default_factory=list)  # half-open (start, end)
    segment_roles: str = ""  # one of F/I/N per segment, or empty

    @property
    def T(self) -> int:
        return self.features.shape[0]

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    def validate(self):
        """Raise DataError naming the video unless its features are 2-D, its
        intervals are sorted, do not overlap and end at or before T, and its
        segment_roles are empty or one per segment."""
        if self.features.ndim != 2:
            raise DataError(f"{self.video_id}: features must be 2-D, got {self.features.shape}")
        prev_end = 0
        for start, end in self.gt_intervals:
            if not (0 <= start < end <= self.T):
                raise DataError(f"{self.video_id}: interval ({start}, {end}) is not inside "
                                f"its {self.T} segments")
            if start < prev_end:
                raise DataError(f"{self.video_id}: intervals overlap or are unsorted")
            prev_end = end
        if self.segment_roles and len(self.segment_roles) != self.T:
            raise DataError(f"{self.video_id}: segment_roles has {len(self.segment_roles)} "
                            f"roles for its {self.T} segments")
        return self


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

    def by_class(self):
        groups = {}
        for e in self.entries:
            groups.setdefault(e.class_label, []).append(e)
        return groups

    def load_sequence(self, entry: ManifestEntry) -> SegmentFeatureSequence:
        return self.sequence(entry, read_feature_file(os.path.join(self.root, entry.feature_file)))

    def sequence(self, entry: ManifestEntry, features: np.ndarray) -> SegmentFeatureSequence:
        """The entry's video over `features`, the rows of its feature file
        (perhaps read for another entry of that file), checked against the entry."""
        return SegmentFeatureSequence(
            video_id=entry.video_id,
            class_label=entry.class_label,
            features=features,
            gt_intervals=[tuple(iv) for iv in entry.gt_intervals],
            segment_roles=entry.segment_roles,
        ).validate()


def write_feature_file(features: np.ndarray, path):
    """Serialize a (T, d_in) matrix: magic, u32 version, u32 T, u32 d_in,
    then T*d_in float32 values, all little-endian, row-major."""
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {features.shape}")
    t, d = features.shape
    with open(path, "wb") as fh:
        fh.write(SEGF_MAGIC)
        fh.write(struct.pack("<III", SEGF_VERSION, t, d))
        fh.write(features.tobytes())


def read_file(path, what: str, text: bool = False):
    """The file's bytes, or with `text` its UTF-8 text. Raises DataError
    "cannot read {what} {path}: ..." when it cannot be read or decoded."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
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
    with open(path, "w") as fh:
        fh.write(csv_text(columns, rows))


def read_feature_file(path) -> np.ndarray:
    blob = read_file(path, "feature file")
    if blob[:4] != SEGF_MAGIC:
        raise BadMagicError(f"{path}: expected magic {SEGF_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: header needs 16 bytes, file has {len(blob)}")
    version, t, d = struct.unpack("<III", blob[4:16])
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
    features = np.frombuffer(blob[16:need], dtype="<f4").reshape(t, d)
    # checked before the cast: casting a signalling NaN warns
    if not np.isfinite(features).all():
        raise MalformedFileError(f"{path}: holds non-finite (nan or inf) feature values")
    return features.astype(np.float64)


def save_manifest(manifest: DatasetManifest, path):
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(json.dumps({"split": manifest.split, "class_names": manifest.class_names}) + "\n")
        for e in manifest.entries:
            fh.write(json.dumps({
                "video_id": e.video_id,
                "class_label": e.class_label,
                "feature_file": e.feature_file,
                "gt_intervals": [list(iv) for iv in e.gt_intervals],
                "segment_roles": e.segment_roles,
            }) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_entry(rec: dict, where: str, n_classes: int):
    """Raise DataError unless a manifest record has string video_id and
    feature_file, an int class_label indexing the header's n_classes
    class_names, a list of [start, end] int pairs with 0 <= start < end as
    gt_intervals, and, if present, a string of F/I/N as segment_roles."""
    for key in ("video_id", "feature_file"):
        if not isinstance(rec[key], str):
            raise DataError(f"{where}: {key} must be a string, got {rec[key]!r}")
    if not _is_int(rec["class_label"]):
        raise DataError(f"{where}: class_label must be an integer, got {rec['class_label']!r}")
    if not 0 <= rec["class_label"] < n_classes:
        raise DataError(f"{where}: class_label {rec['class_label']} is outside the "
                        f"{n_classes} class_names of the header")
    intervals = rec["gt_intervals"]
    if not (isinstance(intervals, list) and all(
            isinstance(iv, list) and len(iv) == 2 and _is_int(iv[0]) and _is_int(iv[1])
            and 0 <= iv[0] < iv[1] for iv in intervals)):
        raise DataError(f"{where}: gt_intervals must be a list of [start, end] integer "
                        f"pairs with 0 <= start < end, got {intervals!r}")
    roles = rec.get("segment_roles", "")
    if not (isinstance(roles, str) and set(roles) <= {ROLE_FG, ROLE_IBG, ROLE_NBG}):
        raise DataError(f"{where}: segment_roles must be a string of {ROLE_FG}, {ROLE_IBG} "
                        f"and {ROLE_NBG}, got {roles!r}")


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
            _check_entry(rec, f"{path}: entry {i}", len(manifest.class_names))
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


def trim_support_video(seq: SegmentFeatureSequence) -> SegmentFeatureSequence:
    """Keep only the annotated foreground segments, concatenated in order."""
    if not seq.gt_intervals:
        raise DataError(f"{seq.video_id}: cannot trim without ground-truth intervals")
    rows = np.concatenate([seq.features[s:e] for s, e in seq.gt_intervals], axis=0)
    return SegmentFeatureSequence(
        video_id=seq.video_id,
        class_label=seq.class_label,
        features=rows,
        gt_intervals=[(0, rows.shape[0])],
    )


@dataclass
class EpisodeDraw:
    """An episode's videos as manifest entries, before anything is loaded."""
    classes: list  # the K sampled novel labels; episode class k is classes[k]
    support: list  # K*n entries, class by class
    queries: list  # K*q entries, class by class


def draw_episode(novel: DatasetManifest, K: int, n: int, q: int, seed,
                 groups: dict = None) -> EpisodeDraw:
    """Draw K classes then n support + q query videos per class, all without
    replacement. Reads no feature file. `groups` is `novel.by_class()`, for
    callers that draw many episodes from one manifest."""
    rng = np.random.default_rng(seed)
    groups = novel.by_class() if groups is None else groups
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
    return EpisodeDraw(classes=classes, support=support, queries=queries)

