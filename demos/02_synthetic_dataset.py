"""Generate the synthetic untrimmed-video corpus and look inside one file.

Base-class videos are weakly labeled (video-level class only) while their
ground-truth intervals are kept for evaluating detection later.  Half of the
novel classes reuse a concept from the base informative-background pool, so
base videos contain segments that look like novel foreground."""
import tempfile
from collections import Counter
from pathlib import Path

from fewvid import data

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    cfg = data.SyntheticConfig(n_base_classes=5, n_novel_classes=4,
                               videos_per_class=3, T=12, d_in=16, seed=0)
    data.generate_synthetic_dataset(cfg, workdir)

    for split in ("base", "novel"):
        manifest = data.load_manifest(workdir / f"{split}_manifest.jsonl")
        print(f"{split}: {len(manifest.entries)} videos, classes {manifest.class_names}")

    base = data.load_manifest(workdir / "base_manifest.jsonl")
    entry = base.entries[0]
    rows = base.read_videos([0])[0]  # entry 0's rows, checked against the entry
    print("\nfirst video:", entry.video_id, "class", entry.class_label)
    print("feature block:", rows.shape, rows.dtype)
    print("ground-truth intervals:", entry.gt_intervals)
    print("segment roles (F=foreground, I=informative BG, N=non-informative BG):")
    print(" ", entry.segment_roles)
    print("role counts over the base split:",
          dict(Counter("".join(e.segment_roles for e in base.entries))))

    # the .segf container is 16 bytes of header plus float32 rows
    raw = (workdir / "base" / f"{entry.video_id}.segf").read_bytes()
    print("\nfile header bytes:", raw[:16].hex(" "),
          "payload:", len(raw) - 16, "bytes")

    # support videos are trimmed to their ground-truth intervals before use
    trimmed = data.trim_support_rows(entry.video_id, rows, entry.gt_intervals)
    print("trimmed support:", rows.shape, "->", trimmed.shape)
