"""Reproduce the logit-separation picture: after weakly supervised training,
non-informative background sits at near-uniform logits while foreground and
informative background score high, which is what makes the argmin-of-max
pseudo-labeling work."""
import tempfile
from pathlib import Path

import numpy as np

from fewvid import data, losses, model, train

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    data.generate_synthetic_dataset(data.SyntheticConfig(), workdir)
    base = data.load_manifest(workdir / "base_manifest.jsonl")
    result = train.train_base(base, losses.LossConfig(), epochs=8, seed=0)

    pools = {"F": [], "I": [], "N": []}
    for entry in base.entries:
        seq = base.load_sequence(entry)
        f = model.embed_segments(result.params, seq.features)
        row_max = model.segment_logits(result.params, f).data.max(axis=1)
        for i, role in enumerate(entry.segment_roles):
            pools[role].append(row_max[i])

    print("mean max-logit by generator role:")
    for role, name in (("F", "foreground"), ("I", "informative BG"),
                       ("N", "non-informative BG")):
        vals = np.asarray(pools[role])
        print(f"  {name:20s} {vals.mean():6.3f}  (n={vals.size})")

    # a coarse text histogram of the same pools
    edges = np.linspace(-0.1, 0.7, 9)
    print("\nbins:", " ".join(f"{e:5.2f}" for e in edges[:-1]))
    for role in "FIN":
        hist, _ = np.histogram(pools[role], bins=edges)
        bar = " ".join(f"{h:5d}" for h in hist)
        print(f"  {role}: {bar}")
    print("\nthe same table is available from the command line:")
    print("  fewvid inspect --config <cfg> --ckpt <ckpt>")
