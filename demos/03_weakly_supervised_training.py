"""Train the base-class model from video-level labels only.

Each step pseudo-labels one background segment per video (the segment whose
best class logit is lowest), filters it into the non-informative pool when
that logit is small, softly re-weights segments by their distance to it, and
optimizes classification + background + contrastive losses with Nesterov
momentum."""
import tempfile
from pathlib import Path

import numpy as np

from fewvid import config, data, evaluate, model, train

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    cfg = data.SyntheticConfig(n_base_classes=5, n_novel_classes=3,
                               videos_per_class=8, T=12, d_in=16,
                               noise_std=0.3, seed=0)
    data.generate_synthetic_dataset(cfg, workdir)
    base = data.load_manifest(workdir / "base_manifest.jsonl")

    result = train.train_base(base, config.RunConfig(d=16, epochs=10, seed=0),
                              ckpt_path=workdir / "model.ckpt",
                              log_path=workdir / "train.csv")

    print("columns:", ",".join(train.LOG_COLUMNS))
    for row in result.log_rows[:3] + result.log_rows[-3:]:
        step, total, cls, contrast, bg, n_nbg = row
        print(f"step {step:3d}  total {total:7.4f}  cls {cls:7.4f}  "
              f"contrast {contrast:6.4f}  bg {bg:6.4f}  nbg {n_nbg}")

    # each base video classified as evaluation classifies a query, against
    # the classifier's class rows
    videos, _ = train.load_training_videos(base)
    embedded, length, row = evaluate.embed_by_length(result.params,
                                                     [video.features for video in videos])
    class_rows = result.params.classifier.data[:result.params.n_classes]
    correct = [evaluate.classify_query(result.params, embedded[T][r], class_rows).top1
               == video.label for video, T, r in zip(videos, length.tolist(), row.tolist())]
    print(f"\nbase-class video accuracy after training: {np.mean(correct):.3f}")

    # classifier rows stay unit-length because they are re-normalized every step
    params, echo = model.load_checkpoint(workdir / "model.ckpt")
    norms = np.linalg.norm(params.classifier.data, axis=1)
    print("classifier row norms:", np.round(norms, 12))
    print("checkpoint config echo:", echo)
