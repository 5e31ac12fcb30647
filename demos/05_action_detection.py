"""Temporal detection: class activation over time, threshold-swept proposals,
and mAP scoring against the generator's ground-truth intervals."""
import tempfile
from pathlib import Path

import numpy as np

from fewvid import config, data, evaluate, model, train

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    cfg = data.SyntheticConfig(n_base_classes=6, n_novel_classes=4,
                               videos_per_class=10, T=16, d_in=16,
                               noise_std=0.35, seed=0)
    data.generate_synthetic_dataset(cfg, workdir)
    base = data.load_manifest(workdir / "base_manifest.jsonl")
    novel = data.load_manifest(workdir / "novel_manifest.jsonl")
    result = train.train_base(base, config.RunConfig(d=24, epochs=12, seed=0))

    # episode 0 of seed 0, as entry indices: prototypes from the trimmed support videos
    _, [support], [queries] = data.draw_episodes(novel, K=3, n=1, q=2, seeds=[[0, 0]])
    rows = novel.read_videos(np.concatenate([support, queries]), result.params.d_in)
    # the draw lists support and queries class by class, so position gives the class
    proto = evaluate.prototypes(np.stack([
        model.embed_segments(result.params, data.trim_support_rows(
            novel.entries[i].video_id, rows[i], novel.entries[i].gt_intervals),
            grad=False).mean(axis=0)
        for i in support.tolist()]), 3)

    # activation: each segment's aggregation weight times its cosine to each prototype
    query = queries[0].item()  # a query of the first class, column 0
    f = model.embed_segments(result.params, rows[query], grad=False)
    verdict = evaluate.classify_query(result.params, f[None], proto)
    A = verdict.weights[0][:, None] * verdict.cosines[0]
    print("activation map shape:", A.shape, "(segments x episode classes)")
    print("true class column, rounded:", np.round(A[:, 0], 2))
    print("ground truth intervals:", novel.entries[query].gt_intervals)

    proposals = evaluate.episode_proposals(A, [A.shape[0]])
    for i in np.argsort(-proposals.scores, kind="stable")[:4]:
        start, end = proposals.intervals[i].tolist()
        print(f"proposal class {proposals.class_index[i]} interval {(start, end)} "
              f"score {proposals.scores[i]:.3f}")

    # single-class average precision on a toy example
    dets = [(0.9, (0, 4)), (0.8, (9, 12)), (0.7, (4, 7))]
    print("\nAP@0.5 with GT (0,4),(5,7):",
          evaluate.average_precision(dets, [(0, 4), (5, 7)], 0.5))

    # the same episode scored by the evaluation loop
    [(map50, avg_map)] = evaluate.episode_scores(result.params, novel, "detection", [0],
                                                 K=3, n=1, q=2, seed=0)
    print(f"\nepisode mAP@0.50 {map50:.3f}, average mAP over 0.50:0.05:0.95 {avg_map:.3f}")
