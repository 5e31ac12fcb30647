"""Temporal detection: class activation over time, threshold-swept proposals,
and mAP scoring against the generator's ground-truth intervals."""
import tempfile
from pathlib import Path

import numpy as np

from fewvid import data, evaluate, losses, model, train

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    cfg = data.SyntheticConfig(n_base_classes=6, n_novel_classes=4,
                               videos_per_class=10, T=16, d_in=16,
                               noise_std=0.35, seed=0)
    data.generate_synthetic_dataset(cfg, workdir)
    base = data.load_manifest(workdir / "base_manifest.jsonl")
    novel = data.load_manifest(workdir / "novel_manifest.jsonl")
    result = train.train_base(base, losses.LossConfig(), d=24, epochs=12, seed=0)

    episode = data.sample_episode(novel, K=3, n=1, q=2, seed=[0, 0])
    proto = evaluate.prototype_matrix(evaluate.compute_prototypes(result.params, episode))

    qseq = episode.queries[0]
    label = qseq.class_label
    f = model.embed_segments(result.params, qseq.features, grad=False)
    verdict = evaluate.classify_query(result.params, f, proto)
    A = evaluate.tcam(f, verdict.weights, proto)
    print("activation map shape:", A.shape, "(segments x episode classes)")
    print("true class column, rounded:", np.round(A[:, episode.class_remap[label]], 2))
    print("ground truth intervals:", qseq.gt_intervals)

    proposals = evaluate.extract_proposals(A, evaluate.DEFAULT_PROPOSAL_THRESHOLDS,
                                           qseq.video_id)
    best = sorted(proposals, key=lambda d: -d.score)[:4]
    for det in best:
        print(f"proposal class {det.class_index} interval {det.interval} "
              f"score {det.score:.3f}")

    # interval overlap and single-class average precision on a toy example
    print("\ntIoU((0,4),(2,6)) =", evaluate.temporal_iou((0, 4), (2, 6)))
    dets = [(0.9, (0, 4)), (0.8, (9, 12)), (0.7, (4, 7))]
    print("AP@0.5 with GT (0,4),(5,7):",
          evaluate.average_precision(dets, [(0, 4), (5, 7)], 0.5))

    map50, avg_map, _ = evaluate.episode_detection(result.params, episode)
    print(f"\nepisode mAP@0.50 {map50:.3f}, average mAP over 0.50:0.05:0.95 {avg_map:.3f}")
