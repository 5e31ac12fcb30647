"""Few-shot evaluation: build class prototypes from trimmed support videos,
then classify untrimmed queries by cosine similarity of their aggregated
features."""
import tempfile
from pathlib import Path

import numpy as np

from fewvid import data, evaluate, losses, model, train

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    cfg = data.SyntheticConfig(n_base_classes=6, n_novel_classes=5,
                               videos_per_class=10, T=16, d_in=16,
                               noise_std=0.4, seed=0)
    data.generate_synthetic_dataset(cfg, workdir)
    base = data.load_manifest(workdir / "base_manifest.jsonl")
    novel = data.load_manifest(workdir / "novel_manifest.jsonl")

    result = train.train_base(base, losses.LossConfig(), d=24, epochs=12, seed=0)

    # one 3-way 1-shot episode, dissected: episode 0 of seed 0
    draw = data.draw_episode(novel, K=3, n=1, q=2, seed=[0, 0])
    # the draw lists support and queries class by class, so position gives the class
    proto = evaluate.prototypes(np.stack([
        evaluate.support_mean(
            result.params, data.trim_support_video(novel.load_sequence(entry)).features)
        for entry in draw.support]), 3)
    print("episode classes:", draw.classes)
    print("prototype norms:", [round(float(np.linalg.norm(row)), 6) for row in proto])

    qseq = novel.load_sequence(draw.queries[0])  # a query of the first class, index 0
    f = model.embed_segments(result.params, qseq.features, grad=False)
    verdict = evaluate.classify_query(result.params, f[None], proto)
    print("query", qseq.video_id, "true class index", 0)
    print("class probabilities:", np.round(verdict.probs[0], 4), "-> top1", verdict.top1[0])

    # aggregate accuracy with a 95% confidence interval over many episodes
    report = evaluate.evaluate(result.params, novel, "classification",
                               K=3, n=1, q=2, episodes=50, seed=0)
    print(f"\n3-way 1-shot over 50 episodes: "
          f"{100 * report['accuracy_mean']:.2f} ± {100 * report['accuracy_ci']:.2f}")
