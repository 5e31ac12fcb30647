"""Few-shot evaluation: build class prototypes from trimmed support videos,
then classify untrimmed queries by cosine similarity of their aggregated
features."""
import tempfile
from pathlib import Path

import numpy as np

from fewvid import config, data, evaluate, model, train

with tempfile.TemporaryDirectory(prefix="fewvid_demo_") as tmp:
    workdir = Path(tmp)
    cfg = data.SyntheticConfig(n_base_classes=6, n_novel_classes=5,
                               videos_per_class=10, T=16, d_in=16,
                               noise_std=0.4, seed=0)
    data.generate_synthetic_dataset(cfg, workdir)
    base = data.load_manifest(workdir / "base_manifest.jsonl")
    novel = data.load_manifest(workdir / "novel_manifest.jsonl")

    result = train.train_base(base, config.RunConfig(d=24, epochs=12, seed=0))

    # one 3-way 1-shot episode, dissected: episode 0 of seed 0, as entry indices
    [classes], [support], [queries] = data.draw_episodes(novel, K=3, n=1, q=2, seeds=[[0, 0]])
    rows = novel.read_videos(np.concatenate([support, queries]), result.params.d_in)
    # the draw lists support and queries class by class, so position gives the class;
    # a support is trimmed to its intervals and its segment embeddings averaged
    proto = evaluate.prototypes(np.stack([
        model.embed_segments(result.params, data.trim_support_rows(
            novel.entries[i].video_id, rows[i], novel.entries[i].gt_intervals),
            grad=False).mean(axis=0)
        for i in support.tolist()]), 3)
    print("episode classes:", classes.tolist())
    print("prototype norms:", [round(float(np.linalg.norm(row)), 6) for row in proto])

    query = queries[0].item()  # a query of the first class, index 0
    f = model.embed_segments(result.params, rows[query], grad=False)
    verdict = evaluate.classify_query(result.params, f[None], proto)
    print("query", novel.entries[query].video_id, "true class index", 0)
    print("class probabilities:", np.round(verdict.probs[0], 4), "-> top1", verdict.top1[0])

    # aggregate accuracy with a 95% confidence interval over many episodes
    report = evaluate.evaluate(result.params, novel, "classification",
                               K=3, n=1, q=2, episodes=50, seed=0)
    print(f"\n3-way 1-shot over 50 episodes: "
          f"{100 * report['accuracy_mean']:.2f} ± {100 * report['accuracy_ci']:.2f}")
