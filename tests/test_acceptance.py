"""Release gate: every shipping criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line on the terminal
(bypassing capture) so a plain `pytest -v` run shows the scorecard.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from fewvid import autodiff as ad
from fewvid import cli, config, data, evaluate, losses, model, pseudo, train

ACCEPTANCE_CFG = Path(__file__).resolve().parents[1] / "configs" / "acceptance.cfg"


def announce(capfd, label, ok, detail):
    with capfd.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """Train soft / soft+contrastive / full variants on the committed fixture
    and evaluate each over the committed episodic protocol."""
    cfg = config.build_config(ACCEPTANCE_CFG, {})
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.time()
    data.generate_synthetic_dataset(cfg, root / "ds")
    base = data.load_manifest(root / "ds" / "base_manifest.jsonl")
    novel = data.load_manifest(root / "ds" / "novel_manifest.jsonl")
    variants = {
        "soft": dataclasses.replace(cfg, bg=False, sw=False, cl=False),
        "soft_cl": dataclasses.replace(cfg, bg=False, sw=False, cl=True),
        "full": cfg,
    }
    results = {}
    for name, run in variants.items():
        res = train.train_base(base, run)
        rep = evaluate.evaluate(res.params, novel, "classification", K=cfg.K, n=cfg.n,
                                q=cfg.q, episodes=cfg.episodes, seed=cfg.seed, cfg=run)
        results[name] = (res.params, np.asarray(rep["per_episode"], dtype=np.float64))
    return {"results": results, "base": base, "elapsed": time.time() - t0}


class TestCriterion1GradientCorrectness:
    def test_full_objective_gradients(self, capfd):
        t0 = time.time()
        arrays, builder = train.gradcheck_objective()
        report = ad.grad_check(builder, arrays, h=1e-5, tol=1e-4)
        elapsed = time.time() - t0
        announce(capfd, "1 gradient correctness", report.passed and elapsed < 10.0,
                 f"max rel err {report.max_rel_err:.3e} < 1e-4, {elapsed:.1f}s < 10s")


class TestCriterion2ClosedForms:
    def test_self_weight_and_contrastive_values(self, capfd):
        f = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        w = losses.self_weight(ad.Tensor(f), 0).data
        sw_mid = abs(w[1, 0] - 0.5)
        sw_same = abs(w[0, 0] - 1.0 / (1.0 + np.exp(4.0)))
        contrast = losses.contrastive_loss(ad.Tensor([[1.0, 0.0], [0.0, 1.0]]),
                                           ad.Tensor([[1.0, 0.0]]))
        c_err = abs(float(contrast.data) - 4.0)
        ok = sw_mid < 1e-9 and sw_same < 1e-9 and c_err < 1e-9
        announce(capfd, "2 closed-form values", ok,
                 f"weight@cos=.5 err {sw_mid:.1e}, weight@cos=1 err {sw_same:.1e}, "
                 f"contrastive err {c_err:.1e}, all < 1e-9")


class TestCriterion3PseudoLabelOracle:
    def test_1000_random_matrices(self, capfd):
        rng = np.random.default_rng(3)
        mismatches = 0
        for trial in range(1000):
            T = int(rng.integers(2, 33))
            N = int(rng.integers(1, 17))
            logits = rng.uniform(-1, 1, size=(T, N))
            if trial % 2:  # coarse grid forces plenty of exact ties
                logits = np.round(logits * 2) / 2
            M = int(rng.integers(1, T))
            row_max = [max(row) for row in logits.tolist()]
            want_bg = min(range(T), key=lambda i: (row_max[i], i))
            # training's FG+IBG set: the top M segments other than the BG one
            remaining = [i for i in range(T) if i != want_bg]
            want_top = []
            for _ in range(min(M, T - 1)):
                pick = max(remaining, key=lambda i: (row_max[i], -i))
                remaining.remove(pick)
                want_top.append(pick)
            rec = pseudo.pseudo_label_video(logits, [T], M=M)
            if pseudo.pseudo_label_bg(logits) != want_bg or rec.bg_rows.tolist() != [want_bg]:
                mismatches += 1
            elif rec.fg_rows.tolist() != sorted(want_top):
                mismatches += 1
        announce(capfd, "3 pseudo-label oracle", mismatches == 0,
                 f"{mismatches}/1000 mismatches vs exhaustive scan, ties included")


def brute_force_ap(dets, gts, thr):
    # precision-recall table from scratch, then max-precision at each
    # achievable recall level (equivalent to all-point interpolation)
    if not gts:
        return None
    order = sorted(range(len(dets)), key=lambda i: -dets[i][0])
    matched, rows, tp = set(), [], 0
    for rank, i in enumerate(order, start=1):
        best, best_iou = None, 0.0
        for j, gt in enumerate(gts):
            iou = exact_iou(dets[i][1], gt)
            if j not in matched and iou > best_iou:
                best, best_iou = j, iou
        if best is not None and best_iou >= thr:
            matched.add(best)
            tp += 1
        rows.append((tp / len(gts), tp / rank))
    total = 0.0
    for m in range(1, len(gts) + 1):
        feasible = [p for r, p in rows if r >= m / len(gts)]
        total += max(feasible) if feasible else 0.0
    return total / len(gts)


def exact_iou(a, b):
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    if inter == 0:
        return 0.0
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


class TestCriterion4MetricOracle:
    def test_200_random_ap_instances(self, capfd):
        rng = np.random.default_rng(4)
        worst, iou_exact = 0.0, True
        for _ in range(200):
            n_gt = int(rng.integers(1, 6))
            gts, at = [], 0
            for _ in range(n_gt):
                at += int(rng.integers(0, 4))
                length = int(rng.integers(1, 5))
                gts.append((at, at + length))
                at += length
            dets = [(float(rng.uniform()), (s, s + int(rng.integers(1, 5))))
                    for s in rng.integers(0, at + 3, size=int(rng.integers(0, 11)))]
            dets = [(score, (int(iv[0]), int(iv[1]))) for score, iv in dets]
            thr = float(rng.choice([0.1, 0.3, 0.5, 0.7]))
            got = evaluate.average_precision(dets, gts, thr)
            want = brute_force_ap(dets, gts, thr)
            worst = max(worst, abs((got if dets else 0.0) - want))
            for a in [iv for _, iv in dets]:
                for b in gts:
                    if float(evaluate._tiou(a[0], a[1], b[0], b[1])) != exact_iou(a, b):
                        iou_exact = False
        announce(capfd, "4 detection metric oracle", worst < 1e-9 and iou_exact,
                 f"max AP deviation {worst:.2e} < 1e-9 over 200 instances, tIoU exact")


class TestCriterion5AblationTrend:
    def test_full_and_contrastive_beat_soft_baseline(self, capfd, ablation):
        acc = {k: v[1] for k, v in ablation["results"].items()}
        means = {k: 100 * v.mean() for k, v in acc.items()}
        gap_full, ci_full = evaluate.mean_ci(100 * (acc["full"] - acc["soft"]))
        gap_cl, _ = evaluate.mean_ci(100 * (acc["soft_cl"] - acc["soft"]))
        elapsed = ablation["elapsed"]
        ok = (gap_full >= 2.0 and gap_full - ci_full > 0.0
              and gap_cl >= 0.25 and elapsed < 600.0)
        announce(capfd, "5 ablation trend", ok,
                 f"soft {means['soft']:.2f}, +contrastive {means['soft_cl']:.2f}, "
                 f"full {means['full']:.2f}; full-soft {gap_full:+.2f}±{ci_full:.2f} "
                 f"(needs ≥2.0, CI>0), contrastive-soft {gap_cl:+.2f} (needs ≥0.25), "
                 f"{elapsed:.0f}s < 600s")


class TestCriterion6Determinism:
    def test_byte_identical_artifacts(self, capfd, tmp_path):
        blobs = []
        for run in ("one", "two"):
            root = tmp_path / run
            cfg = root / "run.cfg"
            root.mkdir()
            cfg.write_text(
                "n_base_classes = 3\nn_novel_classes = 3\nvideos_per_class = 4\n"
                "T = 10\nd_in = 8\nd = 8\nepochs = 2\nbatch_size = 8\n"
                "K = 2\nn = 1\nq = 2\nepisodes = 3\n"
                f"data_dir = {root / 'ds'}\nckpt = {root / 'model.ckpt'}\n")
            assert cli.main(["gen-data", "--config", str(cfg)]) == 0
            assert cli.main(["train", "--config", str(cfg)]) == 0
            assert cli.main(["eval-cls", "--config", str(cfg),
                             "--out", str(root / "eval.csv")]) == 0
            blobs.append((
                (root / "model.ckpt").read_bytes(),
                (root / "model.ckpt.log.csv").read_bytes(),
                (root / "eval.csv").read_bytes(),
            ))
        same = [blobs[0][i] == blobs[1][i] for i in range(3)]
        announce(capfd, "6 determinism", all(same),
                 f"checkpoint/log/eval CSV byte-identical across reruns: {same}")


class TestCriterion7InvarianceSuite:
    def test_rotation_shift_score_order_normalization(self, capfd):
        rng = np.random.default_rng(7)
        failures = []

        for _ in range(100):  # rotation invariance of every loss
            d, T, C = 6, 5, 4
            f = rng.normal(size=(T, d))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            W = rng.normal(size=(C, d))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            q_mat, r_mat = np.linalg.qr(rng.normal(size=(d, d)))
            Q = q_mat * np.sign(np.diag(r_mat))

            def all_losses(fv, wv):
                ft, wt = ad.Tensor(fv), ad.Tensor(wv)
                sw = losses.self_weight(ft, 0)
                F = losses.aggregate_video_feature(ft, sw)
                return np.array([
                    float(losses.soft_cls_loss(F, 1, wt).data),
                    float(losses.bg_cls_loss(ad.Tensor(fv[:1]), wt).data),
                    float(losses.contrastive_loss(ad.Tensor(fv[:2]), ad.Tensor(fv[2:3])).data),
                ])

            if not np.allclose(all_losses(f, W), all_losses(f @ Q, W @ Q),
                               rtol=1e-9, atol=1e-9):
                failures.append("rotation")
                break

        for _ in range(100):  # shift invariance of the pseudo-labelers
            T, N = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            logits = np.round(rng.uniform(-1, 1, size=(T, N)) * 2) / 2
            shift = float(rng.uniform(-10, 10))
            M = int(rng.integers(1, T))
            labels = [pseudo.pseudo_label_video(x, [T], M=M) for x in (logits, logits + shift)]
            if (pseudo.pseudo_label_bg(logits) != pseudo.pseudo_label_bg(logits + shift)
                    or labels[0].fg_rows.tolist() != labels[1].fg_rows.tolist()):
                failures.append("shift")
                break

        for _ in range(100):  # AP depends only on score order
            gts = [(0, 3), (5, 8), (10, 12)][: int(rng.integers(1, 4))]
            dets = [(float(rng.uniform()), (int(s), int(s) + 2))
                    for s in rng.integers(0, 12, size=int(rng.integers(1, 8)))]
            base_ap = evaluate.average_precision(dets, gts, 0.3)
            warped = [(3.0 * score ** 3 + 7.0, iv) for score, iv in dets]
            if evaluate.average_precision(warped, gts, 0.3) != base_ap:
                failures.append("score-order")
                break

        for _ in range(100):  # aggregation weights normalize to 1
            T, d = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            weights = rng.uniform(0.01, 5.0, size=(T, 1))
            if abs((weights / weights.sum()).sum() - 1.0) > 1e-10:
                failures.append("normalization")
                break
            row = rng.normal(size=(1, d))
            agg = losses.aggregate_video_feature(
                ad.Tensor(np.repeat(row, T, axis=0)), ad.Tensor(weights))
            if not np.allclose(agg.data, row, rtol=0, atol=1e-10):
                failures.append("normalization")
                break

        announce(capfd, "7 invariance suite", not failures,
                 "rotation/shift/score-order/normalization x100 instances each"
                 + (f"; failed: {failures}" if failures else ""))


class TestCriterion8BackgroundSeparation:
    def test_nbg_logits_below_fg_logits(self, capfd, ablation):
        params = ablation["results"]["full"][0]
        manifest = ablation["base"]
        pools = {data.ROLE_FG: [], data.ROLE_NBG: []}
        videos = manifest.read_videos(range(len(manifest.entries)))
        for entry, rows in zip(manifest.entries, videos.values()):
            f = model.embed_segments(params, rows, grad=False)
            row_max = model.segment_logits(params, f).max(axis=1)
            for i, role in enumerate(entry.segment_roles):
                if role in pools:
                    pools[role].append(row_max[i])
        nbg = float(np.mean(pools[data.ROLE_NBG]))
        fg = float(np.mean(pools[data.ROLE_FG]))
        announce(capfd, "8 background separation", nbg < fg,
                 f"mean max-logit NBG {nbg:.3f} < FG {fg:.3f} after training")
