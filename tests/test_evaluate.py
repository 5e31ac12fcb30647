"""Prototype math, query classification, proposals, AP against a grid oracle."""

import dataclasses
import re
import shutil
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fewvid import autodiff as ad
from fewvid import data, evaluate, model
from fewvid.errors import DataError
from fewvid.losses import LossConfig


def identity_params(d=2, n_classes=2, width=4):
    p = model.init_params(n_classes=n_classes, d_in=d, d=d, kernel_width=width, seed=0)
    p.transform.data[:] = np.eye(d)
    p.temporal_kernel.data[:] = model.delta_kernel(d, width)
    return p


@dataclasses.dataclass
class Det:
    """One scored interval: the record the loop oracles below work on."""
    video_id: object
    class_index: int
    interval: tuple  # half-open (start, end) in segment units
    score: float


# --- independent AP oracle -------------------------------------------------
# greedy matching per the metric definition, then AP evaluated on the exact
# recall grid {m/G}: equivalent to all-point interpolation because recall
# only moves in steps of 1/G


def oracle_iou(a, b):
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if inter else 0.0


def oracle_ap(dets, gts, thr):
    if not gts:
        return None
    order = sorted(range(len(dets)), key=lambda i: -dets[i][0])
    matched, points, tp = set(), [], 0
    for rank, i in enumerate(order, start=1):
        interval = dets[i][1]
        best, best_iou = None, 0.0
        for j, gt in enumerate(gts):
            if j not in matched and oracle_iou(interval, gt) > best_iou:
                best, best_iou = j, oracle_iou(interval, gt)
        if best is not None and best_iou >= thr:
            matched.add(best)
            tp += 1
        points.append((tp / len(gts), tp / rank))
    total = 0.0
    for m in range(1, len(gts) + 1):
        level = m / len(gts)
        feasible = [p for r, p in points if r >= level]
        total += max(feasible) if feasible else 0.0
    return total / len(gts)


def random_instance(rng):
    n_gt = int(rng.integers(1, 6))
    gts, at = [], 0
    for _ in range(n_gt):
        at += int(rng.integers(0, 4))
        length = int(rng.integers(1, 5))
        gts.append((at, at + length))
        at += length
    dets = []
    for _ in range(int(rng.integers(0, 11))):
        start = int(rng.integers(0, at + 3))
        dets.append((float(rng.uniform(0, 1)), (start, start + int(rng.integers(1, 5)))))
    return dets, gts


class TestPrototypes:
    def test_singleton_support(self):
        proto = evaluate.prototypes(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        np.testing.assert_allclose(proto, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_mean_then_normalize(self):
        proto = evaluate.prototypes(np.array([[1.0, 0.0], [0.0, 1.0],
                                              [-1.0, 0.0], [-1.0, 0.0]]), 2)
        r = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(proto, [[r, r], [-1.0, 0.0]], atol=1e-12)

    def test_antipodal_support_flags_degenerate(self):
        # a degenerate class is flagged by a zero row, which has cosine 0 to
        # every query
        proto = evaluate.prototypes(np.array([[1.0, 0.0], [-1.0, 0.0],
                                              [0.0, 1.0], [0.0, 1.0]]), 2)
        np.testing.assert_array_equal(proto[0], 0.0)
        np.testing.assert_allclose(proto[1], [0.0, 1.0], atol=1e-12)

    def test_zero_mean_class_stays_zero(self):
        proto = evaluate.prototypes(np.array([[[0.0, 3.0], [0.0, 0.0], [4.0, 0.0]]]), 3)
        assert proto.shape == (1, 3, 2)
        np.testing.assert_array_equal(proto[0], [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])

    def test_unit_norm_within_tolerance(self):
        p = model.init_params(n_classes=3, d_in=6, d=5, seed=1)
        rng = np.random.default_rng(2)
        proto = evaluate.prototypes(np.stack([
            evaluate.support_mean(p, rng.normal(size=(4, 6))) for _ in range(6)]), 3)
        assert proto.shape == (3, 5)
        assert np.all(np.abs(np.linalg.norm(proto, axis=1) - 1.0) < 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 12), st.integers(1, 40))
    def test_equals_per_class_loop(self, seed, E, K, n, d):
        # magnitudes spread over decades make the summation order show;
        # some classes average to exactly zero
        rng = np.random.default_rng(seed)
        means = rng.normal(size=(E, K * n, d)) * 10.0 ** rng.integers(-4, 5, size=(E, K * n, 1))
        zero = rng.random((E, K)) < 0.2
        means.reshape(E, K, n, d)[zero] = 0.0
        want = []
        for stack in means:
            for k in range(K):
                mean = np.mean(stack[k * n : (k + 1) * n], axis=0)
                norm = np.linalg.norm(mean)
                want.append(mean / norm if norm > 0.0 else mean)
        assert evaluate.prototypes(means, K).tobytes() == np.stack(want).tobytes()


def classify(params, features, proto):
    """classify_query on a stack of one query."""
    f = model.embed_segments(params, features, grad=False)
    return evaluate.classify_query(params, f[None], proto)


class TestClassifyQuery:
    def protos(self):
        return np.array([[1.0, 0.0], [0.0, 1.0]])

    def test_softmax_of_cosines(self):
        p = identity_params()
        res = classify(p, np.array([[1.0, 0.0]]), self.protos())
        e = np.exp(1.0)
        np.testing.assert_allclose(res.probs[0], [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-4)
        assert res.top1[0] == 0

    def test_equidistant_gives_uniform(self):
        p = identity_params()
        r = np.sqrt(0.5)
        res = classify(p, np.array([[r, r]]), self.protos())
        np.testing.assert_allclose(res.probs[0], [0.5, 0.5], atol=1e-12)

    def test_argmax_matches_raw_cosines(self):
        p = model.init_params(n_classes=3, d_in=4, d=4, seed=3)
        rng = np.random.default_rng(4)
        proto = rng.normal(size=(3, 4))
        proto /= np.linalg.norm(proto, axis=1, keepdims=True)
        feats = rng.normal(size=(6, 4))
        res = classify(p, feats, proto)
        f = model.embed_segments(p, feats).data
        from fewvid.losses import aggregate_video_feature, self_weight
        from fewvid import autodiff as ad
        i_bg = evaluate.pseudo_label_bg(f @ proto.T)
        w = self_weight(ad.Tensor(f), i_bg)
        F = aggregate_video_feature(ad.Tensor(f), w).data[0]
        sims = proto @ (F / np.linalg.norm(F))
        assert res.top1[0] == int(np.argmax(sims))

    def test_softmax_argmax_invariant_to_temperature(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = rng.normal(size=5)
            ref = int(np.argmax(np.exp(s) / np.exp(s).sum()))
            for tau in (0.3, 1.0, 10.0):
                scaled = np.exp(tau * s - (tau * s).max())
                assert int(np.argmax(scaled / scaled.sum())) == ref


def episode_accuracy(support, queries, K):
    """classification_accuracy of (label, rows) queries against prototypes
    from the rows of trimmed support videos listed class by class, embedded
    by the identity head."""
    p = identity_params()
    proto = evaluate.prototypes(
        np.stack([evaluate.support_mean(p, np.array(rows)) for rows in support]), K)
    embeddings = [model.embed_segments(p, np.array(rows), grad=False) for _, rows in queries]
    return evaluate.classification_accuracy(p, embeddings, [label for label, _ in queries], proto)


class TestEpisodeAccuracy:
    def test_no_queries_rejected(self):
        proto = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="no queries"):
            evaluate.classification_accuracy(identity_params(), [], [], proto)

    def test_hand_placed_queries(self):
        support = [[[1.0, 0.0]], [[0.0, 1.0]]]
        queries = [(0, [[1.0, 0.0]]),
                   (1, [[0.0, 1.0]]),
                   (1, [[1.0, 0.0]])]  # labeled 1, looks like 0
        assert episode_accuracy(support, queries, K=2) == pytest.approx(2.0 / 3.0)

    def test_all_correct(self):
        support = [[[1.0, 0.0]], [[0.0, 1.0]]]
        queries = [(0, [[1.0, 0.0]]), (1, [[0.0, 1.0]])]
        assert episode_accuracy(support, queries, K=2) == 1.0


class TestProposals:
    """Proposals of one video's (T, 1) activation column."""

    def proposals(self, values):
        return evaluate.episode_proposals(np.array(values, dtype=float)[:, None], [len(values)])

    def test_single_run(self):
        dets = self.proposals([0, 1, 1, 0])
        assert dets.intervals.tolist() == [[1, 3]]
        assert dets.scores[0] == pytest.approx(1.0)
        assert dets.video.tolist() == [0] and dets.class_index.tolist() == [0]

    def test_all_zero_column(self):
        assert self.proposals([0, 0, 0]).scores.size == 0

    def test_negative_activations_skipped(self):
        assert self.proposals([-0.5, -1.0]).scores.size == 0

    def test_two_disjoint_runs_survive_nms(self):
        intervals = self.proposals([0, 1, 1, 0, 0, 0.9, 0.9, 0]).intervals.tolist()
        assert [1, 3] in intervals
        assert any(iv[0] >= 5 for iv in intervals)

    def test_lower_thresholds_add_wider_proposals(self):
        dets = self.proposals([0.2, 1.0, 0.2, 0.0])
        # theta=0.1 gives the wide run [0,3), theta>=0.3 the tight [1,2)
        assert {tuple(iv) for iv in dets.intervals.tolist()} == {(0, 3), (1, 2)}

    def test_nms_keeps_higher_score(self):
        intervals = np.array([[1, 4], [0, 4], [6, 8]])  # tIoU 0.75 between the first two
        scores = np.array([0.5, 0.9, 0.4])
        keep = evaluate._nms_keep(np.zeros(3, dtype=np.intp), intervals, scores)
        assert keep.tolist() == [1, 2]


class TestTemporalIou:
    def test_examples(self):
        assert evaluate.temporal_iou((0, 2), (1, 3)) == pytest.approx(1.0 / 3.0)
        assert evaluate.temporal_iou((2, 5), (2, 5)) == 1.0
        assert evaluate.temporal_iou((0, 2), (4, 6)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 50), st.integers(1, 10), st.integers(0, 50), st.integers(1, 10))
    def test_symmetric_and_bounded(self, s1, l1, s2, l2):
        a, b = (s1, s1 + l1), (s2, s2 + l2)
        assert evaluate.temporal_iou(a, b) == evaluate.temporal_iou(b, a)
        assert 0.0 <= evaluate.temporal_iou(a, b) <= 1.0
        assert (evaluate.temporal_iou(a, b) == 1.0) == (a == b)

    def test_exact_integer_arithmetic(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s1, s2 = rng.integers(0, 20, size=2)
            a = (int(s1), int(s1 + rng.integers(1, 8)))
            b = (int(s2), int(s2 + rng.integers(1, 8)))
            inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
            union = (a[1] - a[0]) + (b[1] - b[0]) - inter
            want = inter / union if inter else 0.0
            assert evaluate.temporal_iou(a, b) == want


class TestAveragePrecision:
    def test_perfect_single(self):
        assert evaluate.average_precision([(0.9, (2, 5))], [(2, 5)], 0.5) == 1.0

    def test_low_overlap_is_zero(self):
        # tIoU 0.4 < threshold
        assert evaluate.average_precision([(0.9, (0, 4))], [(3, 8)], 0.5) == 0.0

    def test_tp_fp_tp_reference(self):
        dets = [(0.9, (0, 2)), (0.8, (10, 12)), (0.7, (4, 6))]
        gts = [(0, 2), (4, 6)]
        assert evaluate.average_precision(dets, gts, 0.5) == pytest.approx(5.0 / 6.0)

    def test_no_ground_truth_is_undefined(self):
        assert evaluate.average_precision([(0.9, (0, 2))], [], 0.5) is None

    def test_no_detections_is_zero(self):
        assert evaluate.average_precision([], [(0, 2)], 0.5) == 0.0

    def test_each_gt_matched_once(self):
        dets = [(0.9, (0, 2)), (0.8, (0, 2))]
        gts = [(0, 2)]
        # second detection has nothing left to match: precision drops
        assert evaluate.average_precision(dets, gts, 0.5) == 1.0

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dets, gts = random_instance(rng)
            thr = float(rng.choice([0.3, 0.5, 0.75]))
            got = evaluate.average_precision(dets, gts, thr)
            want = oracle_ap(dets, gts, thr)
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["exp", "affine", "cube"]))
    def test_score_order_invariance(self, seed, transform):
        rng = np.random.default_rng(seed)
        dets, gts = random_instance(rng)
        fns = {"exp": np.exp, "affine": lambda s: 3.0 * s + 7.0, "cube": lambda s: s ** 3}
        fn = fns[transform]
        mapped = [(float(fn(score)), iv) for score, iv in dets]
        base = evaluate.average_precision(dets, gts, 0.5)
        assert evaluate.average_precision(mapped, gts, 0.5) == pytest.approx(base, abs=1e-12)


def episode_detections(params, proto, queries, labels, cfg):
    """Detections and (m, 4) truth rows (query, class, start, end) of one
    episode's (video, (T, d) embedding) query pairs, query i of episode
    class labels[i], found as an evaluation call finds them: stacked
    classification against the (K, d) prototypes, each segment's weight
    times its cosines, proposals over the stacked maps."""
    embeddings = [f for _, f in queries]
    cams = [None] * len(embeddings)
    which = np.zeros(len(embeddings), dtype=np.intp)
    for at, res in evaluate._classify_stacks(params, *evaluate._by_length(embeddings),
                                             proto[None], which, cfg):
        for i, weights, cosines in zip(at, res.weights, res.cosines):
            cams[i] = weights[:, None] * cosines
    detections = evaluate.episode_proposals(np.concatenate(cams), [len(f) for f in embeddings])
    truths = [(i, k, start, end) for i, ((video, _), k) in enumerate(zip(queries, labels))
              for start, end in video.gt_intervals]
    return detections, np.array(truths, dtype=np.intp).reshape(-1, 4)


def call_maps(episodes):
    """`evaluate._maps` of (Detections, truths) episodes scored in one pass,
    each episode's classes offset past those of the episodes before it, as
    an evaluation call keys them."""
    classes = [1 + max(dets.class_index.max(initial=-1), truths[:, 1].max(initial=-1))
               for dets, truths in episodes]
    offset = np.cumsum([0] + classes)
    parts = [(dets.video, dets.class_index + o, dets.intervals, dets.scores)
             for (dets, _), o in zip(episodes, offset)]
    detections = evaluate.Detections(*(np.concatenate(arrays) for arrays in zip(*parts)))
    truths = np.concatenate([truths + [0, o, 0, 0] for (_, truths), o in zip(episodes, offset)])
    return evaluate._maps(detections, truths, offset)


def map_pairs(maps):
    """(map50, avg_map) of each row of `_maps`, as episode_scores reports them."""
    return [(m[0], float(np.mean(m))) for m in maps.tolist()]


def by_threshold(maps_row):
    """One row of `_maps` as {tIoU threshold: mAP}, the loop oracles' form."""
    return dict(zip(map(float, evaluate.MAP_TIOU_GRID), maps_row.tolist()))


class TestEpisodeDetection:
    def dataset_episode(self, seed=0):
        cfg = data.SyntheticConfig(
            n_base_classes=3, n_novel_classes=3, videos_per_class=6,
            T=14, d_in=8, seed=seed)
        root = self.tmp / f"ds{seed}"
        _, novel = data.generate_synthetic_dataset(cfg, root)
        return novel, data.draw_episode(novel, K=2, n=1, q=2, seed=[1, 0])

    @staticmethod
    def scored(params, novel, draw):
        """remap, prototypes, (query video, embedding) pairs and the
        episode's (map50, avg_map, maps)."""
        K = len(draw.classes)
        proto = evaluate.prototypes(np.stack([
            evaluate.support_mean(params, data.trim_support_video(
                novel.load_sequence(entry)).features) for entry in draw.support]), K)
        queries = [(q, model.embed_segments(params, q.features, grad=False))
                   for q in map(novel.load_sequence, draw.queries)]
        labels = np.repeat(np.arange(K), len(queries) // K)
        maps = call_maps([episode_detections(params, proto, queries, labels, None)])
        [(map50, avg_map)] = map_pairs(maps)
        remap = {label: i for i, label in enumerate(draw.classes)}  # for the oracle
        return remap, proto, queries, (map50, avg_map, by_threshold(maps[0]))

    @pytest.fixture(autouse=True)
    def _tmp(self, tmp_path):
        self.tmp = tmp_path

    def test_matches_per_video_oracle(self):
        novel, draw = self.dataset_episode()
        params = model.init_params(n_classes=3, d_in=8, d=8, seed=2)
        remap, proto, queries, (map50, avg_map, maps) = self.scored(params, novel, draw)
        # the cached path draws the same episode as episode 0 of seed 1
        assert evaluate.episode_scores(params, novel, "detection", [0], K=2, n=1, q=2,
                                       seed=1) == [(map50, avg_map)]

        # independent aggregation: group detections and truths per video,
        # run the grid oracle per class, macro-average
        K = len(draw.classes)
        per_class_dets = {k: {} for k in range(K)}
        per_class_gts = {k: {} for k in range(K)}
        for q, f in queries:
            res = evaluate.classify_query(params, f[None], proto)
            A = res.weights[0][:, None] * (f @ proto.T)
            for det in loop_extract_proposals(A, video_id=q.video_id):
                per_class_dets[det.class_index].setdefault(det.video_id, []).append(det)
            for iv in q.gt_intervals:
                per_class_gts[remap[q.class_label]].setdefault(q.video_id, []).append(tuple(iv))

        for thr, got in maps.items():
            aps = []
            for k in range(K):
                gt_total = sum(len(v) for v in per_class_gts[k].values())
                if not gt_total:
                    continue
                # oracle needs a single sequence: evaluate each video apart and
                # merge by recomputing the PR walk over the union, so instead
                # feed it per-video instances joined by disjoint offsets
                offset, dets, gts = 0, [], []
                vids = sorted(set(per_class_gts[k]) | set(per_class_dets[k]))
                for v in vids:
                    vgts = per_class_gts[k].get(v, [])
                    vdets = per_class_dets[k].get(v, [])
                    span = 1 + max([iv[1] for iv in vgts] + [d.interval[1] for d in vdets])
                    gts.extend((iv[0] + offset, iv[1] + offset) for iv in vgts)
                    dets.extend((d.score, (d.interval[0] + offset, d.interval[1] + offset))
                                for d in vdets)
                    offset += span
                aps.append(oracle_ap(dets, gts, thr))
            want = float(np.mean(aps)) if aps else 0.0
            assert got == pytest.approx(want, abs=1e-9)

    def test_avg_map_bounded_by_best_threshold(self):
        params = model.init_params(n_classes=3, d_in=8, d=8, seed=4)
        map50, avg_map, maps = self.scored(params, *self.dataset_episode(seed=3))[3]
        assert avg_map <= max(maps.values()) + 1e-12
        assert map50 == maps[0.5]
        assert all(0.0 <= v <= 1.0 for v in maps.values())


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_ds")
    cfg = data.SyntheticConfig(
        n_base_classes=3, n_novel_classes=4, videos_per_class=8,
        T=12, d_in=8, seed=21)
    _, novel = data.generate_synthetic_dataset(cfg, root)
    params = model.init_params(n_classes=3, d_in=8, d=8, seed=0)
    return params, novel


class TestEvaluateLoop:
    def test_classification_report(self, setup):
        params, novel = setup
        report = evaluate.evaluate(params, novel, "classification",
                                   K=2, n=1, q=2, episodes=5, seed=0)
        assert report["episodes"] == 5
        assert len(report["per_episode"]) == 5
        assert 0.0 <= report["accuracy_mean"] <= 1.0
        assert report["accuracy_ci"] >= 0.0

    def test_detection_report(self, setup):
        params, novel = setup
        report = evaluate.evaluate(params, novel, "detection",
                                   K=2, n=1, q=2, episodes=3, seed=0)
        assert {"map50_mean", "map50_ci", "avg_map_mean", "avg_map_ci"} <= set(report)

    def test_deterministic(self, setup):
        params, novel = setup
        a = evaluate.evaluate(params, novel, "classification", K=2, n=1, q=2,
                              episodes=4, seed=3)
        b = evaluate.evaluate(params, novel, "classification", K=2, n=1, q=2,
                              episodes=4, seed=3)
        assert a == b

    def test_unknown_mode(self, setup):
        params, novel = setup
        with pytest.raises(ValueError):
            evaluate.evaluate(params, novel, "segmentation")

    @pytest.mark.parametrize("mode", ["classification", "detection"])
    def test_no_episodes_give_no_scores(self, setup, mode):
        params, novel = setup
        assert evaluate.episode_scores(params, novel, mode, [], K=2, n=1, q=2) == []

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", ["episodes", "K", "n", "q"])
    @pytest.mark.parametrize("mode", ["classification", "detection"])
    def test_sizes_below_1_rejected_before_drawing(self, setup, monkeypatch, mode, key, value):
        # a ValueError naming the key, not NaN means, warnings or a crash
        params, novel = setup
        drawn = []
        monkeypatch.setattr(evaluate, "draw_episode", lambda *args, **kwargs: drawn.append(1))
        sizes = {"K": 2, "n": 1, "q": 2, "episodes": 3, key: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{key} must be at least 1, got {value}$"):
                evaluate.evaluate(params, novel, mode, **sizes)
        assert not drawn

    @pytest.mark.parametrize("mode", ["classification", "detection"])
    def test_huge_finite_weight_raises(self, setup, mode):
        # the embedding overflows: an error, not warnings and chance-level scores
        _, novel = setup
        params = model.init_params(n_classes=3, d_in=8, d=8, seed=0)
        params.transform.data[0, 0] = 1e308
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate.episode_scores(params, novel, mode, range(2), K=2, n=1, q=2)


# --- per-episode oracle -----------------------------------------------------
# The evaluation loop as it was before embeddings were cached: draw and load
# every episode afresh, embed each support and query video every time it is
# used, stack the prototypes per query. The cached loop must give the same
# float bits.


@dataclasses.dataclass
class OracleEpisode:
    K: int
    classes: list  # the K sampled novel labels, in remap order
    support: list  # K*n trimmed sequences
    queries: list  # K*q untrimmed sequences

    @property
    def class_remap(self):
        return {label: i for i, label in enumerate(self.classes)}


def oracle_sample_episode(novel, K, n, q, seed):
    rng = np.random.default_rng(seed)
    groups = novel.by_class()
    labels = sorted(groups)
    classes = [labels[i] for i in rng.choice(len(labels), size=K, replace=False)]
    support, queries = [], []
    for label in classes:
        pool = groups[label]
        picks = rng.choice(len(pool), size=n + q, replace=False)
        for j in picks[:n]:
            support.append(data.trim_support_video(novel.load_sequence(pool[j])))
        for j in picks[n:]:
            queries.append(novel.load_sequence(pool[j]))
    return OracleEpisode(K=K, classes=classes, support=support, queries=queries)


def oracle_prototypes(params, ep):
    remap = ep.class_remap
    sums = {k: [] for k in range(ep.K)}
    for s in ep.support:
        sums[remap[s.class_label]].append(
            model.embed_segments(params, s.features, grad=False).mean(axis=0))
    vectors = []
    for k in range(ep.K):
        mean = np.mean(sums[k], axis=0)
        norm = np.linalg.norm(mean)
        vectors.append(mean / norm if norm > 0.0 else mean)
    return vectors


def oracle_classify(params, features, vectors, cfg):
    f = model.embed_segments(params, features, grad=False)
    _, top1, weights, _ = loop_classify_query(params, f, np.stack(vectors), cfg)
    return top1, f, weights


def oracle_evaluate(params, novel, mode, K, n, q, episodes, seed, cfg):
    per_episode = []
    for e in range(episodes):
        ep = oracle_sample_episode(novel, K, n, q, [seed, e])
        vectors = oracle_prototypes(params, ep)
        remap = ep.class_remap
        if mode == "classification":
            correct = sum(oracle_classify(params, v.features, vectors, cfg)[0] == remap[v.class_label]
                          for v in ep.queries)
            per_episode.append(correct / len(ep.queries))
            continue
        dets, gts = [], {k: [] for k in range(K)}
        for v in ep.queries:
            _, f, w = oracle_classify(params, v.features, vectors, cfg)
            A = np.asarray(w)[:, None] * (f @ np.stack(vectors).T)
            dets.extend(loop_extract_proposals(A, video_id=v.video_id))
            for interval in v.gt_intervals:
                gts[remap[v.class_label]].append((v.video_id, tuple(interval)))
        maps = loop_detection_maps(dets, gts, evaluate.MAP_TIOU_GRID)
        per_episode.append((maps[0.5], float(np.mean([maps[float(t)] for t in evaluate.MAP_TIOU_GRID]))))
    return per_episode


def draw_all(novel, K, n, q, episodes, seed):
    return [data.draw_episode(novel, K, n, q, [seed, e]) for e in range(episodes)]


def distinct_uses(draws):
    """Distinct query videos plus distinct (feature file, intervals) supports."""
    queries = {entry.feature_file for draw in draws for entry in draw.queries}
    supports = {(entry.feature_file, tuple(map(tuple, entry.gt_intervals)))
                for draw in draws for entry in draw.support}
    return len(queries) + len(supports)


def use_roles(novel, draws):
    """Role ("query" or "support") of each distinct use, keyed by the bytes
    of the raw rows an evaluation call embeds for it: a query's whole file,
    a support's trimmed rows."""
    roles = {}
    for draw in draws:
        for entry in draw.queries:
            roles[novel.load_sequence(entry).features.tobytes()] = "query"
        for entry in draw.support:
            rows = data.trim_support_video(novel.load_sequence(entry)).features
            roles[rows.tobytes()] = "support"
    assert len(roles) == distinct_uses(draws)  # no two uses embed the same rows
    return roles


def spy_passes(monkeypatch):
    """A list that collects each `model.embed_segments` call's videos, as
    their raw rows."""
    passes = []
    embed = model.embed_segments

    def spy(params, raw, grad=True, lengths=None):
        lengths = [len(raw)] if lengths is None else list(lengths)
        passes.append(np.split(np.asarray(raw), np.cumsum(lengths)[:-1]))
        return embed(params, raw, grad, lengths)

    monkeypatch.setattr(model, "embed_segments", spy)
    return passes


def check_passes(passes, roles, chunk):
    """Every use is embedded once, every pass holds videos of one role and
    one length, and each (role, length) group takes ceil(count / chunk)
    passes of at most chunk videos. Returns each group's count."""
    embedded = [rows.tobytes() for videos in passes for rows in videos]
    assert sorted(embedded) == sorted(roles)
    sizes = {}
    for videos in passes:
        groups = {(roles[rows.tobytes()], len(rows)) for rows in videos}
        assert len(groups) == 1 and 1 <= len(videos) <= chunk
        group = groups.pop()
        sizes[group] = sizes.get(group, 0) + len(videos)
    assert {role for role, _ in sizes} == {"query", "support"}
    assert len(passes) == sum(-(-count // chunk) for count in sizes.values())
    assert max(len(videos) for videos in passes) == min(chunk, max(sizes.values()))
    return sizes


@pytest.fixture(scope="module")
def one_row_novel(tmp_path_factory):
    """Three novel classes of five 6-segment videos, except that in each
    class one video is cut to its first segment and one has a one-segment
    interval, so as support it is trimmed to one row."""
    cfg = data.SyntheticConfig(n_base_classes=1, n_novel_classes=3, videos_per_class=5,
                               T=6, d_in=6, seed=3)
    _, novel = data.generate_synthetic_dataset(cfg, tmp_path_factory.mktemp("one_row_novel"))
    entries = []
    for cut, narrow, *rest in novel.by_class().values():
        path = novel.root / cut.feature_file
        data.write_feature_file(data.read_feature_file(path)[:1], path)
        entries += [dataclasses.replace(cut, gt_intervals=[(0, 1)],
                                        segment_roles=cut.segment_roles[:1]),
                    dataclasses.replace(narrow, gt_intervals=[(2, 3)]), *rest]
    return dataclasses.replace(novel, entries=entries)


@pytest.fixture(scope="module")
def small_novel(tmp_path_factory):
    """Four novel classes of six videos: episodes reuse videos in both roles."""
    cfg = data.SyntheticConfig(n_base_classes=3, n_novel_classes=4, videos_per_class=6,
                               T=10, d_in=6, seed=11)
    _, novel = data.generate_synthetic_dataset(cfg, tmp_path_factory.mktemp("small_novel"))
    return novel


class TestCachedLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["classification", "detection"]),
           st.booleans(), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 6))
    @example(seed=0, mode="detection", sw=False, K=4, n=3, q=3, episodes=1)
    @example(seed=1, mode="classification", sw=True, K=4, n=3, q=3, episodes=1)
    def test_equals_per_episode_oracle(self, small_novel, seed, mode, sw, K, n, q, episodes):
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=seed % 97)
        cfg = LossConfig(sw=sw)
        got = evaluate.evaluate(params, small_novel, mode, K=K, n=n, q=q, episodes=episodes,
                                seed=seed, cfg=cfg)["per_episode"]
        assert got == oracle_evaluate(params, small_novel, mode, K, n, q, episodes, seed, cfg)

    @pytest.mark.parametrize("mode", ["classification", "detection"])
    def test_any_subset_of_episodes_reproduces(self, small_novel, mode):
        # episode e is drawn from seed (seed, e) alone, so a subset in any
        # order scores as the same episodes of a full run
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=3)
        full = evaluate.episode_scores(params, small_novel, mode, range(8), K=3, n=1, q=2,
                                       seed=6)
        subset = evaluate.episode_scores(params, small_novel, mode, [4, 1, 7], K=3, n=1, q=2,
                                         seed=6)
        assert subset == [full[4], full[1], full[7]]
        assert len(set(map(str, full))) > 1  # the episodes differ

    @pytest.mark.parametrize("mode", ["classification", "detection"])
    def test_reads_each_file_once_and_embeds_in_chunks(self, small_novel, monkeypatch, mode):
        episodes, K, n, q, seed, chunk = 30, 3, 2, 3, 4, 3
        draws = draw_all(small_novel, K, n, q, episodes, seed)
        roles = use_roles(small_novel, draws)
        reads = {}
        read = data.read_feature_file

        def counting_read(path):
            reads[str(path)] = reads.get(str(path), 0) + 1
            return read(path)

        monkeypatch.setattr(data, "read_feature_file", counting_read)
        passes = spy_passes(monkeypatch)
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", chunk)
        evaluate.evaluate(model.init_params(n_classes=3, d_in=6, d=5, seed=1), small_novel,
                          mode, K=K, n=n, q=q, episodes=episodes, seed=seed)
        queries = {entry.feature_file for draw in draws for entry in draw.queries}
        supports = {entry.feature_file for draw in draws for entry in draw.support}
        assert queries & supports  # some video served in both roles
        assert sorted(reads.values()) == [1] * len(queries | supports)
        assert max(check_passes(passes, roles, chunk).values()) > chunk

    @pytest.mark.parametrize("chunk", [evaluate.EMBED_CHUNK, 5, 3, 2])
    def test_no_pass_holds_more_than_a_chunk(self, mixed_novel, monkeypatch, chunk):
        K, n, q, episodes, seed = 3, 1, 3, 20, 2
        roles = use_roles(mixed_novel, draw_all(mixed_novel, K, n, q, episodes, seed))
        passes = spy_passes(monkeypatch)
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", chunk)
        evaluate.episode_scores(model.init_params(n_classes=3, d_in=6, d=5, seed=1),
                                mixed_novel, "classification", range(episodes), K=K, n=n, q=q,
                                seed=seed)
        sizes = check_passes(passes, roles, chunk)
        assert len({T for _, T in sizes}) > 2  # queries of 10 and 7 rows, and trimmed supports
        if chunk < evaluate.EMBED_CHUNK:
            assert max(sizes.values()) > chunk  # some group needs more than one pass

    @pytest.mark.parametrize("chunk", [evaluate.EMBED_CHUNK, 5])
    @pytest.mark.parametrize("mode", ["classification", "detection"])
    @pytest.mark.parametrize("sw", [True, False])
    def test_chunked_mixed_lengths_equal_per_episode_oracle(self, mixed_novel, monkeypatch,
                                                            chunk, mode, sw):
        # the call's distinct uses cross a chunk boundary, and the chunks mix
        # 10-segment queries, 7-segment queries and trimmed supports
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", chunk)
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=5)
        cfg = LossConfig(sw=sw)
        K, n, q, episodes, seed = 3, 1, 3, 20, 2
        assert distinct_uses(draw_all(mixed_novel, K, n, q, episodes, seed)) > chunk
        got = evaluate.evaluate(params, mixed_novel, mode, K=K, n=n, q=q, episodes=episodes,
                                seed=seed, cfg=cfg)["per_episode"]
        assert got == oracle_evaluate(params, mixed_novel, mode, K, n, q, episodes, seed, cfg)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("K, q", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("sw", [True, False])
    def test_proposal_passes_across_episodes_equal_per_episode_oracle(
            self, mixed_novel, monkeypatch, chunk, K, q, sw):
        # episodes of 4 and of 3 queries: passes of 3 and of 2 videos cut
        # across episodes, and mix 10- and 7-segment queries
        monkeypatch.setattr(evaluate, "PROPOSAL_CHUNK", chunk)
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=5)
        cfg = LossConfig(sw=sw)
        n, episodes, seed = 1, 5, 4
        got = evaluate.evaluate(params, mixed_novel, "detection", K=K, n=n, q=q,
                                episodes=episodes, seed=seed, cfg=cfg)["per_episode"]
        assert got == oracle_evaluate(params, mixed_novel, "detection", K, n, q, episodes, seed,
                                      cfg)

    @pytest.mark.parametrize("chunk", [evaluate.PROPOSAL_CHUNK, 7])
    def test_one_proposal_pass_per_chunk_and_one_ap_pass(self, mixed_novel, monkeypatch,
                                                         chunk):
        passes, ap_calls = [], []
        proposals, ap = evaluate.episode_proposals, evaluate.average_precision

        def counting_proposals(A, lengths):
            passes.append(len(lengths))
            return proposals(A, lengths)

        def counting_ap(*args):
            ap_calls.append(1)
            return ap(*args)

        monkeypatch.setattr(evaluate, "episode_proposals", counting_proposals)
        monkeypatch.setattr(evaluate, "average_precision", counting_ap)
        monkeypatch.setattr(evaluate, "PROPOSAL_CHUNK", chunk)
        K, n, q = 3, 1, 3
        episodes = chunk // (K * q) + 2
        videos = episodes * K * q
        evaluate.episode_scores(model.init_params(n_classes=3, d_in=6, d=5, seed=1),
                                mixed_novel, "detection", range(episodes), K=K, n=n, q=q)
        assert len(passes) == -(-videos // chunk) > 1
        assert sum(passes) == videos and max(passes) == chunk
        assert len(ap_calls) == 1

    @pytest.mark.parametrize("mode", ["classification", "detection"])
    @pytest.mark.parametrize("sw", [True, False])
    def test_one_row_videos_equal_per_episode_oracle(self, one_row_novel, monkeypatch, mode,
                                                     sw):
        # one-segment queries and supports trimmed to one row fill whole
        # passes, which take embed_segments' one-row product
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=5)
        cfg = LossConfig(sw=sw)
        K, n, q, episodes, seed = 3, 1, 2, 8, 1
        want = oracle_evaluate(params, one_row_novel, mode, K, n, q, episodes, seed, cfg)
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", 2)
        passes = spy_passes(monkeypatch)
        assert evaluate.evaluate(params, one_row_novel, mode, K=K, n=n, q=q, episodes=episodes,
                                 seed=seed, cfg=cfg)["per_episode"] == want
        draws = draw_all(one_row_novel, K, n, q, episodes, seed)
        queries = {entry.feature_file for draw in draws for entry in draw.queries
                   if entry.gt_intervals == [(0, 1)]}
        supports = {evaluate._support_key(entry) for draw in draws for entry in draw.support
                    if sum(end - start for start, end in entry.gt_intervals) == 1}
        assert queries and supports
        one_row = [videos for videos in passes if len(videos[0]) == 1]
        assert len(one_row) == -(-len(queries) // 2) + -(-len(supports) // 2)

    @pytest.mark.parametrize("corpus", ["one_row_novel", "mixed_novel"])
    def test_rows_equal_each_video_embedded_alone(self, request, monkeypatch, corpus):
        novel = request.getfixturevalue(corpus)
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", 2)
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=5)
        draws = draw_all(novel, 3, 1, 2, 8, 1)
        videos = evaluate._NovelVideos(params, novel, draws)
        for draw in draws:
            for entry in draw.queries:
                T, row = videos.at["query", entry.feature_file]
                alone = model.embed_segments(params, novel.load_sequence(entry).features,
                                             grad=False)
                assert np.array_equal(videos.queries[T][row], alone)
            for entry in draw.support:
                T, row = videos.at[evaluate._support_key(entry)]
                trimmed = data.trim_support_video(novel.load_sequence(entry)).features
                assert np.array_equal(videos.means[row], evaluate.support_mean(params, trimmed))

    def test_embeddings_dropped_before_first_proposal_pass(self, mixed_novel, monkeypatch):
        built, alive = [], []

        class Watched(evaluate._NovelVideos):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        proposals = evaluate.episode_proposals

        def watching_proposals(A, lengths):
            alive.append([ref() is not None for ref in built])
            return proposals(A, lengths)

        monkeypatch.setattr(evaluate, "_NovelVideos", Watched)
        monkeypatch.setattr(evaluate, "episode_proposals", watching_proposals)
        evaluate.episode_scores(model.init_params(n_classes=3, d_in=6, d=5, seed=1),
                                mixed_novel, "detection", range(4), K=3, n=1, q=2)
        assert alive and alive[0] == [False]

    def test_bad_file_reported_before_any_episode_is_scored(self, small_novel, tmp_path,
                                                             monkeypatch):
        K, n, q, episodes, seed = 2, 1, 1, 12, 3
        draws = draw_all(small_novel, K, n, q, episodes, seed)
        first = {entry.feature_file for entry in draws[0].support + draws[0].queries}
        late = next(entry.feature_file for draw in draws[1:]
                    for entry in draw.support + draw.queries if entry.feature_file not in first)
        shutil.copytree(small_novel.root, tmp_path, dirs_exist_ok=True)
        features = data.read_feature_file(tmp_path / late)
        features[0, 0] = np.nan
        data.write_feature_file(features, tmp_path / late)
        scored = []
        monkeypatch.setattr(evaluate, "classify_query", lambda *args: scored.append(1))
        with pytest.raises(DataError, match=f"{late}: holds non-finite"):
            evaluate.episode_scores(model.init_params(n_classes=3, d_in=6, d=5, seed=1),
                                    dataclasses.replace(small_novel, root=tmp_path),
                                    "classification", range(episodes), K=K, n=n, q=q,
                                    seed=seed)
        assert not scored

    def test_feature_width_checked_against_checkpoint(self, small_novel):
        params = model.init_params(n_classes=3, d_in=7, d=5, seed=1)
        with pytest.raises(DataError, match="d_in = 7"):
            evaluate.evaluate(params, small_novel, "classification", K=2, n=1, q=1, episodes=1)

    @pytest.mark.parametrize("twin_use", ["query after support", "query after query"])
    @pytest.mark.parametrize("field, value, reason", [
        ("segment_roles", "FIN", "segment_roles has 3 roles for its 10 segments"),
        ("gt_intervals", [(0, 500)], "interval (0, 500) is not inside its 10 segments")])
    def test_entry_sharing_a_file_is_checked(self, small_novel, twin_use, field, value,
                                             reason):
        # the twin's file is already read for the first entry, as a support
        # (another use) or as a query (the same use, so one embedding)
        first, other = small_novel.entries[:2]
        twin = dataclasses.replace(first, video_id="twin", **{field: value})
        support, queries = (([first], [twin]) if twin_use == "query after support"
                            else ([other], [first, twin]))
        draw = data.EpisodeDraw(classes=[first.class_label], support=support, queries=queries)
        with pytest.raises(DataError, match=re.escape(f"twin: {reason}")):
            evaluate._NovelVideos(model.init_params(n_classes=3, d_in=6, d=5, seed=1),
                                  small_novel, [draw])


class TestMeanCi:
    def test_zero_variance(self):
        mean, ci = evaluate.mean_ci([0.8, 0.8, 0.8])
        assert mean == pytest.approx(0.8)
        assert ci == pytest.approx(0.0, abs=1e-12)

    def test_reference_pair(self):
        mean, ci = evaluate.mean_ci([0.6, 1.0])
        assert mean == pytest.approx(0.8)
        assert ci == pytest.approx(1.96 * 0.2, abs=1e-12)

    def test_single_episode(self):
        assert evaluate.mean_ci([0.5]) == (0.5, 0.0)


# --- loop oracles -----------------------------------------------------------
# The scoring code as plain Python loops, one temporal_iou call per pair and
# the matching re-run at every threshold. The array code must reproduce it
# exactly: same intervals, same order, same float bits.


def loop_runs_above(column, threshold):
    above = column > threshold
    runs, start = [], None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(above)))
    return runs


def loop_nms(detections, tiou_threshold=0.5):
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept = []
    for i in order:
        cand = detections[i]
        if all(oracle_iou(cand.interval, k.interval) < tiou_threshold for k in kept):
            kept.append(cand)
    return kept


def loop_extract_proposals(A, thresholds=evaluate.DEFAULT_PROPOSAL_THRESHOLDS, video_id=""):
    out = []
    for k in range(A.shape[1]):
        column = A[:, k]
        colmax = column.max()
        if colmax <= 0.0:
            continue
        candidates = []
        for theta in thresholds:
            for start, end in loop_runs_above(column, theta * colmax):
                candidates.append(Det(video_id, k, (start, end), float(column[start:end].mean())))
        out.extend(loop_nms(candidates, 0.5))
    return out


def loop_average_precision(detections, ground_truths, tiou_threshold):
    if not ground_truths:
        return None
    pairs = [(float(s), tuple(iv)) for s, iv in detections]
    pairs.sort(key=lambda p: -p[0])
    matched = [False] * len(ground_truths)
    tp = np.zeros(len(pairs))
    for i, (_, interval) in enumerate(pairs):
        best_j, best_iou = -1, 0.0
        for j, gt in enumerate(ground_truths):
            if matched[j]:
                continue
            iou = oracle_iou(interval, gt)
            if iou > best_iou:
                best_j, best_iou = j, iou
        if best_j >= 0 and best_iou >= tiou_threshold:
            matched[best_j] = True
            tp[i] = 1.0
    if not pairs:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(pairs) + 1)
    recall = cum_tp / len(ground_truths)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r, ap = 0.0, 0.0
    for i in range(len(pairs)):
        if tp[i]:
            ap += (recall[i] - prev_r) * envelope[i]
            prev_r = recall[i]
    return float(ap)


def loop_detection_maps(detections, truths, tiou_grid):
    by_class = {}
    for det in detections:
        by_class.setdefault(det.class_index, []).append(det)
    maps = {}
    for thr in tiou_grid:
        aps = []
        for k in range(len(truths)):
            if not truths[k]:
                continue
            vids = sorted({v for v, _ in truths[k]} | {d.video_id for d in by_class.get(k, [])})
            span = 1 + max(
                [iv[1] for _, iv in truths[k]]
                + [d.interval[1] for d in by_class.get(k, [])], default=0)
            offset = {v: i * span for i, v in enumerate(vids)}
            gt_shifted = [(iv[0] + offset[v], iv[1] + offset[v]) for v, iv in truths[k]]
            det_shifted = [
                (d.score, (d.interval[0] + offset[d.video_id], d.interval[1] + offset[d.video_id]))
                for d in by_class.get(k, [])
            ]
            aps.append(loop_average_precision(det_shifted, gt_shifted, thr))
        maps[float(thr)] = float(np.mean(aps)) if aps else 0.0
    return maps


def loop_classify_query(params, f, proto, cfg):
    """One (T, d) query classified on its own, its formulas written out as
    classify_query had them before queries were stacked. Returns (probs,
    top1, weights, i_bg)."""
    kway = f @ proto.T
    i_bg = int(np.argmin(kway.max(axis=1)))
    if cfg.sw:
        cos = f @ f[i_bg : i_bg + 1].T.copy()
        weights = ad.sigmoid_forward(cfg.tau_s * ((1.0 - cfg.c) - cos))
    else:
        weights = model.baseline_attention(params, f)
    F = (weights.T @ f / weights.sum())[0]
    sims = proto @ (F / (np.linalg.norm(F) + 1e-12))
    ex = np.exp(sims - sims.max())
    probs = ex / ex.sum()
    return probs, int(np.argmax(probs)), weights[:, 0], i_bg


def loop_accuracy(params, remap, proto, queries, cfg):
    correct = sum(loop_classify_query(params, f, proto, cfg)[1] == remap[video.class_label]
                  for video, f in queries)
    return correct / len(queries)


def loop_detection(params, remap, proto, queries, cfg, tiou_grid):
    """The episode's detection scoring one query at a time: classify, tCAM,
    proposals, then per-class matching over the whole episode."""
    dets, truths = [], {k: [] for k in range(len(remap))}
    for video, f in queries:
        weights = loop_classify_query(params, f, proto, cfg)[2]
        A = weights[:, None] * (f @ proto.T)  # weight times cosine per segment and class
        dets.extend(loop_extract_proposals(A, video_id=video.video_id))
        for interval in video.gt_intervals:
            truths[remap[video.class_label]].append((video.video_id, tuple(interval)))
    maps = loop_detection_maps(dets, truths, tiou_grid)
    return maps[0.5], float(np.mean([maps[float(t)] for t in tiou_grid])), maps


def as_results(detections):
    """Detections as Det records whose video_id is the query index."""
    return [Det(v, k, tuple(iv), s) for v, k, iv, s in zip(
        detections.video.tolist(), detections.class_index.tolist(),
        detections.intervals.tolist(), detections.scores.tolist())]


def as_arrays(dets, truths):
    """Det records and {class: [(video_id, interval)]} as the arrays
    `_maps` takes."""
    code = {}
    for video_id in [d.video_id for d in dets] + [v for k in truths for v, _ in truths[k]]:
        code.setdefault(video_id, len(code))
    detections = evaluate.Detections(
        video=np.array([code[d.video_id] for d in dets], dtype=int),
        class_index=np.array([d.class_index for d in dets], dtype=int),
        intervals=np.array([d.interval for d in dets], dtype=int).reshape(-1, 2),
        scores=np.array([d.score for d in dets], dtype=float))
    rows = [(code[v], k, *iv) for k in truths for v, iv in truths[k]]
    return detections, np.array(rows, dtype=int).reshape(-1, 4)


def as_lists(detections, truths):
    """Detections and (m, 4) truth rows as as_arrays takes them."""
    by_class = {k: [] for k in range(1 + max(detections.class_index.max(initial=-1),
                                             truths[:, 1].max(initial=-1)))}
    for v, k, start, end in truths.tolist():
        by_class[k].append((v, (start, end)))
    return as_results(detections), by_class


# small ranges so that duplicate intervals and tied scores are common
intervals = st.builds(lambda s, n: (s, s + n), st.integers(0, 8), st.integers(1, 4))
scores = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(-1.0, 1.0))
activations = st.sampled_from([-0.5, 0.0, 0.2, 0.4, 0.5, 0.8, 1.0])
grid_thresholds = st.sampled_from([0.0, 0.3] + [float(t) for t in evaluate.MAP_TIOU_GRID])


class TestLoopOracles:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(activations, min_size=1, max_size=12), min_size=1, max_size=4),
           st.lists(st.sampled_from([-0.1, 0.0, 0.1, 0.35, 0.5, 0.9, 1.5]), max_size=9))
    def test_runs_above(self, columns, thresholds):
        # ragged videos of one class, stacked: no run crosses a video boundary;
        # a threshold above 1 would find runs in a negative column if
        # columns without a positive maximum were not skipped
        video, cls, start, end = evaluate._runs(
            np.concatenate(columns)[:, None], [len(c) for c in columns], thresholds)
        want = []
        for v, column in enumerate(columns):
            column = np.array(column)
            if column.max() <= 0.0:
                continue
            for t in thresholds:
                for run in loop_runs_above(column, t * column.max()):
                    if (v, *run) not in want:
                        want.append((v, *run))
        assert list(zip(video.tolist(), start.tolist(), end.tolist())) == want
        assert not cls.any()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(intervals, scores), max_size=25))
    def test_nms(self, items):
        # NMS of one (video, class) group
        dets = [Det("v", 0, iv, s) for iv, s in items]
        keep = evaluate._nms_keep(np.zeros(len(items), dtype=np.intp),
                                  np.array([iv for iv, _ in items]).reshape(-1, 2),
                                  np.array([s for _, s in items], dtype=np.float64))
        assert [dets[i] for i in keep] == loop_nms(dets, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 4), st.data())
    def test_extract_proposals(self, T, K, data_):
        A = np.array(data_.draw(st.lists(activations, min_size=T * K, max_size=T * K)))
        A = A.reshape(T, K)
        # proposals of one video
        assert (as_results(evaluate.episode_proposals(A, [T]))
                == loop_extract_proposals(A, video_id=0))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(scores, intervals), max_size=30),
           st.lists(intervals, max_size=12), grid_thresholds)
    # equal overlap with two truths: the first one is taken, so the second
    # detection still finds (1, 2) free
    @example([(0.9, (0, 2)), (0.8, (1, 2))], [(0, 1), (1, 2)], 0.5)
    # twelve hits: summing the AP's rectangles in any order but left to right
    # changes the last bit
    @example([(s, (3 * i, 3 * i + 2)) for i, s in enumerate(
        [0.6, 0.5, 0.3, 0.3, 0.1, 0.1, 0.1, 0.2, 0.8, 0.6, 0.9, 0.5])]
        + [(0.75, (41, 42))] + [(0.55, (41, 42))] * 3,
        [(3 * i, 3 * i + 2) for i in range(12)], 0.5)
    def test_average_precision(self, dets, gts, thr):
        assert evaluate.average_precision(dets, gts, thr) == loop_average_precision(dets, gts, thr)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(scores, intervals), max_size=25), st.lists(intervals, min_size=1, max_size=6))
    def test_threshold_sequence_equals_one_call_each(self, dets, gts):
        grid = list(evaluate.MAP_TIOU_GRID)
        assert evaluate.average_precision(dets, gts, grid) == [
            evaluate.average_precision(dets, gts, thr) for thr in grid]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_detection_maps(self, K, data_):
        videos = st.sampled_from(["a", "b", "c"])
        dets = [Det(v, k, iv, s) for v, k, iv, s in data_.draw(st.lists(
            st.tuples(videos, st.integers(0, K - 1), intervals, scores), max_size=30))]
        # some classes get no truths at all
        truths = {k: data_.draw(st.lists(st.tuples(videos, intervals), max_size=4))
                  for k in range(K)}
        grid = evaluate.MAP_TIOU_GRID
        maps = evaluate._maps(*as_arrays(dets, truths), [0, K])
        assert [by_threshold(row) for row in maps] == [loop_detection_maps(dets, truths, grid)]


def loop_scores(dets, truths):
    """(map50, avg_map) of one episode from the loop oracle's maps."""
    maps = loop_detection_maps(dets, truths, evaluate.MAP_TIOU_GRID)
    return maps[0.5], float(np.mean([maps[float(t)] for t in evaluate.MAP_TIOU_GRID]))


# each episode one edge case: (Det records, {class: [(video, interval)]})
EDGE_EPISODES = [
    # class 1 has truths and no detections, so it scores 0 inside the mean
    ([Det(0, 0, (0, 2), 0.9)], {0: [(0, (0, 2))], 1: [(1, (3, 5))]}),
    # no live rows: no detection reaches tIoU 0.5 with a truth of its video
    ([Det(0, 0, (0, 4), 0.9), Det(1, 0, (0, 2), 0.8)], {0: [(0, (3, 8)), (2, (0, 2))]}),
    # equal scores across videos: the earlier detection ranks first
    ([Det(0, 0, (5, 6), 0.5), Det(1, 0, (0, 2), 0.5), Det(2, 0, (0, 2), 0.5)],
     {0: [(1, (0, 2)), (2, (0, 2))]}),
    # (0, 4) overlaps both truths by 0.5 and takes the first, which leaves
    # (2, 4) for the second detection
    ([Det(0, 0, (0, 4), 0.9), Det(0, 0, (2, 4), 0.8)], {0: [(0, (0, 2)), (0, (2, 4))]}),
    # class 2 is detected but has no truths: it stays out of the class mean
    ([Det(0, 2, (0, 2), 0.9), Det(0, 0, (0, 2), 0.4), Det(1, 0, (4, 6), 0.6)],
     {0: [(0, (0, 2))], 1: [(1, (4, 6))], 2: []}),
    # nothing to detect at all
    ([Det(0, 0, (0, 2), 0.9)], {0: []}),
    # nine classes with APs 1/r, whose sum over classes has other bits when
    # NumPy adds along a strided axis
    ([Det(1, k, (0, 2), 0.9) for k, r in enumerate([2, 6, 3, 2, 5, 2, 3, 4, 4])
      for _ in range(r - 1)] + [Det(0, k, (0, 2), 0.5) for k in range(9)],
     {k: [(0, (0, 2))] for k in range(9)}),
]


class TestCallScorer:
    """`_maps` scores all of an evaluation call's episodes in one AP pass;
    each episode must score as the loop oracle scores it alone."""

    def test_edge_episodes(self):
        maps = call_maps([as_arrays(*ep) for ep in EDGE_EPISODES])
        assert [by_threshold(row) for row in maps] == [
            loop_detection_maps(*ep, evaluate.MAP_TIOU_GRID) for ep in EDGE_EPISODES]
        got = map_pairs(maps)
        assert got == [loop_scores(*ep) for ep in EDGE_EPISODES]
        assert got[0] == (0.5, 0.5) and got[1] == (0.0, 0.0) and got[5] == (0.0, 0.0)
        assert got[2][0] == pytest.approx(2.0 / 3.0)  # hits at ranks 2 and 3 of 3
        assert got[3][0] == 1.0 and got[4][0] == 0.25  # (0.5 + 0) / 2, class 2 left out

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5),
           st.data())
    def test_equals_loop_per_episode(self, shapes, data_):
        # episodes of K classes and Q queries each, both ragged across episodes
        found, want = [], []
        for K, Q in shapes:
            videos = st.integers(0, Q - 1)
            dets = [Det(v, k, iv, s) for v, k, iv, s in data_.draw(st.lists(
                st.tuples(videos, st.integers(0, K - 1), intervals, scores), max_size=20))]
            truths = {k: data_.draw(st.lists(st.tuples(videos, intervals), max_size=3))
                      for k in range(K)}
            found.append(as_arrays(dets, truths))
            want.append(loop_scores(dets, truths))
        maps = call_maps(found)
        assert map_pairs(maps) == want
        assert [by_threshold(row) for row in maps] == [
            loop_detection_maps(*as_lists(*ep), evaluate.MAP_TIOU_GRID) for ep in found]
        # any subset of the episodes, in any order, scores the same rows
        picks = data_.draw(st.lists(st.integers(0, len(found) - 1), min_size=1, max_size=3))
        assert map_pairs(call_maps([found[i] for i in picks])) == [want[i] for i in picks]


# query rows share their first axis, so a prototype row opposite it gives an
# all-negative activation column and a zero row an all-zero one; repeated rows
# tie scores and repeat runs across thresholds
ATOMS = np.array([[1.0, 0.2, 0.0], [1.0, 0.0, 0.5], [0.6, 0.8, 0.0], [1.0, 0.5, 0.5]])
PROTO_ROWS = np.vstack([ATOMS / np.linalg.norm(ATOMS, axis=1, keepdims=True),
                        np.zeros(3), [-1.0, 0.0, 0.0]])


class TestEpisodePath:
    """An episode's queries are classified as stacks and their detections
    scored together on index arrays; the per-query loops must give the same
    accuracy, the same detections and the same float bits."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.lists(st.integers(1, 12), min_size=1, max_size=6), st.data())
    def test_proposals_equal_per_video_loop(self, K, lengths, data_):
        cams = [np.array(data_.draw(st.lists(activations, min_size=T * K, max_size=T * K)))
                .reshape(T, K) for T in lengths]
        got = evaluate.episode_proposals(np.concatenate(cams), lengths)
        assert as_results(got) == [det for v, A in enumerate(cams)
                                   for det in loop_extract_proposals(A, video_id=v)]

    def test_zero_negative_and_tied_columns(self):
        # video 0: class 0 all zero, class 1 all negative, class 2 two tied
        # runs; video 1 would extend class 2's last run if runs crossed videos
        cams = [np.array([[0.0, -0.5, 0.8], [0.0, -1.0, 0.8], [0.0, -0.5, 0.0],
                          [0.0, -0.2, 0.8]]),
                np.array([[0.0, -0.5, 0.8]])]
        got = as_results(evaluate.episode_proposals(np.concatenate(cams), [4, 1]))
        assert got == [det for v, A in enumerate(cams)
                       for det in loop_extract_proposals(A, video_id=v)]
        assert [(d.video_id, d.class_index, d.interval) for d in got] == [
            (0, 2, (0, 2)), (0, 2, (3, 4)), (1, 2, (0, 1))]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 96), st.integers(1, 4),
           st.lists(st.integers(1, 10), min_size=1, max_size=6), st.booleans(), st.data())
    def test_equals_per_query_loop(self, seed, K, lengths, sw, data_):
        params = model.init_params(n_classes=2, d_in=3, d=3, kernel_width=3, seed=seed)
        proto = PROTO_ROWS[data_.draw(st.lists(st.integers(0, 5), min_size=K, max_size=K))]
        queries = []
        for i, T in enumerate(lengths):
            f = ATOMS[data_.draw(st.lists(st.integers(0, 3), min_size=T, max_size=T))]
            # 0-2 truths; labels are drawn, so some classes have none
            bounds = sorted(data_.draw(st.lists(st.integers(0, T), unique=True, max_size=4)))
            video = data.SegmentFeatureSequence(
                video_id=f"q{i}", class_label=data_.draw(st.integers(0, K - 1)), features=f,
                gt_intervals=list(zip(bounds[0::2], bounds[1::2])))
            queries.append((video, f))
        remap = {k: k for k in range(K)}  # for the loops: labels are episode classes
        labels = [video.class_label for video, _ in queries]
        cfg, grid = LossConfig(sw=sw), evaluate.MAP_TIOU_GRID
        got = call_maps([episode_detections(params, proto, queries, labels, cfg)])
        map50, avg_map, maps = loop_detection(params, remap, proto, queries, cfg, grid)
        assert map_pairs(got) == [(map50, avg_map)]
        assert by_threshold(got[0]) == maps
        assert (evaluate.classification_accuracy(params, [f for _, f in queries], labels,
                                                 proto, cfg)
                == loop_accuracy(params, remap, proto, queries, cfg))

    def test_length_grouped_means_equal_slice_reduce(self):
        # lengths 1-40 cross the 8-wide blocks of NumPy's pairwise sum at 8
        # and 16; magnitudes spread over 8 decades make the order show
        rng = np.random.default_rng(8)
        A = rng.normal(size=(64, 3)) * 10.0 ** rng.integers(-4, 5, size=(64, 3))
        length = rng.permutation(np.repeat(np.arange(1, 41), 6))
        first = rng.integers(0, 64 - length + 1)
        cls = rng.integers(0, 3, size=length.size)
        want = [np.add.reduce(A[s:s + L, k]) / L for s, k, L in zip(first, cls, length)]
        assert evaluate._run_means(A, first, cls, length).tolist() == want
        # a prefix-sum difference adds in another order and misses these bits
        prefix = np.cumsum(np.vstack([np.zeros(3), A]), axis=0)
        assert ((prefix[first + length, cls] - prefix[first, cls]) / length).tolist() != want


class TestNoGradPath:
    """The array path evaluation uses equals the autodiff forward bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 12),
           st.integers(1, 10), st.integers(1, 9))
    def test_equals_autodiff_forward(self, seed, T, d_in, d, width):
        from fewvid import autodiff as ad
        from fewvid.losses import aggregate_video_feature, self_weight

        p = model.init_params(n_classes=3, d_in=d_in, d=d, kernel_width=width, seed=seed)
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(T, d_in)).astype(np.float32)
        i_bg = int(rng.integers(0, T))

        graph = model.embed_segments(p, raw)
        f = model.embed_segments(p, raw, grad=False)
        np.testing.assert_array_equal(f, graph.data)
        np.testing.assert_array_equal(model.segment_logits(p, f),
                                      model.segment_logits(p, graph).data)
        w_graph = self_weight(graph, i_bg)
        w = self_weight(f, i_bg)
        np.testing.assert_array_equal(w, w_graph.data)
        np.testing.assert_array_equal(aggregate_video_feature(f, w),
                                      aggregate_video_feature(graph, w_graph).data)
        attn_graph = model.baseline_attention(p, graph)
        attn = model.baseline_attention(p, f)
        np.testing.assert_array_equal(attn, attn_graph.data)
        np.testing.assert_array_equal(aggregate_video_feature(f, attn),
                                      aggregate_video_feature(graph, attn_graph).data)
        assert isinstance(graph, ad.Tensor) and not isinstance(f, ad.Tensor)


class TestStackedClassify:
    """classify_query on a (Q, T, d) stack gives each query the bits the
    one-query formulas give it, with shared or per-query prototypes, and an
    evaluation call classifies its queries in call-wide stacks of at most
    EMBED_CHUNK queries of one length."""

    @settings(max_examples=300, deadline=None)
    # d = 0 stands for the tied 3-wide rows below
    @given(st.integers(0, 96), st.integers(1, 8), st.integers(1, 12), st.integers(1, 5),
           st.booleans(), st.sampled_from([0, 3, 8, 64]), st.booleans())
    @example(seed=0, Q=1, T=1, K=1, sw=True, d=8, shared=True)
    @example(seed=1, Q=1, T=7, K=3, sw=False, d=0, shared=True)
    @example(seed=2, Q=1, T=12, K=5, sw=True, d=64, shared=True)
    @example(seed=3, Q=4, T=5, K=3, sw=False, d=0, shared=False)
    def test_equals_per_query_oracle(self, seed, Q, T, K, sw, d, shared):
        # shared: one (K, d) matrix for the stack; else a (Q, K, d) stack
        rng = np.random.default_rng(seed)
        protos = 1 if shared else Q
        if d == 0:
            # repeated segment and prototype rows tie the K-way maxima, within
            # a query and across prototypes
            d = 3
            f = ATOMS[rng.integers(0, 4, size=(Q, T))]
            proto = PROTO_ROWS[rng.integers(0, 6, size=(protos, K))]
        else:
            f = rng.normal(size=(Q, T, d))
            f /= np.linalg.norm(f, axis=2, keepdims=True)
            proto = rng.normal(size=(protos, K, d))
            proto /= np.linalg.norm(proto, axis=2, keepdims=True)
        params = model.init_params(n_classes=2, d_in=d, d=d, kernel_width=3, seed=seed)
        cfg = LossConfig(sw=sw)
        res = evaluate.classify_query(params, f, proto[0] if shared else proto, cfg)
        assert res.probs.shape == (Q, K) and res.weights.shape == (Q, T)
        for q in range(Q):
            own = proto[0 if shared else q]
            probs, top1, weights, i_bg = loop_classify_query(params, f[q], own, cfg)
            assert np.array_equal(res.probs[q], probs)
            assert np.array_equal(res.weights[q], weights)
            assert np.array_equal(res.cosines[q], f[q] @ own.T)
            assert (res.top1[q], res.i_bg[q]) == (top1, i_bg)
            one = evaluate.classify_query(params, f[q][None], own, cfg)
            assert np.array_equal(one.probs[0], probs) and np.array_equal(one.weights[0], weights)
            assert (one.top1[0], one.i_bg[0]) == (top1, i_bg)

    @pytest.mark.parametrize("mode", ["classification", "detection"])
    @pytest.mark.parametrize("sw", [True, False])
    def test_mixed_length_corpus_equals_per_episode_oracle(self, mixed_novel, mode, sw):
        params = model.init_params(n_classes=3, d_in=6, d=5, kernel_width=3, seed=7)
        cfg = LossConfig(sw=sw)
        got = evaluate.evaluate(params, mixed_novel, mode, K=3, n=1, q=3, episodes=6,
                                seed=2, cfg=cfg)["per_episode"]
        assert got == oracle_evaluate(params, mixed_novel, mode, 3, 1, 3, 6, 2, cfg)

    @pytest.mark.parametrize("chunk", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["classification", "detection"])
    def test_call_wide_stacks_of_at_most_a_chunk(self, mixed_novel, monkeypatch, chunk, mode):
        stacks = []  # (queries, length, distinct prototype matrices) of each call
        classify = evaluate.classify_query

        def counting(params, f, proto, cfg):
            stacks.append((len(f), f.shape[1], len({p.tobytes() for p in proto})))
            return classify(params, f, proto, cfg)

        monkeypatch.setattr(evaluate, "classify_query", counting)
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", chunk)
        K, n, q, episodes, seed = 3, 1, 3, 12, 5
        evaluate.episode_scores(model.init_params(n_classes=3, d_in=6, d=5, seed=1),
                                mixed_novel, mode, range(episodes), K=K, n=n, q=q, seed=seed)
        counts = {}  # query length -> queries of the call, lengths in order of first use
        for draw in draw_all(mixed_novel, K, n, q, episodes, seed):
            for entry in draw.queries:
                T = int(entry.feature_file.split("/")[0][1:])
                counts[T] = counts.get(T, 0) + 1
        assert len(counts) > 1
        want = [(min(chunk, count - start), T) for T, count in counts.items()
                for start in range(0, count, chunk)]
        assert [stack[:2] for stack in stacks] == want
        assert len(stacks) == sum(-(-count // chunk) for count in counts.values())
        assert max(size for size, _, _ in stacks) == chunk
        assert max(protos for _, _, protos in stacks) > 1  # a stack spans two episodes


@pytest.fixture(scope="module")
def mixed_novel(tmp_path_factory):
    """Three novel classes, each with four videos of 10 segments and four of 7."""
    root = tmp_path_factory.mktemp("mixed_novel")
    entries = []
    for T in (10, 7):
        cfg = data.SyntheticConfig(n_base_classes=1, n_novel_classes=3, videos_per_class=4,
                                   T=T, d_in=6, seed=T)
        _, novel = data.generate_synthetic_dataset(cfg, root / f"T{T}")
        entries += [dataclasses.replace(e, video_id=f"T{T}_{e.video_id}",
                                        feature_file=f"T{T}/{e.feature_file}")
                    for e in novel.entries]
    return data.DatasetManifest(split="novel", class_names=novel.class_names, entries=entries,
                                root=root)
