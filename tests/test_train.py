"""Optimizer arithmetic, the training loop, determinism, divergence handling."""

import warnings

import numpy as np
import pytest

from fewvid import autodiff as ad
from fewvid import data, model, train
from fewvid.errors import DataError, NumericError
from fewvid.losses import LossConfig


def scalar_tensors(**values):
    return {k: ad.Tensor(np.array(v), requires_grad=True) for k, v in values.items()}


class TestNesterovStep:
    def test_hand_example(self):
        tensors = scalar_tensors(p=0.0)
        state = train.OptimizerState(lr=0.1, momentum=0.9)
        train.nesterov_step(tensors, {"p": np.array(1.0)}, state)
        assert float(state.velocity["p"]) == pytest.approx(-0.1)
        assert float(tensors["p"].data) == pytest.approx(-0.19)

    def test_zero_gradient_is_fixed_point(self):
        tensors = scalar_tensors(p=2.5)
        state = train.OptimizerState(lr=0.1, momentum=0.9)
        train.nesterov_step(tensors, {"p": np.array(0.0)}, state)
        assert float(tensors["p"].data) == 2.5

    def test_zero_momentum_is_plain_sgd(self):
        tensors = scalar_tensors(p=1.0)
        state = train.OptimizerState(lr=0.05, momentum=0.0)
        train.nesterov_step(tensors, {"p": np.array(2.0)}, state)
        assert float(tensors["p"].data) == pytest.approx(1.0 - 0.05 * 2.0)

    def test_two_steps_accumulate_velocity(self):
        tensors = scalar_tensors(p=0.0)
        state = train.OptimizerState(lr=0.1, momentum=0.9)
        # manual recurrence: v' = mu*v - lr*g; p' = p + mu*v' - lr*g
        p, v = 0.0, 0.0
        for _ in range(2):
            train.nesterov_step(tensors, {"p": np.array(1.0)}, state)
            v = 0.9 * v - 0.1
            p = p + 0.9 * v - 0.1
        assert float(tensors["p"].data) == pytest.approx(p)
        assert float(state.velocity["p"]) == pytest.approx(v)

    def test_classifier_rows_renormalized(self):
        w = np.random.default_rng(0).normal(size=(4, 6))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        tensors = {"classifier": ad.Tensor(w, requires_grad=True)}
        state = train.OptimizerState(lr=0.5, momentum=0.9)
        g = np.random.default_rng(1).normal(size=(4, 6))
        train.nesterov_step(tensors, {"classifier": g}, state)
        norms = np.linalg.norm(tensors["classifier"].data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_shape_mismatch(self):
        tensors = {"a": ad.Tensor(np.zeros((2, 3)), requires_grad=True)}
        with pytest.raises(ad.ShapeError):
            train.nesterov_step(tensors, {"a": np.zeros((3, 2))}, train.OptimizerState())

    def test_missing_grad_skips_tensor(self):
        tensors = scalar_tensors(a=1.0, b=2.0)
        state = train.OptimizerState(lr=0.1, momentum=0.0)
        train.nesterov_step(tensors, {"a": np.array(1.0)}, state)
        assert float(tensors["a"].data) == pytest.approx(0.9)
        assert float(tensors["b"].data) == 2.0


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_ds")
    cfg = data.SyntheticConfig(
        n_base_classes=3, n_novel_classes=2, videos_per_class=8,
        T=12, d_in=10, noise_std=0.1, seed=11)
    base, novel = data.generate_synthetic_dataset(cfg, root)
    return base, novel


class TestTrainBase:
    def test_loss_decreases_on_separable_toy(self, tmp_path):
        # two classes, noise-free features: the classification loss must fall
        cfg = data.SyntheticConfig(
            n_base_classes=2, n_novel_classes=1, videos_per_class=10,
            T=8, d_in=6, noise_std=0.01, seed=7)
        base, _ = data.generate_synthetic_dataset(cfg, tmp_path)
        result = train.train_base(
            base, LossConfig(gamma1=0.0, gamma2=0.0), d=8, epochs=40,
            batch_size=10, seed=0)
        first = np.mean([r[1] for r in result.log_rows[:5]])
        last = np.mean([r[1] for r in result.log_rows[-5:]])
        assert last < first
        assert train.training_accuracy(result.params, base) >= 0.9

    def test_deterministic_checkpoints(self, tiny_dataset, tmp_path):
        base, _ = tiny_dataset
        paths = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.ckpt"
            log = tmp_path / f"{name}.csv"
            train.train_base(base, d=8, epochs=2, seed=5, ckpt_path=ckpt, log_path=log)
            paths.append((ckpt, log))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_classifier_rows_stay_unit(self, tiny_dataset):
        base, _ = tiny_dataset
        result = train.train_base(base, d=8, epochs=1, seed=3)
        norms = np.linalg.norm(result.params.classifier.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_log_columns_and_steps(self, tiny_dataset, tmp_path):
        base, _ = tiny_dataset
        log = tmp_path / "train.csv"
        result = train.train_base(base, d=8, epochs=2, batch_size=16, seed=1, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "step,L_total,L_cls,L_contrast,L_bg,n_nbg"
        assert len(lines) - 1 == len(result.log_rows)
        steps_per_epoch = -(-len(base.entries) // 16)
        assert len(result.log_rows) == 2 * steps_per_epoch
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(
            range(1, len(result.log_rows) + 1))

    def test_divergence_aborts_with_last_good_checkpoint(self, tiny_dataset, tmp_path):
        base, _ = tiny_dataset
        ckpt = tmp_path / "diverged.ckpt"
        # the overflow on the way is not warned about: the non-finite loss decides
        with pytest.raises(NumericError) as err, warnings.catch_warnings():
            warnings.simplefilter("error")
            train.train_base(base, d=8, epochs=5, seed=2, lr=1e160, ckpt_path=ckpt)
        assert "step" in str(err.value)
        saved, _ = model.load_checkpoint(ckpt)
        for t in saved.tensors().values():
            assert np.all(np.isfinite(t.data))

    def test_checkpoint_config_echo(self, tiny_dataset, tmp_path):
        base, _ = tiny_dataset
        ckpt = tmp_path / "echo.ckpt"
        train.train_base(base, d=8, epochs=1, seed=4, ckpt_path=ckpt,
                         config_echo={"note": "tiny"})
        _, echo = model.load_checkpoint(ckpt)
        assert echo["note"] == "tiny"
        assert echo["n_classes"] == 3
        assert echo["d"] == 8
        assert echo["label_order"] == [0, 1, 2]

    def test_empty_manifest_rejected(self):
        empty = data.DatasetManifest(split="base", class_names=[], root=".")
        with pytest.raises(DataError):
            train.train_base(empty)

    def test_accuracy_of_empty_manifest_rejected(self):
        empty = data.DatasetManifest(split="base", class_names=[], root=".")
        params = model.init_params(n_classes=3, d_in=8, d=8, seed=0)
        with pytest.raises(DataError, match="cannot take the training accuracy of an empty "
                                            "manifest"):
            train.training_accuracy(params, empty)


class TestGradcheckObjective:
    def test_standard_fixture_passes(self):
        arrays, builder = train.gradcheck_objective(seed=0)
        report = ad.grad_check(builder, arrays, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()

    def test_fixture_exercises_every_term(self):
        from fewvid.losses import total_loss
        rng_arrays, builder = train.gradcheck_objective(seed=0)
        params = model.ModelParams(
            **{k: ad.Tensor(v, requires_grad=True) for k, v in rng_arrays.items()})
        rng = np.random.default_rng(0)
        batch = [
            train.BatchVideo(features=rng.normal(size=(8, 8)), label=int(rng.integers(3)))
            for _ in range(2)
        ]
        _, stats = total_loss(params, batch, t_n=0.5)
        assert stats["n_nbg"] >= 2  # both contrastive terms and the bg loss are live
        assert stats["l_contrast"] > 0.0
        assert stats["l_bg"] > 0.0
