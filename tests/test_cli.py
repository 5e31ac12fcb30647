"""Exit codes, config precedence, reproducible outputs of every subcommand."""

import dataclasses
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fewvid import autodiff as ad
from fewvid import cli, config, data, model, train
from fewvid.data import SyntheticConfig
from fewvid.errors import DataError
from fewvid.losses import LossConfig, total_loss


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY = """
# desk-scale smoke configuration
n_base_classes = 3
n_novel_classes = 3
videos_per_class = 6
T = 10
d_in = 8
d = 8
epochs = 2
batch_size = 8
K = 2
n = 1
q = 2
episodes = 3
noise_std = 0.1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ws")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(
        TINY + f"\ndata_dir = {root / 'dataset'}\nckpt = {root / 'model.ckpt'}\n")
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


RUN_CONFIG_KEYS = [
    "n_base_classes", "n_novel_classes", "videos_per_class", "T", "d_in", "ibg_concepts",
    "nbg_concepts", "overlap_fraction", "noise_std", "seed",
    "tau", "tau_s", "c", "margin", "beta", "gamma1", "gamma2",
    "bg", "sw", "cl",
    "d", "kernel_width", "attn_width",
    "t_n", "top_m",
    "lr", "momentum", "batch_size", "epochs",
    "K", "n", "q", "episodes",
    "jobs", "data_dir", "ckpt", "out",
]


class TestConfigFile:
    def test_keys_are_pinned(self):
        # adding or removing a key changes every config file's contract
        assert [f.name for f in dataclasses.fields(config.RunConfig)] == RUN_CONFIG_KEYS
        assert len(RUN_CONFIG_KEYS) == 37
        listed = re.findall(r"^  (\w+) = ", config.describe_keys(), flags=re.M)
        assert listed == RUN_CONFIG_KEYS

    @pytest.mark.parametrize("key", ["use_probabilities", "renormalize_video_feature"])
    def test_removed_switch_exits_2(self, tmp_path, capsys, key):
        # segments are scored by their best logit and the video feature is
        # always re-normalized, so neither is a switch
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = false\n")
        code, _, err = run(["train", "--config", str(path)], capsys)
        assert code == 2
        assert f"unknown config key {key!r}" in err

    def test_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("epochs = 7\nlr = 0.5\nsw = false\n")
        cfg = config.build_config(path, {"epochs": 9, "seed": None})
        assert cfg.epochs == 9  # flag wins over file
        assert cfg.lr == 0.5
        assert cfg.sw is False
        assert cfg.seed == 0  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(DataError) as err:
            config.build_config(path, {})
        assert "learning_rate" in str(err.value)

    def test_soft_is_not_a_key(self, tmp_path):
        # the soft classification loss is always on, so there is no switch
        path = tmp_path / "bad.cfg"
        path.write_text("soft = true\n")
        with pytest.raises(DataError, match="unknown config key 'soft'"):
            config.build_config(path, {})

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(DataError):
            config.build_config(path, {})

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 7\n")
        with pytest.raises(DataError):
            config.build_config(path, {})

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# comment\nepochs = 3  # trailing\n\n")
        assert config.build_config(path, {}).epochs == 3

    def test_bool_words(self, tmp_path):
        for word, want in (("true", True), ("YES", True), ("0", False), ("off", False)):
            path = tmp_path / "b.cfg"
            path.write_text(f"cl = {word}\n")
            assert config.build_config(path, {}).cl is want

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"lr = {text}\n")
        with pytest.raises(DataError, match="not a finite number"):
            config.build_config(path, {})

    def test_validation_catches_bad_ranges(self):
        cfg = config.RunConfig(momentum=1.5)
        with pytest.raises(DataError):
            cfg.validate()

    def test_run_config_declares_no_inherited_field(self):
        # a redeclared corpus or objective field would shadow its one default
        # and range check
        inherited = {f.name for base in (LossConfig, SyntheticConfig)
                     for f in dataclasses.fields(base)}
        assert not inherited & set(config.RunConfig.__annotations__)

    def test_inherited_keys_parse_to_their_types(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("tau = 3\nbg = off\nT = 7\nnoise_std = 1\nseed = 4\n")
        cfg = config.build_config(path, {})
        assert (cfg.tau, cfg.bg, cfg.T, cfg.noise_std, cfg.seed) == (3.0, False, 7, 1.0, 4)
        assert type(cfg.tau) is float and type(cfg.noise_std) is float


class TestConfigRanges:
    """A config value outside its range is a data error (exit 2) naming the
    key, whichever class declares it."""

    @pytest.mark.parametrize("key, text", [
        ("tau", "-1"), ("tau_s", "0"), ("margin", "5"), ("gamma1", "-1"), ("gamma2", "-0.5"),
        ("overlap_fraction", "1.5"), ("momentum", "1.5"), ("beta", "-3"), ("c", "5"),
        ("c", "-0.5")])
    def test_exits_2_naming_key(self, tmp_path, capsys, key, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + f"\n{key} = {text}\ndata_dir = {tmp_path / 'ds'}\n")
        out_dir = tmp_path / "out"
        code, _, err = run(["train", "--config", str(cfg), "--ckpt", str(out_dir / "m.ckpt"),
                            "--out", str(out_dir / "log.csv")], capsys)
        assert code == 2
        assert "data error" in err and re.search(rf"(^|\W){key} must", err)
        assert not out_dir.exists()


class TestParserBasics:
    def test_help_exits_zero_and_lists_every_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for f in dataclasses.fields(config.RunConfig):
            assert f.name in out

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_ablate_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--ablate", "everything"])
        assert exc.value.code == 1

    def test_console_script_help(self):
        # the child does not inherit pytest's pythonpath setting
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "fewvid.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout


class TestGenData:
    def test_writes_tree_and_reruns_identically(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(TINY)
        code, out, _ = run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "ds")], capsys)
        assert code == 0
        assert "base: 18 videos, 3 classes" in out
        assert (tmp_path / "ds" / "base_manifest.jsonl").exists()
        assert (tmp_path / "ds" / "novel" ).is_dir()
        first = sorted((p.name, p.read_bytes()) for p in (tmp_path / "ds").rglob("*.segf"))
        assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "ds")], capsys)[0] == 0
        second = sorted((p.name, p.read_bytes()) for p in (tmp_path / "ds").rglob("*.segf"))
        assert first == second

    def test_invalid_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("frobnication_level = 9\n")
        code, _, err = run(["gen-data", "--config", str(cfg)], capsys)
        assert code == 2
        assert "frobnication_level" in err


class TestTrain:
    def test_artifacts_exist(self, workspace):
        root, _ = workspace
        assert (root / "model.ckpt").exists()
        assert (root / "model.ckpt.log.csv").read_text().startswith(
            "step,L_total,L_cls,L_contrast,L_bg,n_nbg")

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'nowhere'}\n")
        code, _, err = run(["train", "--config", str(cfg)], capsys)
        assert code == 2

    def test_empty_or_missing_feature_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY + f"\ndata_dir = {tmp_path / 'ds'}\n"
                            f"ckpt = {tmp_path / 'model.ckpt'}\n")
        assert run(["gen-data", "--config", str(cfg_path)], capsys)[0] == 0
        victim = sorted((tmp_path / "ds" / "base").glob("*.segf"))[0]
        data.write_feature_file(np.zeros((0, 8)), victim)
        code, _, err = run(["train", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "data error" in err and "empty" in err
        victim.unlink()
        code, _, err = run(["train", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "cannot read feature file" in err

    @staticmethod
    def diverging(workspace, tmp_path):
        """A config that diverges at lr = 1e160, its checkpoint path holding a
        stale file; returns (config, checkpoint, log) paths."""
        root, _ = workspace
        ckpt, log = tmp_path / "diverged.ckpt", tmp_path / "diverged.csv"
        ckpt.write_bytes(b"stale checkpoint from an earlier run")
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text(TINY + f"\nlr = 1e160\nepochs = 5\ndata_dir = {root / 'dataset'}\n"
                            f"ckpt = {ckpt}\nout = {log}\n")
        return cfg_path, ckpt, log

    @staticmethod
    def assert_last_good(err, ckpt, log):
        assert "numeric failure: non-finite loss at step" in err and str(ckpt) in err
        saved, _ = model.load_checkpoint(ckpt)
        for t in saved.tensors().values():
            assert np.all(np.isfinite(t.data))
        assert log.read_text().startswith("step,L_total,L_cls,L_contrast,L_bg,n_nbg\n")

    def test_divergence_exits_3_with_last_good_checkpoint_and_log(self, workspace, tmp_path,
                                                                   capsys):
        cfg_path, ckpt, log = self.diverging(workspace, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["train", "--config", str(cfg_path)], capsys)
        assert code == 3
        self.assert_last_good(err, ckpt, log)

    def test_divergence_under_warnings_as_errors_exits_3(self, workspace, tmp_path):
        # a warning would end the run with a traceback before the checkpoint
        cfg_path, ckpt, log = self.diverging(workspace, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fewvid.cli", "train",
                               "--config", str(cfg_path)], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        self.assert_last_good(proc.stderr, ckpt, log)

    def test_ablate_soft_refused(self, workspace, capsys):
        _, cfg_path = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(cfg_path), "--ablate", "soft"])
        assert exc.value.code == 1
        assert "soft" in capsys.readouterr().err

    def test_ablation_recorded_in_checkpoint(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        ckpt = tmp_path / "ablated.ckpt"
        code, _, _ = run(["train", "--config", str(cfg_path), "--ckpt", str(ckpt),
                          "--out", str(tmp_path / "l.csv"), "--ablate", "sw", "--ablate", "cl"],
                         capsys)
        assert code == 0
        from fewvid import model
        _, echo = model.load_checkpoint(ckpt)
        assert sorted(echo["ablate"]) == ["cl", "sw"]


class TestEval:
    def test_eval_cls_prints_two_decimals(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        csv = tmp_path / "eval.csv"
        code, out, _ = run(["eval-cls", "--config", str(cfg_path), "--out", str(csv)], capsys)
        assert code == 0
        assert re.search(r"2-way 1-shot accuracy over 3 episodes: \d+\.\d\d ± \d+\.\d\d", out)
        lines = csv.read_text().splitlines()
        assert lines[0] == "episode,accuracy"
        assert len(lines) == 4

    def test_eval_cls_deterministic_bytes(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert run(["eval-cls", "--config", str(cfg_path), "--out", str(path)], capsys)[0] == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_det_smoke(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        csv = tmp_path / "det.csv"
        code, out, _ = run(["eval-det", "--config", str(cfg_path), "--episodes", "2",
                            "--out", str(csv)], capsys)
        assert code == 0
        assert "mAP@0.50 over 2 episodes:" in out
        assert "average mAP (tIoU 0.50:0.05:0.95):" in out
        assert csv.read_text().startswith("episode,map50,avg_map")

    def test_eval_det_deterministic_bytes(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert run(["eval-det", "--config", str(cfg_path), "--out", str(path)], capsys)[0] == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det"])
    def test_jobs_1_writes_the_bytes_of_a_run_without_it(self, workspace, tmp_path, capsys,
                                                         command):
        # the benchmark's call form: jobs = 1 in the config file and --jobs 1
        root, cfg_path = workspace
        with_jobs = tmp_path / "jobs.cfg"
        with_jobs.write_text(cfg_path.read_text() + "jobs = 1\n")
        plain, flagged = tmp_path / "plain.csv", tmp_path / "jobs.csv"
        assert run([command, "--config", str(cfg_path), "--out", str(plain)], capsys)[0] == 0
        assert run([command, "--config", str(with_jobs), "--out", str(flagged),
                    "--jobs", "1"], capsys)[0] == 0
        assert plain.read_bytes() == flagged.read_bytes()

    @pytest.mark.parametrize("where, value", [
        ("flag", "2"), ("flag", "0"), ("flag", "-1"), ("config file", "2")])
    def test_jobs_other_than_1_exits_2(self, workspace, tmp_path, capsys, where, value):
        root, cfg_path = workspace
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text(cfg_path.read_text() + (f"jobs = {value}\n" if where != "flag" else ""))
        csv = tmp_path / "eval.csv"
        code, out, err = run(["eval-cls", "--config", str(cfg), "--out", str(csv)]
                             + (["--jobs", value] if where == "flag" else []), capsys)
        assert code == 2
        assert "data error" in err and "jobs must be 1" in err
        assert "accuracy" not in out and not csv.exists()

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        code, _, err = run(["eval-cls", "--config", str(cfg_path),
                            "--ckpt", str(tmp_path / "no.ckpt")], capsys)
        assert code == 2

    def test_checkpoint_shorter_than_fixed_header_exits_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"FVCP\x01\x00")
        code, _, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert "data error" in err

    def test_checkpoint_header_without_tensors_exits_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        header = b'{"config": {}}'
        ckpt = tmp_path / "headless.ckpt"
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", 1, len(header)) + header)
        code, _, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert "tensors" in err

    @pytest.mark.parametrize("entry", [{"shape": [2, 2]}, {"name": "transform"},
                                       {"name": "transform", "shape": 4},
                                       {"name": "transform", "shape": [2, -1]}, "transform"])
    def test_checkpoint_tensor_entry_without_name_or_shape_exits_2(self, workspace, tmp_path,
                                                                   capsys, entry):
        root, cfg_path = workspace
        header = json.dumps({"tensors": [entry], "config": {}}).encode()
        ckpt = tmp_path / "entry.ckpt"
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", 1, len(header)) + header)
        code, _, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert "data error" in err and "shape" in err


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 naming it, with no
    traceback: a missing directory, or a directory where a file belongs."""

    @pytest.mark.parametrize("command, flag, target", [
        ("eval-cls", "--out", "nodir/x.csv"),
        ("eval-cls", "--out", "dir"),
        ("eval-det", "--out", "nodir/x.csv"),
        ("eval-det", "--out", "dir"),
        ("inspect", "--out", "nodir/x.csv"),
        ("inspect", "--out", "dir"),
        ("train", "--ckpt", "dir"),
        ("train", "--out", "dir"),
        ("train", "--ckpt", "file/x.ckpt"),
        ("train", "--out", "file/x.csv"),
        ("gen-data", "--out", "file"),
    ])
    def test_exits_2_naming_path(self, workspace, tmp_path, capsys, monkeypatch, command,
                                 flag, target):
        _, cfg_path = workspace
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("keep")
        path = tmp_path / target
        steps = []
        monkeypatch.setattr(train, "total_loss",
                            lambda *args, **kwargs: steps.append(1) or total_loss(*args, **kwargs))
        code, _, err = run([command, "--config", str(cfg_path), flag, str(path)], capsys)
        assert code == 2
        assert "cannot write" in err and str(path) in err
        assert not steps  # a train run that cannot save fails before its first step
        assert (tmp_path / "file").read_text() == "keep"


def fresh_corpus(workspace, tmp_path, capsys):
    """Config of a new copy of the workspace corpus under tmp_path that
    evaluates the workspace checkpoint."""
    root, _ = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"\ndata_dir = {tmp_path / 'ds'}\nckpt = {root / 'model.ckpt'}\n")
    assert run(["gen-data", "--config", str(cfg)], capsys)[0] == 0
    return cfg


class TestCheckpointEcho:
    """A checkpoint's ablate echo must be a list of component names."""

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det"])
    @pytest.mark.parametrize("ablate", [["sww"], "sw", [1], [["sw"]], None])
    def test_bad_ablate_exits_2(self, workspace, tmp_path, capsys, command, ablate):
        root, cfg_path = workspace
        params, echo = model.load_checkpoint(root / "model.ckpt")
        ckpt = tmp_path / "echo.ckpt"
        model.save_checkpoint(params, ckpt, dict(echo, ablate=ablate))
        code, out, err = run([command, "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert "'ablate'" in err and repr(ablate) in err
        assert "accuracy" not in out and "mAP" not in out


class TestNonFiniteFeatures:
    """A nan or inf feature value is a data error naming its file."""

    @pytest.mark.parametrize("command, split", [
        ("train", "base"), ("inspect", "base"), ("eval-cls", "novel"), ("eval-det", "novel")])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_exits_2_naming_file(self, workspace, tmp_path, capsys, command, split, value):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        for path in (tmp_path / "ds" / split).glob("*.segf"):
            features = data.read_feature_file(path)
            features[2, 3] = value
            data.write_feature_file(features, path)
        new_ckpt = tmp_path / "new.ckpt"
        argv = [command, "--config", str(cfg)] + (["--ckpt", str(new_ckpt)]
                                                  if command == "train" else [])
        code, out, err = run(argv, capsys)
        assert code == 2
        assert re.search(rf"{split}/{split}_c\d{{3}}_v\d{{3}}\.segf: holds non-finite", err)
        assert not new_ckpt.exists()
        assert "accuracy" not in out and "mAP" not in out


class TestIntervalsAgainstVideo:
    """An interval past the end of its video, or overlapping or unsorted
    intervals, are a data error naming the video."""

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det"])
    @pytest.mark.parametrize("intervals, reason", [
        ([[0, 500]], "is not inside its 10 segments"), ([[0, 10], [10, 11]], "not inside"),
        ([[0, 3], [2, 5]], "overlap or are unsorted"),
        ([[4, 6], [0, 2]], "overlap or are unsorted")])
    def test_exits_2_naming_video(self, workspace, tmp_path, capsys, command, intervals,
                                  reason):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / "novel_manifest.jsonl"
        header, *entries = manifest.read_text().splitlines()
        manifest.write_text("\n".join(
            [header] + [json.dumps(dict(json.loads(e), gt_intervals=intervals))
                        for e in entries]) + "\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert re.search(r"novel_c\d{3}_v\d{3}: ", err) and reason in err
        assert "accuracy" not in out and "mAP" not in out


class TestSegmentRolesAgainstVideo:
    """Segment roles that are not one per segment are a data error naming
    the video, whichever command loads its features."""

    @pytest.mark.parametrize("command, split", [
        ("train", "base"), ("inspect", "base"), ("eval-cls", "novel"), ("eval-det", "novel")])
    def test_exits_2_naming_video(self, workspace, tmp_path, capsys, command, split):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / f"{split}_manifest.jsonl"
        header, *entries = manifest.read_text().splitlines()
        manifest.write_text("\n".join(
            [header] + [json.dumps(dict(json.loads(e), segment_roles="FIN"))
                        for e in entries]) + "\n")
        new_ckpt = tmp_path / "new.ckpt"
        argv = [command, "--config", str(cfg)] + (["--ckpt", str(new_ckpt)]
                                                  if command == "train" else [])
        code, out, err = run(argv, capsys)
        assert code == 2
        assert re.search(rf"{split}_c\d{{3}}_v\d{{3}}: segment_roles has 3 roles for its "
                         rf"10 segments", err)
        assert not new_ckpt.exists()
        assert "accuracy" not in out and "mAP" not in out and "video_id" not in out


class TestBaseManifestChecks:
    """train applies the manifest rules inspect and evaluation apply."""

    @pytest.mark.parametrize("intervals, reason", [
        ([[0, 500]], "is not inside its 10 segments"),
        ([[0, 3], [2, 5]], "overlap or are unsorted")])
    def test_bad_intervals_exit_2_naming_video(self, workspace, tmp_path, capsys, intervals,
                                               reason):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / "base_manifest.jsonl"
        header, *entries = manifest.read_text().splitlines()
        manifest.write_text("\n".join(
            [header] + [json.dumps(dict(json.loads(e), gt_intervals=intervals))
                        for e in entries]) + "\n")
        new_ckpt = tmp_path / "new.ckpt"
        code, _, err = run(["train", "--config", str(cfg), "--ckpt", str(new_ckpt)], capsys)
        assert code == 2
        assert "base_c000_v000: " in err and reason in err
        assert not new_ckpt.exists()

    def test_header_only_manifest_exits_2(self, workspace, tmp_path, capsys):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / "base_manifest.jsonl"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        new_ckpt = tmp_path / "new.ckpt"
        code, _, err = run(["train", "--config", str(cfg), "--ckpt", str(new_ckpt)], capsys)
        assert code == 2
        assert "data error" in err and "empty manifest" in err
        assert not new_ckpt.exists()


class TestCheckpointAgainstCorpus:
    """Checkpoints that disagree with themselves or with the corpus are data errors."""

    def edited(self, workspace, tmp_path, **arrays):
        root, _ = workspace
        params, echo = model.load_checkpoint(root / "model.ckpt")
        for name, arr in arrays.items():
            setattr(params, name, ad.Tensor(arr))
        path = tmp_path / "edited.ckpt"
        model.save_checkpoint(params, path, echo)
        return path

    @pytest.mark.parametrize("name, shape", [("transform", (4, 8)), ("classifier", (4, 5)),
                                             ("attn_out", (1, 31))])
    def test_disagreeing_shapes_exit_2(self, workspace, tmp_path, capsys, name, shape):
        _, cfg_path = workspace
        ckpt = self.edited(workspace, tmp_path, **{name: np.ones(shape)})
        code, _, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert "data error" in err and "disagree" in err

    def test_nan_parameter_exits_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        classifier = model.load_checkpoint(root / "model.ckpt")[0].classifier.data.copy()
        classifier[1, 2] = np.nan
        ckpt = self.edited(workspace, tmp_path, classifier=classifier)
        code, out, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)],
                             capsys)
        assert code == 2
        assert "classifier holds non-finite" in err and "accuracy" not in out

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det", "inspect"])
    def test_overflowing_weight_exits_3(self, workspace, tmp_path, capsys, command):
        # finite but huge: the embedding overflows, which is a numeric failure
        root, cfg_path = workspace
        transform = model.load_checkpoint(root / "model.ckpt")[0].transform.data.copy()
        transform[0, 0] = 1e308
        ckpt = self.edited(workspace, tmp_path, transform=transform)
        code, _, err = run([command, "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 3
        assert "numeric failure" in err and "overflow" in err

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det", "inspect"])
    def test_checkpoint_narrower_than_corpus_exits_2(self, workspace, tmp_path, capsys,
                                                     command):
        _, cfg_path = workspace
        ckpt = self.edited(workspace, tmp_path, transform=np.ones((8, 4)))
        code, _, err = run([command, "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert "features are 8 wide" in err and "d_in = 4" in err

    def test_corpus_wider_than_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        wide = tmp_path / "wide.cfg"
        wide.write_text(TINY + f"\nd_in = 16\ndata_dir = {tmp_path / 'dataset'}\n"
                        f"ckpt = {root / 'model.ckpt'}\n")
        assert cli.main(["gen-data", "--config", str(wide)]) == 0
        code, _, err = run(["eval-det", "--config", str(wide)], capsys)
        assert code == 2
        assert "features are 16 wide" in err and "d_in = 8" in err


class TestBaseWidthMismatch:
    def test_one_narrower_base_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY + f"\ndata_dir = {tmp_path / 'ds'}\n"
                            f"ckpt = {tmp_path / 'model.ckpt'}\n")
        assert run(["gen-data", "--config", str(cfg_path)], capsys)[0] == 0
        victim = sorted((tmp_path / "ds" / "base").glob("*.segf"))[3]
        data.write_feature_file(data.read_feature_file(victim)[:, :7], victim)
        code, _, err = run(["train", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert victim.name in err and "7 wide" in err and "8 wide" in err
        assert not (tmp_path / "model.ckpt").exists()


class TestNonFiniteConfig:
    """nan and inf float values are bad config (exit 2) before any work starts."""

    @pytest.mark.parametrize("command, key, text", [
        ("gen-data", "noise_std", "nan"), ("gen-data", "noise_std", "inf"),
        ("train", "t_n", "nan"), ("train", "lr", "nan"), ("train", "lr", "inf"),
        ("train", "tau", "nan"), ("train", "beta", "nan"),
        ("eval-cls", "tau", "nan"), ("eval-det", "t_n", "-inf"),
        ("grad-check", "margin", "nan"), ("inspect", "t_n", "nan"),
    ])
    def test_exits_2(self, workspace, tmp_path, capsys, command, key, text):
        root, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + f"\n{key} = {text}\ndata_dir = {root / 'dataset'}\n")
        out_dir = tmp_path / "out"
        code, _, err = run([command, "--config", str(cfg), "--ckpt", str(out_dir / "m.ckpt"),
                            "--out", str(out_dir / "result")], capsys)
        assert code == 2
        assert f"config key {key!r}" in err and "not a finite number" in err
        assert not out_dir.exists()


class TestManifestTypes:
    """Manifest entries of the wrong type are data errors (exit 2) at load."""

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det"])
    @pytest.mark.parametrize("field, value", [
        ("gt_intervals", [[1.5, 3.0]]), ("gt_intervals", [[0, "a"]]),
        ("gt_intervals", [[0, 1, 2]]), ("feature_file", 5), ("class_label", False),
        ("class_label", 6), ("class_label", -1),  # outside the header's 6 class_names
        ("segment_roles", 5), ("segment_roles", "FXN"),
    ])
    def test_exits_2(self, workspace, tmp_path, capsys, command, field, value):
        root, _ = workspace
        header, first, *rest = (root / "dataset" / "novel_manifest.jsonl").read_text().splitlines()
        (tmp_path / "novel_manifest.jsonl").write_text("\n".join(
            [header, json.dumps(dict(json.loads(first), **{field: value})), *rest]) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + f"\ndata_dir = {tmp_path}\nckpt = {root / 'model.ckpt'}\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert f"entry 0: {field}" in err and "mAP" not in out and "accuracy" not in out


class TestNonUtf8Input:
    """A config file, manifest or checkpoint header that is not UTF-8 is a
    data error (exit 2) naming the file, as is a checkpoint whose declared
    header runs past its end."""

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(TINY.encode() + b"\n# caf\xff\n")
        out_dir = tmp_path / "out"
        code, _, err = run(["gen-data", "--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 2
        assert "data error" in err and str(cfg) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["train", "inspect"])
    def test_base_manifest(self, workspace, tmp_path, capsys, command):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / "base_manifest.jsonl"
        manifest.write_bytes(manifest.read_bytes().replace(b"base_c000_v000", b"base_\xff", 1))
        out_dir = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out_dir / "result")]
        if command == "train":  # inspect reads the workspace checkpoint
            argv += ["--ckpt", str(out_dir / "m.ckpt")]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "data error" in err and str(manifest) in err
        assert not out_dir.exists()

    def test_checkpoint_header(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        header = b"\xff" + json.dumps({"tensors": [], "config": {}}).encode()
        ckpt = tmp_path / "latin.ckpt"
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", 1, len(header)) + header)
        code, out, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)],
                             capsys)
        assert code == 2
        assert "corrupt checkpoint header" in err and str(ckpt) in err
        assert "accuracy" not in out

    def test_checkpoint_header_past_end(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        blob = (root / "model.ckpt").read_bytes()
        ckpt = tmp_path / "long_header.ckpt"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(blob)) + blob[12:])
        code, out, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)],
                             capsys)
        assert code == 2
        assert "ends inside its" in err and str(ckpt) in err
        assert "accuracy" not in out


class TestDeepNesting:
    """JSON nested deeper than the parser's recursion limit is a data error
    (exit 2) naming the file, not a RecursionError traceback."""

    DEEP = "[" * 100_000

    def test_manifest_entry(self, workspace, tmp_path, capsys):
        root, _ = workspace
        header, *entries = (root / "dataset" / "novel_manifest.jsonl").read_text().splitlines()
        manifest = tmp_path / "novel_manifest.jsonl"
        manifest.write_text("\n".join([header, self.DEEP, *entries]) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + f"\ndata_dir = {tmp_path}\nckpt = {root / 'model.ckpt'}\n")
        code, out, err = run(["eval-cls", "--config", str(cfg)], capsys)
        assert code == 2
        assert "malformed manifest" in err and str(manifest) in err
        assert "accuracy" not in out

    def test_checkpoint_header(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        header = self.DEEP.encode()
        ckpt = tmp_path / "deep.ckpt"
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", 1, len(header)) + header)
        code, out, err = run(["eval-cls", "--config", str(cfg_path), "--ckpt", str(ckpt)],
                             capsys)
        assert code == 2
        assert "corrupt checkpoint header" in err and str(ckpt) in err
        assert "accuracy" not in out


def _huge_transform(tensors):
    tensors[0]["shape"] = [2 ** 40, 2 ** 40]
    return tensors


CHECKPOINT_LAYOUT_FAULTS = {
    # case: (header tensor-list edit, bytes appended, error text)
    "huge-shape": (_huge_transform, b"", "transform extends past end of file"),
    "trailing-bytes": (None, b"\0" * 8, "8 bytes follow the last checkpoint tensor"),
    "listed-twice": (lambda t: t + [{"name": "attn_out", "shape": [1, 1]}], b"\0" * 8,
                     "lists tensor attn_out twice"),
    "unknown-name": (lambda t: t + [{"name": "bias", "shape": [1, 1]}], b"\0" * 8,
                     "a name from"),
}


class TestCheckpointLayout:
    """A checkpoint whose header shape overflows int64, that has bytes after
    its last tensor, or that lists a tensor twice or an unknown tensor is a
    data error (exit 2) naming the file."""

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det", "inspect"])
    @pytest.mark.parametrize("fault", CHECKPOINT_LAYOUT_FAULTS)
    def test_exits_2(self, workspace, tmp_path, capsys, command, fault):
        root, cfg_path = workspace
        edit, extra, text = CHECKPOINT_LAYOUT_FAULTS[fault]
        blob = (root / "model.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        if edit:
            header["tensors"] = edit(header["tensors"])
        head = json.dumps(header).encode()
        ckpt = tmp_path / "faulty.ckpt"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head
                         + blob[12 + header_len :] + extra)
        out_csv = tmp_path / "out.csv"
        code, _, err = run([command, "--config", str(cfg_path), "--ckpt", str(ckpt),
                            "--out", str(out_csv)], capsys)
        assert code == 2
        assert f"data error: {ckpt}: " in err and text in err
        assert not out_csv.exists()


class TestNegativeSeed:
    """A negative seed is out of range (exit 2) for every command."""

    def test_gen_data_flag(self, tmp_path, capsys):
        code, _, err = run(["gen-data", "--seed", "-1", "--out", str(tmp_path / "ds")], capsys)
        assert code == 2
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "ds").exists()

    def test_grad_check_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = -3\n")
        code, out, err = run(["grad-check", "--config", str(cfg)], capsys)
        assert code == 2
        assert "seed must be >= 0, got -3" in err and "PASS" not in out

    def test_eval_cls_flag(self, workspace, capsys):
        _, cfg_path = workspace
        code, out, err = run(["eval-cls", "--config", str(cfg_path), "--seed", "-2"], capsys)
        assert code == 2
        assert "seed must be >= 0, got -2" in err and "accuracy" not in out


class TestGradCheck:
    def test_passes_and_prints(self, capsys):
        code, out, _ = run(["grad-check", "--seed", "0"], capsys)
        assert code == 0
        assert "max relative error" in out
        assert "PASS" in out


class TestInspect:
    def test_csv_shape_and_roles(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        out_path = tmp_path / "roles.csv"
        code, _, _ = run(["inspect", "--config", str(cfg_path), "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "video_id,segment,max_logit,role"
        assert len(lines) == 1 + 18 * 10  # videos times segments
        roles = {line.split(",")[3] for line in lines[1:]}
        assert roles <= {"BG", "NBG", "FGIBG", "other"}

    def test_stdout_when_no_out(self, workspace, capsys):
        root, cfg_path = workspace
        code, out, _ = run(["inspect", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert out.startswith("video_id,segment,max_logit,role")

    def test_header_only_manifest_writes_only_the_header(self, workspace, tmp_path, capsys):
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / "base_manifest.jsonl"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        out_path = tmp_path / "roles.csv"
        code, out, _ = run(["inspect", "--config", str(cfg), "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text() == "video_id,segment,max_logit,role\n"
        assert "wrote 0 videos" in out

    def test_deterministic(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            assert run(["inspect", "--config", str(cfg_path), "--out", str(path)], capsys)[0] == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


GOLDEN = """
n_base_classes = 3
n_novel_classes = 4
videos_per_class = 6
T = 12
d_in = 8
d = 8
epochs = 1
batch_size = 8
K = 3
n = 1
q = 2
episodes = 5
noise_std = 0.3
seed = 11
"""

GOLDEN_CSVS = {
    ("eval-cls", False): "episode,accuracy\n0,0.5\n1,0.66666666666666663\n2,0.16666666666666666\n"
                         "3,0.5\n4,0.83333333333333337\n",
    ("eval-cls", True): "episode,accuracy\n0,0.66666666666666663\n1,0.5\n2,0.5\n3,0.5\n4,0.5\n",
    ("eval-det", False): "episode,map50,avg_map\n"
                         "0,0.087249373433583965,0.076535087719298261\n"
                         "1,0.05205627705627705,0.023896103896103898\n"
                         "2,0.083218462823725983,0.027951475912002227\n"
                         "3,0.049346405228758168,0.012679738562091503\n"
                         "4,0.16527777777777777,0.056408730158730158\n",
    ("eval-det", True): "episode,map50,avg_map\n"
                        "0,0.077512889213656469,0.067730280518004296\n"
                        "1,0.050933245498462891,0.023218959784177172\n"
                        "2,0.10176807760141093,0.022399029982363313\n"
                        "3,0.01893704850361197,0.0094633642930856549\n"
                        "4,0.18333333333333335,0.057020202020202013\n",
}


class TestGoldenEvalBytes:
    """Evaluation CSVs of a fixed tiny run, byte for byte.

    The bytes were written by the evaluation code before an episode's queries
    were classified as one stack, with NumPy 2.4.6 on OpenBLAS 0.3.31
    (scipy-openblas, Haswell kernels), one BLAS thread or two. A refactor of
    evaluation that keeps its numerics must keep them; a different NumPy or
    BLAS build may round differently and need them re-recorded.
    """

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det"])
    @pytest.mark.parametrize("ablate_sw", [False, True])
    def test_csv_bytes(self, golden_run, tmp_path, capsys, command, ablate_sw):
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(golden_run), "--out", str(out)]
        code, _, _ = run(argv + (["--ablate", "sw"] if ablate_sw else []), capsys)
        assert code == 0
        assert out.read_bytes() == GOLDEN_CSVS[(command, ablate_sw)].encode()


# inspect's CSV on the golden corpus and checkpoint: 217 lines, 9358 bytes
GOLDEN_INSPECT_SHA256 = "79654401d47f5f1347d75ec9cad29d5dd1541267f2ef57f26ebfeb02f017257c"


class TestGoldenInspectBytes:
    """inspect's CSV of the fixed tiny run, by sha256, written to a file and
    to stdout.

    The hash was written by the inspect code that labeled all base videos in
    one call, with NumPy 2.4.6 on OpenBLAS 0.3.31 (one BLAS thread or two).
    A refactor that keeps the numerics must keep it.
    """

    def test_out_file(self, golden_run, tmp_path, capsys):
        out = tmp_path / "inspect.csv"
        code, stdout, _ = run(["inspect", "--config", str(golden_run), "--out", str(out)], capsys)
        assert code == 0 and stdout == f"wrote 18 videos to {out}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_INSPECT_SHA256

    def test_stdout(self, golden_run, capsys):
        code, stdout, _ = run(["inspect", "--config", str(golden_run)], capsys)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_INSPECT_SHA256


GOLDEN_TRAIN_SHA256 = {
    # (checkpoint, log) of 4 epochs (12 steps) on the golden corpus
    (): ("86bc1f103b8a0f6ee47bec137a3b4ac9399a0789482cad7b6f3987ff1b4dca0a",
         "ff8e4e011afdb7aa58602b1be844538e73a25b5d77b665c8d0cf31bf614f6512"),
    ("cl",): ("94d3764992817b1398337d50927416ccb300d003cf02f151d0d36278001f912b",
              "bba579733bf441a84712e5981f530fc5df30822e148d51e9a0030ecf7e97bb68"),
}


class TestGoldenTrainBytes:
    """Checkpoint and log of a short training run, by sha256.

    The hashes were written by the training step that gathered every
    contrastive pair into the graph and padded the convolution with zero rows
    between videos, with NumPy 2.4.6 on OpenBLAS 0.3.31 (one BLAS thread or
    two). A refactor of training that keeps its numerics must keep them; a
    different NumPy or BLAS build may round differently and need them
    re-recorded.
    """

    @pytest.mark.parametrize("ablate", GOLDEN_TRAIN_SHA256, ids=lambda a: "-".join(a) or "full")
    def test_checkpoint_and_log(self, golden_run, tmp_path, capsys, ablate):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(golden_run.read_text().replace("epochs = 1", "epochs = 4"))
        ckpt, log = tmp_path / "t.ckpt", tmp_path / "t.log.csv"
        argv = ["train", "--config", str(cfg), "--ckpt", str(ckpt), "--out", str(log)]
        code, out, _ = run(argv + [f"--ablate={a}" for a in ablate], capsys)
        assert code == 0 and "trained 12 steps" in out
        digest = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (ckpt, log))
        assert digest == GOLDEN_TRAIN_SHA256[ablate]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Config of a seed-11 tiny corpus with a checkpoint trained 1 epoch."""
    root = tmp_path_factory.mktemp("golden")
    cfg_path = root / "golden.cfg"
    cfg_path.write_text(GOLDEN + f"data_dir = {root / 'dataset'}\nckpt = {root / 'model.ckpt'}\n")
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path
