"""Exit codes, config precedence, reproducible outputs of every subcommand."""

import dataclasses
import errno
import hashlib
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import primitive_chains as chains
from builds import golden_mismatch
from reference import training_accuracy
from fewvid import autodiff as ad
from fewvid import cli, config, data, evaluate, model, pseudo, train
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
    "t_n", "top_m",
    "d", "kernel_width", "attn_width",
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
        _, echo = model.load_checkpoint(ckpt)
        assert (echo["bg"], echo["sw"], echo["cl"]) == (True, False, False)
        assert "ablate" not in echo


class TestMemoryError:
    """An allocation that does not fit, such as `d = 100000000000` in a train
    config or `T = 100000000000` in a gen-data config, exits 2 with a message.
    The callee is made to raise: a real allocation that size is not tried."""

    MESSAGE = ("Unable to allocate 23.3 TiB for an array with shape (100000000000, 32) "
               "and data type float64")

    @pytest.mark.parametrize("command,module,name", [("train", model, "init_params"),
                                                     ("gen-data", data,
                                                      "generate_synthetic_dataset")])
    def test_exits_2_with_message(self, workspace, tmp_path, capsys, monkeypatch, command,
                                  module, name):
        root, _ = workspace
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY + f"\ndata_dir = {root / 'dataset'}\n"
                            f"ckpt = {tmp_path / 'model.ckpt'}\nout = {tmp_path / 'out'}\n")

        def exhausted(*args, **kwargs):
            raise MemoryError(self.MESSAGE)

        monkeypatch.setattr(module, name, exhausted)
        code, _, err = run([command, "--config", str(cfg_path)], capsys)
        assert code == 2
        assert err == f"fewvid: cannot allocate memory: {self.MESSAGE}\n"

    def test_bare_memory_error_still_says_why(self, workspace, capsys, monkeypatch):
        _, cfg_path = workspace

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(model, "init_params", exhausted)
        code, _, err = run(["train", "--config", str(cfg_path), "--out",
                            str(workspace[0] / "unused.log.csv")], capsys)
        assert code == 2
        assert err == "fewvid: cannot allocate memory: out of memory\n"


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
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", model.CKPT_VERSION, len(header)) + header)
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
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", model.CKPT_VERSION, len(header)) + header)
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


    @pytest.mark.parametrize("command, flag", [
        ("eval-cls", "--out"), ("eval-det", "--out"), ("inspect", "--out"), ("train", "--out"),
        ("train", "--ckpt")])
    @pytest.mark.parametrize("target", ["file/x.csv", "file/sub/x.csv", "dir", "nodir/x.csv"])
    def test_checked_before_any_work(self, workspace, tmp_path, capsys, monkeypatch, command,
                                     flag, target):
        # nothing is embedded or scored; a file on the way is named as one
        _, cfg_path = workspace
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("keep")
        path = tmp_path / target
        work = []
        embed, classify = model.embed_segments, evaluate.classify_query
        monkeypatch.setattr(model, "embed_segments",
                            lambda *args, **kwargs: work.append("embed") or embed(*args, **kwargs))
        monkeypatch.setattr(evaluate, "classify_query",
                            lambda *args: work.append("score") or classify(*args))
        code, _, err = run([command, "--config", str(cfg_path), flag, str(path)], capsys)
        if target == "nodir/x.csv" and command == "train":  # train makes its directories
            assert code == 0 and path.exists()
            return
        why = {"file/x.csv": f"{tmp_path / 'file'} is a file",
               "file/sub/x.csv": f"{tmp_path / 'file'} is a file",
               "dir": "it is a directory",
               "nodir/x.csv": f"{tmp_path / 'nodir'} does not exist"}[target]
        assert (code, err) == (2, f"fewvid: data error: cannot write {path}: {why}\n")
        assert not work
        assert (tmp_path / "file").read_text() == "keep"
        assert not (tmp_path / "nodir").exists()


class FullStream:
    """Standard output on a full device: every write raises an OSError that
    names no file."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_full_standard_output_exits_2_naming_it(workspace, capsys, monkeypatch):
    _, cfg_path = workspace
    monkeypatch.setattr(sys, "stdout", FullStream())
    code = cli.main(["eval-cls", "--config", str(cfg_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "fewvid: cannot write standard output: No space left on device\n")


def fresh_corpus(workspace, tmp_path, capsys):
    """Config of a new copy of the workspace corpus under tmp_path that
    evaluates the workspace checkpoint."""
    root, _ = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY + f"\ndata_dir = {tmp_path / 'ds'}\nckpt = {root / 'model.ckpt'}\n")
    assert run(["gen-data", "--config", str(cfg)], capsys)[0] == 0
    return cfg


class TestCheckpointVersion:
    @pytest.mark.parametrize("command", ["eval-cls", "eval-det", "inspect"])
    def test_version_1_exits_2_saying_retrain(self, workspace, tmp_path, capsys, command):
        # version 1 recorded no training settings, so nothing can be read back
        root, cfg_path = workspace
        ckpt = tmp_path / "v1.ckpt"
        blob = (root / "model.ckpt").read_bytes()
        ckpt.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        code, out, err = run([command, "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2 and out == ""
        assert err == (f"fewvid: data error: {ckpt}: unsupported checkpoint version 1, which "
                       f"predates the recorded training settings; retrain it\n")


class TestObjectiveFromCheckpoint:
    """eval-cls, eval-det and inspect take every objective key from the
    checkpoint: its non-default tau_s, c, t_n and top_m and its ablation
    give the same CSVs under the training config as under the default one,
    whatever the command's own --ablate says."""

    TRAINED = "tau_s = 2.0\nc = 0.2\nt_n = 0.6\ntop_m = 3\n"

    def test_csvs_equal_under_training_and_default_config(self, workspace, tmp_path, capsys):
        _, default_cfg = workspace
        trained_cfg = tmp_path / "trained.cfg"
        trained_cfg.write_text(default_cfg.read_text() + self.TRAINED)
        ckpt = tmp_path / "trained.ckpt"
        argv = ["train", "--config", str(trained_cfg), "--ckpt", str(ckpt),
                "--out", str(tmp_path / "log.csv"), "--ablate", "cl"]
        assert run(argv, capsys)[0] == 0
        for command in ("eval-cls", "eval-det", "inspect"):
            csvs = []
            for cfg, flags in ((trained_cfg, ["--ablate", "cl"]), (default_cfg, []),
                               (default_cfg, ["--ablate", "sw"])):
                out = tmp_path / f"{command}.{len(csvs)}.csv"
                argv = [command, "--config", str(cfg), "--ckpt", str(ckpt), "--out", str(out),
                        "--episodes", "20", *flags]
                assert run(argv, capsys)[0] == 0
                csvs.append(out.read_bytes())
            assert csvs[1] == csvs[0] and csvs[2] == csvs[0], command


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
    def test_background_row_alone_exits_2(self, workspace, tmp_path, capsys, command):
        # evaluation never reads the class rows, so only loading can reject the checkpoint
        root, cfg_path = workspace
        background = model.load_checkpoint(root / "model.ckpt")[0].classifier.data[-1:]
        ckpt = self.edited(workspace, tmp_path, classifier=background.copy())
        code, out, err = run([command, "--config", str(cfg_path), "--ckpt", str(ckpt)], capsys)
        assert code == 2
        assert f"{ckpt}: checkpoint classifier has only its background row" in err
        assert out == ""

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


class TestSharedBaseFile:
    """train and inspect read a feature file that two base entries share
    once a call (inspect once a block), and check both entries."""

    def twinned(self, workspace, tmp_path, capsys, **fields):
        """Config of a fresh corpus whose base manifest lists a twin of its
        first entry, with `fields` changed, second; and the shared file."""
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        manifest = tmp_path / "ds" / "base_manifest.jsonl"
        header, first, *rest = manifest.read_text().splitlines()
        twin = json.dumps(dict(json.loads(first), video_id="twin", **fields))
        manifest.write_text("\n".join([header, first, twin, *rest]) + "\n")
        return cfg, tmp_path / "ds" / json.loads(first)["feature_file"]

    def argv(self, command, cfg, tmp_path):
        new_ckpt = ["--ckpt", str(tmp_path / "new.ckpt")] if command == "train" else []
        return [command, "--config", str(cfg)] + new_ckpt

    def counted_reads(self, monkeypatch):
        reads, read = [], data.read_feature_file

        def counting_read(path):
            reads.append(Path(path))
            return read(path)

        monkeypatch.setattr(data, "read_feature_file", counting_read)
        return reads

    @pytest.mark.parametrize("command", ["train", "inspect"])
    def test_file_read_once_a_call(self, workspace, tmp_path, capsys, monkeypatch, command):
        cfg, shared = self.twinned(workspace, tmp_path, capsys)
        reads = self.counted_reads(monkeypatch)
        code, out, _ = run(self.argv(command, cfg, tmp_path), capsys)
        assert code == 0
        assert reads.count(shared) == 1 and len(reads) == len(set(reads)) == 18
        if command == "inspect":  # the twin is a video of its own
            assert out.count("\ntwin,") == 10

    @pytest.mark.parametrize("block, shared_reads", [(1, 2), (2, 1)])
    def test_inspect_reads_it_once_a_block(self, workspace, tmp_path, capsys, monkeypatch,
                                           block, shared_reads):
        cfg, shared = self.twinned(workspace, tmp_path, capsys)
        reads = self.counted_reads(monkeypatch)
        monkeypatch.setattr(cli, "INSPECT_BLOCK", block)
        assert run(["inspect", "--config", str(cfg)], capsys)[0] == 0
        assert reads.count(shared) == shared_reads and len(reads) == 17 + shared_reads

    @pytest.mark.parametrize("command", ["train", "inspect"])
    def test_twin_with_bad_intervals_exits_2(self, workspace, tmp_path, capsys, command):
        cfg, _ = self.twinned(workspace, tmp_path, capsys, gt_intervals=[[0, 500]])
        code, out, err = run(self.argv(command, cfg, tmp_path), capsys)
        assert code == 2
        assert "data error: twin: interval (0, 500) is not inside its 10 segments" in err
        assert out == "" and not (tmp_path / "new.ckpt").exists()


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
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", model.CKPT_VERSION, len(header)) + header)
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
        ckpt.write_bytes(b"FVCP" + struct.pack("<II", model.CKPT_VERSION, len(header)) + header)
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


class TestMixedLengthBase:
    """inspect and the training accuracy of `reference` on a base split of
    10-, 7-, 4- and 1-segment videos, embedded in passes of at most two
    videos of one length, equal their per-video oracles, and training on it
    equals the primitive chains."""

    LENGTHS = (10, 7, 1, 4, 7, 10)

    @pytest.fixture
    def mixed(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluate, "EMBED_CHUNK", 2)
        cfg = fresh_corpus(workspace, tmp_path, capsys)
        path = tmp_path / "ds" / "base_manifest.jsonl"
        base = data.load_manifest(path)
        entries = []
        for entry, T in zip(base.entries, itertools.cycle(self.LENGTHS)):
            file = base.root / entry.feature_file
            data.write_feature_file(data.read_feature_file(file)[:T], file)
            entries.append(dataclasses.replace(entry, gt_intervals=[(0, T)],
                                               segment_roles=entry.segment_roles[:T]))
        data.save_manifest(dataclasses.replace(base, entries=entries), path)
        params, _ = model.load_checkpoint(workspace[0] / "model.ckpt")
        return cfg, data.load_manifest(path), params

    def test_inspect_equals_per_video_oracle(self, mixed, capsys):
        cfg, base, params = mixed
        run_cfg = config.build_config(cfg)
        rows, logits = [], []
        for i, entry in enumerate(base.entries):
            f = model.embed_segments(params, base.read_videos([i])[i], grad=False)
            logits.append(model.segment_logits(params, f))
            rows += [(entry.video_id, t) for t in range(len(f))]
        assert {len(x) for x in logits} == set(self.LENGTHS)
        rec = pseudo.pseudo_label_video(np.concatenate(logits), [len(x) for x in logits],
                                        t_n=run_cfg.t_n, M=run_cfg.top_m or None)
        table = [(*row, score, role)
                 for row, score, role in zip(rows, rec.max_logits, pseudo.segment_roles(rec))]
        code, out, _ = run(["inspect", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == data.csv_text(("video_id", "segment", "max_logit", "role"), table), (
            golden_mismatch("inspect differs from its per-video oracle"))

    def test_inspect_frees_each_pass_raw_rows(self, mixed, capsys, monkeypatch):
        cfg, _, _ = mixed
        refs, alive, passes = [], [], []
        read, embed = data.read_feature_file, model.embed_segments

        def tracked_read(path):
            rows = read(path)
            refs.append(weakref.ref(rows))
            return rows

        def spy(params, raw, grad=True, lengths=None):
            alive.append(sum(ref() is not None for ref in refs))
            passes.append(len(lengths))
            return embed(params, raw, grad, lengths)

        monkeypatch.setattr(data, "read_feature_file", tracked_read)
        monkeypatch.setattr(model, "embed_segments", spy)
        assert run(["inspect", "--config", str(cfg)], capsys)[0] == 0
        # at each pass only the videos later passes embed are alive
        assert max(passes) == 2
        assert alive == (len(refs) - np.cumsum(passes)).tolist()

    @pytest.mark.parametrize("ablate", [(), ("bg",), ("sw",), ("bg", "sw", "cl")],
                             ids=lambda a: "+".join(a) or "full")
    def test_training_bytes_equal_the_primitive_chains(self, mixed, ablate, tmp_path, monkeypatch):
        # the golden corpus has one video length; batches of this split reach
        # the conv's ragged grid and one-row videos in training
        _, base, _ = mixed
        run_cfg = config.RunConfig(**dict.fromkeys(ablate, False), d=8, epochs=3, batch_size=4,
                                   seed=5, t_n=0.5)
        batches, blobs = [], []
        total = train.total_loss

        def recording(params, batch, *args, **kwargs):
            batches.append([len(video.features) for video in batch])
            return total(params, batch, *args, **kwargs)

        monkeypatch.setattr(train, "total_loss", recording)
        for side in ("nodes", "chains"):
            if side == "chains":
                chains.install(monkeypatch)
            ckpt, log = tmp_path / f"{side}.ckpt", tmp_path / f"{side}.csv"
            train.train_base(base, run_cfg, ckpt_path=ckpt, log_path=log)
            blobs.append((ckpt.read_bytes(), log.read_bytes()))
        assert blobs[0] == blobs[1]
        assert any(1 in b and len(set(b)) > 1 for b in batches)
        n_nbg = [int(line.split(",")[-1]) for line in blobs[0][1].decode().splitlines()[1:]]
        assert any(n_nbg)

    def test_training_accuracy_equals_per_video_oracle(self, mixed):
        _, base, params = mixed
        videos, _ = train.load_training_videos(base)
        proto = params.classifier.data[:params.n_classes]
        correct = [evaluate.classify_query(
            params, model.embed_segments(params, video.features, grad=False)[None],
            proto).top1[0] == video.label for video in videos]
        assert training_accuracy(params, base) == sum(correct) / len(videos)


class TestInspectBlocks:
    """inspect reads, embeds and takes logits INSPECT_BLOCK base videos at a
    time, then labels all of them in one pseudo-label call."""

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_any_block_prints_the_same_csv(self, workspace, capsys, monkeypatch, block):
        _, cfg_path = workspace
        code, whole, _ = run(["inspect", "--config", str(cfg_path)], capsys)
        assert code == 0
        reads, read_at_pass, labels = [], [], []
        read, embed, label = data.read_feature_file, model.embed_segments, pseudo.pseudo_label_video

        def counting_read(path):
            reads.append(path)
            return read(path)

        def spy(params, raw, grad=True, lengths=None):
            read_at_pass.append(len(reads))
            return embed(params, raw, grad, lengths)

        def counting_label(*args, **kwargs):
            labels.append(len(reads))
            return label(*args, **kwargs)

        monkeypatch.setattr(data, "read_feature_file", counting_read)
        monkeypatch.setattr(model, "embed_segments", spy)
        monkeypatch.setattr(pseudo, "pseudo_label_video", counting_label)
        monkeypatch.setattr(cli, "INSPECT_BLOCK", block)
        assert run(["inspect", "--config", str(cfg_path)], capsys) == (0, whole, "")
        # each block's passes run once it is read and before the next is
        n = len(reads)
        assert n > 2 * block
        assert read_at_pass == sorted(read_at_pass)
        assert set(read_at_pass) == {min(b + block, n) for b in range(0, n, block)}
        assert labels == [n]


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
    were classified as one stack, with NumPy 2.4.6 and scipy-openblas 0.3.31,
    one BLAS thread or two. `np.show_config()` and `np.show_runtime()` report
    that build (`builds.GOLDEN_BUILD`) as OpenBLAS built with DYNAMIC_ARCH, which picks
    its kernels for the CPU at run time (the "Haswell" it prints is the
    build's target, not the kernels that ran), and NumPy's SIMD baseline
    X86_V2 with dispatch up to AVX512_SPR, on a CPU with AVX-512. A refactor
    of evaluation that keeps its numerics must keep them; a different NumPy
    or BLAS build may round differently and need them re-recorded, so a
    mismatch names that build and the running one (`golden_mismatch`).
    """

    @pytest.mark.parametrize("command", ["eval-cls", "eval-det"])
    @pytest.mark.parametrize("ablate_sw", [False, True])
    def test_csv_bytes(self, golden_run, tmp_path, capsys, command, ablate_sw):
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(golden_run), "--out", str(out)]
        if ablate_sw:  # the golden weights, recorded as trained with sw off
            params, echo = model.load_checkpoint(golden_run.parent / "model.ckpt")
            model.save_checkpoint(params, tmp_path / "sw_off.ckpt", dict(echo, sw=False))
            argv += ["--ckpt", str(tmp_path / "sw_off.ckpt")]
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert out.read_bytes() == GOLDEN_CSVS[(command, ablate_sw)].encode(), golden_mismatch()


# inspect's CSV on the golden corpus and checkpoint: 217 lines, 9358 bytes
GOLDEN_INSPECT_SHA256 = "79654401d47f5f1347d75ec9cad29d5dd1541267f2ef57f26ebfeb02f017257c"


class TestGoldenInspectBytes:
    """inspect's CSV of the fixed tiny run, by sha256, written to a file and
    to stdout.

    The hash was written by the inspect code that labeled all base videos in
    one call, on the build `TestGoldenEvalBytes` names.
    A refactor that keeps the numerics must keep it.
    """

    def test_out_file(self, golden_run, tmp_path, capsys):
        out = tmp_path / "inspect.csv"
        code, stdout, _ = run(["inspect", "--config", str(golden_run), "--out", str(out)], capsys)
        assert code == 0 and stdout == f"wrote 18 videos to {out}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_INSPECT_SHA256, (
            golden_mismatch())

    def test_stdout(self, golden_run, capsys):
        code, stdout, _ = run(["inspect", "--config", str(golden_run)], capsys)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_INSPECT_SHA256, (
            golden_mismatch())


GOLDEN_TRAIN_SHA256 = {
    # (checkpoint, log) of 4 epochs (12 steps) on the golden corpus
    (): ("2cbe0d42e94595ebc94628715c0e673fa2eb17c1e81a29e856dd29c1da213aff",
         "ff8e4e011afdb7aa58602b1be844538e73a25b5d77b665c8d0cf31bf614f6512"),
    ("cl",): ("1db4b9f312816eb7602a9ca6ccbf22c515cbd9d1772947419d4fde3a51e57e78",
              "bba579733bf441a84712e5981f530fc5df30822e148d51e9a0030ecf7e97bb68"),
    # the bg-off head gathers its class rows, so a row gather's gradient
    # lands on a parameter; sw off is the one run through the attention net
    ("bg",): ("cc6e328773744efdc7095e2d27874e278c62d6eeea575df7c08305d9851f11c9",
              "b86d3f74354bf8b0f4e5a5618a3ad142a9119b75867bceb81fb96d66d55ec5f6"),
    ("sw",): ("12bbfc8156adcec835ff34cf971a1d9b3458534391a5f1eaff878d355c6af52f",
              "0e725c4822b8944c502ee81024658f1fe5c1eebeeb862e0b4d02abc215c5e6d5"),
    ("bg", "sw", "cl"): ("78e4f4ed5412ab645710116f601740ef9a56702852f68b89d1f7e5b604d5e778",
                         "ecf741a2c3fd5187cb5e25a8a1b3ce5780fee0d1a01fa4e314f1a7463884d0f1"),
}


class TestGoldenTrainBytes:
    """Checkpoint and log of a short training run, by sha256.

    The hashes were written by the training step that gathered every
    contrastive pair into the graph and padded the convolution with zero rows
    between videos, on the build `TestGoldenEvalBytes` names; under
    OPENBLAS_CORETYPE=Haswell three of them fail. A refactor of training that
    keeps its numerics must keep them; a different NumPy or BLAS build may
    round differently and need them re-recorded. The checkpoint hashes were
    re-recorded when the header's config echo began to hold the training
    settings (checkpoint version 2); the tensor bytes after the header and
    the logs kept theirs.
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
        assert digest == GOLDEN_TRAIN_SHA256[ablate], golden_mismatch()


class TestHotLoopsCallNoWrappers:
    """Evaluation and the training step call NumPy's array methods and
    integer indexing, not the wrappers `np.take_along_axis`, `np.zeros_like`
    and `np.linalg.norm`, whose Python-level cost at these sizes is as large
    as the arithmetic."""

    WRAPPERS = [(np, "take_along_axis"), (np, "zeros_like"), (np.linalg, "norm")]

    def test_eval_and_train_steps(self, golden_run, tmp_path, capsys, monkeypatch):
        calls = []
        for module, name in self.WRAPPERS:
            def spy(*args, _name=name, _wrapped=getattr(module, name), **kwargs):
                calls.append(_name)
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        for command in ("eval-cls", "eval-det"):
            argv = [command, "--config", str(golden_run), "--out", str(tmp_path / "out.csv")]
            assert run(argv, capsys)[0] == 0
        cfg = tmp_path / "train.cfg"  # 18 base videos in batches of 9: two steps
        cfg.write_text(golden_run.read_text().replace("batch_size = 8", "batch_size = 9"))
        argv = ["train", "--config", str(cfg), "--ckpt", str(tmp_path / "t.ckpt"),
                "--out", str(tmp_path / "t.log.csv")]
        code, out, _ = run(argv, capsys)
        assert code == 0 and "trained 2 steps" in out
        assert calls == []


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Config of a seed-11 tiny corpus with a checkpoint trained 1 epoch."""
    root = tmp_path_factory.mktemp("golden")
    cfg_path = root / "golden.cfg"
    cfg_path.write_text(GOLDEN + f"data_dir = {root / 'dataset'}\nckpt = {root / 'model.ckpt'}\n")
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path
