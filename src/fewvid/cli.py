"""Command-line entry point.

Subcommands cover the whole pipeline: gen-data, train, eval-cls, eval-det,
grad-check, inspect. Exit codes: 0 success, 1 usage problem, 2 data problem,
3 numeric failure; an output path that cannot be written is a data problem.
All CSV outputs are byte-reproducible for a fixed seed.
"""

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import config as config_mod
from . import data, evaluate, model, pseudo, train
from .errors import DataError, NumericError

ABLATABLE = ("bg", "sw", "cl")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(
        prog="fewvid",
        description="Few-shot recognition and detection of actions in untrimmed videos.",
        epilog=config_mod.describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, text in (
        ("gen-data", "generate the synthetic dataset tree"),
        ("train", "train the head on the base split"),
        ("eval-cls", "episodic K-way classification accuracy"),
        ("eval-det", "episodic temporal detection mAP"),
        ("grad-check", "finite-difference check of the full objective"),
        ("inspect", "dump per-segment max logits and pseudo-label roles as CSV"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", help="output path (command-specific)")
        p.add_argument("--ckpt", help="checkpoint path")
        p.add_argument("--K", type=int, help="way count per episode")
        p.add_argument("--n", type=int, help="shots per class")
        p.add_argument("--q", type=int, help="queries per class")
        p.add_argument("--episodes", type=int, help="episode count")
        p.add_argument("--ablate", action="append", choices=ABLATABLE, default=None,
                       metavar="|".join(ABLATABLE),
                       help="disable a component (repeatable)")
        p.add_argument("--jobs", type=int, help="must be 1: evaluation runs in one process")
    return parser


def load_run_config(args) -> config_mod.RunConfig:
    overrides = {key: getattr(args, key) for key in
                 ("seed", "out", "ckpt", "K", "n", "q", "episodes", "jobs")}
    cfg = config_mod.build_config(args.config, overrides)
    for name in args.ablate or ():
        setattr(cfg, name, False)
    return cfg.validate()


def cmd_gen_data(cfg) -> int:
    out_dir = Path(cfg.out or cfg.data_dir)
    base, novel = data.generate_synthetic_dataset(cfg, out_dir)
    for manifest in (base, novel):
        classes = len(manifest.class_labels())
        print(f"{manifest.split}: {len(manifest.entries)} videos, {classes} classes "
              f"-> {out_dir / (manifest.split + '_manifest.jsonl')}")
    return 0


def cmd_train(cfg) -> int:
    manifest = data.load_manifest(Path(cfg.data_dir) / "base_manifest.jsonl")
    log_path = cfg.out or (cfg.ckpt + ".log.csv")
    result = train.train_base(
        manifest, cfg,
        d=cfg.d, kernel_width=cfg.kernel_width, attn_width=cfg.attn_width,
        lr=cfg.lr, momentum=cfg.momentum, batch_size=cfg.batch_size,
        epochs=cfg.epochs, seed=cfg.seed, t_n=cfg.t_n,
        top_m=cfg.top_m or None,
        ckpt_path=cfg.ckpt, log_path=log_path,
        config_echo={"seed": cfg.seed, "ablate": [a for a in ABLATABLE if not getattr(cfg, a)]})
    final = result.log_rows[-1]
    print(f"trained {final[0]} steps, final loss {final[1]:.6f}")
    print(f"checkpoint: {cfg.ckpt}")
    print(f"log: {log_path}")
    return 0


def _evaluate(cfg, mode) -> dict:
    """`evaluate.evaluate` of the checkpoint on the novel split, in this
    process, with the ablations the checkpoint records."""
    params, echo = model.load_checkpoint(cfg.ckpt)
    ablate = echo.get("ablate", [])
    if not (isinstance(ablate, list) and all(name in ABLATABLE for name in ablate)):
        raise DataError(f"{cfg.ckpt}: checkpoint config 'ablate' must be a list of names "
                        f"from {list(ABLATABLE)}, got {ablate!r}")
    manifest = data.load_manifest(Path(cfg.data_dir) / "novel_manifest.jsonl")
    return evaluate.evaluate(params, manifest, mode, K=cfg.K, n=cfg.n, q=cfg.q,
                             episodes=cfg.episodes, seed=cfg.seed,
                             cfg=dataclasses.replace(cfg, **dict.fromkeys(ablate, False)))


def cmd_eval_cls(cfg) -> int:
    report = _evaluate(cfg, "classification")
    mean, ci = report["accuracy_mean"], report["accuracy_ci"]
    print(f"{cfg.K}-way {cfg.n}-shot accuracy over {cfg.episodes} episodes: "
          f"{100.0 * mean:.2f} ± {100.0 * ci:.2f}")
    if cfg.out:
        data.write_csv(cfg.out, ("episode", "accuracy"), enumerate(report["per_episode"]))
        print(f"per-episode CSV: {cfg.out}")
    return 0


def cmd_eval_det(cfg) -> int:
    report = _evaluate(cfg, "detection")
    print(f"mAP@0.50 over {cfg.episodes} episodes: "
          f"{100.0 * report['map50_mean']:.2f} ± {100.0 * report['map50_ci']:.2f}")
    print(f"average mAP (tIoU 0.50:0.05:0.95): "
          f"{100.0 * report['avg_map_mean']:.2f} ± {100.0 * report['avg_map_ci']:.2f}")
    if cfg.out:
        data.write_csv(cfg.out, ("episode", "map50", "avg_map"),
                       [(e, *scores) for e, scores in enumerate(report["per_episode"])])
        print(f"per-episode CSV: {cfg.out}")
    return 0


def cmd_grad_check(cfg) -> int:
    arrays, builder = train.gradcheck_objective(seed=cfg.seed, loss_cfg=cfg)
    report = ad.grad_check(builder, arrays, h=1e-5, tol=1e-4)
    print(report.summary())
    return 0 if report.passed else 3


@np.errstate(over="raise", invalid="raise", divide="raise")  # huge weights overflow: exit 3
def cmd_inspect(cfg) -> int:
    params, _ = model.load_checkpoint(cfg.ckpt)
    manifest = data.load_manifest(Path(cfg.data_dir) / "base_manifest.jsonl")
    rows, logits = [], []
    for entry in manifest.entries:
        seq = manifest.load_sequence(entry)
        model.check_feature_width(params, seq.features, entry.feature_file)
        f = model.embed_segments(params, seq.features, grad=False)
        logits.append(model.segment_logits(params, f))
        rows += [(seq.video_id, i) for i in range(seq.T)]
    # a header-only manifest has no videos to label and prints only the header
    stack = np.concatenate(logits) if logits else np.zeros((0, params.n_classes))
    rec = pseudo.pseudo_label_video(stack, [len(x) for x in logits], t_n=cfg.t_n,
                                    M=cfg.top_m or None)
    columns = ("video_id", "segment", "max_logit", "role")
    table = [(*row, score, role)
             for row, score, role in zip(rows, rec.max_logits, pseudo.segment_roles(rec))]
    if cfg.out:
        data.write_csv(cfg.out, columns, table)
        print(f"wrote {len(manifest.entries)} videos to {cfg.out}")
    else:
        sys.stdout.write(data.csv_text(columns, table))
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval-cls": cmd_eval_cls,
    "eval-det": cmd_eval_det,
    "grad-check": cmd_grad_check,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_run_config(args)
        return COMMANDS[args.command](cfg)
    except DataError as err:
        print(f"fewvid: data error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # every read wraps its OSError in a DataError
        print(f"fewvid: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as err:
        print(f"fewvid: numeric failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"fewvid: invalid configuration: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
