#!/usr/bin/env python3
"""fewvid benchmark: one workload per process, closed loop, outputs checked.

    python3 benchmarks/run.py --workload train-full|eval-cls|eval-det \\
        --seed N --seconds S --trace 0|1 [--smoke]

Set-up generates the corpus from the seed with the values in
`configs/acceptance.cfg` (and, for the eval workloads, trains the checkpoint
they evaluate), each step a fresh `python3 -m fewvid.cli` process. The timed
phase then calls `fewvid.cli.main` in this process, one call after another,
until `--seconds` have passed. Every call's outputs are checked; a failed
check counts as a failed operation.

With `--trace 0` the last stdout line reports the end-to-end metrics. With
`--trace 1` calls alternate between untraced and traced, and it reports the
per-layer metrics of the traced calls (see `tracer.py`) plus the tracing
overhead. `--smoke` shrinks the corpus and the work per call for tests.
See README.md in this directory for the workloads and metrics.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before anything imports NumPy; set-up processes inherit them. On a
# 2-core machine BLAS threads slow the training step down.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "configs" / "acceptance.cfg"
SPEC = ROOT / "BENCHMARK.json"  # declares every metric's name and unit
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60

# Times are reported at a fixed reference speed, the speed at which
# `calibrate()` takes CALIBRATION_REF_S. On a shared machine the speed drifts
# by a third within minutes; calibration samples taken just before and just
# after each timed step track that drift far better than wall time alone.
CALIBRATION_REF_S = 0.020
CALIBRATION_ITERS = 3000
CALIBRATION_SAMPLES = 3  # per gap between timed steps


@dataclass(frozen=True)
class Scale:
    corpus: str  # config lines appended to the fixture
    train_epochs: int  # per timed train-full call
    setup_epochs: int  # training of the eval workloads' checkpoint
    cls_episodes: int  # per timed eval-cls call
    det_episodes: int  # per timed eval-det call
    setup_reps: int  # set-ups per run; setup_s is their median


FULL = Scale(corpus="", train_epochs=1, setup_epochs=2, cls_episodes=100, det_episodes=10,
             setup_reps=3)
SMOKE = Scale(corpus="n_base_classes = 4\nn_novel_classes = 5\nvideos_per_class = 6\n",
              train_epochs=1, setup_epochs=1, cls_episodes=2, det_episodes=2, setup_reps=1)

WORKLOADS = ("train-full", "eval-cls", "eval-det")

class BenchError(Exception):
    """The checkout cannot be benchmarked at all."""


def load_program():
    """Import fewvid from this checkout's sources, nowhere else."""
    if not (SRC / "fewvid" / "cli.py").is_file() or not FIXTURE.is_file():
        raise BenchError(f"no fewvid sources or fixture config under {ROOT}")
    sys.path.insert(0, str(SRC))
    import fewvid.cli
    if Path(fewvid.cli.__file__).resolve().parent != (SRC / "fewvid").resolve():
        raise BenchError(f"imported fewvid from {fewvid.cli.__file__}, not from {SRC}")
    return fewvid.cli


def calibrate() -> float:
    """Seconds for a fixed mix of small NumPy products and interval
    arithmetic on short-lived tuples and dicts, the two kinds of work the
    program's hot paths do."""
    import numpy as np
    a = np.ones((20, 64))
    acc, items = 0.0, []
    start = time.perf_counter()
    for i in range(CALIBRATION_ITERS):
        acc += float((a @ a.T)[0, 0])
        iv = (i % 7, i % 7 + 3)
        acc += max(0, min(iv[1], 5) - max(iv[0], 2)) / (1 + iv[1] - iv[0])
        items.append({"score": acc, "interval": iv})
        if len(items) > 500:
            items = []
    return time.perf_counter() - start


class Clock:
    """Wall times of consecutive steps, each also scaled to the reference
    speed by the median of the calibration samples just before and after it."""

    def __init__(self):
        self.walls, self.scaled = [], []
        self._before = self._samples()

    @staticmethod
    def _samples() -> list:
        return [calibrate() for _ in range(CALIBRATION_SAMPLES)]

    def record(self, wall: float) -> float:
        after = self._samples()
        scaled = wall * CALIBRATION_REF_S / statistics.median(self._before + after)
        self._before = after
        self.walls.append(wall)
        self.scaled.append(scaled)
        return scaled


def machine_facts() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas_info.get("openblas configuration") or (
            f"{blas_info.get('name')} {blas_info.get('version')}")
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Run:
    """One workload run: its directory, configs and the outcome of every call."""

    def __init__(self, cli, workload: str, seed: int, scale: Scale, smoke: bool):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = WORK / (workload + ("-smoke" if smoke else ""))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.setup_cfg = self._write_config("setup.cfg", scale.setup_epochs)
        self.run_cfg = self._write_config("run.cfg", scale.train_epochs)
        from fewvid import config
        self.cfg = config.build_config(str(self.run_cfg), {"seed": seed})
        self.attempted = 0
        self.failed = 0
        self.reference = None  # fingerprint every timed call must reproduce
        self.results = {}

    def _write_config(self, name: str, epochs: int) -> Path:
        path = self.work / name
        path.write_text(FIXTURE.read_text() + "\n# benchmark settings\n" + self.scale.corpus
                        + f"epochs = {epochs}\njobs = 1\ndata_dir = {self.work / 'dataset'}\n")
        return path

    def fail(self, what: str):
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    # -- set-up, in child processes -----------------------------------------

    def child(self, argv) -> tuple:
        """Run `fewvid <argv>` in a fresh process; returns (ok, wall_s, stdout)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "fewvid.cli", *argv], cwd=self.work,
                                  env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"fewvid {argv[0]} timed out")
            return False, time.perf_counter() - start, ""
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            self.fail(f"fewvid {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.returncode == 0, wall, proc.stdout

    def set_up(self, reps: int):
        """Generate the corpus (and train the eval checkpoint) `reps` times;
        every repetition must write byte-identical files. Returns the Clock
        that timed the repetitions, or None when set-up failed."""
        common = ["--config", str(self.setup_cfg), "--seed", str(self.seed)]
        clock, prints = Clock(), set()
        for _ in range(reps):
            ok, wall, _ = self.child(["gen-data", *common, "--out", str(self.work / "dataset")])
            outputs = ["dataset/base_manifest.jsonl", "dataset/novel_manifest.jsonl"]
            if ok and self.workload != "train-full":
                ok, train_wall, _ = self.child(
                    ["train", *common, "--ckpt", str(self.work / "model.ckpt")])
                wall += train_wall
                outputs.append("model.ckpt")
            if not ok:
                return None
            clock.record(wall)
            prints.add(fingerprint(self.work / name for name in outputs))
        if len(prints) != 1:
            self.fail("set-up repetitions wrote different files")
            return None
        if self.workload == "train-full":
            ok, _, out = self.child(["grad-check", "--seed", str(self.seed)])
            if ok and "PASS" not in out:
                self.fail(f"grad-check: {out.strip()}")
        return clock

    # -- timed calls, in this process ---------------------------------------

    def argv(self) -> list:
        common = ["--config", str(self.run_cfg), "--seed", str(self.seed)]
        if self.workload == "train-full":
            return ["train", *common, "--ckpt", str(self.work / "train.ckpt"),
                    "--out", str(self.work / "train.log.csv")]
        episodes = self.episodes_per_call()
        return [self.workload, *common, "--ckpt", str(self.work / "model.ckpt"),
                "--episodes", str(episodes), "--jobs", "1", "--out", str(self.work / "eval.csv")]

    def episodes_per_call(self) -> int:
        return self.scale.cls_episodes if self.workload == "eval-cls" else self.scale.det_episodes

    def videos_per_call(self) -> int:
        """Videos consumed by optimizer steps, or support + query videos scored."""
        cfg = self.cfg
        if self.workload == "train-full":
            return self.scale.train_epochs * cfg.n_base_classes * cfg.videos_per_class
        return self.episodes_per_call() * cfg.K * (cfg.n + cfg.q)

    def call(self, argv) -> tuple:
        """One timed call of the entry point users run; returns (wall_s, code, stdout)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the call failed; the run goes on and reports it
            traceback.print_exc()
            code = None
        return time.perf_counter() - start, code, out.getvalue()

    def check(self, code, stdout):
        self.attempted += 1
        try:
            problems = self._problems(code, stdout)
        except Exception as exc:  # unreadable or missing output fails the check
            traceback.print_exc()
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.fail(f"{self.workload} call: " + "; ".join(problems))

    def _problems(self, code, stdout) -> list:
        if code != 0:
            return [f"exit code {code}"]
        check = {"train-full": self._check_train, "eval-cls": self._check_cls,
                 "eval-det": self._check_det}[self.workload]
        problems, outputs = check(stdout)
        current = fingerprint(outputs)
        if self.reference is None:
            self.reference = current
        elif current != self.reference:
            problems.append("outputs differ from the first call's")
        return problems

    def _check_train(self, stdout):
        from fewvid import model
        import numpy as np
        cfg, problems = self.cfg, []
        log_path, ckpt_path = self.work / "train.log.csv", self.work / "train.ckpt"
        rows = read_csv(log_path)
        videos = cfg.n_base_classes * cfg.videos_per_class
        steps = self.scale.train_epochs * math.ceil(videos / cfg.batch_size)
        if len(rows) != steps:
            problems.append(f"log has {len(rows)} rows, expected {steps}")
        if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
            problems.append("non-finite value in the training log")
        self.results["n_nbg"] = sum(int(row["n_nbg"]) for row in rows)
        params, _ = model.load_checkpoint(ckpt_path)
        expected = {"transform": (cfg.d, cfg.d_in), "temporal_kernel": (cfg.d, cfg.kernel_width),
                    "classifier": (cfg.n_base_classes + 1, cfg.d),
                    "attn_hidden": (cfg.attn_width, cfg.d), "attn_out": (1, cfg.attn_width)}
        for name, shape in expected.items():
            if params.tensors()[name].shape != shape:
                problems.append(f"{name} has shape {params.tensors()[name].shape}, not {shape}")
        norms = np.linalg.norm(params.classifier.data, axis=1)
        if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-9):
            problems.append(f"classifier rows not unit-norm: {norms.min()}..{norms.max()}")
        return problems, [ckpt_path, log_path]

    def _eval_rows(self, columns, problems) -> list:
        rows = read_csv(self.work / "eval.csv")
        if len(rows) != self.episodes_per_call():
            problems.append(f"CSV has {len(rows)} rows, expected {self.episodes_per_call()}")
        if rows and list(rows[0]) != ["episode", *columns]:
            problems.append(f"CSV columns {list(rows[0])}")
        return [[float(row[c]) for row in rows] for c in columns]

    def _check_cls(self, stdout):
        cfg, problems = self.cfg, []
        (acc,) = self._eval_rows(["accuracy"], problems)
        per = cfg.K * cfg.q
        if any(abs(v * per - round(v * per)) > 1e-9 for v in acc):
            problems.append(f"an accuracy is not a multiple of 1/{per}")
        self.results["accuracy"] = mean(acc)
        printed = re.search(r"accuracy over (\d+) episodes: ([0-9.]+) ±", stdout)
        if not printed or printed.group(2) != f"{100.0 * mean(acc):.2f}":
            problems.append(f"printed accuracy does not match the CSV mean: {stdout!r}")
        return problems, [self.work / "eval.csv"]

    def _check_det(self, stdout):
        problems = []
        m50, avg = self._eval_rows(["map50", "avg_map"], problems)
        if not all(0.0 <= v <= 1.0 for v in m50 + avg):
            problems.append("an AP value is outside [0, 1]")
        self.results.update(map50=mean(m50), avg_map=mean(avg))
        for pattern, values in ((r"mAP@0.50 over \d+ episodes: ([0-9.]+) ±", m50),
                                (r"average mAP \(tIoU [^)]*\): ([0-9.]+) ±", avg)):
            printed = re.search(pattern, stdout)
            if not printed or printed.group(1) != f"{100.0 * mean(values):.2f}":
                problems.append(f"printed mAP does not match the CSV mean: {stdout!r}")
        return problems, [self.work / "eval.csv"]

    def timed_phase(self, seconds: float, tracer=None) -> tuple:
        """Closed loop of calls until `seconds` pass; with a tracer, every
        second call is traced. Returns the reference-speed times of the
        untraced and of the traced calls, and the clock that took them."""
        argv = self.argv()
        plain, traced = [], []
        clock = Clock()
        deadline = time.perf_counter() + seconds
        while True:
            trace_this = tracer is not None and len(plain) > len(traced)
            if trace_this:
                tracer.install()
                tracer.begin_op()
            wall, code, stdout = self.call(argv)
            if trace_this:
                tracer.end_op()
                tracer.uninstall()
            self.check(code, stdout)
            (traced if trace_this else plain).append(clock.record(wall))
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return plain, traced, clock

    def traced_gen_data(self, tracer) -> float:
        """Generator self time (ms) of one in-process, traced gen-data."""
        tracer.install()
        tracer.begin_op("setup.gen-data")
        _, code, _ = self.call(["gen-data", "--config", str(self.setup_cfg), "--seed",
                                str(self.seed), "--out", str(self.work / "traced-dataset")])
        tracer.end_op()
        tracer.uninstall()
        self.attempted += 1
        if code != 0:
            self.fail(f"traced gen-data exited {code}")
        gen_ms = tracer.per_op("data.generate_synthetic_dataset", ms=True)
        tracer.reset_aggregates()
        return gen_ms


def mean(values) -> float:
    """Same reduction as the program's own mean (NumPy, float64)."""
    import numpy as np
    return float(np.asarray(values, dtype=np.float64).mean()) if len(values) else 0.0


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fingerprint(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def layer_metrics(run: Run, tr, names, gen_ms: float, overhead_ms: float) -> dict:
    """Every named per-layer metric, per traced call."""
    values = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tr.per_op(base)
        elif kind == "self_ms":
            values[name] = tr.per_op(tracing.ROOT_SPAN if base == "cli" else base, ms=True)
    reads = tr.calls.get("data.read_feature_file", 0)
    videos = run.videos_per_call() * tr.ops if run.workload == "train-full" else 0
    values.update({
        "data.read_feature_file.unique_ratio": tr.paths_distinct / reads if reads else 0.0,
        "data.generate_synthetic_dataset.self_ms": gen_ms,
        "model.embed_segments.rows": tr.rows_embedded / tr.ops,
        "autodiff.graph_nodes_per_step": (statistics.fmean(tr.graph_nodes)
                                          if tr.graph_nodes else 0.0),
        "pseudo.nbg_flag_rate": run.results.get("n_nbg", 0) / videos if videos else 0.0,
        "evaluate.proposals": tr.proposals / tr.ops,
        "evaluate.nms.kept_ratio": tr.nms_kept / tr.nms_candidates if tr.nms_candidates else 0.0,
        "evaluate.accuracy": run.results.get("accuracy", 0.0),
        "evaluate.map50": run.results.get("map50", 0.0),
        "evaluate.avg_map": run.results.get("avg_map", 0.0),
        "bench.trace_overhead_ms": overhead_ms,
    })
    return {name: values[name] for name in names}


def report(run: Run, metrics: dict, units: dict, **facts) -> dict:
    for key, value in facts.items():
        print(f"{key}: {json.dumps(value)}")
    width = max(map(len, metrics), default=0)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, 1 epoch, 2 episodes per call")
    args = parser.parse_args(argv)
    try:
        cli = load_program()
        spec = json.loads(SPEC.read_text())
    except (BenchError, ImportError, OSError, ValueError) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}

    machine = machine_facts()
    # One CPU for this process, its set-up processes and its calibration
    # samples, so that the samples measure the CPU the work runs on.
    machine["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    scale = SMOKE if args.smoke else FULL
    run = Run(cli, args.workload, args.seed, scale, args.smoke)
    setup = run.set_up(1 if args.trace else scale.setup_reps)
    if setup is None:
        print(json.dumps(report(run, {}, {}, machine=machine)))
        return 1

    if args.trace:
        tr = tracing.Tracer(f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}")
        gen_ms = run.traced_gen_data(tr)
        plain, traced, _ = run.timed_phase(args.seconds, tr)
        overhead_ms = 1e3 * (statistics.median(traced) - statistics.median(plain))
        units = declared["per_layer"]
        metrics = layer_metrics(run, tr, units, gen_ms, overhead_ms)
        trace_path = run.work / "trace.jsonl"
        tr.write_spans(trace_path, {"workload": args.workload, "seed": args.seed,
                                    "machine": machine})
        facts = {"machine": machine, "trace": str(trace_path.relative_to(ROOT)),
                 "absent": tr.absent, "calls": {"untraced": len(plain), "traced": len(traced)}}
    else:
        plain, _, clock = run.timed_phase(args.seconds)
        metrics = {
            "setup_s": statistics.median(setup.scaled),
            "videos_per_s": statistics.median(run.videos_per_call() / t for t in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = declared["end_to_end"]
        named = ("train_videos_per_s" if args.workload == "train-full" else "episodes_per_s")
        per_call = (run.videos_per_call() if args.workload == "train-full"
                    else run.episodes_per_call())
        facts = {"machine": machine,
                 "setup_s_raw": setup.walls, "setup_s_scaled": setup.scaled,
                 "call_s_raw": clock.walls, "call_s_scaled": clock.scaled,
                 named: statistics.median(per_call / t for t in plain),
                 **{k: v for k, v in run.results.items() if k != "n_nbg"}}
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} operations, "
          f"{run.failed} failed")
    print(json.dumps(report(run, metrics, units, **facts)))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
