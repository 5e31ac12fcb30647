"""Span tracer for the benchmark's traced run.

The program itself carries no tracing. Instead, `Tracer.install` replaces
each public function listed in `TRACED` with a timing wrapper, in every
`fewvid` module namespace that holds it: `evaluate` imports `self_weight`
by name, `train` imports `total_loss`, and so on, so patching only the
defining module would miss those calls. `Tracer.uninstall` puts the
originals back. A listed function that no longer exists is reported as
absent rather than failing the run, so later changes may delete helpers.

Each span records its name, start, end and parent span; spans stay in
memory and are written out by `write_spans` when the run ends. Self time is
a span's duration minus the durations of the wrapped calls it made, and is
aggregated per name as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public functions timed in the traced run, keyed by layer (= fewvid module).
TRACED = {
    "data": ("read_feature_file", "sample_episode", "load_manifest", "generate_synthetic_dataset"),
    "model": ("embed_segments", "segment_logits", "load_checkpoint", "save_checkpoint"),
    "autodiff": ("backward", "matmul", "depthwise_conv1d", "l2_normalize_rows", "softmax",
                 "concat_rows"),
    "pseudo": ("pseudo_label_video", "pseudo_label_bg"),
    "losses": ("total_loss", "soft_cls_loss", "bg_cls_loss", "contrastive_loss", "self_weight",
               "aggregate_video_feature"),
    "train": ("nesterov_step", "train_base", "write_log"),
    "evaluate": ("compute_prototypes", "classify_query", "tcam", "extract_proposals", "nms",
                 "average_precision"),
}

# Counted but not timed: about 70k calls per detection episode, each far
# shorter than a span's own bookkeeping.
COUNTED = {"evaluate": ("temporal_iou",)}

ROOT_SPAN = "cli.main"
GRAPH_COUNT_SPAN = "bench.graph_count"


def graph_size(root) -> int:
    """Distinct nodes reachable from `root` through `Tensor.inputs`, root included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop().inputs:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Collects spans and per-name aggregates for one workload run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns)
        self.absent = []  # "layer.function" names missing from the program
        self._paths = set()
        self._stack = []  # open spans: [span_id, name, start_ns, child_ns]
        self._next_id = 1
        self._patched = []  # (module, attribute, original)
        self.reset_aggregates()

    def reset_aggregates(self):
        """Start the per-name sums afresh; recorded spans are kept."""
        self.calls = {}  # name -> closed spans (or counted calls)
        self.self_ns = {}  # name -> summed self time
        self.ops = 0  # root spans closed
        # layer-specific counts, summed over ops
        self.paths_distinct = 0
        self.rows_embedded = 0
        self.proposals = 0
        self.nms_candidates = 0
        self.nms_kept = 0
        self.graph_nodes = []  # one entry per total_loss call

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, name, time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans.append((span_id, parent_id, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns

    def begin_op(self, name: str = ROOT_SPAN):
        """Open the root span of one operation (one call into the program)."""
        self._paths = set()
        self._enter(name)

    def end_op(self):
        self._exit()
        self.paths_distinct += len(self._paths)
        self.ops += 1

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every listed function in every fewvid namespace that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fewvid" or name.startswith("fewvid."))]
        self.absent = []
        for layer, names in TRACED.items():
            for fname in names:
                self._patch(modules, layer, fname, self._timed)
        for layer, names in COUNTED.items():
            for fname in names:
                self._patch(modules, layer, fname, self._counted)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _patch(self, modules, layer, fname, make_wrapper):
        home = sys.modules.get(f"fewvid.{layer}")
        original = getattr(home, fname, None)
        if original is None:
            self.absent.append(f"{layer}.{fname}")
            return
        wrapper = make_wrapper(f"{layer}.{fname}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _timed(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- per-layer counts taken at the wrapped boundary ---------------------

    def _after_data_read_feature_file(self, args, kwargs, result):
        self._paths.add(str(args[0] if args else kwargs["path"]))

    def _after_model_embed_segments(self, args, kwargs, result):
        self.rows_embedded += result.shape[0]

    def _after_evaluate_extract_proposals(self, args, kwargs, result):
        self.proposals += len(result)

    def _after_evaluate_nms(self, args, kwargs, result):
        self.nms_candidates += len(args[0] if args else kwargs["detections"])
        self.nms_kept += len(result)

    def _after_losses_total_loss(self, args, kwargs, result):
        # its own span, so the traversal is not charged to the caller's self time
        self._enter(GRAPH_COUNT_SPAN)
        self.graph_nodes.append(graph_size(result[0]))
        self._exit()

    # -- output -------------------------------------------------------------

    def per_op(self, name: str, ms: bool = False) -> float:
        """Calls (or self milliseconds) of `name`, averaged over closed ops."""
        total = self.self_ns.get(name, 0) / 1e6 if ms else self.calls.get(name, 0)
        return total / self.ops if self.ops else 0.0

    def write_spans(self, path, header: dict):
        """One JSON header line, then one [id, parent, name, start_ns, end_ns]
        line per span, starts relative to the first span."""
        t0 = min((s[3] for s in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, trace_id=self.trace_id, absent=self.absent)) + "\n")
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent_id, name, start - t0, end - t0]) + "\n")
