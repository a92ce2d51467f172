"""In-memory span tracer that wraps prune_relief functions from outside.

The package imports functions by name (``from .importance import
prune_pass``), so a wrapper only takes effect where it replaces the name in
the module that makes the call. ``install`` does that for every layer the
benchmark measures and leaves the package source untouched.

A span is ``[name, start, end, parent, run_id]`` with ``parent`` the index
of the enclosing span (or -1). Counters sit next to the spans. ``summarize``
turns one or more span files into per-name totals, call counts and self
times, where self time is a span's duration minus the durations of its
child spans (one thread, so children never overlap).
"""

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

ITERATION = "pipeline.iteration"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def close_iteration(self) -> None:
        if self.stack and self.spans[self.stack[-1]][0] == ITERATION:
            self.close(self.stack[-1])

    def wrap(self, name: str, fn, count=None):
        """Time every call of ``fn`` as a span; ``count(args, result)``
        returns counter increments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.counts.update(count(args, result))
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Count calls of ``fn`` without a span (for very frequent calls)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"spans": self.spans, "counts": dict(self.counts)}))


def _checkpoint_bytes(path) -> int:
    return sum((Path(path) / f).stat().st_size
               for f in ("model.json", "weights.bin"))


def _live_contributors(layer) -> int:
    if layer.kind == "dense":
        return int(layer.weight_mask.sum() + layer.bias_mask.sum())
    return int(layer.kernel_mask.sum() + layer.bias_mask.sum())


def install(tracer: Tracer) -> None:
    """Replace the measured functions and methods of prune_relief."""
    from prune_relief import (cli, config, importance, layers, optimizers,
                              pipeline, tensor_ops, training)
    t = tracer

    def patch(modules, attr, name, count=None):
        # a function renamed in the package raises here, so every traced
        # command fails and shows in the run's failed checks
        wrapped = t.wrap(name, getattr(modules[0], attr), count)
        for m in modules:
            setattr(m, attr, wrapped)

    def samples(args, result):
        return {"training.evaluate.samples": args[1].shape[0]}

    def nbytes(key):
        return lambda args, result: {key: result.nbytes}

    def scored(args, result):
        return {"importance.contributors_scored": result.scores.size,
                "importance.contributors_live": _live_contributors(args[0])}

    def saved(args, result):
        return {"model_io.save_model.bytes": _checkpoint_bytes(args[1])}

    def loaded(args, result):
        return {"model_io.load_model.bytes": _checkpoint_bytes(args[0])}

    def heatmap_bytes(args, result):
        return {"metrics.export_heatmaps.bytes":
                Path(args[2]).stat().st_size + Path(args[3]).stat().st_size}

    patch([training], "forward_backward", "training.forward_backward")
    patch([cli, pipeline], "train", "training.train")
    patch([cli, pipeline], "evaluate", "training.evaluate", samples)
    patch([optimizers], "adam_step", "optimizers.adam_step")
    optimizers.Optimizer.apply = t.wrap("optimizers.apply",
                                        optimizers.Optimizer.apply)
    for cls, kind in ((layers.DenseLayer, "dense"), (layers.ConvLayer, "conv"),
                      (layers.MaxPool2D, "maxpool")):
        cls.forward = t.wrap(f"layers.{kind}.forward", cls.forward)
        cls.backward = t.wrap(f"layers.{kind}.backward", cls.backward)
    for cls in (layers.DenseLayer, layers.ConvLayer):
        cls.apply_mask = t.counter("layers.apply_mask.calls", cls.apply_mask)
    patch([layers, importance, tensor_ops], "im2col", "tensor_ops.im2col",
          nbytes("tensor_ops.im2col.bytes"))
    patch([layers], "col2im", "tensor_ops.col2im")
    patch([importance], "select_kept", "importance.select_kept")
    patch([pipeline], "prune_pass", "importance.prune_pass")
    patch([importance], "fc_importance", "importance.fc_importance", scored)
    patch([importance], "conv_importance", "importance.conv_importance",
          scored)
    patch([cli, pipeline], "save_model", "model_io.save_model", saved)
    patch([cli, pipeline], "load_model", "model_io.load_model", loaded)
    patch([cli], "export_heatmaps", "metrics.export_heatmaps", heatmap_bytes)
    patch([cli, pipeline], "compression_stats", "metrics.compression_stats")
    patch([cli], "bound_report", "bounds.bound_report")
    patch([config], "load_idx", "datasets.load_idx")

    patch([cli], "iterate", "pipeline.iterate")

    # iterate's loop body is no function of its own: an iteration span opens
    # at each pruning-set draw and closes at the next draw, at select_best,
    # or when iterate returns
    def marker(fn, opens):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t.close_iteration()
            if opens:
                t.open(ITERATION)
            return fn(*args, **kwargs)
        return wrapper

    pipeline._draw_pruning_batch = marker(pipeline._draw_pruning_batch, True)
    pipeline.select_best = marker(pipeline.select_best, False)


def summarize(span_files) -> tuple[dict, dict, dict, Counter]:
    """Totals, call counts and self times per span name, plus counters."""
    total = defaultdict(float)
    calls = Counter()
    self_s = defaultdict(float)
    counts = Counter()
    for path in span_files:
        data = json.loads(Path(path).read_text())
        spans = data["spans"]
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[spans[parent][0]] -= end - start
        counts.update(data["counts"])
    return dict(total), dict(calls), dict(self_s), counts
