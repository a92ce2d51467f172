"""Time each layer of a training step and the optimizer step, for one or
more source trees in one process.

    python3 bench/step.py --tree parent=PATH --tree change=. \\
        [--repeats 20] [--steps 5] [--seed 1] [--moved-bits] [--out PATH]

Each ``--tree LABEL=PATH`` names a repository checkout (by default only
``change=`` the one holding this script). Its ``src/prune_relief`` is loaded as a package of its own,
``prune_relief_<LABEL>``, so all trees run side by side in this process,
with the same NumPy, BLAS and malloc settings (the CLI's
``_keep_freed_memory``), and BLAS pinned to one thread.

Cases:

- ``lenet5_dense_b32``, ``lenet5_dense_b128``: LeNet-5 as initialised, at
  batch 32 (the benchmark workload's batch) and 128 (the paper's);
- ``lenet5_late_b32``, ``lenet5_late_b128``: LeNet-5 under a seeded mask set
  at the sparsity of a late pruning iteration (``late_masks``);
- ``lenet300100_dense_b128``: LeNet-300-100 as initialised.

Every tree builds the case's network from the same seed and steps its live
subnetwork as ``training.train`` does: ``forward_backward`` on a batch of
MNIST-shaped normal noise, then ``Optimizer.apply`` with Adam. A repeat
runs ``--steps`` steps of each tree, alternating which tree goes first,
after one untimed step per tree. Each layer's ``forward`` and ``backward``
are timed by wrapping the layer classes of every loaded package, and the
result records, per tree, the median over repeats of the per-step
milliseconds of the whole step, of ``forward_backward``, of each layer's
forward and backward and of the optimizer step, with the quartiles of the
step. With two or more trees it also counts the repeats in which each tree's
median step beat the first tree's, and asserts that every tree ends with
the first tree's parameter bytes: a change that moves a bit fails here.
With ``--moved-bits`` (for a change that moves bits on purpose, such as a
new float order in a step) it records, per tree after the first, whether
the bytes matched in ``params_identical`` and goes on; without it every
entry there is true.

The result, with ``harness.host``'s record (which names the OpenBLAS kernel
the byte check holds for), goes to ``--out`` (``bench/BENCH_step.json``).
"""

import argparse
import functools
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# name: (model, batch size, sparsity)
CASES = {
    "lenet5_dense_b32": ("lenet5", 32, "dense"),
    "lenet5_dense_b128": ("lenet5", 128, "dense"),
    "lenet5_late_b32": ("lenet5", 32, "late"),
    "lenet5_late_b128": ("lenet5", 128, "late"),
    "lenet300100_dense_b128": ("lenet300100", 128, "dense"),
}
INPUT_SHAPES = {"lenet5": (1, 28, 28), "lenet300100": (784,)}
BATCHES = 4  # distinct batches per case, cycled through the steps
LR = 1e-3


def load_tree(label, src):
    """The tree's ``src/prune_relief`` as the package
    ``prune_relief_<label>``."""
    pkg_dir = src / "prune_relief"
    name = f"prune_relief_{label}"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class LayerClock:
    """Seconds spent in each layer's ``forward`` and ``backward``, keyed by
    the layer's position in the network being stepped."""

    def __init__(self, packages):
        self.seconds = defaultdict(float)
        self.names = {}  # id(layer) -> "<index> <kind>"
        for pkg in packages:
            layers = pkg.layers
            for cls in (layers.DenseLayer, layers.ConvLayer, layers.MaxPool2D,
                        layers.Flatten):
                for op in ("forward", "backward"):
                    setattr(cls, op, self._timed(getattr(cls, op), op))

    def _timed(self, fn, op):
        @functools.wraps(fn)
        def wrapper(layer, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(layer, *args, **kwargs)
            finally:
                key = f"{self.names.get(id(layer), '?')} {op}"
                self.seconds[key] += time.perf_counter() - t0
        return wrapper

    def watch(self, net) -> None:
        self.names = {id(layer): f"{i} {layer.kind}"
                      for i, layer in enumerate(net.layers)}


def late_masks(net, rng) -> None:
    """Mask LeNet-5 as a late pruning iteration leaves it (ROADMAP's
    measurements at 12-17% remaining; this leaves 12%): conv 2 reads 10
    of conv 1's 20 filters and keeps a third of those kernel pairs, fc 1
    reads 48 of conv 2's 50 filters and keeps 250 of its 500 rows, with a
    quarter of their weights, and fc 2 keeps a quarter of its weights from
    those rows."""
    conv1, conv2, fc1, fc2 = (net.layers[i] for i in net.prunable_indices())
    block = fc1.fan_in // conv2.fan_out
    read1 = rng.permutation(conv1.fan_out)[:10]
    keep = np.zeros((conv2.fan_out, conv2.fan_in + 1), dtype=bool)
    keep[:, read1] = rng.random((conv2.fan_out, read1.size)) < 0.33
    keep[:, -1] = True
    conv2.apply_mask(keep)
    read2 = np.repeat(rng.permutation(conv2.fan_out) < 48, block)
    rows = rng.permutation(fc1.fan_out) < 250
    keep = rng.random((fc1.fan_out, fc1.fan_in + 1)) < 0.25
    keep[:, :-1] &= read2
    keep &= rows[:, None]
    fc1.apply_mask(keep)
    keep = rng.random((fc2.fan_out, fc2.fan_in + 1)) < 0.25
    keep[:, :-1] &= rows
    keep[:, -1] = True
    fc2.apply_mask(keep)


class Stepper:
    """One tree's network for a case, stepped as ``training.train`` does."""

    def __init__(self, pkg, model, sparsity, seed):
        self.pkg = pkg
        self.net = pkg.init_params(
            pkg.build_network(model, INPUT_SHAPES[model], 10), seed)
        if sparsity == "late":
            late_masks(self.net, np.random.default_rng(seed))
        self.live = pkg.network.Subnetwork(self.net)
        params = [p for layer in self.live.net.layers
                  for p in layer.params().values()]
        self.outside = [self.live.outside] if self.live.outside.size else []
        self.opt = pkg.Optimizer(params + self.outside,
                                 pkg.OptimizerConfig(kind="adam"))

    def step(self, x, labels, clock):
        """Seconds of (forward_backward, optimizer step)."""
        clock.watch(self.live.net)
        t0 = time.perf_counter()
        _, grads, _ = self.pkg.forward_backward(self.live.net, x, labels)
        t1 = time.perf_counter()
        self.opt.apply([g for layer_grads in grads
                        for g in layer_grads.values()]
                       + [0.0] * len(self.outside), LR)
        return t1 - t0, time.perf_counter() - t1

    def param_bytes(self) -> bytes:
        self.live.scatter()
        return b"".join(p.tobytes() for layer in self.net.layers
                        for p in layer.params().values())


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def run_case(trees, clock, model, batch, sparsity, args):
    rng = np.random.default_rng(args.seed)
    shape = INPUT_SHAPES[model]
    data = [(rng.standard_normal((batch, *shape), dtype=np.float32),
             rng.integers(0, 10, batch)) for _ in range(BATCHES)]
    steppers = {label: Stepper(pkg, model, sparsity, args.seed)
                for label, pkg in trees.items()}
    for s in steppers.values():  # untimed
        s.step(*data[0], clock)
    # per tree and repeat: per-step medians of each timed part
    per_repeat = {label: defaultdict(list) for label in trees}
    labels = list(trees)
    for r in range(args.repeats):
        order = labels if r % 2 == 0 else labels[::-1]
        for label in order:
            parts = defaultdict(list)
            for k in range(args.steps):
                clock.seconds.clear()
                fb, opt = steppers[label].step(*data[(k + 1) % BATCHES],
                                               clock)
                parts["step"].append(fb + opt)
                parts["forward_backward"].append(fb)
                parts["optimizer"].append(opt)
                for key, sec in clock.seconds.items():
                    parts[key].append(sec)
            for key, values in parts.items():
                per_repeat[label][key].append(1e3 * statistics.median(values))
    out = {"model": model, "batch": batch, "sparsity": sparsity,
           "remaining": {label: s.net.num_unmasked() / s.net.num_params()
                         for label, s in steppers.items()}, "ms": {}}
    for label in labels:
        med = per_repeat[label]
        out["ms"][label] = {
            "step": quartiles(med["step"]),
            "forward_backward": statistics.median(med["forward_backward"]),
            "optimizer": statistics.median(med["optimizer"]),
            "layers": {key: statistics.median(med[key]) for key in
                       sorted((k for k in med if k[0].isdigit()),
                              key=lambda k: int(k.split()[0]))}}
    if len(labels) > 1:
        base = per_repeat[labels[0]]["step"]
        out["faster_than_" + labels[0]] = {
            label: sum(t < b for t, b in zip(per_repeat[label]["step"], base))
            for label in labels[1:]}
        want = steppers[labels[0]].param_bytes()
        out["params_identical"] = {
            label: steppers[label].param_bytes() == want
            for label in labels[1:]}
        for label, same in out["params_identical"].items():
            if not (same or args.moved_bits):
                raise SystemExit(f"{model} {sparsity} batch {batch}: tree "
                                 f"{label} trained other bytes than "
                                 f"{labels[0]} (pass --moved-bits if that "
                                 f"is intended)")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=harness.tree, action="append",
                   metavar="LABEL=PATH",
                   help="a checkout to time (repeatable; default: change= "
                        "this script's checkout)")
    p.add_argument("--repeats", type=harness.count, default=20)
    p.add_argument("--steps", type=harness.count, default=5)
    p.add_argument("--seed", type=harness.seed, default=1)
    p.add_argument("--case", action="append", choices=list(CASES),
                   help="a case to run (repeatable; default all)")
    p.add_argument("--moved-bits", action="store_true",
                   help="record trees that train other parameter bytes "
                        "than the first instead of stopping")
    p.add_argument("--out", default=str(ROOT / "bench" / "BENCH_step.json"))
    args = p.parse_args(argv)
    trees = harness.distinct_trees(p, args.tree
                                   or [harness.tree(f"change={ROOT}")])
    trees = {label: load_tree(label, src) for label, src in trees.items()}
    first = next(iter(trees))
    importlib.import_module(f"prune_relief_{first}.cli")._keep_freed_memory()
    clock = LayerClock(trees.values())

    result = {"host": harness.host(), "trees": list(trees),
              "repeats": args.repeats, "steps": args.steps,
              "seed": args.seed, "moved_bits": args.moved_bits, "cases": {}}
    for name in args.case or CASES:
        case = run_case(trees, clock, *CASES[name], args)
        result["cases"][name] = case
        line = ", ".join(f"{label} {ms['step']['median']:.2f} ms"
                         for label, ms in case["ms"].items())
        wins = case.get("faster_than_" + first, {})
        line += "".join(f"; {label} faster in {k}/{args.repeats}"
                        for label, k in wins.items())
        line += "".join(f"; {label} trained other bytes"
                        for label, same in case.get("params_identical",
                                                    {}).items() if not same)
        print(f"{name}: {line}")
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
