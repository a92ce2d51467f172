"""Iterative prune/retrain pipeline with resumable run directories.

Each iteration draws a pruning set, runs one full pruning pass, optionally
resets surviving weights to their original initialization, retrains under the
masks, and appends one JSON line to ``history.jsonl``. Checkpoints land in
``iterations/iter_NN/``; the best iteration (the latest whose accuracy drop
from the run baseline stays within tolerance) is copied to ``best/``.

Every random draw comes from a generator keyed by (seed, purpose, iteration),
so a resumed run replays the exact byte stream of an uninterrupted one.
"""

import json
import math
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, FormatError
from .importance import check_alpha, prune_pass
from .metrics import (compression_stats, kept_connection_scores,
                      masked_flops, score_stats)
from .model_io import load_model, save_model, write_json
from .network import Network
from .optimizers import OptimizerConfig, summarize
from .training import evaluate, init_params, train

PURPOSE_INIT = 0
PURPOSE_TRAIN = 1
PURPOSE_PRUNE_DRAW = 2
PURPOSE_RETRAIN = 3
PURPOSE_REINIT = 4


@dataclass
class PruneConfig:
    alpha_conv: float = 0.9
    alpha_fc: float = 0.95
    n_pruning_samples: int = 1000
    iterations: int = 1
    retrain_mode: str = "reinit"  # or "finetune"
    pruning_set_policy: str = "resample"  # or "fixed"
    reinit_draw: str = "original"  # or "fresh"
    drop_tolerance: float = 1.0  # accuracy percentage points

    def validate(self) -> "PruneConfig":
        for name in ("alpha_conv", "alpha_fc"):
            check_alpha(getattr(self, name), name, ConfigError)
        if self.n_pruning_samples < 1:
            raise ConfigError(f"n_pruning_samples must be >= 1, got "
                              f"{self.n_pruning_samples}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.retrain_mode not in ("reinit", "finetune"):
            raise ConfigError(f"retrain_mode must be 'reinit' or 'finetune', "
                              f"got {self.retrain_mode!r}")
        if self.pruning_set_policy not in ("resample", "fixed"):
            raise ConfigError(f"pruning_set_policy must be 'resample' or "
                              f"'fixed', got {self.pruning_set_policy!r}")
        if self.reinit_draw not in ("original", "fresh"):
            raise ConfigError(f"reinit_draw must be 'original' or 'fresh', "
                              f"got {self.reinit_draw!r}")
        if self.drop_tolerance < 0:
            raise ConfigError(f"drop_tolerance must be >= 0, got "
                              f"{self.drop_tolerance}")
        return self


@dataclass
class IterationReport:
    iteration: int
    pre_retrain_accuracy: float
    post_retrain_accuracy: float
    remaining_fraction: float
    compression_rate: float | None
    flops_pruned_pct: float
    per_layer: list = field(default_factory=list)
    score_stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(d: dict) -> "IterationReport":
        """The report a history record holds; ValueError names the first
        field of the wrong type, KeyError the first one missing."""
        d = {"per_layer": [], "score_stats": {}, **d}
        for key, (check, expected) in _HISTORY_FIELDS.items():
            if not check(d[key]):
                raise ValueError(f"{key} must be {expected}, got {d[key]!r}")
        return IterationReport(**{key: d[key] for key in _HISTORY_FIELDS})


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    # an int of any size is finite; math.isfinite overflows on a huge one
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


_FINITE = (_is_finite, "a finite number")

# the check and its wording for each field of a history record, in the
# order IterationReport declares them
_HISTORY_FIELDS = {
    "iteration": (_is_int, "an integer"),
    "pre_retrain_accuracy": _FINITE,
    "post_retrain_accuracy": _FINITE,
    "remaining_fraction": _FINITE,
    "compression_rate": (lambda v: v is None or _is_int(v)
                         or isinstance(v, float), "a number or null"),
    "flops_pruned_pct": _FINITE,
    "per_layer": (lambda v: isinstance(v, list), "a list"),
    "score_stats": (lambda v: isinstance(v, dict), "an object"),
}


def history_line(report: IterationReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"


def read_history(path) -> list[IterationReport]:
    path = Path(path)
    if not path.is_file():
        return []
    reports = []
    for ln, line in enumerate(path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode())
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got "
                                 f"{type(record).__name__}")
            reports.append(IterationReport.from_json_dict(record))
        except (ValueError, KeyError) as e:
            raise FormatError(f"{path}:{ln}: malformed history line: {e}") from e
    for i, r in enumerate(reports, 1):
        if r.iteration != i:
            raise FormatError(f"{path}: iteration {r.iteration} recorded at "
                              f"position {i}")
    return reports


def select_best(reports: list[IterationReport], baseline_accuracy: float,
                drop_tolerance_pp: float):
    """Latest iteration whose accuracy drop stays within tolerance, or None.

    The comparison carries a 1e-12 guard: accuracies are ratios of integer
    counts, and the scale-up to percentage points alone can push an exact
    boundary case over by a few ulps.
    """
    best = None
    for r in reports:
        drop_pp = (baseline_accuracy - r.post_retrain_accuracy) * 100.0
        if drop_pp <= drop_tolerance_pp + 1e-12:
            best = r.iteration
    return best


def _restore_surviving(net: Network, source: Network) -> None:
    """Copy parameter values from ``source`` into ``net`` under net's masks."""
    for li in net.prunable_indices():
        dst = net.layers[li]
        src = source.layers[li]
        masks = dst.param_masks()
        for name, p in dst.params().items():
            sp = src.params()[name]
            if sp.shape != p.shape:
                raise ConfigError(
                    f"initial network layer {li} has {name} of shape "
                    f"{sp.shape}, run network has {p.shape}")
            np.multiply(sp, masks[name], out=p)


def draw_pruning_set(train: Dataset, n: int, seed, key: int):
    """``n`` distinct training images from the generator keyed by
    (seed, pruning draw, key): key 0 for a fixed set, the iteration when
    each iteration resamples."""
    if n < 1:
        raise ConfigError(f"the pruning set must hold at least one sample, "
                          f"got n={n}")
    if n > train.n:
        raise ConfigError(f"pruning set of {n} exceeds the {train.n} "
                          f"training samples")
    rng = np.random.default_rng([seed, PURPOSE_PRUNE_DRAW, key])
    idx = rng.choice(train.n, size=n, replace=False)
    return train.images[idx]


# iterate draws through this second name only, so perfbench's tracer can
# mark iterations on it while the CLI's one-off draws stay unmarked
_draw_pruning_batch = draw_pruning_set


# what a history line's per_layer entry records of a checkpoint's layer
_RECORDED = ("layer", "kind", "total", "unmasked")


def _check_resumed(net: Network, last: IterationReport, ckpt: Path,
                   history_path: Path) -> None:
    """FormatError naming the first layer whose kind, size or unmasked count
    in ``net``, the checkpoint resumed from, differs from the last history
    line's record."""
    have = [{k: e[k] for k in _RECORDED}
            for e in compression_stats(net).per_layer]
    recorded = [{k: e.get(k) for k in _RECORDED} if isinstance(e, dict) else e
                for e in last.per_layer]
    for i in range(max(len(have), len(recorded))):
        got, want = (x[i] if i < len(x) else None for x in (have, recorded))
        if got != want:
            where = got if got is not None else want
            layer = where.get("layer") if isinstance(where, dict) else i
            raise FormatError(
                f"checkpoint {ckpt} does not match the last line of "
                f"{history_path} at layer {layer}: the checkpoint has "
                f"{got}, the history records {want}")


def iteration_dir(run_dir: Path, iteration: int) -> Path:
    """The checkpoint directory of one iteration of a run."""
    return run_dir / "iterations" / f"iter_{iteration:02d}"


def iterate(net: Network, train_ds: Dataset, test_ds: Dataset,
            pcfg: PruneConfig, retrain_cfg: OptimizerConfig, seed: int,
            out_dir, initial_net: Network | None = None,
            baseline_accuracy: float | None = None, log=None):
    """Run the prune/retrain loop; returns (net, reports, best_iteration).

    ``net`` is mutated in place across iterations. The loop appends to
    ``out_dir``'s ``history.jsonl``, checkpoints every iteration, and
    resumes after the last completed iteration found on disk.
    """
    pcfg.validate()
    retrain_cfg.validate()
    if pcfg.retrain_mode == "reinit" and pcfg.reinit_draw == "original" \
            and initial_net is None:
        raise ConfigError("retrain_mode 'reinit' with the original draw needs "
                          "the initial network")
    if baseline_accuracy is None:
        baseline_accuracy = evaluate(net, test_ds.images, test_ds.labels)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history_path = out_dir / "history.jsonl"
    reports = read_history(history_path)
    if len(reports) > pcfg.iterations:
        raise ConfigError(
            f"{history_path} already holds {len(reports)} iterations, "
            f"config asks for {pcfg.iterations}")
    if reports:
        last_ckpt = iteration_dir(out_dir, len(reports))
        resumed = load_model(last_ckpt)
        if resumed.num_params() != net.num_params():
            raise ConfigError(f"checkpoint {last_ckpt} does not match the "
                              f"configured network")
        _check_resumed(resumed, reports[-1], last_ckpt, history_path)
        net.layers = resumed.layers
        if log is not None:
            log(f"resuming after iteration {len(reports)}")

    for it in range(len(reports) + 1, pcfg.iterations + 1):
        key = it if pcfg.pruning_set_policy == "resample" else 0
        batch = _draw_pruning_batch(train_ds, pcfg.n_pruning_samples, seed,
                                    key)
        selected = prune_pass(net, batch, pcfg.alpha_conv, pcfg.alpha_fc)
        del batch
        # only the kept scores' statistics outlive the pass, so the score
        # grids and keep masks are freed before the statistics are taken
        kept = kept_connection_scores(
            net, {li: scores for li, (scores, _) in selected.items()})
        del selected
        stats = score_stats(kept)
        del kept
        pre_acc = evaluate(net, test_ds.images, test_ds.labels)
        if pcfg.retrain_mode == "reinit":
            if pcfg.reinit_draw == "original":
                _restore_surviving(net, initial_net)
            else:
                fresh = net.clone()
                init_params(fresh, [seed, PURPOSE_REINIT, it])
                _restore_surviving(net, fresh)
        train(net, train_ds.images, train_ds.labels, retrain_cfg,
              seed=[seed, PURPOSE_RETRAIN, it])
        post_acc = evaluate(net, test_ds.images, test_ds.labels)
        comp = compression_stats(net)
        fl = masked_flops(net)
        report = IterationReport(
            iteration=it,
            pre_retrain_accuracy=pre_acc,
            post_retrain_accuracy=post_acc,
            remaining_fraction=comp.unmasked_params / comp.total_params,
            compression_rate=comp.compression_rate,
            flops_pruned_pct=fl.pruned_pct,
            per_layer=comp.per_layer,
            score_stats=stats)
        reports.append(report)
        ckpt = iteration_dir(out_dir, it)
        save_model(net, ckpt)
        steps = (retrain_cfg.epochs
                 * int(np.ceil(train_ds.n / retrain_cfg.batch_size)))
        write_json(ckpt / "optimizer.json", summarize(retrain_cfg, steps))
        with open(history_path, "a") as fh:
            fh.write(history_line(report))
        if log is not None:
            log(f"iteration {it}: pre {pre_acc:.4f} post {post_acc:.4f} "
                f"remaining {100 * report.remaining_fraction:.2f}%")

    best = select_best(reports, baseline_accuracy, pcfg.drop_tolerance)
    write_json(out_dir / "best.json",
               {"baseline_accuracy": baseline_accuracy,
                "drop_tolerance_pp": pcfg.drop_tolerance,
                "best_iteration": best})
    best_dir = out_dir / "best"
    if best_dir.exists():
        shutil.rmtree(best_dir)
    if best is not None:
        src = iteration_dir(out_dir, best)
        best_dir.mkdir(parents=True)
        for name in ("model.json", "weights.bin"):
            shutil.copyfile(src / name, best_dir / name)
    return net, reports, best
