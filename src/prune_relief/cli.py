"""Command line interface.

Subcommands: train, prune, bounds, report, eval, scores. Every command takes
--config pointing at a JSON run config; --seed and --out override the config.
Exit codes: 0 success, 2 usage or config problems, 3 malformed data or model
files, 4 numeric failure during training.
"""

import argparse
import contextlib
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

from .bounds import bound_report, check_prunable
from .config import (build_network, check_logits, check_seed, infer_classes,
                     load_config, load_dataset)
from .errors import ConfigError, FormatError, PruneReliefError, TrainingError
from .importance import alpha_for, check_alpha, score_network
from .layers import DenseLayer
from .metrics import (compression_stats, export_heatmaps,
                      export_importance_csv, masked_flops)
from .model_io import load_model, save_model, write_json
from .pipeline import (PURPOSE_INIT, PURPOSE_TRAIN, draw_pruning_set, iterate,
                       iteration_dir, read_history, select_best)
from .svg import write_line_chart
from .training import evaluate, init_params, train


# mallopt parameters, from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Make glibc's malloc keep freed memory inside the process.

    By default glibc serves each of a training step's multi-MB arrays with
    a fresh ``mmap``, and returns the top of the heap to the system once
    more than twice the largest block freed so far lies free there, so
    every step maps and zero-fills its pages again: thousands of minor page
    faults per LeNet-5 step. Serving blocks up to 32 MiB (glibc's own
    ceiling on 64-bit, above a batch-128 LeNet-5 step's largest array) from
    the heap and trimming only above 256 MiB lets the next step reuse the
    same pages; a 64 MiB trim threshold still left 45% more faults in a
    LeNet-5 ``train`` and twice as many in ``prune``. A no-op without
    ``mallopt`` (macOS, or a libc without it).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


def _resolve_out(cfg, args) -> Path:
    out = getattr(args, "out", None) or cfg.out
    if not out:
        raise ConfigError("no output directory: set 'out' in the config or "
                          "pass --out")
    return Path(out)


def _lock_holder(lock: Path) -> str:
    """Which process ``lock`` names and whether it is running, as a clause
    of the locked-directory error."""
    try:
        pid = int(lock.read_text())
    except (OSError, ValueError):
        pid = 0
    if pid <= 0:  # kill() would signal a process group for these
        return f"{lock} is unreadable or holds no PID"
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return (f"{lock} names PID {pid}, which is not running; the lock is "
                f"stale, remove it to continue")
    except PermissionError:  # running, as another user
        pass
    return f"{lock} names PID {pid}, which is running"


@contextlib.contextmanager
def _run_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(f"run directory {out_dir} is locked by another "
                          f"process: {_lock_holder(lock)}") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            lock.unlink()


def _load_run(args):
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = check_seed(args.seed, "--seed")
    return cfg


def _copy_config(args, out_dir: Path) -> None:
    src = Path(args.config).resolve()
    dst = (out_dir / "config.json").resolve()
    if src != dst:
        shutil.copyfile(src, dst)


def _open_checkpoint(args, train: bool, test: bool, prefer_best: bool):
    """Config, output directory, (train, test) splits, checkpoint directory
    and network of a command that loads a checkpoint: --checkpoint, else the
    run's ``model/`` (``best/`` first when ``prefer_best`` and it exists).
    Only the splits asked for are read, the other is None; the network must
    emit a logit for every class of the splits read."""
    cfg = _load_run(args)
    out_dir = _resolve_out(cfg, args)
    splits = load_dataset(cfg, train, test)
    if args.checkpoint:
        ckpt = Path(args.checkpoint)
    elif prefer_best and (out_dir / "best" / "model.json").is_file():
        ckpt = out_dir / "best"
    else:
        ckpt = out_dir / "model"
    if not (ckpt / "model.json").is_file():
        raise ConfigError(f"no model at {ckpt}; run 'train' first or pass "
                          f"--checkpoint")
    net = load_model(ckpt)
    check_logits(net, ckpt, cfg, *(d for d in splits if d is not None))
    return cfg, out_dir, *splits, ckpt, net


def _read_baseline(path: Path):
    """The test accuracy ``train`` recorded in ``path``, or None without it."""
    if not path.is_file():
        return None
    try:
        return float(json.loads(path.read_text())["test_accuracy"])
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"cannot parse {path}: {e}") from e


def cmd_train(args) -> int:
    cfg = _load_run(args)
    out_dir = _resolve_out(cfg, args)
    train_ds, test_ds = load_dataset(cfg)
    classes = infer_classes(cfg, train_ds)
    net = build_network(cfg.model, train_ds.sample_shape, classes,
                        cfg.activation)
    init_params(net, [cfg.seed, PURPOSE_INIT])
    with _run_lock(out_dir):
        _copy_config(args, out_dir)
        save_model(net, out_dir / "initial")

        def log(e):
            print(f"[train] epoch {e['epoch']}/{cfg.train.epochs} "
                  f"lr {e['lr']:g} loss {e['loss']:.6f} "
                  f"train_acc {e['train_accuracy']:.4f}")

        train(net, train_ds.images, train_ds.labels, cfg.train,
              seed=[cfg.seed, PURPOSE_TRAIN], log=log)
        test_acc = evaluate(net, test_ds.images, test_ds.labels)
        train_acc = evaluate(net, train_ds.images, train_ds.labels)
        write_json(out_dir / "baseline.json",
                   {"test_accuracy": test_acc, "train_accuracy": train_acc})
        save_model(net, out_dir / "model")
    print(f"[train] done: test_acc {test_acc:.4f} train_acc {train_acc:.4f} "
          f"model at {out_dir / 'model'}")
    return 0


def cmd_prune(args) -> int:
    cfg, out_dir, train_ds, test_ds, _, net = _open_checkpoint(
        args, True, True, False)
    initial = None
    if cfg.prune.retrain_mode == "reinit" and cfg.prune.reinit_draw == "original":
        init_dir = out_dir / "initial"
        if not (init_dir / "model.json").is_file():
            raise ConfigError(
                f"retrain_mode 'reinit' needs the initial checkpoint at "
                f"{init_dir}; run 'train' first or switch "
                f"prune.reinit_draw to 'fresh'")
        initial = load_model(init_dir)
    baseline = _read_baseline(out_dir / "baseline.json")
    with _run_lock(out_dir):
        _copy_config(args, out_dir)
        _, reports, best = iterate(
            net, train_ds, test_ds, cfg.prune, cfg.retrain, cfg.seed, out_dir,
            initial_net=initial, baseline_accuracy=baseline,
            log=lambda msg: print(f"[prune] {msg}"))
    for r in reports:
        print(f"[prune] iter {r.iteration:2d}: "
              f"acc {r.post_retrain_accuracy:.4f} "
              f"remaining {100 * r.remaining_fraction:.2f}% "
              f"flops_pruned {r.flops_pruned_pct:.1f}%")
    print(f"[prune] best iteration: {best}")
    return 0


def cmd_bounds(args) -> int:
    cfg, out_dir, train_ds, _, _, net = _open_checkpoint(
        args, True, False, False)
    layer_index = args.layer
    check_prunable(net, layer_index, ConfigError)
    layer = net.layers[layer_index]
    if args.alpha is not None:
        alpha = check_alpha(args.alpha, "--alpha", ConfigError)
    else:
        alpha = alpha_for(layer, cfg.prune.alpha_conv, cfg.prune.alpha_fc)
    n = args.n if args.n is not None else cfg.prune.n_pruning_samples
    batch = draw_pruning_set(train_ds, n, cfg.seed, 0)
    report = bound_report(net, layer_index, alpha, batch)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "bounds.json"
    write_json(path, report)
    worst = max(report["targets"],
                key=lambda t: t["post_activation_deviation"], default=None)
    print(f"[bounds] layer {layer_index} ({layer.kind}) alpha {alpha:g} "
          f"on {n} samples -> {path}")
    if worst:
        print(f"[bounds] largest measured deviation "
              f"{worst['post_activation_deviation']:.6g} against bound "
              f"{worst['post_activation_bound']:.6g} (target "
              f"{worst['target']})")
    if "error" in report["network"]:
        print(f"[bounds] network section: {report['network']['error']}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    history = read_history(run_dir / "history.jsonl")
    if not history:
        raise ConfigError(f"no history.jsonl in {run_dir}; run 'prune' first")
    cpath = run_dir / "config.json"
    if not cpath.is_file():
        raise ConfigError(f"no config.json in {run_dir}")
    cfg = load_config(cpath)
    train_ds, _ = load_dataset(cfg, test=False)
    baseline_acc = _read_baseline(run_dir / "baseline.json")
    best = select_best(history, baseline_acc, cfg.prune.drop_tolerance) \
        if baseline_acc is not None else None

    base_dir = run_dir / "model"
    final_dir = iteration_dir(run_dir, history[-1].iteration)
    base_net, final_net = load_model(base_dir), load_model(final_dir)
    check_logits(base_net, base_dir, cfg, train_ds)
    check_logits(final_net, final_dir, cfg, train_ds)
    batch = draw_pruning_set(train_ds, cfg.prune.n_pruning_samples,
                             cfg.seed, 0)

    base_scores = score_network(base_net, batch)
    final_scores = score_network(final_net, batch)
    # both stat sides use the final masks: the surviving connections'
    # original scores against their re-scored values after the run
    comp = compression_stats(final_net, scores_before=base_scores,
                             scores_after=final_scores)
    fl = masked_flops(final_net)
    metrics = {
        "baseline_accuracy": baseline_acc,
        "iterations": len(history),
        "best_iteration": best,
        "final": {
            "post_retrain_accuracy": history[-1].post_retrain_accuracy,
            "remaining_pct": comp.remaining_pct,
            "compression_rate": comp.compression_rate,
            "flops_pruned_pct": fl.pruned_pct,
        },
        "compression": comp.to_json_dict(),
        "flops": fl.to_json_dict(),
    }
    write_json(run_dir / "metrics.json", metrics)

    wrote = ["metrics.json"]
    for li, scores in base_scores.items():
        layer = base_net.layers[li]
        if not isinstance(layer, DenseLayer):
            continue
        spath = run_dir / f"layer{li}_scores.csv"
        mpath = run_dir / f"layer{li}_magnitudes.csv"
        export_heatmaps(layer, scores, spath, mpath)
        wrote += [spath.name, mpath.name]

    iters = [r.iteration for r in history]
    write_line_chart(
        run_dir / "accuracy.svg", iters,
        {"pre-retrain": [r.pre_retrain_accuracy for r in history],
         "post-retrain": [r.post_retrain_accuracy for r in history]},
        title="Test accuracy per pruning iteration", x_label="iteration",
        y_label="accuracy", hline=baseline_acc)
    write_line_chart(
        run_dir / "remaining.svg", iters,
        {"parameters": [100 * r.remaining_fraction for r in history],
         "flops": [100 - r.flops_pruned_pct for r in history]},
        title="Surviving share per pruning iteration", x_label="iteration",
        y_label="% remaining")
    wrote += ["accuracy.svg", "remaining.svg"]
    for name in wrote:
        print(f"[report] wrote {run_dir / name}")
    return 0


def cmd_eval(args) -> int:
    _, _, _, test_ds, ckpt, net = _open_checkpoint(args, False, True, True)
    acc = evaluate(net, test_ds.images, test_ds.labels)
    comp = compression_stats(net)
    print(json.dumps({"checkpoint": str(ckpt), "test_accuracy": acc,
                      "remaining_pct": comp.remaining_pct}, sort_keys=True))
    return 0


def cmd_scores(args) -> int:
    cfg, out_dir, train_ds, _, _, net = _open_checkpoint(
        args, True, False, False)
    n = args.n if args.n is not None else cfg.prune.n_pruning_samples
    batch = draw_pruning_set(train_ds, n, cfg.seed, 0)
    layer_scores = score_network(net, batch)
    score_dir = out_dir / "scores"
    score_dir.mkdir(parents=True, exist_ok=True)
    for li, scores in layer_scores.items():
        path = score_dir / f"layer{li}_importance.csv"
        export_importance_csv(scores, path)
        print(f"[scores] wrote {path} ({scores.num_targets} targets x "
              f"{scores.num_contributors} contributors)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prune-relief",
        description="Importance-score pruning: train, prune iteratively, "
                    "verify error bounds, and report compression")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
        if checkpoint:
            p.add_argument("--checkpoint", help="model directory to load")

    p = sub.add_parser("train", help="train the baseline network")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="run the iterative prune/retrain loop")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("bounds", help="prune one layer and verify bounds")
    common(p, checkpoint=True)
    p.add_argument("--layer", type=int, required=True,
                   help="index of the prunable layer to analyze")
    p.add_argument("--alpha", type=float, help="score mass to keep")
    p.add_argument("--n", type=int, help="pruning set size")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="write metrics, heatmaps, and charts")
    p.add_argument("--run", required=True, help="run directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("scores", help="export importance score matrices")
    common(p, checkpoint=True)
    p.add_argument("--n", type=int, help="pruning set size")
    p.set_defaults(func=cmd_scores)
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PruneReliefError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, FormatError) \
            else 4 if isinstance(e, TrainingError) else 2


def run_and_exit() -> None:
    """Run ``main`` on the process's arguments and end the process with
    its exit code, skipping the interpreter's teardown.

    Teardown runs the final garbage collections and module cleanup over
    NumPy's objects: ~30 ms, as long as ``eval``'s own work. It has nothing
    left to write: every file a command writes is closed before ``main``
    returns (``write_bytes``/``write_text``, ``with open``,
    ``shutil.copyfile``), and ``_run_lock`` removes its lock in a
    ``finally``. So once the standard streams are flushed, ``os._exit``
    loses nothing.

    Only a returned code takes this path. An exception, ``KeyboardInterrupt``
    and argparse's ``SystemExit`` (a usage error, ``--help``) leave through
    the interpreter's normal exit. So does a flush that fails (stdout is a
    closed pipe), so that the interpreter reports it as it would without
    this function. ``python -m prune_relief.cli`` and the ``prune-relief``
    console script both end here.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when started with it closed
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
