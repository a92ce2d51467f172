"""Command line interface.

Subcommands: train, prune, bounds, report, eval, scores. Every command takes
--config pointing at a JSON run config; --seed and --out override the config.
Exit codes: 0 success, 2 usage or config problems, 3 malformed data or model
files, 4 numeric failure during training.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

from .bounds import bound_report
from .config import build_network, infer_classes, load_config, load_dataset
from .errors import (CapabilityError, ConfigError, FormatError,
                     PruneReliefError, TrainingError)
from .importance import score_layer
from .layers import DenseLayer
from .metrics import (compression_stats, export_heatmaps,
                      export_importance_csv, masked_flops)
from .model_io import load_model, save_model
from .pipeline import (PURPOSE_INIT, PURPOSE_TRAIN, draw_pruning_set,
                       iterate, read_history, select_best)
from .svg import write_line_chart
from .training import evaluate, init_params, train


def _resolve_out(cfg, args) -> Path:
    out = getattr(args, "out", None) or cfg.out
    if not out:
        raise ConfigError("no output directory: set 'out' in the config or "
                          "pass --out")
    return Path(out)


@contextlib.contextmanager
def _run_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"run directory {out_dir} is locked by another process; remove "
            f"{lock} if that process is gone") from None
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
        cfg.seed = args.seed
    return cfg


def _copy_config(args, out_dir: Path) -> None:
    src = Path(args.config).resolve()
    dst = (out_dir / "config.json").resolve()
    if src != dst:
        shutil.copyfile(src, dst)


def _default_checkpoint(out_dir: Path, prefer_best: bool = False) -> Path:
    if prefer_best and (out_dir / "best" / "model.json").is_file():
        return out_dir / "best"
    return out_dir / "model"


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
        (out_dir / "baseline.json").write_text(json.dumps(
            {"test_accuracy": test_acc, "train_accuracy": train_acc},
            indent=2, sort_keys=True) + "\n")
        save_model(net, out_dir / "model")
    print(f"[train] done: test_acc {test_acc:.4f} train_acc {train_acc:.4f} "
          f"model at {out_dir / 'model'}")
    return 0


def cmd_prune(args) -> int:
    cfg = _load_run(args)
    out_dir = _resolve_out(cfg, args)
    train_ds, test_ds = load_dataset(cfg)
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else _default_checkpoint(out_dir)
    if not (ckpt / "model.json").is_file():
        raise ConfigError(f"no trained model at {ckpt}; run 'train' first or "
                          f"pass --checkpoint")
    net = load_model(ckpt)
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
            net, train_ds, test_ds, cfg.prune, cfg.retrain, cfg.seed,
            initial_net=initial, baseline_accuracy=baseline, out_dir=out_dir,
            log=lambda msg: print(f"[prune] {msg}"))
    for r in reports:
        print(f"[prune] iter {r.iteration:2d}: "
              f"acc {r.post_retrain_accuracy:.4f} "
              f"remaining {100 * r.remaining_fraction:.2f}% "
              f"flops_pruned {r.flops_pruned_pct:.1f}%")
    print(f"[prune] best iteration: {best}")
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_run(args)
    out_dir = _resolve_out(cfg, args)
    train_ds, _ = load_dataset(cfg)
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else _default_checkpoint(out_dir)
    if not (ckpt / "model.json").is_file():
        raise ConfigError(f"no model at {ckpt}; run 'train' first or pass "
                          f"--checkpoint")
    net = load_model(ckpt)
    layer_index = args.layer
    if layer_index not in net.prunable_indices():
        raise ConfigError(
            f"layer {layer_index} is not prunable; prunable layers are "
            f"{net.prunable_indices()}")
    kind = net.layers[layer_index].kind
    alpha = args.alpha if args.alpha is not None else (
        cfg.prune.alpha_fc if kind == "dense" else cfg.prune.alpha_conv)
    n = args.n if args.n is not None else cfg.prune.n_pruning_samples
    batch = draw_pruning_set(train_ds, n, cfg.seed, 0)
    report = bound_report(net, layer_index, alpha, batch)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "bounds.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    worst = max(report["targets"],
                key=lambda t: t["post_activation_deviation"], default=None)
    print(f"[bounds] layer {layer_index} ({kind}) alpha {alpha:g} on {n} "
          f"samples -> {path}")
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
    train_ds, _ = load_dataset(cfg)
    baseline_acc = _read_baseline(run_dir / "baseline.json")
    best = select_best(history, baseline_acc, cfg.prune.drop_tolerance) \
        if baseline_acc is not None else None

    base_net = load_model(run_dir / "model")
    final_net = load_model(run_dir / "iterations" /
                           f"iter_{history[-1].iteration:02d}")
    batch = draw_pruning_set(train_ds, cfg.prune.n_pruning_samples,
                             cfg.seed, 0)

    def layer_scores(net):
        _, trace = net.forward(batch, capture=True)
        return {li: score_layer(net.layers[li], trace.inputs_to(li))
                for li in net.prunable_indices()}

    # both stat sides use the final masks: the surviving connections'
    # original scores against their re-scored values after the run
    comp = compression_stats(final_net, scores_before=layer_scores(base_net),
                             scores_after=layer_scores(final_net))
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
    (run_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n")

    _, trace = base_net.forward(batch, capture=True)
    wrote = ["metrics.json"]
    for li in base_net.prunable_indices():
        layer = base_net.layers[li]
        if not isinstance(layer, DenseLayer):
            continue
        scores = score_layer(layer, trace.inputs_to(li))
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
    cfg = _load_run(args)
    out_dir = _resolve_out(cfg, args)
    _, test_ds = load_dataset(cfg)
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else _default_checkpoint(out_dir, prefer_best=True)
    if not (ckpt / "model.json").is_file():
        raise ConfigError(f"no model at {ckpt}")
    net = load_model(ckpt)
    acc = evaluate(net, test_ds.images, test_ds.labels)
    comp = compression_stats(net)
    print(json.dumps({"checkpoint": str(ckpt), "test_accuracy": acc,
                      "remaining_pct": comp.remaining_pct}, sort_keys=True))
    return 0


def cmd_scores(args) -> int:
    cfg = _load_run(args)
    out_dir = _resolve_out(cfg, args)
    train_ds, _ = load_dataset(cfg)
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else _default_checkpoint(out_dir)
    if not (ckpt / "model.json").is_file():
        raise ConfigError(f"no model at {ckpt}; run 'train' first or pass "
                          f"--checkpoint")
    net = load_model(ckpt)
    n = args.n if args.n is not None else cfg.prune.n_pruning_samples
    batch = draw_pruning_set(train_ds, n, cfg.seed, 0)
    _, trace = net.forward(batch, capture=True)
    score_dir = out_dir / "scores"
    score_dir.mkdir(parents=True, exist_ok=True)
    for li in net.prunable_indices():
        layer = net.layers[li]
        scores = score_layer(layer, trace.inputs_to(li))
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (CapabilityError, PruneReliefError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
