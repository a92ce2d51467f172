"""Correctness checks on a finished CLI sequence, and the run fingerprint.

``check_run`` returns one ``(name, ok, detail)`` entry per check. Loading
checkpoints goes through ``prune_relief.model_io.load_model``, which
enforces the CRC of every tensor and that masked entries are exactly zero.
"""

import hashlib
import json
from pathlib import Path

# the acceptance tests compare measured deviations with bounds at this
# absolute tolerance
BOUND_TOL = 1e-5


def fingerprint(run_dir) -> str:
    """sha256 over history.jsonl, best.json and every weights.bin."""
    run_dir = Path(run_dir)
    files = [run_dir / "history.jsonl", run_dir / "best.json"]
    files += sorted(run_dir.rglob("weights.bin"))
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(run_dir)).encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def read_history(run_dir) -> list[dict]:
    path = Path(run_dir) / "history.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def final_state(run_dir):
    """(test accuracy, remaining %) after the last iteration, or None."""
    try:
        last = read_history(run_dir)[-1]
        return last["post_retrain_accuracy"], 100.0 * last["remaining_fraction"]
    except (OSError, ValueError, KeyError, IndexError):
        return None


def _history(run_dir, iterations):
    hist = read_history(run_dir)
    if len(hist) != iterations:
        return False, f"{len(hist)} history lines, expected {iterations}"
    fr = [h["remaining_fraction"] for h in hist]
    rises = [i + 1 for i in range(len(fr) - 1) if fr[i + 1] > fr[i]]
    if rises:
        return False, f"remaining_fraction rises after iterations {rises}"
    return True, f"{len(hist)} lines, remaining {fr[0]:.4f} -> {fr[-1]:.4f}"


def _loads(ckpt):
    from prune_relief.errors import PruneReliefError
    from prune_relief.model_io import load_model
    try:
        net = load_model(ckpt)
    except (PruneReliefError, OSError) as e:
        return False, str(e)
    return True, f"{net.num_unmasked()} of {net.num_params()} unmasked"


def _bounds(run_dir):
    report = json.loads((Path(run_dir) / "bounds.json").read_text())
    bad = [t["target"] for t in report["targets"]
           if t["pre_activation_deviation"] > t["pre_activation_bound"] + BOUND_TOL
           or t["post_activation_deviation"] > t["post_activation_bound"] + BOUND_TOL]
    net = report["network"]
    if "logit_bounds" in net:
        bad += [f"logit{k}" for k, (m, b) in enumerate(zip(
            net["measured_mean_abs_change"], net["logit_bounds"]))
            if m > b + BOUND_TOL]
    if not report["targets"] or bad:
        return False, f"deviation above bound at {bad or 'no targets'}"
    return True, f"{len(report['targets'])} targets within bounds"


def _metrics(run_dir, final):
    path = Path(run_dir) / "metrics.json"
    if not path.is_file():
        return False, "report wrote no metrics.json"
    if final is None:
        return False, "no history to compare metrics.json with"
    got = json.loads(path.read_text())["final"]["remaining_pct"]
    if abs(got - final[1]) > 1e-9:
        return False, f"metrics.json remaining {got} != history {final[1]}"
    return True, "metrics.json agrees with history"


def _eval(eval_stdout, run_dir):
    """eval reports the best checkpoint; its accuracy must match history."""
    lines = eval_stdout.strip().splitlines()
    if not lines:
        return False, "eval printed nothing"
    got = json.loads(lines[-1])["test_accuracy"]
    best = json.loads((Path(run_dir) / "best.json").read_text())["best_iteration"]
    want = read_history(run_dir)[best - 1]["post_retrain_accuracy"]
    if got != want:
        return False, f"eval accuracy {got} != history {want} at iteration {best}"
    return True, f"best iteration {best} at accuracy {got}"


def _guard(fn, *args):
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return False, f"{type(e).__name__}: {e}"


def check_run(run_dir, workload, eval_stdout: str) -> list[tuple]:
    """Run every output check on one finished sequence."""
    run_dir = Path(run_dir)
    final_ckpt = run_dir / "iterations" / f"iter_{workload.iterations:02d}"
    return [
        ("history", *_guard(_history, run_dir, workload.iterations)),
        ("final_checkpoint", *_guard(_loads, final_ckpt)),
        ("best_checkpoint", *_guard(_loads, run_dir / "best")),
        ("bounds", *_guard(_bounds, run_dir)),
        ("metrics_json", *_guard(_metrics, run_dir, final_state(run_dir))),
        ("eval", *_guard(_eval, eval_stdout, run_dir)),
    ]
