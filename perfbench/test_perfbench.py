"""Tests for the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import idxgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _digest(paths):
    return {k: Path(p).read_bytes() for k, p in paths.items()}


def test_idx_files_depend_only_on_the_seed(tmp_path):
    a = _digest(idxgen.write_dataset(tmp_path / "a", 5, 40, 20))
    b = _digest(idxgen.write_dataset(tmp_path / "b", 5, 40, 20))
    c = _digest(idxgen.write_dataset(tmp_path / "c", 6, 40, 20))
    assert a == b
    assert a["train_images"] != c["train_images"]


def test_idx_files_load_as_mnist_shaped_data(tmp_path):
    from prune_relief.datasets import load_idx
    paths = idxgen.write_dataset(tmp_path, 3, 500, 50)
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    assert train.images.shape == (500, 1, 28, 28)
    assert test.images.shape == (50, 1, 28, 28)
    assert set(train.labels.tolist()) == set(range(10))
    assert 0.0 <= train.images.min() and train.images.max() <= 1.0


def test_classes_overlap():
    """A nearest-prototype oracle must stay clearly below 100% accuracy."""
    import numpy as np
    pixels, labels = idxgen.make_split(4, 2000, 0)
    protos = idxgen.prototypes(4).reshape(10, -1)
    x = pixels.reshape(2000, -1) / 255.0
    dists = ((x[:, None, :] - protos[None]) ** 2).sum(axis=2)
    acc = float(np.mean(dists.argmin(axis=1) == labels))
    assert 0.5 < acc < 0.95


def test_self_time_subtracts_child_durations(tmp_path):
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({
        "spans": [["outer", 0.0, 10.0, -1, "r"],
                  ["inner", 1.0, 3.0, 0, "r"],
                  ["leaf", 1.5, 2.0, 1, "r"],
                  ["inner", 4.0, 5.0, 0, "r"]],
        "counts": {"c": 2}}))
    total, calls, self_s, counts = spans.summarize([path])
    assert total["outer"] == 10.0 and total["inner"] == 3.0
    assert calls["inner"] == 2
    assert self_s["outer"] == pytest.approx(10.0 - 2.0 - 1.0)
    assert self_s["inner"] == pytest.approx(3.0 - 0.5)
    assert counts["c"] == 2


def test_tracer_closes_iteration_spans_with_their_parent():
    t = spans.Tracer("r")
    outer = t.open("pipeline.iterate")
    t.open(spans.ITERATION)
    t.close_iteration()
    t.open(spans.ITERATION)
    t.close(outer)
    assert [s[0] for s in t.spans] == ["pipeline.iterate", spans.ITERATION,
                                       spans.ITERATION]
    assert all(s[2] is not None for s in t.spans)
    assert [s[3] for s in t.spans] == [-1, 0, 0]


def test_tracer_fails_when_a_wrapped_name_is_missing():
    # in a child process: install patches the package for good
    code = ("import spans\n"
            "from prune_relief import pipeline\n"
            "del pipeline._draw_pruning_batch\n"
            "spans.install(spans.Tracer('r'))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(BENCH), str(ROOT / "src")])})
    assert proc.returncode != 0
    assert "AttributeError" in proc.stderr


def test_speed_scaling_uses_the_reference_runs_around_each_command():
    walls = dict.fromkeys(run.COMMANDS, 1.0)
    # the host runs at half speed from just before prune to just after it
    refs = [run.REF_S] * (len(run.COMMANDS) + 1)
    refs[1] = refs[2] = 2 * run.REF_S
    scaled = run.speed_scaled(walls, refs)
    assert scaled["train"] == pytest.approx(1 / 1.5)
    assert scaled["prune"] == pytest.approx(0.5)
    assert scaled["report"] == pytest.approx(1 / 1.5)
    assert scaled["eval"] == pytest.approx(1.0)
    doubled = run.speed_scaled({c: 2.0 for c in run.COMMANDS}, refs)
    assert all(doubled[c] == pytest.approx(2 * scaled[c]) for c in scaled)


def test_layer_coverage_flags_zero_and_stray_layers():
    metrics = {f"{w}:{n}": (0 if n in run.CONV_ONLY and w != "lenet5_train"
                            else 1.0)
               for w in run.WORKLOADS for n in run.PER_LAYER}
    assert run.layer_coverage_errors(metrics) == []
    metrics["prune_sweep:pipeline.iteration.s"] = 0
    metrics["mlp_train:tensor_ops.im2col.calls"] = 3
    errors = run.layer_coverage_errors(metrics)
    assert len(errors) == 2
    assert any("pipeline.iteration.s" in e for e in errors)
    assert any("im2col.calls" in e for e in errors)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_smoke_prints_every_metric_without_errors():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for name in (*run.END_TO_END, *run.PER_LAYER):
            assert f"{workload}:{name}" in result["metrics"]
    assert proc.stdout.count("error_rate") == 2 * len(run.WORKLOADS)
    assert "fingerprint mlp_train" in proc.stdout
