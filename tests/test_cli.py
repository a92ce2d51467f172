"""End-to-end command line tests driven through ``prune_relief.cli.main``.

The expensive part (train + prune on a synthetic dataset) runs once per
module; read-only commands share that run directory. Tests that corrupt
files work on a copy of it.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from prune_relief import ConvLayer, DenseLayer, Flatten, MaxPool2D, Network
from prune_relief.cli import build_parser, main
from prune_relief.model_io import load_model, save_model
from prune_relief.pipeline import read_history
from tests.conftest import (count_forwards_and_scores, mask_pairs,
                            random_conv, random_dense, small_mlp)
from tests.test_datasets import idx_images_bytes, idx_labels_bytes
from tests.test_model_io import set_f32, set_u8

QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / \
    "synthetic_quickstart.json"


def write_config(path, out=None, **overrides):
    cfg = {
        "seed": 11,
        "model": "mlp:16-8-3",
        "dataset": {"kind": "synthetic", "classes": 3, "n_train": 240,
                    "n_test": 120, "dim": 16},
        "train": {"optimizer": "sgd", "epochs": 3, "batch_size": 32,
                  "lr": 0.1},
        "prune": {"alpha_fc": 0.9, "n_pruning_samples": 64, "iterations": 2,
                  "drop_tolerance": 50.0},
    }
    if out is not None:
        cfg["out"] = str(out)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Config path and run directory of one completed train+prune run."""
    root = tmp_path_factory.mktemp("cli_run")
    out = root / "run"
    cfg = write_config(root / "config.json", out=out)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["prune", "--config", str(cfg)]) == 0
    return cfg, out


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def copy_run(run, tmp_path):
    """Clone the shared run so a test can corrupt files safely."""
    cfg, out = run
    out2 = tmp_path / "run"
    shutil.copytree(out, out2)
    cfg2 = write_config(tmp_path / "config.json", out=out2)
    return cfg2, out2


class TestTrain:
    def test_artifacts(self, run):
        cfg, out = run
        for rel in ("initial/model.json", "initial/weights.bin",
                    "model/model.json", "model/weights.bin",
                    "baseline.json", "config.json"):
            assert (out / rel).is_file(), rel
        assert not (out / ".lock").exists()
        assert (out / "config.json").read_bytes() == cfg.read_bytes()

    def test_baseline_learns(self, run):
        _, out = run
        baseline = json.loads((out / "baseline.json").read_text())
        assert set(baseline) == {"test_accuracy", "train_accuracy"}
        assert baseline["test_accuracy"] >= 0.8
        assert 0.0 <= baseline["train_accuracy"] <= 1.0


class TestPrune:
    def test_run_layout(self, run):
        _, out = run
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for it in (1, 2):
            d = out / "iterations" / f"iter_{it:02d}"
            for name in ("model.json", "weights.bin", "optimizer.json"):
                assert (d / name).is_file(), d / name

    def test_best_selection(self, run):
        _, out = run
        best = json.loads((out / "best.json").read_text())
        assert set(best) == {"baseline_accuracy", "drop_tolerance_pp",
                             "best_iteration"}
        # with a 50pp tolerance every iteration qualifies, so the deepest wins
        assert best["best_iteration"] == 2
        assert (out / "best" / "model.json").is_file()
        assert (out / "best" / "weights.bin").is_file()

    def test_history_contents(self, run):
        _, out = run
        history = read_history(out / "history.jsonl")
        assert [r.iteration for r in history] == [1, 2]
        rem = [r.remaining_fraction for r in history]
        assert 0.0 < rem[1] <= rem[0] < 1.0

    def test_rerun_is_noop(self, run):
        cfg, out = run
        before = {p: p.read_bytes() for p in
                  (out / "history.jsonl", out / "best.json",
                   out / "iterations" / "iter_02" / "weights.bin")}
        assert main(["prune", "--config", str(cfg)]) == 0
        for p, data in before.items():
            assert p.read_bytes() == data, p


class TestReport:
    def test_writes_metrics_and_charts(self, run):
        cfg, out = run
        assert main(["report", "--run", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert sorted(metrics) == ["baseline_accuracy", "best_iteration",
                                   "compression", "final", "flops",
                                   "iterations"]
        assert sorted(metrics["final"]) == [
            "compression_rate", "flops_pruned_pct", "post_retrain_accuracy",
            "remaining_pct"]
        assert sorted(metrics["compression"]) == [
            "compression_rate", "per_layer", "pruned_pct", "remaining_pct",
            "score_stats", "total_params", "unmasked_params"]
        assert sorted(metrics["flops"]) == ["baseline_total", "layers",
                                            "masked_total", "pruned_pct"]
        assert metrics["iterations"] == 2
        assert metrics["best_iteration"] == 2
        assert 0.0 < metrics["final"]["remaining_pct"] < 100.0
        assert metrics["final"]["compression_rate"] > 1.0
        stats = metrics["compression"]["score_stats"]
        for side in ("before", "after"):
            assert stats[side]["count"] > 0
        # dense layers sit at indices 1 and 2 (flatten occupies 0)
        for li in (1, 2):
            head = (out / f"layer{li}_scores.csv").read_text().splitlines()[0]
            assert head.startswith("score_in_0,")
            head = (out / f"layer{li}_magnitudes.csv").read_text().splitlines()[0]
            assert head.startswith("abs_weight_in_0,")
        for name in ("accuracy.svg", "remaining.svg"):
            assert b"<svg" in (out / name).read_bytes()

    def test_scores_each_network_once(self, run, tmp_path, monkeypatch):
        _, out2 = copy_run(run, tmp_path)
        calls = count_forwards_and_scores(monkeypatch)
        assert main(["report", "--run", str(out2)]) == 0
        # the base and the final network: one forward and one scoring of
        # each of their two dense layers; heatmaps reuse the base
        assert calls == {"forward": 2, "score_layer": 4}

    def test_needs_history(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert "run 'prune' first" in capsys.readouterr().err

    def test_two_invocations_byte_identical(self, run):
        _, out = run
        assert main(["report", "--run", str(out)]) == 0
        first = {rel: (out / rel).read_bytes() for rel in
                 ("metrics.json", "accuracy.svg", "remaining.svg",
                  "layer1_scores.csv", "layer2_magnitudes.csv")}
        assert main(["report", "--run", str(out)]) == 0
        for rel, data in first.items():
            assert (out / rel).read_bytes() == data, rel


class TestBounds:
    def test_writes_report(self, run):
        cfg, out = run
        assert main(["bounds", "--config", str(cfg), "--layer", "1",
                     "--alpha", "0.8"]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["layer"] == 1
        assert report["kind"] == "dense"
        assert report["alpha"] == 0.8
        assert report["samples"] == 64
        assert len(report["targets"]) == 8
        for t in report["targets"]:
            tol = 1e-5 * (1.0 + abs(t["post_activation_bound"]))
            assert (t["post_activation_deviation"]
                    <= t["post_activation_bound"] + tol)
            assert (t["pre_activation_deviation"]
                    <= t["pre_activation_bound"] + tol)
        # the tail behind layer 1 is all dense, so the logit bound applies
        net = report["network"]
        assert len(net["logit_bounds"]) == 3
        for m, b in zip(net["measured_mean_abs_change"], net["logit_bounds"]):
            assert m <= b + 1e-5 * (1.0 + abs(b))

    def test_rejects_non_prunable_layer(self, run, capsys):
        cfg, _ = run
        assert main(["bounds", "--config", str(cfg), "--layer", "0"]) == 2
        err = capsys.readouterr().err
        assert "not prunable" in err and "[1, 2]" in err

    def test_rejects_empty_pruning_set(self, run, capsys):
        cfg, _ = run
        assert main(["bounds", "--config", str(cfg), "--layer", "1",
                     "--n", "0"]) == 2
        assert "at least one sample" in capsys.readouterr().err


class TestEvalAndScores:
    def test_eval_prefers_best(self, run, capsys):
        cfg, out = run
        assert main(["eval", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["checkpoint"] == str(out / "best")
        assert 0.0 <= payload["test_accuracy"] <= 1.0
        assert payload["remaining_pct"] < 100.0

    def test_eval_explicit_checkpoint(self, run, capsys):
        cfg, out = run
        assert main(["eval", "--config", str(cfg),
                     "--checkpoint", str(out / "model")]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["checkpoint"] == str(out / "model")
        assert payload["remaining_pct"] == pytest.approx(100.0)

    def test_scores_csvs(self, run):
        cfg, out = run
        assert main(["scores", "--config", str(cfg), "--n", "32"]) == 0
        for li, n_in in ((1, 16), (2, 8)):
            lines = (out / "scores" / f"layer{li}_importance.csv") \
                .read_text().splitlines()
            header = lines[0].split(",")
            assert header[0] == "in_0" and header[-1] == "bias"
            assert len(header) == n_in + 1


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            cfg = write_config(d / "config.json", out=d / "run")
            assert main(["train", "--config", str(cfg)]) == 0
            assert main(["prune", "--config", str(cfg)]) == 0
            outs.append(d / "run")
        a, b = outs
        for rel in ("history.jsonl", "best.json", "model/weights.bin",
                    "model/model.json", "best/weights.bin",
                    "iterations/iter_01/weights.bin",
                    "iterations/iter_02/weights.bin",
                    "iterations/iter_02/model.json",
                    "iterations/iter_02/optimizer.json"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_seed_override_changes_weights(self, tmp_path):
        blobs = {}
        for seed in (None, "12"):
            d = tmp_path / (seed or "base")
            d.mkdir()
            cfg = write_config(d / "config.json", out=d / "run")
            argv = ["train", "--config", str(cfg)]
            if seed:
                argv += ["--seed", seed]
            assert main(argv) == 0
            blobs[seed] = (d / "run" / "model" / "weights.bin").read_bytes()
        assert blobs[None] != blobs["12"]


class TestFailureModes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        data = json.loads(cfg.read_text())
        del data["train"]["epochs"]
        cfg.write_text(json.dumps(data))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "'train.epochs' is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("model,activation,named", [
        ("mlp:16-0-3", "relu", "part '0'"),
        ("cnn:conv0k1,fc3", "relu", "part 'conv0k1'"),
        ("cnn:conv2k0,fc3", "relu", "part 'conv2k0'"),
        ("cnn:conv2k1,fc0,fc3", "relu", "part 'fc0'"),
        ("mlp:16-8-3", "swish", "'activation'"),
        ("lenet300100", "swish", "'activation'"),
        ("cnn:conv2k1,fc3", "swish", "'activation'"),
        ("lenet5", "swish", "'activation'")])
    def test_malformed_model_exit_2(self, tmp_path, capsys, model, activation,
                                    named):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                           model=model, activation=activation)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("where,named", [
        ("config", "'seed'"), ("flag", "--seed"), ("dataset", "'dataset.seed'")])
    def test_negative_seed_exit_2(self, tmp_path, capsys, where, named):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        data = json.loads(cfg.read_text())
        argv = ["train", "--config", str(cfg)]
        if where == "config":
            data["seed"] = -1
        elif where == "flag":
            argv += ["--seed", "-1"]
        else:
            data["dataset"]["seed"] = -5
        cfg.write_text(json.dumps(data))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{named} must be >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "model").exists()

    def test_no_out_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "no output directory" in capsys.readouterr().err

    def test_prune_before_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        assert main(["prune", "--config", str(cfg)]) == 2
        assert "run 'train' first" in capsys.readouterr().err

    def test_locked_run_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("1234")
        cfg = write_config(tmp_path / "c.json", out=out)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "locked by another process" in capsys.readouterr().err
        # the stale lock stays put for the operator to inspect
        assert (out / ".lock").is_file()

    @pytest.mark.parametrize("holder,verdict", [
        ("reaped", "which is not running; the lock is stale"),
        ("self", "which is running"),
        ("", "is unreadable or holds no PID"),
        ("not a pid", "is unreadable or holds no PID"),
        ("0", "is unreadable or holds no PID"),
        ("-1", "is unreadable or holds no PID")])
    def test_lock_error_names_the_holder(self, tmp_path, capsys, holder,
                                         verdict):
        if holder == "reaped":
            child = subprocess.Popen([sys.executable, "-c", "pass"])
            child.wait()
            holder = str(child.pid)
        elif holder == "self":
            holder = str(os.getpid())
        out = tmp_path / "run"
        out.mkdir()
        lock = out / ".lock"
        lock.write_text(holder)
        cfg = write_config(tmp_path / "c.json", out=out)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"is locked by another process: {lock}" in err
        assert verdict in err
        if verdict.startswith("which"):
            assert f"names PID {holder}, {verdict}" in err
        assert "Traceback" not in err
        assert lock.read_text() == holder

    def test_corrupt_weights_exit_3(self, run, tmp_path, capsys):
        cfg2, out2 = copy_run(run, tmp_path)
        blob = out2 / "best" / "weights.bin"
        blob.write_bytes(blob.read_bytes()[:7])
        assert main(["eval", "--config", str(cfg2)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,ckpt", [
        ("eval", "best"), ("bounds", "model"), ("prune", "initial")])
    def test_non_finite_weight_exit_3(self, run, tmp_path, capsys, command,
                                      ckpt):
        # a CRC-valid checkpoint whose weight is NaN; prune loads initial/
        # to reinitialize from it
        cfg2, out2 = copy_run(run, tmp_path)
        set_f32(out2 / ckpt, "layers.1.weights", 0, np.nan)
        argv = [command, "--config", str(cfg2)]
        if command == "bounds":
            argv += ["--layer", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "tensor layers.1.weights: holds non-finite values" in err
        assert "Traceback" not in err

    def test_mask_byte_beyond_one_exit_3(self, run, tmp_path, capsys):
        cfg2, out2 = copy_run(run, tmp_path)
        set_u8(out2 / "best", "layers.1.weight_mask", 0, 2)
        assert main(["eval", "--config", str(cfg2)]) == 3
        err = capsys.readouterr().err
        assert "weight_mask must contain only 0/1 entries" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["1.5", "0", "-0.2", "nan"])
    def test_bounds_alpha_out_of_range_exit_2(self, run, tmp_path, capsys,
                                              alpha):
        cfg2, _ = copy_run(run, tmp_path)
        argv = ["bounds", "--config", str(cfg2), "--layer", "1",
                "--alpha", alpha]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--alpha must lie in (0, 1]" in err and "Traceback" not in err

    def test_corrupt_baseline_exit_3(self, run, tmp_path, capsys):
        cfg2, out2 = copy_run(run, tmp_path)
        (out2 / "baseline.json").write_text("{oops")
        assert main(["prune", "--config", str(cfg2)]) == 3
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{oops", "[0.9]", '{"train_accuracy": 0.9}'])
    def test_corrupt_baseline_report_exit_3(self, run, tmp_path, capsys, text):
        _, out2 = copy_run(run, tmp_path)
        (out2 / "baseline.json").write_text(text)
        assert main(["report", "--run", str(out2)]) == 3
        err = capsys.readouterr().err
        assert "cannot parse" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "null"])
    def test_non_object_history_line_exit_3(self, run, tmp_path, capsys,
                                            line):
        _, out2 = copy_run(run, tmp_path)
        history = out2 / "history.jsonl"
        first = history.read_text().splitlines()[0]
        history.write_text(f"{first}\n{line}\n")
        assert main(["report", "--run", str(out2)]) == 3
        err = capsys.readouterr().err
        assert f"{history}:2: malformed history line" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "prune"])
    @pytest.mark.parametrize("key,value", [
        ("post_retrain_accuracy", "high"), ("iteration", "2")])
    def test_wrongly_typed_history_field_exit_3(self, run, tmp_path, capsys,
                                                command, key, value):
        # prune resumes from the history, so it reads it before any work
        cfg2, out2 = copy_run(run, tmp_path)
        history = out2 / "history.jsonl"
        first, second = history.read_text().splitlines()
        record = json.loads(second)
        record[key] = value
        history.write_text(f"{first}\n{json.dumps(record)}\n")
        argv = (["report", "--run", str(out2)] if command == "report"
                else ["prune", "--config", str(cfg2)])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{history}:2: malformed history line: {key} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "prune"])
    def test_non_utf8_history_exit_3(self, run, tmp_path, capsys, command):
        cfg2, out2 = copy_run(run, tmp_path)
        history = out2 / "history.jsonl"
        first = history.read_bytes().splitlines()[0]
        history.write_bytes(first + b"\n\xff\xfe\n")
        argv = (["report", "--run", str(out2)] if command == "report"
                else ["prune", "--config", str(cfg2)])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{history}:2: malformed history line: 'utf-8' codec" in err
        assert "Traceback" not in err

    def test_resumed_checkpoint_unlike_history_exit_3(self, run, tmp_path,
                                                       capsys):
        # the last checkpoint masks one weight more than its history line
        # records; resuming to a third iteration reads both
        _, out2 = copy_run(run, tmp_path)
        ckpt = out2 / "iterations" / "iter_02"
        net = load_model(ckpt)
        j, i = np.argwhere(net.layers[1].weight_mask != 0)[0]
        mask_pairs(net.layers[1], j, [i])
        save_model(net, ckpt)
        cfg3 = write_config(tmp_path / "config3.json", out=out2, prune={
            "alpha_fc": 0.9, "n_pruning_samples": 64, "iterations": 3,
            "drop_tolerance": 50.0})
        assert main(["prune", "--config", str(cfg3)]) == 3
        err = capsys.readouterr().err
        assert f"does not match the last line of {out2 / 'history.jsonl'} " \
            f"at layer 1" in err
        assert "Traceback" not in err
        assert not (out2 / "iterations" / "iter_03").exists()

    @pytest.mark.parametrize("key", ["tensors", "layers"])
    def test_wrong_json_types_in_model_json_exit_3(self, run, tmp_path, capsys,
                                                   key):
        # the tensor blobs and their CRCs stay valid; only the manifest's
        # JSON types are wrong
        cfg2, out2 = copy_run(run, tmp_path)
        mpath = out2 / "model" / "model.json"
        manifest = json.loads(mpath.read_text())
        if key == "tensors":
            manifest["tensors"] = {"a": 1}
        else:
            manifest["layers"][0] = 7
        mpath.write_text(json.dumps(manifest))
        assert main(["eval", "--config", str(cfg2),
                     "--checkpoint", str(out2 / "model")]) == 3
        err = capsys.readouterr().err
        assert f"'{key}' must be a list of JSON objects" in err
        assert "Traceback" not in err

    def test_corrupt_model_json_exit_3(self, run, tmp_path, capsys):
        cfg2, out2 = copy_run(run, tmp_path)
        (out2 / "model" / "model.json").write_text("{oops")
        assert main(["scores", "--config", str(cfg2)]) == 3
        assert "error:" in capsys.readouterr().err

    # one edit each to the manifest of a CRC-valid conv checkpoint for the
    # run's (1, 1, 16) samples; no layer stack can take the result. JSON
    # reads both 1e400 and Infinity as an infinite float, which no size is
    @pytest.mark.parametrize("layer,key,value", [
        (0, "stride", [0, 0]),
        (0, "padding", [-1, -1]),
        (1, "window", [0, 0]),
        (1, "window", [5, 5]),  # larger than the 1x16 map
        (None, "input_shape", [1, 1, 12]),  # the dense layer reads 16
        (0, "out", float("inf")),
        (0, "stride", [float("inf"), 1]),
        (1, "window", [float("inf"), 1]),
        (None, "input_shape", [1, 1, float("inf")]),
        (None, "classes", float("inf")),
    ])
    def test_inconsistent_checkpoint_exit_3(self, run, tmp_path, capsys,
                                            layer, key, value):
        cfg, _ = run
        rng = np.random.default_rng(0)
        ckpt = tmp_path / "conv"
        save_model(Network([random_conv(rng, 1, 2, 1), MaxPool2D((1, 2)),
                            Flatten(), random_dense(rng, 16, 3, "identity")],
                           (1, 1, 16), 3), ckpt)
        argv = ["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        mpath = ckpt / "model.json"
        manifest = json.loads(mpath.read_text())
        (manifest if layer is None else manifest["layers"][layer])[key] = value
        mpath.write_text(json.dumps(manifest))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"invalid checkpoint {ckpt}" in err
        assert "Traceback" not in err

    # checkpoints whose tensors agree with a layer size of 0: a dense
    # hidden layer of no units, a conv of 0 x 0 kernels that would turn
    # the 1 x 16 map into 2 x 17 maps
    @pytest.mark.parametrize("layers,field", [
        ([Flatten(), DenseLayer(np.zeros((0, 16)), np.zeros(0)),
          DenseLayer(np.zeros((3, 0)), np.zeros(3), "identity")], "out"),
        ([ConvLayer(np.zeros((2, 1, 0, 0)), np.zeros(2)), Flatten(),
          DenseLayer(np.zeros((3, 68)), np.zeros(3), "identity")], "kernel"),
    ], ids=["dense_out", "conv_kernel"])
    def test_zero_size_layer_exit_3(self, run, tmp_path, capsys, layers,
                                    field):
        cfg, _ = run
        ckpt = tmp_path / "zero"
        save_model(Network(layers, (1, 1, 16), 3), ckpt)
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(ckpt)]) == 3
        err = capsys.readouterr().err
        layer = 1 if field == "out" else 0
        assert f"layer {layer}: '{field}' is 0; sizes must be >= 1" in err
        assert "Traceback" not in err

    def test_pool_window_below_one_named(self, run, tmp_path, capsys):
        # a model string's pool part and a checkpoint's pool record both
        # name the window, not a stride
        want = "window components must be >= 1, got (0, 0)"
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                           model="cnn:pool0,fc3")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "part 'pool0'" in err and want in err
        assert "Traceback" not in err
        ckpt = tmp_path / "pool"
        save_model(Network([MaxPool2D((1, 2)), Flatten(),
                            random_dense(np.random.default_rng(0), 8, 3,
                                         "identity")], (1, 1, 16), 3), ckpt)
        mpath = ckpt / "model.json"
        manifest = json.loads(mpath.read_text())
        manifest["layers"][0]["window"] = [0, 0]
        mpath.write_text(json.dumps(manifest))
        assert main(["eval", "--config", str(run[0]), "--checkpoint",
                     str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert f"layer 0: {want}" in err and "Traceback" not in err

    def test_checkpoint_for_other_inputs_exit_2(self, run, tmp_path, capsys):
        # a consistent checkpoint that does not fit the dataset is a usage
        # mismatch, not a malformed file
        cfg, _ = run
        ckpt = tmp_path / "mlp12"
        save_model(small_mlp(np.random.default_rng(0), (12, 3)), ckpt)
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "network expects (12,)" in err
        assert "Traceback" not in err

    def test_best_classes_unlike_its_logits_exit_3(self, run, tmp_path,
                                                    capsys):
        cfg2, out2 = copy_run(run, tmp_path)
        mpath = out2 / "best" / "model.json"
        manifest = json.loads(mpath.read_text())
        manifest["classes"] = 2  # over the run's 3-logit last layer
        mpath.write_text(json.dumps(manifest))
        assert main(["eval", "--config", str(cfg2)]) == 3
        err = capsys.readouterr().err
        assert "declares 2 classes" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["prune", "bounds", "eval", "scores"])
    def test_fewer_logits_than_classes_exit_2(self, tmp_path, capsys,
                                              command):
        # the quickstart's samples are (1, 1, 48), in 3 classes
        rng = np.random.default_rng(0)
        ckpt = tmp_path / "two_logits"
        save_model(Network([Flatten(), random_dense(rng, 48, 8),
                            random_dense(rng, 8, 2, "identity")],
                           (1, 1, 48), 2), ckpt)
        argv = [command, "--config", str(QUICKSTART),
                "--out", str(tmp_path / "run"), "--checkpoint", str(ckpt)]
        if command == "bounds":
            argv += ["--layer", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"the model at {ckpt} emits 2 logits but the dataset has 3 " \
               f"classes" in err
        assert "Traceback" not in err

    def test_missing_dataset_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                           dataset={"kind": "idx"})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "'dataset.train_images' is missing" in capsys.readouterr().err

    def test_label_beyond_classes_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        paths = {}
        for split, n in (("train", 40), ("test", 20)):
            images = tmp_path / f"{split}-images"
            labels = tmp_path / f"{split}-labels"
            images.write_bytes(idx_images_bytes(
                rng.integers(0, 256, size=(n, 4, 4))))
            labels.write_bytes(idx_labels_bytes(np.arange(n) % 10))
            paths[f"{split}_images"] = str(images)
            paths[f"{split}_labels"] = str(labels)
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                           model="mlp:16-8-5",
                           dataset={"kind": "idx", "classes": 5, **paths})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "label 9" in err and "Traceback" not in err

    @pytest.mark.parametrize("section,field", [
        ("train", "lr"), ("train", "weight_decay"), ("dataset", "spread"),
        ("prune", "alpha_fc")])
    # an int of 401 digits is finite, but no float can hold it
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), pytest.param(10 ** 400, id="1e400")])
    def test_non_finite_float_exit_2(self, tmp_path, capsys, section, field,
                                     value):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        data = json.loads(cfg.read_text())
        data[section][field] = value
        cfg.write_text(json.dumps(data))  # writes NaN / Infinity literals
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{section}.{field}' must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # each of these used to train: Adam to a NaN loss (exit 4), SGD with a
    # negative momentum to exit 0
    @pytest.mark.parametrize("optimizer,field,value,rule", [
        ("adam", "beta1", 1.0, "in [0, 1)"),
        ("adam", "beta2", 1.0, "in [0, 1)"),
        ("adam", "eps", 0.0, "> 0"),
        ("sgd", "momentum", -5.0, "in [0, 1)")],
        ids=["beta1", "beta2", "eps", "momentum"])
    def test_optimizer_setting_out_of_range_exit_2(self, tmp_path, capsys,
                                                   optimizer, field, value,
                                                   rule):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        data = json.loads(cfg.read_text())
        data["train"].update(optimizer=optimizer, **{field: value})
        cfg.write_text(json.dumps(data))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"section 'train': {field} must be {rule}, got {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # no array holds 10**400 values; 2**61 samples of 16 values overflow
    # the byte count although each number fits an int64
    @pytest.mark.parametrize("field,value", [
        ("n_train", 10 ** 400), ("n_test", 10 ** 400), ("dim", 10 ** 400),
        ("n_train", 2 ** 61)], ids=["n_train", "n_test", "dim", "n_train*dim"])
    def test_synthetic_size_beyond_any_array_exit_2(self, tmp_path, capsys,
                                                    field, value):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        data = json.loads(cfg.read_text())
        data["dataset"][field] = value
        cfg.write_text(json.dumps(data))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'dataset.{field}' is too large" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_idx_split_exit_2(self, tmp_path, capsys, empty):
        rng = np.random.default_rng(0)
        paths = {}
        for split in ("train", "test"):
            n = 0 if split == empty else 12
            images = tmp_path / f"{split}-images"
            labels = tmp_path / f"{split}-labels"
            images.write_bytes(idx_images_bytes(
                rng.integers(0, 256, size=(n, 4, 4))))
            labels.write_bytes(idx_labels_bytes(np.arange(n) % 3))
            paths[f"{split}_images"] = str(images)
            paths[f"{split}_labels"] = str(labels)
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                           dataset={"kind": "idx", **paths})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"the {empty} split" in err and "no samples" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_images_without_pixels_exit_2(self, tmp_path, capsys):
        # 20 samples of 0 x 0 pixels flatten to 0 values, the fc part's
        # fan-in
        paths = {}
        for split in ("train", "test"):
            images = tmp_path / f"{split}-images"
            labels = tmp_path / f"{split}-labels"
            images.write_bytes(idx_images_bytes(np.zeros((20, 0, 0))))
            labels.write_bytes(idx_labels_bytes(np.arange(20) % 3))
            paths[f"{split}_images"] = str(images)
            paths[f"{split}_labels"] = str(labels)
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                           model="cnn:fc3", dataset={"kind": "idx", **paths})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "part 'fc3'" in err
        assert "'in' is 0; sizes must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["prune", "bounds", "eval", "scores"])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_missing_checkpoint_exit_2(self, tmp_path, capsys, command,
                                       explicit):
        cfg = write_config(tmp_path / "c.json", out=tmp_path / "run")
        argv = [command, "--config", str(cfg)]
        if command == "bounds":
            argv += ["--layer", "1"]
        ckpt = tmp_path / "run" / "model"
        if explicit:
            ckpt = tmp_path / "elsewhere"
            argv += ["--checkpoint", str(ckpt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"no model at {ckpt}; run 'train' first" in err
        assert "Traceback" not in err

    def test_divergence_exit_4(self, tmp_path, capsys):
        # identity hidden units compound the oversized step multiplicatively,
        # overflowing float32 inside the first epoch
        cfg = write_config(
            tmp_path / "c.json", out=tmp_path / "run",
            activation="identity",
            train={"optimizer": "sgd", "epochs": 2, "batch_size": 32,
                   "lr": 1e30})
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["train", "--config", str(cfg)])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "run" / ".lock").exists()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def child_env(drop=()):
    """This process's environment, without the variables in ``drop``, for
    a child Python that imports the package from ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def cli_child(*args, unbuffered=False, **kwargs):
    """``python -m prune_relief.cli ARGS`` in its own process. Its stdout is
    block-buffered, as under a shell, unless ``unbuffered``."""
    env = child_env(drop=("PYTHONUNBUFFERED",))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "prune_relief.cli", *args],
                          env=env, **kwargs)


class TestProcessExit:
    """A command run as a program ends with its streams flushed and the
    exit code ``main`` returned; every other way out of the process is the
    interpreter's own."""

    def test_eval_into_a_file(self, run, tmp_path, capsys):
        cfg, _ = run
        assert main(["eval", "--config", str(cfg)]) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "eval.json"
        with open(out, "wb") as fh:
            child = cli_child("eval", "--config", str(cfg), stdout=fh,
                              stderr=subprocess.PIPE)
        assert child.returncode == 0, child.stderr
        text = out.read_text()
        assert text == expected and text.count("\n") == 1
        assert set(json.loads(text)) >= {"test_accuracy", "remaining_pct"}

    def test_console_script_entry(self, run):
        # the console script calls its entry point as ``sys.exit(fn())``
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"prune-relief": "prune_relief.cli:run_and_exit"}
        cfg, _ = run
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from prune_relief.cli import "
             "run_and_exit; sys.exit(run_and_exit())", "eval", "--config",
             str(cfg)],
            env=child_env(drop=("PYTHONUNBUFFERED",)), capture_output=True,
            text=True)
        assert child.returncode == 0, child.stderr
        assert "test_accuracy" in json.loads(child.stdout)

    def test_error_codes(self, run, tmp_path):
        child = cli_child("train", "--config", str(tmp_path / "nope.json"),
                          capture_output=True, text=True)
        assert child.returncode == 2
        assert child.stderr.startswith("error:") and child.stdout == ""
        cfg2, out2 = copy_run(run, tmp_path)
        blob = out2 / "best" / "weights.bin"
        blob.write_bytes(blob.read_bytes()[:7])
        child = cli_child("eval", "--config", str(cfg2),
                          capture_output=True, text=True)
        assert child.returncode == 3 and "error:" in child.stderr

    def test_usage_error_and_help(self, monkeypatch):
        child = cli_child("frobnicate", capture_output=True, text=True)
        assert child.returncode == 2 and "usage:" in child.stderr
        monkeypatch.setenv("COLUMNS", "80")  # here and in the child
        child = cli_child("--help", capture_output=True, text=True)
        assert child.returncode == 0
        assert child.stdout == build_parser().format_help()

    @pytest.mark.parametrize("unbuffered,code,shape", [
        (False, 120, "Exception ignored in: <_io.TextIOWrapper"),
        (True, 1, "Traceback (most recent call last):")])
    def test_eval_into_a_closed_pipe(self, run, unbuffered, code, shape):
        # buffered, the JSON line is still in the buffer when eval returns
        # and only the interpreter's own exit reports the failed flush;
        # unbuffered, print itself raises inside the command
        cfg, _ = run
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = cli_child("eval", "--config", str(cfg),
                              unbuffered=unbuffered, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert child.returncode == code
        assert child.stderr.startswith(shape), child.stderr
        assert child.stderr.count("BrokenPipeError") == 1

    def test_eval_with_stdout_closed(self, run):
        # no sys.stdout at all: print writes nothing and nothing is flushed
        cfg, _ = run
        child = subprocess.run(
            ["sh", "-c", 'exec "$0" -m prune_relief.cli eval --config "$1" '
             ">&-", sys.executable, str(cfg)],
            env=child_env(drop=("PYTHONUNBUFFERED",)), stderr=subprocess.PIPE,
            text=True)
        assert (child.returncode, child.stderr) == (0, "")

    def test_train_and_prune_write_in_process_bytes(self, run, tmp_path):
        _, out = run
        cfg2 = write_config(tmp_path / "config.json", out=tmp_path / "run")
        for command in ("train", "prune"):
            child = cli_child(command, "--config", str(cfg2),
                              capture_output=True)
            assert child.returncode == 0, child.stderr
        rels = ["history.jsonl"] + sorted(
            str(p.relative_to(out)) for p in out.rglob("weights.bin"))
        assert "iterations/iter_02/weights.bin" in rels
        for rel in rels:
            assert (tmp_path / "run" / rel).read_bytes() == \
                (out / rel).read_bytes(), rel


@pytest.mark.parametrize("value,expected", [(None, "1"), ("3", "3")])
def test_import_pins_one_blas_thread(value, expected):
    """Importing the package sets OPENBLAS_NUM_THREADS to 1 when it is
    unset, and leaves a value already set alone."""
    env = child_env(drop=("OPENBLAS_NUM_THREADS",))
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    child = subprocess.run(
        [sys.executable, "-c", "import os, prune_relief; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout == f"{expected}\n"


@pytest.mark.skipif(not has_mallopt(), reason="no mallopt in this libc")
def test_freed_memory_stays_in_process(run):
    """Once the CLI has run, freeing a training step's worth of multi-MB
    arrays keeps their pages: the next round maps nothing new. glibc's
    default policy returns them, and every round faults them in again."""
    import resource

    def round_faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.full(1 << 19, 1.0) for _ in range(6)]  # 6 x 4 MB
        del arrays
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults = [round_faults() for _ in range(5)]
    assert max(faults[1:]) < 50, faults
