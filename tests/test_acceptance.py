"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Every test ends with a single live PASS/FAIL line (written past pytest's
capture) so a full run prints the per-criterion verdicts in order. Criteria
9 to 11 exercise real MNIST data: set MNIST_DIR to a directory holding the
four IDX files (gzipped or plain) to enable them. Criterion 9 retrains for
hours on CPU and additionally wants RUN_SLOW=1. Criteria 10 and 11 also have
synthetic stand-ins that always run, calibrated on the bundled generator.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from prune_relief import (LrSpan, Network, OptimizerConfig, conv_importance,
                          fc_importance, flops_conv, flops_dense,
                          forward_backward, measure_deviation,
                          network_output_bound, sample_last, select_kept,
                          train)
from prune_relief.cli import main
from prune_relief.pipeline import read_history

from conftest import (numeric_gradients, prune_one_layer, random_conv,
                      random_dense, small_cnn, small_mlp)
from test_datasets import idx_images_bytes, idx_labels_bytes

ALL_ACTIVATIONS = ("relu", "elu", "sigmoid", "tanh", "identity")


def verdict(capsys, n, ok, detail):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {n}] {tag}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# --------------------------------------------------------------------------
# 1. score normalization


def test_01_score_rows_sum_to_one(capsys):
    """1000 random layers: every live target's scores sum to 1 within 1e-5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    live_checked = dead_checked = 0
    worst = 0.0
    for case in range(1000):
        if case % 2 == 0:
            n_in = int(rng.integers(1, 33))
            n_out = int(rng.integers(1, 17))
            layer = random_dense(rng, n_in, n_out,
                                 scale=float(rng.uniform(0.1, 3.0)))
            # sparsify: exact zeros must not disturb normalization
            layer.weights[rng.random(layer.weights.shape) < 0.3] = 0.0
            if rng.random() < 0.2:
                layer.weights[0] = 0.0
                layer.bias[0] = 0.0
            x = rng.standard_normal((int(rng.integers(1, 9)), n_in))
            if rng.random() < 0.2:
                x[:, : max(1, n_in // 3)] = 0.0
            scores = fc_importance(layer, x.astype(np.float32))
        else:
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.choice([1, 2, 3]))
            stride = (2, 2) if rng.random() < 0.3 else (1, 1)
            padding = (1, 1) if rng.random() < 0.3 else (0, 0)
            layer = random_conv(rng, c_in, c_out, k, stride=stride,
                                padding=padding,
                                scale=float(rng.uniform(0.1, 3.0)))
            if rng.random() < 0.2:
                layer.kernels[0] = 0.0
                layer.bias[0] = 0.0
            h = int(rng.integers(k, k + 7))
            w = int(rng.integers(k, k + 7))
            x = rng.standard_normal((int(rng.integers(1, 5)), c_in, h, w))
            scores = conv_importance(layer, sample_last(x.astype(np.float32)))
        sums = scores.scores.sum(axis=1)
        dead = scores.totals == 0
        if (~dead).any():
            worst = max(worst, float(np.abs(sums[~dead] - 1.0).max()))
        assert np.all(sums[dead] == 0.0)
        live_checked += int((~dead).sum())
        dead_checked += int(dead.sum())
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    verdict(capsys, 1, ok,
            f"1000 layers, {live_checked} live targets within {worst:.2e} "
            f"of 1 (tol 1e-5), {dead_checked} dead targets all-zero, "
            f"{dt:.2f}s (limit 10s)")


# --------------------------------------------------------------------------
# 2. threshold minimality against an exhaustive oracle


def _oracle_select(s, alpha):
    """Minimal descending prefix reaching alpha, ties at the threshold kept.

    Accumulates the prefix mass left to right in plain Python floats, so it
    shares no code with the library's vectorized selection.
    """
    s = np.asarray(s, dtype=np.float64)
    order = sorted(range(s.size), key=lambda i: (-s[i], i))
    prefix = 0.0
    cums = []
    for i in order:
        prefix += float(s[i])
        cums.append(prefix)
    total = prefix
    if total <= 0.0:
        return [], list(range(s.size))
    target = min(alpha, total)
    p = next(i + 1 for i, c in enumerate(cums) if c >= target)
    threshold = float(s[order[p - 1]])
    kept = [i for i in range(s.size) if s[i] >= threshold]
    pruned = [i for i in range(s.size) if s[i] < threshold]
    return kept, pruned


def test_02_select_kept_matches_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    alphas = (0.5, 0.7, 0.9, 0.95, 0.99, 1.0)
    cases = 0
    for n in range(1, 13):
        vectors = [rng.random(n) for _ in range(20)]
        # eighth-quantized vectors produce exact ties and exact zeros
        vectors += [rng.integers(0, 5, n) / 8.0 for _ in range(20)]
        vectors += [np.zeros(n), np.full(n, 0.25), 2.0 ** -np.arange(n)]
        one_hot = np.zeros(n)
        one_hot[int(rng.integers(0, n))] = 1.0
        vectors.append(one_hot)
        for s in vectors:
            for alpha in alphas:
                got = select_kept(s, alpha)
                kept, pruned = _oracle_select(s, alpha)
                assert np.flatnonzero(got.keep).tolist() == kept, (s, alpha)
                assert np.flatnonzero(~got.keep).tolist() == pruned, (s, alpha)
                cases += 1
    dt = time.perf_counter() - t0
    ok = dt < 5.0
    verdict(capsys, 2, ok,
            f"{cases} (vector, alpha) cases match the exhaustive "
            f"minimal-prefix oracle exactly, {dt:.2f}s (limit 5s)")


# --------------------------------------------------------------------------
# 3 and 4. single-layer deviation bounds


def _bound_margins(net, layer_index, alpha, batch):
    pruned, scores, selection = prune_one_layer(net, layer_index, alpha,
                                                batch)
    delta, big_delta = measure_deviation(net.layers[layer_index],
                                         pruned.layers[layer_index],
                                         net.first_layer_input(batch))
    s = scores.totals
    kappa = selection.achieved_mass
    c = net.layers[layer_index].act.lipschitz
    pre_gap = s * np.maximum(1.0 - kappa, 0.0) + 1e-5 - delta
    post_gap = c * delta + 1e-5 - big_delta
    return float(pre_gap.min()), float(post_gap.min())


def test_03_fc_deviation_bounds(capsys):
    """500 random (dense layer, data, alpha) triples, zero violations."""
    rng = np.random.default_rng(1003)
    alphas = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)
    worst_pre = worst_post = np.inf
    for t in range(500):
        act = ALL_ACTIVATIONS[t % len(ALL_ACTIVATIONS)]
        n_in = int(rng.integers(1, 25))
        n_out = int(rng.integers(1, 13))
        layer = random_dense(rng, n_in, n_out, act,
                             scale=float(rng.uniform(0.2, 5.0)))
        if rng.random() < 0.15:
            layer.weights[0] = 0.0
            layer.bias[0] = 0.0
        net = Network([layer], (n_in,), n_out)
        x = (rng.standard_normal((int(rng.integers(1, 17)), n_in))
             * rng.uniform(0.2, 4.0)).astype(np.float32)
        if rng.random() < 0.15:
            x[:, : max(1, n_in // 4)] = 0.0
        alpha = float(alphas[t % len(alphas)])
        pre, post = _bound_margins(net, 0, alpha, x)
        worst_pre = min(worst_pre, pre)
        worst_post = min(worst_post, post)
    ok = worst_pre >= 0.0 and worst_post >= 0.0
    verdict(capsys, 3, ok,
            f"500 dense triples over {len(ALL_ACTIVATIONS)} activations, "
            f"zero violations (slimmest margins: pre {worst_pre:.3e}, "
            f"post {worst_post:.3e}, tol 1e-5)")


def test_04_conv_deviation_bounds(capsys):
    """Same protocol on conv layers: channels <= 8, maps <= 16x16."""
    rng = np.random.default_rng(1004)
    alphas = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)
    worst_pre = worst_post = np.inf
    for t in range(500):
        act = ALL_ACTIVATIONS[t % len(ALL_ACTIVATIONS)]
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3, 5]))
        stride = (2, 2) if rng.random() < 0.25 else (1, 1)
        padding = (1, 1) if rng.random() < 0.25 else (0, 0)
        layer = random_conv(rng, c_in, c_out, k, act, stride, padding,
                            scale=float(rng.uniform(0.2, 3.0)))
        if rng.random() < 0.15:
            layer.kernels[0] = 0.0
            layer.bias[0] = 0.0
        h = int(rng.integers(k, 17))
        w = int(rng.integers(k, 17))
        net = Network([layer], (c_in, h, w), c_out)
        x = (rng.standard_normal((int(rng.integers(1, 7)), c_in, h, w))
             * rng.uniform(0.2, 3.0)).astype(np.float32)
        alpha = float(alphas[t % len(alphas)])
        pre, post = _bound_margins(net, 0, alpha, x)
        worst_pre = min(worst_pre, pre)
        worst_post = min(worst_post, post)
    ok = worst_pre >= 0.0 and worst_post >= 0.0
    verdict(capsys, 4, ok,
            f"500 conv triples over {len(ALL_ACTIVATIONS)} activations, "
            f"zero violations (slimmest margins: pre {worst_pre:.3e}, "
            f"post {worst_post:.3e}, tol 1e-5)")


# --------------------------------------------------------------------------
# 5. propagated network-output bound


def test_05_network_output_bound(capsys):
    """Random 3-layer relu nets, each layer pruned at alpha in {0.8, 0.95}.

    Networks are built in float64 so the only slack against the exact
    inequality is accumulation noise, allowed at 1e-12.
    """
    rng = np.random.default_rng(1005)
    checks = 0
    worst_gap = np.inf
    dominated = 0
    for _ in range(25):
        dims = (int(rng.integers(4, 13)), int(rng.integers(3, 10)),
                int(rng.integers(3, 8)), int(rng.integers(2, 6)))
        net = small_mlp(rng, dims, "relu", np.float64)
        batch = rng.standard_normal((int(rng.integers(2, 9)), dims[0]))
        logits_before = net.forward(batch)
        for layer_index in net.prunable_indices():
            for alpha in (0.8, 0.95):
                pruned, scores, _ = prune_one_layer(net, layer_index, alpha,
                                                    batch)
                bound = network_output_bound(net, layer_index, alpha,
                                             scores.totals)
                measured = np.abs(logits_before
                                  - pruned.forward(batch)).mean(axis=0)
                gap = bound + 1e-12 - measured
                worst_gap = min(worst_gap, float(gap.min()))
                dominated += int(np.all(measured <= bound))
                checks += 1
    ok = worst_gap >= 0.0 and dominated == checks
    verdict(capsys, 5, ok,
            f"{checks} (net, layer, alpha) cases: measured mean |logit "
            f"change| never exceeds the bound (slimmest margin "
            f"{worst_gap:.3e}); bound dominates in {dominated}/{checks}")


# --------------------------------------------------------------------------
# 6. gradient check


def test_06_gradient_check(capsys):
    """Analytic vs central-difference gradients on 100 random small nets."""
    rng = np.random.default_rng(1006)
    worst = 0.0
    params_checked = 0
    for case in range(100):
        act = ALL_ACTIVATIONS[case % len(ALL_ACTIVATIONS)]
        if case % 5 < 3:
            dims = (int(rng.integers(3, 7)), int(rng.integers(2, 6)),
                    int(rng.integers(2, 5)))
            net = small_mlp(rng, dims, act, np.float64)
            x = rng.standard_normal((3, dims[0]))
        else:
            net = small_cnn(rng, act, np.float64, in_shape=(2, 5, 5),
                            c_mid=2, k=3, classes=3,
                            pool=bool(case % 2),
                            stride=(2, 2) if case % 10 >= 8 else (1, 1),
                            padding=(1, 1) if case % 10 >= 8 else (0, 0))
            x = rng.standard_normal((2, 2, 5, 5))
        labels = rng.integers(0, net.classes, x.shape[0])
        _, grads, _ = forward_backward(net, x, labels)
        numeric = numeric_gradients(net, x, labels)
        for g, n in zip(grads, numeric):
            for name in n:
                rel = np.abs(g[name] - n[name]) / (1.0 + np.abs(n[name]))
                worst = max(worst, float(rel.max()))
                params_checked += n[name].size
    ok = worst <= 1e-3
    verdict(capsys, 6, ok,
            f"100 nets (dense, conv, pool, flatten; all activations), "
            f"{params_checked} parameters, worst relative error "
            f"{worst:.2e} (tol 1e-3)")


# --------------------------------------------------------------------------
# 7. FLOPs formulas


def test_07_flops_formulas(capsys):
    assert flops_dense(3, 2) == 10
    assert flops_conv(4, 4, 1, 3, 2) == 640
    rng = np.random.default_rng(1007)
    for _ in range(50):
        i = int(rng.integers(1, 2000))
        o = int(rng.integers(1, 500))
        assert flops_dense(i, o) == (2 * i - 1) * o
        h = int(rng.integers(1, 64))
        w = int(rng.integers(1, 64))
        c_in = int(rng.integers(1, 32))
        k = int(rng.integers(1, 8))
        c_out = int(rng.integers(1, 64))
        assert flops_conv(h, w, c_in, k, c_out) == \
            2 * h * w * (c_in * k * k + 1) * c_out
    verdict(capsys, 7, True,
            "flops_dense(3,2)=10, flops_conv(4,4,1,3,2)=640, and 50 "
            "randomized cases match the closed forms exactly")


# --------------------------------------------------------------------------
# 8. mask persistence under both optimizers


def _half_mask(rng, net):
    """Zero a random half of every prunable layer's parameters via masks."""
    masked = 0
    for li in net.prunable_indices():
        layer = net.layers[li]
        if layer.kind == "dense":
            m = (rng.random(layer.weight_mask.shape) < 0.5)
            layer.weight_mask[:] = m.astype(layer.weight_mask.dtype)
            layer.weights *= layer.weight_mask
        else:
            m = (rng.random(layer.kernel_mask.shape) < 0.5)
            layer.kernel_mask[:] = m.astype(layer.kernel_mask.dtype)
            layer.kernels *= layer.kernel_mask[:, :, None, None]
        bm = (rng.random(layer.bias_mask.shape) < 0.5)
        layer.bias_mask[:] = bm.astype(layer.bias_mask.dtype)
        layer.bias *= layer.bias_mask
        masked += int((layer.bias_mask == 0).sum())
        masked += int((m == 0).sum())
    return masked


def _masked_entries_nonzero(net):
    bad = 0
    for li in net.prunable_indices():
        layer = net.layers[li]
        if layer.kind == "dense":
            bad += int(np.count_nonzero(
                layer.weights[layer.weight_mask == 0]))
        else:
            bad += int(np.count_nonzero(
                layer.kernels[layer.kernel_mask == 0]))
        bad += int(np.count_nonzero(layer.bias[layer.bias_mask == 0]))
    return bad


def test_08_masks_survive_training(capsys):
    """1000 optimizer steps never move a masked parameter off exact zero."""
    details = []
    for kind in ("sgd", "adam"):
        rng = np.random.default_rng(1008)
        net = small_cnn(rng, "relu", in_shape=(3, 8, 8), c_mid=4, classes=3)
        masked = _half_mask(rng, net)
        assert masked > 0
        x = rng.standard_normal((64, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 64)
        cfg = OptimizerConfig(
            kind=kind, epochs=250, batch_size=16,
            lr_schedule=[LrSpan(1, 250, 5e-3)],
            weight_decay=5e-4).validate()
        train(net, x, labels, cfg, seed=8)  # 4 steps/epoch * 250 = 1000
        bad = _masked_entries_nonzero(net)
        details.append(f"{kind}: {masked} masked entries, {bad} nonzero "
                       f"after 1000 steps")
        assert bad == 0, details[-1]
    verdict(capsys, 8, True, "; ".join(details))


# --------------------------------------------------------------------------
# 9 to 11. pipeline runs on MNIST (gated) and synthetic stand-ins


def _mnist_files():
    root = os.environ.get("MNIST_DIR")
    if not root:
        return None
    wanted = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    found = {}
    for key, stem in wanted.items():
        for name in (stem + ".gz", stem, stem.replace("-idx", ".idx")):
            p = Path(root) / name
            if p.is_file():
                found[key] = str(p)
                break
        else:
            return None
    return found


def _run_pipeline(cfg_dict, tmp_path, tag):
    out = tmp_path / tag
    cfg_dict = dict(cfg_dict, out=str(out))
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg_dict, indent=2) + "\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["prune", "--config", str(cfg_path)]) == 0
    baseline = json.loads((out / "baseline.json").read_text())["test_accuracy"]
    return out, baseline, read_history(out / "history.jsonl")


SMOKE_MNIST_CONFIG = {
    "seed": 3,
    "model": "mlp:784-100-50-10",
    "dataset": None,  # filled in from MNIST_DIR, limit_train 10000
    "train": {"optimizer": "adam", "epochs": 12, "batch_size": 128,
              "lr": 1e-3, "weight_decay": 5e-4},
    "prune": {"alpha_fc": 0.95, "n_pruning_samples": 1000, "iterations": 3,
              "drop_tolerance": 1.5},
}


def _smoke_mnist_config():
    files = _mnist_files()
    if files is None:
        pytest.skip("needs MNIST_DIR pointing at the four IDX files")
    cfg = json.loads(json.dumps(SMOKE_MNIST_CONFIG))
    cfg["dataset"] = {"kind": "idx", "limit_train": 10000, **files}
    return cfg


@pytest.mark.slow
def test_09_lenet300100_reproduction(tmp_path, capsys):
    """Full-scale run: error <= 2.5% at <= 3% remaining parameters."""
    files = _mnist_files()
    if files is None:
        pytest.skip("needs MNIST_DIR pointing at the four IDX files")
    if os.environ.get("RUN_SLOW") != "1":
        pytest.skip("hours of CPU; enable with RUN_SLOW=1")
    cfg = {
        "seed": 1,
        "model": "lenet300100",
        "dataset": {"kind": "idx", **files},
        "train": {"optimizer": "adam", "epochs": 60, "batch_size": 128,
                  "weight_decay": 5e-4,
                  "lr_schedule": [{"from": 1, "to": 30, "lr": 1e-3},
                                  {"from": 31, "to": 60, "lr": 1e-4}]},
        "prune": {"alpha_fc": 0.95, "n_pruning_samples": 1000,
                  "iterations": 15, "retrain_mode": "reinit",
                  "drop_tolerance": 100.0},
    }
    out, baseline, history = _run_pipeline(cfg, tmp_path, "lenet300100")
    final = history[-1]
    error_pct = 100.0 * (1.0 - final.post_retrain_accuracy)
    remaining_pct = 100.0 * final.remaining_fraction
    ok = error_pct <= 2.5 and remaining_pct <= 3.0
    verdict(capsys, 9, ok,
            f"baseline acc {baseline:.4f}; after 15 iterations error "
            f"{error_pct:.2f}% (limit 2.5), remaining {remaining_pct:.2f}% "
            f"(limit 3.0)")


def test_10_smoke_pipeline_mnist(tmp_path, capsys):
    """10k-sample subset, 3 iterations: >= 60% pruned, drop <= 1.5 points."""
    cfg = _smoke_mnist_config()
    t0 = time.perf_counter()
    out, baseline, history = _run_pipeline(cfg, tmp_path, "smoke")
    dt = time.perf_counter() - t0
    final = history[-1]
    pruned_pct = 100.0 * (1.0 - final.remaining_fraction)
    drop_pp = 100.0 * (baseline - final.post_retrain_accuracy)
    ok = pruned_pct >= 60.0 and drop_pp <= 1.5 and dt <= 600.0
    verdict(capsys, 10, ok,
            f"{pruned_pct:.1f}% parameters pruned (need >= 60), drop "
            f"{drop_pp:.2f}pp (limit 1.5), {dt:.0f}s (limit 600)")


def test_11_determinism_mnist(tmp_path, capsys):
    """Two same-seed runs of the criterion 10 setup, byte-identical history."""
    cfg = _smoke_mnist_config()
    out_a, _, _ = _run_pipeline(cfg, tmp_path, "det_a")
    out_b, _, _ = _run_pipeline(cfg, tmp_path, "det_b")
    same = (out_a / "history.jsonl").read_bytes() == \
        (out_b / "history.jsonl").read_bytes()
    verdict(capsys, 11, same,
            "two same-seed smoke runs wrote byte-identical history.jsonl")


SMOKE_SYNTH_CONFIG = {
    "seed": 7,
    "model": "mlp:48-24-8-3",
    "dataset": {"kind": "synthetic", "classes": 3, "n_train": 2000,
                "n_test": 500, "dim": 48},
    "train": {"optimizer": "adam", "epochs": 6, "batch_size": 64, "lr": 1e-3},
    "retrain": {"optimizer": "adam", "epochs": 10, "batch_size": 64,
                "lr": 1e-3},
    "prune": {"alpha_fc": 0.85, "n_pruning_samples": 256, "iterations": 4,
              "drop_tolerance": 1.5},
}


def test_10s_smoke_pipeline_synthetic(tmp_path, capsys):
    """Synthetic stand-in for the smoke pipeline, thresholds pre-calibrated.

    The reference run lands near 24% remaining with full accuracy recovery;
    the assertions leave wide margins (<= 40% remaining, drop <= 1.5pp).
    """
    t0 = time.perf_counter()
    out, baseline, history = _run_pipeline(SMOKE_SYNTH_CONFIG, tmp_path,
                                           "synth")
    dt = time.perf_counter() - t0
    final = history[-1]
    drop_pp = 100.0 * (baseline - final.post_retrain_accuracy)
    ok = (baseline >= 0.95 and final.remaining_fraction <= 0.40
          and drop_pp <= 1.5 and dt <= 60.0)
    verdict(capsys, "10-synthetic", ok,
            f"baseline acc {baseline:.3f}, remaining "
            f"{100 * final.remaining_fraction:.1f}% (limit 40), drop "
            f"{drop_pp:.2f}pp (limit 1.5), {dt:.1f}s")


def test_11s_determinism_synthetic(tmp_path, capsys):
    out_a, _, _ = _run_pipeline(SMOKE_SYNTH_CONFIG, tmp_path, "det_a")
    out_b, _, _ = _run_pipeline(SMOKE_SYNTH_CONFIG, tmp_path, "det_b")
    pairs = ["history.jsonl", "best.json", "model/weights.bin",
             "iterations/iter_04/weights.bin"]
    same = all((out_a / rel).read_bytes() == (out_b / rel).read_bytes()
               for rel in pairs)
    verdict(capsys, "11-synthetic", same,
            "two same-seed runs wrote byte-identical history, best "
            "selection, and checkpoints")


def _write_idx_splits(directory, rng, classes=3, side=12):
    """Train and test IDX files of class-dependent blobs; returns the config
    paths."""
    paths = {}
    for split, n in (("train", 96), ("test", 48)):
        labels = np.arange(n) % classes
        pixels = rng.integers(0, 60, size=(n, side, side))
        for c in range(classes):
            rows = slice(4 * c, 4 * c + 4)
            pixels[labels == c, rows, :] += 180
        for kind, data in (("images", idx_images_bytes(pixels)),
                           ("labels", idx_labels_bytes(labels))):
            path = directory / f"{split}-{kind}.idx"
            path.write_bytes(data)
            paths[f"{split}_{kind}"] = str(path)
    return paths


def test_11s_determinism_cnn_idx(tmp_path, capsys):
    """Criterion 11's byte identity for a conv net on IDX files: the conv,
    pool and conv-scoring code runs on every train, prune and retrain."""
    cfg = {
        "seed": 5,
        "model": "cnn:conv4k3,pool2,conv6k2,pool2,fc12,fc3",
        "dataset": {"kind": "idx",
                    **_write_idx_splits(tmp_path, np.random.default_rng(11))},
        "train": {"optimizer": "adam", "epochs": 3, "batch_size": 16,
                  "lr": 1e-2, "weight_decay": 5e-4},
        "retrain": {"optimizer": "adam", "epochs": 1, "batch_size": 16,
                    "lr": 1e-2},
        "prune": {"alpha_conv": 0.9, "alpha_fc": 0.9,
                  "n_pruning_samples": 40, "iterations": 2,
                  "drop_tolerance": 50.0},
    }
    out_a, _, history = _run_pipeline(cfg, tmp_path, "cnn_a")
    out_b, _, _ = _run_pipeline(cfg, tmp_path, "cnn_b")
    files = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                   if p.name in ("history.jsonl", "model.json", "weights.bin"))
    same = all((out_a / rel).read_bytes() == (out_b / rel).read_bytes()
               for rel in files)
    ok = same and len(history) == 2 and history[-1].remaining_fraction < 1.0
    verdict(capsys, "11-synthetic-cnn", ok,
            f"two same-seed conv-net runs wrote byte-identical history and "
            f"{len(files) - 1} checkpoint files")
