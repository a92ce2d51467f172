"""Iterative prune/retrain loop: reports, history files, resume, reinit."""

import copy
import json
import re

import numpy as np
import pytest

from prune_relief import (PURPOSE_REINIT, ConfigError, DenseLayer, Flatten,
                          FormatError, IterationReport, LrSpan, Network,
                          OptimizerConfig, PruneConfig, evaluate, history_line,
                          init_params, iterate, load_model, parse_config,
                          read_history, save_model, select_best,
                          synth_dataset)
from tests.conftest import mask_pairs

F32 = np.float32


def tiny_retrain(epochs=1, lr=1e-2):
    return OptimizerConfig(kind="sgd", epochs=epochs, batch_size=32,
                           lr_schedule=[LrSpan(1, epochs, lr)])


def fresh_setup(seed=0, dim=10, classes=3, hidden=8, n=120):
    """Initialized MLP over synthetic blobs, plus a clone of the init state."""
    train_ds = synth_dataset(seed, n, classes, dim=dim)
    test_ds = synth_dataset(seed, 60, classes, dim=dim, split=1)
    net = Network([Flatten(),
                   DenseLayer(np.zeros((hidden, dim), F32),
                              np.zeros(hidden, F32), "relu"),
                   DenseLayer(np.zeros((classes, hidden), F32),
                              np.zeros(classes, F32), "identity")],
                  (1, 1, dim), classes)
    init_params(net, seed)
    return net, net.clone(), train_ds, test_ds


def params_of(net):
    return [{k: v.copy() for k, v in l.params().items()} for l in net.layers]


def assert_params_equal(a, b):
    for la, lb in zip(a, b):
        for k in la:
            np.testing.assert_array_equal(la[k], lb[k])


class TestPruneConfigValidation:
    def test_defaults_pass(self):
        PruneConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("alpha_fc", 0.0), ("alpha_fc", 1.0001), ("alpha_conv", -0.1),
        ("n_pruning_samples", 0), ("iterations", 0),
        ("retrain_mode", "warmstart"), ("pruning_set_policy", "rotate"),
        ("reinit_draw", "xavier"), ("drop_tolerance", -0.5),
    ])
    def test_rejects(self, field, value):
        cfg = PruneConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()


MINIMAL_CONFIG = {
    "model": "mlp:4-3", "dataset": {"kind": "synthetic", "classes": 3},
    "train": {"epochs": 1, "lr": 0.1}, "retrain": {"epochs": 1, "lr": 0.1},
    "prune": {}}

# (section, config key, attribute, default, type named in the message)
DEFAULTED_FIELDS = [
    ("prune", "alpha_conv", "alpha_conv", 0.9, "float"),
    ("prune", "alpha_fc", "alpha_fc", 0.95, "float"),
    ("prune", "n_pruning_samples", "n_pruning_samples", 1000, "int"),
    ("prune", "iterations", "iterations", 1, "int"),
    ("prune", "retrain_mode", "retrain_mode", "reinit", "str"),
    ("prune", "pruning_set_policy", "pruning_set_policy", "resample", "str"),
    ("prune", "reinit_draw", "reinit_draw", "original", "str"),
    ("prune", "drop_tolerance", "drop_tolerance", 1.0, "float"),
] + [(section, *field) for section in ("train", "retrain") for field in [
    ("optimizer", "kind", "adam", "str"),
    ("batch_size", "batch_size", 128, "int"),
    ("weight_decay", "weight_decay", 0.0, "float"),
    ("momentum", "momentum", 0.9, "float"),
    ("beta1", "beta1", 0.9, "float"),
    ("beta2", "beta2", 0.999, "float"),
    ("eps", "eps", 1e-8, "float"),
]]


class TestConfigFields:
    @pytest.mark.parametrize("section,key,attr,default,kind", DEFAULTED_FIELDS)
    def test_omitted_field_takes_the_dataclass_default(self, section, key,
                                                       attr, default, kind):
        got = getattr(parse_config(MINIMAL_CONFIG), section)
        assert getattr(got, attr) == default == getattr(type(got)(), attr)
        assert type(getattr(got, attr)).__name__ == kind

    @pytest.mark.parametrize("section,key,attr,default,kind", DEFAULTED_FIELDS)
    @pytest.mark.parametrize("value", [[], None, True], ids=str)
    def test_wrong_type_names_the_field(self, section, key, attr, default,
                                        kind, value):
        data = copy.deepcopy(MINIMAL_CONFIG)
        data[section][key] = value
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert str(e.value) == (f"config field '{section}.{key}' must be "
                                f"{kind}, got {type(value).__name__}")


class TestHistory:
    def report(self, i, post=0.9):
        return IterationReport(iteration=i, pre_retrain_accuracy=0.5,
                               post_retrain_accuracy=post,
                               remaining_fraction=0.5 ** i,
                               compression_rate=2.0 ** i,
                               flops_pruned_pct=10.0 * i)

    def test_json_round_trip(self):
        r = self.report(2)
        r.per_layer = [{"layer": 1, "unmasked": 7}]
        r.score_stats = {"count": 7}
        back = IterationReport.from_json_dict(json.loads(history_line(r)))
        assert back == r

    def test_none_compression_survives(self):
        r = self.report(1)
        r.compression_rate = None
        back = IterationReport.from_json_dict(json.loads(history_line(r)))
        assert back.compression_rate is None

    def test_pinned_history_line(self):
        r = self.report(2)
        r.per_layer = [{"layer": 1, "unmasked": 7}]
        r.score_stats = {"count": 7}
        assert history_line(r) == (
            '{"compression_rate": 4.0, "flops_pruned_pct": 20.0, '
            '"iteration": 2, "per_layer": [{"layer": 1, "unmasked": 7}], '
            '"post_retrain_accuracy": 0.9, "pre_retrain_accuracy": 0.5, '
            '"remaining_fraction": 0.25, "score_stats": {"count": 7}}\n')

    def test_line_is_sorted_and_newline_terminated(self):
        line = history_line(self.report(1))
        assert line.endswith("\n")
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_read_missing_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(history_line(self.report(1)) +
                        history_line(self.report(2)))
        out = read_history(path)
        assert [r.iteration for r in out] == [1, 2]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"iteration": 1\n')
        with pytest.raises(FormatError, match="malformed"):
            read_history(path)

    @pytest.mark.parametrize("key,value,expected", [
        ("iteration", "1", "an integer"),
        ("iteration", 1.0, "an integer"),
        ("iteration", True, "an integer"),
        ("post_retrain_accuracy", "high", "a finite number"),
        ("pre_retrain_accuracy", None, "a finite number"),
        ("pre_retrain_accuracy", False, "a finite number"),
        ("remaining_fraction", float("nan"), "a finite number"),
        ("flops_pruned_pct", float("inf"), "a finite number"),
        ("compression_rate", "2", "a number or null"),
        ("per_layer", {}, "a list"),
        ("score_stats", [], "an object")])
    def test_wrongly_typed_field(self, tmp_path, key, value, expected):
        record = json.loads(history_line(self.report(1)))
        record[key] = value
        path = tmp_path / "history.jsonl"
        path.write_text(history_line(self.report(1)) + json.dumps(record)
                        + "\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:2: malformed history line: {key} must be "
                f"{expected}, got ")):
            read_history(path)

    def test_integer_numbers_accepted(self):
        record = json.loads(history_line(self.report(1)))
        record.update(post_retrain_accuracy=1, compression_rate=3)
        back = IterationReport.from_json_dict(record)
        assert (back.post_retrain_accuracy, back.compression_rate) == (1, 3)

    def test_sequence_gap(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(history_line(self.report(1)) +
                        history_line(self.report(3)))
        with pytest.raises(FormatError, match="iteration 3"):
            read_history(path)


class TestSelectBest:
    def reports(self, posts):
        return [IterationReport(iteration=i + 1, pre_retrain_accuracy=0.0,
                                post_retrain_accuracy=p,
                                remaining_fraction=1.0, compression_rate=1.0,
                                flops_pruned_pct=0.0)
                for i, p in enumerate(posts)]

    def test_latest_within_tolerance(self):
        rs = self.reports([0.88, 0.895, 0.87])
        assert select_best(rs, 0.9, 1.0) == 2

    def test_exactly_at_tolerance_counts(self):
        rs = self.reports([0.89])
        assert select_best(rs, 0.9, 1.0) == 1

    def test_none_when_all_drop_too_far(self):
        rs = self.reports([0.7, 0.6])
        assert select_best(rs, 0.9, 1.0) is None

    def test_empty(self):
        assert select_best([], 0.9, 1.0) is None


class TestIterate:
    def test_monotone_remaining_and_masks_enforced(self, tmp_path):
        net, initial, train_ds, test_ds = fresh_setup()
        pcfg = PruneConfig(alpha_fc=0.9, n_pruning_samples=40, iterations=3)
        out, reports, _ = iterate(net, train_ds, test_ds, pcfg, tiny_retrain(),
                                  seed=7, out_dir=tmp_path,
                                  initial_net=initial)
        fractions = [r.remaining_fraction for r in reports]
        assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] < 1.0
        for li in out.prunable_indices():
            layer = out.layers[li]
            assert np.all(layer.weights[layer.weight_mask == 0] == 0.0)
            assert np.all(layer.bias[layer.bias_mask == 0] == 0.0)
        assert [r.iteration for r in reports] == [1, 2, 3]

    def test_alpha_one_prunes_nothing_on_dense_scores(self, tmp_path):
        # identity activations and nonzero biases: every contributor has a
        # positive score, so alpha = 1 keeps the whole network
        rng = np.random.default_rng(3)
        dim, classes = 8, 3
        net = Network([Flatten(),
                       DenseLayer(rng.standard_normal((6, dim)).astype(F32),
                                  rng.standard_normal(6).astype(F32) + 2.0,
                                  "identity"),
                       DenseLayer(rng.standard_normal((classes, 6)).astype(F32),
                                  rng.standard_normal(classes).astype(F32) + 2.0,
                                  "identity")], (1, 1, dim), classes)
        train_ds = synth_dataset(5, 80, classes, dim=dim)
        test_ds = synth_dataset(5, 40, classes, dim=dim, split=1)
        pcfg = PruneConfig(alpha_fc=1.0, alpha_conv=1.0, n_pruning_samples=30,
                           iterations=1, retrain_mode="finetune")
        out, reports, _ = iterate(net, train_ds, test_ds, pcfg, tiny_retrain(),
                                  seed=1, out_dir=tmp_path)
        assert reports[0].remaining_fraction == 1.0
        assert reports[0].compression_rate == 1.0
        assert out.num_unmasked() == out.num_params()

    def test_reinit_original_restores_initial_values(self, tmp_path):
        # a vanishing learning rate makes retraining a no-op in float32, so
        # the surviving weights must come out exactly as initialized
        net, initial, train_ds, test_ds = fresh_setup(seed=2)
        pcfg = PruneConfig(alpha_fc=0.85, n_pruning_samples=40, iterations=1)
        out, _, _ = iterate(net, train_ds, test_ds, pcfg,
                            tiny_retrain(lr=1e-30), seed=9, out_dir=tmp_path,
                            initial_net=initial)
        for li in out.prunable_indices():
            layer = out.layers[li]
            src = initial.layers[li]
            np.testing.assert_array_equal(
                layer.weights, src.weights * layer.weight_mask)
            np.testing.assert_array_equal(
                layer.bias, src.bias * layer.bias_mask)

    def test_finetune_keeps_trained_values(self, tmp_path):
        net, initial, train_ds, test_ds = fresh_setup(seed=4)
        # train for real first so pre-prune values differ from the init
        real = tiny_retrain(epochs=2)
        from prune_relief import train as train_fn
        train_fn(net, train_ds.images, train_ds.labels, real, seed=5)
        trained = params_of(net)
        pcfg = PruneConfig(alpha_fc=0.85, n_pruning_samples=40, iterations=1,
                           retrain_mode="finetune")
        out, _, _ = iterate(net, train_ds, test_ds, pcfg,
                            tiny_retrain(lr=1e-30), seed=9, out_dir=tmp_path)
        for li in out.prunable_indices():
            layer = out.layers[li]
            np.testing.assert_array_equal(
                layer.weights,
                trained[li]["weights"] * layer.weight_mask)

    def test_reinit_fresh_draws_new_values(self, tmp_path):
        net, initial, train_ds, test_ds = fresh_setup(seed=6)
        pcfg = PruneConfig(alpha_fc=0.85, n_pruning_samples=40, iterations=1,
                           reinit_draw="fresh")
        out, _, _ = iterate(net, train_ds, test_ds, pcfg,
                            tiny_retrain(lr=1e-30), seed=11, out_dir=tmp_path)
        expected = out.clone()
        init_params(expected, [11, PURPOSE_REINIT, 1])
        for li in out.prunable_indices():
            layer = out.layers[li]
            exp = expected.layers[li]
            np.testing.assert_array_equal(
                layer.weights, exp.weights * layer.weight_mask)
            assert not np.array_equal(layer.weights,
                                      initial.layers[li].weights
                                      * layer.weight_mask)

    def test_reinit_original_needs_initial_net(self, tmp_path):
        net, _, train_ds, test_ds = fresh_setup()
        pcfg = PruneConfig(alpha_fc=0.9, n_pruning_samples=40, iterations=1)
        with pytest.raises(ConfigError, match="initial network"):
            iterate(net, train_ds, test_ds, pcfg, tiny_retrain(), seed=0,
                    out_dir=tmp_path)

    def test_pruning_set_larger_than_train(self, tmp_path):
        net, initial, train_ds, test_ds = fresh_setup(n=30)
        pcfg = PruneConfig(alpha_fc=0.9, n_pruning_samples=31, iterations=1)
        with pytest.raises(ConfigError, match="exceeds"):
            iterate(net, train_ds, test_ds, pcfg, tiny_retrain(), seed=0,
                    out_dir=tmp_path, initial_net=initial)


class TestRunDirectory:
    def run(self, out_dir, iterations=3, seed=7):
        net, initial, train_ds, test_ds = fresh_setup(seed=1)
        pcfg = PruneConfig(alpha_fc=0.9, n_pruning_samples=40,
                           iterations=iterations)
        return iterate(net, train_ds, test_ds, pcfg, tiny_retrain(), seed=seed,
                       initial_net=initial, out_dir=out_dir)

    def test_layout_and_artifacts(self, tmp_path):
        out = tmp_path / "run"
        _, reports, best = self.run(out)
        assert (out / "history.jsonl").is_file()
        assert len(read_history(out / "history.jsonl")) == 3
        for i in (1, 2, 3):
            d = out / "iterations" / f"iter_{i:02d}"
            assert (d / "model.json").is_file()
            assert (d / "weights.bin").is_file()
            assert (d / "optimizer.json").is_file()
        opt = json.loads((out / "iterations" / "iter_01" /
                          "optimizer.json").read_text())
        assert opt["step_count"] == int(np.ceil(120 / 32))
        best_meta = json.loads((out / "best.json").read_text())
        assert best_meta["best_iteration"] == best
        if best is not None:
            assert (out / "best" / "weights.bin").is_file()

    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.run(a)
        self.run(b)
        assert (a / "history.jsonl").read_bytes() == \
            (b / "history.jsonl").read_bytes()
        for i in (1, 2, 3):
            pa = a / "iterations" / f"iter_{i:02d}"
            pb = b / "iterations" / f"iter_{i:02d}"
            assert (pa / "weights.bin").read_bytes() == \
                (pb / "weights.bin").read_bytes()
            assert (pa / "model.json").read_bytes() == \
                (pb / "model.json").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        whole, stopped = tmp_path / "whole", tmp_path / "stopped"
        self.run(whole, iterations=4)

        net, initial, train_ds, test_ds = fresh_setup(seed=1)
        pcfg = PruneConfig(alpha_fc=0.9, n_pruning_samples=40, iterations=2)
        iterate(net, train_ds, test_ds, pcfg, tiny_retrain(), seed=7,
                initial_net=initial, out_dir=stopped)
        # continue in a fresh process-like state: new net, higher target
        net2, initial2, train_ds, test_ds = fresh_setup(seed=1)
        pcfg = PruneConfig(alpha_fc=0.9, n_pruning_samples=40, iterations=4)
        logs = []
        _, reports, _ = iterate(net2, train_ds, test_ds, pcfg, tiny_retrain(),
                                seed=7, initial_net=initial2, out_dir=stopped,
                                log=logs.append)
        assert any("resuming after iteration 2" in m for m in logs)
        assert (whole / "history.jsonl").read_bytes() == \
            (stopped / "history.jsonl").read_bytes()
        assert (whole / "iterations" / "iter_04" / "weights.bin").read_bytes() \
            == (stopped / "iterations" / "iter_04" / "weights.bin").read_bytes()

    def test_history_counts_dead_targets(self, tmp_path):
        out = tmp_path / "run"
        net, reports, _ = self.run(out, iterations=2)
        live = net.liveness()
        for entry in read_history(out / "history.jsonl")[-1].per_layer:
            layer = live[entry["layer"]]
            assert entry["dead_end_targets"] == int(layer.dead_end.sum())
            assert entry["inputless_targets"] == int(layer.inputless.sum())
            assert entry["live_targets"] == int(layer.live.sum())
        assert reports[-1].per_layer[-1]["dead_end_targets"] == 0

    def test_resume_reads_lines_without_dead_target_counts(self, tmp_path):
        """History lines written before the dead-target counts still load
        and resume to the same checkpoint."""
        whole, old = tmp_path / "whole", tmp_path / "old"
        self.run(whole, iterations=3)
        self.run(old, iterations=2)
        history = old / "history.jsonl"
        lines = []
        for line in history.read_text().splitlines():
            record = json.loads(line)
            for entry in record["per_layer"]:
                for key in ("dead_end_targets", "inputless_targets",
                            "live_targets"):
                    del entry[key]
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        history.write_text("".join(lines))
        assert len(read_history(history)) == 2
        self.run(old, iterations=3)
        assert (whole / "iterations" / "iter_03" / "weights.bin").read_bytes() \
            == (old / "iterations" / "iter_03" / "weights.bin").read_bytes()

    @pytest.mark.parametrize("tamper", ["checkpoint", "history"])
    def test_resume_rejects_checkpoint_unlike_history(self, tmp_path, tamper):
        out = tmp_path / "run"
        self.run(out, iterations=2)
        if tamper == "checkpoint":
            # one more masked weight than the history records
            ckpt = out / "iterations" / "iter_02"
            net = load_model(ckpt)
            layer = net.layers[2]
            j, i = np.argwhere(layer.weight_mask != 0)[0]
            mask_pairs(layer, j, [i])
            save_model(net, ckpt)
        else:
            # the history records another layer size
            history = out / "history.jsonl"
            first, second = history.read_text().splitlines()
            record = json.loads(second)
            record["per_layer"][1]["total"] += 1
            history.write_text(f"{first}\n{json.dumps(record)}\n")
        with pytest.raises(FormatError, match=re.escape(
                f"does not match the last line of {out / 'history.jsonl'} "
                f"at layer 2")):
            self.run(out, iterations=3)

    def test_completed_run_reruns_as_noop(self, tmp_path):
        out = tmp_path / "run"
        _, first, best1 = self.run(out)
        _, second, best2 = self.run(out)
        assert [r.to_json_dict() for r in first] == \
            [r.to_json_dict() for r in second]
        assert best1 == best2

    def test_too_much_history_rejected(self, tmp_path):
        out = tmp_path / "run"
        self.run(out, iterations=3)
        with pytest.raises(ConfigError, match="already holds"):
            self.run(out, iterations=2)

    def test_best_none_leaves_no_best_dir(self, tmp_path):
        net, initial, train_ds, test_ds = fresh_setup(seed=1)
        pcfg = PruneConfig(alpha_fc=0.5, n_pruning_samples=40, iterations=1,
                           drop_tolerance=0.0)
        out = tmp_path / "run"
        # baseline accuracy 1.1 is unreachable, every drop exceeds 0
        _, _, best = iterate(net, train_ds, test_ds, pcfg, tiny_retrain(),
                             seed=3, initial_net=initial, out_dir=out,
                             baseline_accuracy=1.1)
        assert best is None
        assert not (out / "best").exists()
        assert json.loads((out / "best.json").read_text())[
            "best_iteration"] is None
