"""Deviation bounds: hand equalities, validation, and random satisfaction."""

import copy

import numpy as np
import pytest

from prune_relief import (CapabilityError, ConvLayer, DenseLayer,
                          DimensionError, EmptyPruningSetError, Flatten,
                          Network, bound_report, measure_deviation,
                          network_output_bound,
                          sample_last, score_layer)
from prune_relief.activations import get_activation
from prune_relief.bounds import _pre_and_post
from tests.conftest import (count_forwards_and_scores, prune_one_layer,
                            random_conv, random_dense, small_cnn, small_mlp)

F32 = np.float32


def leq(measured, bound, tol=1e-9):
    m = np.asarray(measured, dtype=np.float64)
    b = np.asarray(bound, dtype=np.float64)
    assert np.all(m <= b + tol + tol * np.abs(b)), (
        f"bound violated: worst excess {(m - b).max()}")


class TestHandEqualities:
    """Cases built so the triangle inequality is tight."""

    def test_dense_bias_prune(self):
        # one weight 1.5, bias 0.5, input 1.0: S = 2, scores (0.75, 0.25);
        # alpha 0.75 prunes exactly the bias, so the deviation is 0.5
        # = S * (1 - 0.75) with no slack
        layer = DenseLayer(np.array([[1.5]], F32), np.array([0.5], F32),
                           "identity")
        net = Network([layer], (1,), 1)
        x = np.array([[1.0]], F32)
        pruned, _, sel = prune_one_layer(net, 0, 0.75, x)
        assert sel.keep.tolist() == [[True, False]]
        assert sel.achieved_mass[0] == 0.75
        delta, big_delta = measure_deviation(layer, pruned.layers[0], x)
        assert delta[0] == 0.5
        assert big_delta[0] == 0.5

    def test_conv_channel_prune(self):
        # 1x1 kernels (3, 1) on a 1x1 map with input (1, 1): S = 4,
        # scores (0.75, 0.25, 0); alpha 0.75 prunes channel 1, Frobenius
        # deviation 1 = 4 * (1 - 0.75) exactly
        k = np.array([[[[3.0]], [[1.0]]]], F32)
        conv = ConvLayer(k, np.array([0.0], F32), "relu")
        net = Network([conv, Flatten(),
                       DenseLayer(np.eye(1, dtype=F32), np.zeros(1, F32),
                                  "identity")], (2, 1, 1), 1)
        x = np.ones((1, 2, 1, 1), F32)
        pruned, _, sel = prune_one_layer(net, 0, 0.75, x)
        assert sel.keep.tolist() == [[True, False, False]]
        assert sel.achieved_mass[0] == 0.75
        delta, big_delta = measure_deviation(conv, pruned.layers[0],
                                             sample_last(x))
        assert delta[0] == 1.0
        assert big_delta[0] == 1.0

    def test_network_bound_two_layers(self):
        # pruning the bias of layer 0 changes its output by 0.5, which the
        # second layer's weight 2 doubles: measured logit change 1.0 equals
        # the propagated bound (1 - 0.75) * 2 * 2
        net = Network([DenseLayer(np.array([[1.5]], F32),
                                  np.array([0.5], F32), "identity"),
                       DenseLayer(np.array([[2.0]], F32),
                                  np.zeros(1, F32), "identity")], (1,), 1)
        x = np.array([[1.0]], F32)
        logits = net.forward(x)
        bound = network_output_bound(net, 0, 0.75, [2.0])
        np.testing.assert_array_equal(bound, [1.0])
        pruned, _, _ = prune_one_layer(net, 0, 0.75, x)
        measured = np.abs(logits.astype(np.float64)
                          - pruned.forward(x).astype(np.float64)).mean(0)
        assert measured[0] == 1.0

    def test_network_bound_last_layer_degenerates(self):
        net = Network([DenseLayer(np.array([[1.5]], F32),
                                  np.array([0.5], F32), "identity")], (1,), 1)
        np.testing.assert_array_equal(
            network_output_bound(net, 0, 0.75, [2.0]), [0.5])

    def test_network_bound_kept_mass_form(self):
        net = Network([DenseLayer(np.array([[1.5]], F32),
                                  np.array([0.5], F32), "identity"),
                       DenseLayer(np.array([[2.0]], F32),
                                  np.zeros(1, F32), "identity")], (1,), 1)
        out = network_output_bound(net, 0, 0.75, [2.0],
                                   kept_mass=np.array([0.9]))
        np.testing.assert_allclose(out, [0.4], atol=1e-12)
        out = network_output_bound(net, 0, 0.75, [2.0],
                                   kept_mass=np.array([1.0]))
        np.testing.assert_array_equal(out, [0.0])


class TestMeasurement:
    def test_zero_when_nothing_masked(self, rng):
        layer = random_dense(rng, 6, 4)
        delta, big_delta = measure_deviation(layer, layer.clone(),
                                             rng.standard_normal((8, 6)))
        np.testing.assert_array_equal(delta, np.zeros(4))
        np.testing.assert_array_equal(big_delta, np.zeros(4))

    def test_wrong_input_width(self, rng):
        layer = random_dense(rng, 6, 4)
        with pytest.raises(DimensionError):
            measure_deviation(layer, layer.clone(),
                              rng.standard_normal((8, 5)))
        conv = small_cnn(rng).layers[0]  # two input channels
        with pytest.raises(DimensionError):
            measure_deviation(conv, conv.clone(),
                              rng.standard_normal((3, 6, 6, 2)))

    def test_empty_batch(self, rng):
        layer = random_dense(rng, 6, 4)
        with pytest.raises(EmptyPruningSetError):
            measure_deviation(layer, layer.clone(), np.zeros((0, 6)))
        conv = small_cnn(rng).layers[0]
        with pytest.raises(EmptyPruningSetError):
            measure_deviation(conv, conv.clone(), np.zeros((2, 6, 6, 0)))

    def test_mismatched_pair(self, rng):
        a = random_dense(rng, 6, 4)
        b = random_dense(rng, 6, 5)
        with pytest.raises(DimensionError):
            measure_deviation(a, b, rng.standard_normal((8, 6)))

    def test_kind_mismatch(self, rng):
        a = random_dense(rng, 6, 4)
        b = small_cnn(rng).layers[0]
        with pytest.raises(DimensionError):
            measure_deviation(a, b, rng.standard_normal((2, 6)))
        with pytest.raises(DimensionError):
            measure_deviation(Flatten(), Flatten(), rng.standard_normal((2, 6)))


    def test_pre_activation_is_the_layers_own_product(self, rng):
        dense = random_dense(rng, 6, 4)
        x = rng.standard_normal((5, 6)).astype(F32)
        z, y = _pre_and_post(dense, x)
        assert z.tobytes() == (x @ dense.weights.T + dense.bias).tobytes()
        assert y.tobytes() == dense.forward(x).tobytes()
        conv = random_conv(rng, 2, 3, 3)
        maps = rng.standard_normal((2, 7, 7, 4)).astype(F32)
        z, y = _pre_and_post(conv, maps)
        # the same layer with the identity activation outputs its z
        linear = copy.copy(conv)
        linear.act = get_activation("identity")
        assert z.tobytes() == linear.forward(maps).tobytes()
        assert y.tobytes() == conv.forward(maps).tobytes()

ALPHAS = (0.5, 0.7, 0.9, 0.95, 1.0)
ACTS = ("relu", "elu", "sigmoid", "tanh", "identity")


class TestRandomSatisfaction:
    """Measured deviations never exceed the closed-form bounds."""

    def test_dense_layers(self):
        rng = np.random.default_rng(101)
        for case in range(60):
            n_in = int(rng.integers(2, 12))
            n_out = int(rng.integers(1, 9))
            act = ACTS[case % len(ACTS)]
            alpha = ALPHAS[case % len(ALPHAS)]
            dims = (n_in, n_out, 3)
            net = small_mlp(rng, dims, activation=act)
            x = rng.standard_normal((int(rng.integers(1, 20)), n_in)).astype(F32)
            pruned, scores, selection = prune_one_layer(net, 0, alpha, x)
            delta, big_delta = measure_deviation(
                net.layers[0], pruned.layers[0], x.astype(np.float64))
            s = scores.totals
            kappa = selection.achieved_mass
            c = net.layers[0].act.lipschitz
            leq(delta, s * np.maximum(1.0 - kappa, 0.0))
            leq(delta, s * (1.0 - alpha) if alpha < 1 else s * 0.0)
            leq(big_delta, c * delta)
            # the closed form C * S * (1 - alpha), as kappa >= alpha
            leq(big_delta, c * s * (1.0 - alpha))

    def test_conv_layers(self):
        rng = np.random.default_rng(202)
        for case in range(30):
            c_in = int(rng.integers(1, 5))
            c_mid = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            hw = int(rng.integers(k + 1, 13))
            act = ACTS[case % 4]  # skip identity: covered by dense loop
            alpha = ALPHAS[case % len(ALPHAS)]
            net = small_cnn(rng, activation=act, in_shape=(c_in, hw, hw),
                            c_mid=c_mid, k=k, pool=hw >= 2 * k)
            x = rng.standard_normal(
                (int(rng.integers(1, 6)), c_in, hw, hw)).astype(F32)
            pruned, scores, selection = prune_one_layer(net, 0, alpha, x)
            delta, big_delta = measure_deviation(
                net.layers[0], pruned.layers[0],
                sample_last(x.astype(np.float64)))
            s = scores.totals
            kappa = selection.achieved_mass
            c = net.layers[0].act.lipschitz
            leq(delta, s * np.maximum(1.0 - kappa, 0.0))
            leq(big_delta, c * delta)
            # the closed form C * S * (1 - alpha), as kappa >= alpha
            leq(big_delta, c * s * (1.0 - alpha))

    def test_network_bound(self):
        # float64 networks end to end; with matching precision on both sides
        # the inequality has to hold to rounding error, not a loose tolerance
        rng = np.random.default_rng(303)
        for case in range(40):
            dims = (int(rng.integers(3, 9)), int(rng.integers(2, 8)),
                    int(rng.integers(2, 6)), 3)
            net = small_mlp(rng, dims, dtype=np.float64)
            alpha = (0.8, 0.95)[case % 2]
            li = case % 3  # prunable layers 0, 1, 2
            x = rng.standard_normal((int(rng.integers(2, 16)), dims[0]))
            pruned, scores, selection = prune_one_layer(net, li, alpha, x)
            s = scores.totals
            bound = network_output_bound(net, li, alpha, s)
            measured = np.abs(net.forward(x) - pruned.forward(x)).mean(0)
            leq(measured, bound, tol=1e-12)
            kappa = selection.achieved_mass
            tight = network_output_bound(net, li, alpha, s, kept_mass=kappa)
            leq(tight, bound, tol=1e-12)
            leq(measured, tight, tol=1e-12)


def _totals(net, layer_index, x):
    """S(l) of one prunable layer on a batch of network inputs."""
    _, kept = net.forward(x, keep=[layer_index])
    return score_layer(net.layers[layer_index], kept[layer_index]).totals


class TestNetworkBoundErrors:
    def test_conv_tail_unsupported(self, rng):
        net = small_cnn(rng)
        s = _totals(net, 0, rng.standard_normal((2, 2, 6, 6)).astype(F32))
        with pytest.raises(CapabilityError, match="all-dense tail"):
            network_output_bound(net, 0, 0.9, s)

    def test_non_prunable_layer(self, rng):
        net = small_cnn(rng)
        with pytest.raises(IndexError):
            network_output_bound(net, 1, 0.9, np.ones(3))  # pool layer

    def test_kept_mass_shape_mismatch(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        s = _totals(net, 0, rng.standard_normal((2, 4)).astype(F32))
        with pytest.raises(DimensionError):
            network_output_bound(net, 0, 0.9, s, kept_mass=np.ones(5))

    @pytest.mark.parametrize("s_total", [np.ones(2), np.ones(4), np.ones((3, 1)),
                                         2.0])
    def test_s_total_shape_mismatch(self, rng, s_total):
        net = small_mlp(rng, (4, 3, 2))  # layer 0 has 3 targets
        with pytest.raises(DimensionError, match="s_total"):
            network_output_bound(net, 0, 0.9, s_total)

    def test_bad_alpha(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        s = _totals(net, 0, rng.standard_normal((2, 4)).astype(F32))
        with pytest.raises(ValueError):
            network_output_bound(net, 0, 0.0, s)


class TestBoundReport:
    def test_dense_structure_and_consistency(self, rng):
        net = small_mlp(rng, (6, 5, 3))
        x = rng.standard_normal((10, 6)).astype(F32)
        report = bound_report(net, 0, 0.9, x)
        assert report["layer"] == 0 and report["kind"] == "dense"
        assert report["alpha"] == 0.9 and report["samples"] == 10
        assert len(report["targets"]) == 5
        for t in report["targets"]:
            assert t["kept"] + t["pruned"] == 7  # fan-in 6 plus bias
            leq(t["pre_activation_deviation"], t["pre_activation_bound"],
                tol=1e-7)
            leq(t["post_activation_deviation"], t["post_activation_bound"],
                tol=1e-7)
        nw = report["network"]
        assert len(nw["logit_bounds"]) == 3
        # report forwards run in the network dtype (float32), so the noise
        # floor here is coarser than for the float64 property loops
        leq(nw["measured_mean_abs_change"], nw["logit_bounds"], tol=1e-5)

    def test_conv_reports_capability_limit(self, rng):
        net = small_cnn(rng)
        x = rng.standard_normal((4, 2, 6, 6)).astype(F32)
        report = bound_report(net, 0, 0.9, x)
        assert report["kind"] == "conv"
        assert "error" in report["network"]
        assert "dense" in report["network"]["error"]
        for t in report["targets"]:
            leq(t["post_activation_deviation"], t["post_activation_bound"],
                tol=1e-7)

    @pytest.mark.parametrize("build,x_shape,layer,forwards", [
        (lambda rng: small_mlp(rng, (6, 5, 4, 3)), (10, 6), 1, 2),
        (lambda rng: small_cnn(rng), (4, 2, 6, 6), 0, 0)])
    def test_pass_start_work_runs_once(self, rng, monkeypatch, build, x_shape,
                                       layer, forwards):
        # one scoring of the pruned layer; an all-dense tail adds one
        # forward that keeps the logits and the pruned copy's forward,
        # while any other layer reads its input from the layers before it
        # alone (none for layer 0), with no whole-network forward
        net = build(rng)
        x = rng.standard_normal(x_shape).astype(F32)
        calls = count_forwards_and_scores(monkeypatch)
        bound_report(net, layer, 0.9, x)
        assert calls == {"forward": forwards, "score_layer": 1}

    def test_list_input_and_empty(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        xs = [rng.standard_normal(4).astype(F32) for _ in range(3)]
        report = bound_report(net, 0, 0.8, xs)
        assert report["samples"] == 3
        with pytest.raises(EmptyPruningSetError):
            bound_report(net, 0, 0.8, [])
        with pytest.raises(EmptyPruningSetError):
            bound_report(net, 0, 0.8, np.zeros((0, 4), F32))
