"""Initialization statistics, loss gradients, and the training loop."""

import warnings

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, Flatten, LrSpan, MaxPool2D,
                          Network, OptimizerConfig, TrainingError, evaluate,
                          forward_backward, init_params, softmax_cross_entropy,
                          synth_dataset, train)
from prune_relief.config import build_network
from prune_relief.network import Subnetwork
from tests.conftest import (assert_every_unmasked_entry_moved, cut_units,
                            mask_pairs, numeric_gradients, random_conv,
                            random_dense, small_cnn, small_mlp)


class TestInit:
    def test_deterministic(self, rng):
        a = small_mlp(rng, (20, 10, 5))
        b = a.clone()
        init_params(a, 7)
        init_params(b, 7)
        for la, lb in zip(a.layers, b.layers):
            for name, p in la.params().items():
                np.testing.assert_array_equal(p, lb.params()[name])

    def test_different_seeds_differ(self, rng):
        a = small_mlp(rng, (20, 10, 5))
        b = a.clone()
        init_params(a, 7)
        init_params(b, 8)
        assert np.any(a.layers[0].weights != b.layers[0].weights)

    def test_dense_std_matches_fan_in(self, rng):
        # std should land within 20% of sqrt(2/100) over 10^4+ draws
        net = small_mlp(rng, (100, 120, 5))
        init_params(net, 3)
        w = net.layers[0].weights  # 120 x 100 = 12000 draws
        target = np.sqrt(2.0 / 100.0)
        assert abs(w.std() - target) / target < 0.2
        assert abs(w.mean()) < 0.2 * target

    def test_conv_std_matches_fan_in(self):
        k = np.zeros((64, 8, 5, 5), np.float32)
        net = Network([ConvLayer(k, np.zeros(64, np.float32), "relu"),
                       Flatten(),
                       DenseLayer(np.zeros((2, 64 * 4 * 4), np.float32),
                                  np.zeros(2, np.float32), "identity")],
                      (8, 8, 8), 2)
        init_params(net, 11)
        target = np.sqrt(2.0 / (8 * 25))
        got = net.layers[0].kernels.std()
        assert abs(got - target) / target < 0.2

    def test_biases_zero_and_masks_reset(self, rng):
        net = small_mlp(rng, (6, 4, 3))
        mask_pairs(net.layers[0], 0, [0, 1, 6])
        init_params(net, 5)
        assert np.all(net.layers[0].bias == 0.0)
        assert np.all(net.layers[0].weight_mask == 1.0)

    def test_init_is_float32(self, rng):
        net = small_mlp(rng, (6, 4, 3))
        init_params(net, 5)
        assert net.layers[0].weights.dtype == np.float32


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((2, 4), np.float32)
        loss, d = softmax_cross_entropy(logits, np.array([0, 3]))
        assert loss == pytest.approx(np.log(4.0), rel=1e-6)
        # gradient sums to zero per sample
        np.testing.assert_allclose(d.sum(axis=1), [0.0, 0.0], atol=1e-7)

    def test_confident_correct_prediction_has_small_loss(self):
        logits = np.array([[10.0, -10.0]], np.float32)
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-6

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((5, 7)).astype(np.float64)
        labels = rng.integers(0, 7, size=5)
        a, _ = softmax_cross_entropy(logits, labels)
        b, _ = softmax_cross_entropy(logits + 100.0, labels)
        assert a == pytest.approx(b, rel=1e-9)

    def test_gradient_at_logits_matches_fd(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, size=3)
        _, d = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                hi = logits.copy()
                hi[i, j] += eps
                lo = logits.copy()
                lo[i, j] -= eps
                fd = (softmax_cross_entropy(hi, labels)[0]
                      - softmax_cross_entropy(lo, labels)[0]) / (2 * eps)
                assert d[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestGradients:
    """Analytic backprop against central finite differences (float64 nets)."""

    def check(self, net, x, labels, rtol=1e-3):
        _, analytic, _ = forward_backward(net, x, labels)
        numeric = numeric_gradients(net, x, labels)
        for li, (a, n) in enumerate(zip(analytic, numeric)):
            for name in a:
                np.testing.assert_allclose(
                    a[name], n[name], rtol=rtol, atol=1e-7,
                    err_msg=f"layer {li} {name}")

    def test_dense_all_activations(self, rng):
        for act in ("relu", "elu", "sigmoid", "tanh", "identity"):
            net = small_mlp(rng, (5, 4, 3), activation=act, dtype=np.float64)
            x = rng.standard_normal((4, 5))
            self.check(net, x, rng.integers(0, 3, size=4))

    def test_conv_pool_all_activations(self, rng):
        for act in ("relu", "elu", "sigmoid", "tanh"):
            net = small_cnn(rng, activation=act, dtype=np.float64)
            x = rng.standard_normal((3, 2, 6, 6))
            self.check(net, x, rng.integers(0, 3, size=3))

    def test_strided_padded_conv(self, rng):
        net = small_cnn(rng, dtype=np.float64, pool=False, stride=(2, 2),
                        padding=(1, 1), in_shape=(2, 7, 7))
        x = rng.standard_normal((2, 2, 7, 7))
        self.check(net, x, rng.integers(0, 3, size=2))

    def test_masked_entries_get_zero_gradient(self, rng):
        net = small_mlp(rng, (6, 5, 3), dtype=np.float64)
        mask_pairs(net.layers[0], 2, [0, 3, 6])
        x = rng.standard_normal((4, 6))
        _, grads, _ = forward_backward(net, x, rng.integers(0, 3, size=4))
        assert np.all(grads[0]["weights"][2, [0, 3]] == 0.0)
        assert grads[0]["bias"][2] == 0.0
        # a conv layer: one masked kernel (filter 1, input channel 0) and
        # the bias of filter 2
        net = small_cnn(rng, dtype=np.float64)
        conv = net.layers[0]
        mask_pairs(conv, 1, [0])
        mask_pairs(conv, 2, [conv.fan_in])
        x = rng.standard_normal((4, 2, 6, 6))
        _, grads, _ = forward_backward(net, x, rng.integers(0, 3, size=4))
        dk, db = grads[0]["kernels"], grads[0]["bias"]
        assert not dk[1, 0].any() and dk[1, 1].all() and dk[2].all()
        assert db[2] == 0.0 and db[[0, 1]].all()


def full_backward(net, x, labels):
    """Every layer's gradients from a backward pass that runs to the input."""
    a, caches = net.first_layer_input(x), []
    for layer in net.layers:
        a, cache = layer.forward(a, with_cache=True)
        caches.append(cache)
    _, d = softmax_cross_entropy(a, labels)
    grads = []
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        d, g = layer.backward(cache, d)
        grads.append(g)
    return grads[::-1]


class TestBackwardStopsAtFirstParameters:
    @pytest.mark.parametrize("model", ["lenet5", "lenet300100"])
    def test_gradient_bytes(self, rng, model):
        net = build_network(model, (1, 28, 28), 10)
        init_params(net, 3)
        mask_pairs(net.layers[-1], 0, [1, 2])
        x = rng.standard_normal((8, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        _, grads, _ = forward_backward(net, x, labels)
        ref = full_backward(net, x, labels)
        assert len(grads) == len(net.layers)
        for li, (g, r) in enumerate(zip(grads, ref)):
            assert g.keys() == r.keys(), f"layer {li}"
            for name in g:
                assert g[name].tobytes() == r[name].tobytes(), \
                    f"layer {li} {name}"

    def test_first_layer_skips_input_gradient(self, rng):
        for layer, x in ((random_dense(rng, 5, 4), rng.standard_normal((3, 5))),
                         (random_conv(rng, 2, 3, 3),
                          rng.standard_normal((2, 6, 6, 3)))):
            y, cache = layer.forward(x.astype(np.float32), with_cache=True)
            dx, grads = layer.backward(cache, np.ones_like(y),
                                       input_grad=False)
            assert dx is None
            for name, g in layer.backward(cache, np.ones_like(y))[1].items():
                assert grads[name].tobytes() == g.tobytes()


class TestTrainLoop:
    def test_learns_separable_blobs(self):
        ds = synth_dataset(1, 400, 3, dim=8)
        test = synth_dataset(1, 200, 3, dim=8, split=1)
        rng = np.random.default_rng(0)
        net = small_mlp(rng, (8, 16, 3))
        init_params(net, 0)
        cfg = OptimizerConfig(kind="adam", epochs=30, batch_size=32,
                              lr_schedule=[LrSpan(1, 30, 1e-2)])
        train(net, ds.images.reshape(400, 8), ds.labels, cfg, seed=1)
        acc = evaluate(net, test.images.reshape(200, 8), test.labels)
        assert acc >= 0.99

    def test_deterministic_given_seed(self, rng):
        ds = synth_dataset(3, 120, 2, dim=6)
        nets = []
        for _ in range(2):
            net = small_mlp(np.random.default_rng(5), (6, 8, 2))
            init_params(net, 4)
            cfg = OptimizerConfig(kind="sgd", epochs=3, batch_size=16,
                                  lr_schedule=[LrSpan(1, 3, 1e-2)])
            train(net, ds.images.reshape(120, 6), ds.labels, cfg, seed=9)
            nets.append(net)
        for la, lb in zip(nets[0].layers, nets[1].layers):
            for name, p in la.params().items():
                np.testing.assert_array_equal(p, lb.params()[name])

    def test_divergence_raises(self, rng):
        # identity hidden layers so weights compound multiplicatively and
        # overflow; relu can leave the loss huge but finite forever
        ds = synth_dataset(6, 64, 2, dim=6)
        net = small_mlp(rng, (6, 8, 2), activation="identity")
        init_params(net, 1)
        cfg = OptimizerConfig(kind="sgd", epochs=5, batch_size=16,
                              lr_schedule=[LrSpan(1, 5, 1e18)])
        with pytest.raises(TrainingError), np.errstate(all="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            train(net, ds.images.reshape(64, 6), ds.labels, cfg, seed=0)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    def test_masks_respected_through_training(self, rng, kind, model):
        """Masked entries stay 0 under weight decay, in the live subnetwork
        and in the dead units it leaves out; the other entries move."""
        if model == "mlp":
            net = small_mlp(rng, (10, 12, 9, 3))
        else:
            net = small_cnn(rng, in_shape=(2, 8, 8), c_mid=6)
        cut_units(rng, net)
        assert Subnetwork(net).outside.size
        before = net.clone()
        x = rng.standard_normal((64, *net.input_shape)).astype(np.float32)
        cfg = OptimizerConfig(kind=kind, epochs=3, batch_size=16,
                              weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 3, 1e-2)])
        train(net, x, rng.integers(0, 3, size=64), cfg, seed=3)
        assert_every_unmasked_entry_moved(net, before)

    def test_epoch_log_callback(self, rng):
        ds = synth_dataset(8, 64, 2, dim=6)
        net = small_mlp(rng, (6, 4, 2))
        init_params(net, 1)
        cfg = OptimizerConfig(kind="sgd", epochs=2, batch_size=32,
                              lr_schedule=[LrSpan(1, 2, 1e-2)])
        seen = []
        train(net, ds.images.reshape(64, 6), ds.labels, cfg, seed=0,
              log=seen.append)
        assert [e["epoch"] for e in seen] == [1, 2]
        assert all(np.isfinite(e["loss"]) for e in seen)
