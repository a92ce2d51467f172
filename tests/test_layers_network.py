"""Layer forward semantics, masking, and network-level evaluation."""

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, DimensionError, Flatten,
                          MaxPool2D, Network)
from tests.conftest import random_conv, random_dense, small_cnn, small_mlp


class TestDenseForward:
    def test_identity_weights_pass_inputs_through(self):
        layer = DenseLayer(np.eye(3, dtype=np.float32), np.zeros(3), "identity")
        net = Network([layer], (3,), 3)
        x = np.array([[0.5, -1.0, 2.0]], np.float32)
        np.testing.assert_array_equal(net.forward(x), x)

    def test_relu_hand_example(self):
        # relu(2*1 - 1*0 + 0.5) = 2.5 passed through an identity head
        hidden = DenseLayer([[2.0, -1.0]], [0.5], "relu")
        head = DenseLayer([[1.0]], [0.0], "identity")
        net = Network([hidden, head], (2,), 1)
        out = net.forward(np.array([[1.0, 0.0]], np.float32))
        assert out[0, 0] == pytest.approx(2.5)

    def test_negative_preactivation_clamped(self):
        hidden = DenseLayer([[2.0, -1.0]], [0.5], "relu")
        out = hidden.forward(np.array([[0.0, 1.0]], np.float32))
        assert out[0, 0] == 0.0

    def test_bad_fan_in(self):
        layer = DenseLayer(np.zeros((2, 3), np.float32), np.zeros(2))
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((1, 4), np.float32))

    def test_float32_stays_float32(self, rng):
        layer = random_dense(rng, 4, 3)
        out = layer.forward(rng.standard_normal((2, 4)).astype(np.float32))
        assert out.dtype == np.float32


class TestMasking:
    def test_all_masked_zero_bias_gives_zero_logits(self, rng):
        net = small_mlp(rng, (5, 4, 3))
        for li in net.prunable_indices():
            layer = net.layers[li]
            for j in range(layer.fan_out):
                layer.apply_mask(j, np.arange(layer.fan_in + 1))
        out = net.forward(rng.standard_normal((6, 5)).astype(np.float32))
        np.testing.assert_array_equal(out, np.zeros((6, 3), np.float32))

    def test_bias_only_mask_shifts_preactivation(self):
        layer = DenseLayer([[2.0, -1.0]], [0.5], "identity")
        x = np.array([[1.0, 1.0]], np.float32)
        before = layer.forward(x)[0, 0]
        layer.apply_mask(0, [2])  # index fan_in addresses the bias
        after = layer.forward(x)[0, 0]
        assert before - after == pytest.approx(0.5)
        assert layer.bias[0] == 0.0

    def test_empty_contributor_list_is_noop(self, rng):
        layer = random_dense(rng, 4, 2)
        w = layer.weights.copy()
        layer.apply_mask(1, [])
        np.testing.assert_array_equal(layer.weights, w)
        np.testing.assert_array_equal(layer.weight_mask, np.ones((2, 4)))

    def test_out_of_range_target(self, rng):
        layer = random_dense(rng, 4, 2)
        with pytest.raises(IndexError):
            layer.apply_mask(2, [0])

    def test_out_of_range_contributor(self, rng):
        layer = random_dense(rng, 4, 2)
        with pytest.raises(IndexError):
            layer.apply_mask(0, [5])

    def test_masked_entries_are_exact_zeros(self, rng):
        layer = random_dense(rng, 10, 6)
        layer.apply_mask(3, [1, 4, 7, 10])
        assert np.all(layer.weights[3, [1, 4, 7]] == 0.0)
        assert layer.bias[3] == 0.0
        assert np.all(layer.weight_mask[3, [1, 4, 7]] == 0.0)

    def test_constructor_rejects_masked_nonzero(self):
        with pytest.raises(ValueError):
            DenseLayer([[1.0, 2.0]], [0.0], "relu",
                       weight_mask=[[0.0, 1.0]], bias_mask=[1.0])

    def test_index_arrays_span_targets_and_bias(self, rng):
        layer = random_dense(rng, 4, 3)
        w, b = layer.weights.copy(), layer.bias.copy()
        # pairs (0, 1), (2, 0), and the biases (index 4) of targets 2 and 1
        layer.apply_mask([0, 2, 2, 1], [1, 0, 4, 4])
        kept = np.ones((3, 4), np.float32)
        kept[0, 1] = kept[2, 0] = 0
        np.testing.assert_array_equal(layer.weight_mask, kept)
        np.testing.assert_array_equal(layer.weights, w * kept)
        np.testing.assert_array_equal(layer.bias_mask, [1, 0, 0])
        np.testing.assert_array_equal(layer.bias, [b[0], 0, 0])
        with pytest.raises(IndexError):
            layer.apply_mask([0, 3], [0, 0])
        # a (2, 1) column of filters broadcasts against two contributors:
        # channel 1 and the bias (index 3) of filters 0 and 2
        conv = random_conv(rng, 3, 4, 2)
        k = conv.kernels.copy()
        conv.apply_mask(np.array([[0], [2]]), [1, 3])
        assert np.all(conv.kernels[[0, 2], 1] == 0.0)
        np.testing.assert_array_equal(conv.kernel_mask[:, 1], [0, 1, 0, 1])
        np.testing.assert_array_equal(conv.bias_mask, [0, 1, 0, 1])
        np.testing.assert_array_equal(conv.kernels[[1, 3]], k[[1, 3]])

    def test_whole_layer_matches_target_by_target(self, rng):
        for layer in (random_dense(rng, 7, 5), random_conv(rng, 3, 4, 2)):
            drop = rng.random((layer.fan_out, layer.fan_in + 1)) < 0.4
            bulk, single = layer.clone(), layer.clone()
            bulk.apply_mask(*np.nonzero(drop))
            for j in range(layer.fan_out):
                single.apply_mask(j, np.flatnonzero(drop[j]))
            for name, p in bulk.params().items():
                assert p.tobytes() == single.params()[name].tobytes()
            for name, m in bulk.stored_masks().items():
                assert m.tobytes() == single.stored_masks()[name].tobytes()

    def test_fully_masked_conv_filter_is_dead(self, rng):
        layer = random_conv(rng, 3, 4, 2)
        layer.apply_mask(2, np.arange(4))  # 3 channels + bias
        x = rng.standard_normal((5, 3, 6, 6)).astype(np.float32)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[:, 2], np.zeros((5, 5, 5), np.float32))
        # other filters unaffected by the dead one
        assert np.any(out[:, 0] != 0)


class TestPoolFlatten:
    def test_maxpool_hand_example(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2D((2, 2), (2, 2)).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_window_too_large(self):
        with pytest.raises(DimensionError):
            MaxPool2D((3, 3)).forward(np.zeros((1, 1, 2, 2), np.float32))

    def test_flatten_round_trip(self, rng):
        x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        layer = Flatten()
        y, cache = layer.forward(x, with_cache=True)
        assert y.shape == (3, 40)
        dx, _ = layer.backward(cache, y)
        np.testing.assert_array_equal(dx, x)


class TestNetworkForward:
    def test_capture_matches_plain_forward(self, rng):
        net = small_cnn(rng)
        x = rng.standard_normal((4, 2, 6, 6)).astype(np.float32)
        plain = net.forward(x)
        logits, trace = net.forward(x, capture=True)
        np.testing.assert_array_equal(plain, logits)
        assert len(trace.batches) == len(net.layers) + 1
        np.testing.assert_array_equal(trace.batches[0], x)
        np.testing.assert_array_equal(trace.logits, logits)

    def test_trace_entries_feed_next_layer(self, rng):
        net = small_mlp(rng, (6, 5, 4, 2))
        x = rng.standard_normal((3, 6)).astype(np.float32)
        _, trace = net.forward(x, capture=True)
        for li, layer in enumerate(net.layers):
            np.testing.assert_array_equal(layer.forward(trace.inputs_to(li)),
                                          trace.batches[li + 1])

    def test_list_of_samples_accepted(self, rng):
        net = small_mlp(rng, (4, 3))
        samples = [rng.standard_normal(4).astype(np.float32) for _ in range(5)]
        out = net.forward(samples)
        assert out.shape == (5, 3)

    def test_wrong_sample_shape(self, rng):
        net = small_mlp(rng, (4, 3))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 5), np.float32))

    def test_last_layer_must_emit_logits(self, rng):
        layer = random_dense(rng, 4, 3, activation="relu")
        with pytest.raises(ValueError):
            Network([layer], (4,), 3)

    def test_forward_never_mutates_params(self, rng):
        net = small_cnn(rng)
        before = [p.copy() for l in net.layers for p in l.params().values()]
        net.forward(rng.standard_normal((2, 2, 6, 6)).astype(np.float32))
        after = [p for l in net.layers for p in l.params().values()]
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_input_shape_propagation(self, rng):
        net = small_cnn(rng, in_shape=(2, 6, 6), c_mid=3, k=3)
        shapes = net.layer_input_shapes()
        assert shapes[0] == (2, 6, 6)
        assert shapes[1] == (3, 4, 4)  # after the conv
        assert shapes[2] == (3, 2, 2)  # after the pool
        assert shapes[3] == (12,)  # after flatten

    def test_clone_is_independent(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        twin = net.clone()
        twin.layers[0].weights[0, 0] = 99.0
        assert net.layers[0].weights[0, 0] != 99.0
