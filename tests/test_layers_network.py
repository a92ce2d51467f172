"""Layer forward semantics, masking, and network-level evaluation."""

import numpy as np
import pytest

from prune_relief import (ConfigError, ConvLayer, DenseLayer, DimensionError,
                          Flatten, MaxPool2D, Network, build_network, im2col,
                          init_params, load_model, sample_first, sample_last,
                          save_model)
from tests.conftest import (mask_pairs, random_conv, random_dense, small_cnn,
                            small_mlp)


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


class TestCopies:
    @pytest.mark.parametrize("build", [lambda r: random_dense(r, 5, 4),
                                       lambda r: random_conv(r, 3, 4, 3)],
                             ids=["dense", "conv"])
    def test_astype_keeps_the_mask_dtype(self, rng, build):
        layer = build(rng)
        mask_pairs(layer, 1, [0, 2])
        wide = layer.astype(np.float64)
        for p, q in zip(wide.params().values(), layer.params().values()):
            assert p.dtype == np.float64
            np.testing.assert_array_equal(p, q)
        for m, n in zip(wide.stored_masks().values(),
                        layer.stored_masks().values()):
            assert m.dtype == bool and m.tobytes() == n.tobytes()
            # the copy shares the masks and cannot write them
            assert np.shares_memory(m, n) and not m.flags.writeable
        back = wide.astype(np.float32)
        assert [p.tobytes() for p in back.params().values()] == \
            [p.tobytes() for p in layer.params().values()]

    def test_masks_are_bool_after_every_copy(self, rng, tmp_path):
        net = build_network("cnn:conv3k3,pool2,fc5,fc3", (2, 8, 8), 3)
        init_params(net, 0)
        for li in net.prunable_indices():
            mask_pairs(net.layers[li], 1, [0, 2])
        save_model(net, tmp_path)
        rows, cols = np.array([0, 1]), np.array([0, 1])
        for each in (net, load_model(tmp_path), net.clone()):
            for layer in (each.layers[i] for i in each.prunable_indices()):
                for part in (layer, layer.take(rows, cols),
                             layer.astype(np.float64)):
                    for m in part.stored_masks().values():
                        assert m.dtype == bool and m.itemsize == 1
                        assert m.flags["C_CONTIGUOUS"]

    def test_take_keeps_the_block(self, rng):
        layer = random_conv(rng, 3, 4, 3)
        mask_pairs(layer, 2, [1, 3])
        part = layer.take(np.array([0, 2]), np.array([1, 2]))
        np.testing.assert_array_equal(part.kernels,
                                      layer.kernels[[0, 2]][:, [1, 2]])
        np.testing.assert_array_equal(part.bias, layer.bias[[0, 2]])
        np.testing.assert_array_equal(part.kernel_mask, [[1, 1], [0, 1]])
        np.testing.assert_array_equal(part.bias_mask, [1, 0])
        for a in (*part.params().values(), *part.stored_masks().values()):
            assert a.flags["C_CONTIGUOUS"]
        assert (part.stride, part.padding, part.activation) == \
            (layer.stride, layer.padding, layer.activation)


class TestMasking:
    def test_all_masked_zero_bias_gives_zero_logits(self, rng):
        net = small_mlp(rng, (5, 4, 3))
        for li in net.prunable_indices():
            layer = net.layers[li]
            for j in range(layer.fan_out):
                mask_pairs(layer, j, np.arange(layer.fan_in + 1))
        out = net.forward(rng.standard_normal((6, 5)).astype(np.float32))
        np.testing.assert_array_equal(out, np.zeros((6, 3), np.float32))

    def test_bias_only_mask_shifts_preactivation(self):
        layer = DenseLayer([[2.0, -1.0]], [0.5], "identity")
        x = np.array([[1.0, 1.0]], np.float32)
        before = layer.forward(x)[0, 0]
        mask_pairs(layer, 0, [2])  # index fan_in addresses the bias
        after = layer.forward(x)[0, 0]
        assert before - after == pytest.approx(0.5)
        assert layer.bias[0] == 0.0

    def test_empty_contributor_list_is_noop(self, rng):
        layer = random_dense(rng, 4, 2)
        w = layer.weights.copy()
        mask_pairs(layer, 1, [])
        np.testing.assert_array_equal(layer.weights, w)
        np.testing.assert_array_equal(layer.weight_mask, np.ones((2, 4)))

    @pytest.mark.parametrize("grid", [
        np.ones((3, 5), bool), np.ones((2, 6), bool), np.ones((2, 4), bool),
        np.ones(10, bool), np.ones((2, 5))],
        ids=["target-too-many", "contributor-too-many", "no-bias-column",
             "flat", "float"])
    def test_grid_must_be_a_boolean_layer_grid(self, rng, grid):
        layer = random_dense(rng, 4, 2)
        before = [a.copy() for a in (*layer.params().values(),
                                     *layer.stored_masks().values())]
        with pytest.raises(DimensionError):
            layer.apply_mask(grid)
        after = (*layer.params().values(), *layer.stored_masks().values())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_dropped_entries_become_positive_zero(self, rng, kind):
        layer = random_dense(rng, 6, 5) if kind == "dense" \
            else random_conv(rng, 6, 5, 2)
        weights, bias = layer.params().values()
        # negative entries, and -0.0 ones as training can leave them
        np.negative(np.abs(weights), out=weights)
        weights[:, 1] = -0.0
        np.negative(np.abs(bias), out=bias)
        bias[1] = -0.0
        keep = rng.random((5, 7)) < 0.5
        keep[0] = True  # its -0.0 entries stay as they are
        keep[1] = False  # its -0.0 entries and bias are dropped
        old_w, old_b = weights.copy(), bias.copy()
        layer.apply_mask(keep)
        w_keep = keep[:, :-1].reshape(5, 6, *(1,) * (weights.ndim - 2))
        w_keep = np.broadcast_to(w_keep, weights.shape)
        for new, old, k in ((weights, old_w, w_keep),
                            (bias, old_b, keep[:, -1])):
            bits, old_bits = new.view(np.uint32), old.view(np.uint32)
            assert not bits[~k].any()  # +0.0, never -0.0
            np.testing.assert_array_equal(bits[k], old_bits[k])
        for m, k in zip(layer.stored_masks().values(),
                        (keep[:, :-1], keep[:, -1])):
            assert m.dtype == bool and m.tobytes() == k.tobytes()

    def test_dense_weight_gradient_masks_only_dropped_entries(self, rng):
        layer = random_dense(rng, 6, 4, activation="identity")
        x = rng.standard_normal((9, 6)).astype(np.float32)
        x[:, 0] = -0.0  # a column of signed-zero products
        d_out = rng.standard_normal((9, 4)).astype(np.float32)
        d_out[3, 2] = np.nan
        raw = d_out.T @ x
        # every entry kept: dW has the bytes of the product itself
        _, grads = layer.backward((x, x @ layer.weights.T), d_out)
        assert grads["weights"].tobytes() == raw.tobytes()
        # one dropped pair: that entry alone becomes ±0, as the masked
        # product gives it
        mask_pairs(layer, 1, [2])
        _, grads = layer.backward((x, x @ layer.weights.T), d_out)
        dw = grads["weights"]
        assert dw[1, 2] == 0 and np.signbit(dw[1, 2]) == np.signbit(raw[1, 2])
        assert dw.tobytes() == (raw * layer.weight_mask).tobytes()

    def test_conv_kernel_gradient_masks_only_dropped_pairs(self, rng):
        layer = random_conv(rng, 2, 3, 2, activation="identity")
        x = rng.standard_normal((2, 5, 5, 4)).astype(np.float32)
        x[1] = -0.0  # an input channel of signed-zero products
        d_out = rng.standard_normal((3, 4, 4, 4)).astype(np.float32)
        d_out[2, 1, 1, 0] = np.nan  # every tap of filter 2 reads it
        cols = im2col(x, 2, (1, 1), (0, 0))
        raw = (cols @ d_out.reshape(3, -1).T).T.reshape(layer.kernels.shape)
        assert np.isnan(raw[2]).all()
        # every pair kept: dK has the bytes of the product itself. The
        # product's sums give +0.0 for signed-zero products, so the rule
        # that the skipped multiply relied on is checked on its own too:
        # x * True is x, NaN and -0.0 included
        _, grads = layer.backward(layer.forward(x, with_cache=True)[1], d_out)
        assert grads["kernels"].tobytes() == raw.tobytes()
        special = np.array([np.nan, -0.0, -np.inf, 1.5], np.float32)
        assert (special * np.ones(4, bool)).tobytes() == special.tobytes()
        # one dropped pair: its kernel's taps alone become ±0, the sign of
        # the product's
        mask_pairs(layer, 0, [0])
        _, grads = layer.backward(layer.forward(x, with_cache=True)[1], d_out)
        dk = grads["kernels"]
        assert not dk[0, 0].any()
        np.testing.assert_array_equal(np.signbit(dk[0, 0]),
                                      np.signbit(raw[0, 0]))
        kept = np.ones(dk.shape, dtype=bool)
        kept[0, 0] = False
        assert dk[kept].tobytes() == raw[kept].tobytes()

    def test_masked_entries_are_exact_zeros(self, rng):
        layer = random_dense(rng, 10, 6)
        mask_pairs(layer, 3, [1, 4, 7, 10])
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
        mask_pairs(layer, [0, 2, 2, 1], [1, 0, 4, 4])
        kept = np.ones((3, 4), np.float32)
        kept[0, 1] = kept[2, 0] = 0
        np.testing.assert_array_equal(layer.weight_mask, kept)
        np.testing.assert_array_equal(layer.weights, w * kept)
        np.testing.assert_array_equal(layer.bias_mask, [1, 0, 0])
        np.testing.assert_array_equal(layer.bias, [b[0], 0, 0])
        with pytest.raises(DimensionError):
            layer.apply_mask(np.ones((4, 5), dtype=bool))
        # a (2, 1) column of filters broadcasts against two contributors:
        # channel 1 and the bias (index 3) of filters 0 and 2
        conv = random_conv(rng, 3, 4, 2)
        k = conv.kernels.copy()
        mask_pairs(conv, np.array([[0], [2]]), [1, 3])
        assert np.all(conv.kernels[[0, 2], 1] == 0.0)
        np.testing.assert_array_equal(conv.kernel_mask[:, 1], [0, 1, 0, 1])
        np.testing.assert_array_equal(conv.bias_mask, [0, 1, 0, 1])
        np.testing.assert_array_equal(conv.kernels[[1, 3]], k[[1, 3]])

    def test_whole_layer_matches_target_by_target(self, rng):
        for layer in (random_dense(rng, 7, 5), random_conv(rng, 3, 4, 2)):
            drop = rng.random((layer.fan_out, layer.fan_in + 1)) < 0.4
            bulk, single = layer.clone(), layer.clone()
            bulk.apply_mask(~drop)
            for j in range(layer.fan_out):
                mask_pairs(single, j, np.flatnonzero(drop[j]))
            for name, p in bulk.params().items():
                assert p.tobytes() == single.params()[name].tobytes()
            for name, m in bulk.stored_masks().items():
                assert m.tobytes() == single.stored_masks()[name].tobytes()

    def test_fully_masked_conv_filter_is_dead(self, rng):
        layer = random_conv(rng, 3, 4, 2)
        mask_pairs(layer, 2, np.arange(4))  # 3 channels + bias
        x = rng.standard_normal((3, 6, 6, 5)).astype(np.float32)  # (C, H, W, N)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[2], np.zeros((5, 5, 5), np.float32))
        # other filters unaffected by the dead one
        assert np.any(out[0] != 0)


class TestPoolFlatten:
    def test_maxpool_hand_example(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)  # (C, H, W, N)
        out = MaxPool2D((2, 2), (2, 2)).forward(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_maxpool_window_too_large(self):
        with pytest.raises(DimensionError):
            MaxPool2D((3, 3)).forward(np.zeros((1, 2, 2, 1), np.float32))

    def test_flatten_round_trip(self, rng):
        x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        layer = Flatten()
        y, cache = layer.forward(x, with_cache=True)
        assert y.shape == (3, 40)
        dx, _ = layer.backward(cache, y)
        np.testing.assert_array_equal(dx, x)


class TestNetworkForward:
    @staticmethod
    def layer_inputs(net, x):
        """Each layer's input and the logits, from running the layers one
        by one."""
        inputs = [net.first_layer_input(x)]
        for layer in net.layers:
            inputs.append(layer.forward(inputs[-1]))
        out = inputs.pop()
        return inputs, sample_first(out) if out.ndim == 4 else out

    @pytest.mark.parametrize("build,x_shape", [
        (lambda rng: small_mlp(rng, (6, 5, 4, 2)), (3, 6)),
        (lambda rng: small_cnn(rng), (4, 2, 6, 6)),
        (lambda rng: init_params(build_network("lenet5", (1, 28, 28), 10), 2),
         (7, 1, 28, 28))])
    def test_kept_inputs_match_layer_by_layer_forward(self, rng, build,
                                                      x_shape):
        net = build(rng)
        x = rng.standard_normal(x_shape).astype(np.float32)
        want, want_logits = self.layer_inputs(net, x)
        logits, kept = net.forward(x, keep=range(len(net.layers)))
        assert logits.tobytes() == want_logits.tobytes()
        assert net.forward(x).tobytes() == want_logits.tobytes()
        for li, inputs in kept.items():
            assert inputs.shape == want[li].shape
            assert inputs.tobytes() == want[li].tobytes()

    @pytest.mark.parametrize("keep", [[], [0], [2], [0, 3], [3, 1, 0]])
    def test_keeps_exactly_the_named_layers(self, rng, keep):
        net = small_cnn(rng)  # conv, pool, flatten, dense
        x = rng.standard_normal((4, 2, 6, 6)).astype(np.float32)
        _, kept = net.forward(x, keep=keep)
        assert sorted(kept) == sorted(keep)
        if 0 in keep:
            # the first layer is a conv layer, so its input is (C, H, W, N)
            np.testing.assert_array_equal(kept[0], sample_last(x))

    @pytest.mark.parametrize("keep", [[4], [-1], [0, 9]])
    def test_keep_outside_the_network(self, rng, keep):
        net = small_cnn(rng)
        with pytest.raises(IndexError):
            net.forward(rng.standard_normal((4, 2, 6, 6)).astype(np.float32),
                        keep=keep)

    def test_spatial_exit_is_batch_first(self, rng):
        conv = random_conv(rng, 2, 3, 3)
        net = Network([conv], (2, 6, 6), 3)
        x = rng.standard_normal((4, 2, 6, 6)).astype(np.float32)
        out, kept = net.forward(x, keep=[0])
        assert out.shape == (4, 3, 4, 4) and out.flags.c_contiguous
        np.testing.assert_array_equal(out, sample_first(conv.forward(sample_last(x))))
        np.testing.assert_array_equal(kept[0], sample_last(x))

    def test_wrong_sample_shape(self, rng):
        net = small_mlp(rng, (4, 3))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 5), np.float32))

    @pytest.mark.parametrize("model", ["lenet300100", "lenet5",
                                       "mlp:784-5-10", "cnn:conv2k5,fc10"])
    def test_built_networks_emit_logits(self, model):
        # build_network is what makes a network emit raw logits: its last
        # layer is dense, with identity activation and one unit per class
        last = build_network(model, (1, 28, 28), 10).layers[-1]
        assert isinstance(last, DenseLayer) and last.activation == "identity"
        assert last.fan_out == 10

    @pytest.mark.parametrize("input_shape", [(784,), (1, 28, 28)])
    def test_mlp_is_its_fc_parts(self, input_shape):
        # an mlp string builds the network of its fc parts; a cnn string
        # needs (channels, h, w) samples, so it always reads (1, 28, 28)
        mlp = build_network("mlp:784-300-100-10", input_shape, 10)
        cnn = build_network("cnn:fc300,fc100,fc10", (1, 28, 28), 10)
        assert len(mlp.layers) == len(cnn.layers) == 4
        for a, b in zip(mlp.layers, cnn.layers):
            assert a.kind == b.kind
            assert getattr(a, "activation", None) == \
                getattr(b, "activation", None)
            assert {k: v.shape for k, v in a.params().items()} == \
                {k: v.shape for k, v in b.params().items()}
        assert [l.activation for l in mlp.layers[1:]] == \
            ["relu", "relu", "identity"]

    @pytest.mark.parametrize("model", ["mlp:784-5-4", "cnn:conv2k5,fc4"])
    def test_logits_must_match_classes(self, model):
        with pytest.raises(ConfigError, match="emits 4 logits but the "
                                              "dataset has 10 classes"):
            build_network(model, (1, 28, 28), 10)

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
