"""The live subnetwork: which targets it drops, the compact copy, and
training and evaluation on it.

The compact copy's products reduce over fewer terms than the network's, so
its values agree with the network's to rounding, not in bits: the gradient
oracle runs in float64 against a tolerance fixed from that dtype. What the
copy leaves out never sees data, so those entries are compared in bits.
"""

import numpy as np
import pytest

from prune_relief import (LrSpan, Optimizer, OptimizerConfig, build_network,
                          compression_stats, evaluate, forward_backward,
                          init_params, train)
from prune_relief.network import Network, Subnetwork
from tests.conftest import (assert_every_unmasked_entry_moved, cut_units,
                            flat_grads, mask_pairs, small_cnn, small_mlp,
                            tensors)

# float64 gradients that differ only in the order of their sums; relative
# to the largest entry of each tensor
GRAD_TOL = 1e4 * np.finfo(np.float64).eps


def lenet5(rng, dtype=np.float32):
    net = build_network("lenet5", (1, 28, 28), 10, "relu")
    init_params(net, int(rng.integers(1 << 30)))
    if dtype == np.float32:
        return net
    # the parameter-free layers carry over as they are; astype shares the
    # masks read-only, and clone gives the copy masks of its own to cut
    return Network([l.astype(dtype).clone() if l.params() else l
                    for l in net.layers],
                   net.input_shape, net.classes)


NETS = {
    "mlp": lambda rng, dt: small_mlp(rng, (12, 10, 9, 8, 4), "relu", dt),
    "mlp_tanh": lambda rng, dt: small_mlp(rng, (12, 10, 9, 4), "tanh", dt),
    "cnn": lambda rng, dt: small_cnn(rng, "relu", dt, in_shape=(3, 8, 8),
                                     c_mid=6, classes=4),
    "lenet5": lenet5,
}


def batch(rng, net, n):
    x = rng.standard_normal((n, *net.input_shape))
    return x, rng.integers(0, net.classes, n)


def scattered(sub, grads):
    """The copy's gradients in the network's tensor shapes, 0 elsewhere."""
    out = []
    for i, (layer, g) in enumerate(zip(sub.full.layers, grads)):
        full = {name: np.zeros_like(p) for name, p in layer.params().items()}
        if g:
            rows, cols = sub.keep[i]
            for (name, f), kept in zip(full.items(), (np.ix_(rows, cols), rows)):
                f[kept] = g[name]
        out.append(full if g else {})
    return out


def left_out(sub):
    """(layer index, tensor name, bool array) of the unmasked entries outside
    the copy: the oracle of the entries ``Subnetwork.outside`` packs."""
    out = []
    for i, (rows, cols) in sub.keep.items():
        layer = sub.full.layers[i]
        for (name, p), mask, kept in zip(layer.params().items(),
                                         layer.param_masks().values(),
                                         (np.ix_(rows, cols), rows)):
            inside = np.zeros(p.shape, dtype=bool)
            inside[kept] = True
            out.append((i, name,
                        (np.broadcast_to(mask, p.shape) != 0) & ~inside))
    return out


def kept(sub, i):
    """The rows and columns of layer ``i`` that ``sub`` keeps, as lists."""
    return tuple(np.flatnonzero(m).tolist() for m in sub.keep[i])


class TestLiveness:
    def test_dense_hand_example(self):
        net = small_mlp(np.random.default_rng(0), (3, 4, 3, 2))
        first, second, last = (net.layers[i] for i in (0, 1, 2))
        mask_pairs(second, np.arange(3)[:, None], [[1]])  # unit 1: dead-end
        mask_pairs(first, 2, np.arange(4))  # unit 2: input-less
        mask_pairs(last, np.arange(2)[:, None], [[0]])  # unit 0 of layer 1
        live = net.liveness()
        assert live[0].dead_end.tolist() == [False, True, False, False]
        assert live[0].inputless.tolist() == [False, False, True, False]
        assert live[0].live.tolist() == [True, False, False, True]
        assert live[1].dead_end.tolist() == [True, False, False]
        assert not live[2].dead_end.any() and not live[2].inputless.any()
        sub = Subnetwork(net)
        assert kept(sub, 0) == ([0, 3], [0, 1, 2])
        assert kept(sub, 1) == ([1, 2], [0, 3])
        assert kept(sub, 2) == ([0, 1], [1, 2])
        stats = compression_stats(net).per_layer
        assert [(e["dead_end_targets"], e["inputless_targets"],
                 e["live_targets"]) for e in stats] == \
            [(1, 1, 2), (1, 0, 2), (0, 0, 2)]

    def test_conv_channels_through_pool_and_flatten(self):
        net = small_cnn(np.random.default_rng(1), in_shape=(2, 6, 6), c_mid=3,
                        k=3, classes=2)
        fc = net.layers[3]
        per = net.liveness()[0].block  # 2x2 pooled map per channel
        assert per == 4
        # channel 1's feature block is unread except one column: still live
        mask_pairs(fc, np.arange(2)[:, None],
                   np.arange(per, 2 * per - 1)[None, :])
        # channel 2's block is wholly masked: dead-end
        mask_pairs(fc, np.arange(2)[:, None],
                   np.arange(2 * per, 3 * per)[None, :])
        live = net.liveness()[0]
        assert live.dead_end.tolist() == [False, False, True]
        sub = Subnetwork(net)
        assert kept(sub, 3)[1] == list(range(2 * per))
        assert sub.net.layers[0].kernels.shape == (2, 2, 3, 3)
        assert sub.net.layers[3].weights.shape == (2, 2 * per)

    def test_lenet5_blocks_and_a_channel_between_convs(self):
        net = build_network("lenet5", (1, 28, 28), 10)
        # conv 1 -> pool -> conv 2, conv 2 -> 4x4 pool -> Flatten -> fc 1,
        # fc 1 -> fc 2, and the logits
        assert {i: v.block for i, v in net.liveness().items()} == \
            {0: 1, 2: 16, 5: 1, 6: 1}
        conv2 = net.layers[2]
        mask_pairs(conv2, np.arange(conv2.fan_out)[:, None], [[3]])
        live = net.liveness()[0]
        assert np.flatnonzero(live.dead_end).tolist() == [3]
        assert not live.inputless.any()
        sub = Subnetwork(net)
        assert sub.net.layers[0].kernels.shape == (19, 1, 5, 5)
        assert sub.net.layers[2].kernels.shape == (50, 19, 5, 5)

    def test_sigmoid_targets_without_inputs_stay(self):
        net = small_mlp(np.random.default_rng(2), (4, 5, 3), "sigmoid")
        mask_pairs(net.layers[0], 1, np.arange(5))
        assert not net.liveness()[0].inputless.any()
        assert 1 in kept(Subnetwork(net), 0)[0]

    def test_a_boundary_keeps_one_target(self):
        net = small_mlp(np.random.default_rng(3), (4, 5, 3))
        mask_pairs(net.layers[1], np.arange(3)[:, None], np.arange(5)[None, :])
        assert not net.liveness()[0].live.any()
        sub = Subnetwork(net)
        assert sub.net.layers[0].weights.shape == (1, 4)
        x = np.random.default_rng(4).standard_normal((6, 4)).astype(np.float32)
        np.testing.assert_array_equal(sub.net.forward(x), net.forward(x))


class TestGradientOracle:
    @pytest.mark.parametrize("name", ["mlp", "mlp_tanh", "cnn", "lenet5",
                                      "sigmoid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compact_gradients_equal_full(self, name, seed):
        rng = np.random.default_rng(seed)
        if name == "sigmoid":
            net = small_mlp(rng, (12, 10, 9, 4), "sigmoid", np.float64)
        else:
            net = NETS[name](rng, np.float64)
        cut_units(rng, net)
        live = net.liveness()
        hidden = net.prunable_indices()[:-1]
        assert all(live[i].dead_end.any() for i in hidden)
        if name == "sigmoid":  # input-less sigmoid targets output 0.5
            assert not any(live[i].inputless.any() for i in hidden)
        else:
            assert all(live[i].inputless.any() for i in hidden)
        sub = Subnetwork(net)
        x, labels = batch(rng, net, 5)
        loss, full, _ = forward_backward(net, x, labels)
        loss_c, compact, _ = forward_backward(sub.net, x, labels)
        assert loss_c == pytest.approx(loss, rel=GRAD_TOL)
        for g, c in zip(full, scattered(sub, compact)):
            assert g.keys() == c.keys()
            for k in g:
                np.testing.assert_array_equal(g[k] == 0, c[k] == 0)
                np.testing.assert_allclose(
                    c[k], g[k], rtol=0, atol=GRAD_TOL * np.abs(g[k]).max())


class TestTraining:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("name", ["mlp", "cnn"])
    def test_left_out_entries_match_the_full_optimizer(self, kind, name):
        rng = np.random.default_rng(5)
        net = cut_units(rng, NETS[name](rng, np.float32))
        ref, start = net.clone(), net.clone()
        sub = Subnetwork(net)
        cfg = OptimizerConfig(kind=kind, weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 1, 1e-2)])
        full_opt = Optimizer(tensors(ref), cfg)
        # the left-out entries: one more tensor, with a zero gradient
        opt = Optimizer(tensors(sub.net) + [sub.outside], cfg)
        for _ in range(30):
            x, labels = batch(rng, net, 8)
            x = x.astype(np.float32)
            _, grads, _ = forward_backward(ref, x, labels)
            full_opt.apply(flat_grads(grads), 1e-2)
            _, grads, _ = forward_backward(sub.net, x, labels)
            opt.apply(flat_grads(grads) + [0.0], 1e-2)
        sub.scatter()
        entries = left_out(sub)
        assert sum(int(out.sum()) for *_, out in entries) == sub.outside.size > 0
        for i, name, out in entries:
            got = net.layers[i].params()[name][out]
            assert got.tobytes() == ref.layers[i].params()[name][out].tobytes()
            # the decay moved every one of them
            assert (got != start.layers[i].params()[name][out]).all()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("name", ["mlp", "cnn", "lenet5"])
    def test_nothing_dead_trains_like_the_full_network(self, kind, name):
        """With no target dropped, ``train`` gives the bytes of the loop on
        the full network that it replaced."""
        rng = np.random.default_rng(6)
        net = NETS[name](rng, np.float32)
        for li in net.prunable_indices():  # masked entries, no dead target
            layer = net.layers[li]
            drop = rng.random((layer.fan_out, layer.fan_in + 1)) < 0.2
            drop[:, 0] = False
            layer.apply_mask(~drop)
        assert all(v.live.all() for v in net.liveness().values())
        ref = net.clone()
        x, labels = batch(rng, net, 24)
        x = x.astype(np.float32)
        cfg = OptimizerConfig(kind=kind, epochs=2, batch_size=8,
                              weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 2, 1e-2)])
        train(net, x, labels, cfg, seed=3)
        opt = Optimizer(tensors(ref), cfg)
        shuffle = np.random.default_rng(3)
        for epoch in (1, 2):
            perm = shuffle.permutation(24)
            for start in range(0, 24, 8):
                idx = perm[start:start + 8]
                _, grads, _ = forward_backward(ref, x[idx], labels[idx])
                opt.apply(flat_grads(grads), cfg.lr_at(epoch))
        assert [p.tobytes() for l in net.layers for p in l.params().values()] \
            == [p.tobytes() for l in ref.layers for p in l.params().values()]

    def test_train_writes_back_and_keeps_masks(self):
        rng = np.random.default_rng(7)
        net = cut_units(rng, NETS["cnn"](rng, np.float32))
        before = net.clone()
        x, labels = batch(rng, net, 32)
        cfg = OptimizerConfig(kind="adam", epochs=2, batch_size=8,
                              weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 2, 1e-2)])
        assert Subnetwork(net).outside.size
        train(net, x.astype(np.float32), labels, cfg, seed=1)
        assert_every_unmasked_entry_moved(net, before)
        assert [m.tobytes() for l in net.layers
                for m in l.stored_masks().values()] == \
            [m.tobytes() for l in before.layers
             for m in l.stored_masks().values()]

    def test_an_interrupted_train_still_writes_back(self):
        rng = np.random.default_rng(9)
        net = cut_units(rng, NETS["mlp"](rng, np.float32))
        before = net.clone()
        x, labels = batch(rng, net, 16)
        cfg = OptimizerConfig(kind="sgd", epochs=2, batch_size=8,
                              weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 2, 1e-2)])

        def stop(_):
            raise RuntimeError("stop")
        with pytest.raises(RuntimeError, match="stop"):
            train(net, x.astype(np.float32), labels, cfg, seed=1, log=stop)
        assert_every_unmasked_entry_moved(net, before)


class TestEvaluate:
    @pytest.mark.parametrize("name", ["mlp", "cnn", "lenet5"])
    def test_same_accuracy_as_the_full_network(self, name):
        rng = np.random.default_rng(8)
        net = cut_units(rng, NETS[name](rng, np.float32))
        x, labels = batch(rng, net, 300)
        x = x.astype(np.float32)
        logits = net.forward(x)
        labels = np.where(rng.random(300) < 0.5, logits.argmax(axis=1), labels)
        full = float(np.mean(logits.argmax(axis=1) == labels))
        assert evaluate(net, x, labels, batch_size=64) == full
        compact = Subnetwork(net).net.forward(x)
        np.testing.assert_allclose(
            compact, logits, rtol=0,
            atol=1e3 * np.finfo(np.float32).eps * np.abs(logits).max())
