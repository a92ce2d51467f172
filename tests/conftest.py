"""Shared builders for randomized tests.

The finite-difference gradient oracle lives here, independent of the
package's backward pass: it perturbs raw parameter entries and re-runs the
forward loss only.
"""

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, Flatten, LayerDecisions,
                          MaxPool2D, Network, bounds, importance,
                          score_network, select_kept, softmax_cross_entropy)


def random_dense(rng, n_in, n_out, activation="relu", dtype=np.float32,
                 scale=1.0):
    w = rng.standard_normal((n_out, n_in)) * scale
    b = rng.standard_normal(n_out) * 0.1 * scale
    return DenseLayer(w.astype(dtype), b.astype(dtype), activation,
                      dtype=dtype)


def random_conv(rng, c_in, c_out, k, activation="relu", stride=(1, 1),
                padding=(0, 0), dtype=np.float32, scale=1.0):
    kk = rng.standard_normal((c_out, c_in, k, k)) * scale
    b = rng.standard_normal(c_out) * 0.1 * scale
    return ConvLayer(kk.astype(dtype), b.astype(dtype), activation,
                     stride, padding, dtype=dtype)


def small_mlp(rng, dims, activation="relu", dtype=np.float32):
    """Network over flat inputs: dims like (6, 5, 3); last layer is identity."""
    layers = []
    for a, b in zip(dims[:-2], dims[1:-1]):
        layers.append(random_dense(rng, a, b, activation, dtype))
    layers.append(random_dense(rng, dims[-2], dims[-1], "identity", dtype))
    return Network(layers, (dims[0],), dims[-1])


def small_cnn(rng, activation="relu", dtype=np.float32, in_shape=(2, 6, 6),
              c_mid=3, k=3, classes=3, pool=True, stride=(1, 1),
              padding=(0, 0)):
    layers = [random_conv(rng, in_shape[0], c_mid, k, activation, stride,
                          padding, dtype)]
    cur = layers[0].output_shape(in_shape)
    if pool:
        layers.append(MaxPool2D((2, 2), (2, 2)))
        cur = layers[-1].output_shape(cur)
    layers.append(Flatten())
    flat = int(np.prod(cur))
    layers.append(random_dense(rng, flat, classes, "identity", dtype))
    return Network(layers, in_shape, classes)


def next_prunable(net, a):
    return next(i for i in net.prunable_indices() if i > a)


def cut_units(rng, net, share=0.3):
    """Mask a random third of every prunable layer's contributors, then cut
    whole hidden targets: some lose every outgoing weight (dead-end), some
    every incoming weight and the bias (input-less), a few both."""
    for li in net.prunable_indices():
        layer = net.layers[li]
        drop = rng.random((layer.fan_out, layer.fan_in + 1)) < share
        layer.apply_mask(*np.nonzero(drop))
    for a in net.prunable_indices()[:-1]:
        layer, nxt = net.layers[a], net.layers[next_prunable(net, a)]
        per = nxt.fan_in // layer.fan_out
        order = rng.permutation(layer.fan_out)
        k = max(layer.fan_out // 4, 1)
        for u in order[:k]:  # dead-end
            nxt.apply_mask(np.arange(nxt.fan_out)[:, None],
                           np.arange(u * per, (u + 1) * per)[None, :])
        for u in order[k - 1:2 * k]:  # input-less; order[k - 1] is both
            layer.apply_mask(u, np.arange(layer.fan_in + 1))
    return net


def assert_every_unmasked_entry_moved(net, before):
    """Masked entries stayed 0; every unmasked one moved, the copy's by data
    and decay, the left-out ones by decay alone."""
    for i in net.prunable_indices():
        for p, q, mask in zip(net.layers[i].params().values(),
                              before.layers[i].params().values(),
                              net.layers[i].param_masks().values()):
            unmasked = np.broadcast_to(mask, p.shape) != 0
            assert not p[~unmasked].any()
            assert (p[unmasked] != q[unmasked]).all()


def tensors(net) -> list:
    """Every parameter tensor of ``net`` in layer order: what an
    ``Optimizer`` steps."""
    return [p for layer in net.layers for p in layer.params().values()]


def flat_grads(grads) -> list:
    """Per-layer gradient dicts as one list aligned with :func:`tensors`."""
    return [g for layer_grads in grads for g in layer_grads.values()]


def prune_one_layer(net, layer_index, alpha, pruning_set):
    """Score and mask one prunable layer on a copy of ``net``, which is left
    untouched. Returns the pruned copy and the layer's decisions."""
    scores = score_network(net, pruning_set, [layer_index])[layer_index]
    selection = select_kept(scores.scores, alpha)
    pruned = net.clone()
    layer = pruned.layers[layer_index]
    layer.apply_mask(*np.nonzero(~selection.keep))
    return pruned, LayerDecisions(layer_index, layer.kind, alpha, scores,
                                  selection)


def loss_of(net, x, labels) -> float:
    logits = net.forward(x)
    loss, _ = softmax_cross_entropy(logits, labels)
    return loss


def numeric_gradients(net, x, labels, eps=1e-5):
    """Central finite differences of the loss over every parameter entry."""
    grads = []
    for layer in net.layers:
        g = {}
        for name, p in layer.params().items():
            gp = np.zeros_like(p, dtype=np.float64)
            flat = p.reshape(-1)
            gflat = gp.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_of(net, x, labels)
                flat[i] = orig - eps
                lo = loss_of(net, x, labels)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2 * eps)
            g[name] = gp
        grads.append(g)
    return grads


def count_forwards_and_scores(monkeypatch) -> dict:
    """Count ``Network.forward`` and ``score_layer`` calls from now on."""
    calls = {"forward": 0, "score_layer": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Network, "forward", counted("forward", Network.forward))
    scored = counted("score_layer", importance.score_layer)
    monkeypatch.setattr(importance, "score_layer", scored)
    monkeypatch.setattr(bounds, "score_layer", scored)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(42)
