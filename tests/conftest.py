"""Shared builders for randomized tests.

The finite-difference gradient oracle lives here, independent of the
package's backward pass: it perturbs raw parameter entries and re-runs the
forward loss only.
"""

import os

# Before NumPy loads its BLAS: the byte-identity tests compare products over
# different row ranges, whose bits agree only when one thread computes each.
# A threaded dense product splits its samples among the threads at
# boundaries that depend on the product's size (CI pins the same way).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from prune_relief import (ConvLayer, DenseLayer, Flatten, MaxPool2D, Network,
                          bounds, importance, score_network, select_kept,
                          softmax_cross_entropy, tensor_ops)
from prune_relief.activations import get_activation


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


def cast(layer, dtype, activation=None):
    """A copy of a dense or conv layer with its parameters in ``dtype``,
    masks of its own and, if given, another activation."""
    out = layer.clone()
    for name, a in out.params().items():
        setattr(out, name, a.astype(dtype))
    if activation is not None:
        out.activation, out.act = activation, get_activation(activation)
    return out


def mask_pairs(layer, targets, contributors):
    """Mask the (target, contributor) pairs of broadcastable index arrays
    through the layer's keep grid: ``mask_pairs(layer, j, [i, k])`` masks
    two contributors of target j, and contributor ``fan_in`` is the bias."""
    keep = np.ones((layer.fan_out, layer.fan_in + 1), dtype=bool)
    keep[targets, contributors] = False
    layer.apply_mask(keep)


def cut_units(rng, net, share=0.3):
    """Mask a random third of every prunable layer's contributors, then cut
    whole hidden targets: some lose every outgoing weight (dead-end), some
    every incoming weight and the bias (input-less), a few both."""
    for li in net.prunable_indices():
        layer = net.layers[li]
        drop = rng.random((layer.fan_out, layer.fan_in + 1)) < share
        layer.apply_mask(~drop)
    prunable, liveness = net.prunable_indices(), net.liveness()
    for a, b in zip(prunable, prunable[1:]):
        layer, nxt, per = net.layers[a], net.layers[b], liveness[a].block
        order = rng.permutation(layer.fan_out)
        k = max(layer.fan_out // 4, 1)
        for u in order[:k]:  # dead-end
            mask_pairs(nxt, np.arange(nxt.fan_out)[:, None],
                       np.arange(u * per, (u + 1) * per)[None, :])
        for u in order[k - 1:2 * k]:  # input-less; order[k - 1] is both
            mask_pairs(layer, u, np.arange(layer.fan_in + 1))
    return net


def assert_every_unmasked_entry_moved(net, before):
    """Masked entries stayed 0; every unmasked one moved, the copy's by data
    and decay, the left-out ones by decay alone."""
    for i in net.prunable_indices():
        for p, q, unmasked in zip(net.layers[i].params().values(),
                                  before.layers[i].params().values(),
                                  net.layers[i].param_masks().values()):
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
    untouched. Returns the pruned copy, the layer's ImportanceScores and its
    Selection."""
    scores = score_network(net, pruning_set)[layer_index]
    selection = select_kept(scores.scores, alpha)
    pruned = net.clone()
    pruned.layers[layer_index].apply_mask(selection.keep)
    return pruned, scores, selection


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


@pytest.fixture(params=["shipped", "256KiB", "one-row"])
def band_budget(request, monkeypatch):
    """The shipped column budget, a 256 KiB one, and one under which every
    conv forward bands one output row at a time, or the fewest rows that
    span whole column tiles."""
    if request.param == "256KiB":
        monkeypatch.setattr(tensor_ops, "COLUMN_BUDGET", 1 << 18)
    elif request.param == "one-row":
        monkeypatch.setattr(tensor_ops, "COLUMN_BUDGET", 1)
