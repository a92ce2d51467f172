"""Shared builders for randomized tests.

The finite-difference gradient oracle lives here, independent of the
package's backward pass: it perturbs raw parameter entries and re-runs the
forward loss only.
"""

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, Flatten, MaxPool2D, Network,
                          bounds, importance, softmax_cross_entropy)


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
