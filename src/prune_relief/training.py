"""Parameter init, softmax cross-entropy backprop, and the training loop.

Initialization draws He-normal weights (std = sqrt(2 / fan_in), biases zero)
in layer order from a single seeded generator, so the same seed always
produces the same bytes and surviving weights can later be restored to their
original drawn values. Training shuffles with its own seeded generator and
raises on the first non-finite epoch loss.

Training and evaluation run on the network's live subnetwork
(``network.Subnetwork``), a compact copy without the units and conv
channels that the masks cut off; ``train`` writes the result back.
"""

import numpy as np

from .errors import DimensionError, TrainingError
from .layers import PRUNABLE_KINDS
from .network import Network, Subnetwork
from .optimizers import Optimizer, OptimizerConfig


def init_params(net: Network, seed) -> Network:
    """He-normal init of every prunable layer, in place; masks reset to one."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if layer.kind in PRUNABLE_KINDS:
            weights, bias = layer.params().values()
            # fan-in: the inputs one target reads, over every kernel tap
            std = np.sqrt(2.0 / weights[0].size)
            w = rng.standard_normal(weights.shape, dtype=np.float32)
            weights[...] = w * np.float32(std)
            bias[...] = 0
            for mask in layer.stored_masks().values():
                mask[...] = 1
    return net


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient with respect to the logits."""
    if logits.ndim != 2:
        raise DimensionError(f"logits must be (N, classes), got {logits.shape}")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match "
                             f"batch of {n}")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    picked = p[np.arange(n), labels]
    loss = float(np.mean(-np.log(np.maximum(picked, np.finfo(p.dtype).tiny)),
                         dtype=np.float64))
    d = p.copy()
    d[np.arange(n), labels] -= 1
    d /= n
    return loss, d


def forward_backward(net: Network, x: np.ndarray, labels: np.ndarray):
    """One supervised step's worth of math: loss, per-layer grads, correct count.

    The backward pass stops at the first layer with parameters: it builds
    only its parameter gradients, since no one reads the gradient of the
    input batch, and the layers before it get ``{}``.

    A conv and the max pool after it (``Network.pool_after``) train as one
    step when the pool's windows do not overlap. The conv's cache then holds
    None for its output, and the pool's backward gives the conv's dz, with
    the derivative taken at the pooled output (``Activation.df``): the
    full-size derivative map, the product with it and the pool's
    accumulation into its input gradient are not made. Each layer still
    runs its own ``forward`` and ``backward``, and the step gives the bytes
    of the unpaired one wherever the conv's output is not NaN
    (``MaxPool2D.backward``).
    """
    a = net.first_layer_input(x)
    paired = {i for i in range(len(net.layers))
              if (pool := net.pool_after(i)) is not None and pool.tiles}
    caches = []
    for i, layer in enumerate(net.layers):
        a, cache = layer.forward(a, with_cache=True)
        if i in paired:
            cache = (cache[0], None)
        caches.append(cache)
    loss, d = softmax_cross_entropy(a, labels)
    correct = int(np.sum(a.argmax(axis=1) == labels))
    first = next(i for i, layer in enumerate(net.layers) if layer.params())
    grads = [{} for _ in net.layers]
    for i in range(len(net.layers) - 1, first, -1):
        if i - 1 in paired:
            d, grads[i] = net.layers[i].backward(caches[i], d,
                                                 act=net.layers[i - 1].act)
        else:
            d, grads[i] = net.layers[i].backward(caches[i], d)
    _, grads[first] = net.layers[first].backward(caches[first], d,
                                                 input_grad=False)
    return loss, grads, correct


def evaluate(net: Network, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 256) -> float:
    """Top-1 accuracy in [0, 1], from the logits of the network's live
    subnetwork."""
    live = Subnetwork(net).net
    n = images.shape[0]
    correct = 0
    for start in range(0, n, batch_size):
        logits = live.forward(images[start:start + batch_size])
        correct += int(np.sum(logits.argmax(axis=1) == labels[start:start + batch_size]))
    return correct / n


def train(net: Network, images: np.ndarray, labels: np.ndarray,
          cfg: OptimizerConfig, seed, log=None) -> Network:
    """Minibatch-train the network in place and return it.

    ``seed`` feeds the shuffle generator only; parameter init is the caller's
    business. ``log``, if given, is called with a dict per epoch.

    The steps run on the live subnetwork. The masks are fixed for the whole
    call, so the entries it leaves out keep a zero data gradient throughout:
    the optimizer steps their packed vector as one more tensor, with the
    gradient 0.0, so they take weight decay alone. Both parts are written
    back into ``net`` when training ends.
    """
    cfg.validate()
    n = images.shape[0]
    if n == 0:
        raise TrainingError("cannot train on an empty dataset")
    live = Subnetwork(net)
    params = [p for layer in live.net.layers for p in layer.params().values()]
    outside = [live.outside] if live.outside.size else []
    opt = Optimizer(params + outside, cfg)
    rng = np.random.default_rng(seed)
    try:
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.lr_at(epoch)
            perm = rng.permutation(n)
            loss_sum = 0.0
            correct = 0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                loss, grads, ok = forward_backward(live.net, images[idx],
                                                   labels[idx])
                opt.apply([g for layer_grads in grads
                           for g in layer_grads.values()]
                          + [0.0] * len(outside), lr)
                loss_sum += loss * idx.size
                correct += ok
            epoch_loss = loss_sum / n
            if not np.isfinite(epoch_loss):
                raise TrainingError(
                    f"training diverged at epoch {epoch}: loss {epoch_loss}")
            if log is not None:
                log({"epoch": epoch, "lr": lr, "loss": epoch_loss,
                     "train_accuracy": correct / n})
    finally:
        # also when training raises: the network then holds the values
        # trained so far in every layer, the copied ones as the shared ones
        live.scatter()
    return net
