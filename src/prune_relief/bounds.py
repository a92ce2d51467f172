"""Analytical error bounds for masked units and their empirical measurement.

For a target with total signal S and kept score mass kappa on the pruning
set, the mean pre-activation deviation is bounded by S * (1 - kappa) and the
mean post-activation deviation by C * S * (1 - kappa), with C the activation's
Lipschitz constant. With selection at threshold alpha, kappa >= alpha, so the
looser closed form C * S * (1 - alpha) also holds. For conv filters the same
holds with deviations measured in Frobenius norm over the output map.

Pruning one dense layer inside an all-dense tail propagates to the logits as

    bound = (1 - alpha) * prod(C_k) * |W(L)| ... |W(l+1)| S(l)

evaluated innermost-first (|.| elementwise on the weight matrices, S(l) the
pruned layer's signal-total vector, C_k over the pruned and intermediate
layers). Pruning the last layer degenerates to (1 - alpha) * S(L).

``bound_report`` does the pass-start work once: one forward of the pruning
set keeps the pruned layer's input and the logits, and one scoring of that
layer gives the masks and the signal totals S(l) that every bound takes. The
deviations are measured on the same kept input. ``measure_deviation`` runs
both layers of a pair through their own ``forward``, so the measured layer
is the one the network evaluates.
Conv pairs run one chunk of samples at a time, whose columns fit
``tensor_ops.COLUMN_BUDGET``, so the measurement holds the same memory
whatever the pruning-set size; dense pairs run the whole set in one product.

All measurement and bound arithmetic here runs in float64: bounds compared
against measurements at 1e-5 tolerances should not inherit float32
accumulation noise from the network dtype.
"""

import numpy as np

from .errors import CapabilityError, DimensionError, EmptyPruningSetError
from .importance import (_as_input_batch, _mask_layer, _prunable_layers,
                         score_layer)
from .layers import ConvLayer, DenseLayer
from .network import Network
from .tensor_ops import sample_chunks


def fc_neuron_bound(s_total, alpha: float, lipschitz: float):
    """Bound on the mean post-activation deviation of dense or conv targets.

    Conv filters take the same closed form, with deviations in Frobenius norm.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    s = np.asarray(s_total, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("signal totals must be non-negative")
    out = lipschitz * s * (1.0 - alpha)
    return float(out) if np.isscalar(s_total) or out.ndim == 0 else out


def _pre_and_post(layer, x):
    """z and act(z) of a float64 copy of ``layer`` on ``x``.

    The rest of the forward cache (a conv layer's patch columns) is dropped
    on return, before the caller runs the next layer.
    """
    y, cache = layer.astype(np.float64).forward(x, with_cache=True)
    return cache[-1], y


def measure_deviation(before, after, inputs):
    """Mean pre- and post-activation deviation per target of a layer pair.

    ``after`` is meant to be a masked copy of ``before``; both run their own
    ``forward`` on the same inputs in float64. ``inputs`` are in the layers'
    layout: (N, features) for dense, (C, H, W, N) maps for conv layers.
    Dense targets report the mean |delta z|, conv filters the mean Frobenius
    norm of the difference over their output map. Conv pairs run one chunk
    of samples at a time, whose columns fit ``COLUMN_BUDGET``, collect each
    sample's norms and take one mean over them.
    """
    if type(before) is not type(after) \
            or not isinstance(before, (DenseLayer, ConvLayer)):
        raise DimensionError("deviation measurement expects two dense or two "
                             "conv layers")
    pb, pa = before.params(), after.params()
    for name in pb:
        if pb[name].shape != pa[name].shape:
            raise DimensionError(
                f"layer pair differs in {name} shape: {pb[name].shape} vs "
                f"{pa[name].shape}")
    x = np.asarray(inputs)
    conv = isinstance(before, ConvLayer)
    # rejects a wrongly shaped batch
    out_shape = before.output_shape(x.shape[:-1] if conv else x.shape[1:])
    if x.shape[-1 if conv else 0] == 0:
        raise EmptyPruningSetError("deviation measurement needs samples")
    if not conv:
        x = np.asarray(x, dtype=np.float64)
        zb, yb = _pre_and_post(before, x)
        za, ya = _pre_and_post(after, x)
        return _mean_abs(zb, za), _mean_abs(yb, ya)
    n = x.shape[-1]
    co, ho, wo = out_shape
    pre, post = np.empty((co, n)), np.empty((co, n))
    column_bytes = before.in_channels * before.kernel_size ** 2 * 8
    for s0, s1 in sample_chunks(n, ho * wo, column_bytes):
        xc = x[..., s0:s1].astype(np.float64)
        zb, yb = _pre_and_post(before, xc)
        za, ya = _pre_and_post(after, xc)
        pre[:, s0:s1] = _frobenius(zb, za)
        post[:, s0:s1] = _frobenius(yb, ya)
    return pre.mean(axis=1), post.mean(axis=1)


def _mean_abs(a, b):
    """Mean over samples of each target's |a - b| for (N, targets) arrays."""
    d = a - b
    return np.abs(d, out=d).mean(axis=0)


def _frobenius(a, b):
    """Per-sample Frobenius norm of each target's a - b over the (H, W) axes
    of (targets, H, W, n) conv maps: a (targets, n) array."""
    d = a - b
    d *= d
    return np.sqrt(d.sum(axis=(1, 2)))


def network_output_bound(net: Network, layer_index: int, alpha: float,
                         s_total, kept_mass=None) -> np.ndarray:
    """Per-logit bound on the mean output change from pruning one dense layer.

    The tail from the pruned layer to the output must be dense. ``s_total``
    is the pruned layer's signal totals S(l) on the pruning set, one per
    target. When ``kept_mass`` (per-target achieved score mass) is given,
    the leading (1 - alpha) is replaced by the tighter per-target
    (1 - kept_mass).
    """
    if layer_index not in net.prunable_indices():
        raise IndexError(f"layer {layer_index} is not prunable")
    tail = net.layers[layer_index:]
    if any(not isinstance(l, DenseLayer) for l in tail):
        kinds = [l.kind for l in tail]
        raise CapabilityError(
            f"network output bounds need an all-dense tail from the pruned "
            f"layer to the output; layers {layer_index}.. are {kinds}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    s = np.asarray(s_total, dtype=np.float64)
    if s.shape != (tail[0].fan_out,):
        raise DimensionError(
            f"s_total shape {s.shape} does not match the "
            f"{tail[0].fan_out} targets of layer {layer_index}")
    if kept_mass is None:
        v = s * (1.0 - alpha)
    else:
        kappa = np.asarray(kept_mass, dtype=np.float64)
        if kappa.shape != s.shape:
            raise DimensionError(
                f"kept_mass shape {kappa.shape} does not match "
                f"{s.shape[0]} targets")
        v = s * np.maximum(1.0 - kappa, 0.0)
    # every activation from the pruned layer to the output contributes its
    # Lipschitz constant; a logits-emitting identity output layer adds 1
    c_prod = 1.0
    for l in tail:
        c_prod *= l.act.lipschitz
    for l in tail[1:]:
        v = np.abs(l.weights).astype(np.float64) @ v
    return c_prod * v


def bound_report(net: Network, layer_index: int, alpha: float,
                 pruning_set) -> dict:
    """Prune one layer on a copy, measure deviations, assemble a report dict.

    Per-target bounds use the achieved kept mass (tight form). The network
    section is present only for an all-dense tail; otherwise it carries the
    capability limitation as a message.
    """
    batch = _as_input_batch(pruning_set)
    _prunable_layers(net, [layer_index])
    logits, kept = net.forward(batch, keep=[layer_index])
    inputs = kept[layer_index]
    before = net.layers[layer_index]
    pruned_net = net.clone()
    decisions = _mask_layer(pruned_net.layers[layer_index],
                            score_layer(before, inputs), alpha, layer_index)
    delta, big_delta = measure_deviation(before, pruned_net.layers[layer_index],
                                         inputs)
    c = before.act.lipschitz
    s = decisions.scores.totals
    keep = decisions.selection.keep
    kappa = decisions.selection.achieved_mass
    kept = keep.sum(axis=1)
    targets = []
    for j in range(s.size):
        bound = c * s[j] * max(1.0 - kappa[j], 0.0)
        targets.append({
            "target": j,
            "signal_total": float(s[j]),
            "kept_mass": float(kappa[j]),
            "kept": int(kept[j]),
            "pruned": int(keep.shape[1] - kept[j]),
            "lipschitz": c,
            "pre_activation_deviation": float(delta[j]),
            "pre_activation_bound": float(s[j] * max(1.0 - kappa[j], 0.0)),
            "post_activation_deviation": float(big_delta[j]),
            "post_activation_bound": float(bound),
        })
    report = {
        "layer": layer_index,
        "kind": before.kind,
        "alpha": alpha,
        "samples": int(batch.shape[0]),
        "targets": targets,
    }
    try:
        bound_vec = network_output_bound(net, layer_index, alpha, s,
                                         kept_mass=kappa)
    except CapabilityError as e:
        report["network"] = {"error": str(e)}
    else:
        logits_before = logits.astype(np.float64)
        logits_after = pruned_net.forward(batch).astype(np.float64)
        measured = np.abs(logits_before - logits_after).mean(axis=0)
        report["network"] = {
            "logit_bounds": [float(b) for b in bound_vec],
            "measured_mean_abs_change": [float(m) for m in measured],
        }
    return report
