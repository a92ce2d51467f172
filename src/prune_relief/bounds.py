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

All measurement and bound arithmetic here runs in float64: bounds compared
against measurements at 1e-5 tolerances should not inherit float32
accumulation noise from the network dtype.
"""

import numpy as np

from .errors import CapabilityError, DimensionError, EmptyPruningSetError
from .importance import _as_input_batch, prune_single_layer, score_layer
from .layers import ConvLayer, DenseLayer
from .network import Network
from .tensor_ops import conv2d_batch


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


def _check_pair(before, after, cls):
    if not isinstance(before, cls) or not isinstance(after, cls):
        raise DimensionError(f"deviation measurement expects two {cls.__name__}s")
    pb, pa = before.params(), after.params()
    for name in pb:
        if pb[name].shape != pa[name].shape:
            raise DimensionError(
                f"layer pair differs in {name} shape: {pb[name].shape} vs "
                f"{pa[name].shape}")


def measure_fc_deviation(before: DenseLayer, after: DenseLayer, inputs):
    """Mean |pre-activation| and |post-activation| deviation per target.

    ``after`` is meant to be a masked copy of ``before``; both are evaluated
    on the same inputs in float64.
    """
    _check_pair(before, after, DenseLayer)
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != before.fan_in:
        raise DimensionError(
            f"dense layer with fan-in {before.fan_in} got batch {x.shape}")
    if x.shape[0] == 0:
        raise EmptyPruningSetError("deviation measurement needs samples")
    act = before.act
    zb = x @ before.weights.astype(np.float64).T + before.bias.astype(np.float64)
    za = x @ after.weights.astype(np.float64).T + after.bias.astype(np.float64)
    delta = np.abs(zb - za).mean(axis=0)
    big_delta = np.abs(act.f(zb) - act.f(za)).mean(axis=0)
    return delta, big_delta


def measure_conv_deviation(before: ConvLayer, after: ConvLayer, inputs):
    """Mean Frobenius deviation of pre- and post-activation maps per filter."""
    _check_pair(before, after, ConvLayer)
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != before.in_channels:
        raise DimensionError(
            f"conv layer with {before.in_channels} input channels got batch "
            f"{x.shape}")
    if x.shape[0] == 0:
        raise EmptyPruningSetError("deviation measurement needs samples")
    act = before.act
    zb = conv2d_batch(x, before.kernels.astype(np.float64),
                      before.bias.astype(np.float64), before.stride, before.padding)
    za = conv2d_batch(x, after.kernels.astype(np.float64),
                      after.bias.astype(np.float64), after.stride, after.padding)
    diff = zb - za
    delta = np.sqrt((diff * diff).sum(axis=(2, 3))).mean(axis=0)
    adiff = act.f(zb) - act.f(za)
    big_delta = np.sqrt((adiff * adiff).sum(axis=(2, 3))).mean(axis=0)
    return delta, big_delta


def network_output_bound(net: Network, layer_index: int, alpha: float, trace,
                         kept_mass=None) -> np.ndarray:
    """Per-logit bound on the mean output change from pruning one dense layer.

    The tail from the pruned layer to the output must be dense. ``trace`` is
    an activation capture of the unpruned network on the pruning set. When
    ``kept_mass`` (per-target achieved score mass) is given, the leading
    (1 - alpha) is replaced by the tighter per-target (1 - kept_mass).
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
    layer = net.layers[layer_index]
    scores = score_layer(layer, trace.inputs_to(layer_index))
    s = scores.totals  # float64
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


def residual_curve(sorted_scores, s_total: float) -> np.ndarray:
    """Deviation bound left after keeping each prefix of ranked scores.

    ``sorted_scores`` must be in descending order; entry p of the result is
    the bound S * (1 - mass of the first p+1 scores), clipped at zero.
    """
    s = np.asarray(sorted_scores, dtype=np.float64).ravel()
    if s.size and np.any(np.diff(s) > 0):
        raise ValueError("scores must be sorted in descending order")
    if s_total < 0:
        raise ValueError("signal total must be non-negative")
    return np.maximum(s_total * (1.0 - np.cumsum(s)), 0.0)


def bound_report(net: Network, layer_index: int, alpha: float,
                 pruning_set) -> dict:
    """Prune one layer on a copy, measure deviations, assemble a report dict.

    Per-target bounds use the achieved kept mass (tight form). The network
    section is present only for an all-dense tail; otherwise it carries the
    capability limitation as a message.
    """
    batch = _as_input_batch(pruning_set)
    pruned_net, decisions = prune_single_layer(net, layer_index, alpha, batch)
    before = net.layers[layer_index]
    after = pruned_net.layers[layer_index]
    _, trace = net.forward(batch, capture=True)
    x_in = trace.inputs_to(layer_index)
    if isinstance(before, DenseLayer):
        delta, big_delta = measure_fc_deviation(before, after, x_in)
    else:
        delta, big_delta = measure_conv_deviation(before, after, x_in)
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
        bound_vec = network_output_bound(net, layer_index, alpha, trace,
                                         kept_mass=kappa)
    except CapabilityError as e:
        report["network"] = {"error": str(e)}
    else:
        logits_before = trace.logits.astype(np.float64)
        logits_after = pruned_net.forward(batch).astype(np.float64)
        measured = np.abs(logits_before - logits_after).mean(axis=0)
        report["network"] = {
            "logit_bounds": [float(b) for b in bound_vec],
            "measured_mean_abs_change": [float(m) for m in measured],
        }
    return report
