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
deviations are measured on the same kept input. A layer whose tail is not
all dense gets no network bound, so its report runs only the layers before
it, and none for layer 0. ``measure_deviation`` makes z from float64
copies of each layer's weights and bias: a dense layer's ``x @ W.T + b``,
the expression its ``forward`` runs, and a conv layer's product of its
kernels with each sample's patches (``tensor_ops.sample_patches``).

Both kinds of pair run one chunk of samples at a time, so the measurement
holds the same memory whatever the pruning-set size: a conv chunk's
patches, z and act(z) of both layers and their difference fit
``tensor_ops.COLUMN_BUDGET``, and a dense chunk's input rows, z and act(z)
of both layers and their difference fit ``tensor_ops.ROW_BUDGET``
(``tensor_ops.dense_chunks``). Only the per-sample deviations, one float64
value per sample and target for each of the two fields, grow with the set,
and the mean over the samples is taken once, over the whole set's
per-sample array. A conv sample's deviations come from its own products,
so any chunks give the same bytes; dense chunk boundaries are multiples of
``SAMPLE_TILE`` samples, which give the bytes of one product over the
whole set.

All measurement and bound arithmetic here runs in float64: bounds compared
against measurements at 1e-5 tolerances should not inherit float32
accumulation noise from the network dtype.
"""

import numpy as np

from .errors import CapabilityError, DimensionError, EmptyPruningSetError
from .importance import _as_input_batch, _mask_layer, check_alpha, score_layer
from .layers import ConvLayer, DenseLayer
from .network import Network
from .tensor_ops import dense_chunks, sample_chunks, sample_patches


def check_prunable(net: Network, layer_index: int, error=IndexError) -> None:
    """``error`` naming the prunable layers unless ``layer_index`` is one."""
    if layer_index not in net.prunable_indices():
        raise error(f"layer {layer_index} is not prunable; prunable layers "
                    f"are {net.prunable_indices()}")


def measure_deviation(before, after, inputs):
    """Mean pre- and post-activation deviation per target of a layer pair.

    ``after`` is meant to be a masked copy of ``before``. ``inputs`` are in
    the layers' layout: (N, features) for dense, (C, H, W, N) maps for conv
    layers. Dense targets report the mean |delta z|, conv filters the mean
    Frobenius norm of the difference over their output map. z is made in
    float64 from float64 copies of each layer's weights and bias: a dense
    layer's ``x @ W.T + b``, the expression its forward runs, and a conv
    layer's one product per sample over ``tensor_ops.sample_patches``. The
    pair runs one chunk of samples at a time (``tensor_ops.dense_chunks``
    and ``sample_chunks``), writes each sample's deviations into one array
    per field and takes one mean over the samples.
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
    n = x.shape[-1 if conv else 0]
    if n == 0:
        raise EmptyPruningSetError("deviation measurement needs samples")
    if conv:
        co, ho, wo = out_shape
        # a sample's float64 patches (C*r*r rows, a filter's size) and, per
        # filter, z and act(z) of both layers and one difference
        chunks = sample_chunks(n, ho * wo * (before.kernels[0].size + 5 * co) * 8)
    else:
        chunks = dense_chunks(n, before.fan_in, before.fan_out)
    # each layer's (targets, contributors) weights and (targets, 1) bias
    pair = [[p.reshape(l.fan_out, -1).astype(np.float64)
             for p in l.params().values()] for l in (before, after)]
    pre, post = np.empty((n, before.fan_out)), np.empty((n, before.fan_out))
    for s0, s1 in chunks:
        if conv:
            xc = sample_patches(x[..., s0:s1].astype(np.float64),
                                before.kernel_size, before.stride,
                                before.padding)
        else:
            xc = x[s0:s1].astype(np.float64)
        # z is (samples, targets), or (samples, filters, Ho*Wo) maps
        zs = [np.matmul(w, xc) + b if conv else xc @ w.T + b.T
              for w, b in pair]
        ys = [before.act.f(zs[0]), after.act.f(zs[1])]
        for out, (u, v) in ((pre, zs), (post, ys)):
            d = u - v
            if conv:  # each sample's Frobenius norm over the map
                np.sqrt(np.square(d, out=d).sum(axis=-1), out=out[s0:s1])
            else:
                np.abs(d, out=out[s0:s1])
            del d  # before the next difference is made
        # and the chunk's arrays before the next chunk's
        del xc, zs, ys
    return pre.mean(axis=0), post.mean(axis=0)


def _dense_tail(net: Network, layer_index: int) -> bool:
    """Whether every layer from ``layer_index`` to the output is dense."""
    return all(isinstance(l, DenseLayer) for l in net.layers[layer_index:])


def network_output_bound(net: Network, layer_index: int, alpha: float,
                         s_total, kept_mass=None) -> np.ndarray:
    """Per-logit bound on the mean output change from pruning one dense layer.

    The tail from the pruned layer to the output must be dense. ``s_total``
    is the pruned layer's signal totals S(l) on the pruning set, one per
    target. When ``kept_mass`` (per-target achieved score mass) is given,
    the leading (1 - alpha) is replaced by the tighter per-target
    (1 - kept_mass).
    """
    check_prunable(net, layer_index)
    tail = net.layers[layer_index:]
    if not _dense_tail(net, layer_index):
        kinds = [l.kind for l in tail]
        raise CapabilityError(
            f"network output bounds need an all-dense tail from the pruned "
            f"layer to the output; layers {layer_index}.. are {kinds}")
    check_alpha(alpha)
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
    check_prunable(net, layer_index)
    if _dense_tail(net, layer_index):
        logits, kept = net.forward(batch, keep=[layer_index])
        inputs = kept[layer_index]
    else:
        # no network bound to measure against: run only the layers before
        inputs = net.layer_input(batch, layer_index)
    before = net.layers[layer_index]
    pruned_net = net.clone()
    scores = score_layer(before, inputs)
    selection = _mask_layer(pruned_net.layers[layer_index], scores, alpha)
    # only the totals, the kept counts and the kept mass outlive the masking
    s = scores.totals
    kappa = selection.achieved_mass
    kept = selection.keep.sum(axis=1)
    pruned = selection.keep.shape[1] - kept
    del scores, selection
    delta, big_delta = measure_deviation(before, pruned_net.layers[layer_index],
                                         inputs)
    c = before.act.lipschitz
    slack = np.maximum(1.0 - kappa, 0.0)
    columns = {
        "signal_total": s,
        "kept_mass": kappa,
        "kept": kept,
        "pruned": pruned,
        "pre_activation_deviation": delta,
        "pre_activation_bound": s * slack,
        "post_activation_deviation": big_delta,
        "post_activation_bound": c * s * slack,
    }
    rows = zip(*(v.tolist() for v in columns.values()))
    targets = [{"target": j, "lipschitz": c, **dict(zip(columns, row))}
               for j, row in enumerate(rows)]
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
            "logit_bounds": bound_vec.tolist(),
            "measured_mean_abs_change": measured.tolist(),
        }
    return report
