"""Importance scores and mask selection.

Each target unit j of a prunable layer gets one score per contributor: every
input connection (dense) or input-channel kernel (conv), plus the bias as the
last entry. Scores are the contributor's mean absolute signal on a pruning
set, normalized by the target's total signal S_j, so a live target's row sums
to one. Selection keeps, for each target, the smallest group of top
contributors whose combined score mass reaches the threshold ``alpha`` and
masks the rest.

``score_network`` is the one place that scores a network: it forwards the
pruning set once, keeping only the inputs of the requested prunable layers
(all of them by default), and scores each layer from its kept input, so
every layer sees the activations of the same pass-start network. Pruning
passes and the CLI's report and score exports go through it; a bound
report's one forward keeps the logits and its layer's input.

Selection and masking work on a whole layer at once: ``select_kept`` takes
the layer's (targets, contributors + 1) score matrix and returns a boolean
keep matrix of the same shape with one prefix length, threshold and achieved
mass per target, and the layer masks every dropped (target, contributor)
pair in a single ``apply_mask`` call. Selection reads each row's scores
sorted by value, with no ranking of indices: tied scores are equal, so the
order they sort in changes neither the running mass nor the threshold, and
every contributor tied at the threshold is kept.

Dense layer, contributor i of target j:

    numerator_ij = mean_n |w_ij * x_ni| = |w_ij| * mean_n |x_ni|
    bias numerator = |b_j|
    S_j = sum_i numerator_ij + |b_j|,   s_ij = numerator_ij / S_j

Conv layer, input channel i of filter j (maps of size h x w after the layer's
own stride and padding):

    numerator_ij = mean_n || |K_ij| (*) |x_ni| ||_F
    bias numerator = |b_j| * sqrt(h * w)
    S_j = sum_i numerator_ij + bias numerator,   s_ij = numerator_ij / S_j

where (*) is the layer's convolution applied to the absolute input channel
with the absolute kernel. Score accumulation runs in float64 regardless of
the network dtype. The conv numerators take one input channel and one chunk
of samples at a time, whose columns fit ``tensor_ops.COLUMN_BUDGET``: each
sample's norms go into one (filters, samples) array and the mean over
samples is taken once, so the scores are the bytes a whole-set pass gives.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyPruningSetError
from .layers import ConvLayer, DenseLayer
from .network import Network
from .tensor_ops import conv_output_hw, im2col, sample_chunks


@dataclass
class ImportanceScores:
    """Normalized scores per target: shape (targets, contributors + 1).

    The bias is the last column. ``totals[j]`` is S_j in signal units; rows
    of dead targets (S_j == 0) are all zero rather than NaN.
    """

    scores: np.ndarray
    totals: np.ndarray

    @property
    def num_targets(self) -> int:
        return self.scores.shape[0]

    @property
    def num_contributors(self) -> int:
        return self.scores.shape[1]


@dataclass
class Selection:
    """Which contributors survive, row by row, at one threshold ``alpha``.

    ``keep`` has the shape of the scores it was selected from; the other
    fields take their leading shape, one entry per target (plain scalars for
    a single row). Dead targets keep nothing and read 0 in every field.
    """

    keep: np.ndarray
    prefix_len: np.ndarray
    threshold: np.ndarray
    achieved_mass: np.ndarray

    @property
    def kept(self) -> np.ndarray:
        """Indices of the surviving contributors of a single row."""
        return np.flatnonzero(self.keep)

    @property
    def pruned(self) -> np.ndarray:
        """Indices of the masked contributors of a single row."""
        return np.flatnonzero(~self.keep)


@dataclass
class LayerDecisions:
    layer_index: int
    kind: str
    alpha: float
    scores: ImportanceScores
    selection: Selection


def _as_input_batch(inputs, sample_axis=0) -> np.ndarray:
    """The pruning set as one array; a list of samples is stacked along
    ``sample_axis``."""
    if isinstance(inputs, (list, tuple)) and len(inputs) > 0:
        inputs = np.stack(inputs, axis=sample_axis)
    x = np.asarray(inputs)
    if x.shape[sample_axis] == 0:
        raise EmptyPruningSetError("the pruning set needs at least one sample")
    return x


def _normalize(numer: np.ndarray, bias_numer: np.ndarray) -> ImportanceScores:
    totals = numer.sum(axis=1) + bias_numer
    scores = np.concatenate([numer, bias_numer[:, None]], axis=1)
    live = totals > 0
    scores[live] /= totals[live, None]
    scores[~live] = 0.0
    return ImportanceScores(scores=scores, totals=totals)


def fc_importance(layer: DenseLayer, inputs) -> ImportanceScores:
    """Score a dense layer's connections on a batch of its input vectors."""
    x = _as_input_batch(inputs)
    if x.ndim != 2 or x.shape[1] != layer.fan_in:
        raise DimensionError(
            f"dense layer with fan-in {layer.fan_in} got scoring batch of "
            f"shape {x.shape}"
        )
    mean_abs_x = np.mean(np.abs(x), axis=0, dtype=np.float64)
    numer = np.abs(layer.weights).astype(np.float64) * mean_abs_x[None, :]
    bias_numer = np.abs(layer.bias).astype(np.float64)
    return _normalize(numer, bias_numer)


def conv_importance(layer: ConvLayer, inputs) -> ImportanceScores:
    """Score a conv layer's per-channel kernels on (C, H, W, N) input maps."""
    x = _as_input_batch(inputs, sample_axis=-1)
    if x.ndim != 4 or x.shape[0] != layer.in_channels:
        raise DimensionError(
            f"conv layer with {layer.in_channels} input channels got scoring "
            f"maps of shape {x.shape}"
        )
    n = x.shape[3]
    r = layer.kernel_size
    co, ci = layer.out_channels, layer.in_channels
    ho, wo = conv_output_hw(x.shape[1], x.shape[2], r, layer.stride, layer.padding)
    # the whole rectified convolution runs in float64: norms of an f32
    # convolution would carry ~1e-8 relative noise into scores that
    # equality-tight bounds are checked against
    khat = np.abs(layer.kernels).astype(np.float64)
    numer = np.empty((co, ci), dtype=np.float64)
    norms = np.empty((co, n), dtype=np.float64)
    # one float64 product per input channel and chunk of samples, over that
    # channel's columns only: the columns of every channel and sample at
    # once would take 256 MB for LeNet-5's second conv at 1000 samples
    chunks = sample_chunks(n, ho * wo, r * r * 8)
    for i in range(ci):
        ki = khat[:, i].reshape(co, -1)
        for s0, s1 in chunks:
            xi = np.abs(x[i : i + 1, :, :, s0:s1]).astype(np.float64)
            maps = np.matmul(ki, im2col(xi, r, layer.stride, layer.padding))
            np.square(maps, out=maps)  # (Co, Ho*Wo*n)
            norms[:, s0:s1] = np.sqrt(maps.reshape(co, ho * wo, -1).sum(axis=1))
        numer[:, i] = norms.mean(axis=1)
    bias_numer = np.abs(layer.bias).astype(np.float64) * np.sqrt(float(ho * wo))
    return _normalize(numer, bias_numer)


def select_kept(scores, alpha: float) -> Selection:
    """Choose which contributors survive at threshold ``alpha``, row by row.

    Selection runs along the last axis, so one call covers a whole layer's
    score matrix. In each row, the shortest prefix of the scores sorted in
    descending order whose mass reaches ``alpha`` sets the score threshold;
    everything scoring strictly below it is pruned, so ties at the threshold
    are kept. ``alpha`` is capped at the row's total mass, which makes
    alpha = 1.0 prune exactly the zero-score contributors. A dead row (all
    scores zero) prunes everything.

    Only the sorted values are needed, never the ranking: tied scores are
    equal whatever order they come in, so the running mass, the prefix
    length and the threshold are the same for any ordering of ties.
    """
    s = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    if s.shape[-1] == 0:
        raise DimensionError("select_kept needs at least one score per row")
    if not np.all(s >= 0):  # also rejects NaN
        raise ValueError("scores must be non-negative")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    lead = s.shape[:-1]
    rows = s.reshape(-1, s.shape[-1])
    # negating is exact, so sorting -rows in place gives the descending
    # values in one float64 copy
    desc = np.negative(rows)
    desc.sort(axis=1)
    np.negative(desc, out=desc)
    cum = np.cumsum(desc, axis=1)
    total = cum[:, -1:]
    live = total[:, 0] > 0
    # cum never decreases, so the shortest prefix reaching min(alpha, total)
    # ends one past the entries still short of it
    p0 = np.count_nonzero(cum < np.minimum(alpha, total), axis=1) + 1
    last = np.take_along_axis(desc, p0[:, None] - 1, axis=1)[:, 0]
    threshold = np.where(live, last, 0.0)
    keep = (rows >= threshold[:, None]) & live[:, None]
    return Selection(
        keep=keep.reshape(s.shape),
        prefix_len=np.where(live, p0, 0).reshape(lead)[()],
        threshold=threshold.reshape(lead)[()],
        achieved_mass=np.where(keep, rows, 0.0).sum(axis=1).reshape(lead)[()])


def score_layer(layer, inputs) -> ImportanceScores:
    if isinstance(layer, DenseLayer):
        return fc_importance(layer, inputs)
    if isinstance(layer, ConvLayer):
        return conv_importance(layer, inputs)
    raise DimensionError(f"layer kind {layer.kind!r} has no importance scores")


def _prunable_layers(net: Network, layer_indices=None) -> list[int]:
    """``layer_indices`` (every prunable layer by default), or IndexError
    when one of them is not prunable."""
    prunable = net.prunable_indices()
    if layer_indices is None:
        return prunable
    for li in layer_indices:
        if li not in prunable:
            raise IndexError(f"layer {li} is not prunable")
    return list(layer_indices)


def score_network(net: Network, pruning_set, layer_indices=None) -> dict:
    """Forward the pruning set once and score prunable layers.

    Scores the layers in ``layer_indices`` (every prunable layer by default)
    from one forward that keeps only their inputs. Returns a dict mapping
    layer index to ImportanceScores in the order given.
    """
    layer_indices = _prunable_layers(net, layer_indices)
    _, inputs = net.forward(_as_input_batch(pruning_set), keep=layer_indices)
    return {li: score_layer(net.layers[li], inputs[li]) for li in layer_indices}


def _mask_layer(layer, scores: ImportanceScores, alpha: float,
                layer_index: int) -> LayerDecisions:
    selection = select_kept(scores.scores, alpha)
    layer.apply_mask(*np.nonzero(~selection.keep))
    return LayerDecisions(layer_index, layer.kind, alpha, scores, selection)


def prune_pass(net: Network, pruning_set, alpha_conv: float,
               alpha_fc: float) -> tuple[Network, list[LayerDecisions]]:
    """One full pruning pass over every prunable layer, in place.

    Every layer is scored from one forward of the pass-start network before
    any is masked, so later layers see activations unaffected by the masks
    of earlier ones.
    """
    scores = score_network(net, pruning_set)
    decisions = []
    for li, layer_scores in scores.items():
        layer = net.layers[li]
        alpha = alpha_fc if layer.kind == "dense" else alpha_conv
        decisions.append(_mask_layer(layer, layer_scores, alpha, li))
    return net, decisions
