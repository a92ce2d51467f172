"""Importance scores and mask selection.

Each target unit j of a prunable layer gets one score per contributor: every
input connection (dense) or input-channel kernel (conv), plus the bias as the
last entry. Scores are the contributor's mean absolute signal on a pruning
set, normalized by the target's total signal S_j, so a live target's row sums
to one. Selection keeps, for each target, the smallest group of top
contributors whose combined score mass reaches the threshold ``alpha`` and
masks the rest.

``score_network`` is the one place that scores a network: it forwards the
pruning set once, keeping only the inputs of the prunable layers, and scores
each layer from its kept input, so every layer sees the activations of the
same pass-start network. Pruning passes and the CLI's report and score
exports go through it; a bound report's one forward keeps its layer's input,
and the logits only when they feed a network bound.

Selection and masking work on a whole layer at once: ``select_kept`` takes
the layer's (targets, contributors + 1) score matrix and returns a boolean
keep matrix of the same shape with the achieved mass per target, and the
layer masks every dropped (target, contributor) pair in a single
``apply_mask`` call on that keep matrix. Selection reads each row's scores
sorted by value, with no ranking of indices: tied scores are equal, so the
order they sort in changes neither the running mass nor the threshold, and
every contributor tied at the threshold is kept.

A pass holds one float64 grid per layer: the numerators and the bias
numerator are written into it and divided by the row totals in place, so
the grid becomes the scores. Selection runs over blocks of rows within
``tensor_ops.ROW_BUDGET`` bytes, so its sorted copy and running mass stay
small whatever the layer's size.

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
of samples at a time, whose patches and float64 (filters, positions) maps
together fit ``tensor_ops.COLUMN_BUDGET``. Each sample's maps are one
product of its own patches (``tensor_ops.sample_patches``), and its norms
go into one (samples, filters) array whose mean over the samples is taken
once, so the scores have the same bytes whatever the chunks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyPruningSetError
from .layers import ConvLayer, DenseLayer
from .network import Network
from .tensor_ops import (ROW_BUDGET, conv_output_hw, equal_parts,
                         sample_chunks, sample_patches)


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

    ``keep`` has the shape of the scores it was selected from;
    ``achieved_mass``, the kept score mass, takes their leading shape, one
    entry per target (a plain scalar for a single row). Dead targets keep
    nothing and reach mass 0.
    """

    keep: np.ndarray
    achieved_mass: np.ndarray


def check_alpha(alpha: float, name: str = "alpha", error=ValueError) -> float:
    """``alpha`` itself, or ``error`` naming ``name`` unless alpha lies in
    (0, 1]: the range of a score mass to keep."""
    if not 0 < alpha <= 1:  # NaN fails the comparison too
        raise error(f"{name} must lie in (0, 1], got {alpha}")
    return alpha


def _as_input_batch(inputs, sample_axis=0) -> np.ndarray:
    """The pruning set as an array with at least one sample along
    ``sample_axis``."""
    x = np.asarray(inputs)
    if x.shape[sample_axis] == 0:
        raise EmptyPruningSetError("the pruning set needs at least one sample")
    return x


def _normalize(grid: np.ndarray) -> ImportanceScores:
    """Divide each row of a float64 (targets, contributors + 1) grid of
    numerators, the bias numerator last, by its total in place: the grid
    becomes the scores."""
    totals = grid[:, :-1].sum(axis=1) + grid[:, -1]
    live = totals > 0
    np.divide(grid, totals[:, None], out=grid, where=live[:, None])
    grid[~live] = 0.0
    return ImportanceScores(scores=grid, totals=totals)


def fc_importance(layer: DenseLayer, inputs) -> ImportanceScores:
    """Score a dense layer's connections on a batch of its input vectors."""
    x = _as_input_batch(inputs)
    if x.ndim != 2 or x.shape[1] != layer.fan_in:
        raise DimensionError(
            f"dense layer with fan-in {layer.fan_in} got scoring batch of "
            f"shape {x.shape}"
        )
    mean_abs_x = np.mean(np.abs(x), axis=0, dtype=np.float64)
    grid = np.empty((layer.fan_out, layer.fan_in + 1))
    numer = grid[:, :-1]
    np.abs(layer.weights, out=numer)
    numer *= mean_abs_x
    np.abs(layer.bias, out=grid[:, -1])
    return _normalize(grid)


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
    grid = np.empty((layer.fan_out, layer.fan_in + 1))
    norms = np.empty((n, co))
    # one product per sample over one input channel's patches: the patches
    # of every channel and sample at once would take 256 MB for LeNet-5's
    # second conv at 1000 samples. A chunk's budget counts each sample's
    # patches and (Co, Ho*Wo) maps
    chunks = sample_chunks(n, ho * wo * (r * r + co) * 8)
    for i in range(ci):
        ki = khat[:, i].reshape(co, -1)
        for s0, s1 in chunks:
            xi = np.abs(x[i : i + 1, :, :, s0:s1]).astype(np.float64)
            maps = np.matmul(ki, sample_patches(xi, r, layer.stride, layer.padding))
            np.square(maps, out=maps)  # (samples, Co, Ho*Wo)
            np.sqrt(maps.sum(axis=-1), out=norms[s0:s1])
        grid[:, i] = norms.mean(axis=0)
    bias_numer = grid[:, -1]
    np.abs(layer.bias, out=bias_numer)
    bias_numer *= np.sqrt(float(ho * wo))
    return _normalize(grid)


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
    check_alpha(alpha)
    lead = s.shape[:-1]
    rows = s.reshape(-1, s.shape[-1])
    keep = np.empty(rows.shape, dtype=bool)
    mass = np.empty(rows.shape[0])
    # rows are independent, so blocks of them give the bytes of one pass
    # over the grid, and each block's sorted copy, running mass and kept
    # scores stay within ROW_BUDGET
    most = ROW_BUDGET // (8 * rows.shape[1])
    for r0, r1 in equal_parts(rows.shape[0], most):
        _select_rows(rows[r0:r1], alpha, keep[r0:r1], mass[r0:r1])
    return Selection(keep=keep.reshape(s.shape),
                     achieved_mass=mass.reshape(lead)[()])


def _select_rows(rows, alpha, keep, mass) -> None:
    """Write :func:`select_kept`'s keep rows and achieved mass of a 2-D
    block of score rows into ``keep`` and ``mass``."""
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
    threshold = np.take_along_axis(desc, p0[:, None] - 1, axis=1)
    np.greater_equal(rows, threshold, out=keep)
    keep &= live[:, None]
    # the kept scores and zeros, in the sorted copy's memory; a dropped
    # -0.0 stays -0.0, which changes no sum: NumPy's sums start at +0.0
    np.multiply(rows, keep, out=desc)
    desc.sum(axis=1, out=mass)


def score_layer(layer, inputs) -> ImportanceScores:
    if isinstance(layer, DenseLayer):
        return fc_importance(layer, inputs)
    if isinstance(layer, ConvLayer):
        return conv_importance(layer, inputs)
    raise DimensionError(f"layer kind {layer.kind!r} has no importance scores")


def score_network(net: Network, pruning_set) -> dict:
    """Forward the pruning set once and score every prunable layer.

    The forward keeps only the prunable layers' inputs. Returns a dict
    mapping layer index to ImportanceScores, in layer order.
    """
    prunable = net.prunable_indices()
    _, inputs = net.forward(_as_input_batch(pruning_set), keep=prunable)
    return {li: score_layer(net.layers[li], inputs[li]) for li in prunable}


def _mask_layer(layer, scores: ImportanceScores, alpha: float) -> Selection:
    selection = select_kept(scores.scores, alpha)
    layer.apply_mask(selection.keep)
    return selection


def alpha_for(layer, alpha_conv: float, alpha_fc: float) -> float:
    """The score mass to keep in ``layer``: ``alpha_fc`` for a dense layer,
    ``alpha_conv`` for a conv layer."""
    return alpha_fc if layer.kind == "dense" else alpha_conv


def prune_pass(net: Network, pruning_set, alpha_conv: float,
               alpha_fc: float) -> dict:
    """One full pruning pass over every prunable layer, in place.

    Every layer is scored from one forward of the pass-start network before
    any is masked, so later layers see activations unaffected by the masks
    of earlier ones. Returns a dict mapping layer index to the layer's
    (ImportanceScores, Selection), in layer order.
    """
    selected = {}
    for li, scores in score_network(net, pruning_set).items():
        layer = net.layers[li]
        alpha = alpha_for(layer, alpha_conv, alpha_fc)
        selected[li] = scores, _mask_layer(layer, scores, alpha)
    return selected
