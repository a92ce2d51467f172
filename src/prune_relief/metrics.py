"""FLOPs accounting, compression statistics, and score exports.

FLOPs conventions (multiply and add counted separately, exact integers):

  dense layer, I inputs to O units:          (2 I - 1) * O
  conv layer, C_in channels, K x K kernels,
  C_out filters over an H x W input map:     2 H W (C_in K^2 + 1) C_out

H and W are the layer's input feature-map size. In a masked network a dense
unit with u surviving inputs costs max(2 u - 1, 0) and a conv filter with u
surviving kernels costs 2 H W (u K^2 + bias_bit); wholly dead units are free.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CapabilityError
from .layers import ConvLayer, DenseLayer
from .network import Network


def flops_dense(i: int, o: int) -> int:
    if i < 1 or o < 1:
        raise ValueError(f"dense flops need I >= 1 and O >= 1, got I={i}, O={o}")
    return (2 * i - 1) * o


def flops_conv(h: int, w: int, c_in: int, k: int, c_out: int) -> int:
    if min(h, w, c_in, k, c_out) < 1:
        raise ValueError(
            f"conv flops need positive dims, got h={h}, w={w}, c_in={c_in}, "
            f"k={k}, c_out={c_out}")
    return 2 * h * w * (c_in * k * k + 1) * c_out


@dataclass
class FlopsReport:
    layers: list = field(default_factory=list)
    baseline_total: int = 0
    masked_total: int = 0

    @property
    def pruned_pct(self) -> float:
        if self.baseline_total == 0:
            return 0.0
        return 100.0 * (1.0 - self.masked_total / self.baseline_total)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "pruned_pct": self.pruned_pct}


def masked_flops(net: Network) -> FlopsReport:
    """Exact baseline and surviving FLOPs per parameterized layer."""
    report = FlopsReport()
    for layer, in_shape in zip(net.layers, net.layer_input_shapes()):
        if isinstance(layer, DenseLayer):
            i, o = layer.fan_in, layer.fan_out
            baseline = flops_dense(i, o)
            unmasked = layer.weight_mask.sum(axis=1, dtype=np.int64)
            masked = int(np.maximum(2 * unmasked - 1, 0).sum())
            entry = {"kind": "dense", "in": i, "out": o,
                     "baseline_flops": baseline, "masked_flops": masked}
        elif isinstance(layer, ConvLayer):
            _, h, w = in_shape
            k = layer.kernel_size
            baseline = flops_conv(h, w, layer.in_channels, k, layer.out_channels)
            u = layer.kernel_mask.sum(axis=1, dtype=np.int64)
            masked = int((2 * h * w * (u * k * k + layer.bias_mask)).sum())
            entry = {"kind": "conv", "h": h, "w": w, "c_in": layer.in_channels,
                     "k": k, "c_out": layer.out_channels,
                     "baseline_flops": baseline, "masked_flops": masked}
        else:
            continue
        report.layers.append(entry)
        report.baseline_total += entry["baseline_flops"]
        report.masked_total += entry["masked_flops"]
    return report


def gini(values) -> float:
    """Gini coefficient of a non-negative sample, 0 for perfectly even."""
    x = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if x.size == 0:
        raise ValueError("gini needs at least one value")
    if np.any(x < 0):
        raise ValueError("gini is defined here for non-negative values")
    total = x.sum()
    if total == 0:
        return 0.0
    n = x.size
    ranked = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * np.sum(ranked * x) / (n * total)) - (n + 1.0) / n)


def score_stats(kept_scores) -> dict:
    """Distribution summary of a score sample.

    ``max_min_ratio`` is taken over strictly positive values (the evenness
    measure degenerates once zeros enter) and is None when there are none.
    """
    s = np.asarray(kept_scores, dtype=np.float64).ravel()
    if s.size == 0:
        return {"count": 0, "min": None, "max": None, "mean": None,
                "std": None, "gini": None, "max_min_ratio": None}
    live = s[s > 0]
    ratio = float(live.max() / live.min()) if live.size else None
    return {"count": int(s.size), "min": float(s.min()), "max": float(s.max()),
            "mean": float(s.mean()), "std": float(s.std()),
            "gini": gini(s), "max_min_ratio": ratio}


def kept_connection_scores(net: Network, scores_map: dict) -> np.ndarray:
    """Pool the scores of every unmasked contributor across layers.

    ``scores_map`` maps layer index to that layer's ImportanceScores; each
    contributor (connection or kernel, plus bias) appears once. Entries for
    non-prunable layers are rejected.
    """
    vals = []
    for li in sorted(scores_map):
        layer = net.layers[li]
        scores = scores_map[li]
        if not layer.stored_masks():
            raise ValueError(f"layer {li} ({layer.kind}) has no scores")
        weight_mask, bias_mask = layer.stored_masks().values()
        grid_mask = np.concatenate([weight_mask, bias_mask[:, None]], axis=1)
        if scores.scores.shape != grid_mask.shape:
            raise ValueError(
                f"layer {li} scores {scores.scores.shape} do not match its "
                f"{grid_mask.shape} contributor grid")
        vals.append(scores.scores[grid_mask])
    return np.concatenate(vals) if vals else np.zeros(0)


@dataclass
class CompressionReport:
    total_params: int
    unmasked_params: int
    per_layer: list
    score_stats: dict | None = None

    @property
    def remaining_pct(self) -> float:
        return 100.0 * self.unmasked_params / self.total_params

    @property
    def pruned_pct(self) -> float:
        return 100.0 - self.remaining_pct

    @property
    def compression_rate(self):
        if self.unmasked_params == 0:
            return None
        return self.total_params / self.unmasked_params

    def to_json_dict(self) -> dict:
        return {**asdict(self), "remaining_pct": self.remaining_pct,
                "pruned_pct": self.pruned_pct,
                "compression_rate": self.compression_rate}


def compression_stats(net: Network, scores_before: dict | None = None,
                      scores_after: dict | None = None) -> CompressionReport:
    """Parameter counts and surviving fractions, total and per layer.

    Each layer's entry also counts its targets by ``Network.liveness``:
    dead-end, input-less (a target can be both) and live, the ones the live
    subnetwork keeps.

    When score maps are given (layer index -> ImportanceScores), the report
    also carries distribution statistics of the scores at the surviving
    contributor slots, under ``score_stats["before"]`` and ``["after"]``.
    The kept set is the network's current masks in both cases, so the two
    sides describe the same connections scored at two points in time.
    """
    per_layer = []
    total = 0
    unmasked = 0
    liveness = net.liveness()
    for i, layer in enumerate(net.layers):
        params = layer.params()
        if not params:
            continue
        lt = sum(p.size for p in params.values())
        lu = sum(int(m.sum()) for m in layer.param_masks().values())
        live = liveness[i]
        per_layer.append({"layer": i, "kind": layer.kind, "total": int(lt),
                          "unmasked": lu,
                          "remaining_pct": 100.0 * lu / lt,
                          "dead_end_targets": int(live.dead_end.sum()),
                          "inputless_targets": int(live.inputless.sum()),
                          "live_targets": int(live.live.sum())})
        total += lt
        unmasked += lu
    stats = None
    if scores_before is not None or scores_after is not None:
        stats = {
            "before": score_stats(kept_connection_scores(net, scores_before))
            if scores_before is not None else None,
            "after": score_stats(kept_connection_scores(net, scores_after))
            if scores_after is not None else None,
        }
    return CompressionReport(total_params=int(total), unmasked_params=unmasked,
                             per_layer=per_layer, score_stats=stats)


def _write_grid(path, names, grid) -> None:
    """One CSV header line of ``names``, then ``grid``'s rows at 9
    significant digits, CRLF-terminated, as ``np.savetxt(fmt="%.9g")``
    writes them; ``grid_csv`` states why the bytes are the same."""
    # imported here, so that only the commands that write CSVs compile it
    from .grid_csv import write_grid
    write_grid(path, names, grid)


def export_heatmaps(layer, scores, scores_path, magnitudes_path) -> None:
    """Write per-connection score and |weight| grids for one dense layer.

    Rows are target units, columns are input connections (no bias column);
    the headers say which normalization each grid carries. Values render
    with 9 significant digits so reruns are byte-identical. Conv layers
    have no per-connection grid and are rejected.
    """
    if not isinstance(layer, DenseLayer):
        raise CapabilityError(
            f"connection heatmaps are defined for dense layers, not {layer.kind}")
    grid = scores.scores[:, :-1]
    if grid.shape != layer.weights.shape:
        raise ValueError(f"scores grid {grid.shape} does not match weights "
                         f"{layer.weights.shape}")
    _write_grid(scores_path, [f"score_in_{i}" for i in range(layer.fan_in)],
                grid)
    _write_grid(magnitudes_path,
                [f"abs_weight_in_{i}" for i in range(layer.fan_in)],
                np.abs(layer.weights))


def export_importance_csv(scores, path) -> None:
    """Full score matrix of one layer: rows are targets, bias column last."""
    m = scores.scores.shape[1] - 1
    header = [f"in_{i}" for i in range(m)] + ["bias"]
    _write_grid(path, header, scores.scores)
