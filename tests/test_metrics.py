"""FLOPs accounting, compression statistics, and CSV exports."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prune_relief import (CapabilityError, ConvLayer, DenseLayer, Flatten,
                          ImportanceScores, MaxPool2D, Network,
                          compression_stats,
                          export_heatmaps, export_importance_csv, fc_importance,
                          flops_conv, flops_dense, gini,
                          kept_connection_scores, masked_flops,
                          score_layer, score_stats)
from prune_relief import grid_csv
from tests.conftest import mask_pairs, prune_one_layer, small_cnn, small_mlp

F32 = np.float32


class TestFlopsFormulas:
    def test_dense_hand_values(self):
        assert flops_dense(3, 2) == 10
        assert flops_dense(1, 1) == 1

    def test_dense_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flops_dense(3, 0)
        with pytest.raises(ValueError):
            flops_dense(0, 2)

    def test_conv_hand_values(self):
        assert flops_conv(4, 4, 1, 3, 2) == 640
        assert flops_conv(1, 1, 1, 1, 1) == 4

    def test_conv_output_channel_linearity(self):
        assert flops_conv(5, 7, 3, 3, 8) == 2 * flops_conv(5, 7, 3, 3, 4)

    def test_conv_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flops_conv(4, 4, 1, 0, 2)

    def test_randomized_against_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            i, o = (int(v) for v in rng.integers(1, 200, 2))
            assert flops_dense(i, o) == (2 * i - 1) * o
            h, w, ci, k, co = (int(v) for v in rng.integers(1, 20, 5))
            assert flops_conv(h, w, ci, k, co) == 2 * h * w * (ci * k * k + 1) * co


class TestMaskedFlops:
    def test_unmasked_equals_baseline(self, rng):
        net = small_cnn(rng)
        report = masked_flops(net)
        assert report.masked_total == report.baseline_total
        assert report.pruned_pct == 0.0
        conv, dense = report.layers
        assert conv["baseline_flops"] == flops_conv(6, 6, 2, 3, 3)
        assert dense["baseline_flops"] == flops_dense(dense["in"], 3)

    def test_fully_masked_is_free(self, rng):
        net = small_mlp(rng, (5, 4, 2))
        for li in net.prunable_indices():
            layer = net.layers[li]
            for j in range(layer.fan_out):
                mask_pairs(layer, j, range(layer.fan_in + 1))
        report = masked_flops(net)
        assert report.masked_total == 0
        assert report.pruned_pct == 100.0

    def test_single_kernel_masked_hand_case(self):
        # two 3x3 kernels feeding one filter over a 4x4 input map: baseline
        # 2*16*(2*9+1) = 608; masking one kernel leaves 2*16*(9+1) = 320
        k = np.zeros((1, 2, 3, 3), F32)
        net = Network([ConvLayer(k, np.zeros(1, F32), "relu"), Flatten(),
                       DenseLayer(np.zeros((1, 4), F32), np.zeros(1, F32),
                                  "identity")], (2, 4, 4), 1)
        mask_pairs(net.layers[0], 0, [0])
        report = masked_flops(net)
        conv = report.layers[0]
        assert conv["baseline_flops"] == 608
        assert conv["masked_flops"] == 320
        assert abs(100.0 * (1 - 320 / 608) - 47.4) < 0.05

    def test_dead_dense_unit_is_free_but_live_costs(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        layer = net.layers[0]
        mask_pairs(layer, 0, range(5))  # dead: contributes 0
        mask_pairs(layer, 1, [0, 1])  # 2 of 4 inputs kept
        report = masked_flops(net)
        dense = report.layers[0]
        assert dense["masked_flops"] == 0 + (2 * 2 - 1) + (2 * 4 - 1)

    def test_pool_and_flatten_are_free(self, rng):
        net = small_cnn(rng)
        kinds = [e["kind"] for e in masked_flops(net).layers]
        assert kinds == ["conv", "dense"]

    def test_conv_bias_term_unbundles(self):
        # all kernels masked but the bias alive keeps the +1 term only
        k = np.zeros((1, 2, 3, 3), F32)
        net = Network([ConvLayer(k, np.zeros(1, F32), "relu"), Flatten(),
                       DenseLayer(np.zeros((1, 4), F32), np.zeros(1, F32),
                                  "identity")], (2, 4, 4), 1)
        mask_pairs(net.layers[0], 0, [0, 1])
        conv = masked_flops(net).layers[0]
        assert conv["masked_flops"] == 2 * 16 * 1

    def test_randomized_against_independent_recount(self):
        rng = np.random.default_rng(23)
        for case in range(20):
            if case % 2:
                dims = tuple(int(v) for v in rng.integers(2, 9, 3))
                net = small_mlp(rng, dims)
            else:
                c_in = int(rng.integers(1, 4))
                hw = int(rng.integers(5, 9))
                net = small_cnn(rng, in_shape=(c_in, hw, hw),
                                c_mid=int(rng.integers(1, 4)))
            for li in net.prunable_indices():
                layer = net.layers[li]
                n_contrib = (layer.fan_in if layer.kind == "dense"
                             else layer.in_channels) + 1
                for j in range(layer.fan_out if layer.kind == "dense"
                               else layer.out_channels):
                    drop = rng.integers(0, n_contrib + 1)
                    mask_pairs(layer, j, rng.choice(n_contrib, drop,
                                                    replace=False))
            report = masked_flops(net)
            expect_base = 0
            expect_masked = 0
            for layer, shape in zip(net.layers, net.layer_input_shapes()):
                if isinstance(layer, DenseLayer):
                    expect_base += (2 * layer.fan_in - 1) * layer.fan_out
                    for j in range(layer.fan_out):
                        u = int(layer.weight_mask[j].sum())
                        expect_masked += max(2 * u - 1, 0)
                elif isinstance(layer, ConvLayer):
                    _, h, w = shape
                    kk = layer.kernel_size ** 2
                    expect_base += 2 * h * w * (layer.in_channels * kk + 1) \
                        * layer.out_channels
                    for j in range(layer.out_channels):
                        u = int(layer.kernel_mask[j].sum())
                        b = int(layer.bias_mask[j])
                        expect_masked += 2 * h * w * (u * kk + b)
            assert report.baseline_total == expect_base
            assert report.masked_total == expect_masked
            assert report.masked_total <= report.baseline_total


class TestGini:
    def test_equal_values_zero(self):
        assert gini([3.0, 3.0, 3.0, 3.0]) == 0.0

    def test_full_concentration(self):
        n = 10
        assert gini([0.0] * (n - 1) + [1.0]) == pytest.approx((n - 1) / n)

    def test_hand_value(self):
        # sorted (1, 3): 2*(1*1 + 2*3)/(2*4) - 3/2 = 0.25
        assert gini([3.0, 1.0]) == pytest.approx(0.25)

    def test_scale_invariant(self, rng):
        x = rng.random(30)
        assert gini(x) == pytest.approx(gini(x * 17.0), rel=1e-12)

    def test_zero_total(self):
        assert gini([0.0, 0.0]) == 0.0

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            gini([-1.0, 2.0])
        with pytest.raises(ValueError):
            gini([])


class TestScoreStats:
    def test_empty(self):
        stats = score_stats([])
        assert stats["count"] == 0 and stats["mean"] is None
        assert stats["max_min_ratio"] is None

    def test_all_equal(self):
        # 0.25 is binary-exact, so zero here means zero, not epsilon
        stats = score_stats([0.25, 0.25, 0.25])
        assert stats["std"] == 0.0 and stats["gini"] == 0.0
        assert stats["max_min_ratio"] == 1.0

    def test_ratio_ignores_zeros(self):
        stats = score_stats([0.0, 0.1, 0.4])
        assert stats["max_min_ratio"] == pytest.approx(4.0)
        assert stats["min"] == 0.0


def lenet_shaped_net():
    """784-300-100-10 dense stack with zero weights for mask surgery."""
    dims = [(300, 784), (100, 300), (10, 100)]
    layers = [DenseLayer(np.zeros(d, F32), np.zeros(d[0], F32),
                         "relu" if i < 2 else "identity")
              for i, d in enumerate(dims)]
    return Network(layers, (784,), 10)


class TestCompression:
    def test_fresh_net_identity_case(self, rng):
        net = small_mlp(rng, (6, 4, 2))
        comp = compression_stats(net)
        assert comp.remaining_pct == 100.0
        assert comp.compression_rate == 1.0
        assert comp.score_stats is None

    def test_invariants(self, rng):
        net = small_mlp(rng, (8, 6, 3))
        mask_pairs(net.layers[0], 0, [0, 1, 2])
        comp = compression_stats(net)
        assert comp.remaining_pct + comp.pruned_pct == pytest.approx(100.0)
        assert abs(comp.compression_rate
                   * (comp.unmasked_params / comp.total_params) - 1.0) < 1e-9
        assert comp.compression_rate >= 1.0

    def test_all_masked_rate_is_none(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        for li in net.prunable_indices():
            layer = net.layers[li]
            for j in range(layer.fan_out):
                mask_pairs(layer, j, range(layer.fan_in + 1))
        assert compression_stats(net).compression_rate is None

    def test_lenet_shape_at_low_remaining(self):
        net = lenet_shaped_net()
        assert net.num_params() == 266610
        keep = 4026  # 1.51% of the parameter count
        mask = net.layers[0].weight_mask
        mask.ravel()[keep:] = 0.0
        for li in (1, 2):
            layer = net.layers[li]
            for j in range(layer.fan_out):
                mask_pairs(layer, j, range(layer.fan_in + 1))
        for j in range(net.layers[0].fan_out):
            net.layers[0].bias_mask[j] = 0.0
        comp = compression_stats(net)
        assert abs(comp.remaining_pct - 1.51) < 0.01
        assert 60.0 < comp.compression_rate < 70.0

    def test_per_layer_entries(self, rng):
        net = small_cnn(rng)
        comp = compression_stats(net)
        assert [e["kind"] for e in comp.per_layer] == ["conv", "dense"]
        assert sum(e["total"] for e in comp.per_layer) == comp.total_params


class TestKeptConnectionScores:
    def test_counts_follow_masks(self, rng):
        net = small_mlp(rng, (6, 5, 3))
        x = rng.standard_normal((8, 6)).astype(F32)
        pruned, _, _ = prune_one_layer(net, 0, 0.8, x)
        _, kept_b = net.forward(x, keep=[0])
        _, kept_a = pruned.forward(x, keep=[0])
        before = {0: score_layer(net.layers[0], kept_b[0])}
        after = {0: score_layer(pruned.layers[0], kept_a[0])}
        comp = compression_stats(pruned, scores_before=before,
                                 scores_after=after)
        layer = pruned.layers[0]
        kept = int(layer.weight_mask.sum() + layer.bias_mask.sum())
        assert comp.score_stats["before"]["count"] == kept
        assert comp.score_stats["after"]["count"] == kept
        assert comp.score_stats["after"]["max_min_ratio"] is not None

    def test_one_sided(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        x = rng.standard_normal((4, 4)).astype(F32)
        scores = {0: score_layer(net.layers[0], x)}
        comp = compression_stats(net, scores_after=scores)
        assert comp.score_stats["before"] is None
        assert comp.score_stats["after"]["count"] == 15  # 4*3 weights + 3 biases

    def test_rejects_non_prunable_and_bad_shape(self, rng):
        net = small_cnn(rng)
        x = rng.standard_normal((2, 6, 6, 2)).astype(F32)  # (C, H, W, N)
        with pytest.raises(ValueError):
            kept_connection_scores(net, {1: None})  # pool layer
        wrong = score_layer(net.layers[0], x)
        mlp = small_mlp(rng, (6, 5, 3))
        with pytest.raises(ValueError):
            kept_connection_scores(mlp, {0: wrong})


class TestHeatmapExport:
    def worked_layer(self):
        layer = DenseLayer(np.array([[2.0, 1.0]], F32), np.array([1.0], F32),
                           "relu")
        scores = fc_importance(layer, np.array([[1.0, 1.0]], F32))
        return layer, scores

    def test_worked_example_values(self, tmp_path):
        layer, scores = self.worked_layer()
        sp, mp = tmp_path / "s.csv", tmp_path / "m.csv"
        export_heatmaps(layer, scores, sp, mp)
        srows = sp.read_text().splitlines()
        mrows = mp.read_text().splitlines()
        assert srows[0] == "score_in_0,score_in_1"
        assert srows[1] == "0.5,0.25"
        assert mrows[0] == "abs_weight_in_0,abs_weight_in_1"
        assert mrows[1] == "2,1"

    def test_zero_weights_all_zero(self, tmp_path):
        layer = DenseLayer(np.zeros((2, 3), F32), np.zeros(2, F32), "relu")
        scores = fc_importance(layer, np.ones((4, 3), F32))
        sp, mp = tmp_path / "s.csv", tmp_path / "m.csv"
        export_heatmaps(layer, scores, sp, mp)
        for path in (sp, mp):
            for line in path.read_text().splitlines()[1:]:
                assert set(line.split(",")) == {"0"}

    def test_deterministic_bytes(self, rng, tmp_path):
        layer = DenseLayer(rng.standard_normal((4, 6)).astype(F32),
                           rng.standard_normal(4).astype(F32), "relu")
        scores = fc_importance(layer, rng.standard_normal((9, 6)).astype(F32))
        a = [tmp_path / "s1.csv", tmp_path / "m1.csv"]
        b = [tmp_path / "s2.csv", tmp_path / "m2.csv"]
        export_heatmaps(layer, scores, *a)
        export_heatmaps(layer, scores, *b)
        assert a[0].read_bytes() == b[0].read_bytes()
        assert a[1].read_bytes() == b[1].read_bytes()

    def test_conv_rejected(self, rng, tmp_path):
        net = small_cnn(rng)
        conv = net.layers[0]
        scores = score_layer(conv, rng.standard_normal((2, 6, 6, 2)).astype(F32))
        with pytest.raises(CapabilityError):
            export_heatmaps(conv, scores, tmp_path / "s.csv", tmp_path / "m.csv")

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        layer, _ = self.worked_layer()
        other = DenseLayer(np.ones((2, 3), F32), np.zeros(2, F32), "relu")
        scores = fc_importance(other, np.ones((2, 3), F32))
        with pytest.raises(ValueError):
            export_heatmaps(layer, scores, tmp_path / "s.csv",
                            tmp_path / "m.csv")

    def test_importance_csv_includes_bias(self, tmp_path):
        _, scores = self.worked_layer()
        path = tmp_path / "imp.csv"
        export_importance_csv(scores, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "in_0,in_1,bias"
        assert rows[1] == "0.5,0.25,0.25"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_csv_module_writer(self, tmp_path, dtype):
        # tiny and subnormal, huge, exactly 9 and more significant digits,
        # integral, and zero
        fi = np.finfo(dtype)
        values = [fi.smallest_subnormal, fi.tiny, 1e-30, fi.max, 3.4e38, 1e30,
                  0.123456789, 123456789.0, 1.23456789e-5, 0.1234567891234,
                  2 / 3, 0.0, 1.0, 2.0, 7.0, 1234567890.0, 16777217.0, 1e9]
        assert_exports_match_writer(
            tmp_path, np.array(values * 2, dtype).reshape(4, 9))


def csv_module_writer(path, header, grid):
    """The reference: each value at "%.9g" in Python, rows written by the
    csv module (comma-separated, CRLF-terminated)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in grid:
            writer.writerow(["%.9g" % v for v in row])


def assert_exports_match_writer(tmp_path, grid):
    """``export_importance_csv`` of ``grid``, and ``export_heatmaps`` of a
    dense layer holding all but its last column, write the reference's
    bytes."""
    rows, cols = grid.shape
    names = [f"in_{i}" for i in range(cols - 1)]
    scores = ImportanceScores(scores=grid, totals=np.ones(rows))
    expected = tmp_path / "expected.csv"
    written = [(tmp_path / "importance.csv", names + ["bias"], grid)]
    export_importance_csv(scores, written[0][0])
    if rows and cols > 1:
        layer = DenseLayer(grid[:, :-1], grid[:, -1], "relu", dtype=grid.dtype)
        written += [(tmp_path / "scores.csv", [f"score_{n}" for n in names],
                     grid[:, :-1]),
                    (tmp_path / "magnitudes.csv",
                     [f"abs_weight_{n}" for n in names], np.abs(grid[:, :-1]))]
        export_heatmaps(layer, scores, written[1][0], written[2][0])
    for path, header, values in written:
        csv_module_writer(expected, header, values)
        assert path.read_bytes() == expected.read_bytes(), path.name


# Values in whole rows the CSV encoder takes at a time; the grids below span
# several of its blocks and one value, or one row, more.
BLOCK = grid_csv.BLOCK
MULTI_BLOCK_SHAPES = [(2 * BLOCK + 1, 1), (3, BLOCK + 1),
                      (2 * (BLOCK // 801) + 1, 801)]


SMALL_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(2, 40)),
    st.tuples(st.integers(2, 40), st.just(1)),
    st.tuples(st.integers(0, 12), st.integers(1, 12)))


@st.composite
def float_grids(draw, shapes):
    """Grids of float32 or float64 values over the whole range: ±0,
    subnormals, the extremes, ±inf and NaN, the strategy's own floats, raw
    bit patterns, and score- and weight-like values, with exact zero
    columns."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    fi = np.finfo(dtype)
    shape = draw(shapes)
    drawn = draw(st.lists(st.floats(width=fi.bits), min_size=1, max_size=12))
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, fi.smallest_subnormal,
            -fi.tiny, fi.max, *drawn]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = shape[0] * shape[1]
    uint = np.dtype(f"uint{fi.bits}")
    bits = rng.integers(0, np.iinfo(uint).max, n, dtype=uint, endpoint=True)
    pools = [bits.view(dtype),
             rng.random(n).astype(dtype),
             rng.standard_normal(n).astype(dtype),
             (10.0 ** rng.uniform(-16, 32, n)).astype(dtype),
             np.array(edge, dtype)[rng.integers(0, len(edge), n)]]
    grid = np.choose(rng.integers(0, len(pools), n), pools).reshape(shape)
    grid[:, rng.random(shape[1]) < 0.15] = 0  # always-dead inputs
    return grid


class TestCsvBytes:
    """The score and magnitude CSVs hold exactly the bytes of formatting
    every value with "%.9g" in Python."""

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=float_grids(SMALL_SHAPES))
    def test_grids_match_writer(self, tmp_path, grid):
        assert_exports_match_writer(tmp_path, grid)

    @settings(max_examples=6, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=float_grids(st.sampled_from(MULTI_BLOCK_SHAPES)))
    def test_multi_block_grids_match_writer(self, tmp_path, grid):
        assert_exports_match_writer(tmp_path, grid)

    def check(self, tmp_path, values, dtype=np.float64):
        values = np.asarray(values, np.float64)
        for v in (values, -values):
            assert_exports_match_writer(tmp_path,
                                        v.astype(dtype).reshape(-1, 1))
            assert_exports_match_writer(tmp_path,
                                        v.astype(dtype).reshape(1, -1))

    def test_nine_digit_ties(self, tmp_path):
        # (q + 1/2) * 10**k: exact halfway cases for k in 0..9, which round
        # to even, and the nearest floats to them for k < 0
        q = np.random.default_rng(3).integers(10 ** 8, 10 ** 9, 64)
        q[:2] = [10 ** 8, 10 ** 9 - 1]
        self.check(tmp_path, np.outer(10.0 ** np.arange(-30, 31), q + 0.5))

    def test_carries(self, tmp_path):
        # rounding up to 10**9 carries into the exponent, and can move a
        # value from fixed to scientific notation or back
        tie = 999999999.5 * 10.0 ** np.arange(-30, 31)
        self.check(tmp_path, [tie, np.nextafter(tie, 0),
                              np.nextafter(tie, np.inf), tie * 0.9999999999,
                              999999999.4 * 10.0 ** np.arange(-30, 31)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_powers_of_ten_and_neighbours(self, tmp_path, dtype):
        tens = np.array([10.0 ** k for k in range(-45, 39)]).astype(dtype)
        self.check(tmp_path, np.concatenate(
            [tens, np.nextafter(tens, dtype(0)),
             np.nextafter(tens, dtype(np.inf))]), dtype)

    def test_notation_boundaries(self, tmp_path):
        # fixed notation for exponents -4..8, scientific outside; the vector
        # path's exponent range ends at -14 and 30; three-digit exponents
        self.check(tmp_path, [
            1.23456789e-5, 9.99999999e-5, 9.999999995e-5, 9.9999999949e-5,
            1e-4, 1.00000001e-4, 0.000123456789,
            99999999.9, 99999999.95, 123456789.0, 999999999.0, 999999999.5,
            1e9, 1234567890.0, 12345678.5, 1.5, 10.25, 100.0, 120.0, 1200.5,
            9.99999999e-15, 9.999999995e-15, 1e-14, 1.23456789e-14, 1e-15,
            9.99999999e30, 9.9999999995e30, 1e31, 1.23456789e30,
            1e100, 1.23456789e-100, 1e-300, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 0.0, np.inf, np.nan])

    def test_zero_rows_write_the_header_only(self, tmp_path):
        assert_exports_match_writer(tmp_path, np.zeros((0, 5), np.float32))
        scores = ImportanceScores(scores=np.zeros((0, 3)), totals=np.ones(0))
        export_importance_csv(scores, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"in_0,in_1,bias\r\n"
