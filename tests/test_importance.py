"""Importance scoring and mask selection.

Worked examples are frozen by hand first; the randomized properties then pin
normalization, scaling invariance, permutation equivariance, and the
minimal-prefix selection rule against a brute-force oracle.
"""

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, DimensionError,
                          EmptyPruningSetError, Selection, conv_importance,
                          fc_importance, prune_pass, sample_last,
                          score_network, select_kept)
from tests.conftest import (prune_one_layer, random_conv, random_dense,
                            small_cnn, small_mlp)


class TestFcImportance:
    def test_worked_example(self):
        # w = [2, -1], b = 0.5, samples (1,0) and (0,1):
        # numerators |2|*0.5, |-1|*0.5, |0.5| -> S = 2, scores (.5, .25, .25)
        layer = DenseLayer([[2.0, -1.0]], [0.5], "relu")
        x = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
        sc = fc_importance(layer, x)
        np.testing.assert_allclose(sc.scores, [[0.5, 0.25, 0.25]], atol=1e-12)
        assert sc.totals[0] == pytest.approx(2.0)

    def test_single_live_connection_scores_one(self):
        layer = DenseLayer([[3.0, 0.0]], [0.0], "relu")
        sc = fc_importance(layer, np.array([[1.0, 5.0]], np.float32))
        np.testing.assert_allclose(sc.scores, [[1.0, 0.0, 0.0]])

    def test_dead_target_all_zero(self):
        layer = DenseLayer([[0.0, 0.0]], [0.0], "relu")
        sc = fc_importance(layer, np.ones((3, 2), np.float32))
        np.testing.assert_array_equal(sc.scores, [[0.0, 0.0, 0.0]])
        assert sc.totals[0] == 0

    def test_rows_sum_to_one(self, rng):
        layer = random_dense(rng, 17, 9)
        x = rng.standard_normal((25, 17)).astype(np.float32)
        sc = fc_importance(layer, x)
        np.testing.assert_allclose(sc.scores.sum(axis=1), np.ones(9),
                                   atol=1e-5)

    def test_input_scaling_invariance(self, rng):
        # scores are normalized per target, so scaling all inputs cancels
        layer = random_dense(rng, 8, 4)
        x = rng.standard_normal((12, 8)).astype(np.float32)
        a = fc_importance(layer, x)
        b = fc_importance(layer, 3.0 * x)
        keep = a.totals != 0
        # the bias numerator does not scale, so compare connection columns
        # after renormalizing without the bias
        ca = a.scores[keep, :-1] / a.scores[keep, :-1].sum(1, keepdims=True)
        cb = b.scores[keep, :-1] / b.scores[keep, :-1].sum(1, keepdims=True)
        np.testing.assert_allclose(ca, cb, rtol=1e-6, atol=1e-9)

    def test_contributor_permutation_equivariance(self, rng):
        layer = random_dense(rng, 6, 3)
        x = rng.standard_normal((10, 6)).astype(np.float32)
        perm = rng.permutation(6)
        permuted = DenseLayer(layer.weights[:, perm], layer.bias,
                              layer.activation)
        a = fc_importance(layer, x)
        b = fc_importance(permuted, x[:, perm])
        np.testing.assert_allclose(b.scores[:, :-1], a.scores[:, perm],
                                   rtol=1e-12)
        np.testing.assert_allclose(b.scores[:, -1], a.scores[:, -1],
                                   rtol=1e-12)

    def test_masked_connections_score_zero(self, rng):
        layer = random_dense(rng, 10, 4)
        layer.apply_mask(2, [1, 5, 8])
        x = rng.standard_normal((6, 10)).astype(np.float32)
        sc = fc_importance(layer, x)
        assert np.all(sc.scores[2, [1, 5, 8]] == 0.0)

    def test_empty_pruning_set(self, rng):
        layer = random_dense(rng, 4, 2)
        with pytest.raises(EmptyPruningSetError):
            fc_importance(layer, np.zeros((0, 4), np.float32))

    def test_wrong_width(self, rng):
        layer = random_dense(rng, 4, 2)
        with pytest.raises(DimensionError):
            fc_importance(layer, np.zeros((3, 5), np.float32))


class TestConvImportance:
    def test_worked_example(self):
        # |K| * |x| over the single valid position gives 3, bias sqrt(1)*1:
        # S = 4, scores (0.75, 0.25)
        k = np.array([[[[1.0, -1.0], [0.0, 2.0]]]], np.float32)
        layer = ConvLayer(k, [1.0], "relu")
        x = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], np.float32)
        sc = conv_importance(layer, sample_last(x))
        np.testing.assert_allclose(sc.scores, [[0.75, 0.25]], atol=1e-12)
        assert sc.totals[0] == pytest.approx(4.0)

    def test_bias_scales_with_map_size(self, rng):
        # same kernels over a larger input: the bias numerator grows with
        # sqrt(output positions)
        k = np.zeros((1, 1, 2, 2), np.float32)
        layer = ConvLayer(k, [2.0], "relu")
        x = rng.standard_normal((3, 1, 5, 5)).astype(np.float32)
        sc = conv_importance(layer, sample_last(x))
        assert sc.totals[0] == pytest.approx(2.0 * 4.0)  # sqrt(16 positions)

    def test_zero_kernel_scores_zero(self, rng):
        k = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        k[1, 2] = 0.0
        layer = ConvLayer(k, [0.1, 0.1], "relu")
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        sc = conv_importance(layer, sample_last(x))
        assert sc.scores[1, 2] == 0.0
        assert sc.scores[0, 2] > 0.0

    def test_single_live_kernel_scores_one(self, rng):
        k = np.zeros((1, 2, 2, 2), np.float32)
        k[0, 0] = 1.0
        layer = ConvLayer(k, [0.0], "relu")
        x = np.abs(rng.standard_normal((3, 2, 4, 4))).astype(np.float32) + 0.1
        sc = conv_importance(layer, sample_last(x))
        np.testing.assert_allclose(sc.scores, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        layer = random_conv(rng, 4, 6, 3)
        x = rng.standard_normal((8, 4, 9, 9)).astype(np.float32)
        sc = conv_importance(layer, sample_last(x))
        np.testing.assert_allclose(sc.scores.sum(axis=1), np.ones(6),
                                   atol=1e-5)

    def test_respects_stride_and_padding(self, rng):
        layer = random_conv(rng, 2, 3, 3, stride=(2, 2), padding=(1, 1))
        x = rng.standard_normal((5, 2, 8, 8)).astype(np.float32)
        sc = conv_importance(layer, sample_last(x))
        # output is 4x4 under these settings; a bias-only filter shows it
        bias_only = ConvLayer(np.zeros_like(layer.kernels), layer.bias.copy(),
                              "relu", (2, 2), (1, 1))
        sc2 = conv_importance(bias_only, sample_last(x))
        np.testing.assert_allclose(sc2.totals, np.abs(layer.bias) * 4.0,
                                   rtol=1e-6)
        assert sc.scores.shape == (3, 3)


def oracle_select(scores, alpha):
    """Brute-force minimal prefix over descending scores, ties kept.

    Sums run left to right over the sorted order, matching the float
    semantics of a cumulative sum, so agreement must be exact.
    """
    m = len(scores)
    order = sorted(range(m), key=lambda i: (-scores[i], i))
    total = 0.0
    for i in order:
        total += scores[i]
    if total <= 0:
        return [], list(range(m)), 0, 0.0
    target = min(alpha, total)
    acc = 0.0
    p0 = m
    for p, i in enumerate(order, 1):
        acc += scores[i]
        if acc >= target:
            p0 = p
            break
    threshold = scores[order[p0 - 1]]
    kept = [i for i in range(m) if scores[i] >= threshold]
    pruned = [i for i in range(m) if scores[i] < threshold]
    return kept, pruned, p0, threshold


class TestSelectKept:
    def test_worked_example_alpha_090(self):
        d = select_kept([0.5, 0.3, 0.15, 0.05], 0.9)
        assert list(d.kept) == [0, 1, 2]
        assert list(d.pruned) == [3]
        assert d.prefix_len == 3
        assert d.achieved_mass == pytest.approx(0.95)

    def test_worked_example_ties_kept(self):
        # prefix of 2 reaches 0.7, and the tied third score survives too
        d = select_kept([0.4, 0.3, 0.3], 0.7)
        assert list(d.kept) == [0, 1, 2]
        assert list(d.pruned) == []
        assert d.prefix_len == 2

    def test_alpha_one_prunes_only_zeros(self):
        d = select_kept([0.5, 0.0, 0.3, 0.2, 0.0], 1.0)
        assert list(d.pruned) == [1, 4]
        assert d.achieved_mass == pytest.approx(1.0)

    def test_dead_row_prunes_everything(self):
        d = select_kept([0.0, 0.0, 0.0], 0.9)
        assert list(d.kept) == []
        assert list(d.pruned) == [0, 1, 2]
        assert d.achieved_mass == 0.0

    def test_single_contributor(self):
        d = select_kept([1.0], 0.5)
        assert list(d.kept) == [0]

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            select_kept([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            select_kept([0.5, 0.5], 1.5)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            select_kept([0.5, -0.1], 0.9)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            select_kept([0.5, np.nan, 0.2], 0.9)
        with pytest.raises(ValueError, match="non-negative"):
            select_kept(np.full((2, 3), np.nan), 1.0)

    def test_matches_oracle_on_random_rows(self, rng):
        alphas = [0.5, 0.7, 0.9, 0.95, 0.99, 1.0]
        for _ in range(300):
            m = int(rng.integers(1, 13))
            # quantized draws force ties and exact zeros regularly
            row = rng.integers(0, 6, size=m).astype(np.float64)
            if row.sum() > 0:
                row = row / row.sum()
            for alpha in alphas:
                d = select_kept(row, alpha)
                kept, pruned, p0, thr = oracle_select(list(row), alpha)
                assert list(d.kept) == kept
                assert list(d.pruned) == pruned
                assert d.prefix_len == p0
                assert d.threshold == thr

    def test_achieved_mass_reaches_alpha(self, rng):
        for _ in range(100):
            row = rng.random(10)
            row /= row.sum()
            alpha = float(rng.uniform(0.3, 1.0))
            d = select_kept(row, alpha)
            assert d.achieved_mass >= min(alpha, row.sum()) - 1e-9

    def test_matrix_rows_match_single_rows(self, rng):
        # quantized draws force ties and exact zeros; row 3 is dead
        s = rng.integers(0, 6, size=(9, 11)).astype(np.float64)
        s[3] = 0.0
        s /= np.maximum(s.sum(axis=1, keepdims=True), 1.0)
        for alpha in (0.5, 0.7, 0.9, 0.95, 1.0):
            sel = select_kept(s, alpha)
            assert sel.keep.shape == s.shape
            assert not sel.keep[3].any() and sel.prefix_len[3] == 0
            for i, row in enumerate(s):
                one = select_kept(row, alpha)
                np.testing.assert_array_equal(sel.keep[i], one.keep)
                assert sel.prefix_len[i] == one.prefix_len
                assert sel.threshold[i] == one.threshold
                assert sel.achieved_mass[i] == one.achieved_mass
                kept, _, p0, thr = oracle_select(list(row), alpha)
                assert np.flatnonzero(sel.keep[i]).tolist() == kept
                assert (sel.prefix_len[i], sel.threshold[i]) == (p0, thr)
                assert sel.achieved_mass[i] == pytest.approx(row[kept].sum(),
                                                             abs=1e-12)

    def test_alpha_monotonicity(self, rng):
        # a larger alpha never keeps fewer contributors
        for _ in range(50):
            row = rng.random(9)
            row /= row.sum()
            kept_sizes = [select_kept(row, a).kept.size
                          for a in (0.3, 0.6, 0.9, 1.0)]
            assert kept_sizes == sorted(kept_sizes)


def argsort_select(scores, alpha):
    """Reference selection by a stable argsort of the negated rows, ranking
    ties by ascending index. ``select_kept`` reads only the sorted values and
    must give the same fields byte for byte."""
    s = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    lead = s.shape[:-1]
    rows = s.reshape(-1, s.shape[-1])
    order = np.argsort(-rows, axis=1, kind="stable")
    cum = np.cumsum(np.take_along_axis(rows, order, axis=1), axis=1)
    total = cum[:, -1:]
    live = total[:, 0] > 0
    p0 = np.count_nonzero(cum < np.minimum(alpha, total), axis=1) + 1
    last = np.take_along_axis(order, p0[:, None] - 1, axis=1)
    threshold = np.take_along_axis(rows, last, axis=1)[:, 0]
    keep = (rows >= threshold[:, None]) & live[:, None]
    return Selection(
        keep=keep.reshape(s.shape),
        prefix_len=np.where(live, p0, 0).reshape(lead)[()],
        threshold=threshold.reshape(lead)[()],
        achieved_mass=np.where(keep, rows, 0.0).sum(axis=1).reshape(lead)[()])


def selection_cases(rng):
    """Score arrays of every kind selection meets, rows summing to one or
    (mass below alpha) to less."""
    def normalized(s, mass=1.0):
        return mass * s / np.maximum(s.sum(axis=-1, keepdims=True), 1e-300)

    cases = []
    for _ in range(40):
        t, m = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        mass = float(rng.choice([1.0, 0.92, 0.5]))
        random = rng.random((t, m))
        ties = rng.integers(0, 5, size=(t, m)).astype(np.float64)
        zeros = random * (rng.random((t, m)) < 0.4)
        dead = rng.integers(0, 3, size=(t, m)).astype(np.float64)
        dead[rng.random(t) < 0.5] = 0.0
        cases += [normalized(c, mass) for c in (random, ties, zeros, dead)]
    cases += [normalized(rng.random(17)), normalized(rng.integers(0, 3, 12)),
              np.zeros(5), np.array([1.0]), np.array([0.25] * 4)]
    cube = normalized(rng.integers(0, 4, size=(2, 3, 9)).astype(np.float64))
    cube[1, 2] = 0.0
    return cases + [cube, normalized(rng.random((3, 4, 6)))]


class TestSelectKeptMatchesArgsortSelection:
    @pytest.mark.parametrize("alpha", [0.3, 0.9, 0.95, 1.0])
    def test_fields_byte_identical(self, rng, alpha):
        for s in selection_cases(rng):
            got, want = select_kept(s, alpha), argsort_select(s, alpha)
            for field in ("keep", "prefix_len", "threshold", "achieved_mass"):
                a = np.asarray(getattr(got, field))
                b = np.asarray(getattr(want, field))
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field
                assert a.tobytes() == b.tobytes(), (field, s)


class TestPrunePass:
    def test_masks_applied_and_reported(self, rng):
        net = small_mlp(rng, (10, 8, 4))
        x = rng.standard_normal((20, 10)).astype(np.float32)
        _, decisions = prune_pass(net, x, alpha_conv=0.9, alpha_fc=0.7)
        assert [d.layer_index for d in decisions] == [0, 1]
        for d in decisions:
            layer = net.layers[d.layer_index]
            dropped = ~d.selection.keep
            assert dropped.any()
            assert np.all(layer.weight_mask[dropped[:, :-1]] == 0)
            assert np.all(layer.weights[dropped[:, :-1]] == 0.0)
            assert np.all(layer.bias[dropped[:, -1]] == 0.0)

    def test_alpha_one_keeps_dense_random_net_intact(self, rng):
        # no exact zero scores in a fully random net, so nothing is pruned
        net = small_mlp(rng, (6, 5, 3))
        x = rng.standard_normal((10, 6)).astype(np.float32) + 0.5
        prune_pass(net, x, 1.0, 1.0)
        for li in net.prunable_indices():
            assert np.all(net.layers[li].weight_mask == 1)

    def test_scoring_uses_pass_start_activations(self, rng):
        # masking layer 0 heavily must not change what layer 1 is scored on:
        # compare against scoring layer 1 on the unpruned network's input to it
        net = small_mlp(rng, (8, 6, 3))
        x = rng.standard_normal((15, 8)).astype(np.float32)
        _, kept = net.forward(x, keep=[1])
        from prune_relief import fc_importance as fci
        expected = fci(net.layers[1], kept[1])
        _, decisions = prune_pass(net, x, 0.6, 0.6)
        np.testing.assert_allclose(decisions[1].scores.scores, expected.scores,
                                   rtol=1e-12)

    def test_achieved_mass_at_least_alpha(self, rng):
        net = small_cnn(rng)
        x = rng.standard_normal((12, 2, 6, 6)).astype(np.float32)
        _, decisions = prune_pass(net, x, 0.8, 0.85)
        for d in decisions:
            alpha = 0.85 if d.kind == "dense" else 0.8
            live = d.scores.totals > 0
            assert np.all(d.selection.achieved_mass[live] >= alpha - 1e-9)

    def test_empty_pruning_set(self, rng):
        net = small_mlp(rng, (4, 3, 2))
        for empty in ([], np.zeros((0, 4), np.float32)):
            with pytest.raises(EmptyPruningSetError):
                prune_pass(net, empty, 0.9, 0.9)
            with pytest.raises(EmptyPruningSetError):
                score_network(net, empty, [1])

    def test_repeated_pass_is_monotone(self, rng):
        net = small_mlp(rng, (12, 9, 4))
        x = rng.standard_normal((30, 12)).astype(np.float32)
        prune_pass(net, x, 0.8, 0.8)
        first = [net.layers[li].weight_mask.copy()
                 for li in net.prunable_indices()]
        prune_pass(net, x, 0.8, 0.8)
        for li, before in zip(net.prunable_indices(), first):
            after = net.layers[li].weight_mask
            # masks only ever turn off: anything masked stays masked
            assert np.all(after <= before)


class TestPruneSingleLayer:
    def test_only_requested_layer_changes(self, rng):
        net = small_mlp(rng, (8, 6, 4))
        x = rng.standard_normal((10, 8)).astype(np.float32)
        pruned, dec = prune_one_layer(net, 1, 0.6, x)
        assert dec.layer_index == 1
        np.testing.assert_array_equal(pruned.layers[0].weight_mask,
                                      net.layers[0].weight_mask)
        assert np.any(pruned.layers[1].weight_mask == 0)
        # original untouched
        assert np.all(net.layers[1].weight_mask == 1)

    def test_non_prunable_layer_rejected(self, rng):
        net = small_cnn(rng)
        with pytest.raises(IndexError):
            score_network(net, rng.standard_normal((4, 2, 6, 6)).astype(
                np.float32), [1])
