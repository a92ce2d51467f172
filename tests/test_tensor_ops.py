"""Tensor primitives: hand-checked values, then randomized properties."""

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, DimensionError,
                          conv_output_hw, im2col, sample_first, sample_last)
from prune_relief.tensor_ops import col2im


def conv_batch(x, kernels, bias, stride=(1, 1), padding=(0, 0)):
    """Batch convolution (N, C_in, H, W) -> (N, C_out, H', W') through a conv
    layer with identity units, in the kernels' dtype."""
    k = np.asarray(kernels)
    layer = ConvLayer(k, bias, "identity", stride, padding, dtype=k.dtype)
    return sample_first(layer.forward(sample_last(np.asarray(x, dtype=k.dtype))))


def conv2d(x, kernels, bias, stride=(1, 1), padding=(0, 0)):
    """Single-sample convolution, (C_in, H, W) -> (C_out, H', W')."""
    return conv_batch(np.asarray(x)[None], kernels, bias, stride, padding)[0]


class TestMatvec:
    """The matrix-vector product as a dense layer with identity units computes it."""

    @staticmethod
    def matvec(w, x):
        w = np.asarray(w, np.float32)
        layer = DenseLayer(w, np.zeros(w.shape[0], np.float32), "identity")
        return layer.forward(np.asarray(x, np.float32)[None])[0]

    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0], np.float32)
        np.testing.assert_array_equal(self.matvec(np.eye(3), x), x)

    def test_hand_example(self):
        w = np.array([[2.0, -1.0]], np.float32)
        np.testing.assert_array_equal(self.matvec(w, [1.0, 0.0]), [2.0])

    def test_zero_matrix(self):
        out = self.matvec(np.zeros((4, 3)), np.ones(3))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            self.matvec(np.zeros((2, 3)), np.zeros(4))

    def test_preserves_dtype(self):
        out = self.matvec(np.eye(2), np.ones(2))
        assert out.dtype == np.float32


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_hw(28, 28, 5, (1, 1), (0, 0)) == (24, 24)

    def test_stride(self):
        assert conv_output_hw(8, 8, 2, (2, 2), (0, 0)) == (4, 4)

    def test_padding(self):
        assert conv_output_hw(4, 4, 3, (1, 1), (1, 1)) == (4, 4)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            conv_output_hw(2, 2, 3, (1, 1), (0, 0))

    def test_kernel_fits_with_padding(self):
        assert conv_output_hw(2, 2, 3, (1, 1), (1, 1)) == (2, 2)


class TestConv2d:
    def test_hand_example(self):
        # single valid position: 1*1 + 0*1 + 0*0 + 1*2 = 3
        x = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        k = np.array([[[[1.0, 1.0], [0.0, 2.0]]]])
        out = conv2d(x, k, [0.0])
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(3.0)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 5, 5)).astype(np.float32)
        k = np.ones((1, 1, 1, 1), np.float32)
        np.testing.assert_array_equal(conv2d(x, k, [0.0]), x)

    def test_zero_kernels_give_bias_map(self):
        x = np.ones((2, 4, 4), np.float32)
        k = np.zeros((3, 2, 2, 2), np.float32)
        out = conv2d(x, k, [1.0, -2.0, 0.5])
        assert out.shape == (3, 3, 3)
        for j, b in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_array_equal(out[j], np.full((3, 3), b, np.float32))

    def test_all_ones(self):
        # 2x2 ones kernel over 3x3 ones image: every position sums 4 taps
        out = conv2d(np.ones((1, 3, 3)), np.ones((1, 1, 2, 2)), [0.0])
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 4.0))

    def test_channel_sum(self, rng):
        # conv over C channels equals the sum of per-channel convs
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        k = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        full = conv2d(x, k, np.zeros(2, np.float32))
        parts = sum(conv2d(x[c:c + 1], k[:, c:c + 1], np.zeros(2, np.float32))
                    for c in range(3))
        np.testing.assert_allclose(full, parts, rtol=1e-5, atol=1e-6)

    def test_linearity(self, rng):
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        y = rng.standard_normal((2, 5, 5)).astype(np.float32)
        k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = np.zeros(3, np.float32)
        lhs = conv2d(2.0 * x + 0.5 * y, k, b)
        rhs = 2.0 * conv2d(x, k, b) + 0.5 * conv2d(y, k, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)

    def test_stride_subsamples(self, rng):
        # not bit-equal: the two GEMM shapes may accumulate differently
        x = rng.standard_normal((1, 6, 6)).astype(np.float32)
        k = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        dense = conv2d(x, k, [0.0], stride=(1, 1))
        strided = conv2d(x, k, [0.0], stride=(2, 2))
        np.testing.assert_allclose(strided, dense[:, ::2, ::2], rtol=1e-6,
                                   atol=1e-6)

    def test_padding_matches_manual(self, rng):
        x = rng.standard_normal((2, 4, 4)).astype(np.float32)
        k = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        xp = np.zeros((2, 6, 6), np.float32)
        xp[:, 1:5, 1:5] = x
        np.testing.assert_allclose(conv2d(x, k, [0.0], padding=(1, 1)),
                                   conv2d(xp, k, [0.0]), rtol=1e-6, atol=1e-6)

    def test_determinism(self, rng):
        x = rng.standard_normal((3, 9, 9)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        a = conv2d(x, k, b, stride=(2, 2), padding=(1, 1))
        c = conv2d(x.copy(), k.copy(), b.copy(), stride=(2, 2), padding=(1, 1))
        np.testing.assert_array_equal(a, c)

    def test_batch_matches_loop(self, rng):
        x = rng.standard_normal((4, 2, 5, 5)).astype(np.float32)
        k = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        batched = conv_batch(x, k, b)
        for n in range(4):
            np.testing.assert_array_equal(batched[n], conv2d(x[n], k, b))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 2, 2)), [0.0])

    def test_finite_outputs(self, rng):
        x = rng.standard_normal((2, 8, 8)).astype(np.float32) * 100
        k = rng.standard_normal((2, 2, 3, 3)).astype(np.float32) * 100
        out = conv2d(x, k, np.zeros(2, np.float32), padding=(2, 2))
        assert np.all(np.isfinite(out))


class TestIm2col:
    def test_round_trip_against_direct(self, rng):
        # lowering then contracting must equal the definition of conv
        x = rng.standard_normal((3, 5, 5, 2))  # (C, H, W, N)
        k = rng.standard_normal((4, 3, 2, 2))
        cols = im2col(x, 2, (1, 1), (0, 0))
        assert cols.shape == (3 * 2 * 2, 4 * 4 * 2)
        got = np.matmul(k.reshape(4, -1), cols).reshape(4, 4, 4, 2)
        want = np.empty((4, 4, 4, 2))
        for n in range(2):
            for f in range(4):
                for i in range(4):
                    for j in range(4):
                        want[f, i, j, n] = np.sum(
                            x[:, i:i + 2, j:j + 2, n] * k[f])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_col2im_is_adjoint(self, rng):
        # <im2col(x), c> == <x, col2im(c)> for random c: defines the adjoint
        x = rng.standard_normal((2, 6, 6, 2))  # (C, H, W, N)
        cols = im2col(x, 3, (2, 2), (1, 1))
        c = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * c))
        back = col2im(c, x.shape, 3, (2, 2), (1, 1))
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-10)
