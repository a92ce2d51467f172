"""The pooling and convolution kernels against the straightforward NumPy code.

The references below are the array-idiom versions of max pooling (argmax
over each window, ``np.add.at`` for the gradient) and of the convolution
backward pass (one product per sample, then a scatter-add per kernel tap).
The layers must reproduce them bit for bit, signed zeros included, because
run fingerprints hash the trained weights.
"""

import numpy as np
import pytest

from prune_relief import ConvLayer, MaxPool2D, im2col
from prune_relief.tensor_ops import check_stride_padding, col2im, conv_output_hw


def ref_pool_forward(x, window, stride):
    wh, ww = window
    sh, sw = stride
    n, c = x.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(x, (wh, ww), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]  # (N, C, Ho, Wo, wh, ww)
    ho, wo = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, ho, wo, wh * ww)
    arg = flat.argmax(axis=4)
    y = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    return y, arg


def ref_pool_backward(x_shape, arg, d_out, window, stride):
    n, c = x_shape[:2]
    ww = window[1]
    sh, sw = stride
    ho, wo = arg.shape[2], arg.shape[3]
    dx = np.zeros(x_shape, dtype=d_out.dtype)
    ni, ci, hi, wi = np.indices((n, c, ho, wo), sparse=True)
    rows = hi * sh + arg // ww
    cols = wi * sw + arg % ww
    np.add.at(dx, (np.broadcast_to(ni, arg.shape),
                   np.broadcast_to(ci, arg.shape), rows, cols), d_out)
    return dx


def ref_col2im(cols, x_shape, r, stride, padding):
    n, c, h, w = x_shape
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    dx = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, r, r, ho, wo)
    for q in range(r):
        for t in range(r):
            dx[:, :, q : q + sh * ho : sh, t : t + sw * wo : sw] += cols6[:, :, q, t]
    if ph or pw:
        return dx[:, :, ph : ph + h, pw : pw + w]
    return dx


def ref_conv_backward(layer, cache, d_out):
    x_shape, cols, z = cache
    n = x_shape[0]
    co = layer.out_channels
    dz = d_out * layer.act.df(z)
    dzm = dz.reshape(n, co, -1)  # (N, Co, L)
    dz2 = dzm.transpose(1, 0, 2).reshape(co, -1)
    cols2 = cols.transpose(0, 2, 1).reshape(-1, cols.shape[1])
    dk = (dz2 @ cols2).reshape(layer.kernels.shape)
    dk *= layer.kernel_mask[:, :, None, None]
    db = dz.sum(axis=(0, 2, 3)) * layer.bias_mask
    dcols = np.matmul(layer.kernels.reshape(co, -1).T, dzm)
    dx = ref_col2im(dcols, x_shape, layer.kernel_size, layer.stride, layer.padding)
    return dx, {"kernels": dk, "bias": db}


def signed_zeros(rng, a, frac):
    """Replace a fraction of entries by +0.0 or -0.0 at random."""
    a = a.copy()
    hit = rng.random(a.shape) < frac
    a[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return a


def relu_maps(rng, shape):
    """ReLU-like maps: many zero windows, signed zeros, repeated values."""
    x = np.round(rng.standard_normal(shape), 1).astype(np.float32)
    x = np.where(x > 0, x, np.float32(0.0))
    x = signed_zeros(rng, x, 0.3)
    x[:, :, : x.shape[2] // 2, : x.shape[3] // 2] = 0.0  # whole windows tie
    x[0, 0, 0, 1] = -0.0
    return x


def same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


POOLS = [
    # window, stride, map height, width
    ((2, 2), (2, 2), 8, 8),      # LeNet-5: tiles the map
    ((2, 2), (2, 2), 7, 9),      # map not divisible by the stride
    ((3, 3), (2, 2), 9, 11),     # overlapping windows
    ((3, 3), (2, 2), 10, 8),     # overlapping, not divisible
    ((3, 2), (1, 2), 6, 7),      # non-square, overlapping rows
    ((2, 2), (3, 3), 8, 10),     # gaps between windows
]


class TestMaxPoolMatchesArgmax:
    @pytest.mark.parametrize("window,stride,h,w", POOLS)
    def test_forward_and_backward_bytes(self, rng, window, stride, h, w):
        x = relu_maps(rng, (3, 4, h, w))
        pool = MaxPool2D(window, stride)
        y, cache = pool.forward(x, with_cache=True)
        y_ref, arg_ref = ref_pool_forward(x, window, stride)
        same_bytes(y, y_ref)
        same_bytes(pool.forward(x), y_ref)
        d_out = signed_zeros(rng, rng.standard_normal(y.shape).astype(np.float32), 0.3)
        dx, grads = pool.backward(cache, d_out)
        assert grads == {}
        same_bytes(dx, ref_pool_backward(x.shape, arg_ref, d_out, window, stride))

    def test_first_of_tied_maxima_gets_the_gradient(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        x[0, 0] = [[-0.0, 0.0], [0.0, -1.0]]
        pool = MaxPool2D((2, 2))
        y, cache = pool.forward(x, with_cache=True)
        assert y.tobytes() == np.float32(-0.0).tobytes()
        dx, _ = pool.backward(cache, np.full((1, 1, 1, 1), 2.0, np.float32))
        np.testing.assert_array_equal(dx[0, 0], [[2.0, 0.0], [0.0, 0.0]])

    def test_non_finite_gradient_reaches_only_the_max(self, rng):
        x = relu_maps(rng, (2, 2, 9, 9))
        pool = MaxPool2D((3, 3), (2, 2))
        y, cache = pool.forward(x, with_cache=True)
        d_out = rng.standard_normal(y.shape).astype(np.float32)
        d_out[0, 0, 1, 1] = np.inf
        d_out[1, 1, 2, 0] = -np.inf
        dx, _ = pool.backward(cache, d_out)
        _, arg_ref = ref_pool_forward(x, (3, 3), (2, 2))
        same_bytes(dx, ref_pool_backward(x.shape, arg_ref, d_out, (3, 3), (2, 2)))
        assert not np.isnan(dx).any()

    def test_float64_maps(self, rng):
        x = relu_maps(rng, (2, 3, 9, 9)).astype(np.float64)
        pool = MaxPool2D((3, 3), (2, 2))
        y, cache = pool.forward(x, with_cache=True)
        y_ref, arg_ref = ref_pool_forward(x, (3, 3), (2, 2))
        same_bytes(y, y_ref)
        d_out = rng.standard_normal(y.shape)
        same_bytes(pool.backward(cache, d_out)[0],
                   ref_pool_backward(x.shape, arg_ref, d_out, (3, 3), (2, 2)))


CONVS = [
    # batch, in channels, filters, kernel, stride, padding, height, width
    (4, 1, 5, 5, (1, 1), (0, 0), 12, 12),
    (3, 4, 6, 3, (2, 2), (1, 1), 9, 9),
    (2, 3, 4, 3, (2, 1), (0, 2), 10, 7),
    (5, 2, 3, 2, (1, 2), (1, 0), 6, 8),
    (32, 20, 50, 5, (1, 1), (0, 0), 12, 12),  # LeNet-5's second conv
]


class TestConvBackwardMatchesPerSample:
    @pytest.mark.parametrize("n,ci,co,r,stride,padding,h,w", CONVS)
    def test_gradient_bytes(self, rng, n, ci, co, r, stride, padding, h, w):
        kernels = rng.standard_normal((co, ci, r, r)).astype(np.float32)
        layer = ConvLayer(kernels, rng.standard_normal(co), "relu", stride, padding)
        layer.apply_mask(0, [0, ci])
        x = signed_zeros(rng, rng.standard_normal((n, ci, h, w)).astype(np.float32), 0.2)
        y, cache = layer.forward(x, with_cache=True)
        d_out = signed_zeros(rng, rng.standard_normal(y.shape).astype(np.float32), 0.3)
        dx, grads = layer.backward(cache, d_out)
        dx_ref, grads_ref = ref_conv_backward(layer, cache, d_out)
        same_bytes(dx, dx_ref)
        assert dx.flags.c_contiguous
        for name in ("kernels", "bias"):
            same_bytes(grads[name], grads_ref[name])

    @pytest.mark.parametrize("n,ci,co,r,stride,padding,h,w", CONVS[:4])
    def test_col2im_bytes_in_im2col_layout(self, rng, n, ci, co, r, stride,
                                           padding, h, w):
        x_shape = (n, ci, h, w)
        cols = im2col(np.zeros(x_shape, np.float32), r, stride, padding)
        c = signed_zeros(rng, rng.standard_normal(cols.shape).astype(np.float32), 0.3)
        same_bytes(col2im(c, x_shape, r, stride, padding),
                   np.ascontiguousarray(ref_col2im(c, x_shape, r, stride, padding)))
