"""The pooling and convolution kernels against straightforward NumPy code.

The layers carry (C, H, W, N) maps; the references below are written for
(N, C, H, W) batches and are compared through transposes. Max pooling only
selects and routes values, so it must match the array-idiom reference (argmax
over each window, ``np.add.at`` for the gradient) bit for bit, signed zeros
included, and so must ``col2im``, which adds the same taps in the same order.
The convolution's products accumulate in another order than any reference,
so its forward and backward passes are compared with a float64 per-sample
oracle to a tolerance set from float32 rounding. A conv and the max pool
after it, which training and inference run as one step, are compared with
the two layers run one after the other, bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from prune_relief import (ACTIVATIONS, ConvLayer, Flatten, MaxPool2D, Network,
                          im2col, sample_first, sample_last, training)
from prune_relief.tensor_ops import check_stride_padding, col2im, conv_output_hw
from tests.conftest import mask_pairs, random_conv


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
    """col2im for (N, C*r*r, Ho*Wo) columns onto an (N, C, H, W) batch."""
    n, c, h, w = x_shape
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    dx = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, r, r, ho, wo)
    for q in range(r):
        for t in range(r):
            dx[:, :, q : q + sh * ho : sh, t : t + sw * wo : sw] += cols6[:, :, q, t]
    return np.ascontiguousarray(dx[:, :, ph : ph + h, pw : pw + w])


def oracle_conv(layer, x, d_out):
    """Forward output and gradients of a relu conv layer, one sample at a
    time in float64, for an (N, C, H, W) batch."""
    k = layer.kernels.astype(np.float64)
    b = layer.bias.astype(np.float64)
    r = layer.kernel_size
    (sh, sw), (ph, pw) = layer.stride, layer.padding
    x = x.astype(np.float64)
    d_out = d_out.astype(np.float64)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = d_out.shape[2:]
    y = np.empty(d_out.shape)
    dk = np.zeros(k.shape)
    db = np.zeros(b.shape)
    dxp = np.zeros(xp.shape)
    for n in range(x.shape[0]):
        win = np.lib.stride_tricks.sliding_window_view(xp[n], (r, r), axis=(1, 2))
        win = win[:, ::sh, ::sw][:, :ho, :wo]  # (C, Ho, Wo, r, r)
        z = np.einsum("chwqt,fcqt->fhw", win, k) + b[:, None, None]
        y[n] = np.maximum(z, 0.0)
        dz = d_out[n] * (z > 0)
        dk += np.einsum("fhw,chwqt->fcqt", dz, win)
        db += dz.sum(axis=(1, 2))
        for q in range(r):
            for t in range(r):
                dxp[n, :, q : q + sh * ho : sh, t : t + sw * wo : sw] += \
                    np.einsum("fhw,fc->chw", dz, k[:, :, q, t])
    dk *= layer.kernel_mask[:, :, None, None]
    db *= layer.bias_mask
    return y, dxp[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]], dk, db


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


def pool_nchw(pool, x, d_out):
    """The pool layer's output and input gradient for (N, C, H, W) arrays,
    run on the (C, H, W, N) maps it carries."""
    y, cache = pool.forward(sample_last(x), with_cache=True)
    same_bytes(pool.forward(sample_last(x)), y)
    dx, grads = pool.backward(cache, sample_last(d_out))
    assert grads == {}
    return sample_first(y), sample_first(dx)


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
        y_ref, arg_ref = ref_pool_forward(x, window, stride)
        d_out = signed_zeros(rng, rng.standard_normal(y_ref.shape).astype(np.float32), 0.3)
        y, dx = pool_nchw(pool, x, d_out)
        same_bytes(y, y_ref)
        same_bytes(dx, ref_pool_backward(x.shape, arg_ref, d_out, window, stride))

    def test_first_of_tied_maxima_gets_the_gradient(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        x[0, 0] = [[-0.0, 0.0], [0.0, -1.0]]
        y, dx = pool_nchw(MaxPool2D((2, 2)), x, np.full((1, 1, 1, 1), 2.0, np.float32))
        assert y.tobytes() == np.float32(-0.0).tobytes()
        np.testing.assert_array_equal(dx[0, 0], [[2.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("window,stride", [((3, 3), (2, 2)),
                                               ((2, 2), (2, 2))])
    def test_non_finite_gradient_reaches_only_the_max(self, rng, window,
                                                      stride):
        x = relu_maps(rng, (2, 2, 9, 9))
        y_ref, arg_ref = ref_pool_forward(x, window, stride)
        d_out = rng.standard_normal(y_ref.shape).astype(np.float32)
        d_out[0, 0, 1, 1] = np.inf
        d_out[1, 1, 2, 0] = -np.inf
        _, dx = pool_nchw(MaxPool2D(window, stride), x, d_out)
        same_bytes(dx, ref_pool_backward(x.shape, arg_ref, d_out, window,
                                         stride))
        assert not np.isnan(dx).any()

    def test_float64_maps(self, rng):
        x = relu_maps(rng, (2, 3, 9, 9)).astype(np.float64)
        y_ref, arg_ref = ref_pool_forward(x, (3, 3), (2, 2))
        d_out = rng.standard_normal(y_ref.shape)
        y, dx = pool_nchw(MaxPool2D((3, 3), (2, 2)), x, d_out)
        same_bytes(y, y_ref)
        same_bytes(dx, ref_pool_backward(x.shape, arg_ref, d_out, (3, 3), (2, 2)))


CONVS = [
    # batch, in channels, filters, kernel, stride, padding, height, width
    (4, 1, 5, 5, (1, 1), (0, 0), 12, 12),
    (3, 4, 6, 3, (2, 2), (1, 1), 9, 9),
    (2, 3, 4, 3, (2, 1), (0, 2), 10, 7),
    (5, 2, 3, 2, (1, 2), (1, 0), 6, 8),
    (32, 20, 50, 5, (1, 1), (0, 0), 12, 12),  # LeNet-5's second conv
]


def close_to(got, want):
    """float32 results against a float64 oracle, relative to its scale."""
    scale = max(float(np.abs(want).max()), 1e-30)
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-6 * scale)


class TestConvBackwardMatchesPerSample:
    @pytest.mark.parametrize("n,ci,co,r,stride,padding,h,w", CONVS)
    def test_float64_oracle(
            self, rng, n, ci, co, r, stride, padding, h, w):
        kernels = rng.standard_normal((co, ci, r, r)).astype(np.float32)
        layer = ConvLayer(kernels, rng.standard_normal(co), "relu", stride, padding)
        mask_pairs(layer, 0, [0, ci])
        x = signed_zeros(rng, rng.standard_normal((n, ci, h, w)).astype(np.float32), 0.2)
        y, cache = layer.forward(sample_last(x), with_cache=True)
        d_out = rng.standard_normal(y.shape).astype(np.float32)
        dx, grads = layer.backward(cache, d_out)
        y_ref, dx_ref, dk_ref, db_ref = oracle_conv(layer, x, sample_first(d_out))
        assert dx.shape == (ci, h, w, n) and dx.flags.c_contiguous
        close_to(sample_first(y), y_ref)
        close_to(sample_first(dx), dx_ref)
        close_to(grads["kernels"], dk_ref)
        close_to(grads["bias"], db_ref)
        # the masked kernel and bias get exactly zero gradient
        assert not grads["kernels"][0, 0].any() and grads["bias"][0] == 0

    @pytest.mark.parametrize("n,ci,co,r,stride,padding,h,w", CONVS[:4])
    def test_col2im_bytes_in_im2col_layout(self, rng, n, ci, co, r, stride,
                                           padding, h, w):
        cols = im2col(np.zeros((ci, h, w, n), np.float32), r, stride, padding)
        c = signed_zeros(rng, rng.standard_normal(cols.shape).astype(np.float32), 0.3)
        # the reference takes (N, C*r*r, Ho*Wo) columns
        c_ref = c.reshape(c.shape[0], -1, n).transpose(2, 0, 1)
        same_bytes(sample_first(col2im(c, (ci, h, w, n), r, stride, padding)),
                   ref_col2im(c_ref, (n, ci, h, w), r, stride, padding))

    @pytest.mark.parametrize("n,ci,co,r,stride,padding,h,w", CONVS)
    def test_im2col_col2im_adjoint(self, rng, n, ci, co, r, stride, padding,
                                   h, w):
        # <im2col(x), c> == <x, col2im(c)> in float64
        x = rng.standard_normal((ci, h, w, n))
        cols = im2col(x, r, stride, padding)
        c = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * c))
        rhs = float(np.sum(x * col2im(c, x.shape, r, stride, padding)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


# (window, stride) of the pool after a conv: windows that tile the map, that
# leave gaps, one-element windows, and overlapping ones, which train unpaired
PAIR_POOLS = [((2, 2), (2, 2)), ((2, 2), (3, 3)), ((1, 1), (1, 1)),
              ((3, 3), (2, 2))]
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)


@st.composite
def conv_pool_stacks(draw):
    """A network of one or two conv -> max pool stages and a Flatten, whose
    flattened pooled maps are the logits, with masked kernel pairs and
    possibly an all-masked filter, and its input batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    activation = draw(st.sampled_from(sorted(ACTIVATIONS)))
    shape = (draw(st.integers(1, 2)), draw(st.integers(3, 12)),
             draw(st.integers(3, 12)))
    layers, cur = [], shape
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        assume(cur[1] >= k and cur[2] >= k)
        conv = random_conv(rng, cur[0], draw(st.integers(1, 3)), k,
                           activation)
        keep = rng.random((conv.fan_out, conv.fan_in + 1)) < 0.7
        if draw(st.booleans()):
            keep[rng.integers(conv.fan_out)] = False  # an all-masked filter
        conv.apply_mask(keep)
        pool = MaxPool2D(*draw(st.sampled_from(PAIR_POOLS)))
        cur = conv.output_shape(cur)
        assume(cur[1] >= pool.window[0] and cur[2] >= pool.window[1])
        cur = pool.output_shape(cur)
        layers += [conv, pool]
    net = Network(layers + [Flatten()], shape, int(np.prod(cur)))
    n = draw(st.sampled_from([1, 7, 193, 257]))
    x = signed_zeros(rng, rng.standard_normal((n, *shape)), 0.1)
    return net, x.astype(np.float32), rng


def unpaired_step(net, x, labels, d):
    """Loss and gradients with every layer's own forward and backward run
    alone, and ``d`` as the gradient of the logits."""
    a = net.first_layer_input(x)
    caches = []
    for layer in net.layers:
        a, cache = layer.forward(a, with_cache=True)
        caches.append(cache)
    loss, _ = training.softmax_cross_entropy(a, labels)
    grads = [{} for _ in net.layers]
    for i in range(len(net.layers) - 1, 0, -1):
        d, grads[i] = net.layers[i].backward(caches[i], d)
    _, grads[0] = net.layers[0].backward(caches[0], d, input_grad=False)
    return loss, grads


class TestConvPoolPairs:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stack=conv_pool_stacks())
    def test_pair_gives_the_bytes_of_its_layers(self, band_budget, stack):
        net, x, rng = stack
        n = x.shape[0]
        labels = rng.integers(0, net.classes, n)
        # a gradient of the logits with signed zeros, infinities and NaN
        d = rng.standard_normal((n, net.classes)).astype(np.float32)
        hit = rng.random(d.shape) < 0.3
        d[hit] = rng.choice(SPECIALS, int(hit.sum()))
        loss_of = training.softmax_cross_entropy

        def loss_and_d(logits, labels):
            return loss_of(logits, labels)[0], d

        # the special values make inf - inf and 0 * inf on the way back
        with np.errstate(invalid="ignore"):
            want_loss, want = unpaired_step(net, x, labels, d)
            with mock.patch.object(training, "softmax_cross_entropy",
                                   loss_and_d):
                loss, grads, _ = training.forward_backward(net, x, labels)
        assert loss == want_loss or np.isnan(loss) and np.isnan(want_loss)
        for got, ref in zip(grads, want):
            assert got.keys() == ref.keys()
            for name in got:
                same_bytes(got[name], ref[name])

        a = net.first_layer_input(x)
        for layer in net.layers:
            a = layer.forward(a)
        same_bytes(net.forward(x), a)

        # the first pair's own dz, before the products sum it: the pool's
        # backward given the activation, against routing first and
        # multiplying by act.df(z) over the whole map
        conv, pool = net.layers[:2]
        if pool.tiles and conv.act.dfy is not None:
            y, (_, z) = conv.forward(net.first_layer_input(x),
                                     with_cache=True)
            pooled, cache = pool.forward(y, with_cache=True)
            g = rng.choice(SPECIALS, pooled.shape)
            finite = rng.random(g.shape) < 0.5
            g[finite] = rng.standard_normal(int(finite.sum()))
            with np.errstate(invalid="ignore"):
                want_dz = pool.backward(cache, g)[0] * conv.act.df(z)
                same_bytes(pool.backward(cache, g, act=conv.act)[0], want_dz)
