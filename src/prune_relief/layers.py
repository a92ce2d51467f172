"""Layer types: dense, convolutional, max-pooling, flatten.

Dense and conv layers carry pruning masks next to their parameters. The
invariant maintained everywhere is that a masked entry holds the value 0.0
exactly; constructors validate it and ``apply_mask`` zeroes what it masks.
Masks address (target, contributor) pairs: a target is an output unit or
filter, a contributor an input unit or input channel, and contributor index
``fan_in`` is the target's bias. Conv masks have one bit per (filter,
input-channel) kernel, not per tap. ``apply_mask`` takes broadcastable index
arrays, so one call masks a few contributors of one target or every dropped
pair of a whole layer.

``forward(x, with_cache=True)`` returns ``(output, cache)`` where the cache is
what ``backward`` needs; layers themselves stay immutable during the forward
pass so a frozen network can be evaluated from many threads.
"""

import numpy as np

from .activations import get_activation
from .errors import DimensionError
from .tensor_ops import check_stride_padding, col2im, conv_output_hw, im2col


def _as_param(a, dtype):
    out = np.array(a, dtype=dtype, order="C", copy=True)
    return out


def _bits(a):
    """View a float array as unsigned integers of the same width."""
    return a.view(f"u{a.itemsize}")


def _ones_where(hit, dtype):
    """All-ones bit pattern where ``hit`` holds, zeros elsewhere.

    Selecting through this mask with bit operations does not branch;
    ``np.where`` and masked copies do, and run several times slower when
    ``hit`` follows no pattern, as in max pooling.
    """
    ones = hit.astype(dtype)
    np.negative(ones, out=ones)
    return ones


def _check_mask(mask, shape, name):
    if mask.shape != shape:
        raise DimensionError(f"{name} shape {mask.shape} does not match {shape}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError(f"{name} must contain only 0/1 entries")


class _MaskedLayer:
    """The mask writer shared by dense and conv layers.

    Subclasses list the weight tensor before the bias in both ``params`` and
    ``stored_masks``, and define ``fan_in`` and ``fan_out``.
    """

    def apply_mask(self, targets, contributors) -> None:
        """Mask the (target, contributor) pairs of broadcastable index arrays.

        ``apply_mask(j, [i, k])`` masks two contributors of target j, and
        ``apply_mask(*np.nonzero(drop))`` every True entry of a (fan_out,
        fan_in + 1) matrix. A masked conv contributor zeroes a whole kernel.
        """
        t = np.asarray(targets, dtype=np.int64)
        c = np.asarray(contributors, dtype=np.int64)
        if t.size and (t.min() < 0 or t.max() >= self.fan_out):
            raise IndexError(f"targets must lie in [0, {self.fan_out}), got "
                             f"[{t.min()}, {t.max()}]")
        if c.size and (c.min() < 0 or c.max() > self.fan_in):
            raise IndexError(f"contributor indices must lie in [0, "
                             f"{self.fan_in}], got [{c.min()}, {c.max()}]")
        t, c = np.broadcast_arrays(t, c)
        on_bias = c == self.fan_in
        rows, cols, units = t[~on_bias], c[~on_bias], t[on_bias]
        weights, bias = self.params().values()
        weight_mask, bias_mask = self.stored_masks().values()
        weight_mask[rows, cols] = weights[rows, cols] = 0
        bias_mask[units] = bias[units] = 0


class DenseLayer(_MaskedLayer):
    """Fully connected layer: y = act(W x + b), W of shape (out, in)."""

    kind = "dense"

    def __init__(self, weights, bias, activation="relu", weight_mask=None,
                 bias_mask=None, dtype=np.float32):
        self.weights = _as_param(weights, dtype)
        self.bias = _as_param(bias, dtype)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError(
                f"dense layer expects 2-D weights and 1-D bias, got "
                f"{self.weights.shape} and {self.bias.shape}"
            )
        if self.bias.shape[0] != self.weights.shape[0]:
            raise DimensionError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weights.shape[0]} output units"
            )
        self.activation = activation
        self.act = get_activation(activation)
        if weight_mask is None:
            weight_mask = np.ones_like(self.weights)
        if bias_mask is None:
            bias_mask = np.ones_like(self.bias)
        self.weight_mask = _as_param(weight_mask, dtype)
        self.bias_mask = _as_param(bias_mask, dtype)
        _check_mask(self.weight_mask, self.weights.shape, "weight_mask")
        _check_mask(self.bias_mask, self.bias.shape, "bias_mask")
        if np.any(self.weights[self.weight_mask == 0] != 0):
            raise ValueError("masked weights must be exactly zero")
        if np.any(self.bias[self.bias_mask == 0] != 0):
            raise ValueError("masked biases must be exactly zero")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    def forward(self, x, with_cache=False):
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise DimensionError(
                f"dense layer with fan-in {self.fan_in} got batch of shape {x.shape}"
            )
        z = x @ self.weights.T + self.bias
        y = self.act.f(z)
        if with_cache:
            return y, (x, z)
        return y

    def backward(self, cache, d_out):
        x, z = cache
        dz = d_out * self.act.df(z)
        dw = (dz.T @ x) * self.weight_mask
        db = dz.sum(axis=0) * self.bias_mask
        dx = dz @ self.weights
        return dx, {"weights": dw, "bias": db}

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def param_masks(self) -> dict[str, np.ndarray]:
        return {"weights": self.weight_mask, "bias": self.bias_mask}

    def stored_masks(self) -> dict[str, np.ndarray]:
        return {"weight_mask": self.weight_mask, "bias_mask": self.bias_mask}

    def clone(self) -> "DenseLayer":
        return DenseLayer(self.weights, self.bias, self.activation,
                          self.weight_mask, self.bias_mask, dtype=self.weights.dtype)

    def astype(self, dtype) -> "DenseLayer":
        return DenseLayer(self.weights, self.bias, self.activation,
                          self.weight_mask, self.bias_mask, dtype=dtype)

    def output_shape(self, in_shape):
        n = int(np.prod(in_shape))
        if n != self.fan_in:
            raise DimensionError(
                f"dense layer with fan-in {self.fan_in} got input shape {in_shape}"
            )
        if len(in_shape) != 1:
            raise DimensionError(
                f"dense layer needs a flat input, got shape {in_shape}; "
                "insert a flatten layer"
            )
        return (self.fan_out,)


class ConvLayer(_MaskedLayer):
    """2-D convolution with square kernels, zero padding, per-filter bias."""

    kind = "conv"

    def __init__(self, kernels, bias, activation="relu", stride=(1, 1),
                 padding=(0, 0), kernel_mask=None, bias_mask=None, dtype=np.float32):
        self.kernels = _as_param(kernels, dtype)
        self.bias = _as_param(bias, dtype)
        if self.kernels.ndim != 4 or self.kernels.shape[2] != self.kernels.shape[3]:
            raise DimensionError(
                f"conv kernels must be (out, in, r, r), got {self.kernels.shape}"
            )
        if self.bias.shape != (self.kernels.shape[0],):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match "
                f"{self.kernels.shape[0]} filters"
            )
        self.stride, self.padding = check_stride_padding(stride, padding)
        self.activation = activation
        self.act = get_activation(activation)
        co, ci = self.kernels.shape[:2]
        if kernel_mask is None:
            kernel_mask = np.ones((co, ci), dtype=dtype)
        if bias_mask is None:
            bias_mask = np.ones(co, dtype=dtype)
        self.kernel_mask = _as_param(kernel_mask, dtype)
        self.bias_mask = _as_param(bias_mask, dtype)
        _check_mask(self.kernel_mask, (co, ci), "kernel_mask")
        _check_mask(self.bias_mask, (co,), "bias_mask")
        if np.any(self.kernels[self.kernel_mask == 0] != 0):
            raise ValueError("masked kernels must be exactly zero")
        if np.any(self.bias[self.bias_mask == 0] != 0):
            raise ValueError("masked biases must be exactly zero")

    @property
    def out_channels(self) -> int:
        return self.kernels.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernels.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernels.shape[2]

    # importance scoring and masking address contributors per target filter
    @property
    def fan_in(self) -> int:
        return self.in_channels

    @property
    def fan_out(self) -> int:
        return self.out_channels

    def forward(self, x, with_cache=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv layer with {self.in_channels} input channels got "
                f"batch of shape {x.shape}"
            )
        r = self.kernel_size
        ho, wo = conv_output_hw(x.shape[2], x.shape[3], r, self.stride, self.padding)
        cols = im2col(x, r, self.stride, self.padding)
        z = np.matmul(self.kernels.reshape(self.out_channels, -1), cols)
        z += self.bias[:, None]
        z = z.reshape(x.shape[0], self.out_channels, ho, wo)
        y = self.act.f(z)
        if with_cache:
            return y, (x.shape, cols, z)
        return y

    def backward(self, cache, d_out):
        x_shape, cols, z = cache
        n = x_shape[0]
        co = self.out_channels
        dz = d_out * self.act.df(z)
        dzm = dz.reshape(n, co, -1)  # (N, Co, L)
        # weight gradient: contract over samples and output positions
        dz2 = dzm.transpose(1, 0, 2).reshape(co, -1)
        cols2 = cols.transpose(0, 2, 1).reshape(-1, cols.shape[1])
        dk = (dz2 @ cols2).reshape(self.kernels.shape)
        dk *= self.kernel_mask[:, :, None, None]
        db = dz.sum(axis=(0, 2, 3)) * self.bias_mask
        # input gradient: one product over all samples, laid out sample-last
        # (C*r*r, Ho*Wo, N) so col2im adds each tap in long contiguous runs;
        # col2im reads it through a transposed (N, C*r*r, Ho*Wo) view
        dzp = dz.transpose(1, 2, 3, 0).reshape(co, -1)
        dcols = self.kernels.reshape(co, -1).T @ dzp
        dcols = dcols.reshape(dcols.shape[0], -1, n).transpose(2, 0, 1)
        dx = col2im(dcols, x_shape, self.kernel_size, self.stride, self.padding)
        return dx, {"kernels": dk, "bias": db}

    def params(self) -> dict[str, np.ndarray]:
        return {"kernels": self.kernels, "bias": self.bias}

    def param_masks(self) -> dict[str, np.ndarray]:
        return {"kernels": self.kernel_mask[:, :, None, None], "bias": self.bias_mask}

    def stored_masks(self) -> dict[str, np.ndarray]:
        return {"kernel_mask": self.kernel_mask, "bias_mask": self.bias_mask}

    def clone(self) -> "ConvLayer":
        return ConvLayer(self.kernels, self.bias, self.activation, self.stride,
                         self.padding, self.kernel_mask, self.bias_mask,
                         dtype=self.kernels.dtype)

    def astype(self, dtype) -> "ConvLayer":
        return ConvLayer(self.kernels, self.bias, self.activation, self.stride,
                         self.padding, self.kernel_mask, self.bias_mask, dtype=dtype)

    def output_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise DimensionError(
                f"conv layer with {self.in_channels} input channels got "
                f"input shape {in_shape}"
            )
        ho, wo = conv_output_hw(in_shape[1], in_shape[2], self.kernel_size,
                                self.stride, self.padding)
        return (self.out_channels, ho, wo)


class _ParameterFree:
    """Layers with nothing to learn or mask."""

    def params(self):
        return {}

    def param_masks(self):
        return {}

    def stored_masks(self):
        return {}

    def astype(self, dtype):
        return self.clone()


class MaxPool2D(_ParameterFree):
    """Max pooling over non-overlapping or strided windows. No parameters."""

    kind = "maxpool"

    def __init__(self, window=(2, 2), stride=None):
        self.window, _ = check_stride_padding(window, (0, 0))
        if stride is None:
            stride = self.window
        self.stride, _ = check_stride_padding(stride, (0, 0))

    def _taps(self, ho, wo):
        """Yield (k, rows, cols): tap k = q * ww + t and the slices picking
        element (q, t) of every window."""
        wh, ww = self.window
        sh, sw = self.stride
        for k in range(wh * ww):
            q, t = divmod(k, ww)
            yield k, slice(q, q + sh * ho, sh), slice(t, t + sw * wo, sw)

    def forward(self, x, with_cache=False):
        if x.ndim != 4:
            raise DimensionError(f"maxpool expects (N, C, H, W), got {x.shape}")
        _, ho, wo = self.output_shape(x.shape[1:])
        # a running max over the taps: the strict ">" keeps the first of
        # tied maxima, the one an argmax over the window picks, and arg
        # records its tap
        taps = self._taps(ho, wo)
        _, rows, cols = next(taps)
        y = x[:, :, rows, cols].copy()
        y_bits = _bits(y)
        wh, ww = self.window
        arg = np.zeros(y.shape, dtype=np.min_scalar_type(wh * ww - 1))
        for k, rows, cols in taps:
            s = x[:, :, rows, cols]
            hit = s > y
            # y = where(hit, s, y) on the bit patterns; taps come in rising
            # order, so the max of arg and k * hit is where(hit, k, arg)
            y_bits ^= (_bits(s) ^ y_bits) & _ones_where(hit, y_bits.dtype)
            np.maximum(arg, hit * arg.dtype.type(k), out=arg)
        if with_cache:
            return y, (x.shape, arg)
        return y

    def backward(self, cache, d_out):
        x_shape, arg = cache
        dx = np.zeros(x_shape, dtype=d_out.dtype)
        g_bits = _bits(d_out)
        # taps in reverse: where windows overlap, an input element then
        # receives its gradients in the row-major order of the windows
        for k, rows, cols in reversed(list(self._taps(*arg.shape[2:]))):
            routed = g_bits & _ones_where(arg == k, g_bits.dtype)  # else +0.0
            dx[:, :, rows, cols] += routed.view(d_out.dtype)
        return dx, {}

    def clone(self) -> "MaxPool2D":
        return MaxPool2D(self.window, self.stride)

    def output_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"maxpool got input shape {in_shape}")
        c, h, w = in_shape
        wh, ww = self.window
        if h < wh or w < ww:
            raise DimensionError(f"pool window {self.window} larger than map {h}x{w}")
        return (c, (h - wh) // self.stride[0] + 1, (w - ww) // self.stride[1] + 1)


class Flatten(_ParameterFree):
    """Reshape (N, ...) to (N, prod). No parameters."""

    kind = "flatten"

    def forward(self, x, with_cache=False):
        y = x.reshape(x.shape[0], -1)
        if with_cache:
            return y, x.shape
        return y

    def backward(self, cache, d_out):
        return d_out.reshape(cache), {}

    def clone(self) -> "Flatten":
        return Flatten()

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


PRUNABLE_KINDS = ("dense", "conv")
