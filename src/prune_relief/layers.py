"""Layer types: dense, convolutional, max-pooling, flatten.

Dense and conv layers carry pruning masks next to their parameters. The
invariant maintained everywhere is that a masked entry holds the value 0.0
exactly; constructors validate it and ``apply_mask`` zeroes what it masks.
Masks address (target, contributor) pairs: a target is an output unit or
filter, a contributor an input unit or input channel, and contributor index
``fan_in`` is the target's bias. Conv masks have one bit per (filter,
input-channel) kernel, not per tap. ``apply_mask`` takes the layer's boolean
(fan_out, fan_in + 1) keep grid, so one call masks every dropped pair of a
whole layer.

``forward(x, with_cache=True)`` returns ``(output, cache)`` where the cache is
what ``backward`` needs; for dense and conv layers it is ``(x, z)``, the
input and the pre-activation z, which deviation measurement reads.
``backward(cache, d_out)`` returns ``(d_input, param_grads)``; dense and
conv layers take ``input_grad=False`` to skip the input gradient and return
None in its place.
Layers themselves stay immutable during the forward pass so a frozen network
can be evaluated from many threads.

Activation layout: dense layers read and write (N, features) batches. Conv
and max-pool layers read and write sample-last (C, H, W, N) maps, so a conv
step is one 2-D matrix product over every sample and position, and pool taps
run over contiguous runs of samples. ``Network`` converts an (N, C, H, W)
batch with :func:`sample_last` when its first layer is spatial, and a
``Flatten`` that follows a spatial layer turns (C, H, W, N) maps into
(N, C*H*W) rows in (c, h, w) feature order, the order of the batch-first
layout, so dense weights do not depend on the layout.

Column memory: a conv forward lowers one band of output rows at a time
within ``tensor_ops.COLUMN_BUDGET``, with or without a cache, so training
and inference run the same products and give the same bytes on any BLAS
kernel. With a cache it writes each band's z into one array and keeps it
with the layer input; ``backward`` lowers that input's whole batch again,
so only the layer it runs holds whole-batch columns. Without a cache each
band's activations go into the output, and the forward holds the same
columns whatever the batch size.
"""

import copy

import numpy as np

from .activations import get_activation
from .errors import DimensionError
from .tensor_ops import (check_stride_padding, col2im, conv_output_hw, im2col,
                         pad_maps, row_bands)


SPATIAL_KINDS = ("conv", "maxpool")


def sample_last(batch: np.ndarray) -> np.ndarray:
    """An (N, C, H, W) batch as the C-contiguous (C, H, W, N) maps that conv
    and pool layers read."""
    return np.ascontiguousarray(np.moveaxis(batch, 0, -1))


def sample_first(maps: np.ndarray) -> np.ndarray:
    """The inverse of :func:`sample_last`: (C, H, W, N) maps as an
    (N, C, H, W) batch."""
    return np.ascontiguousarray(np.moveaxis(maps, -1, 0))


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


def _read_only(a):
    """A view of ``a`` that cannot be written through."""
    v = a.view()
    v.flags.writeable = False
    return v


def _check_mask(mask, shape, name):
    if mask.shape != shape:
        raise DimensionError(f"{name} shape {mask.shape} does not match {shape}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError(f"{name} must contain only 0/1 entries")


class _MaskedLayer:
    """The mask writer and the copies shared by dense and conv layers.

    Subclasses list the weight tensor before the bias in both ``params`` and
    ``stored_masks``, keyed by their attribute names, and define ``fan_in``
    and ``fan_out``. The weight tensor's leading axes are (targets,
    contributors), as are the weight mask's. A copy takes the layer's
    settings and new parameter tensors, and new masks or read-only views of
    the layer's; whatever it holds of a valid layer is valid, so it skips
    the constructor's checks.
    """

    def clone(self):
        """A copy with its own parameters and masks."""
        return self._copy(self.bias.dtype, np.copy)

    def astype(self, dtype):
        """A copy with the parameters in ``dtype`` that shares the layer's
        masks as read-only views: it computes, it is not masked."""
        return self._copy(dtype, _read_only)

    def _copy(self, dtype, copy_mask):
        out = copy.copy(self)
        for name, a in self.params().items():
            setattr(out, name, a.astype(dtype))
        for name, a in self.stored_masks().items():
            setattr(out, name, copy_mask(a))
        return out

    def take(self, rows, cols):
        """A copy holding only the targets ``rows`` and, of each, only the
        contributors ``cols`` (index arrays; the bias goes with its row)."""
        out = copy.copy(self)
        for tensors in (self.params(), self.stored_masks()):
            (w, weights), (b, bias) = tensors.items()
            # C-contiguous, as every tensor the layers and the optimizer
            # work on; [rows][:, cols] is not, and np.ix_ is slower
            setattr(out, w, weights[rows].take(cols, axis=1))
            setattr(out, b, bias[rows])
        return out

    def apply_mask(self, keep) -> None:
        """Mask every (target, contributor) pair that the boolean keep grid
        ``keep``, of shape (fan_out, fan_in + 1), holds False.

        A masked conv contributor zeroes a whole kernel. Masking clears every
        bit of the dropped weights, biases and mask entries, so each holds
        +0.0, also where it held a negative value or -0.0 before.
        """
        keep = np.asarray(keep)
        shape = (self.fan_out, self.fan_in + 1)
        if keep.shape != shape or keep.dtype != bool:
            raise DimensionError(f"keep grid must be a {shape} boolean array, "
                                 f"got {keep.shape} {keep.dtype}")
        weights, bias = self.params().values()
        weight_mask, bias_mask = self.stored_masks().values()
        ones = _ones_where(keep, _bits(bias).dtype)
        for a, grid in ((weights, ones[:, :-1]), (weight_mask, ones[:, :-1]),
                        (bias, ones[:, -1]), (bias_mask, ones[:, -1])):
            bits = _bits(a)
            # a conv kernel's taps share their (filter, channel) entry
            bits &= grid.reshape(grid.shape + (1,) * (a.ndim - grid.ndim))


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

    def backward(self, cache, d_out, input_grad=True):
        x, z = cache
        dz = d_out * self.act.df(z)
        dw = (dz.T @ x) * self.weight_mask
        db = dz.sum(axis=0) * self.bias_mask
        dx = dz @ self.weights if input_grad else None
        return dx, {"weights": dw, "bias": db}

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def param_masks(self) -> dict[str, np.ndarray]:
        return {"weights": self.weight_mask, "bias": self.bias_mask}

    def stored_masks(self) -> dict[str, np.ndarray]:
        return {"weight_mask": self.weight_mask, "bias_mask": self.bias_mask}

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
        """Lower one band of output rows at a time, each band's columns
        within ``COLUMN_BUDGET``. With a cache, each band's product goes
        straight into z, kept with the input for ``backward``; without one,
        each band's activations go into the preallocated output."""
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise DimensionError(
                f"conv layer with {self.in_channels} input channels got "
                f"(C, H, W, N) maps of shape {x.shape}"
            )
        r, co, n = self.kernel_size, self.out_channels, x.shape[3]
        ho, wo = conv_output_hw(x.shape[1], x.shape[2], r, self.stride, self.padding)
        xp = pad_maps(x, self.padding)
        sh = self.stride[0]
        kernels = self.kernels.reshape(co, -1)
        # z with a cache, act(z) without one; a band of output rows is a
        # run of columns of its (co, ho * wo * n) view
        out = np.empty((co, ho, wo, n), dtype=np.result_type(self.kernels, x))
        for h0, h1 in row_bands(ho, wo, n, self.in_channels * r * r * x.itemsize):
            cols = im2col(xp[:, h0 * sh : (h1 - 1) * sh + r], r, self.stride, 0)
            band = out.reshape(co, -1)[:, h0 * wo * n : h1 * wo * n]
            z = np.matmul(kernels, cols, out=band if with_cache else None)
            z += self.bias[:, None]
            if not with_cache:
                band[...] = self.act.f(z)
        if with_cache:
            return self.act.f(out), (x, out)
        return out

    def backward(self, cache, d_out, input_grad=True):
        x, z = cache
        dz = (d_out * self.act.df(z)).reshape(self.out_channels, -1)
        # both products contract over every sample and output position; the
        # input's whole-batch columns go in as a transposed operand, not a
        # copy, and are freed before dcols is built
        cols = im2col(x, self.kernel_size, self.stride, self.padding)
        dk = (dz @ cols.T).reshape(self.kernels.shape)
        del cols
        dk *= self.kernel_mask[:, :, None, None]
        db = dz.sum(axis=1) * self.bias_mask
        if not input_grad:
            return None, {"kernels": dk, "bias": db}
        dcols = self.kernels.reshape(self.out_channels, -1).T @ dz
        dx = col2im(dcols, x.shape, self.kernel_size, self.stride, self.padding)
        return dx, {"kernels": dk, "bias": db}

    def params(self) -> dict[str, np.ndarray]:
        return {"kernels": self.kernels, "bias": self.bias}

    def param_masks(self) -> dict[str, np.ndarray]:
        return {"kernels": self.kernel_mask[:, :, None, None], "bias": self.bias_mask}

    def stored_masks(self) -> dict[str, np.ndarray]:
        return {"kernel_mask": self.kernel_mask, "bias_mask": self.bias_mask}

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


class MaxPool2D(_ParameterFree):
    """Max pooling of (C, H, W, N) maps over non-overlapping or strided
    windows. No parameters."""

    kind = "maxpool"

    def __init__(self, window=(2, 2), stride=None):
        self.window, _ = check_stride_padding(window, (0, 0))
        if stride is None:
            stride = self.window
        self.stride, _ = check_stride_padding(stride, (0, 0))

    def _taps(self, ho, wo):
        """Yield (k, rows, cols): tap k = q * ww + t and the slices of axes 1
        and 2 picking element (q, t) of every window."""
        wh, ww = self.window
        sh, sw = self.stride
        for k in range(wh * ww):
            q, t = divmod(k, ww)
            yield k, slice(q, q + sh * ho, sh), slice(t, t + sw * wo, sw)

    def forward(self, x, with_cache=False):
        if x.ndim != 4:
            raise DimensionError(f"maxpool expects (C, H, W, N), got {x.shape}")
        _, ho, wo = self.output_shape(x.shape[:3])
        # a running max over the taps: the strict ">" keeps the first of
        # tied maxima, the one an argmax over the window picks; with a
        # cache, arg records its tap for the backward pass
        taps = self._taps(ho, wo)
        _, rows, cols = next(taps)
        y = x[:, rows, cols].copy()
        y_bits = _bits(y)
        hit = np.empty(y.shape, dtype=bool)
        diff = np.empty_like(y_bits)
        if with_cache:
            wh, ww = self.window
            arg = np.zeros(y.shape, dtype=np.min_scalar_type(wh * ww - 1))
        for k, rows, cols in taps:
            s = x[:, rows, cols]
            np.greater(s, y, out=hit)
            # y = where(hit, s, y) on the bit patterns, without a branch:
            # the bits that differ, kept only where hit, flip y to s
            np.bitwise_xor(_bits(s), y_bits, out=diff)
            diff *= hit
            y_bits ^= diff
            if with_cache:
                # taps come in rising order, so the max of arg and k * hit
                # is where(hit, k, arg)
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
        for k, rows, cols in reversed(list(self._taps(*arg.shape[1:3]))):
            routed = g_bits & _ones_where(arg == k, g_bits.dtype)  # else +0.0
            dx[:, rows, cols] += routed.view(d_out.dtype)
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
    """Reshape (N, ...) to (N, prod). No parameters.

    ``Network`` sets ``sample_last`` on a Flatten that follows a conv or pool
    layer: it then reads (C, H, W, N) maps and writes C-contiguous
    (N, C*H*W) rows, and its backward pass returns (C, H, W, N) maps.
    """

    kind = "flatten"

    def __init__(self):
        self.sample_last = False

    def forward(self, x, with_cache=False):
        if self.sample_last:
            y = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
        else:
            y = x.reshape(x.shape[0], -1)
        if with_cache:
            return y, x.shape
        return y

    def backward(self, cache, d_out):
        if self.sample_last:
            return np.ascontiguousarray(d_out.T).reshape(cache), {}
        return d_out.reshape(cache), {}

    def clone(self) -> "Flatten":
        return Flatten()

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


PRUNABLE_KINDS = ("dense", "conv")
