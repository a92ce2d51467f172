"""Layer types: dense, convolutional, max-pooling, flatten.

Dense and conv layers carry pruning masks next to their parameters, as
C-contiguous ``bool`` arrays that hold True where an entry is kept. The
invariant maintained everywhere is that a masked entry holds the value 0.0
exactly; constructors validate it and ``apply_mask`` zeroes what it masks.
Masks address (target, contributor) pairs: a target is an output unit or
filter, a contributor an input unit or input channel, and contributor index
``fan_in`` is the target's bias. Conv masks have one bit per (filter, input-channel)
kernel, not per tap; ``param_masks`` lays each bit over its kernel's r x r
taps, and this module is the only place that does. ``apply_mask`` takes the
layer's boolean (fan_out, fan_in + 1) keep grid, so one call masks every
dropped pair of a whole layer.

``forward(x, with_cache=True)`` returns ``(output, cache)`` where the cache is
what ``backward`` needs; for dense and conv layers it is ``(x, y)``, the
input and the output itself: the activation overwrites z in place and its
derivative is taken at y (``Activation.df``). A conv that trains as one
step with the max pool after it gets None for y, and that pool's backward
gives its dz (``training.forward_backward``).
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
kernel, and it holds the same columns whatever the batch size. Each band's
product goes into the output, where the bias and the activation are applied
in place; with a cache the output is kept with the layer input, and
``backward`` lowers that input's whole batch again, so only the layer it
runs holds whole-batch columns. Given the ``MaxPool2D`` that follows it, a
forward without a cache pools each band as soon as it exists and holds only
the pooled maps, never the conv's whole output; for ReLU and the identity it
pools the bands' products and adds the bias and applies the activation on
the pooled maps alone.
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
    return np.array(a, dtype=dtype, order="C", copy=True)


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


def _over(grid, p):
    """A (targets, contributors) ``grid`` with one length-1 axis for each
    further axis of the parameter ``p``, so that one entry covers a conv
    kernel's r x r taps when it broadcasts against ``p``."""
    return grid.reshape(grid.shape + (1,) * (p.ndim - grid.ndim))


def _read_only(a):
    """A view of ``a`` that cannot be written through."""
    v = a.view()
    v.flags.writeable = False
    return v


class _MaskedLayer:
    """The masks, the mask writer and the copies shared by dense and conv
    layers.

    Subclasses name their weight and bias tensors in ``_param_names`` and
    the masks of those tensors in ``_mask_names``, weight before bias, and
    define ``fan_in`` and ``fan_out``. The weight tensor's leading axes are
    (targets, contributors), the shape of the weight mask. A copy takes the
    layer's settings and new parameter tensors, and new masks or read-only
    views of the layer's; whatever it holds of a valid layer is valid, so it
    skips the constructor's checks.
    """

    def _set_masks(self, *masks) -> None:
        """Store ``masks`` (None keeps every entry) as the layer's bool
        masks, once each holds only 0/1 entries in the shape of its tensor's
        (targets, contributors) axes and every parameter it masks is 0."""
        params = self.params()
        checked = []
        for name, mask, p in zip(self._mask_names, masks, params.values()):
            shape = p.shape[:2]
            mask = np.ones(shape, dtype=bool) if mask is None \
                else np.asarray(mask)
            if mask.shape != shape:
                raise DimensionError(
                    f"{name} shape {mask.shape} does not match {shape}")
            if mask.dtype != bool and not np.all((mask == 0) | (mask == 1)):
                raise ValueError(f"{name} must contain only 0/1 entries")
            checked.append(mask.astype(bool, order="C"))
        for (pname, p), mask in zip(params.items(), checked):
            if np.any(p[~mask] != 0):
                noun = "biases" if pname == "bias" else pname
                raise ValueError(f"masked {noun} must be exactly zero")
        for name, mask in zip(self._mask_names, checked):
            setattr(self, name, mask)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._param_names}

    def stored_masks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._mask_names}

    def param_masks(self) -> dict[str, np.ndarray]:
        """Each parameter's mask as a read-only view in the parameter's
        shape: a conv mask bit covers its kernel's r x r taps."""
        return {name: np.broadcast_to(_over(mask, p), p.shape)
                for (name, p), mask in zip(self.params().items(),
                                           self.stored_masks().values())}

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

        A masked conv contributor zeroes a whole kernel. Masking clears the
        dropped mask entries and every bit of the dropped weights and
        biases, so each holds +0.0, also where it held a negative value or
        -0.0 before.
        """
        keep = np.asarray(keep)
        shape = (self.fan_out, self.fan_in + 1)
        if keep.shape != shape or keep.dtype != bool:
            raise DimensionError(f"keep grid must be a {shape} boolean array, "
                                 f"got {keep.shape} {keep.dtype}")
        for p, mask, kept in zip(self.params().values(),
                                 self.stored_masks().values(),
                                 (keep[:, :-1], keep[:, -1])):
            mask &= kept
            bits = _bits(p)
            bits &= _over(_ones_where(kept, bits.dtype), p)


class DenseLayer(_MaskedLayer):
    """Fully connected layer: y = act(W x + b), W of shape (out, in)."""

    kind = "dense"
    _param_names = ("weights", "bias")
    _mask_names = ("weight_mask", "bias_mask")

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
        self._set_masks(weight_mask, bias_mask)

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
        y = self.act.f(z, out=z)
        if with_cache:
            return y, (x, y)
        return y

    def backward(self, cache, d_out, input_grad=True):
        x, y = cache
        dz = d_out * self.act.df(y)
        dw = dz.T @ x
        # x * True is x, bit for bit: only a mask that drops an entry
        # changes dw
        if not self.weight_mask.all():
            dw *= self.weight_mask
        db = dz.sum(axis=0) * self.bias_mask
        dx = dz @ self.weights if input_grad else None
        return dx, {"weights": dw, "bias": db}

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
    _param_names = ("kernels", "bias")
    _mask_names = ("kernel_mask", "bias_mask")

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
        self._set_masks(kernel_mask, bias_mask)

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

    def forward(self, x, with_cache=False, pool=None):
        """Lower one band of output rows at a time, each band's columns
        within ``COLUMN_BUDGET``. Each band's product goes straight into
        the preallocated output, where the bias and the activation are
        applied in place; with a cache the output is also kept with the
        input for ``backward``.

        ``pool``, a :class:`MaxPool2D` and only without a cache, gives the
        pool's output instead: each band's activations are pooled as soon
        as they exist, by the pool's own forward, so the bytes are those of
        the two layers run one after the other. For an activation that
        ``pools_first`` (ReLU, identity) the bands' products are pooled
        before the bias and the activation, which then run once, on the
        pooled maps: adding the bias with rounding and the activation are
        both monotone, so max commutes with them, bit for bit."""
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise DimensionError(
                f"conv layer with {self.in_channels} input channels got "
                f"(C, H, W, N) maps of shape {x.shape}"
            )
        if with_cache and pool is not None:
            raise ValueError("a conv forward with a cache cannot pool")
        r, co, n = self.kernel_size, self.out_channels, x.shape[3]
        ho, wo = conv_output_hw(x.shape[1], x.shape[2], r, self.stride, self.padding)
        xp = pad_maps(x, self.padding)
        sh = self.stride[0]
        kernels = self.kernels.reshape(co, -1)
        # act(z), or the pooled maps
        shape = (co, ho, wo) if pool is None else pool.output_shape((co, ho, wo))
        out = np.empty((*shape, n), dtype=np.result_type(self.kernels, x))
        pooled = None if pool is None else _PooledRows(pool, out)
        pool_first = pooled is not None and self.act.pools_first
        # a band of output rows is a run of columns of the (co, ho * wo * n)
        # view
        rows = out.reshape(co, -1)
        for h0, h1 in row_bands(ho, wo, n, self.in_channels * r * r * x.itemsize):
            band = np.s_[:, h0 * wo * n : h1 * wo * n]
            # the band's columns are freed once the product is made, before
            # the next band's are lowered
            cols = im2col(xp[:, h0 * sh : (h1 - 1) * sh + r], r, self.stride, 0)
            z = np.matmul(kernels, cols,
                          out=rows[band] if pooled is None else None)
            del cols
            if pool_first:
                pooled.add(z.reshape(co, h1 - h0, wo, n), h0)
                continue
            z += self.bias[:, None]
            self.act.f(z, out=z)
            if pooled is not None:
                pooled.add(z.reshape(co, h1 - h0, wo, n), h0)
        if pool_first:
            out += self.bias[:, None, None, None]
            return self.act.f(out, out=out)
        if with_cache:
            return out, (x, out)
        return out

    def backward(self, cache, d_out, input_grad=True):
        """A cache with None for y takes ``d_out`` as dz, which the backward
        of the max pool after the conv made (``training.forward_backward``)."""
        x, y = cache
        dz = d_out if y is None else d_out * self.act.df(y)
        dz = dz.reshape(self.out_channels, -1)
        # both products contract over every sample and output position; the
        # input's whole-batch columns go in untransposed and are freed
        # before dcols is built. cols @ dz.T is dk transposed; OpenBLAS runs
        # it 27-30% faster than dz @ cols.T on LeNet-5's shapes, with the
        # same bytes on its SkylakeX and Sandybridge kernels
        cols = im2col(x, self.kernel_size, self.stride, self.padding)
        dk = (cols @ dz.T).T.reshape(self.kernels.shape)
        del cols
        # as in DenseLayer.backward, only a mask that drops a kernel
        # changes dk
        if not self.kernel_mask.all():
            dk *= self.param_masks()["kernels"]
        db = dz.sum(axis=1) * self.bias_mask
        if not input_grad:
            return None, {"kernels": dk, "bias": db}
        dcols = self.kernels.reshape(self.out_channels, -1).T @ dz
        dx = col2im(dcols, x.shape, self.kernel_size, self.stride, self.padding)
        return dx, {"kernels": dk, "bias": db}

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

    @property
    def tiles(self) -> bool:
        """No two windows overlap: the stride is at least the window on
        both axes."""
        return all(s >= w for s, w in zip(self.stride, self.window))

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
            return y, (x.shape, arg, y)
        return y

    def backward(self, cache, d_out, act=None):
        """Route each window's gradient to the input element it picked,
        +0.0 to every other element.

        Where windows overlap, an input element adds up the gradients of
        its windows onto 0.0. Where they do not (``tiles``), it gets
        ``0 + g`` of its one window, made once per window and written in
        place. ``act``, the activation of the conv before a pool that
        tiles, makes the result that conv's dz: each window's ``0 + g`` is
        multiplied by the derivative at its max, ``act.df`` of the pooled
        output, before it is routed. That gives the bytes of multiplying the
        routed gradient by ``act.df`` of the conv's whole output wherever
        that is not NaN: +0.0 times the derivative at any other output, a
        finite value of at least 0, is +0.0."""
        x_shape, arg, y = cache
        ho, wo = arg.shape[1:3]
        if self.tiles:
            g = 0 + d_out
            if act is not None:
                g = g * act.df(y)
            # windows that cover the map leave no element to zero
            covered = self.stride == self.window and \
                (ho * self.stride[0], wo * self.stride[1]) == x_shape[1:3]
            dx = (np.empty if covered else np.zeros)(x_shape, dtype=g.dtype)
            g_bits, dx_bits = _bits(g), _bits(dx)
            hit = np.empty(arg.shape, dtype=bool)
            for k, rows, cols in self._taps(ho, wo):
                # g's bits where the window picked tap k, else +0.0, as the
                # forward selects: multiplied by the hit, without a branch
                np.multiply(g_bits, np.equal(arg, k, out=hit),
                            out=dx_bits[:, rows, cols])
            return dx, {}
        if act is not None:
            raise ValueError("only a pool whose windows do not overlap can "
                             "give the conv's dz")
        dx = np.zeros(x_shape, dtype=d_out.dtype)
        g_bits = _bits(d_out)
        # taps in reverse: an input element then receives its gradients in
        # the row-major order of the windows
        for k, rows, cols in reversed(list(self._taps(ho, wo))):
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


class _PooledRows:
    """Max-pools (C, H, W, N) maps that arrive as bands of rows, top to
    bottom, into the preallocated pooled maps ``out``.

    A band's rows go to ``pool.forward`` with the rows carried over from
    earlier bands, as soon as they complete one or more windows; the rows a
    later window still reads, fewer than one window, are carried over to
    the next band. Rows that no window reads are dropped.
    """

    def __init__(self, pool, out):
        self.pool, self.out = pool, out
        self.done = 0  # pooled rows written
        self.held = None  # the rows from the next window's first one on

    def add(self, band, h0) -> None:
        """Take ``band``, the map rows from row ``h0`` on."""
        wh, sh = self.pool.window[0], self.pool.stride[0]
        h1 = h0 + band.shape[1]
        top = self.done * sh
        # the rows [top, h1): rows above h0 are held only while a window
        # still reads them, so top >= h0 when nothing is held
        if self.held is not None:
            band = np.concatenate((self.held, band), axis=1)
        else:
            band = band[:, top - h0 :]
        stop = min(self.out.shape[1], (h1 - wh) // sh + 1)
        if stop > self.done:
            last = (stop - 1) * sh + wh
            self.out[:, self.done : stop] = self.pool.forward(band[:, : last - top])
            self.done = stop
        rest = self.done * sh
        self.held = None
        if self.done < self.out.shape[1] and rest < h1:
            self.held = band[:, rest - top :].copy()


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
