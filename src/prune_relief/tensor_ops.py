"""Dense tensor primitives: the patch lowering behind 2-D convolution.

Everything here is pure and dtype-preserving. ``ConvLayer`` follows the
cross-correlation convention (no kernel flip) with zero padding: it lowers
patches to columns with :func:`im2col` so the contraction runs as one matrix
product, and :func:`col2im` is the adjoint its backward pass uses.
"""

import numpy as np

from .errors import DimensionError


def _as_pair(v, name: str) -> tuple[int, int]:
    if isinstance(v, (int, np.integer)):
        v = (int(v), int(v))
    v = tuple(int(x) for x in v)
    if len(v) != 2:
        raise DimensionError(f"{name} must be an int or a pair, got {v!r}")
    return v


def check_stride_padding(stride, padding) -> tuple[tuple[int, int], tuple[int, int]]:
    stride = _as_pair(stride, "stride")
    padding = _as_pair(padding, "padding")
    if stride[0] < 1 or stride[1] < 1:
        raise DimensionError(f"stride components must be >= 1, got {stride}")
    if padding[0] < 0 or padding[1] < 0:
        raise DimensionError(f"padding components must be >= 0, got {padding}")
    return stride, padding


def conv_output_hw(h: int, w: int, r: int, stride, padding) -> tuple[int, int]:
    """Output spatial size for an r x r kernel over an h x w map."""
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    if h + 2 * ph < r or w + 2 * pw < r:
        raise DimensionError(
            f"kernel {r}x{r} larger than padded input {h + 2 * ph}x{w + 2 * pw}"
        )
    return (h + 2 * ph - r) // sh + 1, (w + 2 * pw - r) // sw + 1


def im2col(x: np.ndarray, r: int, stride, padding) -> np.ndarray:
    """Lower (N, C, H, W) into C-contiguous patch columns (N, C*r*r, Ho*Wo).

    Column k of sample n holds the receptive field of output position k,
    flattened channel-major then row-major, matching kernels reshaped with
    ``kernels.reshape(C_out, -1)``. :func:`col2im`, the adjoint, takes the
    same logical layout through any strides, including a sample-last
    (C*r*r, Ho*Wo, N) array viewed as (N, C*r*r, Ho*Wo).
    """
    if x.ndim != 4:
        raise DimensionError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph : ph + h, pw : pw + w] = x
    else:
        xp = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (r, r), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]  # (N, C, Ho, Wo, r, r)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * r * r, ho * wo)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, x_shape, r: int, stride, padding) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back onto the input.

    ``cols`` is in the layout :func:`im2col` returns, (N, C*r*r, Ho*Wo), with
    any strides. The taps are added one at a time, row-major over the
    kernel, into a sample-last (C, H, W, N) buffer that is transposed to
    (N, C, H, W) once at the end; when ``cols`` is itself stored
    sample-last, as ``ConvLayer.backward`` passes it, every add runs over
    long contiguous stretches of memory.
    """
    n, c, h, w = x_shape
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    buf = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=cols.dtype)
    dx = buf.transpose(3, 0, 1, 2)  # (N, C, H, W) view
    cols6 = cols.reshape(n, c, r, r, ho, wo)
    for q in range(r):
        for t in range(r):
            dx[:, :, q : q + sh * ho : sh, t : t + sw * wo : sw] += cols6[:, :, q, t]
    return np.ascontiguousarray(dx[:, :, ph : ph + h, pw : pw + w])

