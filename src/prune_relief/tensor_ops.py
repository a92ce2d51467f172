"""Dense tensor primitives: the patch lowering behind 2-D convolution.

Everything here is pure and dtype-preserving. Maps are sample-last,
(C, H, W, N), the layout conv and pool layers carry their activations in.
``ConvLayer`` follows the cross-correlation convention (no kernel flip) with
zero padding: it lowers patches to (C*r*r, Ho*Wo*N) columns with
:func:`im2col`, so the forward pass is one 2-D matrix product, the weight
gradient reads the columns as a transposed operand, and :func:`col2im`, the
adjoint, adds the input gradient's columns back into a (C, H, W, N) map.
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
    """Lower sample-last (C, H, W, N) maps into patch columns (C*r*r, Ho*Wo*N).

    Row (c, q, t) holds tap (q, t) of channel c at every output position,
    positions row-major with the sample fastest. The rows match kernels
    reshaped with ``kernels.reshape(C_out, -1)``, so one product gives the
    (C_out, Ho, Wo, N) output. Each tap is copied as one strided slice, in
    runs of Wo*N elements when the column stride is 1.
    """
    if x.ndim != 4:
        raise DimensionError(f"im2col expects (C, H, W, N), got shape {x.shape}")
    c, h, w, n = x.shape
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    if ph or pw:
        xp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
        xp[:, ph : ph + h, pw : pw + w] = x
    else:
        xp = x
    cols = np.empty((c, r, r, ho, wo, n), dtype=x.dtype)
    for q in range(r):
        for t in range(r):
            cols[:, q, t] = xp[:, q : q + sh * ho : sh, t : t + sw * wo : sw]
    return cols.reshape(c * r * r, ho * wo * n)


def col2im(cols: np.ndarray, x_shape, r: int, stride, padding) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back onto the input.

    ``cols`` is in the layout :func:`im2col` returns, (C*r*r, Ho*Wo*N), and
    the result is a C-contiguous (C, H, W, N) array. The taps are added one
    at a time, row-major over the kernel, so where windows overlap an input
    element receives its terms in a fixed order.
    """
    c, h, w, n = x_shape
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    dx = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=cols.dtype)
    cols6 = cols.reshape(c, r, r, ho, wo, n)
    for q in range(r):
        for t in range(r):
            dx[:, q : q + sh * ho : sh, t : t + sw * wo : sw] += cols6[:, q, t]
    return np.ascontiguousarray(dx[:, ph : ph + h, pw : pw + w])
