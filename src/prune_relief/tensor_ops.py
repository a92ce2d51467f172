"""Dense tensor primitives: the patch lowerings behind 2-D convolution, and
the sample chunks that work without a backward cache runs in.

Everything here is pure and dtype-preserving. Maps are sample-last,
(C, H, W, N), the layout conv and pool layers carry their activations in.
``ConvLayer`` follows the cross-correlation convention (no kernel flip) with
zero padding: it lowers patches to (C*r*r, Ho*Wo*N) columns with
:func:`im2col`, so the forward pass is one 2-D matrix product, the weight
gradient reads the columns as a transposed operand, and :func:`col2im`, the
adjoint, adds the input gradient's columns back into a (C, H, W, N) map.
:func:`sample_patches` lowers the same patches into one matrix per sample,
for products that run once per sample.

Only a training step's backward lowers a whole batch, one layer at a time,
for its weight gradient. Every conv forward, with or without a cache, lowers
at most :data:`COLUMN_BUDGET` bytes of columns at a time, one band of output
rows at a time (:func:`row_bands`), so training and inference run the same
products. Conv scoring and deviation measurement run in float64 one chunk of
samples at a time (:func:`sample_chunks`), each chunk's patches and float64
maps within :data:`COLUMN_BUDGET`. Each sample's numbers come from products
and sums over that sample's own patches, the same calls in any chunk, so
the chunks change the memory they take and not a bit of what they give.
Dense deviation measurement runs float64 layer pairs one chunk of samples at
a time (:func:`dense_chunks`), each chunk's rows within :data:`ROW_BUDGET`,
as one product per chunk: one product per sample costs 3.4 to 3.8 times
as much at LeNet-300-100's 784 -> 300 layer (OpenBLAS on one thread of a
Xeon with AVX-512). Its chunks start at multiples of :data:`SAMPLE_TILE`
samples and give the bytes of one product over the whole set on one BLAS
thread: a threaded product splits its samples among the threads at
boundaries of its own.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError


def check_pair(v, name: str, least: int) -> tuple[int, int]:
    """``v``, an int or a pair, as a pair of ints, each at least ``least``."""
    if isinstance(v, (int, np.integer)):
        v = (int(v), int(v))
    v = tuple(int(x) for x in v)
    if len(v) != 2:
        raise DimensionError(f"{name} must be an int or a pair, got {v!r}")
    if min(v) < least:
        raise DimensionError(f"{name} components must be >= {least}, got {v}")
    return v


def check_stride_padding(stride, padding) -> tuple[tuple[int, int], tuple[int, int]]:
    return check_pair(stride, "stride", 1), check_pair(padding, "padding", 0)


def conv_output_hw(h: int, w: int, r: int, stride, padding) -> tuple[int, int]:
    """Output spatial size for an r x r kernel over an h x w map."""
    (sh, sw), (ph, pw) = check_stride_padding(stride, padding)
    if h + 2 * ph < r or w + 2 * pw < r:
        raise DimensionError(
            f"kernel {r}x{r} larger than padded input {h + 2 * ph}x{w + 2 * pw}"
        )
    return (h + 2 * ph - r) // sh + 1, (w + 2 * pw - r) // sw + 1


COLUMN_BUDGET = 4 << 20
"""Bytes that a conv forward's band or a scoring or measurement chunk holds
at once. A band counts its patch columns only, of C*r*r entries each; its
z and activations take C_out entries per column (0.8 times the columns at
LeNet-5's first conv, 0.1 at its second), and a pooled forward carries
fewer than one window's rows of them from band to band. A chunk counts its
patches and the float64 maps it makes of them: per filter, one map for
scoring, and z and act(z) of both layers and their difference for
measurement (0.8 and 2 times the patches when scoring LeNet-5's two
convs, 4 and 0.5 times when measuring them). A band holds at least one
output row and a chunk at least one sample, so a layer whose smallest part
exceeds the budget goes over it."""

COLUMN_TILE = 16
"""Every forward band but the last spans a multiple of this many columns.
With OpenBLAS on x86-64, a column keeps its bits in a narrower product when
the columns before it span whole tiles of 16; the columns of a partial tile
(8, 12 or an odd count past the last whole one) can come out otherwise.
Aligned this way, the only partial tile is the last band's, and it holds the
same columns as the whole product's. The Haswell float32 kernel keeps them
at no offset, so a float32 band's bytes there are its own."""


def equal_parts(total: int, most: int, unit: int = 1) -> list[tuple[int, int]]:
    """[start, stop) ranges that cover range(total) in order: as few as keep
    each within ``most`` entries, and as equal as whole ``unit``s allow.

    Every boundary is a multiple of ``unit`` and the remainder of ``total``
    goes to the last part. A part holds at least one unit, even one larger
    than ``most``. With ``unit`` 1 the sizes differ by at most one, so no
    part shrinks to a small remainder.
    """
    whole = total // unit
    k = max(min(-(-total // max(most, 1)), whole), 1)
    bounds = [unit * (whole * i // k) for i in range(k)] + [total]
    return list(zip(bounds, bounds[1:]))


def row_bands(ho: int, wo: int, n: int, column_bytes: int) -> list[tuple[int, int]]:
    """Bands [h0, h1) of the output rows of ``n`` (ho, wo) maps whose
    columns, ``column_bytes`` each, fit :data:`COLUMN_BUDGET`."""
    # the fewest rows that span whole column tiles
    unit = COLUMN_TILE // math.gcd(wo * n, COLUMN_TILE)
    return equal_parts(ho, COLUMN_BUDGET // max(wo * n * column_bytes, 1), unit)


def sample_chunks(n: int, sample_bytes: int) -> list[tuple[int, int]]:
    """Equal chunks [s0, s1) of ``n`` samples that fit :data:`COLUMN_BUDGET`
    at ``sample_bytes`` per sample: its patches and what the chunk's
    products make of them. A chunk holds at least one sample."""
    return equal_parts(n, COLUMN_BUDGET // max(sample_bytes, 1))


SAMPLE_TILE = 24
"""Every dense chunk but the last spans a multiple of this many samples.
With OpenBLAS on x86-64, on one thread, a row of a float64 product
``x @ W.T`` keeps its bits in a product over fewer rows of ``x`` when the
rows before it span whole tiles of 24 (tiles of 8 or 16 move the last bits
at LeNet-300-100's 784 -> 300 layer), and when the narrower product is not
small: OpenBLAS sums a product of at most ~1200 outputs (samples times
targets) with a small-matrix kernel, in another order. So
:func:`dense_chunks` splits a set only into parts of over 1200 outputs, and
the only partial tile is the last part's, as in the whole product."""

ROW_BUDGET = 1 << 20
"""Bytes of float64 rows a dense deviation chunk holds at once (its input
rows, z and act(z) of both layers of the pair, and one difference), and
that each of a selection block's sorted copy and running mass holds (at
least one score row)."""

CHUNK_OUTPUTS = 4096
"""About the fewest outputs a part of a split dense set holds. A chunk plan
allows twice this many per chunk or more, and its equal parts of whole
tiles come out at half of that, less 1.5 tiles, or more: over 1200 outputs
at any layer width."""


def dense_chunks(n: int, fan_in: int, targets: int) -> list[tuple[int, int]]:
    """Chunks [s0, s1) of ``n`` samples for a float64 dense layer pair with
    ``fan_in`` inputs and ``targets`` outputs whose rows fit
    :data:`ROW_BUDGET`, unless that allows fewer than twice
    :data:`CHUNK_OUTPUTS` outputs per chunk. Boundaries are multiples of
    :data:`SAMPLE_TILE`."""
    per_sample = 8 * (fan_in + 5 * targets)
    most = max(ROW_BUDGET // per_sample, -(-2 * CHUNK_OUTPUTS // targets))
    return equal_parts(n, most, SAMPLE_TILE)


def pad_maps(x: np.ndarray, padding) -> np.ndarray:
    """(C, H, W, N) maps with ``padding`` rows and columns of zeros around
    each map; ``x`` itself when there is no padding."""
    ph, pw = check_pair(padding, "padding", 0)
    if not (ph or pw):
        return x
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=x.dtype)
    xp[:, ph : ph + h, pw : pw + w] = x
    return xp


def im2col(x: np.ndarray, r: int, stride, padding) -> np.ndarray:
    """Lower sample-last (C, H, W, N) maps into patch columns (C*r*r, Ho*Wo*N).

    Row (c, q, t) holds tap (q, t) of channel c at every output position,
    positions row-major with the sample fastest. The rows match kernels
    reshaped with ``kernels.reshape(C_out, -1)``, so one product gives the
    (C_out, Ho, Wo, N) output. Each tap is copied as one strided slice, in
    runs of Wo*N elements when the column stride is 1.

    The columns of output rows [h0, h1) alone are those of the input rows
    [h0 * sh, (h1 - 1) * sh + r) of the padded maps, lowered with no padding.
    """
    if x.ndim != 4:
        raise DimensionError(f"im2col expects (C, H, W, N), got shape {x.shape}")
    c, h, w, n = x.shape
    sh, sw = check_stride_padding(stride, padding)[0]
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    xp = pad_maps(x, padding)
    cols = np.empty((c, r, r, ho, wo, n), dtype=x.dtype)
    for q in range(r):
        for t in range(r):
            cols[:, q, t] = xp[:, q : q + sh * ho : sh, t : t + sw * wo : sw]
    return cols.reshape(c * r * r, ho * wo * n)


def sample_patches(x: np.ndarray, r: int, stride, padding) -> np.ndarray:
    """Lower sample-last (C, H, W, N) maps into one (C*r*r, Ho*Wo) patch
    matrix per sample: an (N, C*r*r, Ho*Wo) array.

    Rows are in :func:`im2col`'s (c, q, t) order and positions row-major,
    so ``np.matmul(kernels.reshape(C_out, -1), patches)`` runs one product
    per sample and gives each sample's (C_out, Ho*Wo) output from that
    sample's patches alone, whichever other samples it is lowered with.
    """
    c, h, w, n = x.shape
    sh, sw = check_stride_padding(stride, padding)[0]
    ho, wo = conv_output_hw(h, w, r, stride, padding)
    xs = np.moveaxis(pad_maps(x, padding), -1, 0)
    # (N, C, Ho, Wo, r, r) windows, copied once in (c, q, t) row order
    windows = sliding_window_view(np.ascontiguousarray(xs), (r, r), axis=(2, 3))
    windows = windows[:, :, : sh * ho : sh, : sw * wo : sw]
    patches = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return patches.reshape(n, c * r * r, ho * wo)


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
