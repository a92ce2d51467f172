"""Numeric grids as CSV text at %.9g, encoded a block of rows at a time.

``write_grid`` writes the bytes ``np.savetxt(path, grid, fmt="%.9g",
delimiter=",", newline="\\r\\n", header=",".join(names), comments="")``
writes. The comment above the ``ok`` mask in ``_encode`` gives the argument
for the digits and names the values formatted with ``"%.9g" % v`` instead.

Each value's text is laid out in a 32-byte slot of four 8-byte words:

    byte  0      sign
    bytes 1-5    "0.000" prefix of a fixed-notation value below 1
    byte  7      first significant digit
    bytes 8-23   the other eight digits, each after a place for the point
    bytes 24-27  scientific exponent, "e+XX" or "e-XX"
    bytes 28-29  separator, "," or CRLF

A slot is ``(TEMPLATE[row] & digit words) | FORCE[row]``, where ``row`` is
the decimal exponent ``e - E_MIN``, or ``BARE`` for zeros and for values
formatted in Python. A template holds the literals of its exponent's
notation and 0xFF where sign, digits and separator go; the digit words hold
those and 0xFF elsewhere, so the AND keeps both. The bytes a value does not
use are 0, and dropping every 0 byte of a block leaves its text.
"""

import numpy as np

# Values per block, in whole rows: the block's scratch stays near 1 MiB.
BLOCK = 4096
# The vector path takes e in [E_MIN, E_MAX): 10**|8 - e| is then an exact
# float64. A carry reaches E_MAX.
E_MIN, E_MAX = -14, 31
BARE = E_MAX - E_MIN + 1

_ASCII_DIGITS = np.arange(48, 58, dtype=np.uint8)
_POINT, _ZERO = ord("."), ord("0")


def _words(table):
    """A uint8 table whose rows are multiples of 8 bytes, as uint64 words."""
    return table.reshape(-1, 8).view(np.uint64)[:, 0]


# QUAD[g]: the 4-digit group g as (point place, digit) byte pairs with 0xFF
# at the places. QUAD[10000 + g]: the same with the trailing zeros, and the
# places before them, set to 0, for the group that ends the digits.
_quad = np.full((2, 10, 10, 10, 10, 8), 0xFF, np.uint8)
_quad[..., 1] = _ASCII_DIGITS[:, None, None, None]
_quad[..., 3] = _ASCII_DIGITS[:, None, None]
_quad[..., 5] = _ASCII_DIGITS[:, None]
_quad[..., 7] = _ASCII_DIGITS
_quad[1, :, :, :, 0, 6:] = 0
_quad[1, :, :, 0, 0, 4:] = 0
_quad[1, :, 0, 0, 0, 2:] = 0
_quad[1, 0, 0, 0, 0, :] = 0
QUAD = _words(_quad)

# LEAD[10 * negative + d]: the sign and the first digit d.
_lead = np.full((2, 10, 8), 0xFF, np.uint8)
_lead[:, :, 0] = [[0], [ord("-")]]
_lead[:, :, 7] = _ASCII_DIGITS
LEAD = _words(_lead)

# SEP[end of row]: the last word's separator.
_sep = np.full((2, 8), 0xFF, np.uint8)
_sep[:, 4:] = [[ord(","), 0, 0, 0], [ord("\r"), ord("\n"), 0, 0]]
SEP = _words(_sep)

_tpl = np.zeros((BARE + 1, 32), np.uint8)
_tpl[:, [0, 7, 28, 29]] = 0xFF
_tpl[:BARE, 9:24:2] = 0xFF
# scientific notation for e < -4 and e >= 9, fixed notation between
_sci = np.r_[E_MIN:-4, 9:E_MAX + 1] - E_MIN
_tpl[_sci, 8] = _POINT
_exponents = "".join(f"e{e:+03d}" for e in _sci + E_MIN).encode()
_tpl[_sci, 24:28] = np.frombuffer(_exponents, np.uint8).reshape(-1, 4)
# e in [-4, -1]: "0." and -e - 1 zeros before the digits
_tpl[-4 - E_MIN:-E_MIN, 1:3] = [_ZERO, _POINT]
_tpl[-4 - E_MIN, 3:6] = _tpl[-3 - E_MIN, 3:5] = _tpl[-2 - E_MIN, 3] = _ZERO
# e in [0, 7]: the point after the digit of 10**0
_tpl[np.arange(8) - E_MIN, np.arange(8, 24, 2)] = _POINT
TEMPLATE = _tpl.view("V32")[:, 0]

# FORCE[row]: "0" over the digits left of the point, kept where they are
# trailing zeros.
_force = np.zeros_like(_tpl)
_force[1 - E_MIN:9 - E_MIN, 9:24:2] = np.tri(8, dtype=np.uint8) * _ZERO
FORCE = _force.view("V32")[:, 0]

# y = a * UP[k] / DOWN[k] is a * 10**(k - 22) with one rounding for k in
# [0, 44]: every power of ten up to 10**22 is an exact float64.
_tens = [float(10 ** k) for k in range(23)]
UP = np.array([1.0] * 22 + _tens)
DOWN = np.array(_tens[:0:-1] + [1.0] * 23)


def _encode(block, ends):
    """The CSV text of a block of whole rows; ``ends`` has each value's
    separator word."""
    x = block.astype(np.float64).reshape(-1)
    n = x.size
    a = np.abs(x)
    zero = a == 0
    b = a + zero  # zeros scale as 1; infinities and NaN fail the range test
    e = np.floor(np.log10(b))
    k = (30 - e).astype(np.intp)
    y = b * UP.take(k, mode="clip") / DOWN.take(k, mode="clip")
    q = np.rint(y)
    # Python's "%.9g" rounds the exact binary value a = |x| correctly: to the
    # integer nearest Y = a * 10**(8 - E), ties to even, where E is the
    # decimal exponent that puts Y in [10**8, 10**9), with a carry into E at
    # 10**9. The encoder takes e = floor(log10(a)). For |8 - e| <= 22,
    # 10**|8 - e| is an exact float64, so the one product or quotient y is
    # Y = a * 10**(8 - e) correctly rounded. Rounding is monotone, and 10**8,
    # 10**9 and every half-integer between are float64 values, so y and Y lie
    # on the same side of each of them unless y equals one. Hence where
    # 10**8 < y < 10**9 and y is not a half-integer, e is E and rint(y) is
    # Python's digits. Where y == 10**8, either Y >= 10**8 and the same
    # holds, or Y lies within half an ulp below 10**8: then E is e - 1 and
    # 10 * Y rounds to 10**9 and carries, which prints the same "1" and
    # zeros at exponent e as rint(y) does. Where log10 is off by one, y falls
    # outside [10**8, 10**9). Zeros print as "0" or "-0" from the templates.
    # The rest is formatted with "%.9g" % v, one value at a time: infinities,
    # NaN, e outside [E_MIN, E_MAX), y outside [10**8, 10**9), and halfway y.
    ok = ((e >= E_MIN) & (e < E_MAX) & (y >= 1e8) & (y < 1e9)
          & (np.abs(y - q) != 0.5) & ~zero)
    carry = q == 1e9
    q = np.where(ok, q - 9e8 * carry, 0.0)
    row = np.where(ok, e + carry - E_MIN, BARE).astype(np.intp)
    t = np.floor(q / 1e4)
    lo = q - 1e4 * t
    d0 = np.floor(t / 1e4)
    hi = t - 1e4 * d0

    slots = TEMPLATE.take(row).view(np.uint64).reshape(n, 4)
    words = slots.T
    words[0] &= LEAD[(d0 + 10 * np.signbit(x)).astype(np.intp)]
    words[1] &= QUAD[(hi + 1e4 * (lo == 0)).astype(np.intp)]
    words[2] &= QUAD[(lo + 1e4).astype(np.intp)]
    words[3] &= ends[:n]
    slots |= FORCE.take(row).view(np.uint64).reshape(n, 4)
    text = slots.view(np.uint8).reshape(n, 32)
    for i in np.flatnonzero(~(ok | zero)):
        s = ("%.9g" % x[i]).encode("ascii")
        text[i, :28] = np.frombuffer(s.ljust(28, b"\0"), np.uint8)
    text = text.reshape(-1)
    return np.compress(text != 0, text)


def write_grid(path, names, grid) -> None:
    """Write a header line of ``names``, then the rows of the 2-D ``grid``
    at %.9g, comma-separated and CRLF-terminated."""
    ncols = grid.shape[1]
    rows = max(1, BLOCK // ncols)
    ends = np.full((rows, ncols), SEP[0])
    ends[:, -1] = SEP[1]
    ends = ends.reshape(-1)
    with open(path, "wb") as fh, np.errstate(all="ignore"):
        fh.write((",".join(names) + "\r\n").encode("latin-1"))
        for r in range(0, grid.shape[0], rows):
            fh.write(_encode(grid[r:r + rows], ends))
