"""CSV cells of numpy columns as bytes, and the lines they make.

A column's cells are one uint8 grid, a row per cell: the cell's text and
NULs around it, the grid as wide as its widest cell. ``csv_lines`` zips
grids into the lines of a CSV block and drops every NUL of the block with one
``np.compress``. No cell may hold a NUL or need quoting.

A float cell is the text of ``repr``, and a percent cell the text of
``fraction_to_percent_text``; those two functions are the definitions, and
the tests' oracles. ``float_cells`` makes them for a whole block by array
arithmetic. Each distinct bit pattern (not value: ``-0.0 == 0.0``) gets its
shortest round-trip decimal ``f * 10**e`` by Giulietti's Schubfach ("The
Schubfach way to render doubles", 2020) on uint64 arrays, which is the
decimal ``repr`` prints. ``repr`` writes it positionally, with ``max(-e, 1)``
fraction digits, for a decimal point ``-4 < len(f) + e <= 16``. The percent
text is those digits after the exponent shift of ``Decimal.scaleb(2)``: two
fraction digits fewer, where the ``.0`` of an integer-valued ``repr`` stays
a digit (``1.0`` is ``100``, ``0.05`` is ``5``), and an exponent-form
``repr`` comes out positional (``6.53e-05`` is ``0.00653``). The digits go
to the grid four at a time from a table of the texts of 0..9999, in one
column of quads for every row: the integer digits right-aligned before the
point, the fraction digits left-aligned after it, the zeros outside them
NUL. Subnormals, infinities, NaN and the ``repr`` of an exponent form take
the definition, a cell at a time.
"""

from __future__ import annotations

from decimal import Decimal
from functools import cache

import numpy as np


def fraction_to_percent_text(value: float) -> str:
    """The percent cell of a fraction: its ``repr``, decimal point shifted."""
    return format(Decimal(repr(value)).scaleb(2), "f")


_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
# the decimal exponents k of Schubfach's table of 10**-k
_K_MIN, _K_MAX = -324, 292
# offsets into the quad table: leading zeros NUL, trailing zeros NUL, the
# point; 0 with its leading zeros NUL is four NULs
_LEADING, _TRAILING, _POINT = np.uint64(10000), np.uint64(20000), np.uint64(30000)
_NUL = _LEADING


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """Schubfach's g = floor(10**-k / 2**r) + 1 for k = _K_MIN.._K_MAX, a
    126-bit integer split in 63 + 63 bits, each as two 32-bit limbs, high to
    low; and the quad table: the four ASCII bytes of 0..9999 as uint32,
    zero-padded, then with leading zeros NUL, then with trailing zeros NUL
    (0 is four NULs in both), then three NULs and a point."""
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(powers[-1] * 10)
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125
        if k > 0:
            g.append((1 << -r) // powers[k] + 1)
        else:
            g.append((powers[-k] >> r if r > 0 else powers[-k] << -r) + 1)
    high = np.array([x >> 63 for x in g], np.uint64)
    low = np.array([x & ((1 << 63) - 1) for x in g], np.uint64)
    pairs = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), np.uint8)
    digits = np.concatenate((np.repeat(pairs.reshape(100, 2), 100, axis=0),
                             np.tile(pairs.reshape(100, 2), (100, 1))), axis=1)
    leading, trailing = digits.copy(), digits.copy()
    for place in range(4):
        leading[:10 ** (3 - place), place] = 0
        trailing[::10 ** (4 - place), place] = 0
    point = np.array([[0, 0, 0, ord(".")]], np.uint8)
    quads = np.concatenate((digits, leading, trailing, point))
    return (high >> 32, high & _M32, low >> 32, low & _M32, quads.view(np.uint32).ravel())


def _clip(x: np.ndarray, high: int) -> np.ndarray:
    return np.minimum(np.maximum(x, 0), high)


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of the products of uint64 a and b, given as their
    low and high 32-bit halves."""
    mid = a1 * b0
    cross = (a0 * b0 >> 32) + (mid & _M32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (cross >> 32)


def _rop(g, cp):
    """Schubfach's round-to-odd of g * cp / 2**127, g as four limbs."""
    g13, g12, g01, g00 = g
    cp0, cp1 = cp & _M32, cp >> 32
    z = ((g13 << 32 | g12) * cp >> 1) + _mulhi(g00, g01, cp0, cp1)
    return (_mulhi(g12, g13, cp0, cp1) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach: (f, k) of positive normal float64 ``bits``, f * 10**k the
    shortest decimal that rounds to each, the closest to it among those,
    an even f on a tie."""
    q = (bits >> 52).astype(np.int64)
    c = bits & np.uint64((1 << 52) - 1)
    # at a power of two the next double down is half as far as the next up
    irregular = (c == 0) & (q > 1)
    c |= np.uint64(1 << 52)
    q -= 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint8)
    g = [limb[k - _K_MIN] for limb in _tables()[:4]]
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h)
    vbr = _rop(g, (cb + 2) << h)
    out = c & 1
    del g, c, cb, h, q, irregular
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    t = s + 1
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    mid = (s + t) << 1
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(take_s, s, t)
    shorter = (s >= 100) & (upin != wpin)
    return np.where(shorter, np.where(upin, sp10, tp10), f), k


def _positional(bits: np.ndarray, percent: bool) -> tuple[np.ndarray, ...]:
    """(whole, part, fraction, covered) of positive float64 ``bits``: the
    digits of the cell text before and after its point, the number of the
    latter, and whether the text is positional (else those are 0)."""
    normal = (bits >= np.uint64(1 << 52)) & (bits < np.uint64(0x7FF << 52))
    f, e = _shortest(np.where(normal, bits, np.uint64(1 << 62)))
    f, e = np.where(normal, f, 0), np.where(normal, e, 0)
    ends = np.flatnonzero((f // 10 * 10 == f) & normal)
    if len(ends):
        tail, shift = f[ends], e[ends]
        for p in (16, 8, 4, 2, 1):
            cut = tail // _POW10[p]
            zeros = cut * _POW10[p] == tail
            tail, shift = np.where(zeros, cut, tail), shift + zeros * p
        f[ends], e[ends] = tail, shift
    point = np.searchsorted(_POW10, f, side="right") + e
    # repr's fraction digits, and its digits without the point
    fraction = np.maximum(-e, 1)
    m = f * _POW10[_clip(e + 1, 19)]
    covered = (normal | (bits == 0)) & (point <= 16)
    if percent:
        m = np.where(fraction == 1, m * 10, m)
        fraction = np.maximum(fraction - 2, 0)
    else:
        covered &= point > -4
    m, fraction = np.where(covered, m, 0), np.where(covered, fraction, 0)
    scale = _POW10[np.minimum(fraction, 19)]
    whole = m // scale
    return whole, m - whole * scale, fraction, covered


def _layout(whole: np.ndarray, part: np.ndarray, fraction: np.ndarray,
            negative: np.ndarray) -> np.ndarray:
    """Cell grid of numbers with uint64 digits ``whole`` before a decimal
    point and ``part`` after it, the latter zero-filled to ``fraction``
    digits (no point where 0), a '-' before a ``negative`` one. The grid is
    four-byte quads from the quad table, cut to the widest cell: the point
    sits in one column for every row, the integer digits end left of it and
    the fraction digits start right of it."""
    quads = _tables()[-1]
    lead = len(str(int(whole.max(initial=0))))
    width = -(-(lead + 1) // 4)   # quads before the point, room for a sign
    places = int(fraction.max(initial=0))
    grid = np.empty((len(whole), width + 1 + -(-places // 16) * 4), np.uint32)
    # integer quads, high to low; one with nothing above it has no leading zeros
    rest = whole
    for i in range(width - 1, -1, -1):
        high = rest // 10000
        grid[:, i] = quads[rest - high * 10000 + _LEADING * (high == 0)]
        rest = high
    grid[:, width] = quads[np.where(fraction > 0, _POINT, _NUL)]
    # the fraction digits 16 at a time, zero-filled past their end; the quad
    # that holds the last digit, and any past it, drop trailing zeros
    for i in range(0, places, 16):
        if i:
            scale = _POW10[_clip(fraction - i, 19)]
            part = part - part // scale * scale
        shift = fraction - i - 16
        limb = part * _POW10[_clip(-shift, 16)]
        if places > i + 16:
            limb = limb // _POW10[_clip(shift, 19)]
        for j in range(4):
            quad = limb // _POW10[12 - 4 * j]
            limb = limb - quad * _POW10[12 - 4 * j]
            last = fraction <= i + 4 * j + 4
            grid[:, width + 1 + i // 4 + j] = quads[quad + _TRAILING * last]
    grid = grid.view(np.uint8)
    # a 0 before the point, and after it where it has only zeros
    grid[:, 4 * width - 1] = np.maximum(grid[:, 4 * width - 1], ord("0"))
    if places:
        after = grid[:, 4 * width + 4]
        grid[:, 4 * width + 4] = np.maximum(after, np.where(fraction > 0, ord("0"), 0))
    rows = np.flatnonzero(negative)
    digits = np.maximum(np.searchsorted(_POW10, whole[rows], side="right"), 1)
    grid[rows, 4 * width - digits - 1] = ord("-")
    return grid[:, 4 * width - lead - (len(rows) > 0):4 * width + 4 + places]


def float_cells(values, percent: bool = False) -> np.ndarray:
    """The cells of float64 ``values`` (any shape) as a grid of that shape
    plus one axis: ``repr`` of each, or ``fraction_to_percent_text`` with
    ``percent``."""
    values = np.asarray(values, np.float64)
    unique, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    whole, part, fraction, covered = _positional(unique & _M63, percent)
    grid = _layout(whole, part, fraction, unique > _M63)
    rest = np.flatnonzero(~covered)
    if len(rest):
        define = fraction_to_percent_text if percent else repr
        texts = [define(v).encode() for v in unique[rest].view(np.float64).tolist()]
        pad = max(map(len, texts)) - grid.shape[1]
        if pad > 0:
            grid = np.pad(grid, ((0, 0), (pad, 0)))
        grid[rest] = 0
        for row, text in zip(rest.tolist(), texts):
            grid[row, grid.shape[1] - len(text):] = np.frombuffer(text, np.uint8)
    return grid[inverse].reshape(values.shape + grid.shape[1:])


def int_cells(values) -> np.ndarray:
    """The cells of int64 ``values`` (any shape), ``str`` of each, as a grid
    of that shape plus one axis."""
    values = np.asarray(values, np.int64)
    flat = values.ravel()
    negative = flat < 0
    magnitude = np.where(negative, -flat.view(np.uint64), flat.view(np.uint64))
    zeros = np.zeros(len(flat), np.int64)
    grid = _layout(magnitude, zeros.view(np.uint64), zeros, negative)
    return grid.reshape(values.shape + grid.shape[1:])


def text_cells(texts) -> np.ndarray:
    """The cells of a column of texts, each encoded as UTF-8."""
    encoded = np.array([text.encode() for text in texts], bytes)
    return encoded.view(np.uint8).reshape(len(encoded), encoded.itemsize)


def csv_lines(*columns: np.ndarray) -> bytes:
    """CSV lines, each ended by a newline, of the rows zipped from cell
    grids of one row count."""
    rows = len(columns[0])
    parts = []
    for grid in columns:
        parts += (grid, np.full((rows, 1), ord(","), np.uint8))
    parts[-1] = np.full((rows, 1), ord("\n"), np.uint8)
    lines = np.concatenate(parts, axis=1).ravel()
    return np.compress(lines != 0, lines).tobytes()
