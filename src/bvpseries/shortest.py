"""Shortest round-trip text of float64 columns, byte for byte Python's repr.

``rows(columns, seps)`` yields the text of a table of float columns, a
block of rows at a time: every cell as ``repr`` prints it, each followed
by its column's separator, except the table's last cell. It is computed
with uint64 array arithmetic, one block of at most ``BLOCK`` cells at a
time, instead of one ``repr`` call per float. This module is the one
place that cuts a table into blocks and stitches their seams.

The digits come from the nearest-to-even path of Dragonbox (Junekey Jeon,
"Dragonbox: A New Floating-Point Binary-to-Decimal Conversion Algorithm",
2020). A float ``fc * 2**e`` has the rounding interval of half-width
``2**(e-1)`` around it; with ``k = 2 - floor(e log10 2)`` the interval's
upper end, scaled by ``10**k``, is ``z = (2fc + 1) * 2**(e-1) * 10**k``,
and its width ``delta`` lies in [100, 1000). ``z`` is the integer part of
the product of ``(2fc + 1) * 2**beta`` with a 128-bit power of ten, and
one division by 1000 tells whether a multiple of 1000 lies in the
interval (then that one, with trailing zeros to drop, is the shortest);
otherwise the nearest multiple of 100 is found from the remainder with a
division by 100. That digit string is the one repr prints: the shortest
that rounds back to the float, and of those the nearest to it, ties to
even. Dragonbox's exact tests, whether an end of the interval is an
integer and whether the float lies at a midpoint, run only on the lanes
whose remainder calls for them, as compressed subsets. Everything that
depends only on the binary exponent (the power of ten, beta, ``delta``
and the decimal exponent) is looked up per exponent.

This path serves the regular floats, normal ones with a nonzero
mantissa, whose digits number 16 or 17. The others are the lanes with a
zero mantissa or a zero exponent field: 0.0, which has no interval, the
subnormals, which may have fewer digits, and the exact powers of two,
whose lower gap is half the upper one. They take the digits and decimal
point that ``repr`` prints, parsed from its text, with one ``repr`` call
per distinct value in a block. That is exact by definition, since
``repr`` is what the kernel must match, and a column of one value, such
as 0.0 or 1.0, costs one call.

Each value is then laid out in four little-endian words: the separator
that precedes it and its sign in the first, the repr text in the other
three. The 17 significant digits, zero-padded, are made ASCII by SWAR
eight per word; the number of digits repr prints is the place of the last
nonzero one, which a float conversion of the raw digit words gives. The
'.' (and the '0.' prefix, with up to three more '0', of values from 1e-4
up to 1) is put in by one shift of the digits and three masks per word,
looked up by the decimal point position ``decpt`` (value = 0.d1d2... *
10**decpt): the digits before it, the digits after it, shifted up, and
the constant bytes, which also hold the ``e+XX`` suffix of repr's
scientific notation (decpt <= -4 or above 16). One boolean compress keeps
the bytes repr would print.

The per-exponent table (2,047 rows, from one 128-bit multiplier per
decimal exponent, ``_multipliers``) and the per-decpt table (681 rows)
are built whole when this module is imported, as read-only constants, so
rendering keeps no state. That takes about 0.5 ms, and the import about
2 ms after numpy (2-core Xeon, numpy 2.4.6); the command line imports
this module only when it renders float columns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rows"]

# Cells per block. Each block costs about 0.13 ms of numpy calls on top
# of its values, so ``rows`` cuts a table into equal blocks, not
# full ones and a short tail, and a block of a table of w columns is at
# most BLOCK // w rows: blocks of 2**14 rows of seven cells raised
# fundamental's peak at n = 2**18 by 2-6 MiB. Blocks of 2**12 to 2**16
# rows rendered equally fast; 2**14 kept fundamental's peak memory within
# 4 MiB of the lowest of them at n = 65536 and 2**20. Each temporary is
# one 128 KiB array: within a block the allocator reuses its memory, and
# between blocks glibc, by default, returns the freed heap to the kernel
# and the next block faults the same pages in again, unless the process
# keeps its freed heap, as the command line's process entry
# (``bvpseries.__main__``) does.
# With the heap kept, a 65,536-node fundamental table rendered as fast in
# blocks of 8192 as of 16384 (within 5%), 20-25% slower in blocks of
# 4096, and no faster in larger ones (2-core Xeon, numpy 2.4).
BLOCK = 16384

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_ZEROS8 = _U(0x3030303030303030)  # eight ASCII '0'


def _read_only(*arrays):
    """The arrays, made read-only: the module's tables are constants."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


_POW10, = _read_only(np.array([10**k for k in range(20)], dtype=np.uint64))


# decpt offset of the layout rows; finite floats have -323 <= decpt <= 309
_DECPT = 340


def _floor_log2_pow10(k):
    """floor(k log2 10), exact for |k| < 1500."""
    return (k * 1741647) >> 19


def _multipliers(k_min, k_max):
    """Dragonbox's 128-bit multipliers for 10**k, k from k_min < 0 to
    k_max >= 0: 10**k * 2**s, s = 127 - floor(log2 10**k), rounded up,
    each between 2**127 and 2**128.

    For k = -m < 0 that is 2**(s - m) / 5**m rounded up, which is
    floor(2**(s - m) / 5**m) + 1, since 5**m divides no power of two. Every
    s - m is at most the last one, t, so each floor is floor(2**t / 5**m),
    from the one for m - 1 by one division by 5, shifted down by
    t - (s - m): one division of a big integer by a small one per k, in
    place of one by 10**m.
    """
    shifts = [127 - _floor_log2_pow10(k) for k in range(k_min, k_max + 1)]
    top = shifts[0] + k_min  # s - m for m = -k_min, the largest
    quotient, powers = 1 << top, []
    for m in range(1, 1 - k_min):
        quotient //= 5
        powers.append((quotient >> (top - shifts[-k_min - m] + m)) + 1)
    powers.reverse()
    power = 1
    for shift in shifts[-k_min:]:
        powers.append(power << shift if shift >= 0 else -(-power >> -shift))
        power *= 10
    return powers


def _exponent_rows():
    """Dragonbox's parameters for the 2,047 biased exponent fields.

    Per exponent e = max(ie, 1) - 1075, with k = 2 - floor(e log10 2) and
    c the multiplier for 10**k: the upper and lower words of c; beta;
    ``delta``, the interval's width scaled by 10**k, c >> (127 - beta),
    which is the upper word's c_hi >> (63 - beta) since 127 - beta >= 118;
    and ``at``, _DECPT + 17 plus the decimal exponent of the digits
    s * 10 + q. Every beta is 6 to 9, so (2fc + 1) << beta fits a word.
    """
    e = np.maximum(np.arange(2047, dtype=np.intp), 1) - 1075
    e10 = (e * 315653) >> 20  # floor(e log10 2)
    k = 2 - e10
    # one multiplier per decimal exponent k, 617 of them
    powers = _multipliers(int(k.min()), int(k.max()))
    word = (1 << 64) - 1
    c_hi, c_lo = (np.array(col, dtype=np.uint64).take(k - k.min())
                  for col in ([c >> 64 for c in powers], [c & word for c in powers]))
    beta = (e + _floor_log2_pow10(k)).astype(np.uint64)
    return _read_only(c_hi, c_lo, beta, c_hi >> (_U(63) - beta), e10 + 17 + _DECPT)


def _layout_rows():
    """repr's layout for the 681 decimal point positions decpt = ``at`` -
    _DECPT, ``at`` from 0 to 2 * _DECPT.

    Per text word w: the bytes of the unshifted digits (``low``), the
    bytes of the digits shifted up by ``shift`` bits (``high``), and the
    constant bytes (``fill``): '.', once ``point`` digits precede it
    (decpt in fixed notation with decpt >= 1, else 1); or, for -3 <= decpt
    <= 0, all digits shifted up five bytes behind '0.000'; and the
    exponent suffix of scientific notation, 'e+XX' or 'e-XXX',
    right-aligned in the last word. Per digit count n (rows 0 to 17), the
    bits of the kept text bytes, each run shifted up by 8 past the
    separator word: [0, first) and [start, stop).
    """
    decpt = np.arange(-_DECPT, _DECPT + 1, dtype=np.intp)
    scientific = (decpt <= -4) | (decpt > 16)
    small = ~scientific & (decpt <= 0)
    point = np.where(scientific | small, 1, decpt)
    k = point - 8 * np.arange(3)[:, None]
    inside = (k >= 0) & (k < 8)
    shift = (8 * np.clip(k, 0, 7)).astype(np.uint64)
    low = np.where(k >= 8, ~_U(0), np.where(k > 0, (_U(1) << shift) - _U(1), _U(0)))
    high = ~(low | np.where(inside, _U(0xFF) << shift, _U(0)))
    fill = np.where(inside, _U(0x2E) << shift, _U(0))

    exponent = decpt - 1
    mag = np.abs(exponent)
    length = np.where(scientific, np.where(mag >= 100, 5, 4), 0)
    text = (0x65 | np.where(exponent < 0, 0x2D, 0x2B) << 8
            | np.where(length == 5, (mag // 100 + 48) << 16 | (mag // 10 % 10 + 48) << 24
                       | (mag % 10 + 48) << 32,
                       (mag // 10 + 48) << 16 | (mag % 10 + 48) << 24))
    fill[2] |= np.where(scientific, text.astype(np.uint64)
                        << (8 * (8 - length)).astype(np.uint64), _U(0))
    low[:, small] = 0
    high[:, small] = ~_U(0)
    fill[:, small] = [[0x3030302E30], [0], [0]]  # '0.000', little-endian

    n = np.arange(18)[:, None]
    first = np.where(scientific, np.where(n > 1, n + 1, 1),
                     np.where(small, 2, np.maximum(n, decpt + 1) + 1))
    start = np.where(scientific, 24 - length, np.where(small, decpt + 5, 0))
    stop = np.where(scientific, 24, np.where(small, n + 5, 0))
    keep = (((1 << first) - 1) | ((1 << stop) - (1 << start))) << 8
    return _read_only(low, high, fill, np.where(small, _U(40), _U(8)),
                      keep.astype(np.uint64))


_EXPONENTS = _exponent_rows()
_LAYOUT = _layout_rows()


def _high(a_lo, a_hi, b):
    """The high word of a * b, a given as its 32-bit halves."""
    b_lo = b & _MASK32
    b_hi = b >> _U(32)
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U(32)) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _mul(a, b):
    """a * b as (low word, high word)."""
    return a * b, _high(a & _MASK32, a >> _U(32), b)


def _digits(bits):
    """(d, at) of positive finite floats given as their bits: their shortest
    digits zero-padded to 17, and decpt + _DECPT."""
    exponent = bits >> _U(52)
    ie = exponent.astype(np.intp)
    c_hi, c_lo, beta, delta, at = (t.take(ie) for t in _EXPONENTS)
    mantissa = bits & _MANTISSA
    # 2fc, the hidden bit set; u = (2fc + 1) * 2**beta
    two_fc = (mantissa | _U(1 << 52)) << _U(1)
    u = (two_fc | _U(1)) << beta
    # z = floor(u * c / 2**128), w1 the upper word of its fraction
    halves = u & _MASK32, u >> _U(32)
    h0 = _high(*halves, c_lo)
    z = _high(*halves, c_hi)
    w1 = u * c_hi + h0
    z += w1 < h0
    s = z // _U(1000)
    r = z - s * _U(1000)
    zero = np.flatnonzero(r == _U(0))
    if zero.size:  # an integer z, the upper end, is out of an odd float's interval
        drop = zero[(w1.take(zero) == 0) & ((two_fc.take(zero) & _U(2)) != 0)]
        s[drop] -= _U(1)
        r[drop] += _U(1000)
    # s * 1000 is in the interval iff r < delta, or r == delta and the lower
    # end is; else the digits are the float's own, rounded to a multiple of
    # 100: s * 10 + floor((y - s * 1000 + 50) / 100) for y = z - delta / 2
    big = r < delta
    tie = np.flatnonzero(r == delta)
    if tie.size:  # is the lower end, z - delta, in the interval?
        two_ft = two_fc.take(tie)
        parity, integer = _parity(two_ft - _U(1), c_hi.take(tie), c_lo.take(tie), beta.take(tie))
        big[tie] = parity | (integer & ((two_ft & _U(2)) == 0))
    dist = r + _U(50) - (delta >> _U(1))
    q = dist // _U(100)
    d = s * _U(10) + q * ~big
    even = np.flatnonzero(dist == q * _U(100))
    even = even[~big.take(even)]
    if even.size:  # the float is at or below the midpoint of d - 1 and d
        parity, integer = _parity(two_fc.take(even), c_hi.take(even), c_lo.take(even),
                                  beta.take(even))
        de = d.take(even)
        d[even] = de - ((parity != ((dist.take(even) & _U(1)) == 1))
                        | (integer & ((de & _U(1)) == 1)))
    # every regular float's d has 16 or 17 digits: pad it to 17
    short = d < _POW10[16]
    d *= short * _U(9) + _U(1)
    at -= short
    # zeros, subnormals and powers of two take repr's digits, once per value
    rare = np.flatnonzero(np.minimum(mantissa, exponent) == 0)
    if rare.size:
        distinct, inverse = np.unique(bits.take(rare), return_inverse=True)
        d_rare, at_rare = zip(*map(_repr_digits, distinct.view(np.float64).tolist()))
        d[rare] = np.array(d_rare, dtype=np.uint64).take(inverse)
        at[rare] = np.array(at_rare, dtype=np.intp).take(inverse)
    return d, at


def _repr_digits(x):
    """(digits zero-padded to 17, decpt + _DECPT) of a float x >= 0, read from
    its repr as the integer m of n digits times 10**exponent. 0.0 is put at
    decpt 1, as 1.0 is, which keeps its text in one run of bytes."""
    if not x:
        return 0, _DECPT + 1
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, fraction = mantissa.partition(".")
    m = int(whole + fraction)
    n = len(str(m))
    return m * 10 ** (17 - n), int(exponent or 0) - len(fraction) + n + _DECPT


def _parity(two_f, c_hi, c_lo, beta):
    """Dragonbox's compute_mul_parity: the parity of the integer part of
    two_f * c * 2**beta / 2**128, and whether it is an integer."""
    w0, h0 = _mul(two_f, c_lo)
    w1 = h0 + two_f * c_hi
    return (((w1 >> (_U(64) - beta)) & _U(1)) == 1,
            ((w1 << beta) | (w0 >> (_U(64) - beta))) == 0)


def _swar8(x):
    """The eight decimal digits of each x < 10**8, first digit in the lowest
    byte, as byte values 0 to 9: split into 4-digit halves, 2-digit
    quarters, digits, each step one multiply-shift for the quotients."""
    w = (x << _U(32)) + (x // _U(10000)) * _U((1 - (10000 << 32)) % 2**64)
    t = ((w * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    w = (w << _U(16)) + t * _U((1 - (100 << 16)) % 2**64)
    t = ((w * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return (w << _U(8)) + t * _U((1 - (10 << 8)) % 2**64)


def _block(values, sep_word, sep_bits):
    """The text of one block: four words and a keep-mask per value.

    Word 0 holds the separator before the value (its bytes in
    ``sep_bits``) and the sign in its top byte; words 1-3 hold the repr
    text, whose kept bytes are one or two runs.
    """
    bits = values.view(np.uint64)
    negative = bits >> _U(63)
    d, at = _digits(bits & _U(0x7FFFFFFFFFFFFFFF))
    d1 = d // _POW10[16]
    rest = d - d1 * _POW10[16]
    upper = rest // _POW10[8]
    a = _swar8(upper)
    b = _swar8(rest - upper * _POW10[8])
    # the digits repr prints run to the last nonzero one: its byte in the
    # 16-byte a, b is the bit length's, which a float conversion gives
    # (digit bytes are at most 9, so it never rounds up past a power of two)
    top = (b.astype(np.float64) * 2.0**64 + (a.astype(np.float64) + 0.5)).view(np.uint64)
    low, high, fill, shift, keep = _LAYOUT
    kept = keep.take(((top >> _U(52)).astype(np.intp) - 1023 >> 3) * keep.shape[1]
                     + (2 * keep.shape[1]) + at)
    a |= _ZEROS8
    b |= _ZEROS8
    f0 = (d1 | _U(0x30)) | (a << _U(8))
    f1 = (a >> _U(56)) | (b << _U(8))
    f2 = b >> _U(56)
    # per text word, the digits before the '.' or '0.000', those after it
    # shifted up by t bits (with the top bytes of the word before), and the
    # constant bytes
    t = shift.take(at)
    back = _U(64) - t
    slots = np.empty((values.size, 4), dtype="<u8")
    np.bitwise_or(sep_word, negative * _U(0x2D << 56), out=slots[:, 0])
    prev = _U(0)
    for w, f in enumerate((f0, f1, f2)):
        np.bitwise_or((f & low[w].take(at)) | (((f << t) | (prev >> back)) & high[w].take(at)),
                      fill[w].take(at), out=slots[:, w + 1])
        prev = f
    kept |= sep_bits | (negative << _U(7))
    mask = np.unpackbits(kept.astype("<u4").view(np.uint8), bitorder="little")
    return slots, mask


def _separators(seps):
    """Per column, the word of the separator that follows its cells,
    right-aligned below the sign byte of the next cell, and its keep bits."""
    encoded = [s.encode("ascii") for s in seps]
    if not encoded or max(map(len, encoded)) > 7:
        raise ValueError("each separator must have 0 to 7 characters")
    words = np.array([int.from_bytes(s, "little") << (8 * (7 - len(s))) for s in encoded],
                     dtype=np.uint64)
    bits = np.array([((1 << len(s)) - 1) << (7 - len(s)) for s in encoded], dtype=np.uint64)
    return words, bits


def rows(columns, seps):
    """The bytes of a table, a block of rows at a time: its cells in row
    order, each as ``repr`` prints it and followed by its column's
    separator, the table's last cell by nothing.

    ``columns`` are 1-D arrays of finite floats, all of one length, and
    ``seps`` one ASCII str of at most 7 characters per column (ValueError
    otherwise). The rows are cut into ceil(rows / (BLOCK // width)) blocks
    whose lengths differ by at most one, so no block is a short tail; every
    block but the first begins with the separator after the row above it.
    Only one block's digits, and its stacked cells, are held at a time.
    """
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    if len(seps) != len(columns) or any(
            c.ndim != 1 or c.size != columns[0].size or not np.isfinite(c).all()
            for c in columns):
        raise ValueError("rows takes one separator per 1-D column of finite floats, "
                         "all of one length")
    words, bits = _separators(seps)
    width, total = len(columns), columns[0].size
    count = -(-total // max(BLOCK // width, 1))
    if not count:
        return
    # the separator before each cell: the one after the cell left of it, or
    # for a row's first cell the one after the row above
    longest = -(-total // count)
    sep_words, sep_bits = (np.tile(np.roll(a, 1), longest) for a in (words, bits))
    lo = 0
    for k in range(1, count + 1):
        hi = total * k // count
        cells = np.column_stack([c[lo:hi] for c in columns]).ravel()
        slots, mask = _block(cells, sep_words[:cells.size], sep_bits[:cells.size])
        if lo == 0:
            mask[:7] = 0  # no separator before the table's first cell
        yield slots.view(np.uint8).ravel()[mask.view(bool)].tobytes()
        lo = hi
