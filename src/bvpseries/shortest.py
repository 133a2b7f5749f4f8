"""Shortest round-trip text of float64 columns, byte for byte Python's repr.

``rows(columns, seps)`` yields the text of a table of float columns, a
block of rows at a time: every cell as ``repr`` prints it, each followed
by its column's separator, except the table's last cell. It is computed
with uint64 array arithmetic, one block of at most ``BLOCK`` cells at a
time, instead of one ``repr`` call per float. This module is the one
place that cuts a table into blocks and stitches their seams.

The digits come from Ryu's ``d2d`` (Ulf Adams, "Ryu: fast float-to-string
conversion", PLDI 2018): for a float ``m2 * 2**e2`` it takes
``mv = 4*m2`` and the interval bounds ``mv + 2`` and ``mv - 1 - mmShift``,
scales all three by a 125-bit power of 5 (or its inverse) with one
192-bit product ``mv * M`` and two 128-bit adds, and then removes decimal
digits while the scaled bounds still differ. Everything that depends only
on the binary exponent (the table entry, the shift, the decimal exponent,
the trailing-zero masks) is looked up per exponent. An exact vr (Ryu's
``vrIsTrailingZeros``) only turns a removed half into a tie to even,
which is one more vectorised test; the rare lanes whose lower bound may
be exact (``vmIsTrailingZeros``) are finished on their compressed subset,
as are the divisibility tests of floats of 2**54 and above. That digit
string is the one repr prints: the shortest that rounds back to the
float, and of those the nearest to it, ties to even.

Each value is then laid out in four little-endian words: the separator
that precedes it and its sign in the first, the repr text in the other
three (the digits, by SWAR eight per word, with '.' shifted in, a
``0.000`` prefix or an ``e+XX`` suffix), and one boolean compress keeps
the bytes repr would print. repr writes scientific notation iff the
decimal point position ``decpt`` (value = 0.d1d2... * 10**decpt) is
at most -4 or above 16.

The per-exponent and per-decpt tables are built a row at a time, the
first time a block meets that exponent or decpt, and kept, so importing
this module builds nothing; the command line imports it only when it
renders float columns.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["rows"]

# Cells per block. Each block costs some 100 numpy calls, about 0.3 ms,
# on top of its values, so ``rows`` cuts a table into equal blocks, not
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
# With the heap kept, a 65,536-node fundamental table rendered about 10%
# faster in blocks of 16384 than of 8192, and no faster in larger ones.
BLOCK = 16384

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_ONES = _U(0xFFFFFFFFFFFFFFFF)
_ZEROS8 = 0x3030303030303030  # eight ASCII '0'
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# for r removed digits: 10**(r-1), the place of the last one (1 if none),
# and half of 10**r (above any remainder if none)
_LOWER = np.array([1] + [10**k for k in range(19)], dtype=np.uint64)
_HALF = np.array([1] + [5 * 10**k for k in range(19)], dtype=np.uint64)


def _pow5bits(e):
    """Bits of 5**e (1 for e = 0), Ryu's pow5bits for arrays of e."""
    return ((e * 1217359) >> 19) + 1


class _Rows:
    """Tables whose rows are built on demand: row j of each is the last-axis
    entry of ``build`` for index j, built the first time ``at`` is asked
    for it and kept. A run formats the values of a few dozen exponents and
    decimal point positions, not all of them."""

    def __init__(self, build, size):
        self._build = build
        self._built = np.zeros(size, dtype=bool)
        self._tables = None

    def at(self, index):
        """The tables, their rows at ``index`` built."""
        missing = np.zeros_like(self._built)
        missing[index] = True
        missing &= ~self._built
        if missing.any():
            new = np.flatnonzero(missing)
            rows = self._build(new)
            if self._tables is None:
                self._tables = [np.zeros(r.shape[:-1] + self._built.shape, r.dtype)
                                for r in rows]
            for table, r in zip(self._tables, rows):
                table[..., new] = r
            self._built[new] = True
        return self._tables


def _exponent_rows(ie):
    """Ryu's parameters for the distinct biased exponent fields ``ie``.

    Per exponent: the implicit leading bit of m2 (absent for subnormals),
    the two 64-bit words of the 125-bit multiplier M (Ryu's
    DOUBLE_POW5_INV_SPLIT[q], about 2**k / 5**q, for e2 >= 0;
    DOUBLE_POW5_SPLIT[i], 5**i cut to 125 bits, for e2 < 0) and of 2M,
    the shifts that take floor(mv * M / 2**j) out of the 192-bit product's
    upper words, the decimal exponent e10 of the scaled values, and the
    data of Ryu's trailing-zero tests.
    """
    e2 = np.maximum(ie, 1) - 1077
    pos = e2 >= 0
    # Ryu's log10Pow2 and log10Pow5, exact over this range
    q = np.where(pos, ((np.maximum(e2, 0) * 78913) >> 18) - (e2 > 3),
                 ((np.maximum(-e2, 0) * 732923) >> 20) - (-e2 > 1))
    e10 = np.where(pos, q, q + e2)
    i = np.where(pos, 0, -e2 - q)
    shift = np.where(pos, -e2 + q + 124 + _pow5bits(q), q - _pow5bits(i) + 125)
    assert shift.min() > 64 and shift.max() < 128  # what _shifted relies on
    words = []
    for positive, k in zip(pos.tolist(), np.where(pos, q, i).tolist()):
        p = 5**k
        # floor(2**(bits + 124) / p) + 1, or p cut or padded to 125 bits
        m = (1 << (p.bit_length() + 124)) // p + 1 if positive else (p << 125) >> p.bit_length()
        words += [m & ((1 << 64) - 1), m >> 64]
    lo, hi = np.array(words, dtype=np.uint64).reshape(-1, 2).T
    # e2 < 0, 2 <= q: vr has trailing zeros iff 2**q divides mv; for
    # q >= 55 no mv < 2**55 passes, so the mask saturates harmlessly.
    qm = np.clip(q, 0, 62)
    two_q = np.where(pos | (q <= 1), _ONES, (_U(1) << qm.astype(np.uint64)) - _U(1))
    # e2 >= 0 with q <= 21 tests divisibility by 5**q; e2 < 0 with q <= 1
    # makes vr exact. Both are rare, and handled on their subset only.
    five_q = np.where(pos & (q <= 21), 5 ** np.minimum(q, 21), 0).astype(np.uint64)
    exact = ~pos & (q <= 1)
    return (np.where(ie > 0, _U(1 << 52), _U(0)), lo, hi,
            lo << _U(1), (hi << _U(1)) | (lo >> _U(63)),
            (shift - 64).astype(np.uint64), (128 - shift).astype(np.uint64),
            e10, two_q, five_q, exact)


_EXPONENTS = _Rows(_exponent_rows, 2047)

# decpt offset of the layout rows; finite floats have -323 <= decpt <= 309
_DECPT = 340


def _layout_rows(at):
    """repr's layout for the distinct decimal point positions decpt =
    ``at`` - _DECPT, for each digit count n.

    Per text word: the bytes left of '.' (``low``), the bytes right of it
    (``high``, of the words shifted one byte up) and '.' itself (``dot``),
    once ``point`` digits precede it: decpt in fixed notation with
    decpt >= 1, else 1 (d.ddd in scientific notation, 0.000ddd once four
    '0' are put in front). The exponent suffix of scientific notation,
    'e+XX' or 'e-XXX', right-aligned in the last word (0 in fixed
    notation). Whether the four '0' go in front (-3 <= decpt <= 0). Per
    n (rows 0 to 17), the bits of the kept text bytes, each run shifted up
    by 8 past the separator word: [0, first) and [start, stop).
    """
    decpt = at - _DECPT
    scientific = (decpt <= -4) | (decpt > 16)
    small = ~scientific & (decpt <= 0)
    point = np.where(scientific | small, 1, decpt)
    k = point - 8 * np.arange(3)[:, None]
    inside = (k >= 0) & (k < 8)
    shift = (8 * np.clip(k, 0, 7)).astype(np.uint64)
    low = np.where(k >= 8, _ONES, np.where(k > 0, (_U(1) << shift) - _U(1), _U(0)))
    dot_byte = np.where(inside, _U(0xFF) << shift, _U(0))
    dot = np.where(inside, _U(0x2E) << shift, _U(0))
    high = ~(low | dot_byte)

    exponent = decpt - 1
    mag = np.abs(exponent)
    length = np.where(scientific, np.where(mag >= 100, 5, 4), 0)
    text = (0x65 | np.where(exponent < 0, 0x2D, 0x2B) << 8
            | np.where(length == 5, (mag // 100 + 48) << 16 | (mag // 10 % 10 + 48) << 24
                       | (mag % 10 + 48) << 32,
                       (mag // 10 + 48) << 16 | (mag % 10 + 48) << 24))
    suffix = np.where(scientific, text.astype(np.uint64)
                      << (8 * (8 - length)).astype(np.uint64), _U(0))

    n = np.arange(18)[:, None]
    first = np.where(scientific, np.where(n > 1, n + 1, 1),
                     np.where(small, 2, np.maximum(n, decpt + 1) + 1))
    start = np.where(scientific, 24 - length, np.where(small, decpt + 5, 0))
    stop = np.where(scientific, 24, np.where(small, n + 5, 0))
    keep = (((1 << first) - 1) | ((1 << stop) - (1 << start))) << 8
    return low, high, dot, suffix, small, keep.astype(np.uint64)


_LAYOUT = _Rows(_layout_rows, 2 * _DECPT + 1)


def _mul(a_lo, a_hi, b):
    """a * b as (low word, high word), a < 2**55 given as 32-bit halves."""
    b_lo = b & _MASK32
    b_hi = b >> _U(32)
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> _U(32)) + (lh & _MASK32) + (hl & _MASK32)
    low = (ll & _MASK32) | (mid << _U(32))
    high = a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    return low, high


def _shifted(w1, w2, lo_shift, hi_shift):
    """floor(W / 2**j) of a 192-bit W whose upper words are w1, w2."""
    return (w1 >> lo_shift) | (w2 << hi_shift)


def _decimal(bits):
    """Ryu's shortest digits of positive finite floats given as their bits.

    Returns (output, exponent) with value = output * 10**exponent.
    """
    ie = (bits >> _U(52)).astype(np.intp)
    (hidden, m_lo, m_hi, m2_lo, m2_hi, shift_lo, shift_hi,
     e10, two_q, five_q, exact) = (t.take(ie) for t in _EXPONENTS.at(ie))
    mantissa = bits & _U((1 << 52) - 1)
    mv = (mantissa | hidden) << _U(2)
    even = (bits & _U(1)) == 0
    mm_shift = ((mantissa != 0) | (ie <= 1)).astype(np.uint64)

    mv_lo = mv & _MASK32
    mv_hi = mv >> _U(32)
    l0, h0 = _mul(mv_lo, mv_hi, m_lo)
    l1, h1 = _mul(mv_lo, mv_hi, m_hi)
    w0 = l0
    w1 = h0 + l1
    w2 = h1 + (w1 < l1)
    vr = _shifted(w1, w2, shift_lo, shift_hi)
    # vp: W + 2M
    s0 = w0 + m2_lo
    t = w1 + m2_hi
    carry = (t < m2_hi).astype(np.uint64)
    s1 = t + (s0 < m2_lo)
    carry += s1 < t
    vp = _shifted(s1, w2 + carry, shift_lo, shift_hi)
    # vm: W - M, or W - 2M for a power of two (its lower gap is half)
    e0 = m_lo << mm_shift
    e1 = (m_hi << mm_shift) | ((m_lo >> _U(63)) & mm_shift)
    t = w1 - e1
    borrow = (w1 < e1).astype(np.uint64)
    s1 = t - (w0 < e0)
    borrow += s1 > t
    vm = _shifted(s1, w2 - borrow, shift_lo, shift_hi)

    vr_zeros = (mv & two_q) == 0
    vm_zeros = np.zeros(bits.size, dtype=bool)
    if exact.any():  # e2 < 0, q <= 1: vr is exact
        vr_zeros |= exact
        vm_zeros |= exact & even & (mm_shift == 1)
        vp -= (exact & ~even).astype(np.uint64)
    big = np.flatnonzero(five_q)
    if big.size:  # e2 >= 0, q <= 21: divisibility of the bounds by 5**q
        p5 = five_q[big]
        mvb = mv[big]
        mod5 = mvb % _U(5) == 0
        vr_zeros[big] = mod5 & (mvb % p5 == 0)
        evb = even[big]
        vm_zeros[big] = ~mod5 & evb & ((mvb - _U(1) - mm_shift[big]) % p5 == 0)
        vp[big] -= (~mod5 & ~evb & ((mvb + _U(2)) % p5 == 0)).astype(np.uint64)

    removed = _removed_digits(vp, vm)
    div = _POW10.take(removed)
    out = vr // div
    below = vr - out * div  # the removed digits of vr
    # round up if vr // 10**r is below the interval or the removed digits
    # are at least half of 10**r, except an exact half of an even out
    half = _HALF.take(removed)
    tie = vr_zeros & (below == half) & ((out & _U(1)) == 0)
    round_up = (vm >= vr - below) | ((below >= half) & ~tie)
    special = np.flatnonzero(vm_zeros)
    if special.size:
        out[special], removed[special], round_up[special] = _exact_lanes(
            out[special], below[special], removed[special], vm[special],
            vr_zeros[special], even[special])
    return out + round_up, e10 + removed


def _removed_digits(vp, vm):
    """How many digits Ryu removes: the largest r with vp // 10**r > vm // 10**r.

    Once vp // 10**k == vm // 10**k it stays so for larger k, so the count
    is a sum of tests: 10, 100 and 1000 on every lane, each larger power on
    the lanes that passed every test so far (10**(k+1) first, then 10**k
    on the lanes that fail it).
    """
    removed = np.zeros(vp.size, dtype=np.intp)
    for k in (1, 2, 3):
        removed += vp // _POW10[k] > vm // _POW10[k]
    deep = np.flatnonzero(removed == 3)
    vp, vm = vp[deep], vm[deep]
    for k in range(4, 20, 2):  # two powers a step, as Ryu removes two digits
        go = vp // _POW10[k + 1] > vm // _POW10[k + 1]
        stop = ~go
        removed[deep[stop]] += vp[stop] // _POW10[k] > vm[stop] // _POW10[k]
        deep, vp, vm = deep[go], vp[go], vm[go]
        if not deep.size:
            break
        removed[deep] += 2
    return removed


def _exact_lanes(out, below, r, vm, vr_zeros, even):
    """Ryu's general case, for lanes whose lower bound may be exact.

    vr stays exact below its last removed digit only if the digits under
    that one were all 0, vm only if all its removed digits were; while vm
    stays exact and still ends in 0, one more digit goes. An exact tie
    (last digit 5, nothing below it) rounds to even. Returns out, r and
    whether to round up.
    """
    div = _POW10.take(r)
    lower = _LOWER.take(r)
    d = below // lower  # the last removed digit (0 if none)
    vr_zeros &= below - d * lower == 0
    m = vm // div
    vm_zeros = vm - m * div == 0
    go = vm_zeros & (m % _U(10) == 0)
    while go.any():
        vr_zeros &= ~go | (d == 0)
        q = out // _U(10)
        d = np.where(go, out - q * _U(10), d)
        out = np.where(go, q, out)
        m = np.where(go, m // _U(10), m)
        r = r + go
        go &= m % _U(10) == 0
    d[vr_zeros & (d == 5) & (out % _U(2) == 0)] = 4
    return out, r, ((out == m) & ~(even & vm_zeros)) | (d >= 5)


def _digit_count(x):
    """Decimal digits of each 0 < x < 10**17: from the bit length, which the
    float conversion gives (rounding up to a power of two, never past a
    power of ten), an estimate that is exact or one too many."""
    bit_length = (x.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.intp) - 1022
    n = ((bit_length * 1233) >> 12) + 1
    return n - (x < _POW10.take(n - 1))


def _swar8(x):
    """The eight decimal digits of each x < 10**8 as ASCII, first digit in
    the lowest byte: split into 4-digit halves, 2-digit quarters, digits."""
    high = x // _U(10000)
    w = high | ((x - high * _U(10000)) << _U(32))
    t = ((w * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    w = t | ((w - t * _U(100)) << _U(16))
    t = ((w * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return t | ((w - t * _U(10)) << _U(8)) | _U(_ZEROS8)


def _block(values, sep_word, sep_bits):
    """The text of one block: four words and a keep-mask per value.

    Word 0 holds the separator before the value (its bytes in
    ``sep_bits``) and the sign in its top byte; words 1-3 hold the repr
    text, whose kept bytes are one or two runs.
    """
    bits = values.view(np.uint64)
    negative = bits >> _U(63)
    bits = bits & _U(0x7FFFFFFFFFFFFFFF)
    zero = bits == 0
    # a zero is laid out as 1.0 with the digit 0
    output, exponent = _decimal(np.where(zero, _U(0x3FF0000000000000), bits))
    n = _digit_count(output)
    decpt = exponent + n
    # the 17 significant digits, zero-padded: d1, then two SWAR words
    digits = output * _POW10.take(17 - n)
    digits[zero] = 0
    d1 = digits // _POW10[16]
    rest = digits - d1 * _POW10[16]
    upper = rest // _POW10[8]
    a = _swar8(upper)
    b = _swar8(rest - upper * _POW10[8])
    f0 = (d1 | _U(0x30)) | (a << _U(8))
    f1 = (a >> _U(56)) | (b << _U(8))
    f2 = b >> _U(56)
    at = decpt + _DECPT
    low, high, dot, suffix, small, keep = _LAYOUT.at(at)
    # 0.000ddd: for -3 <= decpt <= 0, four '0' in front, then '.' after one
    small = small.take(at)
    f2 = np.where(small, (f1 >> _U(32)) | (f2 << _U(32)), f2)
    f1 = np.where(small, (f0 >> _U(32)) | (f1 << _U(32)), f1)
    f0 = np.where(small, (f0 << _U(32)) | _U(0x30303030), f0)
    # '.' shifted in: the bytes after it come from the words one byte up
    g0 = f0 << _U(8)
    g1 = (f1 << _U(8)) | (f0 >> _U(56))
    g2 = (f2 << _U(8)) | (f1 >> _U(56))
    slots = np.empty((values.size, 4), dtype="<u8")
    slots[:, 0] = sep_word | (negative * _U(0x2D << 56))
    for w, (f, g) in enumerate(((f0, g0), (f1, g1), (f2, g2))):
        slots[:, w + 1] = (f & low[w].take(at)) | (g & high[w].take(at)) | dot[w].take(at)
    slots[:, 3] |= suffix.take(at)
    keep = keep.take(n * keep.shape[1] + at) | sep_bits | (negative << _U(7))
    mask = np.unpackbits(keep.astype("<u4").view(np.uint8), bitorder="little")
    return slots, mask


@functools.lru_cache(maxsize=8)
def _separators(seps: tuple) -> tuple:
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
    words, bits = _separators(tuple(seps))
    width, total = len(columns), columns[0].size
    count = -(-total // max(BLOCK // width, 1))
    if not count:
        return
    # the separator before each cell of the longest block: the one after the
    # cell left of it, or for a row's first cell the one after the row above
    longest = -(-total // count)
    sep_words, sep_bits = (np.tile(np.roll(a, 1), longest) for a in (words, bits))
    lo = 0
    for k in range(1, count + 1):
        hi = total * k // count
        cells = (columns[0][lo:hi] if width == 1
                 else np.column_stack([c[lo:hi] for c in columns]).ravel())
        slots, mask = _block(cells, sep_words[:cells.size], sep_bits[:cells.size])
        if lo == 0:
            mask[:7] = 0  # no separator before the table's first cell
        yield slots.view(np.uint8).ravel()[mask.view(bool)].tobytes()
        lo = hi
