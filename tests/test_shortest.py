"""The vectorised shortest-digit kernel against Python's repr, byte for byte.

``shortest.rows`` over one column of values with separator ``sep`` must
join to ``sep.join(map(repr, values.tolist()))``: on hypothesis-drawn
floats, on fixed edge sets (zeros, subnormals, the extremes, every power
of two with both neighbours, the bounds of repr's fixed notation, integers
near 2**53, short decimals at every exponent), on a million random bit
patterns, and across block boundaries and separators. Tables of several
columns are cut into equal blocks of at most ``BLOCK`` cells, whose seams
carry the row separator. The per-exponent table follows the scalar
formula row by row, and every table is read-only.
"""

import decimal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvpseries import shortest


def _join(values, sep):
    """The text of ``shortest.rows`` over ``values`` as one column, or, for
    a tuple of separators, as rows of that many columns."""
    seps = (sep,) if isinstance(sep, str) else tuple(sep)
    values = np.asarray(values, dtype=np.float64)
    columns = values.reshape(-1, len(seps)).T if values.ndim == 1 else [values]
    return b"".join(shortest.rows(columns, seps))


def _expected(values, sep):
    return sep.join(map(repr, values.tolist())).encode()


def _assert_matches(values, sep=", "):
    values = np.asarray(values, dtype=np.float64)
    got = _join(values, sep)
    if got != _expected(values, sep):
        bad = [(repr(v), _join(np.array([v]), sep))
               for v in values.tolist()
               if _join(np.array([v]), sep) != repr(v).encode()]
        pytest.fail(f"{len(bad)} values differ from repr, first: {bad[:5]}")


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_property_matches_repr(values):
    _assert_matches(np.array(values, dtype=np.float64))


def test_zeros_extremes_and_notation_bounds():
    tiny = 5e-324
    big = np.finfo(np.float64).max
    values = [0.0, -0.0, tiny, -tiny, big, -big, np.finfo(np.float64).tiny]
    values += list(_neighbours([1e-5, 1e-4, 1e15, 1e16, 1e17]))
    _assert_matches(np.concatenate([values, -np.array(values)]))


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    finite = _neighbours(powers)
    finite = finite[np.isfinite(finite) & (finite > 0)]
    _assert_matches(np.concatenate([finite, -finite]))



def _column(kind, rng, size=65537):
    """A column of ``size`` values, several blocks long, of one kind the
    kernel takes from repr: zeros, powers of two, subnormals, or all of
    them among ordinary floats."""
    if kind in (0.0, -0.0, 1.0):
        return np.full(size, kind)
    powers = np.ldexp(1.0, rng.integers(-60, 60, size))
    subnormals = rng.integers(1, 2**52, size, dtype=np.uint64).view(np.float64)
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    if kind == "powers of two":
        return signs * powers
    if kind == "subnormals":
        return signs * subnormals
    column = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)
    rare = rng.random(size) < 0.3
    picks = np.stack([np.zeros(size), -np.zeros(size), powers, subnormals])
    column[rare] = (signs * picks[rng.integers(0, 4, size), np.arange(size)])[rare]
    return column


@pytest.mark.parametrize("kind", [0.0, -0.0, 1.0, "powers of two", "subnormals", "mixed"])
def test_whole_columns_of_zeros_powers_of_two_and_subnormals(kind):
    values = _column(kind, np.random.default_rng(31))
    assert values.size > 4 * shortest.BLOCK
    _assert_matches(values, ",\n    ")

def test_integers_near_two_to_the_53():
    base = np.arange(-2000, 2001, dtype=np.int64) + 2**53
    _assert_matches(np.concatenate([base.astype(np.float64),
                                    np.arange(0, 2**60, 2**60 // 4099, dtype=np.int64)]))


def test_short_decimals_at_every_exponent():
    rng = np.random.default_rng(17)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, size=24)
        for exponent in range(-340, 310, 7):
            values += [float(f"{m}e{exponent - digits}") for m in mantissas[:3].tolist()]
        values += [float(f"{m}e{e}") for m in mantissas.tolist() for e in (-21, -5, -4, 0, 15, 16)]
    _assert_matches(np.array(values))


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(2014).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    start = time.perf_counter()
    got = _join(values, ",")
    elapsed = time.perf_counter() - start
    assert got == _expected(values, ",")
    assert elapsed < 3.0


@pytest.mark.parametrize("sep", [",", ",\n    "])
@pytest.mark.parametrize("size", [0, 1, 8191, 8192, 8193,
                                  shortest.BLOCK - 1, shortest.BLOCK, shortest.BLOCK + 1])
def test_separators_and_block_boundaries(sep, size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)
    values[::7] = -values[::7]
    _assert_matches(values, sep)


def test_separators_used_in_turn():
    values = np.random.default_rng(3).random(3 * shortest.BLOCK + 6)
    rows = values.reshape(-1, 3).tolist()
    expected = "\n".join(",".join(map(repr, row)) for row in rows).encode()
    assert _join(values, (",", ",", "\n")) == expected


# separators of every length the kernel takes, a NUL among them
_SEPARATORS = ["", "\x00", ", ", " | ", ";\t\r\n", ",\n   ", ",\n    ", "\x00,\n;\t |"]


@pytest.mark.parametrize("sep", _SEPARATORS)
def test_separators_of_every_length(sep):
    # one column and three across a block seam, with the separator after
    # the first column and after each row
    assert len(sep) == _SEPARATORS.index(sep)
    rng = np.random.default_rng(len(sep))
    size = shortest.BLOCK + 5
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)
    values[::3] = -values[::3]
    _assert_matches(values, sep)
    seps = (sep, _SEPARATORS[7 - len(sep)], sep)
    table = values[:3 * (shortest.BLOCK // 3 + 7)].reshape(-1, 3)
    expected = seps[2].join(repr(a) + seps[0] + repr(b) + seps[1] + repr(c)
                            for a, b, c in table.tolist())
    assert _join(table.ravel(), seps) == expected.encode()


def _layout(value):
    """(significant digits, decpt) of repr(value)."""
    digits = decimal.Decimal(repr(abs(value))).normalize().as_tuple()
    return len(digits.digits), digits.exponent + len(digits.digits)


def _with_layout(count, decpt, rng):
    """A float whose repr has ``count`` significant digits and decimal point
    position ``decpt``."""
    for _ in range(400):
        digits = str(rng.integers(10 ** (count - 1), 10**count))
        digits = digits[:-1] + str(rng.integers(1, 10)) if count > 1 else digits
        value = float(f"0.{digits}e{decpt}")
        if value and np.isfinite(value) and _layout(value) == (count, decpt):
            return value
    raise AssertionError(f"no float with {count} digits at decpt {decpt}")


def test_every_layout_class():
    # each digit count at each decimal point position around repr's fixed
    # notation, both signs, and the widths of the exponent: e-99 to e-100,
    # e+99 to e+100, and the extremes
    rng = np.random.default_rng(24)
    classes = [(n, p) for n in range(1, 18) for p in range(-6, 20)]
    classes += [(n, p) for n in (1, 2, 16, 17) for p in (-99, -100, 100, 101, -307, 309)]
    classes.append((1, -323))
    values = np.array([_with_layout(n, p, rng) for n, p in classes])
    assert {_layout(v) for v in values.tolist()} == set(classes)
    _assert_matches(np.concatenate([values, -values]), ",")


@pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf], [[1.0]]])
def test_rejects_what_it_cannot_render(values):
    with pytest.raises(ValueError):
        _join(np.array(values), ",")


@pytest.mark.parametrize("seps", [["1234567 "], [",", "12345678"]])
def test_rejects_a_separator_of_eight_characters(seps):
    with pytest.raises(ValueError, match="each separator must have 0 to 7 characters"):
        next(shortest.rows([np.zeros(2)] * len(seps), seps))


@pytest.mark.parametrize("size", [0, 1, 3, shortest.BLOCK, shortest.BLOCK + 1,
                                  4 * shortest.BLOCK + 1])
@pytest.mark.parametrize("width", [1, 3, 7])
def test_rows_are_cut_into_equal_blocks_of_at_most_block_cells(width, size):
    # a JSON column is one wide, fundamental's CSV table seven: 65,537 rows
    # are 5 blocks of 13,107 or 13,108 rows, not 4 full blocks and a block
    # of one row, and seven columns are blocks of at most 2,340 rows
    rng = np.random.default_rng(width * size)
    values = rng.standard_normal((size, width)) * 10.0 ** rng.integers(-8, 20, (size, width))
    values[::5] = -values[::5]
    seps = (",",) * (width - 1) + ("\n",)
    blocks = list(shortest.rows(values.T, seps))
    # every block but the first begins with the newline after the row above
    assert all(block.startswith(b"\n") for block in blocks[1:])
    lengths = [block.count(b"\n") + (k == 0) for k, block in enumerate(blocks)]
    assert len(blocks) == -(-size // (shortest.BLOCK // width))
    assert sum(lengths) == size
    assert max(lengths, default=0) * width <= shortest.BLOCK
    assert max(lengths, default=0) - min(lengths, default=0) <= 1
    assert b"".join(blocks) == "\n".join(",".join(map(repr, row))
                                        for row in values.tolist()).encode()


def _power_of_ten(k):
    """Dragonbox's 128-bit multiplier for 10**k: 10**k * 2**(127 - floor(log2
    10**k)), rounded up, between 2**127 and 2**128; the reference for
    shortest._multipliers, by one division by 10**-k for k < 0."""
    shift = 127 - shortest._floor_log2_pow10(k)
    if k < 0:
        return -(-(1 << shift) // 10**-k)
    return 10**k << shift if shift >= 0 else -(-(10**k) >> -shift)


@pytest.mark.parametrize("k_min, k_max", [(-290, 326), (-1, 0), (-3, 40), (-400, 1)])
def test_multipliers_match_the_division_by_a_power_of_ten(k_min, k_max):
    expected = [_power_of_ten(k) for k in range(k_min, k_max + 1)]
    assert shortest._multipliers(k_min, k_max) == expected
    assert all(c.bit_length() == 128 for c in expected)


def test_exponent_rows_follow_the_scalar_formula():
    # per biased exponent field: Dragonbox's 128-bit multiplier c for 10**k
    # as two words, beta, delta = c >> (127 - beta), and the decimal point
    word = (1 << 64) - 1
    for ie in range(2047):
        e = max(ie, 1) - 1075
        e10 = (e * 315653) >> 20
        k = 2 - e10
        c = _power_of_ten(k)
        beta = e + shortest._floor_log2_pow10(k)
        assert 6 <= beta <= 9, ie
        expected = (c >> 64, c & word, beta, c >> (127 - beta), e10 + 17 + shortest._DECPT)
        assert tuple(int(t[ie]) for t in shortest._EXPONENTS) == expected, ie


def test_tables_are_read_only():
    tables = (*shortest._EXPONENTS, *shortest._LAYOUT, shortest._POW10)
    assert [t.shape[-1] for t in tables] == [2047] * 5 + [2 * shortest._DECPT + 1] * 5 + [20]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
