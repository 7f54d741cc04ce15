"""The vectorised ``repr`` of ``levyap._floatfmt`` against ``repr`` itself.

Every test formats an array of doubles and compares the text, byte for
byte, with ``repr`` of each value: on hypothesis-drawn floats and bit
patterns, on the families where a shortest-digits algorithm or the
layout rules have edges (powers of two and their neighbours, powers of
ten one ulp off, every small subnormal, integers around 2**53, the
switches between fixed and exponent notation, signed zeros), and on a
seeded sweep of random bit patterns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from levyap._floatfmt import (
    _CHUNK,
    _DECPT_OFF,
    _DECPT_SIZE,
    _DIGITS_AT,
    _EXP_AT,
    ReprFormatter,
    _flog2_pow10,
    _flog10_pow2,
    _flog10_three_quarters_pow2,
    _layout_tables,
    _place,
)


def fields_of(x, end, fmt=None):
    """The formatter's fields of the values, each ended by ``end``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((len(x), 4), dtype="<u8")
    (fmt or ReprFormatter())(x, out, end)
    return out


def formatted_text(x):
    """The formatter's text of the values, each ended by a newline."""
    fields = fields_of(x, b"\n")
    assert np.all(fields[:, 3] >> np.uint64(48) == ord("\n") << 8)
    flat = fields.view(np.uint8).reshape(-1)
    return flat[flat != 0].tobytes().decode("ascii")


def formatted(x):
    return formatted_text(x).split("\n")[:-1]


def assert_reprs(x):
    x = np.asarray(x, dtype=np.float64)
    want = "".join(f"{v!r}\n" for v in x.tolist())
    got = formatted_text(x)
    if got != want:
        pairs = zip(want.split("\n"), got.split("\n"))
        bad = [(w, g) for w, g in pairs if w != g]
        raise AssertionError(f"{len(bad)} of {len(x)} differ, e.g. {bad[:5]}")


def finite_from_bits(bits):
    x = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return x[np.isfinite(x)]


def test_exponent_formulas_match_python_ints():
    """The fixed-point floor(log10(2**q)), floor(log10(3/4 2**q)) and
    floor(log2(10**e)) over every exponent a double needs, and beyond."""

    def floor_log10(num, den):
        k = len(str(num)) - len(str(den))
        return k if (10**k * den <= num if k >= 0 else den <= num * 10**-k) else k - 1

    for q in range(-1100, 1100):
        num, den = (1 << q, 1) if q >= 0 else (1, 1 << -q)
        assert _flog10_pow2(q) == floor_log10(num, den)
        assert _flog10_three_quarters_pow2(q) == floor_log10(3 * num, 4 * den)
    for e in range(-400, 400):
        exact = (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())
        assert _flog2_pow10(e) == exact


def layout_tables_by_loop():
    """``_layout_tables`` built one decpt at a time, each byte string
    placed where the layout puts it: the reference for the array build."""
    table = np.zeros((12, _DECPT_SIZE), dtype=np.uint64)
    for decpt in range(-_DECPT_OFF, _DECPT_SIZE - _DECPT_OFF):
        col = table[:, decpt + _DECPT_OFF]
        lead = b""
        if -4 < decpt <= 0:  # 0.000ddd
            lead = b"0." + b"0" * -decpt
            col[0:3] = _place(b"\xff" * 17)[:3]
            col[6:10] = _place(lead, _DIGITS_AT - len(lead))
        elif 0 < decpt <= 16:  # ddd.ddd, a digit after the point at least
            col[0:3] = _place(b"\xff" * decpt)[:3]
            col[3:6] = _place(b"\x80" * (decpt + 1))[:3]
            col[6:10] = _place(b".", _DIGITS_AT + decpt)
        else:  # d.ddde±XX
            col[0:3] = _place(b"\xff")[:3]
            exp = b"%03d" % abs(decpt - 1)
            sign = b"-" if decpt < 1 else b"+"
            col[6:10] = _place(b"e" + sign + (b"\0" + exp[1:] if exp[0] == ord("0") else exp), _EXP_AT)
            col[10] = ord(".")
        col[11] = _place(b"-", _DIGITS_AT - 1 - len(lead))[0]
    return table


def test_layout_tables_match_the_loop():
    """The layout tables, built with array operations over every decpt,
    equal the per-decpt loop word for word."""
    table = _layout_tables()
    assert table.dtype == np.uint64 and table.shape == (12, _DECPT_SIZE)
    assert np.array_equal(table, layout_tables_by_loop())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_random_floats(values):
    assert_reprs(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(bits):
    x = finite_from_bits(bits)
    if len(x):
        assert_reprs(x)


def test_powers_of_two_and_their_neighbours():
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    family = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    family = family[np.isfinite(family)]
    assert_reprs(np.concatenate([family, -family]))


def test_powers_of_ten_one_ulp_off():
    t = 10.0 ** np.arange(-323, 309)
    family = np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, np.inf)])
    assert_reprs(np.concatenate([family, -family]))


def test_every_subnormal_below_2_to_16():
    """Covers 5e-324 and 1e-323 (below Schubfach's range, taken from a
    table) and 8e-323, which comes out as 7.9e-323 when the candidate one
    digit shorter is tried only from three digits on, as Java does."""
    x = np.arange(1, 1 << 16, dtype=np.uint64).view(np.float64)
    text = formatted(x)
    assert text[:3] == ["5e-324", "1e-323", "1.5e-323"]
    assert text[15] == "8e-323"
    assert_reprs(np.concatenate([x, -x]))


def test_integers_around_2_to_53():
    k = np.arange(-2000, 2000, dtype=np.int64)
    ints = np.concatenate([(2**53 + k).astype(np.float64), (2**54 + 2 * k).astype(np.float64)])
    small = np.arange(-100_000, 100_000, dtype=np.float64)
    assert_reprs(np.concatenate([ints, small, 10.0 ** np.arange(23)]))


def test_fixed_and_exponent_notation_edges():
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 0.5e-4, 9.999e15])
    family = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    text = formatted([1e-4, 1e-5, 1e15, 1e16])
    assert text == ["0.0001", "1e-05", "1000000000000000.0", "1e+16"]
    assert_reprs(np.concatenate([family, -family]))


def test_signed_zeros_and_extremes():
    x = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert formatted(x) == list(map(repr, x))
    assert formatted(x)[:3] == ["0.0", "-0.0", "5e-324"]
    assert fields_of([1.5], b"\0").tobytes().replace(b"\0", b"") == b"1.5"


def test_chunks_and_strided_output():
    """A vector goes through in chunks of ``_CHUNK`` values, the zeros'
    fix-ups on both sides of each chunk edge; ``out`` may be a strided
    view, as the CSV writer passes one, and the end byte is byte 31."""
    gen = np.random.default_rng(7)
    n = 2 * _CHUNK + 5000
    x = gen.normal(size=n) * 10.0 ** gen.integers(-30, 30, size=n)
    x[::7] = 0.0
    x[::11] = -0.0
    for edge in (_CHUNK, 2 * _CHUNK):
        x[edge - 2 : edge + 2] = [0.0, -0.0, -0.0, 0.0]
    fmt = ReprFormatter()
    rows = np.zeros((n, 6), dtype="<u8")
    fmt(x, out=rows[:, 1:5], end=b";")
    assert not rows[:, [0, 5]].any()
    assert np.all(rows[:, 4] >> np.uint64(56) == ord(";"))
    text = rows.view(np.uint8).reshape(-1)
    assert text[text != 0].tobytes().decode() == "".join(f"{v!r};" for v in x.tolist())
    plain = fields_of(x, b"\0", fmt)
    assert not (plain[:, 3] >> np.uint64(56)).any()
    assert np.array_equal(rows[:, 1:4], plain[:, :3])


def test_seeded_sweep_of_random_bit_patterns():
    """Half a million doubles with uniformly random bits.  Their exponents
    are mostly far from zero, where ``repr`` itself is slowest, so the
    oracle takes most of the test's time."""
    gen = np.random.default_rng(2024)
    assert_reprs(finite_from_bits(gen.integers(0, 2**64, size=500_000, dtype=np.uint64)))
