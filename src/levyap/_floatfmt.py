"""``repr(float)`` for float64 vectors, with no Python code per value.

A ``ReprFormatter`` formats each finite double as CPython's ``repr`` does:
the shortest string that reads back to the same double (the closer one
to it when two are that short, the even one on a tie); fixed notation
when the decimal point's position decpt (value = 0.d1d2... * 10**decpt)
has -4 < decpt <= 16, else ``d[.ddd]e±XX`` with at least two exponent
digits; ``.0`` on integral values; ``-0.0``.  It writes one 32-byte
field per value, and removing the NUL bytes of a field leaves exactly
the repr's ASCII characters.  The NULs sit where a field's layout has
room the value does not use, mostly after the text, so fields laid out
in a byte matrix are compacted with one mask.  Byte layout of a field::

    0-6     "0." and the zeros after it when -4 < decpt <= 0, ending at
            byte 6, and a '-' before them (or before the digits); NUL
            elsewhere
    7-24    the digits, those after a decimal point from byte 8 on, the
            point between them; trailing zeros NUL
    25-29   "e±XXX" in exponent notation (NUL for a two-digit exponent's
            first digit), else NUL
    30      NUL
    31      the caller's separator, or NUL

The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), the algorithm of Java's ``Double.toString``, run
on ``np.uint64`` arrays: a 126-bit power of ten per decimal exponent
(a table built once with Python ints), 64x64->128-bit products on 32-bit
limbs, and round-to-odd estimates of the value and of both ends of its
rounding interval.  Java prints at least two digits and so keeps, say,
``4.9e-324``; repr does not, so the candidate one digit shorter is tried
at every length, and the two smallest subnormals, below the algorithm's
range, get their digits from a table (``5e-324``, ``1e-323``).

Every integer step stays in ``np.uint64`` (mixing it with ``int64``
promotes to float64) and writes into work arrays allocated once per
formatter: fresh numpy temporaries for each of its ~250 steps would cost
more than the steps themselves.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["ReprFormatter"]

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U((1 << 63) - 1)
_FRAC_MASK = _U((1 << 52) - 1)
_BYTES_7F = _U(0x7F7F_7F7F_7F7F_7F7F)
_BYTES_80 = _U(0x8080_8080_8080_8080)
_BYTES_01 = _U(0x0101_0101_0101_0101)

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the 126-bit table
_DECPT_OFF = 324  # a double's decpt lies in [-323, 309]
_DECPT_SIZE = 634
_FIELD_WORDS = 4
# values formatted at a time: the work arrays take 212 bytes a value, 1.7
# MB, small enough for a core's cache and large enough to spread numpy's
# cost per call.  The ensemble.csv writer's blocks hold at most this many
# rows (one grid point at least)
_CHUNK = 8192
_DIGITS_AT = 7
_EXP_AT = 25


# floor(log10(2**q)), floor(log10(3/4 2**q)) and floor(log2(10**e)) by
# fixed-point multiplication (Giulietti's MathUtils); exact far beyond
# the exponents of a double, as the tests check against Python ints
def _flog10_pow2(q):
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2_pow10(e):
    return (e * 913_124_641_741) >> 38


@functools.cache
def _digit_tables():
    """Rows indexed by a double's biased exponent bq, plus 2048 when its
    significand is a power of two (whose lower neighbour is closer): the
    hidden bit; sl and 64 - sl, sr and 64 - sr, where 2**sl and 2**sr are
    the distances from 4c 2**h to the ends of the rounding interval (the
    left one halved beside a power of two); h; g1 and g0; the 32-bit limbs
    of g1 and g0.  Also k + 324 per index.

    In Schubfach's notation k = floor(log10(2**q)) (of 3/4 2**q beside a
    power of two), h = q + floor(log2(10**-k)) + 2 and
    g = floor(10**-k 2**(125 - floor(log2(10**-k)))) + 1 = g1 2**63 + g0,
    built with Python ints for each of the 617 k."""
    g1_by_k, g0_by_k = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2_pow10(-k) - 125
        if k <= 0:
            g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        g1_by_k.append(g >> 63)
        g0_by_k.append(g & ((1 << 63) - 1))
    bq = np.tile(np.arange(2048), 2)
    irregular = (np.arange(4096) >= 2048) & (bq > 1)
    q = np.maximum(bq, 1) - 1075
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10_pow2(q))
    h = q + _flog2_pow10(-k) + 2
    g1 = np.array(g1_by_k, dtype=np.uint64)[k - _K_MIN]
    g0 = np.array(g0_by_k, dtype=np.uint64)[k - _K_MIN]
    sl = h + 1 - irregular
    rows = (
        (bq > 0).astype(np.uint64) << _U(52),
        sl.astype(np.uint64),
        (64 - sl).astype(np.uint64),
        (h + 1).astype(np.uint64),
        (63 - h).astype(np.uint64),
        h.astype(np.uint64),
        g1,
        g0,
        g1 >> _U(32),
        g1 & _M32,
        g0 >> _U(32),
        g0 & _M32,
    )
    table = np.stack(rows)
    kp = (k + _DECPT_OFF).astype(np.intp)
    table.flags.writeable = kp.flags.writeable = False
    return table, kp


def _place(byte_values: bytes, at: int = 0) -> np.ndarray:
    """The four words of a field holding ``byte_values`` from byte ``at``."""
    field = bytearray(8 * _FIELD_WORDS)
    field[at : at + len(byte_values)] = byte_values
    return np.frombuffer(bytes(field), dtype="<u8").astype(np.uint64)


@functools.cache
def _layout_tables():
    """Rows indexed by decpt + 324.  Over the 17 digit bytes (three
    words): rows 0-2 mask the digits before the decimal point, rows 3-5
    mark (0x80) the digits fixed notation prints even as trailing zeros.
    Over a field: rows 6-9 hold the constant bytes ("0." and its zeros,
    the point of fixed notation, the exponent), row 10 the point of
    exponent notation, written only when a second digit follows, and row
    11 the minus sign, written only for a negative value.  Rows 0-9 are
    built as bytes and viewed as words."""
    decpt = np.arange(-_DECPT_OFF, _DECPT_SIZE - _DECPT_OFF)
    small = (-4 < decpt) & (decpt <= 0)  # 0.000ddd
    fixed = (0 < decpt) & (decpt <= 16)  # ddd.ddd, a digit after the point at least
    sci = ~(small | fixed)  # d.ddde±XX
    lead = np.where(small, 2 - decpt, 0)  # "0." and its zeros, ending at byte 6
    rows = np.zeros((_DECPT_SIZE, 10, 8), dtype=np.uint8)  # rows 0-9 as bytes
    digits = rows[:, :3].reshape(_DECPT_SIZE, 24)
    shown = rows[:, 3:6].reshape(_DECPT_SIZE, 24)
    field = rows[:, 6:].reshape(_DECPT_SIZE, 8 * _FIELD_WORDS)
    at = np.arange(8 * _FIELD_WORDS)
    digits[at[:24] < np.where(small, 17, np.where(fixed, decpt, 1))[:, None]] = 0xFF
    shown[fixed[:, None] & (at[:24] <= decpt[:, None])] = 0x80
    field[small[:, None] & (_DIGITS_AT - lead[:, None] <= at) & (at < _DIGITS_AT)] = ord("0")
    field[small, _DIGITS_AT + 1 - lead[small]] = ord(".")
    field[fixed, _DIGITS_AT + decpt[fixed]] = ord(".")
    exp = np.abs(decpt[sci] - 1)
    field[sci, _EXP_AT] = ord("e")
    field[sci, _EXP_AT + 1] = np.where(decpt[sci] < 1, ord("-"), ord("+"))
    field[sci, _EXP_AT + 2] = np.where(exp < 100, 0, ord("0") + exp // 100)  # NUL if two digits
    field[sci, _EXP_AT + 3] = ord("0") + exp // 10 % 10
    field[sci, _EXP_AT + 4] = ord("0") + exp % 10
    table = np.empty((12, _DECPT_SIZE), dtype=np.uint64)
    table[:10] = rows.view("<u8")[..., 0].T
    table[10] = np.where(sci, ord("."), 0)
    table[11] = np.left_shift(_U(ord("-")), (8 * (_DIGITS_AT - 1 - lead)).astype(np.uint64))
    table.flags.writeable = False
    return table


class ReprFormatter:
    """Formats float64 vectors into repr fields (see the module docstring),
    ``_CHUNK`` values at a time."""

    def __init__(self):
        self._digits, self._kp = _digit_tables()
        self._layout = _layout_tables()
        self._u = np.empty((24, _CHUNK), dtype=np.uint64)
        self._b = np.empty((4, _CHUNK), dtype=bool)
        self._i = np.empty((2, _CHUNK), dtype=np.intp)

    def __call__(self, x: np.ndarray, out: np.ndarray, end: bytes):
        """Write the fields of the float64 vector ``x`` (all finite) into
        ``out``, an array of shape (len(x), 4) and dtype ``'<u8'``,
        whatever its strides.  Without its NUL bytes, a value's field is
        its ``repr`` followed by the byte ``end`` (byte 31)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        end_word = _U(ord(end)) << _U(56)
        for lo in range(0, len(x), _CHUNK):
            bits = x[lo : lo + _CHUNK].view(np.uint64)
            sub = self._shortest(bits)
            self._lay_out(bits, sub, out[lo : lo + _CHUNK], end_word)

    def _shortest(self, bits):
        """Leave in row 18 the shortest digits of each double, scaled to 17
        digits, and in ``self._i[1]`` its decpt + 324; return the indices of
        the subnormals and zeros."""
        n = len(bits)
        u = self._u[:, :n]
        b0, b1, b2, b3 = self._b[:, :n]
        idx, decpt = self._i[:, :n]
        c, hid, sl, slc, sr, src, h, g1, g0, g1h, g1l, g0h, g0l, cp, odd = u[:15]
        vb, vbl, vbr, x0, x1, y0, y1, t0, t1 = u[15:]
        s, sp = x0, x1

        # the interval of decimals that round to c 2**q, scaled by 10**-k:
        # vbl <= 4 d <= vbr takes d 10**k into it, vb is the value itself
        np.right_shift(bits.view(np.int64), 52, out=idx)
        idx &= 0x7FF
        np.bitwise_and(bits, _FRAC_MASK, out=c)
        np.equal(c, _U(0), out=b0)
        decpt[...] = b0
        decpt <<= 11
        idx |= decpt
        for row, dst in zip(self._digits, (hid, sl, slc, sr, src, h, g1, g0, g1h, g1l, g0h, g0l)):
            row.take(idx, out=dst, mode="clip")
        self._kp.take(idx, out=decpt, mode="clip")
        c |= hid
        np.bitwise_and(c, _U(1), out=odd)  # an odd c excludes the ends
        c <<= _U(2)
        np.left_shift(c, h, out=cp)
        # the products g0 cp = x1 2**64 + x0 and g1 cp = y1 2**64 + y0
        cp_hi, cp_lo = c, hid
        np.right_shift(cp, _U(32), out=cp_hi)
        np.bitwise_and(cp, _M32, out=cp_lo)
        _mulhi(g0h, g0l, cp_hi, cp_lo, x1, h, t0)
        _mulhi(g1h, g1l, cp_hi, cp_lo, y1, h, t0)
        np.multiply(g0, cp, out=x0)
        np.multiply(g1, cp, out=y0)
        _round_to_odd(x1, y0, y1, vb, t0, t1)
        # the ends' products differ from those by g shifted: the left end is
        # cp - 2**sl, the right one cp + 2**sr (and 64 - s shifts give the
        # high words)
        lo, hi0, hi1 = c, hid, h
        np.left_shift(g0, sl, out=lo)
        np.less(x0, lo, out=b0)
        np.right_shift(g0, slc, out=hi0)
        np.subtract(x1, hi0, out=hi0)
        np.subtract(hi0, b0, out=hi0)
        np.left_shift(g1, sl, out=t1)
        np.less(y0, t1, out=b0)
        np.subtract(y0, t1, out=lo)
        np.right_shift(g1, slc, out=hi1)
        np.subtract(y1, hi1, out=hi1)
        np.subtract(hi1, b0, out=hi1)
        _round_to_odd(hi0, lo, hi1, vbl, t0, t1)
        np.left_shift(g0, sr, out=lo)
        np.add(x0, lo, out=t0)
        np.less(t0, lo, out=b0)
        np.right_shift(g0, src, out=hi0)
        hi0 += x1
        np.add(hi0, b0, out=hi0)
        np.left_shift(g1, sr, out=t1)
        np.add(y0, t1, out=lo)
        np.less(lo, t1, out=b0)
        np.right_shift(g1, src, out=hi1)
        hi1 += y1
        np.add(hi1, b0, out=hi1)
        _round_to_odd(hi0, lo, hi1, vbr, t0, t1)
        vbl += odd
        vbr -= odd

        # one digit shorter: u' = 10 floor(s / 10) and w' = u' + 10, at most
        # one of them in the interval
        np.right_shift(vb, _U(2), out=s)
        np.floor_divide(s, _U(10), out=sp)
        sp *= _U(10)
        np.left_shift(sp, _U(2), out=t0)
        np.less_equal(vbl, t0, out=b0)
        t0 += _U(40)
        np.less_equal(t0, vbr, out=b1)
        b0 ^= b1
        np.multiply(b1, _U(10), out=t0)
        sp += t0
        # full length: u = s or w = s + 1, the one in the interval; when
        # both are, the closer to the value, the even one on a tie
        np.left_shift(s, _U(2), out=t0)
        np.less_equal(vbl, t0, out=b1)
        np.bitwise_and(s, _U(1), out=t1)
        t1 += vb
        t0 += _U(2)
        np.less_equal(t1, t0, out=b2)
        t0 += _U(2)
        np.less(vbr, t0, out=b3)
        b3 |= b2
        b3 &= b1
        s += _U(1)
        np.subtract(s, b3, out=s)
        np.copyto(s, sp, where=b0)

        # 17 digits and decpt: a normal double's shortest digits number 16
        # or 17, a subnormal's fewer
        sub = _NO_INDEX
        if decpt.min() == 0:  # k = -324: subnormals, zeros or the least binade
            sub = np.flatnonzero(bits << _U(1) < _U(2 << 52))
            d_sub, kp_sub = s[sub], decpt[sub]
        np.less(s, _U(10**16), out=b1)
        np.multiply(s, _U(10), out=s, where=b1)
        decpt += 17
        decpt -= b1
        if len(sub):
            frac = bits[sub] & _FRAC_MASK
            d_sub[frac == _U(1)] = 5  # 5e-324
            d_sub[frac == _U(2)] = 10  # 1e-323
            n_digits = np.searchsorted(_POW10, d_sub, side="right")
            s[sub] = d_sub * _POW10[17 - n_digits]
            decpt[sub] = kp_sub + n_digits
        return sub

    def _lay_out(self, bits, sub, out, end_word):
        """Write the fields (``out``, a row of words per value) of the
        digits ``_shortest`` left."""
        n = len(bits)
        u = self._u[:, :n]
        decpt = self._i[1, :n]
        s = u[18]
        t1, d0 = u[0], u[1]
        grp, quo, rem = u[2:4], u[4:6], u[6:8]
        keep = u[8:11]
        t2, t3, point = u[11], u[12], u[13]
        lay = self._layout

        # the digits as bytes 0-9, the first in the lowest byte (little
        # endian): one, then two groups of eight, each split in 64-bit lanes
        # into 4 + 4, 2 + 2 and 1 + 1 digits
        np.floor_divide(s, _U(10**16), out=d0)
        np.multiply(d0, _U(10**16), out=t1)
        s -= t1
        np.floor_divide(s, _U(10**8), out=grp[0])
        np.multiply(grp[0], _U(10**8), out=t1)
        np.subtract(s, t1, out=grp[1])
        np.floor_divide(grp, _U(10_000), out=quo)
        _split_lanes(grp, quo, rem, 10_000, 32)
        # in 32-bit lanes, x // 100 = (x * 5243) >> 19 for x < 10**4
        np.multiply(grp, _U(5243), out=quo)
        quo >>= _U(19)
        quo &= _U(0x0000_007F_0000_007F)
        _split_lanes(grp, quo, rem, 100, 16)
        # in 16-bit lanes, x // 10 = (x * 103) >> 10 for x < 100
        np.multiply(grp, _U(103), out=quo)
        quo >>= _U(10)
        quo &= _U(0x000F_000F_000F_000F)
        _split_lanes(grp, quo, rem, 10, 8)
        np.left_shift(grp[0], _U(8), out=t1)
        d0 |= t1
        grp[0] >>= _U(56)
        np.left_shift(grp[1], _U(8), out=t1)
        grp[0] |= t1
        grp[1] >>= _U(56)
        digits = u[1:4]  # the 17 digit bytes: d0 and both groups

        # keep (0x80) each digit up to the last nonzero one and those fixed
        # notation prints; add '0' to them, the rest become NUL
        np.add(digits, _BYTES_7F, out=keep)
        keep &= _BYTES_80
        for w in (0, 1):
            for shift in (8, 16, 32):
                np.right_shift(keep[w], _U(shift), out=t1)
                keep[w] |= t1
        np.multiply(keep[2], _BYTES_01, out=t1)
        keep[1] |= t1
        np.bitwise_and(keep[1], _U(0x80), out=t1)
        t1 *= _BYTES_01
        keep[0] |= t1
        lay[10].take(decpt, out=point, mode="clip")
        np.right_shift(keep[0], _U(15), out=t1)
        t1 &= _U(1)
        point *= t1
        for w in range(3):
            lay[3 + w].take(decpt, out=t1, mode="clip")
            keep[w] |= t1
            keep[w] >>= _U(7)
            keep[w] *= _U(ord("0"))
            digits[w] |= keep[w]

        # the digits before the point go to byte 7 on, the rest to byte 8
        # on: a shift by 7 bytes and one by a whole word
        pre, post = keep, digits
        for w in range(3):
            lay[w].take(decpt, out=pre[w], mode="clip")
            pre[w] &= post[w]
            post[w] ^= pre[w]
        np.right_shift(bits, _U(63), out=t2)
        lay[11].take(decpt, out=t3, mode="clip")
        t2 *= t3
        lay[6].take(decpt, out=t3, mode="clip")
        t2 |= t3
        np.left_shift(pre[0], _U(56), out=t3)
        np.bitwise_or(t2, t3, out=out[:, 0])
        for w in (1, 2):
            pre[w - 1] >>= _U(8)
            np.left_shift(pre[w], _U(56), out=t3)
            pre[w - 1] |= t3
            pre[w - 1] |= post[w - 1]
            lay[6 + w].take(decpt, out=t3, mode="clip")
            np.bitwise_or(pre[w - 1], t3, out=out[:, w])
        out[:, 1] |= point
        lay[9].take(decpt, out=t3, mode="clip")
        t3 |= end_word
        np.bitwise_or(post[2], t3, out=out[:, 3])
        if len(sub):
            zeros = sub[(bits[sub] << _U(1)) == _U(0)]
            out[zeros] = _ZERO
            out[zeros, 0] |= (bits[zeros] >> _U(63)) * _U(ord("-"))
            out[zeros, 3] |= end_word


def _split_lanes(grp, quo, rem, base, bits):
    """Each lane x of ``grp`` becomes two of half its width, x // base
    (given in ``quo``) in the lower and x % base in the upper one."""
    np.multiply(quo, _U(base), out=rem)
    grp -= rem
    grp <<= _U(bits)
    grp |= quo


def _mulhi(a_hi, a_lo, b_hi, b_lo, out, lh, hl):
    """out = the high 64 bits of a * b, given as 32-bit limbs; lh and hl
    are scratch."""
    np.multiply(a_lo, b_lo, out=out)
    out >>= _U(32)
    np.multiply(a_lo, b_hi, out=lh)
    lh += out
    np.multiply(a_hi, b_lo, out=hl)
    np.bitwise_and(lh, _M32, out=out)
    hl += out
    np.multiply(a_hi, b_hi, out=out)
    lh >>= _U(32)
    out += lh
    hl >>= _U(32)
    out += hl


def _round_to_odd(x1, y0, y1, out, t0, t1):
    """out = Schubfach's round-to-odd estimate of g cp / 2**127 (its
    ``rop``) from the high word x1 of g0 cp and the words y1, y0 of g1 cp,
    where g = g1 2**63 + g0."""
    np.right_shift(y0, _U(1), out=t0)
    t0 += x1  # z
    np.right_shift(t0, _U(63), out=t1)
    np.add(y1, t1, out=out)
    t0 &= _M63
    t0 += _M63
    t0 >>= _U(63)
    out |= t0


_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_NO_INDEX = np.zeros(0, dtype=np.intp)
_ZERO = _place(b"0.0", 1)
