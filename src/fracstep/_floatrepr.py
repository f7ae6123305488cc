"""``repr`` of a whole float64 array at once, for the CSV bodies.

``repr_chars(x)`` gives, for every element, exactly the bytes ``repr``
gives: the shortest decimal that reads back as the same double, the closest
of those when several have that length, laid out as Python's ``'r'`` format
does. The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) in uint64 arithmetic: a 64 x 64 -> 128-bit product is
built from 32-bit halves, and numpy's uint64 arrays wrap as the algorithm
expects. The ends of the rounding interval are derived from the words of the
product at its middle, as Ryu's ``mulShiftAll`` does (U. Adams, PLDI 2018).
Java's Schubfach never gives fewer than two digits, so it prints a 2-digit
decimal where a 1-digit one rounds to the same subnormal (4.9e-324,
7.9e-323); here the 1-digit candidate is tried as ``repr`` does.

A field is an (n, width) uint8 matrix whose row i holds the ASCII bytes of
entry i padded with NUL; ``csv_lines`` joins fields into CSV lines. The
lookup tables are built on first use, never at import: about 1 ms in a fresh
process on a 2-core Xeon VM.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK63 = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF << 52)
# lines per formatted block of the solve body (cli._write_solve_csv), the one
# writer that uses it: a block costs a fixed number of numpy calls and about
# 0.2 kB of scratch per formatted double, freed to the heap between writes.
# Table dumps walk their table by kernels._blocks(N, "csv") instead.
BLOCK = 2 ** 11
_CHUNK_OFFSET = np.arange(5)[:, None] * 10 ** 4
_POW10 = np.array([10 ** i for i in range(17)], dtype=np.uint64)

# A formatted double occupies 32 bytes: '-' at 0, the "0.000" of the fixed
# layout at 1-5, 17 digits and a point at 7-24, the exponent "e-324" at 25-29.
# The digits are written once at 7-23 (_digit_rows) and once shifted to 8-24;
# each layout picks its bytes from those two rows and from _CONST by masks.
_CONST = np.frombuffer(b"-0.000\0" + b"." * 18 + b"\0" * 7, dtype=np.uint64)


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _layout_masks() -> np.ndarray:
    """(3, 2 * 21 * 18, 4) uint64: the byte masks on the digits and on the
    shifted digits, and the bytes of _CONST, of sign s, layout class c and
    nd significant digits, at (s * 21 + c) * 18 + nd. Class c < 20 is the
    fixed layout of decpt = c - 3, class 20 the exponent layout."""
    cls = np.arange(21)[:, None, None]
    nd = np.arange(18)[:, None]
    pos = np.arange(32)
    decpt = cls - 3
    expo, frac = cls == 20, cls <= 3  # d.ddde+XX, 0.000ddd
    whole = ~expo & ~frac             # ddd.ddd, ddd00.0
    masks = np.zeros((3, 2, 21, 18, 32), dtype=np.uint8)
    masks[0] = np.where(expo, (pos == 7) | (pos >= 25),
                        (pos >= 7) & (pos < 7 + np.where(frac, nd, decpt)))
    masks[1] = np.where(expo, (pos >= 9) & (pos < 8 + nd),
                        whole & (pos >= 8 + decpt)
                        & (pos < 8 + np.maximum(nd, decpt + 1)))
    masks[2] = np.where(expo, (nd > 1) & (pos == 8),
                        np.where(frac, (pos >= 1) & (pos < 3 - decpt),
                                 pos == 7 + decpt))
    masks[2, 1, ..., 0] = 1  # the sign
    masks = (masks * np.uint8(0xFF)).view(np.uint64).reshape(3, -1, 4)
    masks[2] &= _CONST
    return masks


def _g_table() -> np.ndarray:
    """(2, _K_MAX - _K_MIN + 1) uint64: g1 = g >> 63 and g0 = g mod 2^63 of
    g = floor(10^-k 2^-r) + 1 with r making 2^125 <= 10^-k 2^-r < 2^126, at
    k - _K_MIN."""
    below, p = [], 1 << 126
    for _ in range(1 - _K_MIN):  # p = 2^126 10^-k for k = 0, -1, ..., _K_MIN
        below.append((p >> (p.bit_length() - 126)) + 1)
        p *= 10
    above, q = [], 1 << 1200
    for _ in range(_K_MAX):  # q = floor(2^1200 / 10^k) for k = 1, ..., _K_MAX
        q //= 10
        above.append((q >> (q.bit_length() - 126)) + 1)
    g = below[::-1] + above
    return np.array([[gk >> 63 for gk in g], [gk & ((1 << 63) - 1) for gk in g]],
                    dtype=np.uint64)


@functools.cache
def _tables() -> dict:
    """The read-only lookup tables, built on first use, never at import."""
    # "%04d" of 0..9999, the thousands digit in the low byte, and the 1-based
    # position of its last nonzero digit, 0 for 0
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    four = (ascii_digits[:, None, None, None] | ascii_digits[:, None, None] << 8
            | ascii_digits[:, None] << 16 | ascii_digits << 24).ravel()
    nz = np.minimum(np.arange(10, dtype=np.int8), 1)
    last = np.maximum(np.maximum(nz[:, None, None, None], 2 * nz[:, None, None]),
                      np.maximum(3 * nz[:, None], 4 * nz)).ravel()
    offset = np.arange(-3, 17, 4, dtype=np.int8)[:, None]
    e = np.arange(-324, 309)  # the decimal exponent of d.ddde+XX, decpt - 1
    tables = dict(
        g=_g_table(),
        four=four,
        # chunk j's last nonzero digit, 1-based over the 17 digits, at
        # j * 10^4 + chunk, and 0 for a zero chunk
        last=((last + offset) * (last > 0)).ravel(),
        # bytes 24-31, "\0e%+03d" % e, at decpt + 323: the digits are those of
        # "%04d" % |e| less one leading zero, or two when |e| < 100
        exp=(four[np.abs(e)] >> np.where(np.abs(e) < 100, 16, 8) << 24
             | np.where(e < 0, ord("-"), ord("+")) << 16
             | ord("e") << 8).astype(np.uint64),
        # 18 times the layout class of decpt, at decpt + 323
        cls=np.where((e < -4) | (e > 15), 20, e + 4) * 18,
        masks=_layout_masks(),
        # 0.0 (in the fixed layout), inf and nan, signed, for the entries
        # Schubfach does not take
        special=np.array([b"\0" * 7 + b"0.0", b"inf", b"nan",
                          b"-" + b"\0" * 6 + b"0.0", b"-inf", b"nan"],
                         dtype="S32").view(np.uint8).reshape(2, 3, 32))
    for table in tables.values():
        table.setflags(write=False)
    return tables


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the 128-bit products a * b, from the 32-bit
    halves of a < 2^63 and b < 2^60 (uint64 arrays), small enough that the
    middle sum cannot wrap."""
    return ah * bh + ((ah * bl + al * bh + ((al * bl) >> 32)) >> 32)


def _products(g, cp):
    """(y1, y0, x1, x0): the high and low words of g1 cp and of g0 cp, for
    g = (g1, g0) and cp < 2^60."""
    g1, g0 = g
    ch, cl = cp >> 32, cp & _MASK32
    return (_mulhi(g1 >> 32, g1 & _MASK32, ch, cl), g1 * cp,
            _mulhi(g0 >> 32, g0 & _MASK32, ch, cl), g0 * cp)


def _round_to_odd(y1, y0, x1):
    """cp g 2^-127 rounded to odd from three words of ``_products``: the low
    bit of y0 and the low word of g0 cp are dropped (Giulietti, figure 8)."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z << 1) != 0)


def _rop(g, cp):
    """cp g 2^-127 rounded to odd (Giulietti, figure 8), cp < 2^60."""
    return _round_to_odd(*_products(g, cp)[:3])


def _rop_moved(g, words, s, op, wraps):
    """``_rop(g, op(cp, 2^s))`` from ``words = _products(g, cp)``: g1 2^s and
    g0 2^s are added (op np.add, wraps np.less) or subtracted (np.subtract,
    np.greater), the carry or borrow of each low word passed to its high
    word."""
    g1, g0 = g
    y1, y0, x1, x0 = words
    r = np.uint64(64) - s
    x1 = op(op(x1, g0 >> r), wraps(op(x0, g0 << s), x0))
    low = op(y0, g1 << s)
    return _round_to_odd(op(op(y1, g1 >> r), wraps(low, y0)), low, x1)


def _scaled_interval(bits):
    """(vb, vbl, vbr, k) of the finite, nonzero doubles v with raw ``bits``
    (uint64, sign bit clear): 4 v 10^-k and the ends of its rounding
    interval, each rounded to odd (Giulietti, figure 9)."""
    q = (bits >> np.uint64(52)).view(np.int64)  # the biased exponent, then q
    c = bits & np.uint64((1 << 52) - 1)
    # the gap below a power of two is half the gap above it: then k is
    # floor(log10(3/4 2^q)), else floor(log10(2^q)), both computed in 41-bit
    # fixed point (Giulietti, section 9), exact over the exponents of doubles
    irregular = (c == 0) & (q > 1)
    c |= (q > 0) * np.uint64(1 << 52)  # v = c 2^q
    np.maximum(q, 1, out=q)
    q -= 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    q += _flog2pow10(-k) + 3
    s = q.view(np.uint64)  # h + 1, with 2 <= h <= 5
    g = np.take(_tables()["g"], k - _K_MIN, axis=1)
    # cp = 4 c 2^h, and the interval ends cp -+ 2^(h+1), or cp - 2^h below a
    # power of two, share the products of cp
    c <<= s + np.uint64(1)
    words = _products(g, c)
    return (_round_to_odd(*words[:3]),
            _rop_moved(g, words, s - irregular, np.subtract, np.greater),
            _rop_moved(g, words, s, np.add, np.less), k)


def _decimal(bits):
    """(d, decpt) of the finite, nonzero doubles with raw ``bits`` (uint64,
    sign bit clear): 0.d 10^decpt is the shortest decimal that rounds to the
    double, the closest to it when there are two, and d < 10^17 holds its
    digits padded with zeros to 17."""
    one, ten = np.uint64(1), np.uint64(10)
    vb, vbl, vbr, k = _scaled_interval(bits)
    # the interval is closed for an even significand, open for an odd one
    odd = bits & one
    vbl += odd
    vbr -= odd
    s = vb >> np.uint64(2)
    # one digit shorter, s' 10^(k+1) or (s' + 1) 10^(k+1): Java tries it
    # only when s >= 100, repr also for a 2-digit s (small subnormals)
    sp10 = (s // ten) * ten
    upin = vbl <= sp10 << np.uint64(2)
    wpin = (sp10 + ten) << np.uint64(2) <= vbr
    # else s 10^k or (s + 1) 10^k, whichever rounds to the double, the
    # closer (then the even) one when both do: s + 1 when vb - 4 s - 2 > 0,
    # or = 0 with s odd, that is when vb mod 8 is 3, 6 or 7
    s4 = vb & ~np.uint64(3)
    upper = (vbl > s4) | ((s4 + np.uint64(4) <= vbr)
                          & (np.uint64(0xC8) >> (vb & np.uint64(7))))
    f = np.where(upin ^ wpin, sp10 + wpin * ten, s + upper)
    # f has 16 or 17 digits for every normal double
    if f.min(initial=_POW10[15]) == _POW10[15]:
        short = f < _POW10[16]
        return np.where(short, f * ten, f), k + 17 - short
    # the two smallest subnormals have an s of one digit; repr prints the
    # closest of the 1-digit decimals that round to them
    tiny = bits < np.uint64(3)
    if tiny.any():
        f[tiny] = np.where(bits[tiny] == one, 5, 1)
        k[tiny] = np.where(bits[tiny] == one, -324, -323)
    n_digits = np.searchsorted(_POW10, f, side="right")
    return f * _POW10[17 - n_digits], k + n_digits


def _digit_rows(d):
    """(rows, nd) for integers d < 10^17: rows (n, 4) uint64 hold the 17
    digits of d, with leading zeros, at bytes 7-23 of a formatted double, and
    nd is the 1-based position of its last nonzero digit."""
    tab = _tables()
    # bytes 4-23 as five chunks of four digits, the first holding one digit
    chunks = np.empty((5, d.size), dtype=np.intp)
    # floor division and a multiply-subtract: numpy's uint64 divmod misses
    # the libdivide path that // takes, at about five times the cost
    e4, e8 = np.uint64(10 ** 4), np.uint64(10 ** 8)
    hi = d // e8
    lo = d - hi * e8
    top = hi // e8
    mid = hi - top * e8
    q_mid, q_lo = mid // e4, lo // e4
    chunks[0], chunks[1], chunks[2] = top, q_mid, mid - q_mid * e4
    chunks[3], chunks[4] = q_lo, lo - q_lo * e4
    rows = np.zeros((d.size, 8), dtype=np.uint32)
    rows[:, 1:6] = tab["four"][chunks.T]
    chunks += _CHUNK_OFFSET
    nd = np.maximum.reduce(tab["last"][chunks])
    return rows.view(np.uint64), nd


def repr_chars(x) -> np.ndarray:
    """(n, 32) uint8: row i holds the bytes of ``repr(float(x[i]))``,
    NUL-padded."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    tab = _tables()
    bits = x.view(np.uint64)
    mag = bits & _MASK63
    special = (mag - np.uint64(1)) >= _INF - np.uint64(1)  # 0, inf and nan
    np.copyto(mag, np.uint64(1 << 52), where=special)  # formatted, then written over
    d, decpt = _decimal(mag)
    rows, nd = _digit_rows(d)
    decpt += 323
    rows[:, 3] = tab["exp"][decpt]
    # Python's 'r' layout: fixed when -4 < decpt <= 16, else d.ddde+XX
    neg = (bits >> np.uint64(63)).view(np.int64)
    key = neg * (21 * 18) + tab["cls"][decpt] + nd
    digits_mask, shifted_mask, const = tab["masks"]
    # the digits one byte later (byte 31, the carry into the next row, is 0)
    shifted = np.empty_like(rows)
    shifted_bytes = shifted.view(np.uint8).reshape(-1)
    shifted_bytes[:1] = 0
    shifted_bytes[1:] = rows.view(np.uint8).reshape(-1)[:-1]
    shifted &= np.take(shifted_mask, key, axis=0)
    rows &= np.take(digits_mask, key, axis=0)
    rows |= shifted
    rows |= np.take(const, key, axis=0)
    out = rows.view(np.uint8)
    special = np.flatnonzero(special)
    if special.size:
        m = bits[special] & _MASK63
        kind = np.add(m >= _INF, m > _INF, dtype=np.intp)  # 0, inf or nan
        out[special] = tab["special"][neg[special], kind]
    return out


def str_chars(items) -> np.ndarray:
    """(n, width) uint8 of ``str(item)`` for each item, NUL-padded."""
    s = np.array([str(item).encode() for item in items], dtype=np.bytes_)
    return s.view(np.uint8).reshape(len(s), s.itemsize)


def csv_lines(fields) -> str:
    """The lines ``f1,f2,...`` of (n, width_i) fields, each ended by a
    newline; a field of width 0 is an empty column."""
    n = len(fields[0])
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    parts = []
    for field in fields:
        parts += [field, comma]
    parts[-1] = np.full((n, 1), ord("\n"), dtype=np.uint8)
    block = np.concatenate(parts, axis=1)
    return block.tobytes().translate(None, b"\0").decode("ascii")
