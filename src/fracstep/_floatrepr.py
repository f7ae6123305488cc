"""``repr`` of a whole float64 array at once, for the CSV bodies.

``repr_chars(x)`` gives, for every element, exactly the bytes ``repr``
gives: the shortest decimal that reads back as the same double, the closest
of those when several have that length, laid out as Python's ``'r'`` format
does. The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) in uint64 arithmetic: a 64 x 64 -> 128-bit product is
built from 32-bit halves, and numpy's uint64 arrays wrap as the algorithm
expects. Java's Schubfach never gives fewer than two digits, so it prints a
2-digit decimal where a 1-digit one rounds to the same subnormal (4.9e-324,
7.9e-323); here the 1-digit candidate is tried as ``repr`` does.

A field is an (n, width) uint8 matrix whose row i holds the ASCII bytes of
entry i padded with NUL; ``csv_lines`` joins fields into CSV lines.
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
# 0.3 kB of scratch per formatted double, freed to the heap between writes.
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


def _layout_masks() -> tuple:
    """Three (2 * 21 * 18, 4) uint64 tables: the byte masks on the digits
    and on the shifted digits, and the bytes of _CONST, of sign s, layout
    class c and nd significant digits, at (s * 21 + c) * 18 + nd. Class
    c < 20 is the fixed layout of decpt = c - 3, class 20 the exponent
    layout."""
    cls = np.arange(21)[:, None, None]
    nd = np.arange(18)[:, None]
    pos = np.arange(32)
    decpt = cls - 3
    expo, frac = cls == 20, cls <= 3  # d.ddde+XX, 0.000ddd
    whole = ~expo & ~frac             # ddd.ddd, ddd00.0
    digits = np.where(expo, (pos == 7) | (pos >= 25),
                      (pos >= 7) & (pos < 7 + np.where(frac, nd, decpt)))
    shifted = np.where(expo, (pos >= 9) & (pos < 8 + nd),
                       whole & (pos >= 8 + decpt)
                       & (pos < 8 + np.maximum(nd, decpt + 1)))
    point = np.where(expo, (nd > 1) & (pos == 8),
                     np.where(frac, (pos >= 1) & (pos < 3 - decpt), pos == 7 + decpt))
    masks = np.stack([digits, shifted, point], axis=2)  # (21, 18, 3, 32)
    masks = np.stack([masks, masks])
    masks[1, :, :, 2, 0] = True  # the sign
    masks = (masks * np.uint8(0xFF)).view(np.uint64).reshape(-1, 3, 4)
    masks[:, 2] &= _CONST
    return tuple(masks[:, i].copy() for i in range(3))


@functools.cache
def _tables() -> dict:
    """The read-only lookup tables, built on first use (a few ms), never at
    import."""
    # g = floor(10^-k 2^-r) + 1 with r making 2^125 <= 10^-k 2^-r < 2^126
    below, p = [], 1
    for _ in range(1 - _K_MIN):  # k = 0, -1, ..., _K_MIN, with p = 10^-k
        r = p.bit_length() - 126
        below.append((p >> r if r >= 0 else p << -r) + 1)
        p *= 10
    above, q = [], 1 << 1200
    for k in range(1, _K_MAX + 1):  # q = floor(2^1200 / 10^k), 2^-r < 2^1200
        q //= 10
        above.append((q >> (1200 - 126 - _flog2pow10(k))) + 1)
    g = b"".join(gk.to_bytes(16, "little") for gk in below[::-1] + above)
    lo, hi = np.frombuffer(g, dtype=np.uint64).reshape(-1, 2).T
    g1, g0 = (hi << np.uint64(1)) | (lo >> np.uint64(63)), lo & _MASK63
    # "%04d" of 0..9999, and the 1-based position of its last nonzero digit
    i = np.arange(10 ** 4, dtype=np.int16)
    four = i[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    last = np.select([i % 10 > 0, i % 100 > 0, i % 1000 > 0, i > 0], [4, 3, 2, 1])
    tables = dict(
        # the 32-bit halves of g1 = g >> 63 and of g0 = g mod 2^63
        g=(g1 >> np.uint64(32), g1 & _MASK32, g0 >> np.uint64(32), g0 & _MASK32),
        four=(four + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        # chunk j's last nonzero digit, 1-based over the 17 digits, at
        # j * 10^4 + chunk, and 0 for a zero chunk
        last=np.where(last > 0, last + np.arange(-3, 17, 4)[:, None], 0)
        .astype(np.int8).ravel(),
        # bytes 24-31 for the decimal exponent -324..308
        exp=np.frombuffer(b"".join((b"\0e%+03d" % e).ljust(8, b"\0")
                                   for e in range(-324, 309)), dtype=np.uint64),
        masks=_layout_masks())
    for table in (*tables["g"], *tables["masks"], tables["four"], tables["last"]):
        table.setflags(write=False)
    return tables


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the 128-bit products a * b, from the 32-bit
    halves of a < 2^63 and b < 2^60 (uint64 arrays), small enough that the
    middle sum cannot wrap."""
    return ah * bh + ((ah * bl + al * bh + ((al * bl) >> 32)) >> 32)


def _rop(g, cp):
    """cp g 2^-127 rounded to odd (Giulietti, figure 8), cp < 2^60."""
    g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _MASK32
    z = ((((g1h << 32) | g1l) * cp) >> 1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | (((z & _MASK63) + _MASK63) >> 63)


def _scaled_interval(bits):
    """(vb, vbl, vbr, k) of the finite, nonzero doubles v with raw ``bits``
    (uint64, sign bit clear): 4 v 10^-k and the ends of its rounding
    interval, each rounded to odd (Giulietti, figure 9)."""
    two = np.uint64(2)
    q = (bits >> 52).astype(np.int64)  # the biased exponent, then q
    cb = bits & np.uint64((1 << 52) - 1)
    # the gap below a power of two is half the gap above it: then k is
    # floor(log10(3/4 2^q)), else floor(log10(2^q)), both computed in 41-bit
    # fixed point (Giulietti, section 9), exact over the exponents of doubles
    irregular = (cb == 0) & (q > 1)
    cb |= (q > 0).astype(np.uint64) << 52
    cb <<= two  # 4 c, with v = c 2^q
    np.maximum(q, 1, out=q)
    q -= 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)  # 2 <= h <= 5
    g = [np.take(gi, k - _K_MIN) for gi in _tables()["g"]]
    return (_rop(g, cb << h), _rop(g, (cb - two + irregular) << h),
            _rop(g, (cb + two) << h), k)


def _decimal(bits):
    """(f, k): f 10^k is the shortest decimal that rounds to the finite,
    nonzero double with raw ``bits`` (uint64, sign bit clear), the closest
    to it when there are two; f < 10^17."""
    one, two, ten = np.uint64(1), np.uint64(2), np.uint64(10)
    vb, vbl, vbr, k = _scaled_interval(bits)
    # the interval is closed for an even significand, open for an odd one
    odd = bits & one
    vbl += odd
    vbr -= odd
    s = vb >> two
    # one digit shorter, s' 10^(k+1) or (s' + 1) 10^(k+1): Java tries it
    # only when s >= 100, repr also for a 2-digit s (small subnormals)
    sp10 = (s // ten) * ten
    upin = vbl <= sp10 << two
    wpin = (sp10 + ten) << two <= vbr
    # else s 10^k or (s + 1) 10^k, whichever rounds to the double, the
    # closer (then the even) one when both do
    cmp = vb.astype(np.int64) - ((s + s + one) << one).astype(np.int64)
    lower = (vbl <= s << two) & (((s + one) << two > vbr) | (cmp < 0)
                                 | ((cmp == 0) & ((s & one) == 0)))
    f = np.where(upin ^ wpin, sp10 + wpin * ten, s + ~lower)
    # the two smallest subnormals have an s of one digit; repr prints the
    # closest of the 1-digit decimals that round to them
    tiny = bits < np.uint64(3)
    if tiny.any():
        f[tiny] = np.where(bits[tiny] == one, 5, 1)
        k[tiny] = np.where(bits[tiny] == one, -324, -323)
    return f, k


def _digit_rows(f):
    """(rows, nd, n_digits) for integers f < 10^17: rows (n, 4) uint64 hold
    the 17 leading digits of f (padded with '0') at bytes 7-23 of a formatted
    double; f has n_digits digits, nd of them up to its last nonzero one."""
    tab = _tables()
    n_digits = np.searchsorted(_POW10, f, side="right")  # 0 for f = 0
    f = f * _POW10[np.minimum(17 - n_digits, 16)]
    # bytes 4-23 as five chunks of four digits, the first holding one digit
    chunks = np.empty((5, f.size), dtype=np.intp)
    hi, lo = np.divmod(f, np.uint64(10 ** 8))
    chunks[0], mid = np.divmod(hi, np.uint64(10 ** 8))
    chunks[1], chunks[2] = np.divmod(mid, np.uint64(10 ** 4))
    chunks[3], chunks[4] = np.divmod(lo, np.uint64(10 ** 4))
    rows = np.zeros((f.size, 8), dtype=np.uint32)
    np.take(tab["four"], chunks.T, out=rows[:, 1:6], mode="clip")
    chunks += _CHUNK_OFFSET
    nd = np.maximum.reduce(np.take(tab["last"], chunks))
    return rows.view(np.uint64), nd, n_digits


def repr_chars(x) -> np.ndarray:
    """(n, 32) uint8: row i holds the bytes of ``repr(float(x[i]))``,
    NUL-padded."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    tab = _tables()
    bits = x.view(np.uint64)
    mag = bits & _MASK63
    nonzero = (mag - np.uint64(1)) < _INF - np.uint64(1)  # finite and not 0
    f, k = _decimal(np.where(nonzero, mag, np.uint64(1 << 52)))
    rows, nd, n_digits = _digit_rows(np.where(nonzero, f, np.uint64(0)))
    # value 0.ddd 10^decpt with nd digits d; 0.0 for zero, inf and nan
    nd = np.where(nonzero, nd, 1)
    decpt = np.where(nonzero, n_digits + k, 1)
    rows[:, 3] = tab["exp"][decpt + 323]
    # Python's 'r' layout: fixed when -4 < decpt <= 16, else d.ddde+XX
    cls = np.where((decpt < -3) | (decpt > 16), 20, decpt + 3)
    neg = (bits >> np.uint64(63)).astype(np.intp)
    key = (neg * 21 + cls) * 18 + nd
    digits_mask, shifted_mask, const = tab["masks"]
    # the digits one byte later (byte 31, the carry into the next row, is 0)
    flat = rows.ravel()
    shifted = flat << np.uint64(8)
    shifted[1:] |= flat[:-1] >> np.uint64(56)
    rows &= np.take(digits_mask, key, axis=0)
    shifted &= np.take(shifted_mask, key, axis=0).ravel()
    rows |= shifted.reshape(-1, 4)
    rows |= np.take(const, key, axis=0)
    out = rows.view(np.uint8)
    for i in np.flatnonzero(mag >= _INF):
        text = b"nan" if mag[i] > _INF else b"-inf" if neg[i] else b"inf"
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
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
