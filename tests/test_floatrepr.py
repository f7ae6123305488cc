"""The array formatter writes exactly ``repr``'s bytes, and the CSV writers
built on it write the bytes of the per-float loops they replace."""

import io
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstep import _floatrepr
from fracstep.complementary import build_complementary
from fracstep.kernels import alikhanov_kernel, kernel_rows_csv, l1_kernel
from fracstep.mesh import graded_mesh, random_mesh


def _lines(x) -> str:
    return _floatrepr.csv_lines([_floatrepr.repr_chars(x)])


def assert_matches_repr(x):
    x = np.asarray(x, dtype=np.float64)
    got = _lines(x).split("\n")[:-1]
    want = [repr(v) for v in x.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, f"{len(bad)} differ, first {bad[:5]}"


def test_random_bit_patterns():
    # every double is as likely as every other: both signs, subnormals,
    # infinities and nans (1 in 2048 each has exponent 0 or 0x7ff)
    rng = np.random.default_rng(20)
    assert_matches_repr(rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64,
                                     endpoint=False).view(np.float64))


def test_unit_interval_and_wide_magnitudes():
    rng = np.random.default_rng(21)
    assert_matches_repr(rng.random(10 ** 5))
    assert_matches_repr(10.0 ** rng.uniform(-30.0, 30.0, 10 ** 5))


def test_subnormals():
    # a 2-digit shortest-closest candidate never hides a 1-digit one that
    # also rounds back (Java's Schubfach prints 4.9e-324 and 7.9e-323 here)
    small = np.arange(2 ** 16, dtype=np.uint64)
    rng = np.random.default_rng(22)
    wide = rng.integers(0, 2 ** 52, size=10 ** 5, dtype=np.uint64)
    bits = np.concatenate([small, wide, small | np.uint64(1 << 63)])
    assert_matches_repr(bits.view(np.float64))


def test_powers_and_integers():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near_2_53 = np.arange(2 ** 53 - 2000, 2 ** 53 + 2000, dtype=np.int64).astype(float)
    assert_matches_repr(np.concatenate([twos, -twos, tens, -tens, near_2_53,
                                        np.arange(-1000.0, 1000.0)]))


def test_layout_switches_and_special_values():
    values = [1e-4, 1e-5, 0.00012345678901234567, 9.99999e-5,
              9999999999999998.0, 1e16, 1e17, 1.2345678901234567e16,
              123456789012345.67, 0.0, -0.0, 5e-324, -5e-324, 1e-323,
              1.5e-323, 2.2250738585072014e-308, sys.float_info.max,
              -sys.float_info.max, math.inf, -math.inf, math.nan, -math.nan,
              1.0, -1.0, 0.1, 0.3, 1e22, 1e23, 1e100, 1.7e308]
    assert_matches_repr(values)
    assert _lines([5e-324, 1e-323, -0.0, math.nan]) == "5e-324\n1e-323\n-0.0\nnan\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_any_floats(values):
    assert_matches_repr(values)


def test_empty_input():
    assert _floatrepr.repr_chars(np.array([])).shape == (0, 32)
    assert _lines(np.array([])) == ""


def test_special_values_amid_normal_ones():
    # one block meets every fallback: zeros, infinities and nans (written
    # over the digits), subnormals of fewer than 16 digits (counted by
    # search) and the two smallest (a 1-digit decimal), at both ends and in
    # the middle of normal doubles; and a block with no subnormal
    rng = np.random.default_rng(24)
    normal = rng.random(3000) * 10.0 ** rng.integers(-300, 300, 3000)
    odd = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
           -1e-323, 2.5e-310, -1.2345e-315, 2.2250738585072014e-308]
    assert_matches_repr(np.concatenate([odd, normal[:1000], odd[::-1],
                                        normal[1000:], odd]))
    assert_matches_repr(np.concatenate([odd[:6], normal, odd[5::-1]]))


def test_interval_ends_from_the_middle_product():
    # the ends of the rounding interval are derived from the words of the
    # product at its middle, cp; each must equal the rounded product of its
    # own, for every g of the table, every shift h and any significand, the
    # irregular lower end (cp - 2^h, below a power of two) included
    rng = np.random.default_rng(25)
    table = _floatrepr._tables()["g"]
    k = np.repeat(np.arange(table.shape[1]), 4 * 64)
    h = np.tile(np.repeat(np.arange(2, 6, dtype=np.uint64), 64), table.shape[1])
    c = rng.integers(1, 2 ** 53, size=k.size, dtype=np.uint64)
    c[::16] = 1 << 52                       # powers of two
    c[1::16] = 2 ** 53 - 1                  # the largest significand
    c[2::16] = rng.integers(1, 2 ** 20, size=c[2::16].size, dtype=np.uint64)
    g = np.take(table, k, axis=1)
    cp = c << np.uint64(2) << h
    words = _floatrepr._products(g, cp)
    s = h + np.uint64(1)
    for shift, op, wraps in ((s, np.add, np.less), (s, np.subtract, np.greater),
                             (h, np.subtract, np.greater)):
        want = _floatrepr._rop(g, op(cp, np.uint64(1) << shift))
        assert np.array_equal(_floatrepr._rop_moved(g, words, shift, op, wraps), want)


def _reference_tables():
    """The tables as the big-int and string construction once built them:
    g as the 32-bit halves of g1 and g0, the masks as a tuple."""
    below, p = [], 1
    for _ in range(1 - _floatrepr._K_MIN):
        r = p.bit_length() - 126
        below.append((p >> r if r >= 0 else p << -r) + 1)
        p *= 10
    above, q = [], 1 << 1200
    for k in range(1, _floatrepr._K_MAX + 1):
        q //= 10
        above.append((q >> (1200 - 126 - _floatrepr._flog2pow10(k))) + 1)
    g = [gk.to_bytes(16, "little") for gk in below[::-1] + above]
    lo, hi = np.frombuffer(b"".join(g), dtype=np.uint64).reshape(-1, 2).T
    i = np.arange(10 ** 4, dtype=np.int16)
    four = i[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    last = np.select([i % 10 > 0, i % 100 > 0, i % 1000 > 0, i > 0], [4, 3, 2, 1])
    cls = np.arange(21)[:, None, None]
    nd = np.arange(18)[:, None]
    pos = np.arange(32)
    decpt = cls - 3
    expo, frac = cls == 20, cls <= 3
    whole = ~expo & ~frac
    digits = np.where(expo, (pos == 7) | (pos >= 25),
                      (pos >= 7) & (pos < 7 + np.where(frac, nd, decpt)))
    shifted = np.where(expo, (pos >= 9) & (pos < 8 + nd),
                       whole & (pos >= 8 + decpt)
                       & (pos < 8 + np.maximum(nd, decpt + 1)))
    point = np.where(expo, (nd > 1) & (pos == 8),
                     np.where(frac, (pos >= 1) & (pos < 3 - decpt), pos == 7 + decpt))
    masks = np.stack([digits, shifted, point], axis=2)
    masks = np.stack([masks, masks])
    masks[1, :, :, 2, 0] = True
    masks = (masks * np.uint8(0xFF)).view(np.uint64).reshape(-1, 3, 4)
    masks[:, 2] &= _floatrepr._CONST
    return dict(
        g=((hi << np.uint64(1)) | (lo >> np.uint64(63)), lo & np.uint64((1 << 63) - 1)),
        four=(four + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        last=np.where(last > 0, last + np.arange(-3, 17, 4)[:, None], 0)
        .astype(np.int8).ravel(),
        exp=np.frombuffer(b"".join((b"\0e%+03d" % e).ljust(8, b"\0")
                                   for e in range(-324, 309)), dtype=np.uint64),
        masks=tuple(masks[:, i] for i in range(3)))


def test_tables_match_their_reference_construction():
    tables, ref = _floatrepr._tables(), _reference_tables()
    assert np.array_equal(tables["g"], np.stack(ref["g"]))
    assert np.array_equal(tables["masks"], np.stack(ref["masks"]))
    for name in ("four", "last", "exp"):
        assert tables[name].dtype == ref[name].dtype
        assert np.array_equal(tables[name], ref[name]), name
    # the layout class by decpt, at decpt + 323, and 0.0, inf and nan
    decpt = np.arange(-323, 310)
    assert np.array_equal(tables["cls"],
                          np.where((decpt < -3) | (decpt > 16), 20, decpt + 3) * 18)
    special = [row.tobytes().replace(b"\0", b"").decode()
               for row in tables["special"].reshape(-1, 32)]
    assert special == [repr(v) for v in (0.0, math.inf, math.nan, -0.0, -math.inf, math.nan)]
    for name, table in tables.items():
        assert not table.flags.writeable, name


def _rows_csv_by_repr(table, header_lines=()) -> str:
    """The reference: one f-string with ``repr`` per entry."""
    out = [f"# {line}\n" for line in header_lines] + ["n,lag,value\n"]
    for n in range(1, table.N + 1):
        out += [f"{n},{lag},{v!r}\n" for lag, v in enumerate(table.row(n).tolist())]
    return "".join(out)


@pytest.mark.parametrize("table", [
    pytest.param(lambda: l1_kernel(graded_mesh(200, 2.0, 1.0), 0.4), id="l1-200"),
    pytest.param(lambda: build_complementary(alikhanov_kernel(
        random_mesh(150, 1.0, rho_bound=1.75, seed=3), 0.3)),
                 id="complementary-150"),
    pytest.param(lambda: l1_kernel(graded_mesh(1, 1.0, 1e-300), 0.7), id="one-row"),
])
def test_kernel_rows_csv_matches_repr_loop(table):
    table = table()
    buf = io.StringIO()
    count = kernel_rows_csv(table, buf, ["a=1", "b=2"])
    assert buf.getvalue() == _rows_csv_by_repr(table, ["a=1", "b=2"])
    assert count == table.N * (table.N + 1) // 2


def test_kernel_rows_csv_scratch(tmp_path):
    # the writer holds one block of rows at a time: the table is 2.1 MB and
    # its body 3.9 MB
    table = build_complementary(alikhanov_kernel(
        random_mesh(512, 1.0, rho_bound=1.75, seed=7), 0.3))
    _floatrepr.repr_chars(np.ones(1))  # the lookup tables are not scratch
    with open(tmp_path / "p.csv", "w") as fh:
        tracemalloc.start()
        try:
            kernel_rows_csv(table, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2e6, f"peak {peak / 1e6:.2f} MB"


def test_fixed_point_exponent_estimates():
    # k = floor(log10(2^q)) (floor(log10(3/4 2^q)) below a power of two) is
    # exact for every double exponent q, and the shift h stays in 2..5, so
    # the scaled significands stay below 2^60 and no product wraps
    for q in range(-1074, 972):
        for k, v in (((q * 661_971_961_083) >> 41, Fraction(2) ** q),
                     ((q * 661_971_961_083 - 274_743_187_321) >> 41,
                      Fraction(3, 4) * Fraction(2) ** q)):
            assert Fraction(10) ** k <= v < Fraction(10) ** (k + 1), q
            assert 2 <= q + _floatrepr._flog2pow10(-k) + 2 <= 5, q
