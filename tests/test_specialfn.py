import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fracstep import specialfn
from fracstep.specialfn import (
    _MAX_LOG_ABS,
    NonConvergenceError,
    _lgamma_grid,
    _log,
    _log_ml,
    log_mittag_leffler,
    mittag_leffler,
    omega,
)

from conftest import mpmath_ml

# frozen from the 200-digit series oracle (mpmath_ml below reproduces them)
ORACLE_VALUES = {
    (0.5, -1.0): 0.4275835761558070044107503,
    (0.5, -0.5): 0.6156903441929258748707934,
    (0.7, -2.0): 0.2137867270152972753355373,
    (0.3, -0.8): 0.5143819586882442534646308,
    (0.9, 1.5): 5.299439244428081593782539,
    (0.5, -4.5): 0.1224848042738414175492255,
    (0.85, -15.0): 0.0119063702593664346375669,
    (0.4, 3.0): 14720446.20677528133226246,
}


def test_omega_is_one_for_beta_one():
    assert omega(1.0, 7.3) == 1.0
    assert omega(1.0, 1e-9) == 1.0


def test_omega_linear_weight():
    assert omega(2.0, 3.0) == pytest.approx(3.0, rel=1e-15)


def test_omega_half_power():
    assert omega(1.5, 1.0) == pytest.approx(1.1283791670955126, rel=1e-15)


def test_omega_array_input():
    t = np.array([0.5, 1.0, 2.0])
    vals = omega(1.5, t)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(1.0 / math.gamma(1.5))


@pytest.mark.parametrize("beta,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                    (math.nan, 1.0), (1.5, math.nan), (math.inf, 2.0),
                                    (1.5, [1.0, math.nan])])
def test_omega_domain_errors(beta, t):
    with pytest.raises(ValueError):
        omega(beta, t)


def test_ml_at_zero_is_exactly_one():
    for alpha in (0.05, 0.3, 0.5, 0.95, 1.0):
        assert mittag_leffler(alpha, 0.0) == 1.0


def test_ml_alpha_one_is_exp():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-14)
    for z in np.linspace(-20.0, 20.0, 17):
        if z == 0.0:
            continue
        assert mittag_leffler(1.0, float(z)) == pytest.approx(
            math.exp(z), rel=1e-12)


def test_ml_matches_frozen_oracle_values():
    # absolute certification for alternating arguments, relative for positive
    for (alpha, z), expected in ORACLE_VALUES.items():
        assert mittag_leffler(alpha, z) == pytest.approx(
            expected, rel=5e-14, abs=1e-13)


def test_frozen_values_reproduce_from_oracle():
    # belt and braces: the literals above come from this very computation
    for (alpha, z), expected in ORACLE_VALUES.items():
        ref = float(mpmath_ml(alpha, z, dps=60, terms=1200))
        assert ref == pytest.approx(expected, rel=1e-20, abs=1e-22)


def test_ml_live_oracle_deep_cancellation():
    # alternating arguments where plain double summation loses everything
    for alpha, z in [(0.6, -4.0), (0.8, -9.0), (1.0, -18.0), (0.45, -3.0)]:
        ref = float(mpmath_ml(alpha, z))
        assert mittag_leffler(alpha, z) == pytest.approx(ref, abs=5e-14)


def test_ml_monotone_in_z():
    for alpha in (0.3, 0.5, 0.9, 1.0):
        # keep E_alpha(z) ~ exp(z**(1/alpha)) in double range; z**(1/alpha)
        # passes 40, where the log series gives way to its asymptotic form
        z_hi = 0.9 * 708.0 ** alpha
        zs = np.linspace(0.0, z_hi, 30)
        vals = [mittag_leffler(alpha, float(z)) for z in zs]
        assert np.all(np.diff(vals) > 0.0)


def test_ml_decay_profile_in_unit_interval():
    # z = -lambda t^alpha: values in (0, 1], decreasing in t
    for alpha in (0.3, 0.5, 0.7, 0.95):
        ts = np.linspace(0.0, 1.0, 41)
        vals = [mittag_leffler(alpha, -2.0 * t ** alpha) for t in ts]
        assert vals[0] == 1.0
        assert np.all(np.array(vals) > 0.0)
        assert np.all(np.array(vals) <= 1.0)
        assert np.all(np.diff(vals) < 0.0)


def test_ml_raises_outside_certified_cancellation_range():
    with pytest.raises(NonConvergenceError):
        mittag_leffler(0.3, -3.0)  # would need ~40 digits


def test_ml_raises_when_intermediate_terms_overflow():
    # the alternating terms of E_1(-705) pass e^700: their rounding noise is
    # far past the certified precision, so the cancellation refusal applies
    with pytest.raises(NonConvergenceError,
                       match=r"cancellation for alpha=1\.0, z=-705\.0 exceeds the "
                             r"certified precision: estimated noise \d\.\d\de\+\d+ >"):
        mittag_leffler(1.0, -705.0)


def _ln_terms(alpha, z, count=3001):
    """ln t_k = k ln z - ln Gamma(1 + alpha k), k = 0..count-1, for z > 0."""
    return [k * math.log(z) - math.lgamma(1.0 + alpha * k) for k in range(count)]


def _positive_bound(alpha, z):
    """The stated relative accuracy on a positive argument, 4 eps max(1, ln t_max)."""
    return 4.0 * 2.0 ** -52 * max(1.0, max(_ln_terms(alpha, z)))


def test_ml_alpha_one_up_to_the_double_range():
    # e^705 and e^709 are doubles: returned, not refused
    for z in (705.0, 709.0):
        assert mittag_leffler(1.0, z) == pytest.approx(
            math.exp(z), rel=_positive_bound(1.0, z))
    with pytest.raises(NonConvergenceError):
        mittag_leffler(1.0, 710.0)  # e^710 is past the largest double


def test_ml_refuses_a_positive_sum_only_when_it_overflows():
    # log DBL_MAX = 709.78: e^709.7 is a double, e^709.8 is not; no term cap
    # refuses a positive argument first
    assert mittag_leffler(1.0, 709.7) == pytest.approx(
        math.exp(709.7), rel=_positive_bound(1.0, 709.7))
    with pytest.raises(NonConvergenceError,
                       match=r"E_alpha\(z\) exceeds the double range for alpha=1\.0, "
                             r"z=709\.8"):
        mittag_leffler(1.0, 709.8)


@pytest.mark.parametrize("alpha, z", [(1.0, 1.0), (1.0, 10.0), (1.0, 200.0),
                                      (1.0, 690.0), (0.9, 100.0), (0.7, 10.0),
                                      (0.5, 10.0), (0.3, 3.0), (0.3, 0.1),
                                      (0.5, 26.0), (0.7, 20.0)])
def test_ml_positive_relative_accuracy(alpha, z):
    # the docstring's bound against the 40-digit series, summed past the
    # peak until the terms fall 100 below the largest
    mpmath = pytest.importorskip("mpmath")
    ln_t = _ln_terms(alpha, z)
    peak = int(np.argmax(ln_t))
    terms = next(k for k in range(peak, len(ln_t)) if ln_t[k] < ln_t[peak] - 100.0)
    ref = mpmath_ml(alpha, z, dps=40, terms=terms + 1)
    with mpmath.workdps(40):
        rel = float(abs(mpmath.mpf(mittag_leffler(alpha, z)) / ref - 1))
    assert rel <= _positive_bound(alpha, z), rel


def test_ml_gate_refuses_what_max_terms_refused():
    # the alternating terms of E_0.3(-10) peak near k = 10**(1/0.3) / 0.3,
    # past the 2000 the former series took; their absolute values sum to
    # E_0.3(10), about e^2155, far past the gate of e^35. E_0.3(10) itself is
    # refused only for the double range
    with pytest.raises(NonConvergenceError,
                       match=r"cancellation for alpha=0\.3, z=-10\.0 exceeds the "
                             r"certified precision"):
        mittag_leffler(0.3, -10.0)
    with pytest.raises(NonConvergenceError, match="exceeds the double range"):
        mittag_leffler(0.3, 10.0)


def test_ml_refusal_never_prints_inf():
    # log E_0.5(1e200) leaves the double range, and so would its noise
    for alpha, z in [(0.5, -1e200), (1.0, -1e300), (0.3, -10.0)]:
        with pytest.raises(NonConvergenceError) as info:
            mittag_leffler(alpha, z)
        assert "inf" not in str(info.value)
        assert str(info.value).startswith(
            f"cancellation for alpha={alpha}, z={z} exceeds the certified precision")


def test_ml_small_alpha_past_the_former_term_cap():
    # 2000 terms of E_0.01(-1) did not reach the end of its series; the
    # contour needs none
    assert abs(mittag_leffler(0.01, -1.0) - _oracle(0.01, -1.0)) <= 1e-14


def test_ml_near_one_keeps_the_last_bits():
    # the contour sums E_alpha(-x) - 1 and adds the 1 exactly: the plain sum
    # of s^(alpha-1) / (s^alpha + x) errs by up to 7.4e-15 here
    for alpha in (0.05, 0.3, 0.5, 0.9, 1.0):
        xs = np.geomspace(1e-8, 1e-2, 9)
        got = mittag_leffler(alpha, -xs)
        ref = np.array([_oracle(alpha, -x) for x in xs])
        err = np.abs(got - ref)
        assert err.max() <= 4.4e-16, (alpha, xs[err.argmax()], err.max())


@pytest.mark.parametrize("alpha, z", [(0.074, -1.2923), (0.5, -5.742),
                                      (1.0, -33.32)])
def test_ml_former_extreme_accepted_points(alpha, z):
    # the largest |z| the series-and-contour path accepted at these alpha;
    # 0.074 had the largest log E_alpha(|z|), 34.62, under the gate of 35
    assert abs(mittag_leffler(alpha, z) - _oracle(alpha, z)) <= 1e-14


def test_ml_negative_axis_stays_in_unit_interval():
    # 0 < E_alpha(-x) <= 1 for alpha in (0, 1]; near the gate at alpha = 1
    # the contour's absolute error once gave E_1(-33.32) = -2.4e-15. The grid
    # runs from x = 1e-12 to the gate, refined between its last two points
    for alpha in np.linspace(0.001, 1.0, 41):
        xs = np.geomspace(1e-12, 40.0, 200)
        last = np.flatnonzero(_log_ml(alpha, xs) <= _MAX_LOG_ABS)[-1]
        edge = np.linspace(xs[last], xs[last + 1], 60)
        x = np.concatenate([xs[:last + 1], edge[_log_ml(alpha, edge) <= _MAX_LOG_ABS]])
        got = mittag_leffler(alpha, -x)
        assert np.all((got >= 0.0) & (got <= 1.0)), (alpha, x[np.argmin(got)])
    assert mittag_leffler(1.0, -33.32) >= 0.0 and mittag_leffler(1.0, -32.887) >= 0.0


def _log_series(alpha, x, bits=256):
    """log E_alpha(x) for x > 0 and a Fraction alpha = p/q from its series,
    in integers scaled by 2^bits. Along each residue r of k mod q,
    Gamma(1 + alpha k) steps by Gamma(a + p) = Gamma(a) a (a + 1) ... (a + p - 1),
    so mpmath's gamma runs once per residue, not per term, and alpha = 1/1000
    costs integer products alone; a residue stops once its terms fall 2^-128
    below its largest, which log-concave terms never climb back from."""
    mpmath = pytest.importorskip("mpmath")
    p, q = alpha.numerator, alpha.denominator
    with mpmath.workdps(2 * bits // 3):
        x, one = mpmath.mpf(x), mpmath.mpf(2) ** bits
        x_q, total = int(x ** q * one), 0
        for r in range(q):
            t = top = int(x ** r / mpmath.gamma(1 + mpmath.mpf(p * r) / q) * one)
            j = 0
            while t > top >> 128:
                total += t
                top = max(top, t)
                den = math.prod(q + p * r + q * (p * j + i) for i in range(p))
                t = (t * x_q >> bits) * q ** p // den
                j += 1
        return mpmath.log(mpmath.mpf(total) / one)


def _gate_edge(alpha):
    """The largest x whose log E_alpha(x) series passes the gate."""
    lo, hi = ((_MAX_LOG_ABS + d + math.log(alpha)) ** alpha
              for d in (-specialfn._BOUND_MARGIN, specialfn._BOUND_MARGIN))
    while _log_ml(alpha, np.array([hi]))[0] <= _MAX_LOG_ABS:
        lo, hi = hi, 2.0 * hi - lo
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if _log_ml(alpha, np.array([mid]))[0] <= _MAX_LOG_ABS:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("alpha", [Fraction(1, 1000), Fraction(1, 100), Fraction(1, 10),
                                   Fraction(3, 10), Fraction(1, 2), Fraction(9, 10),
                                   Fraction(1)], ids=str)
def test_log_ml_bound_holds_against_the_series_oracle(alpha):
    # log E_alpha(x) <= x^(1/alpha) - ln alpha, with equality at alpha = 1,
    # from x = 0.1 up to the gate's edge, where the bound lies within 1e-12
    # of log E, far inside the margin that lets it clear the gate
    mpmath = pytest.importorskip("mpmath")
    edge = _gate_edge(float(alpha))
    for x in (0.1, 0.5 * edge, 0.9 * edge, edge):
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha.numerator) / alpha.denominator
            gap = float(mpmath.mpf(x) ** (1 / a) - mpmath.log(a) - _log_series(alpha, x))
        if alpha == 1:
            assert abs(gap) < 1e-30, (x, gap)
        else:
            assert gap > 0.0, (alpha, x, gap)
    assert gap < 1e-12, (alpha, gap)


def test_log_ml_exceeds_the_bound_only_by_rounding():
    # the summed log E passes x^(1/alpha) - ln alpha by rounding alone, as
    # _front forms the bound, from x = 1e-8 to just past the gate: 3e-14 at
    # most, far inside the margin of 1e-6
    for alpha in np.linspace(0.001, 1.0, 41):
        x = np.geomspace(1e-8, 38.0 - math.log(alpha), 200) ** alpha
        excess = _log_ml(alpha, x) - (x ** (1.0 / alpha) - math.log(alpha))
        assert excess.max() <= 3e-14, (alpha, x[excess.argmax()], excess.max())
    assert specialfn._BOUND_MARGIN >= 1e7 * 3e-14


@pytest.mark.parametrize("alpha, sliver", [(0.01, 3.4e-10), (0.3, None), (0.5, 8.5e-8),
                                           (0.9, None), (1.0, 1e-6)])
def test_ml_accepts_exactly_where_the_series_passes_the_gate(alpha, sliver):
    # the bound clears every x up to its limit without the series; across the
    # sliver from there to the edge and past it, the series still decides, so
    # the edge is where it was
    limit = (_MAX_LOG_ABS - specialfn._BOUND_MARGIN + math.log(alpha)) ** alpha
    edge = _gate_edge(alpha)
    if sliver is not None:
        assert edge - limit == pytest.approx(sliver, rel=0.05)
    x = np.linspace(limit - (edge - limit), edge + (edge - limit), 301)
    x = np.concatenate([x, np.nextafter(edge, [0.0, math.inf])])
    passes = (_log_ml(alpha, x) <= _MAX_LOG_ABS).tolist()
    assert passes.count(True) > 150 and passes.count(False) > 50
    scalar = [_outcome(lambda: mittag_leffler(alpha, -v)) for v in x]
    assert [not isinstance(r, Exception) for r in scalar] == passes
    accepted = -x[np.array(passes)]
    assert mittag_leffler(alpha, accepted).tolist() == [r for r in scalar
                                                        if not isinstance(r, Exception)]


def test_bound_moves_no_bit_and_no_refusal(monkeypatch):
    # over 60 alpha, scalar and array calls give the series-only path's bits
    # and refusal texts (an infinite margin lets the bound clear nothing),
    # and so do a few alpha below _LONG_SERIES_ALPHA, where the series alone
    # decides; 1e-6 refuses z = -1 as too long, which the bound would clear
    rng = np.random.default_rng(32)
    cases = [(alpha, 10.0 ** rng.uniform(-8, 2, 20)) for alpha in np.geomspace(1e-3, 1.0, 60)]
    cases = [(alpha, np.concatenate([-z, z])) for alpha, z in cases]
    cases += [(1e-6, np.array([-0.5, -0.9])), (3e-6, np.array([-0.99])),
              (6.6e-6, np.array([-0.999]))]

    def outcomes():
        got = []
        for alpha, z in cases:
            for v in z:
                got.append(_outcome(lambda: mittag_leffler(alpha, v)))
            accepted = [v for v, r in zip(z, got[-len(z):]) if not isinstance(r, Exception)]
            for arr in (z, z[::-1].reshape(-1, 1), np.array(accepted)):
                got.append(_outcome(lambda: mittag_leffler(alpha, arr)))
        return [(type(r).__name__, str(r)) if isinstance(r, Exception)
                else np.asarray(r).tobytes() for r in got]

    with_bound = outcomes()
    assert sum(isinstance(r, tuple) for r in with_bound) > 100
    monkeypatch.setattr(specialfn, "_BOUND_MARGIN", math.inf)
    assert outcomes() == with_bound
    monkeypatch.undo()
    with pytest.raises(NonConvergenceError, match="series too long"):
        mittag_leffler(1e-6, -1.0)


def _refusal(f, alpha, z):
    try:
        f(alpha, z)
    except (ValueError, NonConvergenceError) as exc:
        return exc
    raise AssertionError(f"{f.__name__}({alpha}, {z!r}) was accepted")


# an argument at alpha = 0.5 inside the sliver, half the bound's margin
# below the gate: the bound does not clear it, so its series decides it
SLIVER = -math.sqrt(_MAX_LOG_ABS - specialfn._BOUND_MARGIN / 2 + math.log(0.5))

# at alpha = 0.5, one argument per refusal kind, and the start of its text;
# 0.75 and SLIVER stand for a series too long (_log_ml is patched to give nan
# there), which a real argument reaches only at alpha below 6.7e-6
REFUSALS = {
    mittag_leffler: {
        math.nan: "z must be finite", math.inf: "z must be finite",
        -math.inf: "z must be finite", 30.0: "E_alpha(z) exceeds the double range",
        -10.0: "cancellation", 0.75: "series too long", SLIVER: "series too long"},
    log_mittag_leffler: {
        math.nan: "z must be finite", math.inf: "z must be finite",
        -math.inf: "log_mittag_leffler requires z >= 0",
        -1.0: "log_mittag_leffler requires z >= 0",
        1e300: "log E_alpha(z) exceeds the double range", 0.75: "series too long"},
}


@pytest.mark.parametrize("f", list(REFUSALS), ids=lambda f: f.__name__)
def test_arrays_raise_the_first_refusal_in_c_order(f, monkeypatch):
    # an array raises what its first refused element in C order raises alone,
    # whatever the kinds of the others and wherever accepted elements sit
    log_ml = specialfn._log_ml
    monkeypatch.setattr(specialfn, "_log_ml", lambda alpha, z: np.where(
        np.isin(z, (0.75, -SLIVER)), math.nan, log_ml(alpha, z)))
    alone = {z: _refusal(f, 0.5, z) for z in REFUSALS[f]}
    for z, start in REFUSALS[f].items():
        assert str(alone[z]).startswith(start), (z, alone[z])
    ok = 0.2 if f is log_mittag_leffler else -0.2
    for a, b in itertools.permutations(REFUSALS[f], 2):
        for z in (np.array([0.3, a, ok, b, 1.0]), np.array([[0.3, a], [b, ok]]),
                  np.asfortranarray([[ok, a], [b, 0.3]])):
            got = _refusal(f, 0.5, z)
            assert type(got) is type(alone[a]) and str(got) == str(alone[a]), (a, b)


def test_ml_rejects_bad_alpha():
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, 1.0)


def test_log_ml_matches_direct_for_moderate_arguments():
    for alpha in (0.3, 0.5, 0.9):
        for z in (0.3, 1.0, 4.0):
            assert log_mittag_leffler(alpha, z) == pytest.approx(
                math.log(mittag_leffler(alpha, z)), rel=1e-12)
    assert log_mittag_leffler(0.5, 0.0) == 0.0


def test_log_ml_handles_huge_values():
    # frozen 40-digit references; both exceed double range as plain values
    assert log_mittag_leffler(0.3, 10.0) == pytest.approx(
        2155.6386628362097, rel=1e-12)
    assert log_mittag_leffler(0.5, 20.0) == pytest.approx(
        400.0 + math.log(2.0), rel=1e-12)


def test_log_ml_rejects_negative():
    with pytest.raises(ValueError):
        log_mittag_leffler(0.5, -1.0)


def test_series_too_long_is_refused_once_its_terms_fall():
    # the terms peak near k = 4.6e5; once they fall, the term at k = 2**24
    # decides the refusal, with no rows built past 2**19 + 1 terms
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError, match="series too long"):
        log_mittag_leffler(1e-6, 1.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("alpha,root", [(0.1, 40.0), (0.1, 200.0), (0.3, 55.0),
                                        (0.5, 40.0), (0.5, 100.0), (0.8, 70.0),
                                        (1.0, 40.0), (1.0, 200.0)])
def test_log_ml_asymptotic_matches_series_oracle(alpha, root):
    # from z^(1/alpha) = 40 on the value is z^(1/alpha) - log(alpha); the
    # series oracle runs 3.5 z^(1/alpha)/alpha terms, past where they fall e^-75
    mpmath = pytest.importorskip("mpmath")
    z = root ** alpha
    ref = mpmath.log(mpmath_ml(alpha, z, dps=40, terms=int(3.5 * root / alpha)))
    assert abs(log_mittag_leffler(alpha, z) - float(ref)) <= 2.0 * math.ulp(float(ref))


def test_log_ml_asymptotic_edges():
    # below z^(1/alpha) = 40 the series keeps its values exactly. Re-pinned
    # when the term logs took libm's lgamma: each value moved by at most an
    # ulp, and each lies within 2 ulp of the 40-digit series
    for alpha, z, value in [(0.1, 1.4, 31.22805059059398),
                            (0.3, 3.0, 40.14471120262598),
                            (0.5, 6.3, 40.38314718055994),
                            (1.0, 39.5, 39.5)]:
        assert log_mittag_leffler(alpha, z) == value
    assert log_mittag_leffler(1.0, 60.0) == 60.0
    # the series refused this one after building rows of 2**24 terms
    assert log_mittag_leffler(0.1, 4.4) == 4.4 ** 10 - math.log(0.1)
    for alpha, z in [(0.1, 1e31), (0.5, 1e200)]:
        with pytest.raises(NonConvergenceError, match="double range"):
            log_mittag_leffler(alpha, np.array([1.0, z]))


def _refusal_edge(alpha):
    """Largest x (to 1e-9) with E_alpha(-x) accepted; refused beyond it."""
    lo, hi = 0.0, 100.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        try:
            mittag_leffler(alpha, -mid)
            lo = mid
        except NonConvergenceError:
            hi = mid
    return lo


def _oracle(alpha, z):
    """mpmath_ml with enough digits to absorb the cancellation and enough
    terms to pass the peak and fall below 1e-30."""
    ln_abs = math.log(abs(z))
    ln_t = [k * ln_abs - math.lgamma(1.0 + alpha * k) for k in range(1, 20000)]
    peak = int(np.argmax(ln_t))
    terms = next(k for k in range(peak, len(ln_t)) if ln_t[k] < -70.0) + 2
    return float(mpmath_ml(alpha, z, dps=30 + int(max(ln_t) / 2.3), terms=terms))


def test_ml_array_matches_oracle_up_to_refusal_edge():
    # x runs up to the refusal edge, past the 2000 terms the former series
    # took at alpha = 0.01
    for alpha in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0):
        edge = _refusal_edge(alpha)
        xs = np.linspace(0.05, edge, 10)
        got = mittag_leffler(alpha, -xs)
        ref = np.array([_oracle(alpha, -x) for x in xs])
        err = np.abs(got - ref)
        assert err.max() <= 1e-14, (alpha, xs[err.argmax()], err.max())


def _outcome(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return exc


def test_ml_array_agrees_with_scalar_loop():
    rng = np.random.default_rng(7)
    mixed = rng.permutation(np.concatenate(
        [-np.geomspace(1e-3, 40.0, 60), np.geomspace(1e-3, 30.0, 29), [0.0, -0.0]]))
    for alpha in (0.3, 0.7, 1.0):
        ok = [z for z in mixed
              if not isinstance(_outcome(lambda: mittag_leffler(alpha, z)),
                                Exception)]
        cases = [mixed.reshape(7, 13), np.array(ok),
                 np.insert(ok, len(ok) // 2, math.nan),
                 np.insert(ok, len(ok) // 3, -1e3), np.array([math.inf, -1e3])]
        for z in cases:
            scalar = []
            for v in z.ravel():
                scalar.append(_outcome(lambda: mittag_leffler(alpha, float(v))))
                if isinstance(scalar[-1], Exception):
                    break
            got = _outcome(lambda: mittag_leffler(alpha, z))
            if isinstance(scalar[-1], Exception):
                assert type(got) is type(scalar[-1]), (alpha, got, scalar[-1])
                assert str(got) == str(scalar[-1])
            else:
                assert got.shape == z.shape
                assert np.array_equal(got.ravel(), scalar)


def test_ml_scalar_argument_returns_float():
    for z in (-1.0, np.float64(-1.0), np.array(-1.0), 0.0):
        assert type(mittag_leffler(0.5, z)) is float
        assert type(log_mittag_leffler(0.5, abs(z))) is float
    assert mittag_leffler(0.5, np.array([-1.0])).shape == (1,)


def test_log_ml_array_agrees_with_scalar_loop():
    z = np.array([[0.0, 0.3, 4.0], [20.0, 1e-3, 10.0]])
    for alpha in (0.3, 0.5, 0.9):
        got = log_mittag_leffler(alpha, z)
        assert got.shape == z.shape
        assert np.array_equal(got.ravel(),
                              [log_mittag_leffler(alpha, float(v)) for v in z.ravel()])
    with pytest.raises(ValueError):
        log_mittag_leffler(0.5, np.array([1.0, -1.0]))


def _log_ml_first_width_1025(alpha, z):
    """log E_alpha(z) as the series once took it: rows of 1,025 terms
    (k = 0..1024), doubled until the last lies 45 below the largest. Returns
    the value and the last k of the row that ended the doubling."""
    k_hi = 1024
    while True:
        k = np.arange(k_hi + 1, dtype=float)
        ln_t = k * math.log(z) - [math.lgamma(1.0 + alpha * kk) for kk in k]
        m = ln_t.max()
        if ln_t[-1] < m - 45.0:
            return m + math.log(np.exp(ln_t - m).sum()), k_hi
        k_hi *= 2


def test_log_ml_first_width_drift_is_bounded():
    # the series now starts at 65 terms; a shorter row drops terms below
    # exp(-45) of the sum and sums in another order, so a value may move by
    # an ulp or two, and a row that still doubles past 1,024 terms ends at the
    # width it had and keeps its bits
    sweep = [(alpha, np.geomspace(1e-6, 39.99, 300) ** alpha)
             for alpha in np.linspace(0.1, 1.0, 19)]
    sweep += [(alpha, np.linspace(30.0, 39.99, 40) ** alpha)
              for alpha in (0.1, 0.11, 0.12)]
    long_rows = 0
    for alpha, z in sweep:
        got = log_mittag_leffler(alpha, z)
        for zi, value in zip(z, got):
            ref, k_hi = _log_ml_first_width_1025(alpha, zi)
            assert abs(value - ref) <= 2.0 * np.spacing(abs(ref)), (alpha, zi)
            if k_hi > 1024:
                long_rows += 1
                assert value == ref, (alpha, zi)
    assert long_rows >= 20


def test_log_is_libm_log_bit_for_bit():
    # the series takes logs as scipy's xlogy(1, x) did: libm's log
    scipy_special = pytest.importorskip("scipy.special")
    x = np.geomspace(5e-324, 1.7e308, 20011)
    assert np.array_equal(_log(x), scipy_special.xlogy(1.0, x))
    assert _log(x).tolist() == [math.log(v) for v in x.tolist()]


def test_lgamma_grids_are_cached_read_only_libm_values():
    grid = _lgamma_grid(0.37, 65)
    assert grid is _lgamma_grid(0.37, 65)
    assert _lgamma_grid.cache_info().maxsize is not None
    assert not grid.flags.writeable
    assert grid.tolist() == [math.lgamma(1.0 + 0.37 * k) for k in range(65)]
