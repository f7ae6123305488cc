"""The weakly singular kernel omega_beta and the Mittag-Leffler function."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "omega",
    "mittag_leffler",
    "log_mittag_leffler",
    "NonConvergenceError",
]


class NonConvergenceError(ArithmeticError):
    """The series cannot be summed to the certified accuracy."""


# Certified absolute accuracy of mittag_leffler on negative arguments, and
# the gate on log E_alpha(x) past which E_alpha(-x) is refused: 35 sits just
# above 34.62 (alpha = 0.074, x = 1.2924), the largest value over 500 alpha
# in (0, 1] that the alternating series and its noise estimate accepted.
_ABS_TOL = 1e-14
_MAX_LOG_ABS = 35.0

# For 0 < alpha < 1, E_alpha(x) = exp(x^(1/alpha)) / alpha minus an integral
# of e^(-r x^(1/alpha)) against a nonnegative kernel (Gorenflo, Kilbas,
# Mainardi & Rogosin, Mittag-Leffler Functions, Related Topics and
# Applications, Springer 2014), so log E_alpha(x) <= x^(1/alpha) - ln alpha,
# with equality at alpha = 1; at each edge of the gate the two lie within
# 1e-12. A negative argument whose bound lies this far below the gate passes
# it without its series: the margin is far above the rounding of either side
# (the summed log E has been seen 2.1e-14 above the bound).
_BOUND_MARGIN = 1e-6

# Below this alpha a series within the double range may need more than 2**24
# terms, and its refusal must stand, so the series decides every argument.
_LONG_SERIES_ALPHA = 6.7e-6

# Term matrices are built at most this many entries at a time, so scratch
# stays bounded however many arguments one call evaluates.
_BLOCK_ENTRIES = 1 << 15

# Parabolic contour s = mu (1 + iu)^2 with mu = pi n / 12 and step h = 3 / n
# for the Bromwich integral of s^(alpha-1) / (s^alpha + x) at t = 1
# (Weideman & Trefethen, Math. Comp. 76, 2007). The nodes u = kh, k = -n..n,
# come in conjugate pairs, so k >= 0 with doubled weights suffices.
# Against the mpmath series oracle, over 34 alpha in [0.001, 1] and x from
# 1e-8 up to the refusal gate, the contour sum errs by at most 5.4e-15, within
# _ABS_TOL, and by at most 2.2e-16 for x <= 1e-2. It is rounding, not truncation: n = 16
# and n = 20 do no better.
_CONTOUR_N = 18


def _contour_nodes(n: int):
    mu, h = math.pi * n / 12.0, 3.0 / n
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    weights = np.where(u == 0.0, 1.0, 2.0) * (h * mu / math.pi)
    return s, weights * np.exp(s) * (1.0 + 1j * u)  # ds = 2i mu (1 + iu) du


_CONTOUR_S, _CONTOUR_W = _contour_nodes(_CONTOUR_N)


def _log(x: np.ndarray) -> np.ndarray:
    """libm's log of each element of a 1-D array, as math.log, so array and
    scalar arguments get the same bits; numpy's vectorised log can differ by
    an ulp."""
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


# Longest k grid _lgamma_grid keeps: a row this wide is already 2**16 terms of
# work, and caching every doubling up to 2**24 would hold hundreds of MB.
_LGAMMA_CACHE_WIDTH = 2 ** 16 + 1


@lru_cache(maxsize=64)
def _lgamma_grid(alpha: float, width: int) -> np.ndarray:
    """Read-only ln Gamma(1 + alpha k) for k = 0..width-1, libm's lgamma."""
    lg = np.fromiter((math.lgamma(1.0 + alpha * k) for k in range(width)),
                     float, width)
    lg.flags.writeable = False
    return lg


def omega(beta, t):
    """omega_beta(t) = t**(beta-1) / Gamma(beta) for beta > 0 and t > 0.

    Accepts scalars or arrays in ``t``; omega_1 is identically 1.
    """
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError("omega_beta requires t > 0")
    out = t_arr ** (beta - 1.0) / math.gamma(beta)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _singular_average(alpha: float, h):
    """(1/h) int_0^h omega_{1-alpha} = omega_{2-alpha}(h)/h, the exact L1
    diagonal, as h^-alpha / Gamma(2 - alpha) for an array h: the exponent is
    exact, where omega's h^(1-alpha) would carry the rounding of 1 - alpha.
    Kernel tables and the fast L1 history share it, so their diagonals agree
    bit for bit."""
    return h ** -alpha / math.gamma(2.0 - alpha)


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _check_order(alpha) -> float:
    """The fractional order of a discrete Caputo derivative as a float in
    (0, 1); NaN is refused."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _ml_contour(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) for x > 0 as 1 - x sum W / (S (S^alpha + x)): the contour
    sum of s^(alpha-1) / (s^alpha + x) = 1/s - x / (s (s^alpha + x)) with
    (1/2 pi i) int e^s / s ds = 1 taken exactly, so a value near 1 keeps its
    last bits. No alternating terms, so no cancellation. Clipped to [0, 1],
    the range of E_alpha(-x), which never adds error."""
    sa = _CONTOUR_S ** alpha
    out = np.empty(len(x))
    step = _BLOCK_ENTRIES // len(sa)
    for r0 in range(0, len(x), step):
        xb = x[r0:r0 + step]
        terms = _CONTOUR_W / (_CONTOUR_S * (sa + xb[:, None]))
        out[r0:r0 + step] = 1.0 - xb * terms.sum(axis=1).real
    return np.clip(out, 0.0, 1.0, out=out)


def _front(alpha, z):
    """alpha checked, z as an array, z flattened in C order, the mask of its
    negative elements and log E_alpha(|z|) of every element: the one pass
    both public functions share.

    A negative element whose bound |z|^(1/alpha) - ln alpha lies at most
    35 - _BOUND_MARGIN gets -inf in place of its series, as it passes the
    gate. The series still runs for z >= 0, NaN, the sliver between that
    limit and the edge, every argument past the edge and every alpha below
    _LONG_SERIES_ALPHA, so the gate's edge, the accepted values and the
    refusals are those of the series alone, bit for bit."""
    alpha = _check_alpha(alpha)
    z_arr = np.asarray(z, dtype=float)
    flat = z_arr.ravel()
    x, neg = np.abs(flat), flat < 0.0
    if not np.count_nonzero(neg) or alpha < _LONG_SERIES_ALPHA:
        return alpha, z_arr, flat, neg, _log_ml(alpha, x)
    with np.errstate(over="ignore"):
        bound = x[neg] ** (1.0 / alpha) - math.log(alpha)
    summed = ~neg
    summed[neg] = ~(bound <= _MAX_LOG_ABS - _BOUND_MARGIN)
    log_abs = np.full(len(flat), -math.inf)
    log_abs[summed] = _log_ml(alpha, x[summed])
    return alpha, z_arr, flat, neg, log_abs


def _accepted(alpha: float, z_arr, log_abs, out, ok, log: bool):
    """``out`` shaped as ``z_arr`` (a float for a scalar) if ``ok`` holds for
    every element, else the refusal of the first element in C order where it
    does not: ValueError for a non-finite z (or z < 0 for log E), and
    NonConvergenceError for a series too long (log_abs nan), a value past the
    double range (z >= 0) or the gate (z < 0)."""
    if not ok.all():
        i = int(np.argmin(ok))
        z, log_e = float(z_arr.flat[i]), log_abs[i]
        if log and z < 0.0:
            raise ValueError("log_mittag_leffler requires z >= 0")
        if not math.isfinite(z):
            raise ValueError(f"z must be finite, got {z}")
        if math.isnan(log_e):
            raise NonConvergenceError(f"series too long for alpha={alpha}, z={z}")
        if z >= 0.0:
            raise NonConvergenceError(f"{'log ' if log else ''}E_alpha(z) exceeds "
                                      f"the double range for alpha={alpha}, z={z}")
        # abs_tol E_alpha(|z|) / e^35 passes abs_tol where the gate does; never inf
        with np.errstate(over="ignore"):
            noise = _ABS_TOL * np.exp(log_e - _MAX_LOG_ABS)
        noise = f"{noise:.2e}" if noise < math.inf else "past the double range"
        raise NonConvergenceError(
            f"cancellation for alpha={alpha}, z={z} exceeds the certified precision: "
            f"estimated noise {noise} > abs_tol {_ABS_TOL:.2e}")
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def mittag_leffler(alpha: float, z):
    """E_alpha(z) = sum_k z**k / Gamma(1 + k*alpha) for alpha in (0, 1].

    ``z`` may be a scalar (a float is returned) or an array (an array of the
    same shape is returned). Each element is evaluated on its own, so an
    array gives exactly the values of a loop of scalar calls, and it raises
    what the first failing element in C order would raise.

    A positive argument is exp(log E_alpha(z)), the log-domain sum of
    log_mittag_leffler, refused (NonConvergenceError) only where that value
    leaves the double range, log E_alpha(z) > log(DBL_MAX) = 709.78 (E_1 up
    to z = 709.78, E_0.5 up to 26.6), or where alpha < 6.7e-6 and its series
    would need more than 2**24 terms. Its relative error, the rounding of
    log E_alpha(z) magnified by exp, is at most 4 eps max(1, ln t_max), t_max
    the largest term, eps = 2^-52: 40-digit values show 3.5e-15 at alpha = 1,
    z = 10 and 2.9e-13 at alpha = 0.9, z = 300.

    A negative argument E_alpha(-x) is a trapezoid sum on a parabolic
    Bromwich contour, certified to 1e-14 absolute (2.2e-16 for x <= 1e-2)
    and clipped to [0, 1]; where E_alpha(-x) is tiny, no relative digits are
    promised. Its alternating series has absolute terms that sum to
    E_alpha(x), so log E_alpha(x) measures its cancellation: where it exceeds
    35 the argument is refused (NonConvergenceError) rather than given
    unverified digits, as is one whose log E_alpha(x) series is too long. The
    edge lies at x = 5.857 for alpha = 0.5, 35.0 for alpha = 1 and 1.035 for
    alpha = 0.01. These settings are fixed. Most accepted arguments pass the
    gate without that sum: log E_alpha(x) <= x^(1/alpha) - ln alpha, equal at
    alpha = 1, and where this bound lies 1e-6 or more below 35 (for
    alpha >= 6.7e-6) the argument goes straight to the contour. The sum still
    decides the sliver from there to the edge (8.5e-8 wide at alpha = 0.5,
    1e-6 at alpha = 1) and every argument past it, so the edge did not move.
    """
    alpha, z_arr, flat, neg, log_abs = _front(alpha, z)
    with np.errstate(over="ignore"):
        out = np.exp(log_abs)
    ok = np.isfinite(flat) & np.where(neg, log_abs <= _MAX_LOG_ABS, out < math.inf)
    gated = neg & ok
    if gated.any():
        out[gated] = _ml_contour(alpha, -flat[gated])
    return _accepted(alpha, z_arr, log_abs, out, ok, log=False)


def _log_ml(alpha: float, z: np.ndarray) -> np.ndarray:
    """log_mittag_leffler of a 1-D array of z >= 0, with inf where z or
    log E itself leaves the double range and nan where the series would
    need more than 2**24 terms, in place of the refusals (0 for a nan z)."""
    out = np.where(z > 0.0, math.nan, 0.0)  # nan until a row is summed
    with np.errstate(over="ignore"):
        root = z ** (1.0 / alpha)
    far = root >= 40.0
    out[far] = root[far] - math.log(alpha)
    todo = np.flatnonzero((z > 0.0) & ~far)
    _log_sums(alpha, _log(z[todo]), todo, 64, out)
    return out


def _log_sums(alpha: float, ln_z: np.ndarray, rows: np.ndarray, k_hi: int,
              out: np.ndarray) -> None:
    """Write log sum_k t_k, ln t_k = k ln z - ln Gamma(1 + alpha k) for
    k = 0..k_hi, to ``out[rows]`` (``ln_z`` is ln z of each row) for the rows
    whose last term lies 45 below their largest. The others go on to k_hi
    doubled, up to 2**24, block by block, so rows reach their last width in
    increasing order; past the cached widths, a row already past its largest
    term goes on only if its term at 2**24 lies 45 below that largest, as
    the widest row would decide.

    A row's outcome depends only on its own argument: every row meets the
    same widths in the same order, whatever else is in its block."""
    w = k_hi + 1
    k = np.arange(w, dtype=float)
    grid = _lgamma_grid if w <= _LGAMMA_CACHE_WIDTH else _lgamma_grid.__wrapped__
    lg = grid(alpha, w)
    step = max(1, _BLOCK_ENTRIES // w)
    for r0 in range(0, len(rows), step):
        block = slice(r0, r0 + step)
        ln_t = k * ln_z[block, None] - lg
        m = ln_t.max(axis=1)
        ok = ln_t[:, -1] < m - 45.0
        sums = np.exp(ln_t[ok] - m[ok, None]).sum(axis=1)
        out[rows[block][ok]] = m[ok] + _log(sums)
        if k_hi < 2 ** 24 and not ok.all():
            more = ~ok
            if 2 * k_hi + 1 > _LGAMMA_CACHE_WIDTH:
                # log-concave terms falling at the last index have their
                # final max, so a row whose term at k = 2**24 is not 45 below
                # it would be refused at that width: refuse it now (nan stays)
                last = 2.0 ** 24 * ln_z[block] - math.lgamma(1.0 + alpha * 2 ** 24)
                more &= ~((ln_t[:, -1] < ln_t[:, -2]) & ~(last < m - 45.0))
            if more.any():
                _log_sums(alpha, ln_z[block][more], rows[block][more], 2 * k_hi, out)


def log_mittag_leffler(alpha: float, z):
    """log E_alpha(z) for z >= 0, overflow-free; scalar or array ``z``, as
    mittag_leffler, and an array raises what the first failing element in
    C order would raise.

    All series terms are positive, so the sum is evaluated stably in the log
    domain; this covers arguments whose value exceeds the double range, as
    happens in Gronwall-envelope style bounds with small alpha. Each element
    takes 65 terms (k = 0..64), doubled until the last falls 45 below the
    largest; one that would need more than 2**24 raises NonConvergenceError.
    The terms are log-concave in k, so once the last of w + 1 terms lies 45
    below the largest, each later term is at least exp(45/w) times smaller
    than the one before, and the dropped tail is below (w/45) exp(-45) of the
    sum: 1.5 exp(-45) on the first row. From
    z**(1/alpha) = 40 on, the value is z**(1/alpha) - log(alpha): the rest of
    the asymptotic expansion lies below exp(-z**(1/alpha)) relative, and
    where z**(1/alpha) leaves the double range, NonConvergenceError is raised.
    """
    alpha, z_arr, flat, neg, log_abs = _front(alpha, z)
    ok = np.isfinite(flat) & ~neg & np.isfinite(log_abs)
    return _accepted(alpha, z_arr, log_abs, log_abs, ok, log=True)
