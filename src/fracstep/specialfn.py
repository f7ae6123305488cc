"""The weakly singular kernel omega_beta and the Mittag-Leffler function."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from . import _ddouble as dd


@lru_cache(maxsize=1 << 16)
def _lgamma_dd_cached(hi: float, lo: float):
    return dd.lgamma((hi, lo))

__all__ = [
    "omega",
    "mittag_leffler",
    "log_mittag_leffler",
    "MLEvalConfig",
    "NonConvergenceError",
]


class NonConvergenceError(ArithmeticError):
    """The series cannot be summed to the requested accuracy."""


@dataclass(frozen=True)
class MLEvalConfig:
    """Accuracy knobs for the Mittag-Leffler series."""

    abs_tol: float = 1e-14
    max_terms: int = 2000

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


_DEFAULT_CFG = MLEvalConfig()


def omega(beta, t):
    """omega_beta(t) = t**(beta-1) / Gamma(beta) for beta > 0 and t > 0.

    Accepts scalars or arrays in ``t``; omega_1 is identically 1.
    """
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise ValueError("omega_beta requires t > 0")
    out = t_arr ** (beta - 1.0) / math.gamma(beta)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _series_profile(alpha: float, ln_absz: float, cfg: MLEvalConfig):
    """Term magnitudes ln|t_k| for k = 1..max_terms and the index where the
    tail falls far enough below both the tolerance and the largest term."""
    k = np.arange(1, cfg.max_terms + 1, dtype=float)
    ln_t = k * ln_absz - gammaln(1.0 + alpha * k)
    ln_max = max(0.0, float(ln_t.max()))
    cut = math.log(cfg.abs_tol) - 45.0
    past_peak = np.flatnonzero((ln_t < cut) & (k > float(np.argmax(ln_t)) + 1))
    k_need = int(past_peak[0]) + 1 if len(past_peak) else None
    return ln_max, k_need


def _sum_plain(alpha: float, z: float, cfg: MLEvalConfig, k_max: int) -> float:
    ln_absz = math.log(abs(z))
    sign_flip = z < 0.0
    total = 1.0
    comp = 0.0
    streak = 0
    for k in range(1, k_max + 1):
        t = math.exp(k * ln_absz - math.lgamma(1.0 + alpha * k))
        if sign_flip and (k & 1):
            t = -t
        # Neumaier compensated accumulation
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        at = abs(t)
        if at < cfg.abs_tol and at <= abs(total + comp) * 1e-16:
            streak += 1
            if streak >= 3:
                return total + comp
        else:
            streak = 0
    raise NonConvergenceError(
        f"series for alpha={alpha}, z={z} not converged in {k_max} terms"
    )


def _sum_double_double(alpha: float, z: float, cfg: MLEvalConfig, k_max: int) -> float:
    ln_absz = dd.log(dd.from_float(abs(z)))
    sign_flip = z < 0.0
    total = dd.ONE
    streak = 0
    for k in range(1, k_max + 1):
        arg = dd.add_d(dd.mul_d(dd.from_float(alpha), float(k)), 1.0)
        ln_t = dd.sub(dd.mul_d(ln_absz, float(k)), _lgamma_dd_cached(*arg))
        t = dd.exp(ln_t)
        if sign_flip and (k & 1):
            t = dd.neg(t)
        total = dd.add(total, t)
        at = abs(dd.to_float(t))
        if at < cfg.abs_tol and at <= abs(dd.to_float(total)) * 1e-16:
            streak += 1
            if streak >= 3:
                return dd.to_float(total)
        else:
            streak = 0
    raise NonConvergenceError(
        f"series for alpha={alpha}, z={z} not converged in {k_max} terms"
    )


def _ml_envelope(alpha: float, mu: float, t) -> np.ndarray:
    """2 E_alpha(mu t^alpha) at each time in ``t``: the Gronwall and stability
    envelope factor."""
    return 2.0 * np.array([mittag_leffler(alpha, mu * tn ** alpha) for tn in t])


def mittag_leffler(alpha: float, z: float, cfg: MLEvalConfig = _DEFAULT_CFG) -> float:
    """E_alpha(z) = sum_k z**k / Gamma(1 + k*alpha) for alpha in (0, 1].

    Summation is compensated double arithmetic; once an alternating argument
    loses too many digits to cancellation the terms are recomputed and summed
    in double-double (~31 digits). The attainable absolute accuracy on
    negative arguments is therefore bounded by exp(|z|**(1/alpha)) * 1e-28;
    arguments beyond that certified range raise NonConvergenceError rather
    than return silently wrong digits. Large positive arguments whose value
    would overflow a double also raise; see log_mittag_leffler for those.
    """
    alpha = float(alpha)
    z = float(z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z == 0.0:
        return 1.0

    ln_max, k_need = _series_profile(alpha, math.log(abs(z)), cfg)
    if k_need is None:
        raise NonConvergenceError(
            f"more than max_terms={cfg.max_terms} terms needed for alpha={alpha}, z={z}"
        )
    if ln_max + math.log(k_need) > 708.0:
        raise NonConvergenceError(
            f"intermediate terms overflow for alpha={alpha}, z={z}"
        )
    if z > 0.0:
        return _sum_plain(alpha, z, cfg, k_need)

    # Alternating series: rounding noise scales with the largest term times
    # a random-walk factor in the term count.
    walk = max(3.0, math.sqrt(k_need))
    noise_plain = math.exp(ln_max) * walk * 5e-16
    if noise_plain <= 0.5 * cfg.abs_tol:
        return _sum_plain(alpha, z, cfg, k_need)
    noise_dd = math.exp(ln_max) * walk * 2e-29
    if noise_dd <= 0.5 * cfg.abs_tol:
        return _sum_double_double(alpha, z, cfg, k_need)
    raise NonConvergenceError(
        f"cancellation for alpha={alpha}, z={z} exceeds the certified precision: "
        f"estimated noise {noise_dd:.2e} > abs_tol {cfg.abs_tol:.2e}"
    )


def log_mittag_leffler(alpha: float, z: float) -> float:
    """log E_alpha(z) for z >= 0, overflow-free.

    All series terms are positive, so the sum is evaluated stably in the log
    domain; this covers arguments whose value exceeds the double range, as
    happens in Gronwall-envelope style bounds with small alpha.
    """
    alpha = float(alpha)
    z = float(z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if z < 0.0:
        raise ValueError("log_mittag_leffler requires z >= 0")
    if z == 0.0:
        return 0.0
    ln_z = math.log(z)
    k_hi = 1024
    while True:
        k = np.arange(0, k_hi + 1, dtype=float)
        ln_t = k * ln_z - gammaln(1.0 + alpha * k)
        if ln_t[-1] < ln_t.max() - 45.0:
            break
        k_hi *= 2
        if k_hi > 2 ** 24:  # pragma: no cover - would need z**(1/alpha) ~ 1e7
            raise NonConvergenceError(f"series too long for alpha={alpha}, z={z}")
    m = float(ln_t.max())
    return m + math.log(float(np.exp(ln_t - m).sum()))
