"""Complementary discrete kernels P^(n)_j and their certified inequalities.

The P table is the discrete resolvent of a kernel table: convolving it
against any source row recovers exactly 1, the discrete analogue of the
identity omega_alpha * omega_{1-alpha} = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelTable, _blocks, _LowerTable, check_same_problem
from .mesh import TimeMesh
from .specialfn import log_mittag_leffler, omega

__all__ = [
    "ComplementaryTable",
    "ZeroDiagonalError",
    "build_complementary",
    "identity_residual",
    "check_lemma21",
    "check_lemma22_23",
    "Lemma21Report",
    "Lemma22Report",
]


# Rounding allowance of the Lemma 2.1-2.3 checks, relative to each bound's scale.
_LEMMA_SLACK = 1e-10
# Lemma 2.2/2.3 data: powers omega_{1+k alpha}, k = 1.._POWERS, and rates mu
_POWERS = 5
_RATES = (0.5, 2.0, 10.0)
# Rows and columns of the diagonal blocks build_complementary inverts, and the
# strict upper triangle of such a block
_INV_BLOCK = 32
_BLOCK_UPPER = ~np.tri(_INV_BLOCK, dtype=bool)
# Rows of the inverse per product below a diagonal block: each panel reads
# only up to its own last column, so the products skip most of the zero upper
# triangle (half the flops of one full product at large N)
_INV_PANEL = 256


class ZeroDiagonalError(ValueError):
    """A source row has a non-positive leading coefficient."""


@dataclass
class ComplementaryTable(_LowerTable):
    """P^(n)_j tied to the kernel table it inverts: ``P[n-1, j-1]`` holds
    P^(n)_{n-j}, and its diagonal P^(n)_0 = 1/A^(n)_0 (see ``_LowerTable``)."""

    _array = "P"

    P: np.ndarray
    source: KernelTable


def _check_source(ctable: ComplementaryTable, ktable: KernelTable) -> None:
    """Raise ValueError unless ``ctable`` inverts ``ktable``'s coefficients,
    so no audit pairs one scheme's P with another scheme's K."""
    if not np.array_equal(ctable.source.K, ktable.K):
        raise ValueError("kernel table differs from the one the complementary "
                         "table was built from")


def build_complementary(table: KernelTable) -> ComplementaryTable:
    """Solve the triangular identity sum_j P^(n)_{n-j} A^(j)_{j-m} = 1.

    In matrix form P K = L with L the lower-triangular matrix of ones, so
    P = B^-1 for B = K L^-1, whose column m is K[:, m] - K[:, m+1] (the last
    column is K's). B's diagonal is A^(m)_0 and its off-diagonal entries
    A^(j)_{j-m} - A^(j)_{j-m-1} are <= 0 for a monotone kernel, so the
    triangular inverse adds only nonnegative terms and keeps every entry of P
    to a few ulp relative to the stored K; cumsum(K^-1), whose terms cancel,
    does not (Higham, Accuracy and Stability of Numerical Algorithms, ch. 8).

    B is inverted in place, one block column of _INV_BLOCK at a time from the
    last to the first. A diagonal block B11 = D C, D its diagonal, is inverted
    as C^-1 D^-1. Under A1 each |B_im| <= B_ii, so C's off-diagonal entries lie
    in [-1, 0], the LU of C takes no pivot and its forward substitution adds
    nonnegative terms. Below it, X21 = X22 (-B21) X11 multiplies nonnegative
    factors, X22 being the lower-triangular inverse already formed below and
    to the right, taken in row panels that stop at their diagonal. The peak
    is one (N, N) array, and the upper triangle of P is exactly 0 even for a
    table without A1, whose LU may pivot.
    """
    diag = table.diagonal()
    if np.any(diag <= 0.0):
        bad = int(np.argmax(diag <= 0.0)) + 1
        raise ZeroDiagonalError(f"A^({bad})_0 = {diag[bad - 1]} is not positive")
    B = np.array(table.K)
    B[:, :-1] -= table.K[:, 1:]
    N = len(B)
    for j0 in reversed(range(0, N, _INV_BLOCK)):
        j1 = min(j0 + _INV_BLOCK, N)
        d = diag[j0:j1]
        X11 = np.linalg.inv(B[j0:j1, j0:j1] / d[:, None])
        X11[_BLOCK_UPPER[:j1 - j0, :j1 - j0]] = 0.0
        X11 /= d
        if j1 < N:
            neg_B21 = -B[j1:, j0:j1]
            for r0 in range(j1, N, _INV_PANEL):
                r1 = min(r0 + _INV_PANEL, N)
                B[r0:r1, j0:j1] = (B[r0:r1, j1:r1] @ neg_B21[:r1 - j1]) @ X11
        B[j0:j1, j0:j1] = X11
    return ComplementaryTable(P=B, source=table)


def identity_residual(ctable: ComplementaryTable, seed=None) -> float:
    """max over pairs m <= n of |sum_j P^(n)_{n-j} A^(j)_{j-m} - 1|, i.e. the
    exact max |P K - tril(1)| over every entry, at every N.

    ``seed`` is unused; it is accepted so existing callers keep working.
    """
    K = ctable.source.K
    worst = 0.0
    for rows, lag in _blocks(ctable.N):
        stop = rows.stop  # P and K vanish beyond the block's last column
        S = ctable.P[rows, :stop] @ K[:stop, :stop]
        S -= lag >= 0
        worst = max(worst, float(np.max(np.abs(S))))
    return worst


@dataclass(frozen=True)
class Lemma21Report:
    min_entry: float
    nonnegative: bool
    entry_bound_excess: float
    entry_bound_holds: bool
    weighted_sum_excess: float
    weighted_sum_holds: bool


def check_lemma21(ctable: ComplementaryTable, mesh: TimeMesh, alpha: float,
                  pi_A: float) -> Lemma21Report:
    """Nonnegativity, the per-entry bound P^(n)_{n-k} <= pi_A Gamma(2-a) tau_k^a
    (the per-k form), and sum_j P^(n)_{n-j} omega_{1-a}(t_j) <= pi_A, each
    allowed 1e-10 times its scale for rounding.
    """
    check_same_problem(ctable.source, mesh, alpha)
    C = pi_A * math.gamma(2.0 - alpha)
    tau_pow = mesh.tau ** alpha
    w = omega(1.0 - alpha, mesh.nodes[1:])
    min_entry = math.inf
    entry_excess = -math.inf
    for rows, lag in _blocks(ctable.N):
        stop = rows.stop
        P = ctable.P[rows, :stop]
        lower = lag >= 0
        min_entry = min(min_entry, float(np.min(P, where=lower, initial=math.inf)))
        entry_excess = max(entry_excess, float(np.max(
            P - C * tau_pow[:stop], where=lower, initial=-math.inf)))
    sum_excess = float(np.max(ctable.P @ w)) - pi_A
    scale = max(1.0, C * mesh.max_step() ** alpha)
    return Lemma21Report(
        min_entry=min_entry,
        nonnegative=bool(min_entry >= -_LEMMA_SLACK * scale),
        entry_bound_excess=entry_excess,
        entry_bound_holds=bool(entry_excess <= _LEMMA_SLACK * scale),
        weighted_sum_excess=sum_excess,
        weighted_sum_holds=bool(sum_excess <= _LEMMA_SLACK * max(1.0, pi_A)),
    )


@dataclass(frozen=True)
class Lemma22Report:
    powerlaw_max_excess: float
    powerlaw_holds: bool
    ml_log_min_margin: float
    ml_holds: bool


def check_lemma22_23(ctable: ComplementaryTable, mesh: TimeMesh, alpha: float,
                     pi_A: float, rho: float) -> Lemma22Report:
    """History-sum inequalities against power-law and Mittag-Leffler data.

    Power laws: for v = omega_{1+k*alpha}, k = 1..5 (whose memory derivative
    is exactly omega_{1+(k-1)*alpha}), checks
        sum_{j<n} P^(n)_{n-j} omega_{1+(k-1)a}(t_j) <= max(1,rho) pi_A omega_{1+ka}(t_n).
    Mittag-Leffler: for mu in {0.5, 2, 10} and E_j = E_a(mu t_j^a), checks
        sum_{j<n} P^(n)_{n-j} E_j / E_n <= max(1,rho) pi_A (1 - 1/E_n) / mu
    by its logs: divided by E_n, no term overflows doubles at small alpha.
    Both are allowed 1e-10 for rounding: relative to max(1, rhs) for the power
    laws, absolute on the log margin for Mittag-Leffler.
    """
    check_same_problem(ctable.source, mesh, alpha)
    fac = max(1.0, rho) * pi_A
    t = mesh.nodes[1:]
    W = np.stack([omega(1.0 + k * alpha, t) for k in range(_POWERS + 1)], axis=1)
    lhs_w, rhs_w = W[:, :-1], fac * W[:, 1:]  # column k-1 serves power k
    # float_power is libm's pow, as the scalar t_j ** alpha, so logE keeps its bits
    logE = log_mittag_leffler(alpha, np.float_power(t, alpha)[:, None] * _RATES)
    rhs_log = math.log(fac) + np.log1p(-np.exp(-logE)) - np.log(_RATES)
    power_excess, log_margin = -math.inf, math.inf
    # the sums run over j < n: the strict lower part, and row 1 has none
    for rows, lag in _blocks(ctable.N):
        stop = rows.stop
        P = np.where(lag > 0, ctable.P[rows, :stop], 0.0)
        tail = slice(1 if rows.start == 0 else 0, None)
        rel = (P @ lhs_w[:stop] - rhs_w[rows]) / np.maximum(1.0, rhs_w[rows])
        power_excess = max(power_excess, float(np.max(rel[tail], initial=-math.inf)))
        np.maximum(P, 0.0, out=P)  # a negative rounding entry adds nothing
        for i in range(len(_RATES)):
            # ratios past the diagonal meet P = 0; the cap keeps them finite
            ratio = logE[:stop, i] - logE[rows, i, None]
            np.exp(np.minimum(ratio, 0.0, out=ratio), out=ratio)
            with np.errstate(divide="ignore"):  # an empty sum logs to -inf
                margin = rhs_log[rows, i] - np.log(np.einsum("ij,ij->i", P, ratio))
            log_margin = min(log_margin, float(np.min(margin[tail], initial=math.inf)))

    return Lemma22Report(
        powerlaw_max_excess=power_excess,
        powerlaw_holds=bool(power_excess <= _LEMMA_SLACK),
        ml_log_min_margin=log_margin,
        ml_holds=bool(log_margin >= -_LEMMA_SLACK),
    )
