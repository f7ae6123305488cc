"""Discrete fractional Gronwall bounds and randomized hypothesis trials.

Any nonnegative sequence obeying the one-step memory inequality (quadratic or
linear form) is dominated by a Mittag-Leffler envelope times the accumulated
complementary sums of the data; this module evaluates those bounds and stress
tests them with sequences constructed to satisfy the hypothesis tightly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complementary import ComplementaryTable, _check_source
from .kernels import (KernelTable, _block_budget, apply_discrete_derivative,
                      check_same_problem)
from .mesh import TimeMesh
from .specialfn import _check_alpha, mittag_leffler

__all__ = [
    "GronwallProblem",
    "GronwallCertificate",
    "StepRestrictionViolatedError",
    "step_restriction_threshold",
    "check_step_restriction",
    "gronwall_bound",
    "verify_gronwall_quadratic",
    "verify_gronwall_linear",
    "exchange_identity_residual",
    "TrialReport",
]


# Rounding allowance of the randomized trials, relative to each check's scale.
_TRIAL_TOL = 1e-9


class StepRestrictionViolatedError(RuntimeError):
    """The maximum step exceeds the admissible size for the given constant."""


@dataclass
class GronwallProblem:
    """Hypothesis data: weights (lambda_l), data g^n, start value and form.

    ``lambdas`` has length N indexed by the distance l = n - k; ``g`` holds
    g^1..g^N (may be None when the data is supplied per trial). ``Lambda``
    must dominate the lambda sum when positive; the nonpositive branch
    requires all lambdas <= 0.
    """

    lambdas: np.ndarray
    g: np.ndarray | None
    v0: float
    Lambda: float
    theta: float = 0.0
    form: str = "quadratic"

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if self.g is not None:
            self.g = np.asarray(self.g, dtype=float)
        for name in ("Lambda", "v0", "lambdas", "g"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g is not None and np.any(self.g < 0.0):
            raise ValueError("g must be nonnegative")
        if self.v0 < 0.0:
            raise ValueError("v0 must be nonnegative")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if self.form not in ("quadratic", "linear"):
            raise ValueError(f"unknown form {self.form!r}")
        if self.Lambda > 0.0:
            if np.any(self.lambdas < 0.0):
                raise ValueError("lambdas must be nonnegative when Lambda > 0")
            if self.lambdas.sum() > self.Lambda * (1.0 + 1e-12) + 1e-300:
                raise ValueError("Lambda must dominate the lambda sum")
        elif np.any(self.lambdas > 0.0):
            raise ValueError("the Lambda <= 0 branch requires nonpositive lambdas")


@dataclass(frozen=True)
class GronwallCertificate:
    """``step_restriction_ok`` is always True: ``gronwall_bound`` raises on a
    mesh that breaks the step restriction."""
    bound_per_step: np.ndarray
    weak_bound_per_step: np.ndarray
    envelope_factor: np.ndarray
    step_restriction_ok: bool
    form: str
    Lambda: float


def step_restriction_threshold(alpha: float, pi_A: float, Lambda: float) -> float:
    """Largest admissible step (2 pi_A Gamma(2-alpha) Lambda)^(-1/alpha);
    inf for Lambda <= 0, and where a tiny Lambda sends the power past the
    double range. A NaN Lambda or pi_A, or alpha outside (0, 1], is refused
    (ValueError)."""
    alpha = _check_alpha(alpha)
    if math.isnan(Lambda) or math.isnan(pi_A):
        raise ValueError(f"Lambda={Lambda} and pi_A={pi_A} must not be NaN")
    if Lambda <= 0.0:
        return math.inf
    try:
        return (2.0 * pi_A * math.gamma(2.0 - alpha) * Lambda) ** (-1.0 / alpha)
    except (OverflowError, ZeroDivisionError):  # the power overflows, or its base is 0
        return math.inf


def check_step_restriction(mesh: TimeMesh, alpha: float, pi_A: float,
                           Lambda: float) -> bool:
    """True when every step fits under the admissible maximum (always true
    for Lambda <= 0, where the bound needs no step restriction)."""
    return mesh.max_step() <= step_restriction_threshold(alpha, pi_A, Lambda)


def _lemma(ctable: ComplementaryTable, mesh: TimeMesh, alpha: float,
           pi_A: float, rho: float, Lambda: float, form: str, v0, g,
           strict: bool = True):
    """Envelope factor, sums S = P g, bound, weak term and step restriction
    threshold for data g of shape (N,) or (trials, N) and a v0 that broadcasts.

    Positive Lambda: B_n = 2 E_alpha(2 max(1,rho) pi_A Lambda t_n^alpha) *
    (v0 + running max of S). A mesh breaking the step restriction raises
    StepRestrictionViolatedError before any Mittag-Leffler call, or, with
    ``strict`` False, gets its bound all the same. Nonpositive Lambda: the
    factor drops to 1 and no step restriction is needed (running max for the
    quadratic form, S itself for the linear one). The weak term
    pi_A Gamma(1-alpha) max_j t_j^alpha g^j may replace the sums S.
    """
    check_same_problem(ctable.source, mesh, alpha)
    if pi_A is None or not math.isfinite(pi_A):
        raise ValueError(f"the Gronwall bound needs a finite pi_A, got {pi_A}: "
                         "a kernel table with no finite pi_A fails A1")
    N = mesh.N
    if g.shape[-1] != N:
        raise ValueError(f"g must have N = {N} entries")
    limit = step_restriction_threshold(alpha, pi_A, Lambda)
    if strict and not mesh.max_step() <= limit:
        raise StepRestrictionViolatedError(
            f"max step {mesh.max_step():.3e} exceeds {limit:.3e}")
    factor = np.ones(N) if Lambda <= 0.0 else 2.0 * mittag_leffler(
        alpha, 2.0 * max(1.0, rho) * pi_A * Lambda * mesh.nodes[1:] ** alpha)
    S = g @ ctable.P.T  # S_k = sum_{j=1..k} P^(k)_{k-j} g^j
    G = S if Lambda <= 0.0 and form == "linear" else np.maximum.accumulate(S, axis=-1)
    weak_term = pi_A * math.gamma(1.0 - alpha) * np.maximum.accumulate(
        mesh.nodes[1:] ** alpha * g, axis=-1)
    return factor, S, factor * (v0 + G), weak_term, limit


def gronwall_bound(problem: GronwallProblem, ctable: ComplementaryTable,
                   mesh: TimeMesh, alpha: float, pi_A: float,
                   rho: float) -> GronwallCertificate:
    """Per-step bound B_n and its weak variant on any sequence satisfying the
    hypothesis (see ``_lemma``); a mesh breaking the step restriction is refused."""
    if problem.g is None:
        raise ValueError("problem.g must be set to evaluate the bound")
    factor, _, bound, weak_term, _ = _lemma(ctable, mesh, alpha, pi_A, rho,
                                            problem.Lambda, problem.form,
                                            problem.v0, problem.g)
    return GronwallCertificate(
        bound_per_step=bound,
        weak_bound_per_step=factor * (problem.v0 + weak_term),
        envelope_factor=factor,
        step_restriction_ok=True,
        form=problem.form,
        Lambda=problem.Lambda,
    )


@dataclass(frozen=True)
class TrialReport:
    trials: int
    violations: int
    min_margin: float
    mean_margin: float
    weak_dominates: bool


def _lambda_convolution(lambdas: np.ndarray, W: np.ndarray) -> np.ndarray:
    """C[:, n-1] = sum_{k=1..n} lambda_{n-k} W[:, k-1] for each trial row: W times
    the lower-triangular Toeplitz matrix of the lambdas, multiplied only over
    its band of lags 0..L, L the last nonzero lambda. Each block of R rows
    takes its part of the band from one (R, R + L) Toeplitz matrix, R as
    large as a row block of a table whose rows hold L + 1 entries: two
    nonzero lambdas cost a few products of width R + 1, a dense lambda the
    whole triangle."""
    N = W.shape[1]
    L = int(np.flatnonzero(lambdas).max(initial=0))
    budget = _block_budget(L + 1, "table")
    R = max(1, min(N, (math.isqrt(L * L + 4 * budget) - L) // 2))
    # band[i, j] = lambda_{L+i-j}, 0 outside lags 0..L: rows r0..r0+R-1 over
    # columns r0-L..r0+R-1, gathered from the lambdas padded by R - 1 zeros
    padded = np.zeros(L + 2 * R - 1)
    padded[R - 1 : R + L] = lambdas[: L + 1]
    band = padded[np.subtract.outer(np.arange(L + R - 1, L + 2 * R - 1),
                                    np.arange(R + L))]
    out = np.empty_like(W)
    for r0 in range(0, N, R):
        r1 = min(N, r0 + R)
        lo = max(0, r0 - L)
        out[:, r0:r1] = W[:, lo:r1] @ band[: r1 - r0, lo - r0 + L : r1 - r0 + L].T
    return out


def _run_trials(ctable, mesh, ktable, problem, trials, rng, form):
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    check_same_problem(ktable, mesh)
    _check_source(ctable, ktable)
    N = mesh.N
    if len(problem.lambdas) != N:
        raise ValueError(
            f"lambdas must have N = {N} entries, got {len(problem.lambdas)}")

    V = np.random.default_rng(rng).uniform(0.1, 2.0, size=(trials, N + 1))
    # v^{k-theta} for k = 1..N, per trial row
    Vth = problem.theta * V[:, :-1] + (1.0 - problem.theta) * V[:, 1:]
    power = 2 if form == "quadratic" else 1
    slack = (apply_discrete_derivative(ktable, (V ** power).T).T
             - _lambda_convolution(problem.lambdas, Vth ** power))
    # the data g is the hypothesis slack, so the inequality binds wherever g > 0
    g = np.maximum(0.0, slack / Vth if form == "quadratic" else slack)
    _, S, B, weak_term, _ = _lemma(ctable, mesh, ktable.alpha, ktable.pi_A,
                                   mesh.max_ratio(), problem.Lambda, form,
                                   V[:, :1], g)

    margins = (B - V[:, 1:]) / np.maximum(B, 1.0)
    weak_ok = bool(np.all(weak_term >= S - _TRIAL_TOL * np.maximum(1.0, weak_term)))
    return TrialReport(
        trials=trials, violations=int(np.sum(np.min(margins, axis=1) < -_TRIAL_TOL)),
        min_margin=float(margins.min()), mean_margin=float(margins.mean()),
        weak_dominates=weak_ok)


def verify_gronwall_quadratic(ctable: ComplementaryTable, mesh: TimeMesh,
                              ktable: KernelTable, problem: GronwallProblem,
                              trials: int, rng=None) -> TrialReport:
    """Randomized sequences with the data g chosen as the exact hypothesis
    slack (so the quadratic inequality is tight wherever it binds); every
    trial must stay below its certificate up to 1e-9 relative to
    max(1, bound), and the weak term above the sums S up to 1e-9 relative to
    max(1, weak term). The form is the function's own: ``problem.form`` is
    read only by ``gronwall_bound``."""
    return _run_trials(ctable, mesh, ktable, problem, trials, rng, "quadratic")


def verify_gronwall_linear(ctable: ComplementaryTable, mesh: TimeMesh,
                           ktable: KernelTable, problem: GronwallProblem,
                           trials: int, rng=None) -> TrialReport:
    """Same drill, and the same 1e-9 tolerances, for the linear-form
    hypothesis; ``problem.form`` is not read here either."""
    return _run_trials(ctable, mesh, ktable, problem, trials, rng, "linear")


def exchange_identity_residual(ctable: ComplementaryTable,
                               ktable: KernelTable, v) -> float:
    """max_n |sum_{j<=n} P^(n)_{n-j} (memory derivative of v at j) - (v^n - v^0)|.

    This telescoping identity is an exact consequence of the complementary
    construction and is the sharpest machine check of the P table.
    """
    _check_source(ctable, ktable)
    v = np.asarray(v, dtype=float)
    D = apply_discrete_derivative(ktable, v)
    return float(np.max(np.abs(ctable.P @ D - (v[1:] - v[0]))))
