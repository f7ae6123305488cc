"""Fully discrete reaction-subdiffusion solvers and their certified checks.

Covers the scalar single-mode reduction (one Dirichlet eigenvalue), a 1D
finite-difference realization with zero boundary values, the randomized
energy-inequality audits behind the stability theory, and convergence-order
estimation for manufactured and decaying exact solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complementary import ComplementaryTable, _check_source
from .gronwall import _lemma
from .kernels import KernelTable, build_table, check_same_problem
from .mesh import TimeMesh, graded_mesh
from .soe import STEP_BLOCK, SOEApprox, _SOEHistory
from .specialfn import mittag_leffler

__all__ = [
    "SingleModeProblem",
    "FDProblem1D",
    "SingleModeResult",
    "FDResult",
    "EnergyReport",
    "StabilityReport",
    "SingularSystemError",
    "DegenerateKernelError",
    "NonPositiveError",
    "caputo_of_power",
    "solve_single_mode",
    "solve_single_mode_fast",
    "solve_fd1d",
    "check_energy_lemmas",
    "check_stability_envelope",
    "estimate_order",
    "smooth_study",
    "singular_study",
]


class SingularSystemError(ArithmeticError):
    """The per-step linear system is singular or indefinite, or the march
    left the double range."""


class DegenerateKernelError(ArithmeticError):
    """A row has equal leading coefficients, so the energy split divides by 0."""


class NonPositiveError(ValueError):
    """Order estimation needs strictly positive error values."""


@dataclass
class SingleModeProblem:
    """Scalar projection onto one Dirichlet eigenmode with eigenvalue lambda_L.

    ``psi`` holds the forcing sampled at the offset points t_{n-theta}
    (length N) or None for the homogeneous problem, whose exact solution is
    u0 * E_alpha(-lambda_L t^alpha).
    """

    alpha: float
    lambda_L: float
    kappa: float = 0.0
    psi: np.ndarray | None = None
    u0: float = 1.0

    def __post_init__(self):
        for name in ("lambda_L", "kappa"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, "
                                 f"got {getattr(self, name)}")


@dataclass
class FDProblem1D:
    """Zero-boundary 1D problem on (0, length) with M interior points.

    The spatial operator is the 3-point stencil of -u_xx with the Dirichlet
    rows eliminated; ``psi(x, t)`` and ``u0(x)`` accept numpy arrays.
    """

    length: float
    M: int
    kappa: float = 0.0
    psi: Callable | None = None
    u0: Callable | np.ndarray | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("need at least one interior point")
        if not 0.0 < self.length < math.inf:
            raise ValueError(
                f"domain length must be positive and finite, got {self.length}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")

    @property
    def h(self) -> float:
        return self.length / (self.M + 1)

    def grid(self) -> np.ndarray:
        return self.h * np.arange(1, self.M + 1)


class _DenseHistory:
    """History sums from a kernel table over increments kept in one array."""

    def __init__(self, ktable: KernelTable, mesh: TimeMesh, alpha, shape):
        check_same_problem(ktable, mesh, alpha)
        self.K, self.theta = ktable.K, ktable.theta
        self.diagonal = ktable.diagonal()
        self.dU = np.empty((ktable.N,) + shape)

    def steps(self):
        """Yield sum_{k<n} A^(n)_{n-k} (u^k - u^{k-1}) for n = 1..N, zero at
        n = 1 and a float for one mode, and take u^n - u^{n-1} back by ``send``."""
        dU, scalar = self.dU, self.dU.ndim == 1
        for n, row in enumerate(self.K):
            term = row[:n].dot(dU[:n])
            dU[n] = yield float(term) if scalar else term


def _march(u0, shift, psi, mesh: TimeMesh, kernel, alpha) -> np.ndarray:
    """u^0..u^N solving, per entry of ``shift`` (a scalar or one per mode),
        sum_k A^(n)_{n-k} d(u^k) + shift (th u^{n-1} + (1-th) u^n) = psi_n
    by one division by the pivot A^(n)_0 + (1-th) shift, all pivots checked
    before step 1 and every step checked finite after step N. A^(n)_0 and
    the history come from a KernelTable (dense) or an SOEApprox (fast L1
    states), refused if built for another mesh or alpha. Both histories are
    driven alike: ``steps()`` yields each step's history term, and the step's
    increment goes back by ``send`` when the next term is asked for."""
    backend = _SOEHistory if isinstance(kernel, SOEApprox) else _DenseHistory
    history = backend(kernel, mesh, alpha, np.shape(shift))
    theta, a0 = history.theta, history.diagonal
    pivots = a0.reshape((-1,) + (1,) * np.ndim(shift)) + (1.0 - theta) * shift
    bad = ~np.isfinite(pivots) | (np.abs(pivots) < 1e-300)
    if np.any(bad):
        raise SingularSystemError(f"zero pivot at step {np.nonzero(bad)[0][0] + 1}")
    U = np.empty((mesh.N + 1,) + np.shape(shift))
    U[0] = u0
    lag, u = theta * shift, U[0]
    # one mode steps in Python floats, converted a block at a time: the same
    # IEEE arithmetic as numpy scalars, without their per-operation cost
    scalar = np.ndim(shift) == 0
    if scalar:
        lag, u = float(lag), u.item()
    steps, increment = history.steps(), None
    # a blow-up is refused below, by its first non-finite step
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, mesh.N, STEP_BLOCK):
            rows = [x[start:start + STEP_BLOCK] for x in (a0, pivots, psi)]
            if scalar:
                rows = [x.tolist() for x in rows]
            for n, (a, pivot, f) in enumerate(zip(*rows), start + 1):
                term = steps.send(increment)
                u, previous = (a * u - term - lag * u + f) / pivot, u
                U[n] = u
                increment = u - previous
    del steps, history  # before the check's scratch: dense increments are U's size
    blown = ~np.isfinite(U.reshape(mesh.N + 1, -1)).all(axis=1)
    if np.any(blown):
        raise SingularSystemError(f"non-finite solve at step {np.argmax(blown)}")
    return U


def caputo_of_power(alpha: float, sigma: float, t):
    """Memory derivative of t**sigma: Gamma(sigma+1)/Gamma(sigma+1-alpha) * t**(sigma-alpha)."""
    alpha = float(alpha)
    sigma = float(sigma)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError("t must be positive")
    c = math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 - alpha)
    out = c * t_arr ** (sigma - alpha)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class SingleModeResult:
    us: np.ndarray
    exact: np.ndarray | None
    errors: np.ndarray | None

    @property
    def max_error(self) -> float:
        return float(self.errors.max()) if self.errors is not None else math.nan

    @property
    def final_error(self) -> float:
        return float(self.errors[-1]) if self.errors is not None else math.nan


def _check_finite(*data) -> None:
    if not all(np.all(np.isfinite(d)) for d in data):
        raise ValueError("array must not contain infs or NaNs")


def solve_single_mode(problem: SingleModeProblem, mesh: TimeMesh,
                      kernel: KernelTable | SOEApprox,
                      exact=None) -> SingleModeResult:
    """March the scalar scheme on a kernel table, or on an SOE approximation
    (fast L1 with O(Nq) history memory). Errors are reported against
    ``exact(t)`` or, for the homogeneous decaying problem, against the
    Mittag-Leffler solution."""
    psi = np.zeros(mesh.N) if problem.psi is None else np.asarray(problem.psi, float)
    if psi.shape != (mesh.N,):
        raise ValueError(f"psi must hold one value per step, N = {mesh.N}, "
                         f"got shape {psi.shape}")
    _check_finite(psi, problem.u0)
    us = _march(problem.u0, problem.lambda_L - problem.kappa, psi, mesh, kernel,
                problem.alpha)
    reference = None
    if exact is not None:
        reference = np.array([exact(t) for t in mesh.nodes])
    elif problem.psi is None and problem.kappa == 0.0:
        reference = problem.u0 * mittag_leffler(
            problem.alpha, -problem.lambda_L * mesh.nodes ** problem.alpha)
    errors = np.abs(us - reference) if reference is not None else None
    return SingleModeResult(us=us, exact=reference, errors=errors)


def solve_single_mode_fast(problem: SingleModeProblem, mesh: TimeMesh,
                           approx: SOEApprox, exact=None) -> SingleModeResult:
    """``solve_single_mode`` on the fast L1 history of ``approx``."""
    return solve_single_mode(problem, mesh, approx, exact)


@dataclass(frozen=True)
class FDResult:
    trajectory: np.ndarray
    x: np.ndarray
    h: float
    l2_norms: np.ndarray
    max_norms: np.ndarray
    l2_errors: np.ndarray | None
    max_errors: np.ndarray | None


def _dst1(v):
    """sum_m v_m sin(pi j m / (M+1)), j = 1..M, over the last axis, from the FFT
    of the odd extension of v; applied twice it is (M+1)/2 times the identity."""
    zero = np.zeros(v.shape[:-1] + (1,))
    odd = np.concatenate([zero, v, zero, -v[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd)[..., 1:-1].imag


def solve_fd1d(problem: FDProblem1D, mesh: TimeMesh,
               kernel: KernelTable | SOEApprox, exact=None) -> FDResult:
    """March the finite-difference scheme on a kernel table or an SOE
    approximation (fast L1, Nq x M states); discrete L2 norms carry weight h.
    u0 and psi(x, t_{n-theta}) are projected onto the grid sine modes
    sin(j pi x / length), exact eigenvectors of the 3-point operator with
    eigenvalues lambda_j = (4/h^2) sin^2(j pi h / (2 length)); each mode takes
    the single-mode step with shift lambda_j - kappa, then the grid is rebuilt.

    The sine transforms round relative to the whole grid vector, not to each
    entry: a value far below max |u^n| carries an absolute error near
    eps max |u^n|. Against the explicit three-point scheme the residual of
    every entry stays within 1e-13 of its terms' scale; the worst case seen,
    6.6e-14, is at kappa = 30 and M = 17, where growing modes leave some grid
    values far below the largest."""
    x, h, M = problem.grid(), problem.h, problem.M
    theta = _SOEHistory.theta if isinstance(kernel, SOEApprox) else kernel.theta
    data = np.zeros((mesh.N + 1, M))  # u0, then psi at the offset nodes
    if problem.u0 is not None:
        data[0] = problem.u0(x) if callable(problem.u0) else problem.u0
    if problem.psi is not None:
        for n, t in enumerate(mesh.offset_nodes(theta), start=1):
            data[n] = problem.psi(x, t)
    _check_finite(data)
    data = _dst1(data) * (2.0 / (M + 1))
    j = np.arange(1, M + 1)
    lam = 4.0 * np.sin(0.5 * np.pi * j * h / problem.length) ** 2 / h ** 2
    modes = _march(data[0], lam - problem.kappa, data[1:], mesh, kernel,
                   kernel.alpha)
    traj = _dst1(modes)
    l2 = math.sqrt(h) * np.linalg.norm(traj, axis=1)
    mx = np.abs(traj).max(axis=1)
    l2_err = max_err = None
    if exact is not None:
        ref = np.stack([np.asarray(exact(x, t), dtype=float) for t in mesh.nodes])
        diff = traj - ref
        l2_err = math.sqrt(h) * np.linalg.norm(diff, axis=1)
        max_err = np.abs(diff).max(axis=1)
    return FDResult(trajectory=traj, x=x, h=h, l2_norms=l2, max_norms=mx,
                    l2_errors=l2_err, max_errors=max_err)


# a few ulp of slack for coefficients that equal their bound in exact arithmetic
_ULP_SLACK = 4.0 * np.finfo(float).eps
# rounding allowance of the energy inequalities, relative to the local scale
_ENERGY_SLACK = 1e-12
# rounding allowance of the stability audit, relative to each check's scale
_STABILITY_TOL = 1e-9


def _leading_pair(ktable: KernelTable):
    """A^(n)_0, A^(n)_1 (0 on row 1, which has no lag 1) and
    theta^(n) = (A0 - A1)/(2 A0 - A1) for n = 1..N; A1 is K's subdiagonal."""
    a0 = ktable.diagonal()
    a1 = np.concatenate(([0.0], np.diagonal(ktable.K, -1)))
    return a0, a1, (a0 - a1) / (2.0 * a0 - a1)


@dataclass(frozen=True)
class EnergyReport:
    d: np.ndarray
    theta_n: np.ndarray
    trials: int
    violations_first: int
    violations_second: int
    violations_weighted: int
    worst_resid_first: float
    worst_resid_second: float
    worst_resid_weighted: float
    d_positive: bool
    d_times_diag_above_one: bool
    d_times_diag_at_least_two: bool
    theta_below_half_from_row2: bool
    theta_row1: float


def check_energy_lemmas(ktable: KernelTable, dim: int, trials: int,
                        rng=None) -> EnergyReport:
    """Randomized audit of the three energy inequalities behind stability.

    For every step n and random vector sequences v^0..v^N in R^dim:
      (i)  2<Dv, v^n>      >= sum A d(|v|^2) + |Dv|^2 / A0,
      (ii) 2<Dv, v^{n-1}>  >= sum A d(|v|^2) - |Dv|^2 / (A0 - A1),
      (iii) 2<Dv, v^{n-th}> >= sum A d(|v|^2) + d_n (th_n - th) |Dv|^2,
    with A^(1)_1 taken as 0. Residuals are allowed -1e-12 times the local
    scale. Also reports d_n = (2A0 - A1)/(A0 (A0 - A1)) = 1/A0 + 1/(A0 - A1)
    and th_n = (A0 - A1)/(2A0 - A1), so d_n th_n = 1/A0, together with their
    range checks. This d_n is the only coefficient that makes (iii) the
    combination (1 - th) (i) + th (ii). With r = A1/A0 in [0, 1),
    d_n * A0 = (2 - r)/(1 - r) >= 2, with equality exactly on row 1 (r = 0);
    `d_times_diag_at_least_two` checks that range, allowing row 1 a few ulp.
    """
    theta = ktable.theta
    a0, a1, th_n = _leading_pair(ktable)
    if np.any(a0 == a1):
        raise DegenerateKernelError("row with A0 == A1")
    d = (2.0 * a0 - a1) / (a0 * (a0 - a1))
    d_a0 = d * a0

    rng = np.random.default_rng(rng)
    V = rng.standard_normal(size=(trials, ktable.N + 1, dim))
    w = ktable.K @ np.diff(V, axis=1)  # (trials, N, dim): memory derivatives
    base = np.diff(np.einsum("tnd,tnd->tn", V, V), axis=1) @ ktable.K.T
    wn2 = np.einsum("tnd,tnd->tn", w, w)
    vth = theta * V[:, :-1] + (1.0 - theta) * V[:, 1:]
    sides = (
        2.0 * np.einsum("tnd,tnd->tn", w, V[:, 1:]) - base - wn2 / a0,
        2.0 * np.einsum("tnd,tnd->tn", w, V[:, :-1]) - base + wn2 / (a0 - a1),
        2.0 * np.einsum("tnd,tnd->tn", w, vth) - base - d * (th_n - theta) * wn2,
    )
    scale = np.maximum(np.abs(base) + wn2, 1.0)
    rels = [resid / scale for resid in sides]
    worst = [float(rel.min()) for rel in rels]
    viol = [int(np.sum(rel < -_ENERGY_SLACK)) for rel in rels]
    return EnergyReport(
        d=d,
        theta_n=th_n,
        trials=trials,
        violations_first=viol[0],
        violations_second=viol[1],
        violations_weighted=viol[2],
        worst_resid_first=worst[0],
        worst_resid_second=worst[1],
        worst_resid_weighted=worst[2],
        d_positive=bool(np.all(d > 0.0)),
        d_times_diag_above_one=bool(np.all(d_a0 > 1.0)),
        d_times_diag_at_least_two=bool(d_a0[0] >= 2.0 - _ULP_SLACK
                                       and np.all(d_a0[1:] >= 2.0)),
        theta_below_half_from_row2=bool(np.all(th_n[1:] < 0.5)),
        theta_row1=float(th_n[0]),
    )


@dataclass(frozen=True)
class StabilityReport:
    theta_condition_ok: bool
    hypothesis_ok: bool
    worst_hypothesis_resid: float
    envelope: np.ndarray
    envelope_ok: bool
    min_envelope_margin: float
    step_restriction_ok: bool = True
    step_restriction_threshold: float = math.inf


def check_stability_envelope(ktable: KernelTable, mesh: TimeMesh,
                             result: FDResult, problem: FDProblem1D,
                             ctable: ComplementaryTable,
                             pi_A: float) -> StabilityReport:
    """Audit a finite-difference run against the stability theory.

    Checks the per-step energy hypothesis
        sum_k A^(n)_{n-k} d(|u^k|^2) <= 2 kappa |u^{n-th}|^2 + 2 |u^{n-th}| |psi_n|
    (asserted only when theta <= theta^(n) for all rows), then evaluates the
    quadratic Gronwall lemma (``gronwall._lemma``) with Lambda = 2 kappa,
    g = 2 |psi_n| and v0 = |u^0|: factor 1 for kappa <= 0, against the
    run's stored ``l2_norms``. On a mesh that breaks the step restriction,
    ``envelope_ok`` is False. Both checks allow
    1e-9 relative for rounding: the hypothesis against max(1, |lhs|, rhs),
    the envelope against max(1, envelope).
    """
    check_same_problem(ktable, mesh)
    _check_source(ctable, ktable)
    theta = ktable.theta
    h = result.h
    x = result.x
    traj = result.trajectory
    theta_ok = bool(np.all(theta <= _leading_pair(ktable)[2] + 1e-15))

    t_off = mesh.offset_nodes(theta)
    if problem.psi is None:
        psi_norms = np.zeros(mesh.N)
    else:
        psi_norms = np.array(
            [math.sqrt(h) * np.linalg.norm(np.broadcast_to(
                np.asarray(problem.psi(x, t), dtype=float), x.shape))
             for t in t_off])

    sq = h * np.einsum("nd,nd->n", traj, traj)
    lhs = ktable.K @ np.diff(sq)
    u_th = theta * traj[:-1] + (1.0 - theta) * traj[1:]
    nth = math.sqrt(h) * np.linalg.norm(u_th, axis=1)
    rhs = 2.0 * problem.kappa * nth ** 2 + 2.0 * nth * psi_norms
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), rhs)
    worst = float(np.min((rhs - lhs) / scale))
    hyp_ok = bool(worst >= -_STABILITY_TOL)

    norms = result.l2_norms
    _, _, envelope, _, limit = _lemma(
        ctable, mesh, ktable.alpha, pi_A, mesh.max_ratio(), 2.0 * problem.kappa,
        "quadratic", norms[0], 2.0 * psi_norms, strict=False)
    restriction_ok = bool(mesh.max_step() <= limit)
    margins = (envelope - norms[1:]) / np.maximum(envelope, 1.0)
    return StabilityReport(
        theta_condition_ok=theta_ok,
        hypothesis_ok=hyp_ok,
        worst_hypothesis_resid=float(worst),
        envelope=envelope,
        envelope_ok=restriction_ok and bool(margins.min() >= -_STABILITY_TOL),
        min_envelope_margin=float(margins.min()),
        step_restriction_ok=restriction_ok,
        step_restriction_threshold=limit,
    )


def estimate_order(errors) -> np.ndarray:
    """log2 ratios of successive errors from a step-halving study."""
    errors = np.asarray(errors, dtype=float)
    if len(errors) < 2:
        raise ValueError("need at least two error values")
    if np.any(errors <= 0.0) or not np.all(np.isfinite(errors)):
        raise NonPositiveError("errors must be positive and finite")
    return np.log2(errors[:-1] / errors[1:])


def _study(scheme: str, alpha: float, Ns, gamma: float, smooth: bool):
    """Max errors and orders on graded meshes of [0, 1] for lambda_L = 1;
    each N of ``Ns`` must be twice the one before, as estimate_order reads
    the error ratios of step halvings."""
    if scheme not in ("l1", "alikhanov"):
        raise ValueError(f"unsupported scheme {scheme!r} for convergence studies")
    Ns = [int(N) for N in Ns]
    if any(b != 2 * a for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"each N must double the one before, got Ns={Ns}")
    errors = []
    for N in Ns:
        mesh = graded_mesh(N, gamma, 1.0)
        ktable = build_table(scheme, mesh, alpha)
        psi = exact = None
        if smooth:
            t_off = mesh.offset_nodes(ktable.theta)
            psi = caputo_of_power(alpha, 3.0, t_off) + (1.0 + t_off ** 3)
            exact = lambda t: 1.0 + t ** 3
        problem = SingleModeProblem(alpha=alpha, lambda_L=1.0, psi=psi, u0=1.0)
        errors.append(solve_single_mode(problem, mesh, ktable, exact).max_error)
    errors = np.array(errors)
    return errors, estimate_order(errors)


def smooth_study(scheme: str, alpha: float, Ns):
    """Errors and observed orders for the manufactured solution u = 1 + t^3
    on [0, 1] with lambda_L = 1.

    The forcing is evaluated analytically at the offset points, so the
    measured decay isolates the time discretization.
    """
    return _study(scheme, alpha, Ns, 1.0, smooth=True)


def singular_study(scheme: str, alpha: float, Ns, gamma: float):
    """Errors/orders for the decaying exact solution E_alpha(-t^alpha) on
    [0, 1], whose derivative blows up at t = 0; gamma grades the mesh."""
    return _study(scheme, alpha, Ns, gamma, smooth=False)
