"""Certified sum-of-exponentials compression of the weakly singular weight.

omega_{1-a}(t) = sin(pi a)/pi * int_0^inf exp(-theta t) theta^(a-1) dtheta
is discretized with a Gauss-Jacobi rule on the singular band [0, 1/T] and
Gauss-Legendre rules on dyadic intervals up to a tail cutoff (both rules from
the eigenvalues of their Jacobi matrices, in numpy); the node count
grows until the uniform error on a geometric grid over [delta_t, T], 40
points per octave, is at most eps. The nodes ascend as the rules give
them, and the prune drops the trailing terms below
1e-4 min(eps/3, omega_{1-a}(T)) / Nq at delta_t, so the grid check
certifies the sum of a leading slice, the one returned. The grid starts
at delta_t, so a rung whose error there alone exceeds 2 eps is rejected
before the grid check: the probe's sum over all nodes and the pruned sum
differ there by rounding and by the pruned terms, which sum to under
1e-4 eps, so the grid check would reject it too. The check sweeps the
grid in blocks of SWEEP_BLOCK points, forming exp(-theta t) for one block
at a time in one scratch buffer, and stops at the first block whose error
exceeds eps. The sum has the bits of its column of the dense (Nq, grid)
product, which is never formed. All nodes and weights are strictly
positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specialfn import _check_order, _singular_average, omega

__all__ = [
    "SOEApprox",
    "SOENotCertifiedError",
    "ToleranceUnreachableError",
    "OutOfWindowError",
    "build_soe",
    "soe_eval",
]

NODE_BUDGET = 512
CERT_POINTS_PER_OCTAVE = 40
SWEEP_BLOCK = 256  # grid points per block of the certification sweep
STEP_BLOCK = 64  # steps whose decay factors _SOEHistory forms in one call


class SOENotCertifiedError(ValueError):
    """The approximation does not meet the requirements of its consumer."""


class ToleranceUnreachableError(ArithmeticError):
    """No rung of the node ladder certifies eps. The message says whether eps
    lies below the rounding floor of the sum at delta_t, where no node count
    can certify it, or above it, where the ladder's node budget ran out, or
    that the window is too wide for a double: its dyadic panels alone would
    outnumber the budget twice over."""


class OutOfWindowError(ValueError):
    """Evaluation outside the certified window [delta_t, T]."""


@dataclass(frozen=True)
class SOEApprox:
    """Positive exponents/weights with a certified uniform tolerance."""

    nodes: np.ndarray
    weights: np.ndarray
    eps: float
    delta_t: float
    T: float
    alpha: float
    cert_residual: float
    meets_kernel_condition: bool

    @property
    def Nq(self) -> int:
        return len(self.nodes)

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "eps": self.eps,
            "delta_t": self.delta_t,
            "T": self.T,
            "Nq": self.Nq,
            "cert_residual": self.cert_residual,
            "meets_kernel_condition": self.meets_kernel_condition,
            "nodes": [float(x) for x in self.nodes],
            "weights": [float(x) for x in self.weights],
        }, indent=2, allow_nan=False)


def _certification_grid(delta_t: float, T: float) -> np.ndarray:
    octaves = max(1, math.ceil(math.log2(T / delta_t)))
    return np.geomspace(delta_t, T, CERT_POINTS_PER_OCTAVE * octaves)


def _residual(nodes, weights, target, grid, eps):
    """The uniform error max |target - weights @ exp(-outer(nodes, grid))|
    on the grid, swept in blocks of SWEEP_BLOCK points with exp(-theta t)
    formed in place in one scratch buffer; inf at the first block where the
    sum errs by more than eps, so a failing rung's residual is never
    reported. The sum has the bits of the dense product's columns as long
    as the block width is a multiple of 8, as SWEEP_BLOCK and every grid
    length (40 points per octave) are. That rule was observed with
    OpenBLAS's x86 AVX-512 (SkylakeX) gemv, which sums a grid point over the
    nodes in one order whatever the block's width but takes the columns left
    over from its vector width in another: blocks 7 wide moved sums by an
    ulp."""
    n = len(nodes)
    scratch = np.empty(n * min(SWEEP_BLOCK, len(grid)))
    negated = -nodes[:, None]
    res = 0.0
    for j in range(0, len(grid), SWEEP_BLOCK):
        t, f = grid[j:j + SWEEP_BLOCK], target[j:j + SWEEP_BLOCK]
        e = scratch[:n * len(t)].reshape(n, len(t))
        np.exp(np.multiply(negated, t, out=e), out=e)
        err = float(np.max(np.abs(f - weights @ e)))
        if not err <= eps:
            return math.inf
        res = max(res, err)
    return res


@lru_cache(maxsize=128)
def _gauss_rule(m: int, alpha: float | None = None):
    """Read-only Gauss-Legendre (alpha None) or Gauss-Jacobi(0, alpha - 1)
    nodes and weights on [-1, 1], for the weight (1 + x)^b with b = alpha - 1
    (b = 0 for Legendre).

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the weight's monic recurrence,
    and each weight is mu_0 = int (1 + x)^b = 2^(b+1)/(b+1) times the squared
    first component of its unit eigenvector. Against 40-digit rules, for
    m <= 24, the weights err by at most 4e-14 relative.
    """
    b = 0.0 if alpha is None else alpha - 1.0
    n = np.arange(1.0, m)
    s = 2.0 * n + b
    diagonal = np.concatenate([[b / (b + 2.0)], b * b / (s * (s + 2.0))])
    off = 2.0 * n * (n + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (b + 1.0) / (b + 1.0) * vectors[0] ** 2
    for v in (x, w):
        v.flags.writeable = False
    return x, w


def _tail_cutoff(alpha: float, eps: float, delta_t: float) -> float:
    # sin(pi a)/pi * theta^(a-1) e^(-theta dt) / dt <= eps/3 bounds the
    # discarded upper tail uniformly on t >= delta_t
    pref = math.sin(math.pi * alpha) / math.pi
    x = 2.0
    while (pref * (x / delta_t) ** (alpha - 1.0) * math.exp(-x) / delta_t) > eps / 3.0:
        x *= 1.25
        if x > 1e4:  # pragma: no cover - would need eps below representability
            break
    return x / delta_t


def _kernel_cap(alpha: float, T: float) -> float:
    """The largest tolerance fast L1 accepts on a horizon T, the kernel
    condition eps <= min(omega_{1-a}(T)/3, a * omega_{2-a}(1))."""
    return min(omega(1.0 - alpha, T) / 3.0, alpha * omega(2.0 - alpha, 1.0))


def build_soe(alpha: float, eps: float, delta_t: float, T: float) -> SOEApprox:
    """Grow quadrature nodes until the uniform error on [delta_t, T] is <= eps."""
    alpha = _check_order(alpha)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < delta_t < T < math.inf:
        raise ValueError(f"need 0 < delta_t < T < inf, got delta_t={delta_t}, T={T}")

    pref = math.sin(math.pi * alpha) / math.pi
    theta0 = 1.0 / T
    theta_max = max(_tail_cutoff(alpha, eps, delta_t), 4.0 * theta0)
    refusal = (f"could not certify eps={eps} on [{delta_t}, {T}] within "
               f"{NODE_BUDGET} nodes; ")
    if not theta_max / theta0 < math.inf:
        # a ratio past the largest double needs at least 1024 dyadic
        # panels, twice the budget: refused before a grid or panel is formed
        raise ToleranceUnreachableError(
            refusal + "the window needs at least 1024 dyadic panels")
    n_dyadic = math.ceil(math.log2(theta_max / theta0))
    grid = _certification_grid(delta_t, T)
    target = omega(1.0 - alpha, grid)
    cap = min(eps / 3.0, omega(1.0 - alpha, T))
    # dyadic panels [lo, 2 lo] from theta0; scaling by 2 is exact
    lo = (theta0 * 2.0 ** np.arange(n_dyadic))[:, None]
    hi = 2.0 * lo

    nq = n_dyadic + 2  # the first rung's node count
    for m in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24):
        if m * (n_dyadic + 1) + m > NODE_BUDGET:
            break
        # singular band [0, theta0] with weight theta^(alpha-1), then the
        # dyadic Gauss-Legendre panels, one row per panel. The nodes ascend:
        # each rule's come sorted from eigh, the band lies below 1/T and
        # each panel above the one before
        xj, wj = _gauss_rule(max(2, m), alpha)
        xl, wl = _gauss_rule(m)
        th = 0.5 * (hi - lo) * xl + 0.5 * (hi + lo)
        wth = pref * 0.5 * (hi - lo) * wl * th ** (alpha - 1.0)
        nodes = np.concatenate([theta0 * 0.5 * (1.0 + xj), th.ravel()])
        weights = np.concatenate([pref * (theta0 * 0.5) ** alpha * wj, wth.ravel()])
        nq = len(nodes)
        at_dt = weights * np.exp(-nodes * delta_t)
        if abs(target[0] - np.sum(at_dt)) > 2.0 * eps:
            continue
        # the prune drops the trailing terms whose whole contribution on the
        # window is negligible; the sum of the rest is the one certified
        k = 1 + np.flatnonzero(at_dt > cap * 1e-4 / nq).max(initial=0)
        res = _residual(nodes[:k], weights[:k], target, grid, eps)
        if res > eps:
            continue
        return SOEApprox(
            nodes=nodes[:k], weights=weights[:k], eps=float(eps),
            delta_t=float(delta_t), T=float(T), alpha=alpha, cert_residual=res,
            meets_kernel_condition=bool(eps <= _kernel_cap(alpha, T)),
        )
    # an Nq-term sum near omega_{1-a}(delta_t) rounds by up to about this
    floor = nq * 2.0 ** -53 * target[0]
    raise ToleranceUnreachableError(
        refusal + f"eps is {'below' if eps < floor else 'above'} the rounding floor "
        f"Nq*2^-53*omega_(1-alpha)(delta_t) = {floor:.1e} (Nq = {nq})")


def soe_eval(approx: SOEApprox, t: float) -> float:
    """Evaluate the exponential sum inside the certified window."""
    t = float(t)
    if not approx.delta_t * (1.0 - 1e-12) <= t <= approx.T * (1.0 + 1e-12):  # NaN fails it
        raise OutOfWindowError(
            f"t={t} outside certified window [{approx.delta_t}, {approx.T}]")
    return float(approx.weights @ np.exp(-approx.nodes * t))


def _soe_for_mesh(alpha: float, eps: float, mesh) -> SOEApprox:
    """Fast L1's approximation on ``mesh``, certified on [min(min tau_n, T/2), T]:
    min tau_n <= T/2 whenever N >= 2, and a one-step mesh still gets a window."""
    return build_soe(alpha, eps, min(float(mesh.tau.min()), 0.5 * mesh.T), mesh.T)


def _check_certified(approx: SOEApprox, mesh, alpha: float) -> None:
    """Raise SOENotCertifiedError unless ``approx`` meets the conditions of
    fast L1 (see ``kernels.fast_l1_kernel``) at ``alpha`` on ``mesh``."""
    if not abs(approx.alpha - alpha) <= 1e-15:  # or NaN
        raise SOENotCertifiedError(
            f"approximation built for alpha={approx.alpha}, consumer wants {alpha}")
    if approx.delta_t > mesh.tau.min() * (1.0 + 1e-12):
        raise SOENotCertifiedError(
            f"cutoff {approx.delta_t} exceeds the smallest mesh step {mesh.tau.min()}")
    if approx.T < mesh.T * (1.0 - 1e-12):
        raise SOENotCertifiedError(
            f"certified horizon {approx.T} is shorter than the mesh horizon {mesh.T}")
    eps_cap = _kernel_cap(alpha, mesh.T)
    if approx.eps > eps_cap:
        raise SOENotCertifiedError(
            f"tolerance {approx.eps} violates the kernel condition eps <= {eps_cap:.3e}")
    if approx.cert_residual > approx.eps:
        raise SOENotCertifiedError(
            f"certification residual {approx.cert_residual} exceeds eps={approx.eps}")


class _SOEHistory:
    """Fast L1 history: Nq exponential states per mode, O(Nq) memory at
    any step count, with the exact L1 diagonal A^(n)_0 = omega_{2-a}(tau_n)/tau_n
    (``specialfn._singular_average``).
    Per node theta the states follow, from H(t_0) = 0,
        H(t_n) = exp(-theta tau_n) H(t_{n-1}) + phi * incr_n,
        phi = (1 - exp(-theta tau_n)) / (theta tau_n).
    Iterating decays the states over each step n = 1..N in turn and yields
    their weighted sum with the step's phi; the caller adds the step's
    increment times phi to ``H`` before asking for the next step.
    ``steps()`` is the march's form of that loop."""

    theta = 0.0

    def __init__(self, approx: SOEApprox, mesh, alpha: float, shape=()):
        _check_certified(approx, mesh, alpha)
        self.weights, self.tau = approx.weights, mesh.tau
        self.diagonal = _singular_average(alpha, mesh.tau)
        self.nodes = approx.nodes.reshape((-1,) + (1,) * len(shape))
        self.H = np.zeros((approx.Nq,) + shape)

    def __iter__(self):
        H, weights = self.H, self.weights
        for start in range(0, len(self.tau), STEP_BLOCK):
            # decay factors and phi of STEP_BLOCK steps in one call
            tau = self.tau[start:start + STEP_BLOCK]
            nx = -(tau.reshape((-1,) + (1,) * self.nodes.ndim) * self.nodes)
            for decay, phi in zip(np.exp(nx), np.expm1(nx) / nx):
                H *= decay
                # the bits of weights @ H, with less overhead per call
                yield weights.dot(H), phi

    def steps(self):
        """Yield the history term of each step, a float for one mode, and take
        the step's increment back by ``send``: increment times phi is added to
        the states in place."""
        H, scalar = self.H, self.H.ndim == 1
        product = np.empty_like(H)
        for term, phi in self:
            increment = yield float(term) if scalar else term
            H += np.multiply(phi, increment, out=product)
