"""Certified sum-of-exponentials compression of the weakly singular weight.

omega_{1-a}(t) = sin(pi a)/pi * int_0^inf exp(-theta t) theta^(a-1) dtheta
is discretized with a Gauss-Jacobi rule on the singular band [0, 1/T] and
Gauss-Legendre rules on dyadic intervals up to a tail cutoff; the node count
grows until a dense-grid certification of the uniform error on [delta_t, T]
passes. All nodes and weights are strictly positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .specialfn import omega

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


class SOENotCertifiedError(ValueError):
    """The approximation does not meet the requirements of its consumer."""


class ToleranceUnreachableError(ArithmeticError):
    """Certification failed within the node budget."""


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


def _residual(nodes, weights, alpha, grid) -> float:
    approx = weights @ np.exp(-np.outer(nodes, grid))
    return float(np.max(np.abs(omega(1.0 - alpha, grid) - approx)))


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
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < delta_t < T < math.inf:
        raise ValueError(f"need 0 < delta_t < T < inf, got delta_t={delta_t}, T={T}")

    pref = math.sin(math.pi * alpha) / math.pi
    theta0 = 1.0 / T
    theta_max = max(_tail_cutoff(alpha, eps, delta_t), 4.0 * theta0)
    n_dyadic = math.ceil(math.log2(theta_max / theta0))
    grid = _certification_grid(delta_t, T)
    cap = min(eps / 3.0, omega(1.0 - alpha, T))

    for m in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24):
        if m * (n_dyadic + 1) + m > NODE_BUDGET:
            break
        #, singular band [0, theta0] with weight theta^(alpha-1)
        xj, wj = roots_jacobi(max(2, m), 0.0, alpha - 1.0)
        nodes = [theta0 * 0.5 * (1.0 + xj)]
        weights = [pref * (theta0 * 0.5) ** alpha * wj]
        # dyadic Gauss-Legendre panels [theta0 2^i, theta0 2^(i+1)]
        xl, wl = roots_legendre(m)
        lo = theta0
        for _ in range(n_dyadic):
            hi = 2.0 * lo
            th = 0.5 * (hi - lo) * xl + 0.5 * (hi + lo)
            nodes.append(th)
            weights.append(pref * 0.5 * (hi - lo) * wl * th ** (alpha - 1.0))
            lo = hi
        nodes = np.concatenate(nodes)
        weights = np.concatenate(weights)
        res = _residual(nodes, weights, alpha, grid)
        if res <= eps:
            # prune terms whose whole contribution on the window is negligible
            keep = weights * np.exp(-nodes * delta_t) > cap * 1e-4 / len(nodes)
            if not np.any(keep):
                keep[np.argmax(weights * np.exp(-nodes * delta_t))] = True
            if not np.all(keep):
                pruned_res = _residual(nodes[keep], weights[keep], alpha, grid)
                if pruned_res <= eps:
                    nodes, weights, res = nodes[keep], weights[keep], pruned_res
            order = np.argsort(nodes)
            return SOEApprox(
                nodes=nodes[order], weights=weights[order], eps=float(eps),
                delta_t=float(delta_t), T=float(T), alpha=alpha,
                cert_residual=res,
                meets_kernel_condition=bool(eps <= _kernel_cap(alpha, T)),
            )
    raise ToleranceUnreachableError(
        f"could not certify eps={eps} on [{delta_t}, {T}] within {NODE_BUDGET} nodes")


def soe_eval(approx: SOEApprox, t: float) -> float:
    """Evaluate the exponential sum inside the certified window."""
    t = float(t)
    if t < approx.delta_t * (1.0 - 1e-12) or t > approx.T * (1.0 + 1e-12):
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
    if abs(approx.alpha - alpha) > 1e-15:
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
    """Fast L1 history: Nq exponential states per unknown, O(Nq) memory at
    any step count, with the exact L1 diagonal A^(n)_0 = omega_{2-a}(tau_n)/tau_n.
    Per node theta the states follow, from H(t_0) = 0,
        H(t_n) = exp(-theta tau_n) H(t_{n-1}) + phi * incr_n,
        phi = (1 - exp(-theta tau_n)) / (theta tau_n).
    ``term(n)`` decays the states over step n and returns their weighted sum;
    ``push`` then adds step n's increment with the weight phi."""

    theta = 0.0

    def __init__(self, approx: SOEApprox, mesh, alpha: float, shape=()):
        _check_certified(approx, mesh, alpha)
        self.weights, self.tau = approx.weights, mesh.tau
        self.diagonal = omega(2.0 - alpha, mesh.tau) / mesh.tau
        self.nodes = approx.nodes.reshape((-1,) + (1,) * len(shape))
        self.H = np.zeros((approx.Nq,) + shape)

    def term(self, n: int):
        x = self.nodes * self.tau[n - 1]
        self.phi = -np.expm1(-x) / x
        self.H *= np.exp(-x)
        return self.weights @ self.H

    def push(self, increment) -> None:
        self.H += self.phi * increment
