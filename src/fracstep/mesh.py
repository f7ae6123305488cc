"""Nonuniform time meshes and the bounded step-ratio check."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeMesh",
    "MeshReport",
    "InvalidMeshError",
    "graded_mesh",
    "mesh_from_nodes",
    "uniform_mesh",
    "random_mesh",
    "check_A3",
]

class InvalidMeshError(ValueError):
    """Raised for node vectors that do not form a valid time mesh."""


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing time levels t_0 = 0 < t_1 < ... < t_N = T.

    Nodes are the source of truth; steps ``tau[n-1] = t_n - t_{n-1}`` and
    ratios ``rho[k-1] = tau_k / tau_{k+1}`` are derived once at construction.
    Instances are immutable and safe to share across threads.
    """

    nodes: np.ndarray
    tau: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)

    @property
    def N(self) -> int:
        return len(self.nodes) - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    def t(self, n: int) -> float:
        """Node t_n."""
        return float(self.nodes[n])

    def offset_nodes(self, theta: float) -> np.ndarray:
        """Points t_{n-theta} = theta*t_{n-1} + (1-theta)*t_n for n = 1..N."""
        return theta * self.nodes[:-1] + (1.0 - theta) * self.nodes[1:]

    def max_step(self) -> float:
        return float(self.tau.max())

    def max_ratio(self) -> float:
        """Largest step ratio; 0 for a single-step mesh."""
        return float(self.rho.max()) if len(self.rho) else 0.0

    def save_txt(self, path) -> None:
        with open(path, "w") as fh:
            for t in self.nodes:
                fh.write(f"{float(t)!r}\n")


@dataclass(frozen=True)
class MeshReport:
    max_step: float
    max_ratio: float
    satisfies_A3: bool


def _build(nodes: np.ndarray) -> TimeMesh:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 2:
        raise InvalidMeshError("a mesh needs at least the two nodes t_0 and t_1")
    if nodes[0] != 0.0:
        raise InvalidMeshError(f"first node must be 0, got {float(nodes[0])}")
    tau = np.diff(nodes)
    if not np.all(tau > 0.0):
        raise InvalidMeshError("nodes must be strictly increasing")
    T = float(nodes[-1])
    if not np.isfinite(T) or T <= 0.0:
        raise InvalidMeshError(f"final time must be positive and finite, got {T!r}")
    # strongly graded meshes legitimately start with steps many orders of
    # magnitude below T, so only strict monotonicity is enforced above
    rho = tau[:-1] / tau[1:]
    nodes.setflags(write=False)
    tau.setflags(write=False)
    rho.setflags(write=False)
    return TimeMesh(nodes=nodes, tau=tau, rho=rho)


def _check_steps(N) -> int:
    """N as an int; numpy integers pass, floats, bools and N < 1 do not."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise InvalidMeshError(f"N must be a positive integer, got {N!r}")
    return int(N)


def _check_horizon(T) -> None:
    if not 0.0 < T < math.inf:
        raise InvalidMeshError(f"final time T must be positive and finite, got {T}")


def graded_mesh(N: int, gamma: float, T: float) -> TimeMesh:
    """Mesh with nodes t_n = (n/N)**gamma * T.

    gamma = 1 gives the uniform mesh; larger gamma concentrates points near
    t = 0. Requires a positive integer N, a finite gamma >= 1 and a finite
    T > 0.
    """
    N = _check_steps(N)
    if not 1.0 <= gamma < math.inf:
        raise InvalidMeshError(
            f"grading exponent gamma must be finite and >= 1, got {gamma}")
    _check_horizon(T)
    n = np.arange(N + 1, dtype=float)
    return _build((n / N) ** gamma * T)


def uniform_mesh(N: int, T: float) -> TimeMesh:
    """Uniform mesh; same as graded_mesh(N, 1, T)."""
    return graded_mesh(N, 1.0, T)


def mesh_from_nodes(nodes) -> TimeMesh:
    """Mesh from an explicit node vector starting at 0, strictly increasing."""
    return _build(np.array(nodes, dtype=float))


def load_txt(path) -> TimeMesh:
    with open(path) as fh:
        vals = [float(line) for line in fh if line.strip()]
    return mesh_from_nodes(vals)


def random_mesh(N: int, T: float, rho_bound: float = 1.75, seed=None) -> TimeMesh:
    """Random mesh whose step ratios stay strictly below rho_bound.

    Consecutive step factors tau_{k+1}/tau_k are drawn from [lo, max(1.5, h*)],
    lo = 1.02/rho_bound, so rho_k = tau_k/tau_{k+1} <= rho_bound/1.02; h* gives
    log factors of mean 0, and h* < 1.5 while rho_bound <= 1.78.
    The mesh is not quasi-uniform: only neighbouring steps are tied, and
    log tau does a random walk, so the spread of the steps grows with N.
    ``random_mesh(513, 1.0, seed=513)`` has steps from 2.4e-9 to 1.9e-2. At
    eps = 1e-10, ``build_soe`` certifies down to its smallest step for
    alpha = 0.1, 0.3 and 0.5 (Nq 277, 349, 350), but fast L1 refuses it for
    alpha = 0.7 and 0.9: omega_{1-alpha} is so large at that step that eps
    lies below the sum's rounding floor there (1.7e-8 and 2.9e-7).
    """
    N = _check_steps(N)
    _check_horizon(T)
    if not 1.02 / 1.5 < rho_bound < math.inf:
        raise InvalidMeshError(f"rho_bound must be finite and above 1.02/1.5 "
                               f"for the factor window, got {rho_bound}")
    lo = 1.02 / rho_bound
    # bisect for h* in (1, e) with h* ln h* - h* = lo ln lo - lo
    a, b, target = 1.0, np.e, lo * np.log(lo) - lo
    for _ in range(40):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if mid * np.log(mid) - mid < target else (a, mid)
    rng = np.random.default_rng(seed)
    factors = rng.uniform(lo, max(1.5, b), size=N - 1) if N > 1 else np.empty(0)
    tau = np.concatenate([[1.0], np.cumprod(factors)])
    nodes = np.concatenate([[0.0], np.cumsum(tau)])
    nodes *= T / nodes[-1]
    nodes[-1] = T
    stalled = np.flatnonzero(nodes[1:] <= nodes[:-1])
    if len(stalled):
        # past about 1e16 between a step and the node before it, adding the
        # step no longer moves the cumulative sum
        raise InvalidMeshError(
            f"random_mesh(N={N}): steps spread by max tau / min tau = "
            f"{tau.max() / tau.min():.3g}, too wide for double precision: the "
            f"cumulative sum stalls at node {stalled[0] + 1}")
    return _build(nodes)


def check_A3(mesh: TimeMesh, rho_bound: float) -> MeshReport:
    """Check the bounded step-ratio assumption rho_k <= rho_bound for all k."""
    if not 0.0 < rho_bound < np.inf:
        raise ValueError(f"rho_bound must be positive and finite, got {rho_bound}")
    max_ratio = mesh.max_ratio()
    return MeshReport(
        max_step=mesh.max_step(),
        max_ratio=max_ratio,
        satisfies_A3=bool(max_ratio <= rho_bound),
    )


def parse_mesh_spec(spec: str) -> TimeMesh:
    """Parse 'graded:N,gamma,T' or 'file:<path>' mesh descriptions."""
    kind, _, rest = spec.partition(":")
    if kind == "graded":
        parts = rest.split(",")
        if len(parts) != 3:
            raise InvalidMeshError(f"expected graded:N,gamma,T, got {spec!r}")
        return graded_mesh(int(parts[0]), float(parts[1]), float(parts[2]))
    if kind == "file":
        return load_txt(rest)
    raise InvalidMeshError(f"unknown mesh spec {spec!r}")
