import math

import numpy as np
import pytest

from fracstep import complementary, kernels, soe
from fracstep import mesh as fmesh

MESH_FAMILIES = ("uniform", "graded2", "graded3", "randquasi")
ALPHAS = (0.3, 0.5, 0.7)
FAST_EPS = 1e-10


def make_mesh(family: str, N: int, T: float = 1.0) -> fmesh.TimeMesh:
    if family == "uniform":
        return fmesh.uniform_mesh(N, T)
    if family == "graded2":
        return fmesh.graded_mesh(N, 2.0, T)
    if family == "graded3":
        return fmesh.graded_mesh(N, 3.0, T)
    if family == "randquasi":
        return fmesh.random_mesh(N, T, rho_bound=1.75, seed=1234 + N)
    raise ValueError(family)


def grid_cells(Ns, schemes=("l1", "fastl1", "alikhanov", "bdf2recombined")):
    """The (scheme, mesh family, N, alpha) acceptance grid; the recombined
    scheme only exists on uniform meshes."""
    for scheme in schemes:
        families = ("uniform",) if scheme == "bdf2recombined" else MESH_FAMILIES
        for family in families:
            for N in Ns:
                for alpha in ALPHAS:
                    yield scheme, family, N, alpha


class TableStore:
    """Session cache of meshes, kernel tables and complementary tables."""

    def __init__(self):
        self._soe = {}
        self._kernel = {}
        self._ctable = {}

    def soe(self, alpha, eps, delta_t, T):
        key = (alpha, eps, delta_t, T)
        if key not in self._soe:
            self._soe[key] = soe.build_soe(alpha, eps, delta_t, T)
        return self._soe[key]

    def kernel(self, scheme, family, N, alpha, eps=FAST_EPS):
        key = (scheme, family, N, alpha, eps)
        if key not in self._kernel:
            mesh = make_mesh(family, N)
            self._kernel[key] = (mesh, kernels.build_table(scheme, mesh, alpha, eps))
        return self._kernel[key]

    def ctable(self, scheme, family, N, alpha, eps=FAST_EPS):
        key = (scheme, family, N, alpha, eps)
        if key not in self._ctable:
            mesh, table = self.kernel(scheme, family, N, alpha, eps)
            self._ctable[key] = (mesh, table,
                                 complementary.build_complementary(table))
        return self._ctable[key]

    def pi_for(self, scheme, family, N, alpha, eps=FAST_EPS) -> float:
        """Known lower-bound constant, or the measured one where none is proven."""
        mesh, table = self.kernel(scheme, family, N, alpha, eps)
        if table.pi_A is not None:
            return table.pi_A
        return kernels.verify_assumptions(table, mesh).a2_pi_estimate


@pytest.fixture(scope="session")
def store():
    return TableStore()


def mpmath_ml(alpha, z, dps=200, terms=4000):
    """Arbitrary-precision series oracle, independent of the library path."""
    from mpmath import gamma, mp, mpf

    with mp.workdps(dps):
        s = mpf(0)
        for k in range(terms):
            s += mpf(z) ** k / gamma(1 + mpf(alpha) * k)
        return s


def admissible_lambda(mesh, alpha, pi_A, cap=0.5, safety=0.9) -> float:
    """A hypothesis constant small enough for the step restriction and for
    the envelope to stay finite in double precision."""
    allowed = mesh.max_step() ** (-alpha) / (2.0 * pi_A * math.gamma(2.0 - alpha))
    return min(cap, safety * allowed)


def lambda_sequence(N, total, rng=None) -> np.ndarray:
    """Nonnegative weights with a few nonzero entries summing to ``total``."""
    lam = np.zeros(N)
    lam[0] = 0.7 * total
    if N > 1:
        lam[1] = 0.3 * total
    else:
        lam[0] = total
    return lam
