"""Discrete convolution kernels A^(n)_{n-k} for nonuniform time stepping.

Every kernel entry is evaluated in closed form through antiderivatives of the
weakly singular weight (the integral of omega_beta is omega_{beta+1});
numerical quadrature appears only in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _floatrepr
from .mesh import TimeMesh
from .soe import SOEApprox, _SOEHistory, _soe_for_mesh
from .specialfn import _singular_average, omega

__all__ = [
    "KernelTable",
    "AssumptionReport",
    "NonUniformMeshError",
    "SCHEMES",
    "build_table",
    "l1_kernel",
    "alikhanov_kernel",
    "fast_l1_kernel",
    "bdf2_kernel",
    "bdf2_recombine",
    "verify_assumptions",
    "apply_discrete_derivative",
    "kernel_rows_csv",
]

SCHEMES = ("l1", "fastl1", "alikhanov", "bdf2", "bdf2recombined")

# Relative slack (scaled by the row diagonal) absorbed by the monotonicity scan.
A1_SLACK = 1e-13


class NonUniformMeshError(ValueError):
    """The operation is only defined on uniform meshes."""


# Row blocks of an (N, N) table hold at most max(width * N, _BLOCK_FLOOR)
# entries: O(width * N) scratch on large tables, and one or two blocks on small
# ones, where the fixed numpy cost of a block outweighs its entries. A block of
# the kernel triangle holds about 13 block-sized temporaries and one of a table
# consumer about 3, hence the two widths.
_BLOCK_FLOOR = 2 ** 12
_BLOCK_WIDTH = {"triangle": 4, "table": 32}


def _blocks(N: int, kind: str = "table"):
    """Yield (rows, lag) over the row blocks of a lower-triangular (N, N)
    table, covering rows 0..N-1 in order. Each block rows = r0..r1-1 is the
    largest with (r1 - r0) * r1 <= max(_BLOCK_WIDTH[kind] * N, _BLOCK_FLOOR),
    and never empty; lag[i, k] = r0 + i - k is the lag n - k of the entry in
    row r0 + i and column k < r1, negative above the diagonal."""
    budget = max(_BLOCK_WIDTH[kind] * N, _BLOCK_FLOOR)
    r0 = 0
    while r0 < N:
        r1 = min(N, max(r0 + 1, (r0 + math.isqrt(r0 * r0 + 4 * budget)) // 2))
        yield slice(r0, r1), np.arange(r0, r1)[:, None] - np.arange(r1)
        r0 = r1


class _LowerTable:
    """A dense lower-triangular (N, N) float64 table, read-only once built.

    Entry [n-1, k-1] holds the value of step n at lag n-k for k <= n and 0
    above the diagonal; ``row(n)``, ``rows`` and ``diagonal()`` are views of
    it. Subclasses are dataclasses that name their array field in ``_array``.
    Finished tables are immutable and safe to share between threads.
    """

    def __post_init__(self):
        self._matrix.setflags(write=False)

    @property
    def _matrix(self) -> np.ndarray:
        return getattr(self, self._array)

    @property
    def N(self) -> int:
        return self._matrix.shape[0]

    @property
    def rows(self) -> tuple:
        """Row n-1 holds the values of step n for the lags j = 0..n-1."""
        M = self._matrix
        return tuple(M[n, n::-1] for n in range(self.N))

    def row(self, n: int) -> np.ndarray:
        """Values of step n (1-based), indexed by lag."""
        return self._matrix[n - 1, n - 1::-1]

    def diagonal(self) -> np.ndarray:
        """The lag-0 values for n = 1..N."""
        return np.diagonal(self._matrix)


@dataclass
class KernelTable(_LowerTable):
    """Coefficients of a discrete memory derivative: ``K[n-1, k-1]`` holds
    A^(n)_{n-k} (see ``_LowerTable``)."""

    _array = "K"

    K: np.ndarray
    theta: float
    alpha: float
    scheme_id: str
    pi_A: float | None
    mesh: TimeMesh


@dataclass(frozen=True)
class AssumptionReport:
    a1_holds: bool
    a1_worst_violation: float
    a2_pi_estimate: float
    pi_A_claim: float | None
    a2_holds_for_claim: bool | None


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")
    return alpha


# Far intervals (h <= _SERIES_SWITCH * D) take their first moment from a
# positive-term midpoint series, where the antiderivative differences would
# cancel catastrophically; see _weight_integrals.
_SERIES_SWITCH = 0.4
_SERIES_STEPS = 16

# Step j of the moment series adds at most x2**j times its first term (every
# coefficient ratio is below 1 for alpha < 1), and the sum is at least its
# first term. Once x2**j < 2**-55 that addend is below half an ulp of the sum,
# so round-to-nearest returns the sum unchanged, and every later addend is
# smaller still: an entry needs step j only if x2 >= _SERIES_CUTS[j-1].
_SERIES_CUTS = 2.0 ** (-55.0 / np.arange(1, _SERIES_STEPS))


def _series_sums(alpha: float, D, h):
    """Midpoint-series value of the first-moment integral
      int (s - mid) omega_{1-a} = (h^2/2) sum over odd m of c_m (h/2)^m / (m+2),
    with c_m = (alpha)_m D^(-alpha-m) / (m! Gamma(1-alpha)) and x = h/(2D).
    All terms are positive, so nothing cancels however small h/D gets. Each
    entry stops at the first step that cannot change its sum (_SERIES_CUTS);
    entries of the near branch (h > _SERIES_SWITCH * D) take no step, as
    _weight_integrals overwrites them.
    """
    r = 0.5 * h / D
    need = np.searchsorted(_SERIES_CUTS, r ** 2, side="right").astype(np.uint8)
    need[h > _SERIES_SWITCH * D] = 0
    # most steps first (a radix sort on uint8), so step j works on a prefix;
    # an x2 that underflowed to 0 needs no step
    order = np.argsort(np.uint8(_SERIES_STEPS) - need, kind="stable")
    reach = np.cumsum(np.bincount(need, minlength=_SERIES_STEPS)[::-1])[::-1]
    r = r[order]
    x2 = r ** 2
    t = omega(1.0 - alpha, D[order]) * alpha * r  # the m = 1 terms
    del r
    s = t / 3.0
    addend = np.empty_like(t)
    for j in range(1, len(reach)):
        p, m = reach[j], 2 * j + 1
        if p == 0:
            break
        # t_j = t_{j-1} (alpha+m-2)(alpha+m-1) / ((m-1) m) x2
        tp = t[:p]
        tp *= alpha + m - 2
        tp *= alpha + m - 1
        tp /= (m - 1) * m
        tp *= x2[:p]
        s[:p] += np.divide(tp, m + 2, out=addend[:p])
    t[order] = s  # the sums, back in entry order
    return 0.5 * h ** 2 * t


def _weight_integrals(alpha: float, u_lo: np.ndarray, h: np.ndarray,
                      moments: bool):
    """Average and first-moment integrals of omega_{1-a} over intervals of
    width h whose NEAR endpoint sits at distance u_lo >= 0 from the
    evaluation point (1-D arrays of one length):
      avg    = (1/h) int omega_{1-a}(dist) ds,
      moment = int (s - mid) omega_{1-a}(dist) ds   (None unless ``moments``).
    avg = (omega_{2-a}(u_hi) - omega_{2-a}(u_lo)) / h, u_hi = u_lo + h, is
    formed without cancellation as u_hi^(1-a) (-expm1(-(1-a) log1p(h/u_lo)))
    / (h Gamma(2-a)); it is omega_{2-a}(h)/h = h^-a / Gamma(2-a) at u_lo = 0
    (``specialfn._singular_average``), and omega_{1-a}(D),
    D = u_lo + h/2, where (h/2D)^2 < 2^-55 (the two agree there to half an
    ulp). The moment takes the midpoint series on far intervals and the
    antiderivative differences D h avg - (1-a) (omega_{3-a}(u_hi) -
    omega_{3-a}(u_lo)) on near ones (h > _SERIES_SWITCH * D).
    u_lo must be the exact endpoint distance (0 for the singular interval):
    the slow power decay of the weight makes even 1e-17 of endpoint slop
    visible at the 1e-5 level.
    """
    u_hi = u_lo + h
    with np.errstate(divide="ignore"):  # u_lo = 0, overwritten below
        x = h / u_lo
    avg = np.expm1((alpha - 1.0) * np.log1p(x, out=x), out=x)
    avg *= u_hi ** -alpha * u_hi  # u_hi^(1-a) with no rounding of 1 - a
    avg /= h * -math.gamma(2.0 - alpha)
    singular = np.flatnonzero(u_lo == 0.0)
    avg[singular] = _singular_average(alpha, h[singular])
    D = u_lo + 0.5 * h
    flat = np.flatnonzero((0.5 * h / D) ** 2 < 2.0 ** -55)
    avg[flat] = omega(1.0 - alpha, D[flat])
    if not moments:
        return avg, None
    mom = _series_sums(alpha, D, h)
    near = np.flatnonzero(h > _SERIES_SWITCH * D)
    d3 = u_hi[near] ** (2.0 - alpha) - u_lo[near] ** (2.0 - alpha)
    d3 *= (1.0 - alpha) / math.gamma(3.0 - alpha)
    mom[near] = D[near] * (h[near] * avg[near]) - d3
    return avg, mom


def _triangle(mesh: TimeMesh, alpha: float, offset: float = 0.0,
              moments: bool = False):
    """Yield (rows, inside, avg, mom) over the kernel triangle, one row block
    of ``_blocks(N, "triangle")`` at a time; ``inside`` masks its entries k <= n.

    ``avg`` and ``mom`` have shape (len(rows), rows.stop); entry [n-1-rows.start,
    k-1] holds the _weight_integrals of interval k, [t_{k-1}, min(t_k, t_eval)],
    at t_eval = t_n - offset * tau_n for k <= n (so offset > 0 cuts the closing
    interval at t_eval), and 0 for k > n. ``mom`` is None unless ``moments``.
    The values of an entry do not depend on the block it falls in.
    """
    t = mesh.nodes
    t_eval = t[1:] - offset * mesh.tau
    for rows, lag in _blocks(mesh.N, "triangle"):
        w = rows.stop
        te = t_eval[rows, None]
        inside = lag >= 0
        del lag
        hi = np.minimum(t[1 : w + 1], te)
        h = (hi - t[:w])[inside]
        u_lo = np.subtract(te, hi, out=hi)[inside]
        # drop each array once spent: the next block's scratch and the
        # consumer's come on top of whatever is still alive here
        del hi
        avg_in, mom_in = _weight_integrals(alpha, u_lo, h, moments)
        del u_lo, h
        avg = np.zeros(inside.shape)
        avg[inside] = avg_in
        mom = None
        if moments:
            mom = np.zeros(inside.shape)
            mom[inside] = mom_in
        del avg_in, mom_in
        yield rows, inside, avg, mom


def l1_kernel(mesh: TimeMesh, alpha: float) -> KernelTable:
    """Piecewise-linear (L1) kernels; theta = 0, lower-bound constant 1."""
    alpha = _check_alpha(alpha)
    K = np.zeros((mesh.N, mesh.N))
    # a^(n)_{n-k} = (1/tau_k) int_{t_{k-1}}^{t_k} omega_{1-a}(t_n - s) ds
    for rows, _, avg, _ in _triangle(mesh, alpha):
        K[rows, : rows.stop] = avg
        del avg  # spent before _triangle builds the next block
    return KernelTable(K, 0.0, alpha, "l1", 1.0, mesh)


def _quadratic_matrix(mesh: TimeMesh, alpha: float, offset_theta: float,
                      last_interval_quadratic: bool) -> np.ndarray:
    """K for the two piecewise-quadratic schemes, built by accumulating the
    contribution of each interpolation interval to the increment coefficients.

    Interval k < n (quadratic through t_{k-1}, t_k, t_{k+1}) contributes
    (a_{n-k} - b_{n-k}) to increment k and rho_k * b_{n-k} to increment k+1.
    The closing interval is linear for the offset scheme and quadratic
    (through t_{n-2}, t_{n-1}, t_n) for the BDF2-like one.
    """
    t, tau, rho = mesh.nodes, mesh.tau, mesh.rho
    K = np.zeros((mesh.N, mesh.N))
    for rows, _, avg, mom in _triangle(mesh, alpha, offset_theta, moments=True):
        w = rows.stop
        n = np.arange(rows.start, w)  # 0-based row index = diagonal column
        diag = (n - rows.start, n)
        b = np.zeros_like(mom)
        b[:, :-1] = 2.0 * mom[:, :-1] / (tau[: w - 1] * (tau[: w - 1] + tau[1:w]))
        b[diag] = 0.0
        Kb = avg - b
        Kb[diag] = 0.0
        Kb[:, 1:] += rho[: w - 1] * b[:, :-1]
        if last_interval_quadratic:
            q = n[n >= 1]
            cell = (q - rows.start, q)
            b0 = 2.0 * mom[cell] / (tau[q - 1] * (tau[q - 1] + tau[q]))
            Kb[cell] += avg[cell] + rho[q - 1] * b0
            Kb[cell[0], q - 1] -= b0
            if rows.start == 0:
                Kb[0, 0] = avg[0, 0]  # the BDF2-like first row is L1's
        else:
            # linear interpolant on [t_{n-1}, t_eval]
            width = (t[n + 1] - offset_theta * tau[n]) - t[n]
            Kb[diag] += avg[diag] * width / tau[n]
        K[rows, :w] = Kb
        # spent before _triangle builds the next block
        del avg, mom, b, Kb
    return K


def alikhanov_kernel(mesh: TimeMesh, alpha: float) -> KernelTable:
    """Offset piecewise-quadratic kernels with theta = alpha/2.

    The lower-bound constant 11/4 is guaranteed when all step ratios stay
    at or below 7/4.
    """
    alpha = _check_alpha(alpha)
    theta = alpha / 2.0
    K = _quadratic_matrix(mesh, alpha, theta, last_interval_quadratic=False)
    return KernelTable(K, theta, alpha, "alikhanov", 11.0 / 4.0, mesh)


def bdf2_kernel(mesh: TimeMesh, alpha: float) -> KernelTable:
    """BDF2-like kernels (quadratic interpolation, theta = 0), L1 first row.

    Positivity/monotonicity may fail, notably for alpha close to 1; no
    lower-bound constant is claimed.
    """
    alpha = _check_alpha(alpha)
    K = _quadratic_matrix(mesh, alpha, 0.0, last_interval_quadratic=True)
    return KernelTable(K, 0.0, alpha, "bdf2", None, mesh)


def fast_l1_kernel(mesh: TimeMesh, alpha: float, soe: SOEApprox) -> KernelTable:
    """L1 kernels with the history part compressed by decaying exponentials.

    Column k of the (Nq, N) SOE states holds the history of the unit step at
    t_k, so row n holds the coefficients the fast L1 march applies at step n.
    The approximation must be certified on a window covering every gap
    t_n - s that occurs, and its tolerance must satisfy
    eps <= min(omega_{1-a}(T)/3, a * omega_{2-a}(1)) for the 3/2 lower-bound
    constant to hold.
    """
    alpha = _check_alpha(alpha)
    history = _SOEHistory(soe, mesh, alpha, (mesh.N,))
    K = np.empty((mesh.N, mesh.N))
    for n in range(1, mesh.N + 1):
        K[n - 1] = history.term(n)  # 0 from column n-1 on, not yet started
        K[n - 1, n - 1] = history.diagonal[n - 1]
        # pushing the unit step at t_n adds phi to column n-1, 0 to the rest
        history.H[:, n - 1 : n] = history.phi
    return KernelTable(K, 0.0, alpha, "fastl1", 1.5, mesh)


def bdf2_recombine(table: KernelTable):
    """Geometric reweighting that restores positivity of uniform BDF2 kernels.

    Returns the recombined table and the combination parameter
    eta = (1 - A^(N)_1 / A^(N)_0) / 2; new entries are the geometric sums
    sum_{m<=lag} A_m eta^(lag-m). Only defined on uniform meshes.
    """
    if table.scheme_id != "bdf2":
        raise ValueError(f"expected a bdf2 table, got {table.scheme_id!r}")
    if table.N < 2:
        raise ValueError("recombination needs at least two rows")
    mesh = table.mesh
    if len(mesh.rho) and np.max(np.abs(mesh.rho - 1.0)) > 1e-12:
        raise NonUniformMeshError(
            "recombination is only available on uniform meshes")
    last = table.row(table.N)
    eta = 0.5 * (1.0 - last[1] / last[0])
    # lag grows right to left along a row, so sweep the columns that way
    R = table.K.copy()
    for c in range(table.N - 2, -1, -1):
        R[:, c] += eta * R[:, c + 1]
    new = KernelTable(R, table.theta, table.alpha, "bdf2recombined", None, mesh)
    return new, float(eta)


def build_table(scheme: str, mesh: TimeMesh, alpha: float,
                eps: float | None = None) -> KernelTable:
    """Kernel table of the scheme named ``scheme`` (one of SCHEMES); ``eps``
    is the compression tolerance of fastl1 and unused by the others."""
    if scheme == "l1":
        return l1_kernel(mesh, alpha)
    if scheme == "alikhanov":
        return alikhanov_kernel(mesh, alpha)
    if scheme == "fastl1":
        return fast_l1_kernel(mesh, alpha, _soe_for_mesh(alpha, eps, mesh))
    if scheme == "bdf2":
        return bdf2_kernel(mesh, alpha)
    if scheme == "bdf2recombined":
        return bdf2_recombine(bdf2_kernel(mesh, alpha))[0]
    raise ValueError(f"unknown scheme {scheme!r}")


def check_same_problem(table: KernelTable, mesh: TimeMesh,
                       alpha: float | None = None) -> None:
    """Raise ValueError unless ``table`` was built on ``mesh`` (and, when
    given, at ``alpha``), so no audit certifies another problem's table."""
    if not np.array_equal(mesh.nodes, table.mesh.nodes):
        raise ValueError("mesh differs from the mesh the table was built on")
    if alpha is not None and abs(float(alpha) - table.alpha) > 1e-15:
        raise ValueError(
            f"alpha={alpha} differs from the table's alpha={table.alpha}")


def verify_assumptions(table: KernelTable, mesh: TimeMesh,
                       pi_A_claim: float | None = None) -> AssumptionReport:
    """Scan positivity/monotonicity and measure the sharpest lower-bound
    constant sup over (k, n) of integral / (tau_k * A^(n)_{n-k}).

    Monotonicity tolerates rounding of size A1_SLACK * A^(n)_0 per row. A
    non-positive entry makes the constant infinite.
    """
    check_same_problem(table, mesh)
    if pi_A_claim is not None and not math.isfinite(pi_A_claim):
        raise ValueError(f"pi_A_claim must be finite, got {pi_A_claim}")
    worst, a1, pi_est = 0.0, True, 0.0
    for rows, inside, avg, _ in _triangle(mesh, table.alpha):
        w = rows.stop
        Kb = table.K[rows, :w]
        low = Kb.min(axis=1, where=inside, initial=np.inf)
        # lag differences A_{j+1} - A_j of each row, as column differences
        rise = np.max(Kb[:, :-1] - Kb[:, 1:], axis=1, where=inside[:, 1:], initial=0.0)
        slack = A1_SLACK * np.abs(np.diagonal(Kb, rows.start))
        worst = max(worst, float(-low.min()), float(rise.max()))
        a1 = a1 and not (np.any(low <= 0.0) or np.any(rise > slack))
        # integral over [t_{k-1}, t_k] / (tau_k A^(n)_{n-k}), infinite if A <= 0
        denom = (mesh.tau[:w] * Kb)[inside]
        ratio = np.divide((avg * mesh.tau[:w])[inside], denom, where=denom > 0.0,
                          out=np.full_like(denom, math.inf))
        pi_est = max(pi_est, float(ratio.max()))
    # relative cushion so a claim of exactly pi_A survives last-bit rounding
    holds = None if pi_A_claim is None else bool(
        pi_est <= pi_A_claim * (1.0 + 1e-10))
    return AssumptionReport(a1, worst, pi_est, pi_A_claim, holds)


def apply_discrete_derivative(table: KernelTable, v) -> np.ndarray:
    """Evaluate the memory derivative of a sequence at every step.

    ``v`` has shape (N+1,) or (N+1, d); the result holds
    sum_k A^(n)_{n-k} (v^k - v^{k-1}) for n = 1..N.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] != table.N + 1:
        raise ValueError(f"sequence must have N+1 = {table.N + 1} entries")
    return table.K @ np.diff(v, axis=0)


def kernel_rows_csv(rows, fh, header_lines=()) -> int:
    """Write (n, lag, value) triples as CSV; returns the number of data rows.

    The values are ``repr``'s bytes. Rows are formatted and written in blocks
    of about _floatrepr.BLOCK entries, one ``write`` per block.
    """
    for line in header_lines:
        fh.write(f"# {line}\n")
    fh.write("n,lag,value\n")
    rows = list(rows)
    sizes = np.array([len(row) for row in rows], dtype=np.intp)
    # "0", "1", ... as NUL-padded bytes, for both the n and the lag field
    numbers = _floatrepr.str_chars(range(max(len(rows), sizes.max(initial=0)) + 1))
    ends = np.cumsum(sizes)
    start = 0
    while start < len(rows):
        # the rows start..stop-1 hold at most BLOCK entries, or are one row
        stop = max(int(np.searchsorted(ends, ends[start] - sizes[start]
                                       + _floatrepr.BLOCK, side="right")),
                   start + 1)
        counts = sizes[start:stop]
        lag = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        n = np.repeat(np.arange(start + 1, stop + 1), counts)
        fh.write(_floatrepr.csv_lines([
            np.take(numbers, n, axis=0), np.take(numbers, lag, axis=0),
            _floatrepr.repr_chars(np.concatenate(rows[start:stop]))]))
        start = stop
    return int(sizes.sum())
