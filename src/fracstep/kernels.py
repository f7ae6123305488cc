"""Discrete convolution kernels A^(n)_{n-k} for nonuniform time stepping.

Every kernel entry is built from two integrals of the weakly singular weight
over one interval: its average, in closed form, and, for the quadratic
schemes, its first moment, a series of positive terms (_weight_integrals).
Numerical quadrature appears only in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


# Row blocks of an (N, N) table hold at most max(width * N, scale * floor)
# entries: O(width * N) scratch on large tables, and one or two blocks on small
# ones, where the fixed numpy cost of a block outweighs its entries. A block of
# the kernel triangle holds at most about 6.4 block-sized arrays at once (the
# quadratic schemes; L1 about 4.5), one of a table consumer about 3, and one
# of the CSV formatter about 0.3 kB per entry, some 40 doubles, hence the
# widths. The triangle's block costs the most numpy calls, so its width and
# floor are as large as keep its scratch at the 10.5 arrays of 4 N entries
# (4096 on small tables) that it held before it was evaluated in place.
_BLOCK_FLOOR = 2 ** 12
_BLOCK_WIDTH = {"triangle": 6.5, "table": 32, "csv": 1}
_FLOOR_SCALE = {"triangle": 1.625, "table": 1, "csv": 1}


def _block_budget(N: int, kind: str) -> int:
    """Entries a row block of kind ``kind`` may hold in a table of N columns:
    max(_BLOCK_WIDTH[kind] * N, _FLOOR_SCALE[kind] * _BLOCK_FLOOR)."""
    return int(max(_BLOCK_WIDTH[kind] * N, _FLOOR_SCALE[kind] * _BLOCK_FLOOR))


def _block_rows(N: int, kind: str = "table"):
    """Yield the row blocks rows = r0..r1-1 of a lower-triangular (N, N)
    table, covering rows 0..N-1 in order: each is the largest with
    (r1 - r0) * r1 <= _block_budget(N, kind), and never empty."""
    budget = _block_budget(N, kind)
    r0 = 0
    while r0 < N:
        r1 = min(N, max(r0 + 1, (r0 + math.isqrt(r0 * r0 + 4 * budget)) // 2))
        yield slice(r0, r1)
        r0 = r1


def _blocks(N: int, kind: str = "table"):
    """Yield (rows, lag) over ``_block_rows(N, kind)``: lag[i, k] = r0 + i - k
    is the lag n - k of the entry in row r0 + i and column k < r1, negative
    above the diagonal."""
    for rows in _block_rows(N, kind):
        yield rows, np.arange(rows.start, rows.stop)[:, None] - np.arange(rows.stop)


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


@lru_cache(maxsize=256)
def _moment_coefficient(alpha: float, k: int) -> float:
    """((2-a)^(2k) - a^(2k)) / (2k+1)!, correctly rounded from integers
    (alpha = n/d with d a power of two)."""
    n, d = alpha.as_integer_ratio()
    return (((2 * d - n) ** (2 * k) - n ** (2 * k))
            / (d ** (2 * k) * math.factorial(2 * k + 1)))


def _moment_series(alpha: float, b: np.ndarray) -> np.ndarray:
    """sum_{k>=1} _moment_coefficient(alpha, k) b^(2k-2), positive terms in
    ascending order. The terms rise, then fall, and fall sooner for smaller b,
    so once a term at the largest b is below 2^-56 of its sum, no later term
    can change the sum of any entry: each keeps its full series' bits,
    whatever its block holds."""
    total = _moment_coefficient(alpha, 1)
    s, power, scratch = np.full_like(b, total), np.ones_like(b), np.empty_like(b)
    b2max, k, pmax = float(b.max(initial=0.0)) ** 2, 1, 1.0
    while True:
        k += 1
        a = _moment_coefficient(alpha, k)
        pmax *= b2max
        if a * pmax <= 2.0 ** -56 * total:
            return s
        total += a * pmax
        power *= b  # twice: a rounded b^2 would bias every term alike
        power *= b
        s += np.multiply(power, a, out=scratch)


def _singular_moment(alpha: float, h):
    """First moment over h^2 of omega_{1-a} over [0, h] about its midpoint,
    a h^-a / (2 Gamma(3-a)); ``specialfn._singular_average`` is its average."""
    return alpha / (2.0 * math.gamma(3.0 - alpha)) * h ** -alpha


def _weight_integrals(alpha: float, u_lo: np.ndarray, h: np.ndarray,
                      moments: bool, out: np.ndarray | None = None):
    """Average and first moment over h^2 of omega_{1-a} over intervals of
    width h whose NEAR endpoint sits at distance u_lo >= 0 from the
    evaluation point (arrays of u_lo's shape, or for h one that broadcasts
    to it, evaluated elementwise):
      avg = (1/h) int omega_{1-a}(dist) ds,
      mom = (1/h^2) int (s - mid) omega_{1-a}(dist) ds   (None unless ``moments``).
    With u_hi = u_lo + h and b = log1p(h/u_lo)/2, so that e^(2b) = u_hi/u_lo,
      avg = u_hi^(1-a) (-expm1(-(1-a) 2b)) / (h Gamma(2-a)),
      mom = a u_hi^-a (u_hi/h) e^(ab) b^3 S(b) / (expm1(2b) Gamma(2-a)),
    where b^3 S(b) = sinh((2-a)b)/(2-a) - sinh(ab)/a and S is the positive
    series of _moment_series, so neither cancels. expm1(2b) stands for
    h/u_lo so that the rounding of b, which e^(ab) S(b) b^3 magnifies like
    e^(2b), cancels. Only ratios of distances and powers of one distance
    enter, so a short horizon underflows nothing. At u_lo = 0, avg =
    h^-a/Gamma(2-a) (``specialfn._singular_average``) and mom =
    ``_singular_moment``; where (h/2D)^2 < 2^-55, D = u_lo + h/2, avg is
    omega_{1-a}(D), which agrees to half an ulp.
    u_lo must be the exact endpoint distance (0 for the singular interval):
    the slow power decay of the weight makes even 1e-17 of endpoint slop
    visible at the 1e-5 level.
    ``avg`` is written to ``out`` when given, a contiguous array that may be
    ``u_lo`` itself (u_lo is not read after the first write to ``out``),
    and the inputs may be of any one shape. The function keeps
    its own copy of h, spent before the moment series, so with ``moments``
    at most six arrays of u_lo's shape are alive at once, ``out`` included
    (four without): ``avg``, b, mom and the series' three.
    """
    shape = u_lo.shape
    u_lo = u_lo.reshape(-1)  # contiguous in the kernel triangle: a view
    if out is not None:
        out = out.reshape(-1)
    h_own = np.empty(shape)
    h_own[...] = h
    h = h_own.reshape(-1)
    singular = (u_lo == 0.0).nonzero()[0]
    u_hi = u_lo + h
    # (h/2D)^2 < 2^-55 implies h < 2^-26.5 u_hi: test only h < 2^-25 u_hi
    flat = (h < np.multiply(u_hi, 2.0 ** -25)).nonzero()[0]
    half = 0.5 * h[flat]
    flat = flat[(half / (u_lo[flat] + half)) ** 2 < 2.0 ** -55]
    if flat.size:  # rare: omega's checks cost more than the search
        flat_avg = omega(1.0 - alpha, u_lo[flat] + 0.5 * h[flat])
    with np.errstate(divide="ignore"):  # u_lo = 0, overwritten below
        b = np.divide(h, u_lo, out=None if moments else out)
    del u_lo  # from here on its buffer may be out
    np.log1p(b, out=b)  # 2b until halved below
    avg = np.multiply(b, alpha - 1.0, out=out if moments else b)
    np.expm1(avg, out=avg)
    decay = u_hi ** -alpha
    # u_hi^(1-a) with no rounding of 1 - a; the moment still needs decay
    scratch = np.multiply(decay, u_hi, out=None if moments else decay)
    avg *= scratch
    avg /= np.multiply(h, -math.gamma(2.0 - alpha), out=scratch)
    avg[singular] = _singular_average(alpha, h[singular])
    if flat.size:
        avg[flat] = flat_avg
    if not moments:
        return avg.reshape(shape), None
    at_singular = _singular_moment(alpha, h[singular])
    mom = np.expm1(b, out=scratch)
    b *= 0.5
    b[singular], mom[singular] = 0.0, 1.0  # overwritten below
    np.divide(b, mom, out=mom)
    mom *= b  # before u_hi/h: where h << u_lo their product stays near 1/4
    mom *= np.divide(u_hi, h, out=u_hi)
    mom *= decay
    mom *= np.exp(np.multiply(b, alpha, out=decay), out=decay)
    del h, h_own, u_hi, decay
    mom *= b
    mom *= _moment_series(alpha, b)
    mom *= alpha / math.gamma(2.0 - alpha)
    mom[singular] = at_singular
    return avg.reshape(shape), mom.reshape(shape)


def _triangle(mesh: TimeMesh, alpha: float, offset: float = 0.0,
              moments: bool = False):
    """Yield (rows, inside, avg, mom) over the kernel triangle, one row block
    of ``_block_rows(N, "triangle")`` at a time; ``inside`` masks its entries k <= n.

    ``avg`` and ``mom`` have shape (len(rows), rows.stop); entry [n-1-rows.start,
    k-1] holds the _weight_integrals of interval k, [t_{k-1}, min(t_k, t_eval)],
    at t_eval = t_n - offset * tau_n for k <= n (so offset > 0 cuts the closing
    interval at t_eval), and 0 for k > n. The block's rectangle is evaluated
    whole: each interval k < n ends at t_k <= t_eval, so its width is tau_k,
    one row of steps for the whole block. The closing intervals are then set
    from their own widths, and the entries k > n, evaluated as intervals of
    width tau_k at distance tau_k, to 0. ``mom`` is None unless
    ``moments``. The values of an entry do not depend on the block it falls
    in.
    """
    t, tau = mesh.nodes, mesh.tau
    t_eval = t[1:] - offset * tau
    for rows in _block_rows(mesh.N, "triangle"):
        w = rows.stop
        n = np.arange(rows.start, w)  # 0-based row index = diagonal column
        inside = np.arange(w) <= n[:, None]
        above = ~inside[:, rows.start :]  # every k > n is in the last columns
        te = t_eval[rows, None]
        u_lo = np.minimum(t[1 : w + 1], te)
        np.subtract(te, u_lo, out=u_lo)
        # an entry k > n gets u_lo = h = tau_k, a harmless interval
        np.copyto(u_lo[:, rows.start :], tau[rows.start : w], where=above)
        avg, mom = _weight_integrals(alpha, u_lo, tau[:w], moments, out=u_lo)
        del u_lo
        closing = (n - rows.start, n)
        h = te[:, 0] - t[rows]
        avg[closing] = _singular_average(alpha, h)
        np.copyto(avg[:, rows.start :], 0.0, where=above)
        if moments:
            mom[closing] = _singular_moment(alpha, h)
            np.copyto(mom[:, rows.start :], 0.0, where=above)
        yield rows, inside, avg, mom
        # drop each array once spent: the next block's scratch and the
        # consumer's come on top of whatever is still alive here
        del inside, avg, mom


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
    # b = 2 moment / (tau_k (tau_k + tau_{k+1})), and rho_k b for increment
    # k+1, as rows over every column; a block's last column is 0 in mom
    to_b = np.append(2.0 * tau[:-1] / (tau[:-1] + tau[1:]), 0.0)
    rho_k = np.append(rho, 0.0)
    for rows, inside, Kb, mom in _triangle(mesh, alpha, offset_theta,
                                           moments=True):
        # Kb holds the averages a until it becomes a - b in place
        w = rows.stop
        n = np.arange(rows.start, w)  # 0-based row index = diagonal column
        diag = (n - rows.start, n)
        avg_diag = Kb[diag]
        if last_interval_quadratic:
            q = n[n >= 1]
            cell = (q - rows.start, q)
            b0 = mom[cell] * (2.0 * tau[q] / (tau[q - 1] + tau[q])
                              * (tau[q] / tau[q - 1]))
        mom *= to_b[:w]  # mom becomes b
        mom[diag] = 0.0
        Kb -= mom
        Kb[diag] = 0.0
        mom *= rho_k[:w]
        # column k's rho_k b goes to column k+1; each row's last, 0, to the
        # next row's first
        Kb.reshape(-1)[1:] += mom.reshape(-1)[:-1]
        if last_interval_quadratic:
            Kb[cell] += avg_diag[q - rows.start] + rho[q - 1] * b0
            Kb[cell[0], q - 1] -= b0
            if rows.start == 0:
                Kb[0, 0] = avg_diag[0]  # the BDF2-like first row is L1's
        else:
            # linear interpolant on [t_{n-1}, t_eval]
            width = (t[n + 1] - offset_theta * tau[n]) - t[n]
            Kb[diag] += avg_diag * width / tau[n]
        K[rows, :w] = Kb
        del inside, Kb, mom  # spent before _triangle builds the next block
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
    for n, (row, phi) in enumerate(history, 1):
        K[n - 1] = row  # 0 from column n-1 on, not yet started
        K[n - 1, n - 1] = history.diagonal[n - 1]
        # pushing the unit step at t_n adds phi to column n-1, 0 to the rest
        history.H[:, n - 1 : n] = phi
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
    if alpha is not None and not abs(float(alpha) - table.alpha) <= 1e-15:  # or NaN
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
        denom = np.multiply(mesh.tau[:w], Kb)
        positive = denom > 0.0
        avg *= mesh.tau[:w]
        ratio = np.divide(avg, denom, out=avg, where=positive)
        np.copyto(ratio, math.inf, where=~positive)
        pi_est = max(pi_est, float(ratio.max(where=inside, initial=0.0)))
        del avg, ratio, denom  # spent before _triangle builds the next block
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


def kernel_rows_csv(table: _LowerTable, fh, header_lines=()) -> int:
    """Write the (n, lag, value) triples of a KernelTable or
    ComplementaryTable as CSV, row n = 1..N by lag 0..n-1; returns the number
    of data rows.

    The values are ``repr``'s bytes. The table is formatted and written one
    row block of ``_blocks(N, "csv")`` at a time, one ``write`` per block.
    """
    for line in header_lines:
        fh.write(f"# {line}\n")
    fh.write("n,lag,value\n")
    M = table._matrix
    # "0", "1", ... as NUL-padded bytes, for both the n and the lag field
    numbers = _floatrepr.str_chars(range(table.N + 1))
    for rows, lag in _blocks(table.N, "csv"):
        # columns right to left: each row's entries in ascending lag
        lag = lag[:, ::-1]
        inside = lag >= 0
        n = np.arange(rows.start + 1, rows.stop + 1)[:, None]
        fh.write(_floatrepr.csv_lines([
            np.take(numbers, np.broadcast_to(n, lag.shape)[inside], axis=0),
            np.take(numbers, lag[inside], axis=0),
            _floatrepr.repr_chars(M[rows, rows.stop - 1::-1][inside])]))
    return table.N * (table.N + 1) // 2
