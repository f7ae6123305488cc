import io
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from fracstep.complementary import (
    ComplementaryTable,
    ZeroDiagonalError,
    build_complementary,
    check_lemma21,
    check_lemma22_23,
    identity_residual,
)
from fracstep.kernels import (
    KernelTable,
    _blocks,
    alikhanov_kernel,
    build_table,
    kernel_rows_csv,
    l1_kernel,
)
from fracstep.mesh import graded_mesh, mesh_from_nodes, random_mesh, uniform_mesh
from fracstep.specialfn import log_mittag_leffler, omega

from conftest import make_mesh


def test_first_entry_is_reciprocal_diagonal():
    table = l1_kernel(mesh_from_nodes([0.0, 1.0]), 0.5)
    ct = build_complementary(table)
    assert ct.row(1)[0] == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)
    assert ct.N == 1 and len(ct.row(1)) == 1


@pytest.mark.parametrize("scheme", ["l1", "alikhanov", "fastl1", "bdf2recombined"])
@pytest.mark.parametrize("family", ["uniform", "graded3"])
def test_identity_holds_everywhere(store, scheme, family, ):
    if scheme == "bdf2recombined" and family != "uniform":
        pytest.skip("recombination is uniform-mesh only")
    mesh, table, ct = store.ctable(scheme, family, 48, 0.5)
    assert identity_residual(ct) <= 1e-11


def test_identity_holds_for_raw_bdf2(store):
    # the construction inverts any table with positive diagonals, monotone or not
    mesh, table, ct = store.ctable("bdf2", "uniform", 40, 0.9)
    assert identity_residual(ct) <= 1e-11


def test_identity_at_larger_scale():
    mesh = graded_mesh(512, 2.0, 1.0)
    ct = build_complementary(l1_kernel(mesh, 0.5))
    assert identity_residual(ct) <= 1e-11


def test_nonnegative_under_a1(store):
    for scheme in ("l1", "alikhanov"):
        for family in ("uniform", "graded2", "randquasi"):
            _, _, ct = store.ctable(scheme, family, 32, 0.7)
            assert min(float(r.min()) for r in ct.rows) >= 0.0


def _lapack_complementary(table):
    """P as LAPACK's dtrtri inverts B = K L^-1: the reference for the numpy
    block inverse."""
    lapack = pytest.importorskip("scipy.linalg.lapack")
    B = np.array(table.K, order="F")
    B[:, :-1] -= table.K[:, 1:]
    P, info = lapack.dtrtri(B, lower=1)
    assert info == 0
    return P


@pytest.mark.parametrize("scheme,mesh,alpha", [
    ("l1", graded_mesh(256, 3.0, 1.0), 0.3),
    ("l1", graded_mesh(300, 2.0, 1.0), 0.7),
    ("alikhanov", random_mesh(512, 1.0, rho_bound=1.75, seed=7), 0.5),
    ("l1", random_mesh(200, 1.0, seed=11), 0.5),
    # raw bdf2 fails A1: its unit-diagonal blocks have entries of 1.24, so the
    # LU pivots
    ("bdf2", uniform_mesh(40, 1.0), 0.9),
], ids=["l1-graded3", "l1-graded2", "alikhanov-random", "l1-random", "bdf2-raw"])
def test_matches_lapack_triangular_inverse(scheme, mesh, alpha):
    table = build_table(scheme, mesh, alpha)
    P = build_complementary(table).P
    ref = _lapack_complementary(table)
    lower = np.tri(table.N, dtype=bool)
    assert np.max(np.abs(P[lower] / ref[lower] - 1.0)) <= 1e-14
    assert not np.any(P[~lower])  # the upper triangle is exactly 0


def test_zero_diagonal_rejected():
    mesh = uniform_mesh(3, 1.0)
    K = l1_kernel(mesh, 0.5).K.copy()
    K[1, 1] = 0.0  # A^(2)_0
    bad = KernelTable(K=K, theta=0.0, alpha=0.5, scheme_id="l1",
                      pi_A=None, mesh=mesh)
    with pytest.raises(ZeroDiagonalError):
        build_complementary(bad)


def test_lemma21_l1_all_checks_pass(store):
    for family in ("uniform", "graded2", "graded3", "randquasi"):
        mesh, table, ct = store.ctable("l1", family, 40, 0.5)
        rep = check_lemma21(ct, mesh, 0.5, 1.0)
        assert rep.nonnegative
        assert rep.entry_bound_holds
        assert rep.weighted_sum_holds


def test_lemma21_alikhanov_with_its_constant(store):
    for family in ("uniform", "graded2"):
        mesh, table, ct = store.ctable("alikhanov", family, 40, 0.3)
        rep = check_lemma21(ct, mesh, 0.3, 2.75)
        assert rep.nonnegative and rep.entry_bound_holds and rep.weighted_sum_holds


def test_lemma21_flags_corrupted_source():
    mesh = uniform_mesh(6, 1.0)
    K = l1_kernel(mesh, 0.5).K.copy()
    K[4, 3] = -5.0  # A^(5)_1: breaks positivity badly enough to push P negative
    bad = KernelTable(K=K, theta=0.0, alpha=0.5, scheme_id="l1",
                      pi_A=None, mesh=mesh)
    ct = build_complementary(bad)
    rep = check_lemma21(ct, mesh, 0.5, 1.0)
    assert not rep.nonnegative
    assert rep.min_entry < 0.0


def test_lemma22_23_l1_uniform(store):
    mesh, table, ct = store.ctable("l1", "uniform", 64, 0.5)
    rep = check_lemma22_23(ct, mesh, 0.5, 1.0, rho=1.0)
    assert rep.powerlaw_holds
    assert rep.ml_holds
    assert rep.ml_log_min_margin > 0.0


def test_lemma22_23_alikhanov_strong_grading(store):
    mesh, table, ct = store.ctable("alikhanov", "graded3", 48, 0.5)
    rep = check_lemma22_23(ct, mesh, 0.5, 2.75, rho=mesh.max_ratio())
    assert rep.powerlaw_holds and rep.ml_holds


def _lemma22_23_by_logsumexp(ct, mesh, alpha, pi_A, rho):
    """The Lemma 2.2/2.3 check with the Mittag-Leffler half undivided: the log
    of every P entry plus log E_a(mu t_j^a), summed by scipy's logsumexp."""
    fac = max(1.0, rho) * pi_A
    t = mesh.nodes[1:]
    W = np.stack([omega(1.0 + k * alpha, t) for k in range(6)], axis=1)
    lhs_w, rhs_w = W[:, :-1], fac * W[:, 1:]
    mus = np.array([0.5, 2.0, 10.0])
    logE = log_mittag_leffler(alpha, np.float_power(t, alpha)[:, None] * mus)
    rhs_log = math.log(fac) + logE + np.log1p(-np.exp(-logE)) - np.log(mus)
    power_excess, log_margin = -math.inf, math.inf
    for rows, lag in _blocks(ct.N):
        stop = rows.stop
        P = np.where(lag > 0, ct.P[rows, :stop], 0.0)
        tail = slice(1 if rows.start == 0 else 0, None)
        rel = (P @ lhs_w[:stop] - rhs_w[rows]) / np.maximum(1.0, rhs_w[rows])
        power_excess = max(power_excess, float(np.max(rel[tail], initial=-math.inf)))
        with np.errstate(divide="ignore"):
            logP = np.log(np.maximum(P, 0.0))
        for i in range(len(mus)):
            margin = rhs_log[rows, i] - logsumexp(logP + logE[:stop, i], axis=1)
            log_margin = min(log_margin, float(np.min(margin[tail], initial=math.inf)))
    return (power_excess, power_excess <= 1e-10, log_margin, log_margin >= -1e-10)


def _lemma22_23_tuple(rep):
    return (rep.powerlaw_max_excess, rep.powerlaw_holds, rep.ml_log_min_margin,
            rep.ml_holds)


def _assert_matches_logsumexp(ct, mesh, alpha, pi_A, rho):
    want = _lemma22_23_by_logsumexp(ct, mesh, alpha, pi_A, rho)
    got = _lemma22_23_tuple(check_lemma22_23(ct, mesh, alpha, pi_A, rho))
    assert got[:2] == want[:2] and got[3] == want[3]
    margin, ref = got[2], want[2]
    assert margin == ref or abs(margin - ref) <= 1e-12 * max(1.0, abs(ref))
    return got


@pytest.mark.parametrize("scheme,N", [
    (scheme, N) for scheme in ("l1", "alikhanov", "fastl1", "bdf2recombined")
    for N in (1, 2, 17, 64, 300)
    if scheme != "bdf2recombined" or N > 1])  # recombination needs two rows
def test_lemma22_23_matches_logsumexp_form(scheme, N):
    # dividing by E_a(mu t_n^a) moves only the rounding of the log margin;
    # at alpha = 0.05 and mu = 10 whole rows of ratios underflow to 0
    families = {"uniform": uniform_mesh(N, 1.0)}
    if scheme != "bdf2recombined":
        families.update(graded2=graded_mesh(N, 2.0, 1.0),
                        graded3=graded_mesh(N, 3.0, 1.0),
                        random=random_mesh(N, 1.0, seed=N))
    verdicts = set()
    for mesh in families.values():
        for alpha in (0.05, 0.5, 0.95):
            table = build_table(scheme, mesh, alpha, 1e-8)
            ct = build_complementary(table)
            pi_A = 1.0 if table.pi_A is None else table.pi_A
            for scale in (1.0, 0.125):  # a small constant makes bounds fail
                got = _assert_matches_logsumexp(ct, mesh, alpha, scale * pi_A,
                                                mesh.max_ratio())
                verdicts.add((got[1], got[3]))
    assert N < 17 or len(verdicts) > 1  # the verdicts compared are not all alike


def test_lemma22_23_sees_one_inflated_entry(store):
    mesh, table, ct = store.ctable("l1", "uniform", 64, 0.5)
    assert check_lemma22_23(ct, mesh, 0.5, 1.0, rho=1.0).ml_holds
    P = ct.P.copy()
    P[40, 20] *= 1e3  # P^(41)_{20}, strictly below the diagonal
    bad = ComplementaryTable(P=P, source=table)
    assert not check_lemma22_23(bad, mesh, 0.5, 1.0, rho=1.0).ml_holds
    assert not _assert_matches_logsumexp(bad, mesh, 0.5, 1.0, 1.0)[3]


def test_lemma22_power_k1_reduces_to_plain_sum(store):
    # derivative of the first power-law test function is identically one
    mesh, table, ct = store.ctable("l1", "graded2", 24, 0.4)
    fac = 1.0  # uniform bound factor: graded ratios stay below 1
    for n in (2, 9, 24):
        lhs = float(np.sum(ct.row(n)[1:]))
        rhs = fac * mesh.t(n) ** 0.4 / math.gamma(1.4)
        assert lhs <= rhs * (1.0 + 1e-10)


def test_csv_export(store, tmp_path):
    _, _, ct = store.ctable("l1", "uniform", 12, 0.5)
    buf = io.StringIO()
    count = kernel_rows_csv(ct, buf, ["scheme=l1"])
    assert count == 12 * 13 // 2
    assert buf.getvalue().startswith("# scheme=l1\nn,lag,value\n")


def _mp_complementary_row(K, n, dps=40):
    """P^(n)_{n-j} for j = 1..n by back-substitution of p B = e_n at ``dps``
    digits, where B = K L^-1 has columns K[:, m] - K[:, m+1]."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        A = [[mpmath.mpf(float(K[j, m])) for m in range(n)] for j in range(n)]
        B = [[A[j][m] - (A[j][m + 1] if m + 1 < n else 0) for m in range(n)]
             for j in range(n)]
        p = [mpmath.mpf(0)] * n
        p[n - 1] = 1 / B[n - 1][n - 1]
        for m in range(n - 2, -1, -1):
            p[m] = -mpmath.fsum(p[j] * B[j][m] for j in range(m + 1, n)) / B[m][m]
        return np.array([float(x) for x in p])


@pytest.mark.parametrize("mesh", [graded_mesh(256, 3.0, 1.0),
                                  random_mesh(512, 1.0, rho_bound=1.75, seed=7)],
                         ids=["graded3", "random"])
def test_entries_match_high_precision_oracle(mesh):
    """Every sampled entry of P to 1e-13 relative. The identity residual
    cannot see this: P = cumsum(K^-1) passes the residual but not this test."""
    table = l1_kernel(mesh, 0.3)
    P = build_complementary(table).P
    rng = np.random.default_rng(5)
    rows = [mesh.N, *rng.integers(mesh.N // 3, mesh.N, size=2).tolist()]
    K_inv = np.linalg.inv(table.K)
    worst = worst_cumsum = 0.0
    for n in rows:
        ref = _mp_complementary_row(table.K, n)
        worst = max(worst, float(np.max(np.abs(P[n - 1, :n] / ref - 1.0))))
        cumsum_row = K_inv[:n, :n].sum(axis=0)  # row n of cumsum(K^-1)
        worst_cumsum = max(worst_cumsum,
                           float(np.max(np.abs(cumsum_row / ref - 1.0))))
    assert worst <= 1e-13
    assert worst_cumsum > 1e-13
