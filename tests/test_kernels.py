import io
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracstep import kernels
from fracstep.complementary import (
    build_complementary,
    check_lemma21,
    check_lemma22_23,
    identity_residual,
)
from fracstep.gronwall import (
    GronwallProblem,
    gronwall_bound,
    verify_gronwall_linear,
    verify_gronwall_quadratic,
)
from fracstep.kernels import (
    A1_SLACK,
    KernelTable,
    NonUniformMeshError,
    _weight_integrals,
    alikhanov_kernel,
    apply_discrete_derivative,
    bdf2_kernel,
    bdf2_recombine,
    fast_l1_kernel,
    l1_kernel,
    kernel_rows_csv,
    verify_assumptions,
)
from fracstep.mesh import graded_mesh, mesh_from_nodes, random_mesh, uniform_mesh
from fracstep.soe import SOENotCertifiedError, build_soe
from fracstep.specialfn import _singular_average, omega

from conftest import make_mesh


# ---------------------------------------------------------------------------
# quadrature oracle: integrate the defining expressions directly
# ---------------------------------------------------------------------------

def _q_weight_integral(alpha, t_eval, lo, hi):
    """int_lo^hi omega_{1-a}(t_eval - s) ds, singular when hi == t_eval."""
    if hi < t_eval - 1e-13 * max(1.0, t_eval):
        val, _ = quad(lambda s: (t_eval - s) ** (-alpha), lo, hi, limit=300,
                      epsabs=1e-14, epsrel=1e-13)
    else:
        val, _ = quad(lambda s: 1.0, lo, t_eval, weight="alg",
                      wvar=(0.0, -alpha))
    return val / math.gamma(1.0 - alpha)


def _q_moment_integral(alpha, t_eval, lo, hi, center):
    """int_lo^hi (s - center) omega_{1-a}(t_eval - s) ds."""
    if hi < t_eval - 1e-13 * max(1.0, t_eval):
        val, _ = quad(lambda s: (s - center) * (t_eval - s) ** (-alpha),
                      lo, hi, limit=300, epsabs=1e-14, epsrel=1e-13)
    else:
        val, _ = quad(lambda s: s - center, lo, t_eval, weight="alg",
                      wvar=(0.0, -alpha))
    return val / math.gamma(1.0 - alpha)


def _oracle_row(mesh, alpha, n, scheme):
    t, tau, rho = mesh.nodes, mesh.tau, mesh.rho
    theta = alpha / 2.0 if scheme == "alikhanov" else 0.0
    t_eval = t[n] - theta * tau[n - 1]
    c = np.zeros(n + 1)
    for k in range(1, n):
        a = _q_weight_integral(alpha, t_eval, t[k - 1], t[k]) / tau[k - 1]
        c[k] += a
        if scheme == "l1":
            continue
        ctr = 0.5 * (t[k - 1] + t[k])
        b = 2.0 * _q_moment_integral(alpha, t_eval, t[k - 1], t[k], ctr)
        b /= tau[k - 1] * (tau[k - 1] + tau[k])
        c[k] -= b
        c[k + 1] += rho[k - 1] * b
    if scheme == "bdf2" and n >= 2:
        a0 = _q_weight_integral(alpha, t_eval, t[n - 1], t[n]) / tau[n - 1]
        ctr = 0.5 * (t[n - 1] + t[n])
        b0 = 2.0 * _q_moment_integral(alpha, t_eval, t[n - 1], t[n], ctr)
        b0 /= tau[n - 2] * (tau[n - 2] + tau[n - 1])
        c[n] += a0 + rho[n - 2] * b0
        c[n - 1] -= b0
    else:
        c[n] += _q_weight_integral(alpha, t_eval, t[n - 1], t_eval) / tau[n - 1]
    return c[1:][::-1]


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("scheme,build", [
    ("l1", l1_kernel), ("alikhanov", alikhanov_kernel), ("bdf2", bdf2_kernel)])
def test_closed_forms_match_quadrature(alpha, scheme, build):
    mesh = graded_mesh(7, 2.3, 1.0)
    table = build(mesh, alpha)
    for n in (1, 2, 3, 7):
        ref = _oracle_row(mesh, alpha, n, scheme)
        got = table.row(n)
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-13), (scheme, n)


# ---------------------------------------------------------------------------
# L1
# ---------------------------------------------------------------------------

def test_l1_hand_values():
    table = l1_kernel(mesh_from_nodes([0.0, 1.0, 2.0]), 0.5)
    two_over_sqrt_pi = 2.0 / math.sqrt(math.pi)
    assert table.row(1)[0] == pytest.approx(two_over_sqrt_pi, rel=1e-15)
    assert table.row(2)[1] == pytest.approx(
        (math.sqrt(2.0) - 1.0) * two_over_sqrt_pi, rel=1e-14)


def test_l1_a2_ratio_is_exactly_one():
    for family in ("uniform", "graded3", "randquasi"):
        mesh = make_mesh(family, 24)
        report = verify_assumptions(l1_kernel(mesh, 0.4), mesh, 1.0)
        assert report.a1_holds
        assert report.a2_pi_estimate <= 1.0 + 1e-12
        assert report.a2_holds_for_claim


def test_l1_mean_value_sandwich():
    mesh = graded_mesh(12, 2.0, 1.0)
    alpha = 0.6
    table = l1_kernel(mesh, alpha)
    t = mesh.nodes
    for n in range(1, 13):
        row = table.row(n)
        for k in range(1, n + 1):
            val = row[n - k]
            lower = omega(1.0 - alpha, t[n] - t[k - 1])
            assert val >= lower * (1.0 - 1e-12)
            if k < n:
                upper = omega(1.0 - alpha, t[n] - t[k])
                assert val <= upper * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# offset quadratic scheme
# ---------------------------------------------------------------------------

def test_alikhanov_first_row_closed_form():
    alpha = 0.5
    theta = alpha / 2.0
    table = alikhanov_kernel(mesh_from_nodes([0.0, 1.0]), alpha)
    assert table.theta == theta
    assert table.row(1)[0] == pytest.approx(
        omega(2.0 - alpha, 1.0 - theta), rel=1e-15)


def test_alikhanov_case_split_matches_rows():
    # explicit per-case assembly, written independently of the builder
    alpha = 0.44
    mesh = graded_mesh(9, 1.8, 1.0)
    t, tau, rho = mesh.nodes, mesh.tau, mesh.rho
    theta = alpha / 2.0
    table = alikhanov_kernel(mesh, alpha)

    def a_hat(n, lag):
        t_eval = t[n] - theta * tau[n - 1]
        if lag == 0:
            return omega(2.0 - alpha, t_eval - t[n - 1]) / tau[n - 1]
        k = n - lag
        return (omega(2.0 - alpha, t_eval - t[k - 1])
                - omega(2.0 - alpha, t_eval - t[k])) / tau[k - 1]

    def b_hat(n, lag):
        k = n - lag
        t_eval = t[n] - theta * tau[n - 1]
        val = _q_moment_integral(alpha, t_eval, t[k - 1], t[k],
                                 0.5 * (t[k - 1] + t[k]))
        return 2.0 * val / (tau[k - 1] * (tau[k - 1] + tau[k]))

    for n in (2, 3, 6, 9):
        row = table.row(n)
        assert row[0] == pytest.approx(
            a_hat(n, 0) + rho[n - 2] * b_hat(n, 1), rel=1e-10)
        assert row[n - 1] == pytest.approx(
            a_hat(n, n - 1) - b_hat(n, n - 1), rel=1e-10)
        for k in range(2, n):
            lag = n - k
            expected = (a_hat(n, lag) + rho[k - 2] * b_hat(n, lag + 1)
                        - b_hat(n, lag))
            assert row[lag] == pytest.approx(expected, rel=1e-9)


def test_alikhanov_assumptions_on_bounded_ratio_meshes():
    for family in ("uniform", "graded2", "randquasi"):
        mesh = make_mesh(family, 32)
        assert mesh.max_ratio() <= 1.75
        report = verify_assumptions(alikhanov_kernel(mesh, 0.5), mesh, 2.75)
        assert report.a1_holds
        assert report.a2_pi_estimate <= 2.75


def test_single_row_table():
    table = alikhanov_kernel(mesh_from_nodes([0.0, 0.5]), 0.3)
    assert table.N == 1
    assert len(table.row(1)) == 1


# ---------------------------------------------------------------------------
# fast L1
# ---------------------------------------------------------------------------

def test_fast_l1_matches_l1(store):
    alpha = 0.5
    mesh = graded_mesh(24, 2.0, 1.0)
    eps = 1e-9
    approx = store.soe(alpha, eps, float(mesh.tau.min()), mesh.T)
    fast = fast_l1_kernel(mesh, alpha, approx)
    direct = l1_kernel(mesh, alpha)
    for n in range(1, 25):
        fr, dr = fast.row(n), direct.row(n)
        assert fr[0] == dr[0]  # diagonal is the exact L1 entry
        if n > 1:
            assert np.max(np.abs(fr[1:] - dr[1:])) <= eps


def test_fast_l1_closed_form_matches_quadrature(store):
    # second route: adaptive quadrature of the exponential-sum integrand
    alpha = 0.6
    mesh = graded_mesh(6, 2.0, 1.0)
    approx = store.soe(alpha, 1e-9, float(mesh.tau.min()), mesh.T)
    table = fast_l1_kernel(mesh, alpha, approx)
    t, tau = mesh.nodes, mesh.tau

    def integrand(s, tn):
        return float(approx.weights @ np.exp(-approx.nodes * (tn - s)))

    for n in (2, 4, 6):
        row = table.row(n)
        for k in range(1, n):
            val, _ = quad(integrand, t[k - 1], t[k], args=(t[n],), limit=200,
                          epsabs=1e-13, epsrel=1e-12)
            assert row[n - k] == pytest.approx(val / tau[k - 1], rel=1e-10)


def test_fast_l1_certification_guards(store):
    alpha = 0.5
    mesh = uniform_mesh(8, 1.0)
    good = store.soe(alpha, 1e-8, float(mesh.tau.min()), mesh.T)
    with pytest.raises(SOENotCertifiedError):
        fast_l1_kernel(mesh, 0.6, good)  # alpha mismatch
    narrow = build_soe(alpha, 1e-8, 0.5, 1.0)
    with pytest.raises(SOENotCertifiedError):
        fast_l1_kernel(mesh, alpha, narrow)  # cutoff above the smallest step
    sloppy = build_soe(alpha, 0.4, float(mesh.tau.min()), mesh.T)
    with pytest.raises(SOENotCertifiedError):
        fast_l1_kernel(mesh, alpha, sloppy)  # tolerance above the kernel cap


def _fast_l1_row_by_row(mesh, alpha, approx):
    """The per-row closed form that the SOE march replaced, kept as its
    reference: each exponential decays to the interval's near end, times
    -expm1(-theta tau)/(theta tau), in one exp per (node, entry)."""
    t, tau = mesh.nodes, mesh.tau
    K = np.zeros((mesh.N, mesh.N))
    diagonal = _singular_average(alpha, tau)
    for n in range(1, mesh.N + 1):
        K[n - 1, n - 1] = diagonal[n - 1]
        x = np.outer(approx.nodes, tau[: n - 1])
        decay = np.exp(-np.outer(approx.nodes, t[n] - t[1:n]))
        K[n - 1, : n - 1] = approx.weights @ (decay * (-np.expm1(-x) / x))
    return K


FAST_L1_MESHES = {"graded3": graded_mesh(300, 3.0, 1.0),
                  "random": random_mesh(300, 1.0, seed=3)}


@pytest.mark.parametrize("name", sorted(FAST_L1_MESHES))
def test_fast_l1_table_matches_row_by_row(store, name):
    mesh = FAST_L1_MESHES[name]
    approx = store.soe(0.45, 1e-10, float(mesh.tau.min()), mesh.T)
    K = fast_l1_kernel(mesh, 0.45, approx).K
    ref = _fast_l1_row_by_row(mesh, 0.45, approx)
    assert np.array_equal(K != 0.0, ref != 0.0)
    assert np.array_equal(np.diag(K), np.diag(ref))
    low = ref != 0.0
    # products of per-step decays instead of one exp per entry: a few ulp
    assert np.max(np.abs(K[low] - ref[low]) / ref[low]) <= 1e-13


def test_fast_l1_table_matches_40_digit_sum(store):
    mpmath = pytest.importorskip("mpmath")
    mesh = FAST_L1_MESHES["graded3"]
    approx = store.soe(0.45, 1e-10, float(mesh.tau.min()), mesh.T)
    K = fast_l1_kernel(mesh, 0.45, approx).K
    rng = np.random.default_rng(11)
    n_s = np.concatenate(([2, 300, 300, 151], rng.integers(2, 301, size=36)))
    k_s = np.concatenate(([1, 1, 299, 150], [rng.integers(1, n) for n in n_s[4:]]))
    with mpmath.workdps(40):
        theta = [mpmath.mpf(float(x)) for x in approx.nodes]
        w = [mpmath.mpf(float(x)) for x in approx.weights]
        for n, k in zip(n_s.tolist(), k_s.tolist()):
            gap = mpmath.mpf(float(mesh.nodes[n])) - mpmath.mpf(float(mesh.nodes[k]))
            h = mpmath.mpf(float(mesh.tau[k - 1]))
            ref = mpmath.fsum(wq * mpmath.exp(-th * gap) * -mpmath.expm1(-th * h)
                              / (th * h) for wq, th in zip(w, theta))
            assert abs(K[n - 1, k - 1] - ref) <= 2e-14 * ref, (n, k)


def _unit_step_march(mesh, alpha, approx):
    """The build that writing phi into one state column replaced, kept as its
    bit-for-bit reference: the SOE march of the (N+1, N) sequence whose
    column k steps from 0 to 1 at t_k, every column decayed and pushed at
    every step."""
    v = np.tri(mesh.N + 1, mesh.N, -1)
    nodes = approx.nodes[:, None]
    diagonal = _singular_average(alpha, mesh.tau)
    H = np.zeros((approx.Nq, mesh.N))
    K = np.empty((mesh.N, mesh.N))
    for n in range(1, mesh.N + 1):
        x = nodes * mesh.tau[n - 1]
        phi = -np.expm1(-x) / x
        H *= np.exp(-x)
        incr = v[n] - v[n - 1]
        K[n - 1] = diagonal[n - 1] * incr + approx.weights @ H
        H += phi * incr
    return K


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 300])
@pytest.mark.parametrize("family", ["uniform", "graded2", "graded3", "random"])
def test_fast_l1_table_matches_unit_step_march(store, family, N, alpha):
    mesh = random_mesh(N, 1.0, seed=N) if family == "random" \
        else make_mesh(family, N)
    # a one-step mesh is certified on [T/2, T], as _soe_for_mesh does
    approx = store.soe(alpha, 1e-10, min(float(mesh.tau.min()), 0.5), 1.0)
    K = fast_l1_kernel(mesh, alpha, approx).K
    assert np.array_equal(K, _unit_step_march(mesh, alpha, approx))


# ---------------------------------------------------------------------------
# BDF2 and its recombination
# ---------------------------------------------------------------------------

def test_bdf2_first_row_is_l1():
    mesh = graded_mesh(6, 2.0, 1.0)
    assert np.array_equal(bdf2_kernel(mesh, 0.5).row(1),
                          l1_kernel(mesh, 0.5).row(1))


def test_bdf2_case_split_matches_rows():
    alpha = 0.35
    mesh = graded_mesh(8, 1.6, 1.0)
    t, tau, rho = mesh.nodes, mesh.tau, mesh.rho
    table = bdf2_kernel(mesh, alpha)

    def a_(n, lag):
        k = n - lag
        if lag == 0:
            return omega(2.0 - alpha, tau[n - 1]) / tau[n - 1]
        return (omega(2.0 - alpha, t[n] - t[k - 1])
                - omega(2.0 - alpha, t[n] - t[k])) / tau[k - 1]

    def b_(n, lag):
        k = n - lag  # lag 0 is the closing interval
        val = _q_moment_integral(alpha, t[n], t[k - 1], t[k],
                                 0.5 * (t[k - 1] + t[k]))
        if lag == 0:
            return 2.0 * val / (tau[n - 2] * (tau[n - 2] + tau[n - 1]))
        return 2.0 * val / (tau[k - 1] * (tau[k - 1] + tau[k]))

    for n in (3, 5, 8):
        row = table.row(n)
        assert row[0] == pytest.approx(
            a_(n, 0) + rho[n - 2] * (b_(n, 1) + b_(n, 0)), rel=1e-9)
        assert row[1] == pytest.approx(
            a_(n, 1) + rho[n - 3] * b_(n, 2) - (b_(n, 1) + b_(n, 0)), rel=1e-9)
        for k in range(2, n - 1):
            lag = n - k
            assert row[lag] == pytest.approx(
                a_(n, lag) + rho[k - 2] * b_(n, lag + 1) - b_(n, lag), rel=1e-9)
        assert row[n - 1] == pytest.approx(a_(n, n - 1) - b_(n, n - 1), rel=1e-9)


def test_bdf2_row_two_consistency():
    # the closing-interval weight must fold into the k = 1 coefficient at n = 2
    alpha = 0.5
    mesh = graded_mesh(2, 1.4, 1.0)
    t, tau = mesh.nodes, mesh.tau
    table = bdf2_kernel(mesh, alpha)
    a1 = (omega(2.0 - alpha, t[2]) - omega(2.0 - alpha, t[2] - t[1])) / tau[0]
    b1 = 2.0 * _q_moment_integral(alpha, t[2], t[0], t[1],
                                  0.5 * (t[0] + t[1])) / (tau[0] * (tau[0] + tau[1]))
    b0 = 2.0 * _q_moment_integral(alpha, t[2], t[1], t[2],
                                  0.5 * (t[1] + t[2])) / (tau[0] * (tau[0] + tau[1]))
    assert table.row(2)[1] == pytest.approx(a1 - b1 - b0, rel=1e-10)


def test_bdf2_monotonicity_probe():
    mesh = uniform_mesh(32, 1.0)
    assert not verify_assumptions(bdf2_kernel(mesh, 0.9), mesh).a1_holds
    # close to 0 the raw kernels are still positive and monotone
    assert verify_assumptions(bdf2_kernel(mesh, 0.1), mesh).a1_holds


def test_recombine_requires_uniform():
    with pytest.raises(NonUniformMeshError):
        bdf2_recombine(bdf2_kernel(graded_mesh(8, 2.0, 1.0), 0.5))
    with pytest.raises(ValueError):
        bdf2_recombine(l1_kernel(uniform_mesh(8, 1.0), 0.5))


def test_recombine_restores_monotonicity():
    mesh = uniform_mesh(64, 1.0)
    for alpha in (0.3, 0.5, 0.7):
        raw = bdf2_kernel(mesh, alpha)
        rec, eta = bdf2_recombine(raw)
        assert 0.0 < eta < 2.0 / 3.0
        assert verify_assumptions(rec, mesh).a1_holds
        # geometric sums: lag-0 entries coincide, later entries accumulate
        for n in (2, 17, 64):
            assert rec.row(n)[0] == raw.row(n)[0]
        for n in (17, 64):
            expected = raw.row(n)[2] + eta * rec.row(n)[1]
            assert rec.row(n)[2] == pytest.approx(expected, rel=1e-14)
        if np.all(raw.row(64) > 0.0):
            assert np.all(rec.row(64) >= raw.row(64))


# ---------------------------------------------------------------------------
# audits and utilities
# ---------------------------------------------------------------------------

def test_verify_assumptions_flags_corrupt_table():
    mesh = uniform_mesh(3, 1.0)
    good = l1_kernel(mesh, 0.5)
    K = good.K.copy()
    K[2, 1] = -0.25  # A^(3)_1
    bad = KernelTable(K=K, theta=0.0, alpha=0.5, scheme_id="l1",
                      pi_A=None, mesh=mesh)
    report = verify_assumptions(bad, mesh)
    assert not report.a1_holds
    assert report.a1_worst_violation >= 0.25
    assert report.a2_pi_estimate == math.inf


def test_verify_assumptions_row_slack():
    mesh = uniform_mesh(6, 1.0)
    table = l1_kernel(mesh, 0.5)
    # break monotonicity, A^(6)_2 > A^(6)_1, by a tenth of the row slack
    # A1_SLACK * A^(6)_0 and by ten times it
    for excess, holds in ((0.1, True), (10.0, False)):
        K = table.K.copy()
        K[5, 3] = K[5, 4] + A1_SLACK * K[5, 5] * excess
        wobbly = KernelTable(K=K, theta=0.0, alpha=0.5, scheme_id="l1",
                             pi_A=None, mesh=mesh)
        assert verify_assumptions(wobbly, mesh).a1_holds is holds


def _row_by_row_audit(table, mesh):
    """The per-row L1 entries and audit that the block evaluator replaced,
    kept as its bit-for-bit reference."""
    t, tau = mesh.nodes, mesh.tau
    worst, a1, pi_est, l1_rows = 0.0, True, 0.0, []
    for n in range(1, table.N + 1):
        row = table.row(n)
        slack = A1_SLACK * abs(row[0])
        mono = float(np.max(np.diff(row), initial=0.0))
        worst = max(worst, float(max(0.0, -row.min())), mono)
        a1 = a1 and not (row.min() <= 0.0 or mono > slack)
        avg, _ = _weight_integrals(table.alpha, t[n] - t[1:n + 1], tau[:n],
                                   moments=False)
        l1_rows.append(avg)
        denom = tau[:n] * row[::-1]
        pi_est = math.inf if np.any(denom <= 0.0) else max(
            pi_est, float((avg * tau[:n] / denom).max()))
    return l1_rows, (a1, worst, pi_est)


@pytest.mark.parametrize("build", [l1_kernel, alikhanov_kernel, bdf2_kernel])
@pytest.mark.parametrize("mesh", [graded_mesh(200, 3.0, 1.0),
                                  random_mesh(200, 1.0, seed=3)],
                         ids=["graded3", "random"])
def test_block_evaluator_matches_row_by_row(build, mesh):
    table = build(mesh, 0.45)
    wobbly, negative = table.K.copy(), table.K.copy()
    wobbly[170, 3] = wobbly[170, 4] * (1.0 + 1e-14)  # below the default slack
    negative[120, 60] = -1e-3
    for K in (table.K, wobbly, negative):
        tab = KernelTable(K, table.theta, 0.45, table.scheme_id, None, mesh)
        rows, expected = _row_by_row_audit(tab, mesh)
        report = verify_assumptions(tab, mesh)
        got = (report.a1_holds, report.a1_worst_violation,
               report.a2_pi_estimate)
        assert got == expected
    if build is l1_kernel:
        for n, row in enumerate(rows, start=1):
            assert np.array_equal(table.K[n - 1, :n], row)



ALPHAS_TO_THE_EDGE = [1e-3, 0.02, 0.5, 0.98, 1.0 - 1e-9]
MOMENT_ALPHAS = [1e-3, 0.02, 0.3, 0.5, 0.98, 1.0 - 1e-9]


def _mp_moment(mpmath, alpha, u, h):
    """(1/h^2) int (s - mid) omega_{1-a} over an interval of width h whose
    near end is at distance u, as the plain difference of antiderivatives,
      (D (u_hi^(1-a) - u^(1-a))/(1-a) - (u_hi^(2-a) - u^(2-a))/(2-a))
        / (h^2 Gamma(1-a)),
    with enough digits beyond 60 to absorb its cancellation: about
    3 log10(u/h) of them for a short interval (each power difference is
    (h/u) times its terms, and the moment (h/u)^2 times the difference),
    a few for small alpha and 9 for 1 - a = 1e-9."""
    with mpmath.workdps(72):
        gamma = mpmath.gamma(1 - mpmath.mpf(alpha))  # a factor: no cancellation
    digits = 72 + 3 * max(0, math.ceil(-math.log10(h / u))) if u > 0.0 else 72
    with mpmath.workdps(digits):
        a, lo, w = mpmath.mpf(alpha), mpmath.mpf(u), mpmath.mpf(h)
        hi = lo + w
        mid = (lo + hi) / 2
        return ((mid * (hi ** (1 - a) - lo ** (1 - a)) / (1 - a)
                 - (hi ** (2 - a) - lo ** (2 - a)) / (2 - a)) / (w ** 2 * gamma))


def _worst_moment_error(mpmath, alpha, u_lo, h):
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        _, mom = _weight_integrals(alpha, u_lo, h, moments=True)
    return max(float(abs(got / _mp_moment(mpmath, alpha, u, w) - 1))
               for got, u, w in zip(mom.tolist(), u_lo.tolist(), h.tolist()))


@pytest.mark.parametrize("alpha", MOMENT_ALPHAS)
def test_moments_match_60_digits_at_every_scale(alpha):
    mpmath = pytest.importorskip("mpmath")
    # h/u_lo from 1e-290 (a short interval far from the evaluation point) to
    # 2^54: a mesh step 2^52 times the closing one gives the largest h/u_lo a
    # mesh of doubles can hold, b = log1p(h/u_lo)/2 up to 18.7, the longest
    # series; at distances from 1e-300 to 1e3, with h >= 1e-300
    rng = np.random.default_rng(23)
    x = np.concatenate([np.geomspace(1e-290, 2.0 ** 54, 160),
                        2.0 ** 52 * rng.uniform(0.5, 4.0, 40)])
    u_lo = 10.0 ** rng.uniform(np.maximum(-300.0, -300.0 - np.log10(x)), 3.0)
    x = np.concatenate([x, [1.0, 398.0, 2.0 ** 52, 2.0 ** 54]])
    u_lo = np.concatenate([u_lo, [1e-300] * 4])
    h = x * u_lo
    assert np.min(h) >= 1e-300
    assert np.max(0.5 * np.log1p(h / u_lo)) > 18.6
    assert _worst_moment_error(mpmath, alpha, u_lo, h) <= 4e-15


def _mp_average(mpmath, alpha, u, h):
    """(1/h) int_u^(u+h) omega_{1-a} = ((u+h)^(1-a) - u^(1-a)) / (h Gamma(2-a))
    as the plain difference of powers, with enough digits beyond 50 to absorb
    its cancellation (about -log10(h/u) of them)."""
    digits = 50 + max(0, math.ceil(-math.log10(h / u)))
    with mpmath.workdps(digits):
        a, U, H = mpmath.mpf(alpha), mpmath.mpf(u), mpmath.mpf(h)
        b = 1 - a
        return ((U + H) ** b - U ** b) / (H * mpmath.gamma(2 - a))


@pytest.mark.parametrize("alpha", ALPHAS_TO_THE_EDGE)
def test_closed_form_average_matches_50_digits(alpha):
    mpmath = pytest.importorskip("mpmath")
    # x = h/u from underflow to 398, i.e. h = 1.99 D next to the evaluation
    # point, at D = 1 and at random D
    x = np.concatenate([np.geomspace(1e-300, 398.0, 601), [5e-324, 1e-320, 1e-310],
                        np.linspace(0.5, 398.0, 60)])
    rng = np.random.default_rng(17)
    D = np.concatenate([np.ones(x.size), rng.uniform(1e-6, 1e3, x.size)])
    x = np.concatenate([x, x])
    u_lo = D / (1.0 + 0.5 * x)
    h = x * u_lo
    keep = h > 0.0
    u_lo, h = u_lo[keep], h[keep]
    assert np.max(h / (u_lo + 0.5 * h)) > 1.98
    assert np.any(h < 1e-320) and np.all(u_lo > 0.0)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        avg, _ = _weight_integrals(alpha, u_lo, h, moments=False)
    worst = max(float(abs(mpmath.mpf(got) / _mp_average(mpmath, alpha, u, w) - 1))
                for got, u, w in zip(avg.tolist(), u_lo.tolist(), h.tolist()))
    assert worst <= 1e-15, worst


@pytest.mark.parametrize("alpha", MOMENT_ALPHAS)
def test_near_moments_match_60_digits(alpha):
    # the intervals next to the evaluation point, and the singular one, where
    # a difference of antiderivatives cancels like 1/alpha (5.5e-11 at
    # alpha = 1e-3)
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.geomspace(0.5000001, 398.0, 200), [0.0]])
    scale = np.random.default_rng(5).uniform(1e-6, 1e3, x.size)
    u_lo = np.where(x > 0.0, 1.0, 0.0) * scale
    h = np.where(x > 0.0, x, 0.7) * scale
    assert _worst_moment_error(mpmath, alpha, u_lo, h) <= 4e-15


@pytest.mark.parametrize("alpha", [1e-3, 0.02, 0.3, 0.5, 0.9, 0.98, 1.0 - 1e-9])
def test_l1_diagonal_matches_50_digit_value(alpha):
    # omega_{2-a}(tau)/tau = tau^-a / Gamma(2-a); omega(2 - a, tau)/tau would
    # carry the rounding of 1 - a in its exponent, 2.4e-15 at a = 1e-3
    mpmath = pytest.importorskip("mpmath")
    mesh = graded_mesh(64, 3.0, 1.0)
    tau = np.concatenate([[1e-9], mesh.tau, [7.5]])
    got = _singular_average(alpha, tau)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        ref = [mpmath.mpf(t) ** -a / mpmath.gamma(2 - a) for t in tau.tolist()]
        worst = max(float(abs(g / r - 1)) for g, r in zip(got.tolist(), ref))
    assert worst <= 1e-15, worst
    assert np.array_equal(l1_kernel(mesh, alpha).diagonal(),
                          _singular_average(alpha, mesh.tau))


def test_closed_form_average_keeps_its_edges():
    # the singular interval is omega_{2-a}(h)/h = h^-a/Gamma(2-a), and an
    # interval too short to change omega_{1-a} at its midpoint is
    # omega_{1-a}(D), both bit for bit
    alpha = 0.45
    h = np.array([0.3, 1e-9, 5e-324, 1e-300, 2.0 ** -40])
    u_lo = np.array([0.0, 0.0, 1.0, 2.5, 7.0])
    avg, _ = _weight_integrals(alpha, u_lo, h, moments=False)
    assert np.array_equal(avg[:2], _singular_average(alpha, h[:2]))
    assert np.array_equal(avg[2:], omega(1.0 - alpha, u_lo[2:] + 0.5 * h[2:]))


def _full_moment_series(alpha, b):
    """kernels._moment_series with 80 terms for every entry, as the stopping
    rule's bit-for-bit reference (term 80 is below 1e-150 of the first at
    the b <= 0.75 of these meshes)."""
    s = np.full_like(b, kernels._moment_coefficient(alpha, 1))
    power = np.ones_like(b)
    for k in range(2, 81):
        power *= b
        power *= b
        s += power * kernels._moment_coefficient(alpha, k)
    return s


@pytest.mark.parametrize("build", [l1_kernel, alikhanov_kernel, bdf2_kernel])
@pytest.mark.parametrize("mesh", [graded_mesh(300, 3.0, 1.0),
                                  random_mesh(300, 1.0, seed=5)],
                         ids=["graded3", "random"])
@pytest.mark.parametrize("alpha", [0.05, 0.95])
def test_tables_match_full_series(build, mesh, alpha, monkeypatch):
    table = build(mesh, alpha)
    largest = []

    def full(a, b):
        largest.append(float(b.max()))
        return _full_moment_series(a, b)

    monkeypatch.setattr(kernels, "_moment_series", full)
    assert np.array_equal(table.K, build(mesh, alpha).K)
    # only the quadratic schemes take a moment; the L1 average has none
    assert bool(largest) is (build is not l1_kernel)
    assert max(largest, default=0.0) <= 0.75


@pytest.mark.parametrize("build", [alikhanov_kernel, bdf2_kernel])
@pytest.mark.parametrize("T", [1e-100, 1e-160, 1e-250])
def test_quadratic_tables_scale_with_the_horizon(build, T):
    # an entry forms only ratios of distances and powers of one distance, so
    # K(T) = T^-a K(1); tau^2 used to underflow here, leaving NaN at N = 16
    for N in (4, 16):
        for alpha in (0.05, 0.5, 0.95):
            ref = build(graded_mesh(N, 2.0, 1.0), alpha).K
            got = build(graded_mesh(N, 2.0, T), alpha).K * T ** alpha
            assert np.array_equal(got != 0.0, ref != 0.0)
            nz = ref != 0.0
            assert np.max(np.abs(got[nz] / ref[nz] - 1.0)) <= 4e-15


def test_triangle_blocks_cover_every_row_once():
    for kind, N in itertools.product(kernels._BLOCK_WIDTH, range(1, 601)):
        cap = int(max(kernels._BLOCK_WIDTH[kind] * N,
                      kernels._FLOOR_SCALE[kind] * kernels._BLOCK_FLOOR))
        blocks = list(kernels._blocks(N, kind))
        starts = [b.start for b, _ in blocks]
        assert starts == [0] + [b.stop for b, _ in blocks[:-1]]
        assert blocks[-1][0].stop == N
        # each block is the largest within the entry cap, and never empty
        for b, lag in blocks:
            assert b.stop > b.start
            assert (b.stop - b.start) * b.stop <= cap or b.stop == b.start + 1
            assert b.stop == N or (b.stop + 1 - b.start) * (b.stop + 1) > cap
            assert np.array_equal(lag, np.subtract.outer(np.arange(b.start, b.stop),
                                                         np.arange(b.stop)))
    mesh = graded_mesh(300, 2.0, 1.0)
    assert ([rows for rows, _, _, _ in kernels._triangle(mesh, 0.5)]
            == [rows for rows, _ in kernels._blocks(300, "triangle")])


def test_triangle_blocks_are_larger_than_four_n_entries():
    # evaluated in place, a triangle block holds fewer block-sized arrays,
    # so it may hold more entries: at most 2/3 of the blocks of the
    # max(4N, 4096)-entry rule (35 at N = 512, 79 at N = 768)
    for N, before in ((512, 35), (768, 79)):
        assert len(list(kernels._blocks(N, "triangle"))) <= before * 2 // 3


_EDGE_MESHES = {
    "uniform1": uniform_mesh(1, 1.0), "uniform2": uniform_mesh(2, 1.0),
    "uniform300": uniform_mesh(300, 1.0), "graded1": graded_mesh(1, 2.0, 1.0),
    "graded2": graded_mesh(2, 3.0, 1.0), "graded300_8": graded_mesh(300, 8.0, 1.0),
    "graded16_1e-250": graded_mesh(16, 2.0, 1e-250),
    "random300": random_mesh(300, 1.0, seed=11),
}


@pytest.mark.parametrize("scheme,mesh", [
    (scheme, name) for scheme in ("l1", "alikhanov", "bdf2") for name in _EDGE_MESHES
] + [("bdf2recombined", "uniform2"), ("bdf2recombined", "uniform300")])
def test_triangle_is_zero_above_the_diagonal(scheme, mesh):
    # each block's rectangle is evaluated whole, its entries k > n included,
    # and those are set to 0; no floating-point warning may escape
    mesh = _EDGE_MESHES[mesh]
    for alpha in (0.05, 0.5, 0.95):
        with np.errstate(all="raise"):
            K = kernels.build_table(scheme, mesh, alpha).K
        assert np.all(np.triu(K, 1) == 0.0)
        assert np.all(np.isfinite(K[np.tril_indices(mesh.N)]))


def _one_row_blocks(m):
    m.setattr(kernels, "_BLOCK_FLOOR", 1)
    for kind in kernels._BLOCK_WIDTH:
        m.setitem(kernels._BLOCK_WIDTH, kind, 0)


def _dump(table) -> str:
    buf = io.StringIO()
    kernel_rows_csv(table, buf)
    return buf.getvalue()


def _layout_results(mesh, alpha):
    """Tables, audits and dumps, which must keep every bit whatever the
    blocks, and the two block sums whose rounding follows the block width."""
    exact, rounded = [], []
    for build in (l1_kernel, alikhanov_kernel, bdf2_kernel):
        table = build(mesh, alpha)
        exact += [table.K, verify_assumptions(table, mesh, table.pi_A),
                  _dump(table)]
        if table.pi_A is None:
            continue
        ct = build_complementary(table)
        exact.append(_dump(ct))
        lemma22 = check_lemma22_23(ct, mesh, alpha, table.pi_A, mesh.max_ratio())
        rounded += [identity_residual(ct), lemma22.ml_log_min_margin]
        lam = np.random.default_rng(mesh.N).uniform(size=mesh.N)
        Lambda = 0.5 * min(1.0, mesh.max_step() ** -alpha
                           / (2.0 * table.pi_A * math.gamma(2.0 - alpha)))
        problem = GronwallProblem(lambdas=lam * Lambda / lam.sum(),
                                  g=lam, v0=1.0, Lambda=Lambda, theta=table.theta)
        bound = gronwall_bound(problem, ct, mesh, alpha, table.pi_A, 1.0)
        exact += [check_lemma21(ct, mesh, alpha, table.pi_A),
                  lemma22.powerlaw_max_excess, bound.bound_per_step,
                  bound.weak_bound_per_step,
                  verify_gronwall_quadratic(ct, mesh, table, problem, 5, rng=1),
                  verify_gronwall_linear(ct, mesh, table, problem, 5, rng=1)]
    return exact, rounded


# identity_residual and ml_log_min_margin sum each block row in an order set
# by the block width (the GEMM of P K, the row-wise einsum of P and the
# Mittag-Leffler ratios);
# one-row and whole-table walks have moved them by at most 4 ulp of
# max(1, |value|), at 1 and 2 OpenBLAS threads
LAYOUT_ULPS = 8


@pytest.mark.parametrize("N", [1, 17, 64, 300])
@pytest.mark.parametrize("family", ["uniform", "graded3", "random"])
def test_block_layout_cannot_move_a_bit(N, family, monkeypatch):
    # every entry's arithmetic is elementwise, so a table, its audit and the
    # checks and trials on it come out the same whether each block holds one
    # row or the whole triangle
    mesh = {"uniform": uniform_mesh(N, 1.0), "graded3": graded_mesh(N, 3.0, 1.0),
            "random": random_mesh(N, 1.0, seed=N)}[family]
    for alpha in (0.05, 0.95):
        exact, rounded = _layout_results(mesh, alpha)
        with monkeypatch.context() as m:
            _one_row_blocks(m)
            assert all(len(list(kernels._blocks(N, kind))) == N
                       for kind in kernels._BLOCK_WIDTH)
            one_row = _layout_results(mesh, alpha)
        with monkeypatch.context() as m:
            m.setattr(kernels, "_BLOCK_FLOOR", N * N)
            assert all(len(list(kernels._blocks(N, kind))) == 1
                       for kind in kernels._BLOCK_WIDTH)
            whole = _layout_results(mesh, alpha)
        for other_exact, other_rounded in (one_row, whole):
            assert len(other_exact) == len(exact)
            for a, b in zip(other_exact, exact):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(other_rounded, rounded):
                tol = LAYOUT_ULPS * 2.0 ** -52 * max(1.0, abs(b))
                assert a == b or abs(a - b) <= tol


def test_fastl1_one_step_table_is_l1():
    # a one-step mesh has no history to compress, and fast L1's diagonal is
    # the exact L1 one
    for mesh in (graded_mesh(1, 1.0, 1.0), uniform_mesh(1, 0.3)):
        for alpha in (0.05, 0.5, 0.95):
            fast = kernels.build_table("fastl1", mesh, alpha, 1e-8)
            assert np.array_equal(fast.K, l1_kernel(mesh, alpha).K)


def test_apply_discrete_derivative_matches_loops():
    mesh = graded_mesh(11, 2.0, 1.0)
    table = alikhanov_kernel(mesh, 0.6)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(12)
    out = apply_discrete_derivative(table, v)
    for n in range(1, 12):
        expected = sum(table.row(n)[n - k] * (v[k] - v[k - 1])
                       for k in range(1, n + 1))
        assert out[n - 1] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        apply_discrete_derivative(table, v[:5])


def test_csv_dump_counts(tmp_path):
    mesh = graded_mesh(30, 2.0, 1.0)
    table = l1_kernel(mesh, 0.4)
    path = tmp_path / "k.csv"
    with open(path, "w") as fh:
        count = kernel_rows_csv(table, fh, ["demo=1"])
    assert count == 30 * 31 // 2
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo=1"
    assert lines[1] == "n,lag,value"
    assert len(lines) == 2 + count
