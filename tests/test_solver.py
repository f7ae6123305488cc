import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fracstep.complementary import build_complementary
from fracstep.gronwall import GronwallProblem, gronwall_bound
from fracstep.kernels import (KernelTable, alikhanov_kernel, build_table,
                              check_same_problem, fast_l1_kernel, l1_kernel,
                              verify_assumptions)
from fracstep.mesh import graded_mesh, uniform_mesh
from fracstep import solver
from fracstep.soe import SOENotCertifiedError, _check_certified, _soe_for_mesh
from fracstep.solver import (
    DegenerateKernelError,
    FDProblem1D,
    NonPositiveError,
    SingleModeProblem,
    SingularSystemError,
    caputo_of_power,
    check_energy_lemmas,
    check_stability_envelope,
    estimate_order,
    singular_study,
    smooth_study,
    solve_fd1d,
    solve_single_mode,
    solve_single_mode_fast,
)

import pins


def test_caputo_power_values():
    assert caputo_of_power(0.5, 1.0, 1.0) == pytest.approx(
        1.0 / math.gamma(1.5), rel=1e-15)
    # sigma = alpha: constant in t
    for t in (0.1, 0.7, 2.0):
        assert caputo_of_power(0.3, 0.3, t) == pytest.approx(
            math.gamma(1.3), rel=1e-13)


def test_caputo_power_quadrature_cross_check():
    alpha, sigma, t = 0.4, 1.7, 0.9
    val, _ = quad(lambda s: sigma * s ** (sigma - 1.0), 0.0, t,
                  weight="alg", wvar=(0.0, -alpha))
    val /= math.gamma(1.0 - alpha)
    assert caputo_of_power(alpha, sigma, t) == pytest.approx(val, rel=1e-9)


def test_caputo_power_domain():
    for sigma, t in [(0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0),
                     (1.0, math.nan), (1.0, [0.5, math.nan])]:
        with pytest.raises(ValueError):
            caputo_of_power(0.5, sigma, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problems_refuse_non_finite_coefficients(bad):
    # these used to pass the sign checks and stop at a zero pivot
    for name in ("lambda_L", "kappa"):
        data = dict(alpha=0.5, lambda_L=1.0, kappa=0.0)
        data[name] = bad
        with pytest.raises(ValueError, match=name):
            SingleModeProblem(**data)
    with pytest.raises(ValueError, match="kappa"):
        FDProblem1D(length=1.0, M=4, kappa=bad)
    with pytest.raises(ValueError, match="length"):
        FDProblem1D(length=bad, M=4)


def test_identity_evolution_when_operator_vanishes():
    mesh = uniform_mesh(12, 1.0)
    table = l1_kernel(mesh, 0.5)
    res = solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=0.0),
                            mesh, table, exact=lambda t: 1.0)
    assert res.max_error == 0.0


def test_homogeneous_decay_stays_in_unit_band():
    for scheme, build in (("l1", l1_kernel), ("alikhanov", alikhanov_kernel)):
        for alpha in (0.3, 0.7):
            mesh = graded_mesh(48, 2.0, 1.0)
            res = solve_single_mode(
                SingleModeProblem(alpha=alpha, lambda_L=1.0),
                mesh, build(mesh, alpha))
            assert np.all(res.us > 0.0)
            assert np.all(res.us <= 1.0)
            assert np.all(np.diff(res.us) < 0.0)


def test_singular_system_detected():
    mesh = uniform_mesh(4, 1.0)
    table = l1_kernel(mesh, 0.5)
    a0 = table.row(1)[0]
    bad = SingleModeProblem(alpha=0.5, lambda_L=0.0, kappa=a0)
    with pytest.raises(SingularSystemError):
        solve_single_mode(bad, mesh, table)


@pytest.mark.parametrize("fast", [False, True])
def test_blow_up_refused_at_first_non_finite_step(fast):
    # shift -8.7404 grows the mode past the double range at step 55, on the
    # scalar problem and on the grid mode with the same shift
    mesh = graded_mesh(60, 1.0, 1.0)
    kernel = _soe_for_mesh(0.5, 1e-8, mesh) if fast else l1_kernel(mesh, 0.5)
    h = 1.0 / 5.0
    lam1 = 4.0 * math.sin(0.5 * math.pi * h) ** 2 / h ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="non-finite solve at step 55"):
            solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=0.0,
                                                kappa=8.7404), mesh, kernel)
        with pytest.raises(SingularSystemError, match="non-finite solve at step 55"):
            solve_fd1d(FDProblem1D(length=1.0, M=4, kappa=lam1 + 8.7404,
                                   u0=lambda x: np.sin(np.pi * x)), mesh, kernel)


@pytest.mark.parametrize("length", [7, 20])
def test_single_mode_refuses_psi_of_another_length(length):
    # a short psi stopped with a bare IndexError, a long one was cut silently
    mesh = uniform_mesh(8, 1.0)
    problem = SingleModeProblem(alpha=0.5, lambda_L=1.0, psi=np.ones(length))
    with pytest.raises(ValueError, match="N = 8"):
        solve_single_mode(problem, mesh, l1_kernel(mesh, 0.5))


def test_single_mode_refuses_a_non_finite_forcing():
    mesh = uniform_mesh(8, 1.0)
    psi = np.ones(8)
    psi[3] = math.nan
    problem = SingleModeProblem(alpha=0.5, lambda_L=1.0, psi=psi)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_single_mode(problem, mesh, l1_kernel(mesh, 0.5))


def test_single_mode_refuses_a_non_finite_start():
    mesh = uniform_mesh(8, 1.0)
    problem = SingleModeProblem(alpha=0.5, lambda_L=1.0, u0=math.inf)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_single_mode(problem, mesh, l1_kernel(mesh, 0.5))


def test_solvers_refuse_a_table_of_another_problem():
    mesh = graded_mesh(64, 2.0, 1.0)
    other = l1_kernel(uniform_mesh(64, 1.0), 0.5)
    with pytest.raises(ValueError, match="mesh"):
        solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=1.0), mesh, other)
    with pytest.raises(ValueError, match="alpha"):
        solve_single_mode(SingleModeProblem(alpha=0.4, lambda_L=1.0), mesh,
                          l1_kernel(mesh, 0.5))
    with pytest.raises(ValueError, match="mesh"):
        solve_fd1d(FDProblem1D(length=1.0, M=4), mesh, other)


def test_solvers_refuse_an_uncertified_compression(store):
    # smallest step (1/64)^3 lies below the certified window [1e-3, 1]
    mesh = graded_mesh(64, 3.0, 1.0)
    approx = store.soe(0.5, 1e-8, 1e-3, 1.0)
    problem = SingleModeProblem(alpha=0.5, lambda_L=1.0)
    with pytest.raises(SOENotCertifiedError, match="smallest mesh step"):
        solve_single_mode_fast(problem, mesh, approx)
    with pytest.raises(SOENotCertifiedError, match="smallest mesh step"):
        solve_fd1d(FDProblem1D(length=1.0, M=4), mesh, approx)
    fitted = store.soe(0.5, 1e-8, float(mesh.tau.min()), mesh.T)
    with pytest.raises(SOENotCertifiedError, match="alpha"):
        solve_single_mode(SingleModeProblem(alpha=0.4, lambda_L=1.0), mesh,
                          fitted)
    with pytest.raises(SOENotCertifiedError, match="horizon"):
        solve_single_mode(problem, graded_mesh(64, 3.0, 2.0), fitted)


def test_same_problem_checks_refuse_a_nan_alpha(store):
    # |nan - alpha| > 1e-15 is False: both checks must refuse NaN, not pass it
    mesh = graded_mesh(16, 2.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    with pytest.raises(ValueError, match="alpha=nan differs"):
        check_same_problem(table, mesh, math.nan)
    with pytest.raises(ValueError, match="alpha=nan differs"):
        solve_single_mode(SingleModeProblem(alpha=math.nan, lambda_L=1.0), mesh,
                          table, exact=lambda t: 1.0)
    fitted = store.soe(0.5, 1e-8, float(mesh.tau.min()), mesh.T)
    with pytest.raises(SOENotCertifiedError, match="consumer wants nan"):
        _check_certified(fitted, mesh, math.nan)
    with pytest.raises(SOENotCertifiedError, match="consumer wants nan"):
        solve_single_mode(SingleModeProblem(alpha=math.nan, lambda_L=1.0), mesh,
                          fitted)


def test_smooth_orders():
    errs, orders = smooth_study("l1", 0.5, [32, 64, 128])
    assert orders[-1] == pytest.approx(1.5, abs=0.1)
    errs, orders = smooth_study("alikhanov", 0.5, [32, 64, 128])
    assert orders[-1] == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("Ns", [[32, 128, 512], [16, 16], [64, 32], [16, 48]])
def test_studies_refuse_Ns_that_do_not_double(Ns):
    # estimate_order reads each error ratio as one step halving
    with pytest.raises(ValueError, match=re.escape(f"Ns={Ns}")):
        smooth_study("l1", 0.5, Ns)
    with pytest.raises(ValueError, match=re.escape(f"Ns={Ns}")):
        singular_study("alikhanov", 0.5, Ns, gamma=2.0)


def test_singular_orders():
    errs, orders = singular_study("l1", 0.5, [128, 256, 512], gamma=1.0)
    assert orders[-1] == pytest.approx(0.5, abs=0.08)
    errs, orders = singular_study("l1", 0.5, [128, 256, 512], gamma=3.0)
    assert orders[-1] == pytest.approx(1.5, abs=0.15)


def test_fast_path_tracks_direct_path(store):
    mesh = uniform_mesh(128, 1.0)
    alpha = 0.5
    approx = store.soe(alpha, 1e-8, float(mesh.tau.min()), mesh.T)
    problem = SingleModeProblem(alpha=alpha, lambda_L=1.0)
    direct = solve_single_mode(problem, mesh, l1_kernel(mesh, alpha))
    fast = solve_single_mode_fast(problem, mesh, approx)
    assert np.max(np.abs(direct.us - fast.us)) <= 1e-6


def test_soe_history_matches_fast_table(store):
    # both backends march the same fast L1 scheme; only the summation differs
    alpha = 0.5
    mesh = graded_mesh(96, 2.0, 1.0)
    approx = store.soe(alpha, 1e-10, float(mesh.tau.min()), mesh.T)
    table = fast_l1_kernel(mesh, alpha, approx)
    mode = SingleModeProblem(alpha=alpha, lambda_L=2.0, kappa=0.5,
                             psi=np.cos(mesh.nodes[1:]))
    gap = solve_single_mode(mode, mesh, approx).us - \
        solve_single_mode(mode, mesh, table).us
    assert np.max(np.abs(gap)) <= 1e-14
    problem = FDProblem1D(
        length=1.0, M=24, kappa=1.0,
        psi=lambda x, t: np.sin(math.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(math.pi * x) + 0.5 * np.sin(3.0 * math.pi * x))
    fast = solve_fd1d(problem, mesh, approx)
    dense = solve_fd1d(problem, mesh, table)
    assert np.max(np.abs(fast.trajectory - dense.trajectory)) <= 1e-14


def test_fd_zero_data_zero_solution():
    mesh = uniform_mesh(8, 1.0)
    table = l1_kernel(mesh, 0.5)
    problem = FDProblem1D(length=1.0, M=9)
    res = solve_fd1d(problem, mesh, table)
    assert np.all(res.trajectory == 0.0)


@pytest.mark.parametrize("M", [2.5, 3.0, True, np.True_, "4", None])
def test_fd_problem_refuses_a_non_integer_M(M):
    # a float or a bool used to pass and die in np.zeros with a numpy message
    with pytest.raises(ValueError, match="M must be an integer"):
        FDProblem1D(length=1.0, M=M)


@pytest.mark.parametrize("M", [np.int64(255), np.int32(255), np.uint8(255)])
def test_fd_problem_takes_a_numpy_integer_M(M):
    # as the int it holds: M + 1 = 256 wraps to 0 in uint8
    problem = FDProblem1D(length=1.0, M=M, u0=lambda x: np.sin(np.pi * x))
    assert type(problem.M) is int and problem.h == 1.0 / 256
    mesh = uniform_mesh(4, 1.0)
    plain = solve_fd1d(dataclasses.replace(problem, M=255), mesh, l1_kernel(mesh, 0.5))
    got = solve_fd1d(problem, mesh, l1_kernel(mesh, 0.5))
    assert np.array_equal(got.trajectory, plain.trajectory)


def _mp_sine_transform(v, dps=30):
    """sum_m v_m sin(pi j m / (M+1)), j = 1..M, of each row of ``v`` at ``dps``
    digits, with mpmath's own sinpi of j m / (M+1)."""
    mpmath = pytest.importorskip("mpmath")
    M = v.shape[-1]
    with mpmath.workdps(dps):
        sin = {jm: mpmath.sinpi(mpmath.mpf(jm) / (M + 1))
               for jm in {j * m for j in range(1, M + 1) for m in range(1, M + 1)}}
        return np.array([[float(mpmath.fsum(mpmath.mpf(float(x)) * sin[j * m]
                                            for m, x in enumerate(row, 1)))
                          for j in range(1, M + 1)] for row in v])


@pytest.mark.parametrize("M", [1, 2, 3, 16, 17, 48, 128, 256])
def test_sine_transform_matches_a_30_digit_sum(M, monkeypatch):
    # each output within M eps sum |v| of the 30-digit sum, whether S is held
    # as one panel or formed in panels of 5 columns, the last one ragged
    v = np.random.default_rng(M).standard_normal((2, M)) * [[1.0], [1e3]]
    v[1, ::3] *= 1e-9  # entries far apart in size
    want = _mp_sine_transform(v)
    bound = M * np.finfo(float).eps * np.abs(v).sum(axis=1, keepdims=True)
    for panel_bytes in (solver._SINE_PANEL_BYTES, 8 * M * 5):
        monkeypatch.setattr(solver, "_SINE_PANEL_BYTES", panel_bytes)
        sine = solver._sine_transform(M)
        for scale in (1.0, 2.0 / (M + 1)):
            assert np.all(np.abs(sine(v, scale) - scale * want) <= scale * bound)


@pytest.mark.parametrize("M", [1, 2, 3, 16, 17, 48, 128, 256])
def test_sine_matrix_squares_to_a_multiple_of_the_identity(M):
    # S is exactly symmetric, and S S = (M+1)/2 I to M eps of that diagonal
    sine = solver._sine_transform(M)
    S = sine(np.eye(M))
    assert np.array_equal(S, S.T)
    half = 0.5 * (M + 1)
    assert np.all(np.abs(sine(S) - half * np.eye(M)) <= M * np.finfo(float).eps * half)


def test_sine_transform_never_forms_the_whole_matrix():
    # the (4096, 4096) matrix alone would take 134 MB
    M = 4096
    v = np.random.default_rng(0).standard_normal((2, M))
    tracemalloc.start()
    try:
        sine = solver._sine_transform(M)
        back = sine(sine(v, 2.0 / (M + 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e7, f"peak {peak / 1e6:.2f} MB"
    assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("M", [1, 9])
def test_fd_refuses_a_non_finite_forcing(M):
    mesh = uniform_mesh(8, 1.0)
    t_bad = mesh.nodes[5]

    def psi(x, t):  # called once: x is the grid, t the column of offset nodes
        return np.where((x == x[-1]) & (t == t_bad), math.nan, 1.0)

    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_fd1d(FDProblem1D(length=1.0, M=M, psi=psi), mesh,
                   l1_kernel(mesh, 0.5))


def test_fd_samples_psi_and_u0_once_on_whole_arrays():
    mesh = graded_mesh(16, 2.0, 1.0)
    calls = []

    def psi(x, t):
        calls.append(("psi", x.shape, t.shape))
        return np.sin(math.pi * x) * np.cos(2.0 * t)

    def u0(x):
        calls.append(("u0", x.shape))
        return np.sin(math.pi * x)

    res = solve_fd1d(FDProblem1D(length=1.0, M=5, psi=psi, u0=u0), mesh,
                     l1_kernel(mesh, 0.5))
    assert sorted(calls) == [("psi", (5,), (16, 1)), ("u0", (5,))]
    assert res.forcing_norms.shape == (16,)


def test_stability_audit_never_calls_psi():
    # the audit reads the forcing norms the run stored, so a psi that cannot
    # be called leaves its report as it was
    mesh = graded_mesh(32, 2.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    ctable = build_complementary(table)
    problem = FDProblem1D(
        length=1.0, M=16, kappa=1.0,
        psi=lambda x, t: np.sin(math.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(math.pi * x))
    res = solve_fd1d(problem, mesh, table)

    def refuse(x, t):
        raise AssertionError("the audit called psi")

    want = check_stability_envelope(table, mesh, res, problem, ctable, 1.0)
    got = check_stability_envelope(table, mesh, res,
                                   dataclasses.replace(problem, psi=refuse), ctable, 1.0)
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
    assert got.envelope_ok and got.hypothesis_ok


@pytest.mark.parametrize("scheme", ["l1", "alikhanov", "fastl1"])
def test_forcing_norms_match_per_node_samples(store, scheme):
    alpha = 0.4
    mesh = graded_mesh(48, 2.0, 1.0)
    if scheme == "fastl1":
        kernel = store.soe(alpha, 1e-10, float(mesh.tau.min()), mesh.T)
    else:
        kernel = (l1_kernel if scheme == "l1" else alikhanov_kernel)(mesh, alpha)
    theta = getattr(kernel, "theta", 0.0)  # fast L1 steps at t_n, as L1 does
    problem = FDProblem1D(
        length=2.0, M=33, kappa=0.5,
        psi=lambda x, t: np.cos(3.0 * x) * (1.0 + t) + x * t ** 0.5,
        u0=lambda x: x * (2.0 - x))
    res = solve_fd1d(problem, mesh, kernel)
    want = np.array([math.sqrt(res.h) * np.linalg.norm(problem.psi(res.x, t))
                     for t in mesh.offset_nodes(theta)])
    assert np.all(np.abs(res.forcing_norms - want) <= 4.0 * np.spacing(want))
    free = solve_fd1d(dataclasses.replace(problem, psi=None), mesh, kernel)
    assert free.forcing_norms.shape == (mesh.N,)
    assert not np.any(free.forcing_norms)


def test_fd_refuses_a_sample_that_does_not_broadcast():
    mesh = uniform_mesh(8, 1.0)
    table = l1_kernel(mesh, 0.5)
    per_point = FDProblem1D(length=1.0, M=4, psi=lambda x, t: np.ones(5))
    with pytest.raises(ValueError, match=re.escape(
            "psi gave shape (5,), which does not broadcast to (8, 4)")):
        solve_fd1d(per_point, mesh, table)
    with pytest.raises(ValueError, match=re.escape(
            "exact gave shape (9, 5), which does not broadcast to (9, 4)")):
        solve_fd1d(FDProblem1D(length=1.0, M=4), mesh, table,
                   exact=lambda x, t: np.ones((9, 5)))
    with pytest.raises(ValueError, match=re.escape(
            "exact gave shape (8,), which does not broadcast to (9,)")):
        solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=1.0), mesh, table,
                          exact=lambda t: t[1:])


def test_constant_exact_references_broadcast():
    mesh = uniform_mesh(8, 1.0)
    table = l1_kernel(mesh, 0.5)
    res = solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=0.0), mesh, table,
                            exact=lambda t: 1.0)
    assert res.exact.shape == (9,) and np.all(res.exact == 1.0)
    assert res.max_error == 0.0
    fd = solve_fd1d(FDProblem1D(length=1.0, M=4), mesh, table,
                    exact=lambda x, t: 0.0)
    assert np.all(fd.l2_errors == 0.0) and np.all(fd.max_errors == 0.0)
    assert fd.l2_errors.shape == fd.max_errors.shape == (9,)


def test_single_mode_takes_a_negative_kappa():
    # the shift is lambda_L - kappa, so kappa = -0.5 at lambda_L = 1 is the
    # damped run of lambda_L = 1.5, bit for bit, as every fd1d mode steps
    mesh = graded_mesh(16, 2.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    damped = solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=1.0, kappa=-0.5),
                               mesh, table)
    plain = solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=1.5), mesh, table)
    assert np.array_equal(damped.us, plain.us)
    with pytest.raises(ValueError, match="lambda_L must be nonnegative"):
        SingleModeProblem(alpha=0.5, lambda_L=-1.0)


@pytest.mark.parametrize("scheme", ["l1", "alikhanov", "fastl1"])
@pytest.mark.parametrize("M", [1, 2, 17, 128, 256])
@pytest.mark.parametrize("kappa", [-2.0, 0.0, 0.5, 30.0])
def test_fd_trajectory_solves_the_three_point_scheme(store, scheme, M, kappa):
    # sum_k A^(n)_{n-k} (u^k - u^{k-1}) + (L_h - kappa)(th u^{n-1} + (1-th) u^n)
    # = psi(t_{n-th}) at every step, with L_h the explicit 3-point matrix
    alpha = 0.4
    mesh = graded_mesh(40, 2.0, 1.0)
    if scheme == "fastl1":
        kernel = store.soe(alpha, 1e-10, float(mesh.tau.min()), mesh.T)
        table = fast_l1_kernel(mesh, alpha, kernel)
    else:
        kernel = table = (l1_kernel if scheme == "l1" else alikhanov_kernel)(
            mesh, alpha)
    problem = FDProblem1D(
        length=2.0, M=M, kappa=kappa,
        psi=lambda x, t: np.cos(3.0 * x) * (1.0 + t) + x * t ** 0.5,
        u0=lambda x: x * (2.0 - x) + np.sin(5.0 * x))
    u = solve_fd1d(problem, mesh, kernel).trajectory
    h, th = problem.h, table.theta
    L = (2.0 * np.eye(M) - np.eye(M, k=1) - np.eye(M, k=-1)) / h ** 2
    op = L - kappa * np.eye(M)
    du = np.diff(u, axis=0)
    u_th = th * u[:-1] + (1.0 - th) * u[1:]
    psi = np.stack([problem.psi(problem.grid(), t)
                    for t in mesh.offset_nodes(th)])
    resid = table.K @ du + u_th @ op.T - psi
    scale = np.abs(table.K) @ np.abs(du) + np.abs(u_th) @ np.abs(op).T + np.abs(psi)
    assert np.all(np.abs(resid) <= 1e-13 * scale)


def _manufactured_fd(alpha, sigma=3.0, kappa=0.0):
    c = math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 - alpha)

    def psi(x, t):
        return (c * t ** (sigma - alpha)
                + (math.pi ** 2 - kappa) * (1.0 + t ** sigma)) * np.sin(math.pi * x)

    def exact(x, t):
        return (1.0 + t ** sigma) * np.sin(math.pi * x)

    return psi, exact


def test_fd_manufactured_time_order():
    alpha = 0.5
    psi, exact = _manufactured_fd(alpha)
    errs = []
    for N in (16, 32, 64):
        mesh = uniform_mesh(N, 1.0)
        problem = FDProblem1D(length=1.0, M=511, psi=psi,
                              u0=lambda x: np.sin(math.pi * x))
        res = solve_fd1d(problem, mesh, l1_kernel(mesh, alpha), exact=exact)
        errs.append(float(res.l2_errors.max()))
    orders = estimate_order(errs)
    assert orders[-1] == pytest.approx(2.0 - alpha, abs=0.2)


def test_fd_manufactured_space_order():
    alpha = 0.5
    psi, exact = _manufactured_fd(alpha)
    errs = []
    mesh = graded_mesh(256, 2.0, 1.0)
    table = l1_kernel(mesh, alpha)
    for M in (8, 16, 32):
        problem = FDProblem1D(length=1.0, M=M, psi=psi,
                              u0=lambda x: np.sin(math.pi * x))
        res = solve_fd1d(problem, mesh, table, exact=exact)
        errs.append(float(res.l2_errors.max()))
    orders = estimate_order(errs)
    assert orders[-1] == pytest.approx(2.0, abs=0.2)


def test_energy_constant_sequence_is_tight():
    mesh = graded_mesh(10, 2.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    # constant sequences zero out every term; residuals must sit at zero
    rng_stub = np.random.default_rng(0)
    rep = check_energy_lemmas(table, dim=4, trials=3, rng=rng_stub)
    assert rep.violations_first == 0


def test_energy_randomized_all_schemes(store):
    for scheme, family in (("l1", "graded2"), ("alikhanov", "graded2"),
                           ("fastl1", "uniform"), ("bdf2recombined", "uniform")):
        mesh, table = store.kernel(scheme, family, 24, 0.5)
        rep = check_energy_lemmas(table, dim=8, trials=300, rng=17)
        assert rep.violations_first == 0
        assert rep.violations_second == 0
        assert rep.violations_weighted == 0
        assert rep.d_positive
        assert rep.d_times_diag_above_one
        assert rep.d_times_diag_at_least_two
        assert rep.theta_below_half_from_row2
        assert rep.theta_row1 == 0.5  # first row runs with A1 taken as 0


def test_energy_exact_equality_second_pairing_first_row():
    # at n = 1 the second pairing holds with equality for any data
    mesh = uniform_mesh(1, 1.0)
    table = l1_kernel(mesh, 0.5)
    rep = check_energy_lemmas(table, dim=8, trials=500, rng=3)
    assert rep.violations_second == 0
    assert rep.worst_resid_second == pytest.approx(0.0, abs=1e-12)


def test_energy_degenerate_kernel_guard():
    mesh = uniform_mesh(2, 1.0)
    K = np.array([[1.0, 0.0], [1.0, 1.0]])  # A^(2)_0 == A^(2)_1
    flat = KernelTable(K=K, theta=0.0, alpha=0.5, scheme_id="l1",
                       pi_A=None, mesh=mesh)
    with pytest.raises(DegenerateKernelError):
        check_energy_lemmas(flat, dim=2, trials=1, rng=0)


def test_estimate_order_examples():
    assert estimate_order([0.04, 0.01])[0] == pytest.approx(2.0)
    assert estimate_order([0.1, 0.1])[0] == pytest.approx(0.0)
    with pytest.raises(NonPositiveError):
        estimate_order([0.1, 0.0])
    with pytest.raises(ValueError):
        estimate_order([0.1])


def test_damped_stability_envelope_is_the_kappa_zero_one():
    # kappa < 0 is the lemma's Lambda <= 0 branch: factor 1, the envelope is
    # the kappa = 0 bound |u^0| + 2 max_k S_k
    mesh = graded_mesh(32, 2.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    ctable = build_complementary(table)
    problem = FDProblem1D(
        length=1.0, M=16, kappa=-3.0,
        psi=lambda x, t: np.sin(math.pi * x) * (1.0 + t),
        u0=lambda x: np.sin(math.pi * x))
    res = solve_fd1d(problem, mesh, table)
    rep = check_stability_envelope(table, mesh, res, problem, ctable, pi_A=1.0)
    # the audit's g is the run's own forcing norms; their accuracy is
    # checked against per-node samples in test_forcing_norms_match_per_node_samples
    u0_norm = math.sqrt(res.h) * np.linalg.norm(res.trajectory[0])
    cert = gronwall_bound(GronwallProblem(lambdas=np.zeros(mesh.N),
                                          g=2.0 * res.forcing_norms,
                                          v0=u0_norm, Lambda=0.0),
                          ctable, mesh, 0.5, 1.0, mesh.max_ratio())
    assert np.array_equal(rep.envelope, cert.bound_per_step)
    assert rep.envelope_ok and rep.hypothesis_ok and rep.step_restriction_ok


def test_stability_envelope_factor_is_one_at_kappa_zero():
    # norms above the factor-1 envelope but below twice it: the factor 2 the
    # audit once applied at kappa <= 0 certified them
    mesh = graded_mesh(32, 2.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    ctable = build_complementary(table)
    problem = FDProblem1D(
        length=1.0, M=16, kappa=0.0,
        psi=lambda x, t: np.sin(math.pi * x) * (1.0 + t),
        u0=lambda x: np.sin(math.pi * x))
    res = solve_fd1d(problem, mesh, table)
    env = check_stability_envelope(table, mesh, res, problem, ctable, 1.0).envelope
    norms = math.sqrt(res.h) * np.linalg.norm(res.trajectory[1:], axis=1)
    traj = res.trajectory.copy()
    scale = 1.5 * np.min(env / norms)
    traj[1:] *= scale
    assert np.all(scale * norms < 2.0 * env)
    # the audit reads the stored norms, so they are scaled with the trajectory
    scaled = dataclasses.replace(res, trajectory=traj,
                                 l2_norms=math.sqrt(res.h) * np.linalg.norm(traj, axis=1))
    rep = check_stability_envelope(table, mesh, scaled, problem, ctable, 1.0)
    assert np.array_equal(rep.envelope, env)
    assert rep.min_envelope_margin < -0.1
    assert rep.step_restriction_ok and not rep.envelope_ok


def test_stability_envelope_reports_a_broken_step_restriction():
    # max step 0.125 against (2 pi_A Gamma(3/2) 2 kappa)^-2 = 1/(4 pi) = 0.0796:
    # the envelope is evaluated, not certified
    mesh = graded_mesh(8, 1.0, 1.0)
    table = l1_kernel(mesh, 0.5)
    problem = FDProblem1D(
        length=1.0, M=16, kappa=1.0,
        psi=lambda x, t: np.sin(math.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(math.pi * x))
    res = solve_fd1d(problem, mesh, table)
    rep = check_stability_envelope(table, mesh, res, problem,
                                   build_complementary(table), pi_A=1.0)
    assert rep.step_restriction_threshold == pytest.approx(1.0 / (4.0 * math.pi),
                                                           rel=1e-14)
    assert not rep.step_restriction_ok and not rep.envelope_ok
    assert rep.hypothesis_ok and rep.min_envelope_margin > 0.0
    assert np.all(np.isfinite(rep.envelope))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_stability_envelope_certifies_nothing_without_a1(kappa):
    # this bdf2 table has a non-positive entry, so it fails A1 and its pi_A
    # measures infinite: the audit must not hand inf to the Gronwall lemma,
    # and it reports the envelope as not certified
    mesh = graded_mesh(16, 2.0, 1.0)
    table = build_table("bdf2", mesh, 0.95)
    assert verify_assumptions(table, mesh).a2_pi_estimate == math.inf
    problem = FDProblem1D(
        length=1.0, M=4, kappa=kappa,
        psi=lambda x, t: np.sin(math.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(math.pi * x))
    res = solve_fd1d(problem, mesh, table)
    ctable = build_complementary(table)
    rep = check_stability_envelope(table, mesh, res, problem, ctable, math.inf)
    assert not rep.envelope_ok and not rep.step_restriction_ok
    assert rep.step_restriction_threshold == 0.0
    assert np.all(rep.envelope == math.inf) and math.isnan(rep.min_envelope_margin)
    assert rep.hypothesis_ok
    with pytest.raises(ValueError, match="finite pi_A"):
        check_stability_envelope(table, mesh, res, problem, ctable, math.nan)


def test_stability_envelope_fd(store):
    alpha = 0.5
    mesh = uniform_mesh(64, 1.0)
    table = l1_kernel(mesh, alpha)
    problem = FDProblem1D(
        length=1.0, M=48, kappa=1.0,
        psi=lambda x, t: np.sin(math.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(math.pi * x))
    res = solve_fd1d(problem, mesh, table)
    ctable = build_complementary(table)
    rep = check_stability_envelope(table, mesh, res, problem, ctable, pi_A=1.0)
    assert rep.theta_condition_ok  # theta = 0 is always admissible
    assert rep.hypothesis_ok
    assert rep.envelope_ok
    assert rep.min_envelope_margin > 0.0


test_march_bits_pinned_at_block_edges = pins.pin_test(
    "test_march_bits_pinned_at_block_edges")
test_fast_l1_table_bits_pinned_at_block_edges = pins.pin_test(
    "test_fast_l1_table_bits_pinned_at_block_edges")
