import math
import warnings

import numpy as np
import pytest

from fracstep.gronwall import (
    GronwallProblem,
    StepRestrictionViolatedError,
    _lambda_convolution,
    check_step_restriction,
    exchange_identity_residual,
    gronwall_bound,
    step_restriction_threshold,
    verify_gronwall_linear,
    verify_gronwall_quadratic,
)
from fracstep.mesh import uniform_mesh

from conftest import admissible_lambda, lambda_sequence, make_mesh


def test_threshold_formula():
    # alpha = 1/2, pi_A = 1, Lambda = 2: (4 Gamma(3/2))^-2 = 1/(4 pi)
    assert step_restriction_threshold(0.5, 1.0, 2.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-14)


def test_restriction_vacuous_for_nonpositive_constant():
    mesh = make_mesh("graded3", 8)
    assert check_step_restriction(mesh, 0.5, 1.0, 0.0)
    assert check_step_restriction(mesh, 0.5, 1.0, -3.0)
    assert step_restriction_threshold(0.5, 1.0, 0.0) == math.inf
    # a tiny positive Lambda: the power overflows, or its base rounds to 0
    assert step_restriction_threshold(0.5, 1.0, 1e-320) == math.inf
    assert step_restriction_threshold(0.5, 0.1, 5e-324) == math.inf


@pytest.mark.parametrize("alpha", [0.0, math.nan, -0.5, 1.5])
def test_threshold_refuses_alpha_outside_unit_interval(alpha):
    # alpha = 0 once read as "no restriction" (inf); the others gave numbers
    with pytest.raises(ValueError, match="alpha must lie in"):
        step_restriction_threshold(alpha, 1.0, 2.0)
    with pytest.raises(ValueError, match="alpha must lie in"):
        step_restriction_threshold(alpha, 1.0, 0.0)


@pytest.mark.parametrize("pi_A,Lambda", [(1.0, math.nan), (math.nan, 1.0),
                                         (math.nan, -1.0)])
def test_threshold_refuses_nan(pi_A, Lambda):
    # a NaN threshold would fail every comparison without saying why
    with pytest.raises(ValueError, match="NaN"):
        step_restriction_threshold(0.5, pi_A, Lambda)
    with pytest.raises(ValueError, match="NaN"):
        check_step_restriction(uniform_mesh(4, 1.0), 0.5, pi_A, Lambda)


def test_threshold_of_infinite_constants_is_zero():
    assert step_restriction_threshold(0.5, math.inf, 1.0) == 0.0
    assert step_restriction_threshold(0.5, 1.0, math.inf) == 0.0
    assert step_restriction_threshold(0.5, math.inf, -1.0) == math.inf



def test_restriction_comparison():
    mesh = uniform_mesh(100, 1.0)  # tau = 0.01
    assert check_step_restriction(mesh, 0.5, 1.0, 2.0)
    assert not check_step_restriction(uniform_mesh(2, 1.0), 0.5, 1.0, 2.0)


@pytest.mark.parametrize("scheme,family,alpha", [
    ("l1", "uniform", 0.5), ("l1", "graded2", 0.3),
    ("alikhanov", "graded3", 0.7), ("fastl1", "randquasi", 0.5),
    ("bdf2recombined", "uniform", 0.5)])
def test_exchange_identity(store, scheme, family, alpha):
    mesh, ktable, ctable = store.ctable(scheme, family, 40, alpha)
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(41)
        assert exchange_identity_residual(ctable, ktable, v) <= 1e-10


def test_trivial_bound_doubles_start_value(store):
    mesh, ktable, ctable = store.ctable("l1", "uniform", 16, 0.5)
    problem = GronwallProblem(lambdas=np.zeros(16), g=np.zeros(16), v0=1.5,
                              Lambda=0.0, theta=0.0, form="quadratic")
    cert = gronwall_bound(problem, ctable, mesh, 0.5, 1.0, 1.0)
    assert np.allclose(cert.bound_per_step, 1.5)  # no envelope when Lambda <= 0
    problem2 = GronwallProblem(lambdas=np.zeros(16), g=np.zeros(16), v0=1.5,
                               Lambda=0.3, theta=0.0, form="quadratic")
    cert2 = gronwall_bound(problem2, ctable, mesh, 0.5, 1.0, 1.0)
    assert cert2.bound_per_step[0] >= 2.0 * 1.5
    assert np.all(np.diff(cert2.bound_per_step) >= -1e-12)


def test_linear_equality_telescopes(store):
    # increasing sequence, lambda = 0, g exactly the memory derivative:
    # the linear certificate is attained with equality
    mesh, ktable, ctable = store.ctable("l1", "graded2", 24, 0.5)
    rng = np.random.default_rng(5)
    v = np.cumsum(np.abs(rng.standard_normal(25)) + 0.05)
    from fracstep.kernels import apply_discrete_derivative

    g = apply_discrete_derivative(ktable, v)
    assert np.all(g > 0.0)
    problem = GronwallProblem(lambdas=np.zeros(24), g=g, v0=float(v[0]),
                              Lambda=0.0, theta=0.0, form="linear")
    cert = gronwall_bound(problem, ctable, mesh, 0.5, 1.0, 1.0)
    assert np.allclose(cert.bound_per_step, v[1:], rtol=1e-10)


def test_linear_scale_equivariance(store):
    mesh, ktable, ctable = store.ctable("l1", "uniform", 12, 0.4)
    rng = np.random.default_rng(8)
    g = np.abs(rng.standard_normal(12))
    lam = lambda_sequence(12, 0.2)
    base = GronwallProblem(lambdas=lam, g=g, v0=0.7, Lambda=0.2, theta=0.0,
                           form="linear")
    scaled = GronwallProblem(lambdas=lam, g=3.0 * g, v0=3.0 * 0.7, Lambda=0.2,
                             theta=0.0, form="linear")
    b1 = gronwall_bound(base, ctable, mesh, 0.4, 1.0, 1.0).bound_per_step
    b3 = gronwall_bound(scaled, ctable, mesh, 0.4, 1.0, 1.0).bound_per_step
    assert np.allclose(3.0 * b1, b3, rtol=1e-13)


def test_weak_bound_dominates(store):
    mesh, ktable, ctable = store.ctable("l1", "graded2", 20, 0.6)
    rng = np.random.default_rng(2)
    g = np.abs(rng.standard_normal(20))
    problem = GronwallProblem(lambdas=np.zeros(20), g=g, v0=1.0, Lambda=0.0,
                              theta=0.0, form="quadratic")
    cert = gronwall_bound(problem, ctable, mesh, 0.6, 1.0, 1.0)
    assert np.all(cert.weak_bound_per_step >= cert.bound_per_step * (1 - 1e-12))


def test_bound_rejects_oversized_steps(store):
    mesh, ktable, ctable = store.ctable("l1", "uniform", 4, 0.5)
    problem = GronwallProblem(lambdas=lambda_sequence(4, 50.0), g=np.ones(4),
                              v0=1.0, Lambda=50.0, theta=0.0)
    with pytest.raises(StepRestrictionViolatedError):
        gronwall_bound(problem, ctable, mesh, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("form", ["quadratic", "linear"])
def test_bound_refuses_data_past_the_double_range(store, form):
    # the sums S = P g of data near the largest double leave the double
    # range: refused by name, as the trials refuse such a slack, and neither
    # by numpy's overflow warning nor by an infinite bound
    mesh, ktable, ctable = store.ctable("l1", "graded2", 16, 0.5)
    problem = GronwallProblem(lambdas=np.zeros(16), g=np.full(16, 1.7e308),
                              v0=0.0, Lambda=0.0, form=form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=rf"^the {form} bound leaves the "
                           r"double range at Lambda = 0\.000e\+00$"):
            gronwall_bound(problem, ctable, mesh, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("pi_A", [math.inf, math.nan])
@pytest.mark.parametrize("Lambda", [0.0, 0.3])
def test_bound_refuses_non_finite_pi_A(store, pi_A, Lambda):
    # with Lambda <= 0 this used to return inf or nan weak bounds silently
    mesh, ktable, ctable = store.ctable("l1", "uniform", 16, 0.5)
    problem = GronwallProblem(lambdas=lambda_sequence(16, Lambda), g=np.ones(16),
                              v0=1.0, Lambda=Lambda)
    with pytest.raises(ValueError, match="finite pi_A"):
        gronwall_bound(problem, ctable, mesh, 0.5, pi_A, 1.0)


@pytest.mark.parametrize("count", [3, 17])
def test_trials_refuse_lambdas_of_wrong_length(store, count):
    # too few used to die in an IndexError, too many were ignored silently
    mesh, ktable, ctable = store.ctable("l1", "uniform", 16, 0.5)
    problem = GronwallProblem(lambdas=np.zeros(count), g=None, v0=1.0, Lambda=0.0)
    for verify in (verify_gronwall_quadratic, verify_gronwall_linear):
        with pytest.raises(ValueError, match="N = 16"):
            verify(ctable, mesh, ktable, problem, trials=2, rng=0)


def test_problem_validation():
    with pytest.raises(ValueError):
        GronwallProblem(lambdas=np.array([1.0]), g=None, v0=1.0, Lambda=0.5)
    with pytest.raises(ValueError):
        GronwallProblem(lambdas=np.array([-1.0]), g=None, v0=1.0, Lambda=1.0)
    with pytest.raises(ValueError):
        GronwallProblem(lambdas=np.array([0.5]), g=None, v0=-1.0, Lambda=1.0)
    with pytest.raises(ValueError):
        GronwallProblem(lambdas=np.array([0.1]), g=np.array([-0.2]), v0=0.0,
                        Lambda=1.0)
    with pytest.raises(ValueError):
        GronwallProblem(lambdas=np.array([0.5]), g=None, v0=0.0, Lambda=1.0,
                        form="cubic")


@pytest.mark.parametrize("name", ["Lambda", "v0", "lambdas", "g"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_refuses_non_finite_data(name, bad):
    # NaN used to pass every sign check and reach the certificate
    data = dict(lambdas=np.array([0.3, 0.2]), g=np.array([0.1, 0.0]), v0=1.0,
                Lambda=0.5)
    data[name] = np.array([0.3, bad]) if name in ("lambdas", "g") else bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GronwallProblem(**data)


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_refuse_fewer_than_one(store, trials):
    mesh, ktable, ctable = store.ctable("l1", "uniform", 16, 0.5)
    problem = GronwallProblem(lambdas=np.zeros(16), g=None, v0=1.0, Lambda=0.0)
    for verify in (verify_gronwall_quadratic, verify_gronwall_linear):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify(ctable, mesh, ktable, problem, trials=trials, rng=0)


@pytest.mark.parametrize("scheme,family,alpha", [
    ("l1", "graded2", 0.3), ("l1", "graded2", 0.7),
    ("alikhanov", "uniform", 0.5), ("fastl1", "randquasi", 0.5)])
def test_randomized_trials_no_violations(store, scheme, family, alpha):
    mesh, ktable, ctable = store.ctable(scheme, family, 32, alpha)
    pi_A = store.pi_for(scheme, family, 32, alpha)
    lam_total = admissible_lambda(mesh, alpha, pi_A)
    problem = GronwallProblem(lambdas=lambda_sequence(32, lam_total), g=None,
                              v0=1.0, Lambda=lam_total, theta=ktable.theta)
    for verify in (verify_gronwall_quadratic, verify_gronwall_linear):
        rep = verify(ctable, mesh, ktable, problem, trials=40, rng=123)
        assert rep.violations == 0
        assert rep.min_margin > 0.0
        assert rep.weak_dominates


def test_trials_nonpositive_branch(store):
    mesh, ktable, ctable = store.ctable("l1", "uniform", 24, 0.5)
    problem = GronwallProblem(lambdas=np.zeros(24), g=None, v0=1.0,
                              Lambda=0.0, theta=0.0)
    for verify in (verify_gronwall_quadratic, verify_gronwall_linear):
        rep = verify(ctable, mesh, ktable, problem, trials=40, rng=9)
        assert rep.violations == 0


@pytest.mark.parametrize("N", [1, 2, 5, 300])
@pytest.mark.parametrize("kind", ["zero", "two", "gap", "dense", "nonpositive"])
def test_lambda_convolution_multiplies_only_its_band(N, kind):
    # the lag-shift sum against a dense product with the lower-triangular
    # Toeplitz matrix T[n, k] = lambda_{n-k}, with the last nonzero lambda at
    # lag 0, 1, 4 or N - 1, and nonpositive lambdas as the Lambda <= 0 branch
    rng = np.random.default_rng(N)
    lam = np.zeros(N)
    if kind == "two":
        lam[:2] = (0.35, 0.15)[: min(N, 2)]
    elif kind == "gap":
        lam[min(N, 5) - 1] = 0.2
    elif kind == "dense":
        lam = rng.uniform(0.0, 1.0, N)
    elif kind == "nonpositive":
        lam = -rng.uniform(0.0, 1.0, N)
        lam[1::3] = 0.0
    W = rng.uniform(0.1, 2.0, (7, N))
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    T = np.where(lag >= 0, lam[np.maximum(lag, 0)], 0.0)
    got = _lambda_convolution(lam, W)
    assert np.allclose(got, W @ T.T, rtol=1e-13, atol=0.0)
