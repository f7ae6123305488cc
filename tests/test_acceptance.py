"""End-to-end acceptance: every certified property at its stated tolerance.

Each test prints one `[acceptance]` line. Criterion 5c pins the energy split
coefficient d_n = 1/A0 + 1/(A0 - A1) to the range its definition gives:
d_n * A0 = (2 - r)/(1 - r) >= 2 for the lag ratio r = A1/A0 in [0, 1), with
equality exactly on row 1, where A^(1)_1 is taken as 0.
"""

import math

import numpy as np
import pytest

from fracstep import cli
from fracstep.complementary import check_lemma21, check_lemma22_23, identity_residual
from fracstep.gronwall import GronwallProblem, verify_gronwall_linear, \
    verify_gronwall_quadratic
from fracstep.kernels import bdf2_kernel, bdf2_recombine, verify_assumptions
from fracstep.mesh import uniform_mesh
from fracstep.solver import (
    FDProblem1D,
    SingleModeProblem,
    check_energy_lemmas,
    check_stability_envelope,
    singular_study,
    smooth_study,
    solve_fd1d,
    solve_single_mode,
    solve_single_mode_fast,
)

from conftest import ALPHAS, MESH_FAMILIES, admissible_lambda, grid_cells, \
    lambda_sequence, make_mesh

GRID_NS = (16, 64, 256)


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion1_kernel_identity(store):
    worst = 0.0
    where = None
    for scheme, family, N, alpha in grid_cells(GRID_NS):
        _, _, ctable = store.ctable(scheme, family, N, alpha)
        r = identity_residual(ctable)
        if r > worst:
            worst, where = r, (scheme, family, N, alpha)
    _report("criterion 1 (complementary identity <= 1e-11)",
            worst <= 1e-11, f"max residual {worst:.3e} at {where}")


def test_criterion2_assumption_audit(store):
    caps = {"l1": 1.0 + 1e-10, "alikhanov": 11.0 / 4.0, "fastl1": 1.5}
    failures = []
    for scheme, cap in caps.items():
        for family in MESH_FAMILIES:
            for N in GRID_NS:
                for alpha in ALPHAS:
                    mesh, table = store.kernel(scheme, family, N, alpha)
                    assert mesh.max_ratio() <= 1.75
                    rep = verify_assumptions(table, mesh, cap)
                    if not (rep.a1_holds and rep.a2_pi_estimate <= cap):
                        failures.append(
                            (scheme, family, N, alpha, rep.a2_pi_estimate))
    _report("criterion 2 (A1/A2 audits: pi <= 1, 11/4, 3/2)",
            not failures, f"failures: {failures[:3]}" if failures else "all passed")


def test_criterion3_lemma_suite(store):
    worst_entry = -math.inf
    worst_power = -math.inf
    worst_ml = math.inf
    for scheme, family, N, alpha in grid_cells(GRID_NS):
        mesh, table, ctable = store.ctable(scheme, family, N, alpha)
        pi_A = store.pi_for(scheme, family, N, alpha)
        rep1 = check_lemma21(ctable, mesh, alpha, pi_A)
        assert rep1.nonnegative, (scheme, family, N, alpha)
        assert rep1.entry_bound_holds, (scheme, family, N, alpha)
        assert rep1.weighted_sum_holds, (scheme, family, N, alpha)
        worst_entry = max(worst_entry, rep1.entry_bound_excess)
        rep2 = check_lemma22_23(ctable, mesh, alpha, pi_A,
                                rho=max(1.0, mesh.max_ratio()))
        assert rep2.powerlaw_holds, (scheme, family, N, alpha)
        assert rep2.ml_holds, (scheme, family, N, alpha)
        worst_power = max(worst_power, rep2.powerlaw_max_excess)
        worst_ml = min(worst_ml, rep2.ml_log_min_margin)
    _report("criterion 3 (complementary-kernel inequality suite)", True,
            f"entry excess {worst_entry:.2e}, power excess {worst_power:.2e}, "
            f"ML log margin {worst_ml:.2e}")


def test_criterion4_gronwall_trials(store):
    N = 64
    total_trials = 0
    for cell_index, (scheme, family, _, alpha) in enumerate(grid_cells((N,))):
        mesh, table, ctable = store.ctable(scheme, family, N, alpha)
        pi_A = store.pi_for(scheme, family, N, alpha)
        table = _with_pi(table, pi_A)
        lam_total = admissible_lambda(mesh, alpha, pi_A)
        pos = GronwallProblem(lambdas=lambda_sequence(N, lam_total), g=None,
                              v0=1.0, Lambda=lam_total, theta=table.theta)
        zero = GronwallProblem(lambdas=np.zeros(N), g=None, v0=1.0,
                               Lambda=0.0, theta=table.theta)
        for problem in (pos, zero):
            for verify in (verify_gronwall_quadratic, verify_gronwall_linear):
                rep = verify(ctable, mesh, table, problem, trials=100,
                             rng=7000 + cell_index)
                assert rep.violations == 0, (scheme, family, alpha,
                                             problem.Lambda, rep.min_margin)
                total_trials += rep.trials
    _report("criterion 4 (Gronwall randomized trials)", True,
            f"{total_trials} trials, zero violations")


def _with_pi(table, pi_A):
    if table.pi_A is None:
        table.pi_A = pi_A
    return table


def test_criterion5a_energy_trials(store):
    cells = (("l1", "graded2"), ("fastl1", "graded2"),
             ("alikhanov", "graded2"), ("bdf2recombined", "uniform"))
    for scheme, family in cells:
        mesh, table = store.kernel(scheme, family, 48, 0.5)
        assert verify_assumptions(table, mesh).a1_holds
        rep = check_energy_lemmas(table, dim=8, trials=1000, rng=99)
        assert rep.violations_first == 0, scheme
        assert rep.violations_second == 0, scheme
        assert rep.violations_weighted == 0, scheme
    _report("criterion 5a (energy inequalities, 1000 trials x 4 schemes)",
            True, "zero violations beyond -1e-12 relative slack")


def test_criterion5b_energy_coefficient_ranges(store):
    for scheme, family in (("l1", "graded2"), ("alikhanov", "uniform")):
        _, table = store.kernel(scheme, family, 48, 0.5)
        rep = check_energy_lemmas(table, dim=2, trials=1, rng=0)
        assert rep.d_positive
        assert rep.d_times_diag_above_one    # consistent form of the d bound
        assert rep.theta_below_half_from_row2
        assert rep.theta_row1 == 0.5         # row 1 runs with A1 := 0
    _report("criterion 5b (theta_n < 1/2 from row 2; d_n * A0 > 1)", True,
            "consistent coefficient ranges hold")


def test_criterion5c_stated_d_range(store):
    # d_n is fixed by the energy inequalities: it is the only coefficient that
    # makes (iii) the combination (1 - th)(i) + th(ii). So d_n * A0 >= 2,
    # with equality on row 1 only; checked entry by entry against the
    # independent form 1/A0 + 1/(A0 - A1), to a few ulp.
    _, table = store.kernel("l1", "graded2", 48, 0.5)
    rep = check_energy_lemmas(table, dim=2, trials=1, rng=0)
    a0 = table.diagonal()
    a1 = np.array([0.0] + [table.row(n)[1] for n in range(2, table.N + 1)])
    ulps = 4.0 * np.finfo(float).eps
    da = rep.d * a0
    np.testing.assert_allclose(rep.d, 1.0 / a0 + 1.0 / (a0 - a1),
                               rtol=ulps, atol=0.0)
    np.testing.assert_allclose(rep.d * rep.theta_n * a0, 1.0,
                               rtol=ulps, atol=0.0)
    assert da[0] == pytest.approx(2.0, rel=ulps, abs=0.0)
    assert np.all(da[1:] > 2.0)
    _report("criterion 5c (d_n = 1/A0 + 1/(A0 - A1); d_n * A0 >= 2, "
            "= 2 on row 1 only)",
            rep.d_times_diag_at_least_two,
            f"d_1 * A0 = {da[0]:.17g}, min over n >= 2 of d_n * A0 = "
            f"{da[1:].min():.4f}")


def test_criterion6_convergence_orders():
    checks = []
    for alpha in ALPHAS:
        _, orders = smooth_study("l1", alpha, (128, 256, 512, 1024))
        checks.append(("l1 smooth", alpha, orders[-1], 2.0 - alpha, 0.15))
        _, orders = smooth_study("alikhanov", alpha, (128, 256, 512, 1024))
        checks.append(("alikhanov smooth", alpha, orders[-1], 2.0, 0.15))
        _, orders = singular_study("l1", alpha, (128, 256, 512, 1024),
                                   gamma=1.0)
        checks.append(("l1 singular uniform", alpha, orders[-1], alpha, 0.1))
        gamma = (2.0 - alpha) / alpha
        _, orders = singular_study("l1", alpha, (128, 256, 512, 1024),
                                   gamma=gamma)
        checks.append(("l1 singular graded", alpha, orders[-1],
                       2.0 - alpha, 0.2))
    bad = [c for c in checks if abs(c[2] - c[3]) > c[4]]
    detail = "; ".join(f"{name} a={a}: {got:.3f} vs {want:g}"
                       for name, a, got, want, _ in checks)
    _report("criterion 6 (observed convergence orders)", not bad, detail)


def test_criterion7_fast_history_compression(store):
    alpha = 0.5
    standard = store.soe(alpha, 1e-8, 1e-3, 1.0)
    assert standard.Nq <= 200
    diffs = {}
    for N in (128, 512):
        mesh = uniform_mesh(N, 1.0)
        approx = store.soe(alpha, 1e-8, 1e-3, 1.0)  # one window covers both
        problem = SingleModeProblem(alpha=alpha, lambda_L=1.0)
        direct = solve_single_mode(problem, mesh,
                                   store.kernel("l1", "uniform", N, alpha)[1])
        fast = solve_single_mode_fast(problem, mesh, approx)
        diffs[N] = float(np.max(np.abs(direct.us - fast.us)))
    ok = diffs[512] <= 1e-6
    _report("criterion 7 (fast path: <= 1e-6 drift, Nq <= 200 state)",
            ok, f"max drift {diffs[512]:.2e} at N=512, drift {diffs[128]:.2e} "
                f"at N=128, Nq={standard.Nq} independent of N")


def test_criterion8_bdf2_probe():
    mesh = uniform_mesh(64, 1.0)
    raw_09 = verify_assumptions(bdf2_kernel(mesh, 0.9), mesh)
    etas = {}
    recombined_ok = True
    for alpha in ALPHAS:
        rec, eta = bdf2_recombine(bdf2_kernel(mesh, alpha))
        etas[alpha] = eta
        recombined_ok &= verify_assumptions(rec, mesh).a1_holds
        recombined_ok &= 0.0 < eta < 2.0 / 3.0
    ok = (not raw_09.a1_holds) and recombined_ok
    _report("criterion 8 (BDF2 monotonicity probe and recombination)", ok,
            f"raw alpha=0.9 a1={raw_09.a1_holds}, etas=" +
            ", ".join(f"{a}:{e:.3f}" for a, e in etas.items()))


def test_criterion9_stability_end_to_end(store, capsys):
    alpha = 0.5
    mesh = uniform_mesh(64, 1.0)
    _, table, ctable = store.ctable("l1", "uniform", 64, alpha)
    problem = FDProblem1D(
        length=1.0, M=48, kappa=1.0,
        psi=lambda x, t: np.sin(np.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(np.pi * x))
    res = solve_fd1d(problem, mesh, table)
    rep = check_stability_envelope(table, mesh, res, problem, ctable, pi_A=1.0)
    code = cli.main(["solve", "--problem", "fd1d", "--scheme", "l1",
                     "--mesh", "graded:64,1,1", "--alpha", "0.5",
                     "--kappa", "1.0", "--M", "48"])
    capsys.readouterr()
    ok = (rep.theta_condition_ok and rep.hypothesis_ok and rep.envelope_ok
          and code == 0)
    _report("criterion 9 (stability envelope end to end)", ok,
            f"min envelope margin {rep.min_envelope_margin:.3e}, "
            f"cli exit {code} (3 would flag a breach)")
