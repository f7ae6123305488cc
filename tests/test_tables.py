"""Contracts of the dense table layout: one read-only (N, N) array per table,
audits that refuse a table built for another problem, and scratch memory
bounded by the table size."""

import tracemalloc

import numpy as np
import pytest

from fracstep.complementary import (
    build_complementary,
    check_lemma21,
    check_lemma22_23,
    identity_residual,
)
from fracstep.gronwall import (
    GronwallProblem,
    exchange_identity_residual,
    gronwall_bound,
    verify_gronwall_linear,
    verify_gronwall_quadratic,
)
from fracstep.kernels import (
    alikhanov_kernel,
    apply_discrete_derivative,
    bdf2_kernel,
    fast_l1_kernel,
    l1_kernel,
    verify_assumptions,
)
from fracstep.mesh import graded_mesh, uniform_mesh
from fracstep.soe import build_soe
from fracstep.solver import FDProblem1D, check_stability_envelope, solve_fd1d
from fracstep.specialfn import mittag_leffler


def test_rows_and_diagonal_are_views_of_one_readonly_matrix():
    table = l1_kernel(graded_mesh(9, 2.0, 1.0), 0.5)
    ct = build_complementary(table)
    for M, tab in ((table.K, table), (ct.P, ct)):
        assert M.shape == (9, 9) and M.dtype == np.float64
        assert not M.flags.writeable
        assert np.all(np.triu(M, 1) == 0.0)
        for n in (1, 5, 9):
            assert np.shares_memory(tab.row(n), M)
            assert np.array_equal(tab.row(n), M[n - 1, :n][::-1])
            assert np.shares_memory(tab.rows[n - 1], M)
            assert np.array_equal(tab.rows[n - 1], tab.row(n))
        assert np.shares_memory(tab.diagonal(), M)
        assert np.array_equal(tab.diagonal(), np.diag(M))
    with pytest.raises(ValueError):
        table.row(3)[0] = 1.0


def _mismatch_calls():
    mesh = graded_mesh(16, 2.0, 1.0)
    other = uniform_mesh(16, 1.0)
    table = l1_kernel(mesh, 0.5)
    ct = build_complementary(table)
    problem = GronwallProblem(lambdas=np.zeros(16), g=np.ones(16), v0=1.0,
                              Lambda=0.0)
    fd = FDProblem1D(length=1.0, M=4, kappa=0.0)
    run = solve_fd1d(fd, mesh, table)
    other_table = l1_kernel(other, 0.5)
    # same mesh and alpha, but P inverts the l1 table and not this one
    alikhanov = alikhanov_kernel(mesh, 0.5)
    return {
        "verify_assumptions": lambda: verify_assumptions(table, other, 1.0),
        "lemma21_alpha": lambda: check_lemma21(ct, mesh, 0.3, 1.0),
        "lemma21_mesh": lambda: check_lemma21(ct, other, 0.5, 1.0),
        "lemma22_23": lambda: check_lemma22_23(ct, mesh, 0.3, 1.0, rho=1.0),
        "gronwall_bound": lambda: gronwall_bound(problem, ct, other, 0.5, 1.0, 1.0),
        "quadratic_mesh": lambda: verify_gronwall_quadratic(
            ct, other, table, problem, 2, rng=0),
        "linear_ctable": lambda: verify_gronwall_linear(
            build_complementary(other_table), mesh, table, problem, 2, rng=0),
        "stability": lambda: check_stability_envelope(
            table, mesh, run, fd, build_complementary(other_table), 1.0),
        "quadratic_source": lambda: verify_gronwall_quadratic(
            ct, mesh, alikhanov, problem, 2, rng=0),
        "exchange_source": lambda: exchange_identity_residual(
            ct, alikhanov, np.ones(17)),
        "stability_source": lambda: check_stability_envelope(
            alikhanov, mesh, run, fd, ct, 1.0),
    }


@pytest.mark.parametrize("name", sorted(_mismatch_calls()))
def test_audits_refuse_a_table_built_for_another_problem(name):
    # a mismatched mesh or alpha used to certify the wrong problem silently
    with pytest.raises(ValueError, match="differs"):
        _mismatch_calls()[name]()


# Peak traced allocation of each call, in units of one (N, N) float64 table,
# outputs included; the tables it reads already exist.
MEMORY_LIMITS = {
    # the table and one kernel-triangle block, its scratch evaluated in place
    "l1_kernel": 1.12,
    "alikhanov_kernel": 1.17,
    "bdf2_kernel": 1.17,
    # the table and the Nq x N states of its N columns (Nq = 240 at
    # N = 512: about half a table); a fall back to O(N^2 Nq) scratch would
    # take about Nq/2 units
    "fast_l1_kernel": 2.0,
    "build_complementary": 1.25,
    "identity_residual": 1.0,
    "verify_assumptions": 1.0,
    "check_lemma21": 1.0,
    "check_lemma22_23": 1.0,
    "apply_discrete_derivative": 1.0,
    "mittag_leffler": 1.0,
    "gronwall_bound": 1.0,
    "check_stability_envelope": 1.0,
}


def test_scratch_memory_stays_within_one_table():
    N = 512
    mesh = graded_mesh(N, 2.0, 1.0)
    made = {}
    bound = GronwallProblem(lambdas=np.zeros(N), g=np.ones(N), v0=1.0, Lambda=0.5)
    fd = FDProblem1D(length=1.0, M=8, kappa=1.0)
    approx = build_soe(0.5, 1e-10, float(mesh.tau.min()), mesh.T)
    calls = {
        "l1_kernel": lambda: made.setdefault("table", l1_kernel(mesh, 0.5)),
        "alikhanov_kernel": lambda: alikhanov_kernel(mesh, 0.5),
        "bdf2_kernel": lambda: bdf2_kernel(mesh, 0.5),
        "fast_l1_kernel": lambda: fast_l1_kernel(mesh, 0.5, approx),
        "build_complementary": lambda: made.setdefault(
            "ct", build_complementary(made["table"])),
        "identity_residual": lambda: identity_residual(made["ct"]),
        "verify_assumptions": lambda: verify_assumptions(made["table"], mesh, 1.0),
        "check_lemma21": lambda: check_lemma21(made["ct"], mesh, 0.5, 1.0),
        "check_lemma22_23": lambda: check_lemma22_23(made["ct"], mesh, 0.5, 1.0,
                                                     rho=1.0),
        "apply_discrete_derivative": lambda: apply_discrete_derivative(
            made["table"], np.ones((N + 1, 4))),
        # at alpha = 0.5 the series band ends near x = 1.1 and the contour
        # band runs on to 5.7
        "mittag_leffler": lambda: mittag_leffler(0.5, np.linspace(0.0, -5.0, N)),
        "gronwall_bound": lambda: gronwall_bound(bound, made["ct"], mesh, 0.5,
                                                 1.0, 1.0),
        "check_stability_envelope": lambda: check_stability_envelope(
            made["table"], mesh, made["run"], fd, made["ct"], 1.0),
    }
    peaks = {}
    for name, call in calls.items():
        if name == "check_stability_envelope":  # the run it audits exists too
            made["run"] = solve_fd1d(fd, mesh, made["table"])
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / (8.0 * N * N)
        finally:
            tracemalloc.stop()
    over = {k: round(v, 3) for k, v in peaks.items() if v > MEMORY_LIMITS[k]}
    assert not over, f"peaks over their limits (units of 8 N^2 bytes): {over}"
