import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracstep import cli
from fracstep._floatrepr import BLOCK
from fracstep.kernels import fast_l1_kernel, l1_kernel
from fracstep.mesh import parse_mesh_spec
from fracstep.soe import build_soe
from fracstep.solver import SingleModeProblem, solve_single_mode
from fracstep.gronwall import TrialReport

import pins


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads(body):
    """Parse a CLI JSON body; a NaN or Infinity token in it fails the test."""
    return json.loads(body, parse_constant=_refuse_constant)


def test_kernels_dump_row_count(capsys):
    code, out, _ = run(capsys, "kernels", "dump", "--scheme", "l1",
                       "--mesh", "graded:30,2,1", "--alpha", "0.4")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")
            and not l.startswith("n,")]
    assert len(rows) == 465  # 30 * 31 / 2 kernel entries


def test_dump_is_byte_reproducible(capsys, tmp_path):
    argv = ["kernels", "dump", "--scheme", "alikhanov",
            "--mesh", "graded:12,3,1", "--alpha", "0.6"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_complementary_dump(capsys):
    code, out, _ = run(capsys, "complementary", "dump", "--scheme", "l1",
                       "--mesh", "graded:6,1,1", "--alpha", "0.5")
    assert code == 0
    assert "n,lag,value" in out
    first = [l for l in out.splitlines() if l.startswith("1,0,")][0]
    # P^(1)_0 = 1/A^(1)_0 = Gamma(1.5) * sqrt(tau) with tau = 1/6
    assert float(first.split(",")[2]) == pytest.approx(
        math.gamma(1.5) * math.sqrt(1.0 / 6.0), rel=1e-12)


def test_audit_json(capsys):
    code, out, _ = run(capsys, "audit", "--scheme", "alikhanov",
                       "--mesh", "graded:64,3,1", "--alpha", "0.5")
    assert code == 0
    payload = loads(out)
    assert payload["a1_holds"] is True
    assert payload["a2_pi_estimate"] <= 2.75
    assert payload["a2_holds_for_claim"] is True
    assert payload["satisfies_A3"] is True


def test_audit_reports_bdf2_failure(capsys):
    code, out, _ = run(capsys, "audit", "--scheme", "bdf2",
                       "--mesh", "graded:32,1,1", "--alpha", "0.9")
    assert code == 0
    # a non-positive entry makes the A2 constant infinite, and the body
    # prints it as null, as the pinned bdf2 audit body does
    payload = loads(out)
    assert payload["a1_holds"] is False
    assert payload["a2_pi_estimate"] is None


def test_gronwall_verify_ok(capsys):
    code, out, _ = run(capsys, "gronwall", "verify", "--scheme", "l1",
                       "--mesh", "graded:24,2,1", "--alpha", "0.5",
                       "--trials", "20", "--seed", "7")
    assert code == 0
    payload = loads(out)
    assert payload["results"]["quadratic"]["violations"] == 0
    assert payload["results"]["linear"]["violations"] == 0
    assert payload["seed"] == 7


@pytest.mark.parametrize("Lambda", ["0", "1e-320"])
def test_gronwall_verify_without_step_restriction(capsys, Lambda):
    # Lambda = 0 needs no step restriction, and for Lambda = 1e-320 the
    # admissible step overflows a double: both print a null threshold
    code, out, _ = run(capsys, "gronwall", "verify", "--scheme", "l1",
                       "--mesh", "graded:16,2,1", "--alpha", "0.5",
                       "--trials", "10", "--Lambda", Lambda)
    assert code == 0
    payload = loads(out)
    assert payload["step_restriction_threshold"] is None
    assert payload["Lambda"] == float(Lambda)
    assert payload["results"]["quadratic"]["violations"] == 0


@pytest.mark.parametrize("Lambda, code, err", [
    ("1e308", cli.EXIT_VALIDATION,
     "validation error: max step 6.152e-02 exceeds 0.000e+00\n"),
    ("-1e308", cli.EXIT_NUMERICAL,
     "numerical failure: the quadratic hypothesis slack or its bound leaves "
     "the double range at Lambda = -1.000e+308\n")],
    ids=["step-restriction", "slack-overflow"])
def test_gronwall_verify_refuses_a_constant_past_the_double_range(capsys, Lambda,
                                                                  code, err):
    # 1e308 breaks the step restriction, refused before any trial is drawn;
    # at -1e308 the slack overflows, refused by name and not by numpy's
    # warnings, which are errors here. -1e300 still runs, to its pinned body
    argv = ("gronwall", "verify", "--scheme", "l1", "--mesh", "graded:32,2,1",
            "--alpha", "0.5", "--trials", "3", "--Lambda")
    [case] = pins.cases("test_gronwall_verify_refuses_a_constant_past_the_double_range")
    assert case.run == argv + ("-1e300",)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, *argv, Lambda) == (code, "", err)
        pins.check(case)


def test_gronwall_verify_violation_exit_code(capsys, monkeypatch):
    fake = TrialReport(trials=5, violations=2, min_margin=-0.1,
                       mean_margin=0.0, weak_dominates=True)
    monkeypatch.setattr(cli.gronwall, "verify_gronwall_quadratic",
                        lambda *a, **k: fake)
    monkeypatch.setattr(cli.gronwall, "verify_gronwall_linear",
                        lambda *a, **k: fake)
    code, _, err = run(capsys, "gronwall", "verify", "--scheme", "l1",
                       "--mesh", "graded:8,1,1", "--alpha", "0.5",
                       "--trials", "5")
    assert code == 3
    assert "violation" in err


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "audit", "--scheme", "l1",
                       "--mesh", "nope:1", "--alpha", "0.5")
    assert code == 2


def test_argparse_errors_map_to_validation(capsys):
    code = cli.main(["kernels", "dump", "--scheme", "not-a-scheme",
                     "--mesh", "graded:4,1,1", "--alpha", "0.5"])
    capsys.readouterr()
    assert code == 2


def test_numerical_failure_exit_code(capsys):
    code, _, err = run(capsys, "mlf", "--alpha", "0.3", "--z", "-3.0")
    assert code == 4
    assert "numerical failure" in err


def test_mlf_value(capsys):
    code, out, _ = run(capsys, "mlf", "--alpha", "1.0", "--z", "1.0")
    assert code == 0
    assert float(out) == pytest.approx(math.e, rel=1e-13)


def test_solve_single_mode_csv(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code, _, _ = run(capsys, "solve", "--problem", "single-mode",
                     "--scheme", "alikhanov", "--mesh", "graded:32,3,1",
                     "--alpha", "0.4", "--lambda", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = [l for l in lines if l.startswith("n,")][0]
    assert header == "n,t_n,value,exact,error"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 33
    last = data[-1].split(",")
    assert float(last[1]) == 1.0
    assert float(last[4]) < 1e-2  # converged run reports a small error


def test_solve_fd1d_stability_exit(capsys):
    code, out, _ = run(capsys, "solve", "--problem", "fd1d", "--scheme", "l1",
                       "--mesh", "graded:48,1,1", "--alpha", "0.5",
                       "--kappa", "1.0", "--M", "24")
    assert code == 0


@pytest.mark.parametrize("scheme", ["alikhanov", "bdf2"])
def test_solve_fd1d_envelope_of_a_long_positive_series(capsys, scheme):
    # the stability envelope reaches z = 4.93 (alikhanov) and 4.96 (bdf2):
    # E_0.3 of these is about e^205 and e^209, whose series peak near k = 680
    # and 694, past the 2000 terms the negative axis allows. The max step,
    # 0.0816, breaks the step restriction, so the envelope is not certified.
    code, out, err = run(capsys, "solve", "--problem", "fd1d", "--scheme", scheme,
                         "--mesh", "graded:24,2,1", "--alpha", "0.3", "--M", "12",
                         "--kappa", "0.5")
    threshold = {"alikhanov": "4.69e-03", "bdf2": "6.61e-03"}[scheme]
    assert (code, err) == (0, "stability envelope not certified: max step "
                              f"8.16e-02 exceeds the step restriction {threshold}\n")
    rows = [l.split(",") for l in out.splitlines() if l[:1].isdigit()]
    assert [int(r[0]) for r in rows] == list(range(25))
    assert all(math.isfinite(float(r[2])) for r in rows)


def test_solve_fd1d_reports_a_broken_step_restriction(capsys):
    # Lambda = 2 kappa = 2 admits steps up to 1/(4 pi) = 0.0796; this mesh
    # steps 0.125. The run is valid, so its body is written and it exits 0,
    # but its envelope is reported as not certified.
    [case] = pins.cases("test_solve_fd1d_reports_a_broken_step_restriction")
    pins.check(case)
    code, _, err = run(capsys, *case.run)
    assert code == 0
    assert "not certified" in err and "7.96e-02" in err and "1.25e-01" in err


@pytest.mark.parametrize("scheme,mesh,alpha,M,kappa", [
    ("l1", "graded:64,1,1", "0.99", "16", "-2"),  # was a false violation, exit 3
    ("l1", "graded:64,2,1", "0.5", "16", "-5"),  # were Mittag-Leffler refusals, exit 4
    ("alikhanov", "graded:32,2,1", "0.5", "8", "-1"),
])
def test_solve_fd1d_damped_run_passes_its_audit(capsys, scheme, mesh, alpha, M,
                                                kappa):
    code, out, err = run(capsys, "solve", "--problem", "fd1d", "--scheme", scheme,
                         "--mesh", mesh, "--alpha", alpha, "--M", M,
                         "--kappa", kappa)
    assert (code, err) == (0, "")
    assert out


def test_solve_fd1d_breach_maps_to_exit_three(capsys, monkeypatch):
    from fracstep.solver import StabilityReport

    breached = StabilityReport(
        theta_condition_ok=True, hypothesis_ok=True,
        worst_hypothesis_resid=0.0, envelope=np.zeros(4),
        envelope_ok=False, min_envelope_margin=-0.5)
    monkeypatch.setattr(cli.solver, "check_stability_envelope",
                        lambda *a, **k: breached)
    code, _, err = run(capsys, "solve", "--problem", "fd1d", "--scheme", "l1",
                       "--mesh", "graded:8,1,1", "--alpha", "0.5",
                       "--kappa", "1.0", "--M", "8")
    assert code == 3
    assert "stability audit failed" in err


def test_converge_table(capsys):
    code, out, _ = run(capsys, "converge", "--scheme", "l1", "--singular",
                       "--gamma", "auto", "--alpha", "0.5",
                       "--Ns", "32,64,128,256")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "N,error,order"
    orders = [float(l.split(",")[2]) for l in lines[2:]]
    assert orders[-1] == pytest.approx(1.5, abs=0.2)


def _converge_orders(body):
    rows = [l.split(",") for l in body.splitlines() if l and not l.startswith("#")]
    assert rows[0] == ["N", "error", "order"] and rows[1][2] == ""
    return [float(row[2]) for row in rows[2:]]


def test_converge_smooth_study_reads_order_two_minus_alpha(capsys):
    code, out, _ = run(capsys, "converge", "--scheme", "l1", "--alpha", "0.5",
                       "--Ns", "64,128,256")
    assert code == 0
    assert "# study=smooth\n" in out
    assert _converge_orders(out) == pytest.approx([1.4736, 1.4819], abs=1e-4)


def test_converge_numeric_gamma_sets_the_grading(capsys):
    # on graded meshes the l1 order is min(gamma alpha, 2 - alpha) = 1 here
    code, out, _ = run(capsys, "converge", "--scheme", "l1", "--singular",
                       "--gamma", "2", "--alpha", "0.5", "--Ns", "64,128,256")
    assert code == 0
    assert "# study=singular gamma=2\n" in out
    assert _converge_orders(out) == pytest.approx([0.9772, 0.9887], abs=1e-4)


def test_converge_out_writes_csv_and_prints_the_table(capsys, tmp_path):
    argv = ["converge", "--scheme", "l1", "--alpha", "0.5", "--Ns", "64,128,256"]
    _, csv_body, _ = run(capsys, *argv)
    path = tmp_path / "study.csv"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_text() == csv_body
    assert out.splitlines() == [
        "       N          error    order",
        "      64   1.149946e-03         ",
        "     128   4.140810e-04   1.4736",
        "     256   1.482451e-04   1.4819"]


def test_timestamp_adds_one_header_line(capsys):
    argv = ["kernels", "dump", "--scheme", "l1", "--mesh", "graded:6,2,1",
            "--alpha", "0.5"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, stamped, _ = run(capsys, *argv, "--timestamp")
    assert code == 0
    lines = stamped.splitlines(keepends=True)
    added = [i for i, l in enumerate(lines) if l.startswith("# timestamp=")]
    assert len(added) == 1
    assert re.fullmatch(r"# timestamp=\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\n",
                        lines[added[0]])
    assert "".join(lines[:added[0]] + lines[added[0] + 1:]) == plain


def test_config_file_merges_under_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "mesh": "graded:6,1,1",
                               "scheme": "l1"}))
    # alpha comes from the file, mesh overridden on the command line
    code, out, _ = run(capsys, "kernels", "dump", "--scheme", "l1",
                       "--mesh", "graded:4,1,1", "--alpha", "0.5",
                       "--config", str(cfg))
    assert code == 0
    assert "mesh='graded:4,1,1'" in out
    rows = [l for l in out.splitlines()
            if l and not l.startswith("#") and not l.startswith("n,")]
    assert len(rows) == 10
    # a flag given on the command line wins even when it equals its default
    cfg.write_text(json.dumps({"rho-bound": 3}))
    code, out, _ = run(capsys, "audit", "--scheme", "l1", "--mesh",
                       "graded:8,2,1", "--alpha", "0.5", "--rho-bound", "1.75",
                       "--config", str(cfg))
    assert code == 0
    assert loads(out)["rho_bound"] == 1.75
    cfg.write_text(json.dumps({"trials": 5}))
    code, out, _ = run(capsys, "gronwall", "verify", "--scheme", "l1", "--mesh",
                       "graded:8,2,1", "--alpha", "0.5", "--trials", "100",
                       "--config", str(cfg))
    assert code == 0
    assert loads(out)["trials"] == 100


def test_config_values_go_through_the_flag_type(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    verify = ["gronwall", "verify", "--scheme", "l1", "--mesh", "graded:8,2,1",
              "--alpha", "0.5", "--config", str(cfg)]
    # a string is converted as the command line would convert it
    cfg.write_text(json.dumps({"trials": "5"}))
    code, out, _ = run(capsys, *verify)
    assert code == 0
    assert loads(out)["trials"] == 5
    # an int for a float flag is echoed as the float the flag gives
    cfg.write_text(json.dumps({"rho-bound": 3}))
    code, out, _ = run(capsys, "audit", "--scheme", "l1", "--mesh",
                       "graded:8,2,1", "--alpha", "0.5", "--config", str(cfg))
    assert code == 0
    assert '"rho_bound": 3.0' in out


@pytest.mark.parametrize("cfg_body, key", [
    ({"trials": "five"}, "trials"),
    ({"trials": 5.5}, "trials"),
    ({"seed": True}, "seed"),
    ({"form": "cubic"}, "form"),
    ({"timestamp": "yes"}, "timestamp"),
    ({"func": 1}, "func"),
])
def test_config_refuses_a_value_its_flag_refuses(capsys, tmp_path, cfg_body, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_body))
    code, out, err = run(capsys, "gronwall", "verify", "--scheme", "l1",
                         "--mesh", "graded:8,2,1", "--alpha", "0.5",
                         "--config", str(cfg))
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert f"config key {key!r}" in err


def test_soe_build_json(capsys):
    code, out, _ = run(capsys, "soe", "build", "--alpha", "0.5",
                       "--eps", "1e-7", "--delta-t", "1e-2", "--T", "1")
    assert code == 0
    payload = loads(out)
    assert payload["Nq"] == len(payload["nodes"])
    assert payload["cert_residual"] <= 1e-7
    assert all(w > 0 for w in payload["weights"])


test_soe_build_bytes_pinned = pins.pin_test("test_soe_build_bytes_pinned")


def test_soe_build_refusal_pinned(capsys):
    # alpha = 0.7 needs more than the node budget down to delta_t = 1e-9
    code, out, err = run(capsys, "soe", "build", "--alpha", "0.7", "--eps",
                         "1e-10", "--delta-t", "1e-9", "--T", "1")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err == ("numerical failure: could not certify eps=1e-10 on "
                   "[1e-09, 1.0] within 512 nodes; eps is below the rounding "
                   "floor Nq*2^-53*omega_(1-alpha)(delta_t) = 3.3e-08 (Nq = 444)\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta_t,T", [("1e-310", "1"), ("1e-3", "1e308"),
                                       ("1e-300", "1e300")])
def test_soe_build_refuses_a_window_too_wide_for_a_double(capsys, delta_t, T):
    # T/delta_t or the panels' ratio overflows: the refusal is the node
    # budget's, not an OverflowError from counting the panels
    code, out, err = run(capsys, "soe", "build", "--alpha", "0.5", "--eps", "1e-8",
                         "--delta-t", delta_t, "--T", T)
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err == (f"numerical failure: could not certify eps=1e-08 on "
                   f"[{float(delta_t)}, {float(T)}] within 512 nodes; the window "
                   f"needs at least 1024 dyadic panels\n")


def test_fastl1_refusal_names_the_rounding_floor(capsys):
    # tau_1 = 300^-3 on this mesh, and omega_0.05(tau_1) is about 6e5: an SOE
    # sum there rounds by more than eps = 1e-10, whatever its node count
    code, out, err = run(capsys, "kernels", "dump", "--scheme", "fastl1", "--mesh",
                         "graded:300,3,1", "--alpha", "0.95", "--eps", "1e-10")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("numerical failure: could not certify eps=1e-10 on "
                          "[3.703703703703704e-08, 1.0] within 512 nodes; ")
    floor = float(err.split("omega_(1-alpha)(delta_t) = ")[1].split()[0])
    assert "eps is below the rounding floor" in err and floor > 1e-10


test_kernels_dump_bytes_pinned = pins.pin_test("test_kernels_dump_bytes_pinned")


def test_solve_body_spanning_format_blocks(capsys):
    # more lines than one formatting block: each is still the repr line
    spec = f"graded:{BLOCK + 50},2,1"
    code, out, _ = run(capsys, "solve", "--scheme", "l1", "--mesh", spec,
                       "--alpha", "0.4")
    assert code == 0
    mesh = parse_mesh_spec(spec)
    res = solve_single_mode(SingleModeProblem(alpha=0.4, lambda_L=1.0, kappa=0.0,
                                              u0=1.0), mesh, l1_kernel(mesh, 0.4))
    lines = [f"{n},{t!r},{v!r},{e!r},{r!r}" for n, (t, v, e, r) in enumerate(zip(
        mesh.nodes.tolist(), res.us.tolist(), res.exact.tolist(), res.errors.tolist()))]
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["n,t_n,value,exact,error"] + lines


test_audit_bytes_pinned = pins.pin_test("test_audit_bytes_pinned")
test_gronwall_verify_bytes_pinned = pins.pin_test("test_gronwall_verify_bytes_pinned")


def test_gronwall_verify_leaves_built_table_alone(capsys, monkeypatch):
    # bdf2 claims no pi_A, so the command runs on the measured one
    built = []
    original = cli.kernels.build_table

    def spy(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(cli.kernels, "build_table", spy)
    code, out, _ = run(capsys, "gronwall", "verify", "--scheme", "bdf2",
                       "--mesh", "graded:16,1,1", "--alpha", "0.5",
                       "--trials", "5")
    assert code == 0
    assert built[0].pi_A is None
    assert loads(out)["pi_A"] > 0.0


def test_gronwall_verify_refuses_table_failing_a1(capsys):
    # this bdf2 table has a non-positive entry, so pi_A measures infinite
    code, out, err = run(capsys, "gronwall", "verify", "--scheme", "bdf2",
                         "--mesh", "graded:64,2,1", "--alpha", "0.5")
    assert code == 2
    assert out == ""
    assert "finite pi_A" in err


@pytest.mark.parametrize("mesh, alpha, M", [("graded:200,2,1", "0.7", "16"),
                                            ("graded:16,2,1", "0.95", "4")])
def test_solve_fd1d_reports_table_failing_a1_as_not_certified(capsys, mesh, alpha, M):
    # these bdf2 tables have a non-positive entry, so pi_A measures infinite
    # and no stability envelope applies: the solve itself succeeded, so its
    # body is written and the audit reports that it certifies nothing
    argv = ["solve", "--problem", "fd1d", "--scheme", "bdf2", "--mesh", mesh,
            "--M", M]
    code, out, err = run(capsys, *argv, "--alpha", alpha)
    assert code == 0
    assert err == ("stability envelope not certified: the table fails A1 "
                   "(no finite pi_A)\n")
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "n,t_n,value,exact,error"
    assert len(rows) == 2 + int(mesh.split(":")[1].split(",")[0])
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows[1:])
    code, out, err = run(capsys, *argv, "--alpha", "0.3")
    assert code == 0 and err == ""
    assert out.startswith("# fracstep solve")


@pytest.mark.parametrize("argv, option, exponent, decimal", [
    (["mlf", "--alpha", "0.5"], "--z", "-1e-3", "-0.001"),
    (["solve", "--problem", "fd1d", "--scheme", "l1", "--mesh", "graded:16,2,1",
      "--alpha", "0.5", "--M", "8"], "--kappa", "-1e-3", "-0.001"),
    (["gronwall", "verify", "--scheme", "l1", "--mesh", "graded:16,2,1",
      "--alpha", "0.5", "--trials", "5"], "--Lambda", "-1E-2", "-0.01"),
    (["mlf", "--alpha", "0.5"], "--z", "-.5E1", "-5.0"),
])
def test_negative_values_with_an_exponent_parse(capsys, argv, option, exponent, decimal):
    # argparse's own pattern reads -1e-3 as an unknown option ("expected one
    # argument"); every float literal starting with "-" is a value
    want = run(capsys, *argv, option, decimal)
    assert want[0] == 0
    assert run(capsys, *argv, option, exponent) == want


test_solve_bytes_pinned = pins.pin_test("test_solve_bytes_pinned")
test_benchmark_cli_bytes_pinned = pins.pin_test("test_benchmark_cli_bytes_pinned")


def test_solve_fastl1_marches_without_a_table(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.kernels, "fast_l1_kernel",
                        lambda *a: calls.append(a))
    code, out, _ = run(capsys, "solve", "--scheme", "fastl1",
                       "--mesh", "graded:96,3,1", "--alpha", "0.5")
    assert code == 0
    assert calls == []
    values = np.array([float(line.split(",")[2]) for line in out.splitlines()
                       if line[:1].isdigit()])
    mesh = parse_mesh_spec("graded:96,3,1")
    approx = build_soe(0.5, 1e-8, float(mesh.tau.min()), mesh.T)
    dense = solve_single_mode(SingleModeProblem(alpha=0.5, lambda_L=1.0), mesh,
                              fast_l1_kernel(mesh, 0.5, approx))
    assert np.max(np.abs(values - dense.us)) <= 1e-14


def test_solve_fastl1_refuses_tolerance_above_kernel_cap(capsys):
    code, out, err = run(capsys, "solve", "--scheme", "fastl1",
                         "--mesh", "graded:16,2,1", "--alpha", "0.5",
                         "--eps", "0.5")
    assert code == 2
    assert "kernel condition" in err


def test_strict_parser_refuses_non_json_constants():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match="not JSON"):
            loads(f'{{"Lambda": {token}}}')


# non-finite or out-of-range numbers are refused as invalid input (exit 2)
# before any body is written, instead of reaching a certificate as NaN or
# Infinity or failing later as a numerical error (exit 4)
REFUSED = {
    "gronwall_Lambda_nan": (["gronwall", "verify", "--scheme", "l1",
                             "--mesh", "graded:16,2,1", "--alpha", "0.5",
                             "--Lambda", "nan"], "Lambda"),
    "gronwall_Lambda_inf": (["gronwall", "verify", "--scheme", "l1",
                             "--mesh", "graded:16,2,1", "--alpha", "0.5",
                             "--Lambda", "inf"], "Lambda"),
    "gronwall_trials_0": (["gronwall", "verify", "--scheme", "l1",
                           "--mesh", "graded:16,2,1", "--alpha", "0.5",
                           "--trials", "0"], "trials"),
    "audit_pi_a_inf": (["audit", "--scheme", "l1", "--mesh", "graded:16,2,1",
                        "--alpha", "0.5", "--pi-a", "inf"], "pi_A_claim"),
    "audit_pi_a_nan": (["audit", "--scheme", "l1", "--mesh", "graded:16,2,1",
                        "--alpha", "0.5", "--pi-a", "nan"], "pi_A_claim"),
    "audit_rho_bound_inf": (["audit", "--scheme", "l1", "--mesh", "graded:16,2,1",
                             "--alpha", "0.5", "--rho-bound", "inf"], "rho_bound"),
    "audit_rho_bound_nan": (["audit", "--scheme", "l1", "--mesh", "graded:16,2,1",
                             "--alpha", "0.5", "--rho-bound", "nan"], "rho_bound"),
    "solve_lambda_nan": (["solve", "--scheme", "l1", "--mesh", "graded:16,2,1",
                          "--alpha", "0.5", "--lambda", "nan"], "lambda_L"),
    "solve_lambda_inf": (["solve", "--scheme", "l1", "--mesh", "graded:16,2,1",
                          "--alpha", "0.5", "--lambda", "inf"], "lambda_L"),
    "solve_kappa_inf": (["solve", "--scheme", "l1", "--mesh", "graded:16,2,1",
                         "--alpha", "0.5", "--kappa", "inf"], "kappa"),
    "solve_fd1d_kappa_nan": (["solve", "--problem", "fd1d", "--scheme", "l1",
                              "--mesh", "graded:16,2,1", "--alpha", "0.5",
                              "--M", "8", "--kappa", "nan"], "kappa"),
    # a mesh spec's refusal names the spec, not only the field it failed on
    "solve_mesh_N_with_exponent": (["solve", "--scheme", "l1", "--mesh", "graded:1e3,2,1",
                                    "--alpha", "0.5"], "mesh spec 'graded:1e3,2,1'"),
    "dump_mesh_gamma_word": (["kernels", "dump", "--scheme", "l1", "--mesh",
                              "graded:16,x,1", "--alpha", "0.5"],
                             "mesh spec 'graded:16,x,1'"),
    "soe_eps_nan": (["soe", "build", "--alpha", "0.5", "--eps", "nan",
                     "--delta-t", "0.1", "--T", "1"], "eps"),
    "soe_eps_inf": (["soe", "build", "--alpha", "0.5", "--eps", "inf",
                     "--delta-t", "0.1", "--T", "1"], "eps"),
    "soe_T_inf": (["soe", "build", "--alpha", "0.5", "--eps", "1e-8",
                   "--delta-t", "0.1", "--T", "inf"], "T=inf"),
    "soe_delta_t_nan": (["soe", "build", "--alpha", "0.5", "--eps", "1e-8",
                         "--delta-t", "nan", "--T", "1"], "delta_t=nan"),
    "converge_one_N": (["converge", "--scheme", "l1", "--alpha", "0.5",
                        "--Ns", "16"], "need at least two N values"),
    # an order is a log2 ratio of successive errors only when N doubles
    "converge_Ns_quadruple": (["converge", "--scheme", "l1", "--alpha", "0.5",
                               "--Ns", "32,128,512"], "Ns=[32, 128, 512]"),
    "converge_Ns_repeat": (["converge", "--scheme", "l1", "--alpha", "0.5",
                            "--singular", "--Ns", "16,16"], "Ns=[16, 16]"),
    "converge_Ns_triple": (["converge", "--scheme", "alikhanov", "--alpha", "0.5",
                            "--Ns", "16,48"], "Ns=[16, 48]"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_invalid_numbers_exit_2_with_empty_stdout(capsys, case):
    argv, name = REFUSED[case]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err.startswith("validation error:") and name in err


def test_mesh_file_refusal_names_the_path_and_line(capsys, tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("0\n0.5\nabc\n1\n")
    code, out, err = run(capsys, "solve", "--scheme", "l1", "--mesh", f"file:{path}",
                         "--alpha", "0.5")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == (f"validation error: mesh spec 'file:{path}': {path}, line 3: "
                   "not a number: 'abc'\n")


def test_single_mode_solve_takes_a_negative_kappa(capsys):
    # fd1d marches every sine mode with the same scalar step and has always
    # taken kappa < 0; the single mode with shift lambda - kappa = 1.5 is the
    # run of lambda = 1.5, value for value
    argv = ["solve", "--scheme", "l1", "--mesh", "graded:16,2,1", "--alpha", "0.5"]
    code, out, err = run(capsys, *argv, "--kappa", "-0.5")
    assert (code, err) == (0, "")
    code, plain, _ = run(capsys, *argv, "--lambda", "1.5")
    assert code == 0

    def values(body):
        return [row.split(",")[2] for row in body.splitlines() if row[:1].isdigit()]
    assert len(values(out)) == 17 and values(out) == values(plain)


@pytest.mark.parametrize("scheme", ["l1", "fastl1"])
def test_single_mode_blow_up_exits_4_with_one_message(capsys, scheme):
    # the growing mode overflows at step 55; the refusal replaces a body of
    # inf and nan, and numpy's overflow warnings with it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", "--scheme", scheme,
                             "--mesh", "graded:60,1,1", "--alpha", "0.5",
                             "--lambda", "0", "--kappa", "8.7404")
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err == "numerical failure: non-finite solve at step 55\n"


@pytest.mark.parametrize("command", [
    ["solve"], ["kernels", "dump"], ["gronwall", "verify", "--trials", "3"]])
def test_fastl1_runs_on_a_one_step_mesh(capsys, command):
    # the fast L1 approximation is certified on [T/2, T] when the only step
    # is the whole horizon, so a mesh l1 accepts is not refused
    argv = command + ["--mesh", "graded:1,1,1", "--alpha", "0.5"]
    code, fast, _ = run(capsys, *argv, "--scheme", "fastl1")
    assert code == 0
    code, l1, _ = run(capsys, *argv, "--scheme", "l1")
    assert code == 0
    if command[0] == "gronwall":  # the two schemes claim different pi_A
        assert loads(fast)["results"]["quadratic"]["violations"] == 0
    else:
        assert fast.replace("fastl1", "l1") == l1


# Commands the library must run without scipy, each with its exit code.
NO_SCIPY_COMMANDS = [
    (["kernels", "dump", "--scheme", "l1", "--mesh", "graded:32,2,1", "--alpha", "0.4"], 0),
    (["kernels", "dump", "--scheme", "fastl1", "--mesh", "graded:32,2,1",
      "--alpha", "0.4"], 0),
    (["complementary", "dump", "--scheme", "l1", "--mesh", "graded:32,2,1",
      "--alpha", "0.4"], 0),
    (["audit", "--scheme", "alikhanov", "--mesh", "graded:32,2,1", "--alpha", "0.4"], 0),
    (["gronwall", "verify", "--scheme", "l1", "--mesh", "graded:32,2,1",
      "--alpha", "0.4", "--trials", "5"], 0),
    (["mlf", "--alpha", "0.5", "--z", "-1.0"], 0),
    (["soe", "build", "--alpha", "0.5", "--eps", "1e-8", "--delta-t", "1e-3",
      "--T", "1"], 0),
    (["solve", "--scheme", "l1", "--mesh", "graded:32,2,1", "--alpha", "0.4"], 0),
    (["solve", "--scheme", "fastl1", "--mesh", "graded:32,2,1", "--alpha", "0.4"], 0),
    (["solve", "--problem", "fd1d", "--scheme", "l1", "--mesh", "graded:32,2,1",
      "--alpha", "0.4", "--M", "16", "--kappa", "0.5"], 0),
    (["converge", "--scheme", "l1", "--alpha", "0.5", "--Ns", "16,32"], 0),
]

# Installs an import hook that refuses scipy, then runs every command in-process
_NO_SCIPY_SCRIPT = """
import contextlib, importlib.abc, io, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy import refused: " + name)

sys.meta_path.insert(0, NoScipy())
from fracstep import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_cli_commands_run_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    argvs = json.dumps([argv for argv, _ in NO_SCIPY_COMMANDS])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, argvs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["scipy"] == []
    assert result["codes"] == [code for _, code in NO_SCIPY_COMMANDS], proc.stderr[-2000:]


# main builds only the named command's sub-parser; each case must print and
# exit exactly as with the full tree ("{cfg}" stands for a --config file)
_SMALL = ["--mesh", "graded:8,2,1", "--alpha", "0.5"]
PARSER_PARITY = {
    "no-args": [],
    "help": ["--help"],
    "unknown-command": ["bogus", "--alpha", "0.5"],
    "version": ["--version"],
    "kernels-dump-help": ["kernels", "dump", "--help"],
    "complementary-dump-help": ["complementary", "dump", "--help"],
    "audit-help": ["audit", "--help"],
    "gronwall-verify-help": ["gronwall", "verify", "--help"],
    "solve-help": ["solve", "-h"],
    "converge-help": ["converge", "--help"],
    "mlf-help": ["mlf", "--help"],
    "soe-build-help": ["soe", "build", "--help"],
    "kernels-alone": ["kernels"],
    "gronwall-alone": ["gronwall"],
    "soe-alone": ["soe"],
    "unknown-flag": ["solve", "--scheme", "l1", *_SMALL, "--bogus", "1"],
    "bad-scheme": ["solve", "--scheme", "nope", *_SMALL],
    "non-float-alpha": ["mlf", "--alpha", "half", "--z", "-1"],
    "missing-required": ["audit", "--scheme", "l1", "--alpha", "0.5"],
    "config-valid-key": ["gronwall", "verify", "--scheme", "l1", *_SMALL,
                         "--config", "{cfg}"],
    "config-unknown-key": ["audit", "--scheme", "l1", *_SMALL,
                           "--config", "{cfg}"],
    "mlf": ["mlf", "--alpha", "0.5", "--z", "-1"],
}
PARSER_PARITY_CONFIG = {"config-valid-key": {"trials": 3, "form": "linear"},
                        "config-unknown-key": {"bogus": 1}}


def _subcommands(parser):
    """The names of ``parser``'s top-level sub-parsers."""
    action, = (a for a in parser._actions
               if isinstance(a, cli.argparse._SubParsersAction))
    return list(action.choices)


@pytest.mark.parametrize("case", sorted(PARSER_PARITY))
def test_on_demand_parser_matches_full_tree(capsys, monkeypatch, tmp_path, case):
    argv = PARSER_PARITY[case]
    if case in PARSER_PARITY_CONFIG:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(PARSER_PARITY_CONFIG[case]))
        argv = [str(cfg) if a == "{cfg}" else a for a in argv]
    on_demand = run(capsys, *argv)
    # main() reads sys.argv[1:] as main(argv) reads argv
    monkeypatch.setattr(sys, "argv", ["fracstep", *argv])
    assert cli.main() == on_demand[0]
    assert capsys.readouterr() == on_demand[1:]
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    assert run(capsys, *argv) == on_demand


def test_solve_builds_no_other_command(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def spy(command=None):
        built.append(build(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    code, out, _ = run(capsys, "solve", "--scheme", "l1", *_SMALL)
    assert code == 0 and out.startswith("# fracstep solve\n")
    assert [_subcommands(p) for p in built] == [["solve"]]
    assert _subcommands(build()) == list(cli._COMMANDS)


def test_full_tree_errors_name_the_command_argument(capsys):
    # a metavar on the full tree's sub-parsers would replace "command" here
    assert run(capsys)[2].endswith("required: command\n")
    assert "argument command: invalid choice: 'bogus'" in run(capsys, "bogus")[2]


def test_version_flag(capsys):
    assert run(capsys, "--version") == (0, "fracstep 0.1.0\n", "")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    import fracstep
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert fracstep.__version__ == tomllib.load(fh)["project"]["version"]
