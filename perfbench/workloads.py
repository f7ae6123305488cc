"""The benchmark's workloads: named ops over public fracstep entry points.

An op is a call into a public ``fracstep`` function, or an in-process
``fracstep.cli.main(argv)`` call with stdout captured. Only ``Op.run`` is
timed. ``Op.summary`` reduces the raw output to values that every pass must
reproduce exactly; ``Op.check`` validates the output against the certificate
it carries and, for ops whose inputs do not depend on the seed, against the
stored reference values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fracstep as fs
import fracstep.cli

WORKLOADS = ("certify", "march", "grid")

# Relative tolerance against the stored reference values: loose enough for a
# refactor that reorders floating-point sums, tight enough to catch any change
# of method.
REF_RTOL = 1e-9
REF_ATOL = 1e-14
IDENTITY_TOL = 1e-11        # criterion 1
SOE_DRIFT_TOL = 1e-6        # criterion 7
SOE_EPS = 1e-10

# certify: the certificate pipeline at large N
CERT_N = 768
CERT_ALPHA = 0.5
CERT_CLI_N = 512
CERT_CLI_ALPHA = 0.3
CERT_TRIALS = 16
CERT_LAMBDA = 0.5

# march: time stepping
FD_N, FD_M = 512, 128
SM_MESH = "graded:512,3,1"
SOE_N = 4096
FASTL1_MESH = "graded:384,3,1"
CONVERGE_NS = "128,256,512"

# grid: the acceptance-suite shape, many small tables
GRID_NS = (16, 64)
GRID_ALPHAS = (0.3, 0.7)
GRID_SCHEMES = ("l1", "fastl1", "alikhanov", "bdf2recombined")
GRID_FAMILIES = ("uniform", "graded2", "graded3", "randquasi")
GRID_TRIALS_N = 16
GRID_TRIALS = 32
ENERGY_N, ENERGY_DIM, ENERGY_TRIALS = 48, 8, 200
STUDY_NS = (64, 128, 256)


class CliFailure(RuntimeError):
    """A CLI op exited nonzero: it refused the input (exit 2 or 4)."""


class CliViolation(CliFailure):
    """A CLI op exited 3: its body was emitted and then failed the property
    check the CLI runs on it, so the output is wrong, not refused."""


@dataclass
class Op:
    name: str
    kind: str
    run: Callable
    summary: Callable
    check: Callable
    seeded: bool


@dataclass
class Context:
    """Generated inputs plus the results that later ops of a pass consume."""

    workload: str
    seed: int
    workdir: str
    reference: dict
    data: dict = field(default_factory=dict)


# -- helpers -----------------------------------------------------------------

def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _rows_summary(rows) -> dict:
    flat = np.concatenate(rows)
    return {
        "digest": _digest(flat),
        "sum": float(flat.sum()),
        "diag_sum": float(sum(r[0] for r in rows)),
        "last_row_sum": float(rows[-1].sum()),
        "min": float(flat.min()),
        "max": float(flat.max()),
    }


def _fields(obj, names) -> dict:
    return {n: float(getattr(obj, n)) for n in names}


def _flags(obj, names) -> list:
    return [f"{n} is false" for n in names if not getattr(obj, n)]


def compare_reference(ctx: Context, op: Op, values: dict) -> list:
    """Problems where ``values`` leave the stored reference by more than
    REF_RTOL; the body digest is compared elsewhere, not here."""
    ref = ctx.reference.get(ctx.workload, {}).get(op.name)
    if ref is None:
        return [f"no stored reference for {op.name}"]
    problems = []
    for key, want in ref["values"].items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key} missing")
        elif abs(got - want) > REF_RTOL * max(abs(got), abs(want)) + REF_ATOL:
            problems.append(f"{key}={got!r} differs from reference {want!r}")
    return problems


def _checked(extra):
    """Check that runs ``extra`` and, for unseeded ops, the reference compare."""
    def check(ctx, op, raw, values):
        problems = list(extra(ctx, raw, values)) if extra else []
        if not op.seeded:
            problems += compare_reference(ctx, op, values)
        return problems
    return check


def run_cli(argv) -> str:
    """``fracstep.cli.main(argv)`` in process; returns the stdout body."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fracstep.cli.main(list(argv))
    if rc == fracstep.cli.EXIT_VIOLATION:
        raise CliViolation(f"exit {rc}: {err.getvalue().strip()}")
    if rc != 0:
        raise CliFailure(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_summary(body: str) -> dict:
    return {"digest": hashlib.sha256(body.encode()).hexdigest(),
            "bytes": float(len(body))}


def _parse_csv(body: str):
    lines = [ln for ln in body.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cols = list(zip(*(ln.split(",") for ln in lines[1:])))
    return {h: np.array([float(v) if v else math.nan for v in col])
            for h, col in zip(header, cols)}


def _solve_summary(body: str) -> dict:
    out = _cli_summary(body)
    cols = _parse_csv(body)
    out["final_value"] = float(cols["value"][-1])
    if not np.all(np.isnan(cols["error"])):
        out["max_error"] = float(np.nanmax(cols["error"]))
        out["error_sum"] = float(np.nansum(cols["error"]))
        out["exact_sum"] = float(np.nansum(cols["exact"]))
    return out


def cli_op(name, argv, summary, extra=None, seeded=False):
    return Op(name, name, lambda ctx: run_cli(argv(ctx)), summary,
              _checked(extra), seeded)


def lib_op(name, run, summary, extra=None, seeded=False, kind=None):
    return Op(name, kind or name, run, summary, _checked(extra), seeded)


def _write_mesh(ctx, mesh, name) -> str:
    path = os.path.join(ctx.workdir, name)
    mesh.save_txt(path)
    return path


# -- certify -------------------------------------------------------------------

def _certify_inputs(ctx):
    rng = np.random.default_rng([ctx.seed, 1])
    d = ctx.data
    d["mesh"] = fs.graded_mesh(CERT_N, 2.0, 1.0)
    lam = np.zeros(CERT_N)
    lam[:2] = (0.7 * CERT_LAMBDA, 0.3 * CERT_LAMBDA)
    d["lambdas"] = lam
    d["g"] = rng.uniform(0.0, 1.0, CERT_N)
    d["trial_seeds"] = [int(s) for s in rng.integers(0, 2**31, size=2)]
    d["identity_seed"] = int(rng.integers(0, 2**31))
    d["cli_mesh"] = fs.random_mesh(CERT_CLI_N, 1.0, rho_bound=1.75,
                                   seed=int(rng.integers(0, 2**31)))
    d["cli_mesh_path"] = _write_mesh(ctx, d["cli_mesh"], "certify_mesh.txt")


def _cert_table(ctx):
    ctx.data["ktable"] = fs.l1_kernel(ctx.data["mesh"], CERT_ALPHA)
    return ctx.data["ktable"]


def _check_l1_table(ctx, table, values):
    mesh = ctx.data["mesh"]
    expect = fs.omega(2.0 - CERT_ALPHA, mesh.tau) / mesh.tau
    diag = table.diagonal()
    problems = []
    if np.max(np.abs(diag - expect) / expect) > 1e-12:
        problems.append("diagonal differs from omega_{2-a}(tau)/tau")
    if values["min"] <= 0.0:
        problems.append("non-positive kernel entry")
    return problems


def _cert_complementary(ctx):
    ctx.data["ctable"] = fs.build_complementary(ctx.data["ktable"])
    return ctx.data["ctable"]


def _cert_lemmas(ctx):
    d = ctx.data
    mesh = d["mesh"]
    return (fs.check_lemma21(d["ctable"], mesh, CERT_ALPHA, 1.0),
            fs.check_lemma22_23(d["ctable"], mesh, CERT_ALPHA, 1.0,
                                rho=max(1.0, mesh.max_ratio())))


_L21 = ("nonnegative", "entry_bound_holds", "weighted_sum_holds")
_L22 = ("powerlaw_holds", "ml_holds")


def _lemma_summary(reps) -> dict:
    l21, l22 = reps
    return {**_fields(l21, ("min_entry", "weighted_sum_excess")),
            **_fields(l22, ("ml_log_min_margin",))}


def _cert_trials(ctx):
    d = ctx.data
    problem = fs.GronwallProblem(lambdas=d["lambdas"], g=None, v0=1.0,
                                 Lambda=CERT_LAMBDA, theta=d["ktable"].theta)
    args = (d["ctable"], d["mesh"], d["ktable"], problem, CERT_TRIALS)
    return (fs.verify_gronwall_quadratic(*args, rng=d["trial_seeds"][0]),
            fs.verify_gronwall_linear(*args, rng=d["trial_seeds"][1]))


def _trials_summary(reps) -> dict:
    return {f"{form}_{k}": float(getattr(r, k))
            for form, r in zip(("quadratic", "linear"), reps)
            for k in ("violations", "min_margin", "mean_margin")}


def _check_trials(ctx, reps, values):
    return [f"{r.violations} Gronwall violations" for r in reps if r.violations]


def _cert_bound(ctx):
    d = ctx.data
    mesh = d["mesh"]
    problem = fs.GronwallProblem(lambdas=d["lambdas"], g=d["g"], v0=1.0,
                                 Lambda=CERT_LAMBDA, theta=0.0)
    return fs.gronwall_bound(problem, d["ctable"], mesh, CERT_ALPHA, 1.0,
                             max(1.0, mesh.max_ratio()))


def _check_bound(ctx, cert, values):
    b = cert.bound_per_step
    problems = []
    if not cert.step_restriction_ok:
        problems.append("step restriction violated")
    if not np.all(np.isfinite(b)) or np.any(b < 1.0) or np.any(np.diff(b) < 0.0):
        problems.append("bound is not finite, >= v0 and nondecreasing")
    return problems


def _check_dump(ctx, body, values):
    """Row count, nonnegativity, and the identity sum_j P^(n)_{n-j} A^(j)_{j-m} = 1
    on seeded rows against an independently built kernel table."""
    mesh = ctx.data["cli_mesh"]
    N = mesh.N
    cols = _parse_csv(body)
    if len(cols["value"]) != N * (N + 1) // 2:
        return [f"{len(cols['value'])} rows, expected {N * (N + 1) // 2}"]
    P = cols["value"]
    if P.min() < 0.0:
        return ["negative complementary entry"]
    table = fs.alikhanov_kernel(mesh, CERT_CLI_ALPHA)
    rng = np.random.default_rng([ctx.seed, 2])
    worst = 0.0
    for n in sorted({N, *rng.integers(1, N + 1, size=7).tolist()}):
        Pn = P[(n - 1) * n // 2: n * (n + 1) // 2]
        S = np.zeros(n)
        for j in range(1, n + 1):
            S[:j] += Pn[n - j] * table.row(j)[::-1]
        worst = max(worst, float(np.max(np.abs(S - 1.0))))
    return [f"identity residual {worst:.3e}"] if worst > IDENTITY_TOL else []


def _check_cli_audit(ctx, body, values):
    rep = json.loads(body)
    problems = [f"{k} is false" for k in ("a1_holds", "a2_holds_for_claim",
                                          "satisfies_A3") if not rep[k]]
    if rep["N"] != CERT_CLI_N:
        problems.append(f"N={rep['N']}")
    return problems


def _cert_cli_flags(ctx):
    return ["--scheme", "alikhanov", "--alpha", str(CERT_CLI_ALPHA),
            "--mesh", f"file:{ctx.data['cli_mesh_path']}"]


def _certify_ops():
    return [
        lib_op("table", _cert_table, lambda t: _rows_summary(t.rows),
               _check_l1_table),
        lib_op("audit",
               lambda ctx: fs.verify_assumptions(ctx.data["ktable"],
                                                 ctx.data["mesh"], 1.0),
               lambda r: _fields(r, ("a2_pi_estimate", "a1_worst_violation")),
               lambda ctx, r, v: _flags(r, ("a1_holds", "a2_holds_for_claim"))),
        lib_op("complementary", _cert_complementary,
               lambda c: _rows_summary(c.rows)),
        lib_op("identity",
               lambda ctx: fs.identity_residual(ctx.data["ctable"],
                                                seed=ctx.data["identity_seed"]),
               lambda r: {"residual": float(r)},
               lambda ctx, r, v: [f"residual {r:.3e}"] if r > IDENTITY_TOL else [],
               seeded=True),
        lib_op("lemmas", _cert_lemmas, _lemma_summary,
               lambda ctx, reps, v: _flags(reps[0], _L21) + _flags(reps[1], _L22)),
        lib_op("trials", _cert_trials, _trials_summary, _check_trials, seeded=True),
        lib_op("bound", _cert_bound,
               lambda c: {"digest": _digest(c.bound_per_step),
                          "final_bound": float(c.bound_per_step[-1])},
               _check_bound, seeded=True),
        cli_op("cli-complementary-dump",
               lambda ctx: ["complementary", "dump", *_cert_cli_flags(ctx)],
               _cli_summary, _check_dump, seeded=True),
        cli_op("cli-audit", lambda ctx: ["audit", *_cert_cli_flags(ctx)],
               _cli_summary, _check_cli_audit, seeded=True),
    ]


# -- march ---------------------------------------------------------------------

def _march_inputs(ctx):
    rng = np.random.default_rng([ctx.seed, 3])
    ctx.data["fd_modes"] = rng.uniform(-1.0, 1.0, size=4)


def _fd_problem(ctx):
    c = ctx.data["fd_modes"]
    k = np.arange(1, len(c) + 1)
    return fs.FDProblem1D(
        length=1.0, M=FD_M, kappa=1.0,
        psi=lambda x, t: np.sin(np.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(np.pi * np.outer(x, k)) @ c)


def _march_fd1d(ctx):
    mesh = fs.graded_mesh(FD_N, 2.0, 1.0)
    table = fs.l1_kernel(mesh, 0.5)
    ctx.data["fd"] = (mesh, table)
    return fs.solve_fd1d(_fd_problem(ctx), mesh, table)


def _check_fd1d(ctx, res, values):
    mesh, table = ctx.data["fd"]
    stab = fs.check_stability_envelope(table, mesh, res, _fd_problem(ctx),
                                       fs.build_complementary(table), 1.0)
    problems = _flags(stab, ("theta_condition_ok", "hypothesis_ok", "envelope_ok"))
    # Grid sine modes are exact eigenvectors of the 3-point operator, so the
    # run must equal the sum of independent scalar runs, one per mode.
    x, h = res.x, res.h
    forcing = np.cos(2.0 * mesh.offset_nodes(table.theta))
    expect = np.zeros_like(res.trajectory)
    for j, c in enumerate(ctx.data["fd_modes"], start=1):
        mode = fs.SingleModeProblem(
            alpha=0.5, lambda_L=4.0 * np.sin(0.5 * j * np.pi * h) ** 2 / h ** 2,
            kappa=1.0, psi=forcing if j == 1 else None, u0=float(c))
        us = fs.solve_single_mode(mode, mesh, table).us
        expect += np.outer(us, np.sin(j * np.pi * x))
    gap = float(np.max(np.abs(res.trajectory - expect)))
    if gap > 1e-10 * max(1.0, float(np.max(np.abs(expect)))):
        problems.append(f"differs from the modal decomposition by {gap:.3e}")
    return problems


def _march_soe(ctx):
    mesh = fs.graded_mesh(SOE_N, 2.0, 1.0)
    approx = fs.build_soe(0.5, SOE_EPS, float(mesh.tau.min()), mesh.T)
    problem = fs.SingleModeProblem(alpha=0.5, lambda_L=1.0)
    return mesh, approx, problem, fs.solve_single_mode_fast(problem, mesh, approx)


def _check_soe(ctx, out, values):
    mesh, approx, problem, fast = out
    problems = []
    if not approx.cert_residual <= SOE_EPS:
        problems.append(f"certification residual {approx.cert_residual:.3e}")
    dense = fs.solve_single_mode(problem, mesh, fs.l1_kernel(mesh, 0.5))
    drift = float(np.max(np.abs(dense.us - fast.us)))
    if drift > SOE_DRIFT_TOL:
        problems.append(f"fast path drifts {drift:.3e} from the dense path")
    return problems


def _check_solve_error(limit):
    def check(ctx, body, values):
        err = values.get("max_error", math.nan)
        return [] if err <= limit else [f"max error {err!r} above {limit}"]
    return check


def _check_converge(ctx, body, values):
    order = values["last_order"]
    return [] if abs(order - 0.3) <= 0.1 else [f"order {order:.3f}, expected 0.3"]


def _converge_summary(body):
    out = _cli_summary(body)
    cols = _parse_csv(body)
    out["last_error"] = float(cols["error"][-1])
    out["last_order"] = float(cols["order"][-1])
    return out


def _check_finite_body(ctx, body, values):
    cols = _parse_csv(body)
    return [] if np.all(np.isfinite(cols["value"])) else ["non-finite values"]


def _march_ops():
    return [
        lib_op("fd1d", _march_fd1d,
               lambda r: {"digest": _digest(r.trajectory),
                          "final_l2": float(r.l2_norms[-1])},
               _check_fd1d, seeded=True),
        cli_op("cli-single-mode",
               lambda ctx: ["solve", "--scheme", "alikhanov", "--mesh", SM_MESH,
                            "--alpha", "0.4", "--lambda", "2"],
               _solve_summary, _check_solve_error(1e-3)),
        lib_op("soe-single-mode", _march_soe,
               lambda out: {"digest": _digest(out[3].us), "Nq": float(out[1].Nq),
                            "max_error": out[3].max_error},
               _check_soe),
        cli_op("cli-fastl1",
               lambda ctx: ["solve", "--scheme", "fastl1", "--mesh", FASTL1_MESH,
                            "--alpha", "0.5"],
               _solve_summary, _check_solve_error(1e-3)),
        cli_op("cli-converge",
               lambda ctx: ["converge", "--scheme", "l1", "--singular",
                            "--gamma", "1", "--alpha", "0.3", "--Ns", CONVERGE_NS],
               _converge_summary, _check_converge),
        # Valid inputs that exit 4 today (ROADMAP open item 3); they run every
        # time and count as failed until the library handles them.
        cli_op("cli-ml-lambda10",
               lambda ctx: ["solve", "--problem", "single-mode", "--scheme", "l1",
                            "--mesh", "graded:64,3,1", "--alpha", "0.3",
                            "--lambda", "10"],
               _cli_summary, _check_finite_body),
        cli_op("cli-fd1d-kappa30",
               lambda ctx: ["solve", "--problem", "fd1d", "--scheme", "l1",
                            "--mesh", "graded:64,1,1", "--alpha", "0.3",
                            "--kappa", "30", "--M", "48"],
               _cli_summary, _check_finite_body),
    ]


# -- grid ----------------------------------------------------------------------

def _grid_mesh(ctx, family, N):
    if family == "uniform":
        return fs.uniform_mesh(N, 1.0)
    if family == "graded2":
        return fs.graded_mesh(N, 2.0, 1.0)
    if family == "graded3":
        return fs.graded_mesh(N, 3.0, 1.0)
    return fs.random_mesh(N, 1.0, rho_bound=1.75, seed=[ctx.seed, 4, N])


def _grid_table(scheme, mesh, alpha):
    if scheme == "l1":
        return fs.l1_kernel(mesh, alpha)
    if scheme == "alikhanov":
        return fs.alikhanov_kernel(mesh, alpha)
    if scheme == "fastl1":
        approx = fs.build_soe(alpha, SOE_EPS, float(mesh.tau.min()), mesh.T)
        return fs.fast_l1_kernel(mesh, alpha, approx)
    return fs.bdf2_recombine(fs.bdf2_kernel(mesh, alpha))[0]


def _grid_cells():
    for N in GRID_NS:
        for scheme in GRID_SCHEMES:
            families = ("uniform",) if scheme == "bdf2recombined" else GRID_FAMILIES
            for family in families:
                for alpha in GRID_ALPHAS:
                    yield scheme, family, N, alpha


def _grid_cell_ops(cell):
    scheme, family, N, alpha = cell
    tag = f"[{scheme},{family},{N},{alpha}]"
    seeded = family == "randquasi"

    def get(ctx, key):
        return ctx.data[cell][key]

    def kernel(ctx):
        mesh = _grid_mesh(ctx, family, N)
        table = _grid_table(scheme, mesh, alpha)
        ctx.data[cell] = {"mesh": mesh, "table": table}
        return table

    def audit(ctx):
        rep = fs.verify_assumptions(get(ctx, "table"), get(ctx, "mesh"),
                                    get(ctx, "table").pi_A)
        # schemes without a proven constant run on the measured one
        ctx.data[cell]["pi"] = (rep.pi_A_claim if rep.pi_A_claim is not None
                                else rep.a2_pi_estimate)
        return rep

    def check_audit(ctx, rep, values):
        names = ("a1_holds",) if rep.pi_A_claim is None else (
            "a1_holds", "a2_holds_for_claim")
        return _flags(rep, names)

    def complementary(ctx):
        ctx.data[cell]["ctable"] = fs.build_complementary(get(ctx, "table"))
        return ctx.data[cell]["ctable"]

    def lemmas(ctx):
        mesh, ct, pi = get(ctx, "mesh"), get(ctx, "ctable"), get(ctx, "pi")
        return (fs.check_lemma21(ct, mesh, alpha, pi),
                fs.check_lemma22_23(ct, mesh, alpha, pi,
                                    rho=max(1.0, mesh.max_ratio())))

    def trials(ctx):
        mesh, table, ct, pi = (get(ctx, k) for k in ("mesh", "table", "ctable", "pi"))
        allowed = mesh.max_step() ** (-alpha) / (2.0 * pi * math.gamma(2.0 - alpha))
        lam_total = min(0.5, 0.9 * allowed)
        lam = np.zeros(N)
        lam[:2] = (0.7 * lam_total, 0.3 * lam_total)
        if table.pi_A is None:
            table.pi_A = pi
        rng = np.random.default_rng([ctx.seed, 5, N])
        seeds = rng.integers(0, 2**31, size=2).tolist()
        problem = fs.GronwallProblem(lambdas=lam, g=None, v0=1.0,
                                     Lambda=lam_total, theta=table.theta)
        args = (ct, mesh, table, problem, GRID_TRIALS)
        return (fs.verify_gronwall_quadratic(*args, rng=seeds[0]),
                fs.verify_gronwall_linear(*args, rng=seeds[1]))

    ops = [
        lib_op("kernel" + tag, kernel, lambda t: _rows_summary(t.rows),
               lambda ctx, t, v: [] if v["min"] > 0.0
               else ["non-positive kernel entry"], seeded, kind="kernel"),
        lib_op("audit" + tag, audit,
               lambda r: _fields(r, ("a2_pi_estimate",)), check_audit, seeded,
               kind="audit"),
        lib_op("complementary" + tag, complementary,
               lambda c: _rows_summary(c.rows), None, seeded, kind="complementary"),
        lib_op("identity" + tag, lambda ctx: fs.identity_residual(get(ctx, "ctable")),
               lambda r: {"residual": float(r)},
               lambda ctx, r, v: [f"residual {r:.3e}"] if r > IDENTITY_TOL else [],
               True, kind="identity"),
        lib_op("lemmas" + tag, lemmas, _lemma_summary,
               lambda ctx, reps, v: _flags(reps[0], _L21) + _flags(reps[1], _L22),
               seeded, kind="lemmas"),
    ]
    if N == GRID_TRIALS_N:
        ops.append(lib_op("trials" + tag, trials, _trials_summary, _check_trials,
                          True, kind="trials"))
    return ops


def _energy_op(scheme, family):
    def run(ctx):
        mesh = _grid_mesh(ctx, family, ENERGY_N)
        table = _grid_table(scheme, mesh, 0.5)
        rng = np.random.default_rng([ctx.seed, 6, GRID_SCHEMES.index(scheme)])
        return fs.check_energy_lemmas(table, dim=ENERGY_DIM, trials=ENERGY_TRIALS,
                                      rng=rng)

    def check(ctx, rep, values):
        return [f"{k}={getattr(rep, k)}" for k in
                ("violations_first", "violations_second", "violations_weighted")
                if getattr(rep, k)]

    return lib_op(f"energy[{scheme},{family}]", run,
                  lambda r: _fields(r, ("worst_resid_first", "worst_resid_second",
                                        "worst_resid_weighted")),
                  check, seeded=True, kind="energy")


def _study_op(name, study, target, tol):
    def check(ctx, out, values):
        order = values["last_order"]
        return [] if abs(order - target) <= tol else [
            f"order {order:.3f}, expected {target} +- {tol}"]

    return lib_op(name, lambda ctx: study(),
                  lambda out: {"last_error": float(out[0][-1]),
                               "last_order": float(out[1][-1])}, check)


def _grid_ops():
    ops = [op for cell in _grid_cells() for op in _grid_cell_ops(cell)]
    for scheme, family in (("l1", "graded2"), ("fastl1", "graded2"),
                           ("alikhanov", "graded2"), ("bdf2recombined", "uniform")):
        ops.append(_energy_op(scheme, family))
    ops.append(_study_op(
        "smooth-study",
        lambda: fs.smooth_study("alikhanov", 0.5, STUDY_NS), 2.0, 0.15))
    ops.append(_study_op(
        "singular-study",
        lambda: fs.singular_study("l1", 0.5, STUDY_NS, gamma=3.0), 1.5, 0.2))
    return ops


# -- entry points --------------------------------------------------------------

_OPS = {"certify": _certify_ops, "march": _march_ops, "grid": _grid_ops}
_INPUTS = {"certify": _certify_inputs, "march": _march_inputs,
           "grid": lambda ctx: None}


def build(workload: str, seed: int, workdir: str, reference: dict):
    """Generate the workload's inputs from ``seed``; returns (context, ops)."""
    ctx = Context(workload=workload, seed=seed, workdir=workdir,
                  reference=reference)
    _INPUTS[workload](ctx)
    return ctx, _OPS[workload]()
