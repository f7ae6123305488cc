"""Experiment runner: kernel dumps, assumption audits, Gronwall trials,
solver runs and convergence studies, all emitting CSV or JSON.

Exit codes: 0 success, 2 validation failure, 3 property violation detected,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__, _floatrepr, complementary, gronwall, kernels, soe, solver
from .mesh import InvalidMeshError, check_A3, parse_mesh_spec
from .specialfn import NonConvergenceError, mittag_leffler

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_NUMERICAL = 4


class PropertyViolation(RuntimeError):
    """A certified inequality was breached at run time."""


def _header_lines(args, names):
    lines = [f"fracstep {args.command}"]
    for name in sorted(names):
        lines.append(f"{name}={getattr(args, name)!r}")
    if getattr(args, "timestamp", False):
        lines.append(f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    return lines


def _sink(out_path):
    """The ``--out`` file opened for writing, or stdout without one."""
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out_path):
    with _sink(out_path) as fh:
        fh.write(text)


def _emit_json(payload: dict, out_path):
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out_path)


def _finite_or_null(value: float):
    """``value``, or None (JSON null) for an infinite step threshold or A2
    constant: no step restriction applies, or the table fails A1."""
    return None if value == math.inf else value


def _cmd_dump(args):
    """``kernels dump`` or ``complementary dump``: the table's (n, lag, value) CSV."""
    mesh = parse_mesh_spec(args.mesh)
    table = kernels.build_table(args.scheme, mesh, args.alpha, args.eps)
    if args.command == "complementary":
        table = complementary.build_complementary(table)
    with _sink(args.out) as fh:
        kernels.kernel_rows_csv(table, fh,
                                _header_lines(args, ["scheme", "mesh", "alpha"]))
    return EXIT_OK


def _cmd_audit(args):
    mesh = parse_mesh_spec(args.mesh)
    table = kernels.build_table(args.scheme, mesh, args.alpha, args.eps)
    claim = args.pi_a if args.pi_a is not None else table.pi_A
    report = kernels.verify_assumptions(table, mesh, claim)
    a3 = check_A3(mesh, args.rho_bound)
    payload = {
        "scheme": args.scheme,
        "mesh": args.mesh,
        "alpha": args.alpha,
        "N": mesh.N,
        "max_step": a3.max_step,
        "max_ratio": a3.max_ratio,
        "satisfies_A3": a3.satisfies_A3,
        "rho_bound": args.rho_bound,
        "a1_holds": report.a1_holds,
        "a1_worst_violation": report.a1_worst_violation,
        "a2_pi_estimate": _finite_or_null(report.a2_pi_estimate),
        "pi_A_claim": report.pi_A_claim,
        "a2_holds_for_claim": report.a2_holds_for_claim,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _pi_A(table, mesh) -> float:
    """The table's proven pi_A, or the measured A2 constant when it claims none."""
    if table.pi_A is not None:
        return table.pi_A
    return kernels.verify_assumptions(table, mesh).a2_pi_estimate


def _cmd_gronwall_verify(args):
    mesh = parse_mesh_spec(args.mesh)
    table = kernels.build_table(args.scheme, mesh, args.alpha, args.eps)
    table = dataclasses.replace(table, pi_A=_pi_A(table, mesh))
    ctable = complementary.build_complementary(table)
    if args.Lambda is not None:
        lam_total = args.Lambda
    else:
        cap = mesh.max_step() ** (-args.alpha) / (
            2.0 * table.pi_A * math.gamma(2.0 - args.alpha))
        lam_total = min(0.5, 0.9 * cap)
    lambdas = np.zeros(mesh.N)
    lambdas[0] = 0.7 * lam_total
    if mesh.N > 1:
        lambdas[1] = 0.3 * lam_total
    else:
        lambdas[0] = lam_total
    problem = gronwall.GronwallProblem(
        lambdas=lambdas, g=None, v0=1.0, Lambda=lam_total, theta=table.theta)
    forms = ("quadratic", "linear") if args.form == "both" else (args.form,)
    results = {}
    violations = 0
    for form in forms:
        fn = (gronwall.verify_gronwall_quadratic if form == "quadratic"
              else gronwall.verify_gronwall_linear)
        rep = fn(ctable, mesh, table, problem, args.trials, rng=args.seed)
        results[form] = {
            "trials": rep.trials,
            "violations": rep.violations,
            "min_margin": rep.min_margin,
            "mean_margin": rep.mean_margin,
            "weak_bound_dominates": rep.weak_dominates,
        }
        violations += rep.violations
    payload = {
        "scheme": args.scheme,
        "mesh": args.mesh,
        "alpha": args.alpha,
        "trials": args.trials,
        "seed": args.seed,
        "Lambda": lam_total,
        "pi_A": table.pi_A,
        "max_ratio": mesh.max_ratio(),
        "step_restriction_threshold": _finite_or_null(
            gronwall.step_restriction_threshold(args.alpha, table.pi_A, lam_total)),
        "results": results,
    }
    _emit_json(payload, args.out)
    if violations:
        raise PropertyViolation(f"{violations} Gronwall bound violations")
    return EXIT_OK


def _write_solve_csv(out_path, mesh, values, exact, errors, header):
    with _sink(out_path) as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write("n,t_n,value,exact,error\n")
        for start in range(0, len(mesh.nodes), _floatrepr.BLOCK):
            stop = min(start + _floatrepr.BLOCK, len(mesh.nodes))
            # a missing column is a field of width 0
            fields = [_floatrepr.str_chars(range(start, stop))] + [
                np.zeros((stop - start, 0), dtype=np.uint8) if col is None
                else _floatrepr.repr_chars(col[start:stop])
                for col in (mesh.nodes, values, exact, errors)]
            fh.write(_floatrepr.csv_lines(fields))


def _cmd_solve(args):
    mesh = parse_mesh_spec(args.mesh)
    if args.scheme == "fastl1":
        # march on the O(Nq) history, not on an O(N^2 Nq) table
        kernel = soe._soe_for_mesh(args.alpha, args.eps, mesh)
    else:
        kernel = table = kernels.build_table(args.scheme, mesh, args.alpha)
    header = _header_lines(args, ["problem", "scheme", "mesh", "alpha",
                                  "lam", "kappa"])
    if args.problem == "single-mode":
        problem = solver.SingleModeProblem(
            alpha=args.alpha, lambda_L=args.lam, kappa=args.kappa, u0=1.0)
        res = solver.solve_single_mode(problem, mesh, kernel)
        _write_solve_csv(args.out, mesh, res.us, res.exact, res.errors, header)
        return EXIT_OK
    # fd1d: bounded forcing, checked against the stability envelope
    problem = solver.FDProblem1D(
        length=1.0, M=args.M, kappa=args.kappa,
        psi=lambda x, t: np.sin(np.pi * x) * np.cos(2.0 * t),
        u0=lambda x: np.sin(np.pi * x))
    res = solver.solve_fd1d(problem, mesh, kernel)
    if args.scheme == "fastl1":  # the audit needs K and P
        table = kernels.fast_l1_kernel(mesh, args.alpha, kernel)
    pi_A = _pi_A(table, mesh)
    ctable = complementary.build_complementary(table)
    stab = solver.check_stability_envelope(table, mesh, res, problem, ctable, pi_A)
    _write_solve_csv(args.out, mesh, res.l2_norms, None, None, header)
    if not stab.step_restriction_ok:  # a valid run whose envelope is not certified
        print(f"stability envelope not certified: max step {mesh.max_step():.2e} "
              f"exceeds the step restriction {stab.step_restriction_threshold:.2e}",
              file=sys.stderr)
    breached = stab.step_restriction_ok and not stab.envelope_ok
    if stab.theta_condition_ok and (breached or not stab.hypothesis_ok):
        raise PropertyViolation(
            f"stability audit failed: hypothesis_ok={stab.hypothesis_ok} "
            f"envelope_ok={stab.envelope_ok} "
            f"min_margin={stab.min_envelope_margin:.3e}")
    return EXIT_OK


def _cmd_converge(args):
    Ns = [int(s) for s in args.Ns.split(",") if s]
    if len(Ns) < 2:
        raise ValueError("need at least two N values")
    if args.singular:
        gamma = ((2.0 - args.alpha) / args.alpha if args.gamma == "auto"
                 else float(args.gamma))
        errors, orders = solver.singular_study(args.scheme, args.alpha, Ns, gamma)
        kind = f"singular gamma={gamma:g}"
    else:
        errors, orders = solver.smooth_study(args.scheme, args.alpha, Ns)
        kind = "smooth"
    text = [f"{'N':>8} {'error':>14} {'order':>8}"]
    with _sink(args.out) as fh:
        for line in _header_lines(args, ["scheme", "alpha", "Ns"]):
            fh.write(f"# {line}\n")
        fh.write(f"# study={kind}\nN,error,order\n")
        for i, N in enumerate(Ns):
            order = "" if i == 0 else f"{orders[i - 1]:.4f}"
            fh.write(f"{N},{float(errors[i])!r},{order}\n")
            text.append(f"{N:>8} {errors[i]:>14.6e} {order:>8}")
    if args.out:
        sys.stdout.write("\n".join(text) + "\n")
    return EXIT_OK


def _cmd_mlf(args):
    print(repr(mittag_leffler(args.alpha, args.z)))
    return EXIT_OK


def _cmd_soe_build(args):
    approx = soe.build_soe(args.alpha, args.eps, args.delta_t, args.T)
    _emit(approx.to_json() + "\n", args.out)
    return EXIT_OK


def _leaf_parser(parser, args) -> argparse.ArgumentParser:
    """The subcommand parser that produced ``args``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _leaf_parser(action.choices[getattr(args, action.dest)], args)
    return parser


def _config_value(action, key: str, value):
    """A --config value converted and checked as the flag's own command-line
    value would be: through the flag's ``type`` and ``choices``."""
    if action.nargs == 0:  # on/off flags such as --timestamp
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        out = text if action.type is None else action.type(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and out not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                         f"(choose from {', '.join(map(str, action.choices))})")
    return out


def _apply_config(parser, args, argv):
    """``argv`` parsed again with the --config file's values as the defaults
    of its subcommand, so every flag given in ``argv`` wins."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    leaf = _leaf_parser(parser, args)
    actions = {a.dest: a for a in leaf._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)}
    defaults = {}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"unknown config key {key!r}")
        defaults[attr] = _config_value(actions[attr], key, value)
    leaf.set_defaults(**defaults)
    return parser.parse_args(argv)


def _output(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None,
                    help="JSON file with flat key=value defaults")
    sp.add_argument("--timestamp", action="store_true",
                    help="include a timestamp header line (off for "
                         "byte-reproducible output)")


def _common(sp):
    sp.add_argument("--mesh", required=True,
                    help="graded:N,gamma,T or file:<path>")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eps", type=float, default=1e-8,
                    help="compression tolerance for fastl1")
    _output(sp)


def _add_table(sub, name):
    noun = "kernel" if name == "kernels" else name
    tsub = sub.add_parser(name, help=f"{noun} table utilities").add_subparsers(
        dest=f"{name}_command", required=True)
    dump = tsub.add_parser("dump", help="CSV of (n, lag, value)")
    dump.add_argument("--scheme", choices=kernels.SCHEMES, required=True)
    _common(dump)
    dump.set_defaults(func=_cmd_dump)


def _add_audit(sub, name):
    a = sub.add_parser(name, help="positivity/monotonicity and lower-bound audit")
    a.add_argument("--scheme", choices=kernels.SCHEMES, required=True)
    a.add_argument("--pi-a", dest="pi_a", type=float, default=None)
    a.add_argument("--rho-bound", dest="rho_bound", type=float, default=1.75)
    _common(a)
    a.set_defaults(func=_cmd_audit)


def _add_gronwall(sub, name):
    gsub = sub.add_parser(name, help="Gronwall bound verification").add_subparsers(
        dest="gronwall_command", required=True)
    gv = gsub.add_parser("verify", help="randomized hypothesis trials")
    gv.add_argument("--scheme", choices=kernels.SCHEMES, required=True)
    gv.add_argument("--trials", type=int, default=100)
    gv.add_argument("--form", choices=("quadratic", "linear", "both"),
                    default="both")
    gv.add_argument("--seed", type=int, default=0)
    gv.add_argument("--Lambda", type=float, default=None)
    _common(gv)
    gv.set_defaults(func=_cmd_gronwall_verify)


def _add_solve(sub, name):
    s = sub.add_parser(name, help="run a subdiffusion solver")
    s.add_argument("--problem", choices=("single-mode", "fd1d"),
                   default="single-mode")
    s.add_argument("--scheme", choices=kernels.SCHEMES, required=True)
    s.add_argument("--lambda", dest="lam", type=float, default=1.0)
    s.add_argument("--kappa", type=float, default=0.0)
    s.add_argument("--M", type=int, default=64)
    _common(s)
    s.set_defaults(func=_cmd_solve)


def _add_converge(sub, name):
    cv = sub.add_parser(name, help="step-halving convergence study")
    cv.add_argument("--scheme", choices=("l1", "alikhanov"), required=True)
    cv.add_argument("--alpha", type=float, required=True)
    cv.add_argument("--Ns", required=True, help="comma separated, e.g. 32,64,128")
    cv.add_argument("--singular", action="store_true")
    cv.add_argument("--gamma", default="auto",
                    help="mesh grading for --singular; auto = (2-alpha)/alpha")
    _output(cv)
    cv.set_defaults(func=_cmd_converge)


def _add_mlf(sub, name):
    m = sub.add_parser(name, help="evaluate the Mittag-Leffler function")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--z", type=float, required=True)
    m.set_defaults(func=_cmd_mlf)


def _add_soe(sub, name):
    ssub = sub.add_parser(name, help="sum-of-exponentials utilities").add_subparsers(
        dest="soe_command", required=True)
    sb = ssub.add_parser("build", help="build and certify a compression")
    sb.add_argument("--alpha", type=float, required=True)
    sb.add_argument("--eps", type=float, required=True)
    sb.add_argument("--delta-t", dest="delta_t", type=float, required=True)
    sb.add_argument("--T", type=float, required=True)
    _output(sb)
    sb.set_defaults(func=_cmd_soe_build)


# every top-level command and the function that adds its sub-parser, in the
# order the full parser lists them
_COMMANDS = {
    "kernels": _add_table,
    "complementary": _add_table,
    "audit": _add_audit,
    "gronwall": _add_gronwall,
    "solve": _add_solve,
    "converge": _add_converge,
    "mlf": _add_mlf,
    "soe": _add_soe,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or, given ``command``, the top-level parser with only
    that command's sub-parser, which builds in about a sixth of the time."""
    p = argparse.ArgumentParser(prog="fracstep", description=__doc__)
    p.add_argument("--version", action="version", version=f"fracstep {__version__}")
    if command is None:
        sub = p.add_subparsers(dest="command", required=True)
        names = list(_COMMANDS)
    else:
        # the metavar keeps the usage line of the full parser; the full parser
        # must not set it, or its errors name the argument by it
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(_COMMANDS) + "}")
        names = [command]
    for name in names:
        _COMMANDS[name](sub, name)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known first word needs only its own sub-parser; no word, -h or an
    # unknown word gets the full tree and its help or error
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (InvalidMeshError, gronwall.StepRestrictionViolatedError,
            ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, solver.SingularSystemError,
            soe.ToleranceUnreachableError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
