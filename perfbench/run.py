"""fracstep benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One single-threaded load generator (this process) runs the workload's ops
in a closed loop, one pass at a time, each pass in a fresh worker process so
process caches start cold as they do for a CLI user. The first pass of a run
checks every op's output; every later pass must reproduce it exactly.

``--trace 0`` reports the end-to-end metrics from untraced passes. Op time
is reported relative to a fixed calibration chunk timed between the ops
(see ``worker.Calibration``), because a shared host's speed can drift by
tens of percent within minutes; raw seconds are in the record. ``setup_s`` is
likewise set-up time over a calibration chunk timed right after it, given in
seconds at a nominal chunk time of 10 ms.
``--trace 1`` runs one tracemalloc pass, then alternates untraced and
traced passes, and reports the per-layer metrics. Human-readable lines go
to stdout first; the last line is the JSON result. A run record and the
trace are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("certify", "march", "grid")
MIN_PASSES = 3          # untraced passes per --trace 0 run, at the least
SETUP_SAMPLES = 15      # fresh interpreters timed for setup_s, at the least
WORKER_TIMEOUT = 150.0  # seconds; a worker that takes longer aborts the run
# per-pass figures a worker reports; *_rel are op time over calibration time
PASS_FIGURES = ("wall_rel", "cpu_rel", "wall_s", "cpu_s", "cal_wall_s",
                "peak_rss_mb")
# per-worker set-up figures; setup_s is scaled by the calibration chunk
SETUP_FIGURES = ("setup_s", "setup_raw_s", "setup_chunk_s")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker(workload, seed, mode, check):
    """Run one worker to completion and return its parsed result."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), mode, "1" if check else "0",
         repr(start), OUT],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{mode} worker exceeded {WORKER_TIMEOUT:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"{mode} worker exited {proc.returncode}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def compare_passes(passes):
    """Every op of every pass is failed if it raised, failed its check, or
    returned other values than the checked first pass. An op is incorrect if
    its output failed a check: the first pass's, or a CLI certificate
    violation (exit 3) in any pass."""
    first = {r["name"]: r for r in passes[0]["ops"]}
    attempted = failed = 0
    incorrect = []
    failures = {}
    for p in passes:
        for r in p["ops"]:
            attempted += 1
            base = first[r["name"]]
            problems = list(dict.fromkeys(base["problems"] + r["problems"]))
            if r is not base and r["error"] is None and base["error"] is None \
                    and r["values"] != base["values"]:
                problems.append("output differs from the checked pass")
            if r["error"] is not None or problems:
                failed += 1
                failures.setdefault(r["name"], r["error"] or "; ".join(problems))
            if problems:
                incorrect.append(r["name"])
    return attempted, failed, sorted(set(incorrect)), failures


def machine_record(seed, env_info):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **env_info,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout when it is the top of a git work tree, else None."""
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def run_untraced(args):
    deadline = time.monotonic() + args.seconds
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        passes.append(worker(args.workload, args.seed, "plain", check=not passes))
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(args.workload, args.seed, "setup", False))
    attempted, failed, incorrect, failures = compare_passes(passes)
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in PASS_FIGURES}
    for name in SETUP_FIGURES:
        metrics[name] = statistics.median(p[name] for p in setups)
    metrics["ok_frac"] = 1.0 - failed / attempted
    detail = {"passes": [{k: p[k] for k in PASS_FIGURES} for p in passes],
              "setups": [{k: p[k] for k in SETUP_FIGURES} for p in setups]}
    return passes, metrics, attempted, failed, incorrect, failures, detail


def _cli_body_counts(workload_ref, traced, plain):
    """CLI bodies in the traced pass and how many are byte-identical to the
    stored reference body or, for seeded inputs, to the untraced pass."""
    plain_ops = {r["name"]: r for r in plain["ops"]}
    n_bytes = identical = 0
    for r in traced["ops"]:
        if not r["name"].startswith("cli-") or r["values"] is None:
            continue
        n_bytes += int(r["values"]["bytes"])
        ref = workload_ref.get(r["name"], {}).get("body_sha256")
        if ref is None:
            base = plain_ops[r["name"]]["values"]
            ref = base["digest"] if base else None
        identical += r["values"]["digest"] == ref
    return n_bytes, identical


def run_traced(args, reference):
    deadline = time.monotonic() + args.seconds
    # the tracemalloc pass goes first so that the traced pairs fill the rest
    # of the run's time and the run's length stays near --seconds
    alloc = worker(args.workload, args.seed, "alloc", False)
    plain, traced = [], []
    while not traced or time.monotonic() < deadline:
        # alternate which side runs first so drift does not bias the overhead
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for mode in order:
            res = worker(args.workload, args.seed, mode, check=not plain)
            (plain if mode == "plain" else traced).append(res)
    passes = plain + traced + [alloc]
    attempted, failed, incorrect, failures = compare_passes(passes)

    layer_runs = [t["layers"] for t in traced]
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(t["wall_rel"] for t in traced)
        / statistics.median(p["wall_rel"] for p in plain) - 1.0)
    for name in ("wall_s", "cpu_s", "cal_wall_s"):
        metrics[f"run.{name}"] = statistics.median(p[name] for p in plain)
    metrics["run.setup_raw_s"] = statistics.median(p["setup_raw_s"] for p in passes)
    metrics["cli.bytes_out"], metrics["cli.bodies_identical"] = _cli_body_counts(
        reference.get(args.workload, {}), traced[0], plain[0])
    metrics["op.peak_alloc_mb"] = max(r["peak_alloc_mb"] for r in alloc["ops"])

    # per op, the self times of every span inside it add up to the op's time
    sum_err = max(abs(sum(op["self"].values()) - op["seconds"])
                  for t in traced for op in t["op_self"])
    detail = {
        "plain_wall_rel": [p["wall_rel"] for p in plain],
        "traced_wall_rel": [t["wall_rel"] for t in traced],
        "self_sum_max_error_s": sum_err,
        "op_peak_alloc_mb": _by_kind(alloc["ops"], "peak_alloc_mb", max),
        "op_traced_s": _by_kind(traced[0]["ops"], "seconds", sum),
        "op_self_by_layer": _self_by_kind(traced[0]),
    }
    return passes, metrics, attempted, failed, incorrect, failures, detail


def _by_kind(ops, key, reduce):
    groups = {}
    for r in ops:
        groups.setdefault(r["kind"], []).append(r[key])
    return {k: reduce(v) for k, v in groups.items()}


def _self_by_kind(traced):
    """Self time per layer (and the op glue) summed over the ops of each kind."""
    kinds = {r["name"]: r["kind"] for r in traced["ops"]}
    out = {}
    for op in traced["op_self"]:
        per = out.setdefault(kinds[op["op"]], {})
        for span, s in op["self"].items():
            layer = "op" if span.startswith("op.") else span.split(".")[0]
            per[layer] = per.get(layer, 0.0) + s
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fracstep", "__init__.py")):
        print(f"error: no fracstep sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    t0 = time.monotonic()
    try:
        run = run_traced(args, reference) if args.trace else run_untraced(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    passes, metrics, attempted, failed, incorrect, failures, detail = run

    env_info = passes[0]["env"]
    record = {
        "workload": args.workload, "trace": args.trace,
        "machine": machine_record(args.seed, env_info),
        "run_s": time.monotonic() - t0,
        "attempted": attempted, "failed": failed,
        "failures": failures, "incorrect": incorrect,
        "metrics": metrics, "detail": detail,
        "op_seconds": _by_kind(passes[0]["ops"], "seconds", sum),
    }
    with open(os.path.join(OUT, f"record-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} run_s={record['run_s']:.1f}")
    for name, err in sorted(failures.items()):
        print(f"# failed {name}: {err[:160]}")
    for name, value in sorted(metrics.items()):
        print(f"# {name} = {value!r}")
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _metric_units(kind):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
