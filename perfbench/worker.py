"""One pass over a workload's ops in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE CHECK START OUTDIR

MODE is ``plain`` (no instrumentation), ``traced`` (layer spans, written to
OUTDIR/trace-WORKLOAD.json), ``alloc`` (a tracemalloc peak per op) or
``setup`` (stop after input generation). CHECK=1 also validates every op's
output. START is the launcher's ``time.monotonic()`` just before the process
was created, so the set-up time covers interpreter start, imports and input
generation. The result is printed as one JSON line on stdout.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import fracstep  # noqa: E402
import fracstep.cli  # noqa: E402,F401
import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


CAL_EVERY = 0.1  # seconds of op time between two calibration chunks
SETUP_CHUNKS = 5  # calibration chunks timed right after set-up
# setup_s is set-up time on a host where the calibration chunk takes this long
NOMINAL_CHUNK_S = 0.010


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


class Calibration:
    """A fixed chunk of interpreter, small-array numpy, memory-bound numpy and
    BLAS work that runs no fracstep code.

    The host's speed drifts by tens of percent within minutes. Timed between
    ops, the chunk slows down with the host, so op time divided by the mean
    chunk time stays steady while raw seconds do not.
    """

    def __init__(self):
        self.x = np.linspace(0.1, 1.0, 256)
        self.big = np.random.default_rng(0).standard_normal(1 << 17)
        self.mat = np.random.default_rng(1).standard_normal((128, 128))
        self.wall = []
        self.cpu = []

    def run(self) -> float:
        w0, c0 = time.perf_counter(), time.process_time()
        hi = lo = 0.0
        for k in range(1, 10000):  # compensated sums, like double-double code
            a = 1.0 / k
            s = hi + a
            b = s - hi
            lo += (hi - (s - b)) + (a - b)
            hi = s + math.exp(-k * 1e-4) * math.lgamma(1.0 + 0.5 * (k % 40)) * 1e-12
        acc = 0.0
        for i in range(500):  # many small ufunc calls, like per-row kernel code
            acc += float(np.exp(-self.x ** (0.3 + 1e-3 * i)).sum())
        acc += float(np.sqrt(np.abs(self.big)).sum()) + float(np.cumsum(self.big)[-1])
        acc += float((self.mat @ self.mat).trace())
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)
        return hi + lo + acc


def env_info() -> dict:
    """Library versions and the BLAS pool size this process actually runs with."""
    import ctypes

    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": np.__config__.CONFIG["Build Dependencies"]["blas"],
            "blas_threads": None, "blas_config": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas_threads"] = threads()
                    info["blas_config"] = config().decode()
                    return info
    return info


def run_pass(ctx, ops, mode, recorder=None, cal=None):
    """Run every op once in order; a raise fails that op and the pass goes on.

    Only the op calls are timed. With ``cal``, a calibration chunk runs
    before the first op, after every CAL_EVERY seconds of op time, and after
    the last op.
    """
    timed = []
    since = CAL_EVERY
    for op in ops:
        if cal is not None and since >= CAL_EVERY:
            cal.run()
            since = 0.0
        res = {"name": op.name, "kind": op.kind, "error": None, "problems": [],
               "values": None}
        raw = None
        if mode == "alloc":
            tracemalloc.start()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if mode == "traced":
                raw = recorder.run_op(op.name, lambda: op.run(ctx))
            else:
                raw = op.run(ctx)
        except workloads.CliViolation as exc:
            # the body was emitted and then failed its own certificate
            res["error"] = f"{type(exc).__name__}: {exc}"
            res["problems"] = [f"certificate violated: {exc}"]
        except Exception as exc:  # an op failure is a measurement, not a crash
            res["error"] = f"{type(exc).__name__}: {exc}"
        res["seconds"] = time.perf_counter() - t0
        res["cpu"] = time.process_time() - c0
        since += res["seconds"]
        if mode == "alloc":
            res["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        timed.append((op, raw, res))
    if cal is not None:
        cal.run()
    return timed


def finish_pass(ctx, timed, check):
    """Summarise every op's output and, if asked, check it."""
    results = []
    for op, raw, res in timed:
        if res["error"] is None:
            try:
                res["values"] = op.summary(raw)
                if check:
                    res["problems"] = op.check(ctx, op, raw, res["values"])
            except Exception:
                res["problems"] = ["check raised: " + traceback.format_exc(limit=3)]
        results.append(res)
    return results


def main(argv):
    workload, seed, mode, check, start, outdir = argv
    seed, check, start = int(seed), check == "1", float(start)
    if os.path.dirname(os.path.realpath(fracstep.__file__)) != \
            os.path.realpath(os.path.join(SRC, "fracstep")):
        raise SystemExit(f"imported fracstep from {fracstep.__file__}, not {SRC}")
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    # generated input files get the same relative path in every pass, so CLI
    # bodies that echo their flags are comparable across passes
    os.chdir(ROOT)
    workdir = os.path.relpath(os.path.join(outdir, "inputs"), ROOT)
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx, ops = workloads.build(workload, seed, workdir, reference)
        setup_raw_s = time.monotonic() - start
        # Set-up time in calibration chunks, timed right after it in the same
        # interpreter, then scaled to seconds at the nominal chunk time: the
        # host's drift cancels as it does for wall_rel.
        cal = Calibration()
        for _ in range(SETUP_CHUNKS):
            cal.run()
        setup_chunk_s = sorted(cal.wall)[SETUP_CHUNKS // 2]
        cal.wall.clear()
        cal.cpu.clear()
        out = {"setup_s": setup_raw_s / setup_chunk_s * NOMINAL_CHUNK_S,
               "setup_raw_s": setup_raw_s, "setup_chunk_s": setup_chunk_s,
               "env": env_info()}
        if mode != "setup":
            recorder = None
            if mode == "traced":
                recorder = spans.Recorder()
                recorder.install()
            if mode == "alloc":
                cal = None
            kids0 = _children_cpu()
            timed = run_pass(ctx, ops, mode, recorder, cal)
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["wall_s"] = sum(res["seconds"] for _, _, res in timed)
            out["cpu_s"] = sum(res["cpu"] for _, _, res in timed) + \
                _children_cpu() - kids0
            if cal is not None:
                out["cal_wall_s"] = sum(cal.wall) / len(cal.wall)
                out["wall_rel"] = out["wall_s"] / out["cal_wall_s"]
                out["cpu_rel"] = out["cpu_s"] * len(cal.cpu) / sum(cal.cpu)
            if recorder is not None:
                recorder.uninstall()
                out["layers"] = recorder.layer_metrics()
                out["op_self"] = recorder.op_breakdown()
                with open(os.path.join(outdir, f"trace-{workload}.json"), "w") as fh:
                    json.dump(recorder.to_json(), fh)
            out["ops"] = finish_pass(ctx, timed, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
