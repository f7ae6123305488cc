"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m pytest -q perfbench/test_harness.py

For one seed per workload: a traced pass returns exactly the op outputs of
an untraced pass, the self times inside each op add up to the op's traced
duration, and every layer the workload is meant to exercise records calls.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import workloads  # noqa: E402

SEED = 0
KNOWN_DEFECTS = ("cli-ml-lambda10", "cli-fd1d-kappa30")  # ROADMAP open item 3

# Layers each workload must reach (see perfbench/README.md).
EXERCISED = {
    "certify": ("mesh", "kernels", "complementary", "gronwall", "specialfn", "cli"),
    "march": ("mesh", "kernels", "complementary", "soe", "solver", "specialfn",
              "cli"),
    "grid": ("mesh", "kernels", "complementary", "soe", "gronwall", "solver",
             "specialfn"),
}


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _pass(workload, reference, workdir, recorder=None, check=True):
    ctx, ops = workloads.build(workload, SEED, workdir, reference)
    if recorder is not None:
        recorder.install()
    try:
        timed = worker.run_pass(ctx, ops, "traced" if recorder else "plain",
                                recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    return worker.finish_pass(ctx, timed, check)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced(workload, reference, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the same relative input paths in both passes
    plain = _pass(workload, reference, ".")
    recorder = spans.Recorder()
    traced = _pass(workload, reference, ".", recorder, check=False)

    assert [r["name"] for r in traced] == [r["name"] for r in plain]
    for p, t in zip(plain, traced):
        assert t["error"] == p["error"], p["name"]
        assert t["values"] == p["values"], p["name"]
        assert p["problems"] == [], (p["name"], p["problems"])

    for op in recorder.op_breakdown():
        assert sum(op["self"].values()) == pytest.approx(op["seconds"], abs=1e-9)

    calls = {}
    for name, st in recorder.stats.items():
        layer = name.split(".")[0]
        calls[layer] = calls.get(layer, 0) + st[0]
    for layer in EXERCISED[workload]:
        assert calls.get(layer, 0) > 0, layer


def test_known_defects_run_fail_and_count(reference, tmp_path, monkeypatch):
    """At this commit exactly the two ROADMAP item 3 ops fail on ``march``:
    they run, exit 4 (a refusal, so ``correct`` stays true), and their
    Mittag-Leffler failures show in ``specialfn.ml_failed``. Once item 3 is
    fixed, this test and the README's known-defect note change together."""
    monkeypatch.chdir(tmp_path)
    recorder = spans.Recorder()
    results = _pass("march", reference, ".", recorder)
    names = [r["name"] for r in results]
    assert set(KNOWN_DEFECTS) <= set(names)
    failed = {r["name"] for r in results if r["error"] or r["problems"]}
    assert failed == set(KNOWN_DEFECTS)
    for r in results:
        if r["name"] in KNOWN_DEFECTS:
            assert r["error"].startswith("CliFailure: exit 4"), r["error"]
    attempted, n_failed, incorrect, _ = run.compare_passes([{"ops": results}])
    assert (attempted, n_failed, incorrect) == (len(names), 2, [])
    assert recorder.layer_metrics()["specialfn.ml_failed"] >= len(KNOWN_DEFECTS)


def test_cli_violation_is_incorrect(reference, tmp_path, monkeypatch):
    """A CLI that emits its body and then exits 3 gave wrong output: the op
    fails and makes the run incorrect, unlike an exit 2 or 4 refusal."""
    import dataclasses

    import fracstep

    monkeypatch.chdir(tmp_path)
    argv = ["gronwall", "verify", "--scheme", "l1", "--mesh", "graded:16,1,1",
            "--alpha", "0.5", "--Lambda", "0.5", "--trials", "8"]
    op = workloads.cli_op("cli-gronwall", lambda ctx: argv,
                          workloads._cli_summary, seeded=True)
    ctx = workloads.Context("march", SEED, ".", reference)

    def one_pass():
        timed = worker.run_pass(ctx, [op], "plain")
        return run.compare_passes([{"ops": worker.finish_pass(ctx, timed, True)}])

    assert one_pass() == (1, 0, [], {})

    real = fracstep.gronwall.verify_gronwall_quadratic

    def one_violation(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), violations=1)

    monkeypatch.setattr(fracstep.gronwall, "verify_gronwall_quadratic",
                        one_violation)
    attempted, failed, incorrect, failures = one_pass()
    assert (attempted, failed, incorrect) == (1, 1, ["cli-gronwall"])
    assert failures["cli-gronwall"].startswith("CliViolation: exit 3")


def test_wrappers_are_removed():
    import fracstep

    original = fracstep.kernels.l1_kernel
    recorder = spans.Recorder()
    recorder.install()
    assert fracstep.kernels.l1_kernel is not original
    assert fracstep.l1_kernel is fracstep.kernels.l1_kernel
    recorder.uninstall()
    assert fracstep.kernels.l1_kernel is original
    assert fracstep.l1_kernel is original
