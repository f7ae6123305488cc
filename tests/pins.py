"""Every pinned output of fracstep, and the command that measures a re-pin.

A case runs a CLI argv, pinned by the sha256 of its UTF-8 stdout body, or a
callable returning an array, pinned by the sha256 of its ``<f8`` bytes; each
exits 0. It is filed under the test that checks it, with an id.

``python -m tests.pins drift REV`` extracts REV's ``src/`` with ``git archive``
into a temporary directory and runs every case in one process against it and
in one against the working tree. Per case it prints both exit codes and
"identical", or how many body lines moved and the largest absolute, relative
and ulp drift over their numbers, or "text differs" where a body changed other
than in a number. It exits 1 unless every case is identical and exits 0.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


# run is a CLI argv (a tuple) or a callable returning an array
Case = namedtuple("Case", "test id run sha256")
CASES: list[Case] = []


def _file(test: str, make, table: str) -> None:
    """File each ``sha256 id`` line of ``table`` under ``test`` as ``make(id)``."""
    for sha256, id in map(str.split, table.strip().splitlines()):
        CASES.append(Case(test, id, make(id), sha256))


def _cli(command: str, *extra: str, alpha: str = "0.4"):
    """The argv ``command --scheme S --mesh M --alpha alpha extra`` of id S-M."""
    def argv(id):
        scheme, mesh = id.split("-")
        return (*command.split(), "--scheme", scheme, "--mesh", mesh, "--alpha", alpha,
                *extra)
    return argv


def _soe_build(id):
    alpha, delta_t = id.split("-", 1)
    return ("soe", "build", "--alpha", alpha, "--eps", "1e-10", "--delta-t", delta_t,
            "--T", "1")


def _solve(id):
    problem, scheme, mesh = id.rsplit("-", 2)
    extra = ("--M", "16", "--kappa", "0.5") if problem == "fd1d" else ()
    return _cli(f"solve --problem {problem}", *extra)(f"{scheme}-{mesh}")


def _graded(N):
    """graded:N,2,1 and its SOE at alpha = 0.4 and eps = 1e-8."""
    from fracstep import mesh, soe
    m = mesh.graded_mesh(N, 2.0, 1.0)
    return m, soe._soe_for_mesh(0.4, 1e-8, m)


def _march(id):
    """March outputs at alpha = 0.4, dense on the alikhanov table or on the
    SOE. Single mode: lambda_L = 2, kappa = 0.5, psi = cos(t_{n-theta});
    fd1d: M = 16, kappa = 0.5."""
    problem, backend, N = id.rsplit("-", 2)

    def march():
        from fracstep import kernels, solver
        m, soe = _graded(int(N))
        kernel = kernels.alikhanov_kernel(m, 0.4) if backend == "dense" else soe
        if problem == "fd1d":
            return solver.solve_fd1d(solver.FDProblem1D(
                length=1.0, M=16, kappa=0.5,
                psi=lambda x, t: np.sin(np.pi * x) * np.cos(2.0 * t),
                u0=lambda x: np.sin(np.pi * x) + 0.3 * np.sin(3.0 * np.pi * x)),
                m, kernel).trajectory
        psi = np.cos(m.offset_nodes(getattr(kernel, "theta", 0.0)))
        return solver.solve_single_mode(solver.SingleModeProblem(
            alpha=0.4, lambda_L=2.0, kappa=0.5, psi=psi, u0=1.0), m, kernel).us
    return march


def _fast_l1_table(id):
    def table():
        from fracstep.kernels import fast_l1_kernel
        m, soe = _graded(int(id))
        return fast_l1_kernel(m, 0.4, soe).K
    return table


# pytest named the list seeds [s, 4, N] of the benchmark shapes by position
_LIST_SEED = {"seed0": 0, "seed1": 62, "seed3": 0, "seed6": 0, "seed7": 61}


def _nodes(id):
    N, seed = id.split("-")
    seed = [_LIST_SEED[seed], 4, int(N)] if seed in _LIST_SEED else int(seed)

    def nodes():
        from fracstep.mesh import random_mesh
        return random_mesh(int(N), 1.0, rho_bound=1.75, seed=seed).nodes
    return nodes


# eps = 1e-10 and T = 1: every node, weight, Nq and residual of the chosen rung
_file("test_soe_build_bytes_pinned", _soe_build, """
    6dcc0cd192cda404afa706dc12efeb98637698f2e29f9e6c1907e8bf47f45b54 0.3-1e-9
    22cabab7dc71ce787737d68da74ae06a6dddf45559bf5dd6520780e3d180d8e3 0.3-1e-4
    8a3c51a54c318d490537a198827e8141d522ddd4971adc8e39256dbeaa885bfe 0.7-1e-4""")
# recombination exists only on uniform meshes; N = 300 spans many row blocks
_file("test_kernels_dump_bytes_pinned", _cli("kernels dump"), """
    8a2b618035bf8852a9e1abd5ce4a98251699d4134e6596894f319d30a216142a l1-graded:64,2,1
    1eb79d1436ff9002b24f3aa5826f7b4e0b60ba4976ccdc8ac4cf6f2531e6f79d fastl1-graded:64,2,1
    3256a19f750aa8f186e7422a285eb0825a91617cac36dc41eac74e7af5f79272 alikhanov-graded:64,2,1
    eb55502e9c530597aaa7b43d3e14568a942d86f9288cccdfda3885589235c74c bdf2-graded:64,2,1
    221d41b1a5b87abee2590ceb85bf9bb27e07d1e8d87235754cb163413cebae16 bdf2recombined-graded:64,1,1
    abbc52069f318126d514c160f0131570372463b65e17111809ba8a46cd52191e l1-graded:300,3,1
    1fdd7b08863642bfdeb3b42b660bb13ef49be9263cb61f4ab758f4ca0266766b alikhanov-graded:300,3,1
    2f93c75ecab7553632192c84e097dd23fe2e65d041cec7af9a1be1cbc1670316 bdf2-graded:300,3,1""")
# bdf2 fails A1 here, so its body prints a2_pi_estimate as null
_file("test_audit_bytes_pinned", _cli("audit"), """
    788add39b8f30ca30209ab161acd7ca4a57ea1af26a06d77838dde36498d8288 l1-graded:300,3,1
    73df8598573247fe600fff2a5a00d3e078f0e3f617a6c18c8bfb02b4fa25bfa3 fastl1-graded:300,3,1
    0577ca9603129a8de670ce1041181e95facaa848acdbccf7f78cd47c591a822c alikhanov-graded:300,3,1
    f201c6693dccb636b704c10cd1ceeb7de7fdfa150affb32cf6d74715562a5840 bdf2-graded:300,3,1
    3728d8ff80b0865a0947d22731fe4384b793413524e1290cc85f429a8de72ff5 bdf2recombined-graded:300,1,1""")
# the default 100 trials at seed 0, which the certified bound's evaluator reproduces
_file("test_gronwall_verify_bytes_pinned", _cli("gronwall verify"), """
    84e84bd12ded669e7f5234b32948d38ed930c4fa3b80379df393ccf3d1a9483e l1-graded:64,2,1
    f14569d2a20e644675828cb3755428ba715c1e8cc4948daab01ed2a6cb528de8 alikhanov-graded:64,2,1
    3f658eded3768a28df7e7d342a26192f77df854bfee26a9f6a239f4eb36f235b fastl1-graded:64,2,1
    885fb1e6d47d6b92dc0462778e2ade1102cf0addcbd5834d5622c60dcf50eb19 bdf2recombined-graded:64,1,1""")
_file("test_solve_bytes_pinned", _solve, """
    e3d8b457c0dd09766ad30f9e3b2e7b3a00a721201f3ec13deaa019af5e1fb4f2 single-mode-l1-graded:64,2,1
    4539978cbfa9f433f091b4f970f5edff63c05e455e1efcc668c9fa0def48fd6a single-mode-alikhanov-graded:64,2,1
    5f21a1e09ef494201415046745e9084423dfd5fe6b5fad0da46d134aa3cc3bb6 single-mode-bdf2recombined-graded:64,1,1
    36c8fb25a53037e854867e16d5b8bd96eca30a526ca2491fcadc33a2889d6dff fd1d-l1-graded:64,2,1
    96e3a43cf41d3337f4440028bd60568e731507ecb3a5a424f794bbdf0da483e4 fd1d-alikhanov-graded:64,2,1
    a68886fcbeb48b5ed06b4177faf9f02ccb6568357c5adbf6d285bef330d37fe6 single-mode-fastl1-graded:64,2,1
    3ac1b8bff19f0a60adbd3c67b624d8fba07bfa23b469c6744f2dfc99de6a6b36 fd1d-fastl1-graded:64,2,1""")
_file("test_solve_fd1d_reports_a_broken_step_restriction",
      _cli("solve --problem fd1d", "--M", "16", "--kappa", "1", alpha="0.5"), """
    7d49abbc80d6f4ad1c3f7289ec0ce08a1746f7bc94588ea0a95787c97679d689 l1-graded:8,1,1""")
# the CLI ops of the benchmark whose digests perfbench/reference.json holds
_file("test_benchmark_cli_bytes_pinned", {
    "cli-single-mode": _cli("solve", "--lambda", "2")("alikhanov-graded:512,3,1"),
    "cli-fastl1": _cli("solve", alpha="0.5")("fastl1-graded:384,3,1"),
    "cli-converge": ("converge", "--scheme", "l1", "--singular", "--gamma", "1",
                     "--alpha", "0.3", "--Ns", "128,256,512")}.get, """
    19746b21d4c18388043b2ffde5d16307b966f35422cb22694c2e2cf1209f2b3a cli-single-mode
    87f030205e3a369e39f30ab6192e1b7456a6038e174ab5ef639a4b2f0e7f52d5 cli-fastl1
    efb44e65f604057b8496f524b9610a8a1d9f91450bc180f80233d40de9a44a50 cli-converge""")
# N = 1, 63, 65 and 129 sit at the edges of the 64-step blocks in which the
# SOE history forms its factors and the march converts its coefficients
_file("test_march_bits_pinned_at_block_edges", _march, """
    49773adb2b140ca89aeef7eb40cf9fb120e718db2637cb3420d088661362c584 fd1d-dense-1
    fbb365ea35a2008bfdf0944992b7e1ef200939d4a5be0b1317c5c2bc6e30fa8e fd1d-dense-63
    3a68b431020b5813e4650969cb3a50bcd91d122f5a90de474b29e59adeffe5a9 fd1d-dense-65
    3b1c61cbe1739b4fc99edb16a442c161dad9348e5b74a8af798e3fcba1f45217 fd1d-dense-129
    f6520f49cf81331630aa4f0ffe260a08ce33153cb4f737b220c5eac33a7603b7 fd1d-soe-1
    618b31a95acf87899caa1944953810817ab031c1af98280c206016ae49407e83 fd1d-soe-63
    4e4b526b236d0d78ea009772c39cf62933c33040a402a8727cccf13ade95f45c fd1d-soe-65
    1c9bb1a690fb9b062a226091d78f2e2e60d63ff8cd9d60e42213bfa10e1e499c fd1d-soe-129
    95f781e786e92501557ad28cd4c77d30e7e2ed1a55fedae535b469a38652ac93 single-mode-dense-1
    c252a7fb44bf266db65481e7c1d88a6911e78c3085be9c489833e689f15cd474 single-mode-dense-63
    00a3c78f0e903169cdcf05e2e94c09217b42181f4292d64f9c62c7e603753fd8 single-mode-dense-65
    8a947f671a8b031b5fc029690cab9d3e55b0800636d61c41bb2764939931a072 single-mode-dense-129
    7e54415d7bd709a0f9fe39fe6f9f0b96244fde9e23a1d8f7b6700ce50785475b single-mode-soe-1
    7a02b2a9bef17803faafe419d082fc7a4cbbd828d8d3f0a9307ada884e5a05bf single-mode-soe-63
    6a23a767641ba49f3a2eb1d79aa3d781629d5e76e71a0cb5e4ddd64d365c2b89 single-mode-soe-65
    d25c288e7d8b7da765ceb765392fe720bc43c1519416a9ac96c7cf3e67e8d260 single-mode-soe-129""")
_file("test_fast_l1_table_bits_pinned_at_block_edges", _fast_l1_table, """
    72baff2a5ea7e1705a671b89ef86d8e64fec39c86a6bc37455466b69800da80f 1
    70ea685a29ebc02f5090204756f50a2ee3d59a4292307dad639b064058c3a976 63
    41caca821be923d636f370b5fe2e7f5bb4ed94131e7eed4cf89f9f489f861899 65
    14f747af4d7f863bfcf2cb531c5c078b8fe17def2600d496deb9f7521d56be20 129""")
# the factor window is still [1.02/rho_bound, 1.5] at rho_bound <= 1.78
_file("test_random_mesh_nodes_pinned", _nodes, """
    dd5c2fade43cf80ebbf7f4232ee57a879d55a31a302e59fb6171f264ae38e999 513-513""")
# the shapes the benchmark draws: N = 512 for certify's CLI mesh, and the
# grid's N = 16 and 64 with its list seeds [seed, 4, N]
_file("test_random_mesh_benchmark_shapes_pinned", _nodes, """
    ce256da7a2b4283f571c6893f179f174a3dd3cfc30bf28b8df649af528b38f42 512-0
    45b9dd4fb0fb316bfc7cac18b497865a11e512e8193279d616a84210b359e1ce 512-7
    84e6db3fbffbbf35cbb0adb523ab57874ddea3356aee30629abe5bf107de4967 512-seed3
    f4dbeb2692f5b87bb7d24d6afd2eccfd6264391512b7441384993d448753fb94 64-seed6
    06f19c2c468aec7ccf2dd7436bd7c1db15ff23a60d628c08aaa307f920c3bd8a 64-seed7
    d63797a26c18c19e7b8dfdaf770c3d8944c65ae96f7a8dacad0c0fe78fdd6d35 64-3
    6326ec080f3f3479de95d6003b7b9ad251bcb0450c9fe1e3b40932793a60abd4 16-seed0
    98b6ff9ee14539280073a315c4d55014744b3ba0f57e6905690f2698877cda01 16-seed1
    f8f28ee1cc152d52744aa9179644f1402d02866a32b8c2de78bbf1d1a8477916 16-5""")


def cases(test: str) -> list[Case]:
    return [case for case in CASES if case.test == test]


def outcome(case: Case):
    """(exit code, body, sha256): the CLI's exit code and stdout, or 0 and
    the array one repr per line, hashed as its ``<f8`` bytes."""
    if callable(case.run):
        values = np.ascontiguousarray(case.run(), dtype="<f8")
        body = "".join(f"{v!r}\n" for v in values.ravel().tolist())
        return 0, body, hashlib.sha256(values.tobytes()).hexdigest()
    from fracstep import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(case.run))
    return code, out.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()


def check(case: Case) -> None:
    code, _, sha256 = outcome(case)
    assert (code, sha256) == (0, case.sha256)


def pin_test(test: str):
    """The one pin test, parametrized by id over the cases filed under ``test``."""
    import pytest
    pinned = cases(test)

    @pytest.mark.parametrize("case", pinned, ids=[case.id for case in pinned])
    def test_pinned(case):
        check(case)
    return test_pinned


_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b)")


def _ordinal(x: float) -> int:
    """x's place among the doubles in increasing order (0.0 and -0.0 alike)."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & (2 ** 63 - 1))


def drift(old: str, new: str) -> str:
    """How far body ``new`` moved from body ``old``."""
    if old == new:
        return "identical"
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return f"text differs: {len(a)} lines, then {len(b)}"
    moved, dx, rel, ulp = 0, 0.0, 0.0, 0
    for n, (line_a, line_b) in enumerate(zip(a, b), 1):
        if line_a == line_b:
            continue
        moved += 1
        xs, ys = _NUMBER.findall(line_a), _NUMBER.findall(line_b)
        if _NUMBER.split(line_a) != _NUMBER.split(line_b) or len(xs) != len(ys):
            return f"text differs on line {n}"
        for x, y in zip(map(float, xs), map(float, ys)):
            if x == y:
                continue
            if not math.isfinite(x - y):
                return f"text differs on line {n}: {x!r}, then {y!r}"
            dx, rel = max(dx, abs(x - y)), max(rel, abs(x - y) / max(abs(x), abs(y)))
            ulp = max(ulp, abs(_ordinal(x) - _ordinal(y)))
    return f"{moved} of {len(a)} lines: abs {dx:.1e}, rel {rel:.1e}, {ulp} ulp"


def row(case: Case, old, new) -> str:
    """The table row of a case from its (exit code, body) in each tree."""
    verdict = drift(old[1], new[1])
    if old[0] != new[0]:
        verdict = f"exit {old[0]}, then {new[0]}; body {verdict}"
    return f"| {case.test}[{case.id}] | {old[0]} / {new[0]} | {verdict} |"


def _outcomes(src: Path) -> list:
    """(exit code, body) of every case against the library in ``src``, in one
    fresh process that writes no bytecode."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, "run", str(src)], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"the cases did not run against {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _run(src: str) -> None:
    import fracstep
    if Path(src).resolve() not in Path(fracstep.__file__).resolve().parents:
        sys.exit(f"fracstep was imported from {fracstep.__file__}, not from {src}")
    results = []
    for case in CASES:
        try:
            results.append(outcome(case)[:2])
        except Exception as exc:  # a case this tree cannot run is a row, not a crash
            results.append((1, f"{type(exc).__name__}: {exc}\n"))
    json.dump(results, sys.stdout)


def main(argv: list[str]):
    if len(argv) == 2 and argv[0] == "run":
        return _run(argv[1])
    if len(argv) != 2 or argv[0] != "drift":
        return "usage: python -m tests.pins drift REV"
    archive = subprocess.run(["git", "archive", argv[1], "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        return archive.stderr.decode()
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        old = _outcomes(Path(tmp, "src"))
    new = _outcomes(ROOT / "src")
    print(f"| case | exit ({argv[1]} / working tree) | drift |\n|---|---|---|")
    print("\n".join(row(case, a, b) for case, a, b in zip(CASES, old, new)))
    return 0 if all(a == b and a[0] == 0 for a, b in zip(old, new)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
