import numpy as np
import pytest

from fracstep.mesh import (
    InvalidMeshError,
    check_A3,
    graded_mesh,
    load_txt,
    mesh_from_nodes,
    parse_mesh_spec,
    random_mesh,
    uniform_mesh,
)

import pins


def test_graded_uniform_case():
    m = graded_mesh(4, 1.0, 1.0)
    assert np.allclose(m.nodes, [0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)


def test_graded_quadratic_case():
    m = graded_mesh(4, 2.0, 1.0)
    assert np.allclose(m.nodes, [0, 0.0625, 0.25, 0.5625, 1.0], rtol=1e-15)


def test_graded_single_step():
    m = graded_mesh(1, 3.0, 2.0)
    assert list(m.nodes) == [0.0, 2.0]
    assert m.max_ratio() == 0.0


@pytest.mark.parametrize("bad", [dict(N=0, gamma=2.0, T=1.0),
                                 dict(N=4, gamma=0.5, T=1.0),
                                 dict(N=4, gamma=2.0, T=0.0)])
def test_graded_rejects_bad_input(bad):
    with pytest.raises(InvalidMeshError):
        graded_mesh(**bad)


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make,name", [
    (lambda: graded_mesh(8, NAN, 1.0), "gamma"),
    (lambda: graded_mesh(8, INF, 1.0), "gamma"),
    (lambda: graded_mesh(8, 1.0, NAN), "T"),
    (lambda: graded_mesh(8, 1.0, INF), "T"),
    (lambda: graded_mesh(8, 2.0, -1.0), "T"),
    (lambda: random_mesh(8, -1.0), "T"),
    (lambda: random_mesh(8, 0.0), "T"),
    (lambda: random_mesh(8, INF), "T"),
    (lambda: random_mesh(8, NAN), "T"),
    (lambda: random_mesh(8, 1.0, rho_bound=NAN), "rho_bound"),
    (lambda: random_mesh(8, 1.0, rho_bound=INF), "rho_bound"),
    (lambda: random_mesh(8, 1.0, rho_bound=0.5), "rho_bound"),
], ids=["graded-gamma-nan", "graded-gamma-inf", "graded-T-nan", "graded-T-inf",
        "graded-T-negative", "random-T-negative", "random-T-zero", "random-T-inf",
        "random-T-nan", "random-rho-nan", "random-rho-inf", "random-rho-small"])
def test_constructors_name_a_non_finite_or_non_positive_parameter(make, name):
    # NaN used to reach the nodes and be reported as a bad first node, an
    # infinite T to warn first, a negative random_mesh T to pass as "steps
    # too wide" and a NaN rho_bound to fail inside numpy's sampler
    with pytest.raises(InvalidMeshError, match=rf"\b{name} must be "):
        make()


def test_bad_first_node_is_named_as_a_plain_float():
    with pytest.raises(InvalidMeshError, match=r"^first node must be 0, got 0\.5$"):
        mesh_from_nodes(np.array([0.5, 1.0]))


def test_from_nodes_uniform():
    m = mesh_from_nodes([0, 1, 2])
    assert np.all(m.rho == 1.0)
    assert m.T == 2.0


def test_from_nodes_derives_steps_and_ratios():
    m = mesh_from_nodes([0, 1, 3])
    assert list(m.tau) == [1.0, 2.0]
    assert list(m.rho) == [0.5]


@pytest.mark.parametrize("nodes", [[0, 2, 1], [0.5, 1, 2], [-1, 0, 1], [0]])
def test_from_nodes_rejects(nodes):
    with pytest.raises(InvalidMeshError):
        mesh_from_nodes(nodes)


def test_check_a3_uniform():
    rep = check_A3(uniform_mesh(8, 1.0), 1.75)
    assert rep.satisfies_A3
    assert rep.max_ratio == 1.0


def test_check_a3_violated():
    rep = check_A3(mesh_from_nodes([0, 1, 1.25]), 1.75)
    assert rep.max_ratio == pytest.approx(4.0)
    assert not rep.satisfies_A3


def test_check_a3_graded():
    rep = check_A3(graded_mesh(10, 2.0, 1.0), 1.75)
    assert rep.max_ratio < 1.0
    assert rep.satisfies_A3


@pytest.mark.parametrize("rho_bound", [0.0, -1.0, float("inf"), float("nan")])
def test_check_a3_refuses_bound_outside_open_half_line(rho_bound):
    with pytest.raises(ValueError, match="rho_bound"):
        check_A3(uniform_mesh(8, 1.0), rho_bound)


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0, 5.0])
def test_graded_steps_nondecreasing(gamma):
    m = graded_mesh(40, gamma, 1.0)
    assert np.all(np.diff(m.tau) >= -1e-14 * m.max_step())
    assert np.all(m.rho <= 1.0 + 1e-12)


def test_roundtrip_is_bitwise():
    src = graded_mesh(33, 2.7, 1.0)
    back = mesh_from_nodes(src.nodes)
    assert np.array_equal(src.tau, back.tau)
    assert np.array_equal(src.rho, back.rho)


def test_txt_roundtrip(tmp_path):
    src = graded_mesh(9, 3.0, 2.0)
    path = tmp_path / "nodes.txt"
    src.save_txt(path)
    assert np.array_equal(load_txt(path).nodes, src.nodes)


def test_parse_mesh_spec(tmp_path):
    m = parse_mesh_spec("graded:8,2,1")
    assert m.N == 8 and m.T == 1.0
    path = tmp_path / "m.txt"
    m.save_txt(path)
    assert parse_mesh_spec(f"file:{path}").N == 8
    with pytest.raises(InvalidMeshError):
        parse_mesh_spec("weird:1,2")


def test_random_mesh_respects_ratio_bound():
    for seed in range(5):
        m = random_mesh(50, 1.0, rho_bound=1.75, seed=seed)
        assert m.max_ratio() < 1.75
        assert m.nodes[-1] == 1.0
        assert m.nodes[0] == 0.0


@pytest.mark.parametrize("N,rho_bound", [(2, 1.75), (50, 1.2), (513, 1.75)])
def test_random_mesh_ratio_bound_is_rho_bound_over_1_02(N, rho_bound):
    for seed in range(5):
        m = random_mesh(N, 1.0, rho_bound=rho_bound, seed=seed)
        assert m.max_ratio() <= rho_bound / 1.02


def test_random_mesh_steps_spread_with_N():
    # only neighbouring steps are tied: log tau does a random walk
    m = random_mesh(513, 1.0, seed=513)
    assert m.tau.min() < 3e-9 and m.tau.max() > 1.8e-2


def test_random_mesh_builds_at_a_large_ratio_bound():
    # factors from [1.02/3, 1.5] used to shrink the steps below rounding
    for seed in range(20):
        m = random_mesh(513, 1.0, rho_bound=3.0, seed=seed)
        assert m.max_ratio() <= 3.0 / 1.02


def test_random_mesh_nodes_pinned():
    pins.check(*pins.cases("test_random_mesh_nodes_pinned"))


test_random_mesh_benchmark_shapes_pinned = pins.pin_test(
    "test_random_mesh_benchmark_shapes_pinned")


@pytest.mark.parametrize("seed", [0, 3, 5, 11, 13])
def test_random_mesh_names_a_stalled_cumulative_sum(seed):
    # a driftless log walk spreads the steps like sqrt(N); at N = 2048 some
    # seeds pass 1e16 between a step and the node before it
    with pytest.raises(InvalidMeshError,
                       match=r"random_mesh\(N=2048\): steps spread by max tau "
                             r"/ min tau = \S+, .* stalls at node \d+"):
        random_mesh(2048, 1.0, rho_bound=3.0, seed=seed)


@pytest.mark.parametrize("make", [lambda N: graded_mesh(N, 2.0, 1.0),
                                  lambda N: random_mesh(N, 1.0, seed=0)],
                         ids=["graded", "random"])
@pytest.mark.parametrize("N", [0, -3, 2.5, 4.0, True, "4"])
def test_step_count_must_be_a_positive_integer(make, N):
    # a float N used to give a mesh ending short of T, N <= 0 a one-step mesh
    with pytest.raises(InvalidMeshError, match="positive integer"):
        make(N)
    m = make(np.int64(3))
    assert m.N == 3 and m.T == 1.0


def test_offset_nodes():
    m = mesh_from_nodes([0, 1, 3])
    off = m.offset_nodes(0.25)
    assert np.allclose(off, [0.75, 2.5])
