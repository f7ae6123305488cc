import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracstep import soe
from fracstep.kernels import apply_discrete_derivative, fast_l1_kernel, l1_kernel
from fracstep.mesh import graded_mesh, uniform_mesh
from fracstep.soe import (
    EXP_UNDERFLOW,
    NODE_BUDGET,
    STEP_BLOCK,
    SWEEP_BLOCK,
    OutOfWindowError,
    SOEApprox,
    ToleranceUnreachableError,
    _certification_grid,
    _gauss_rule,
    _residual,
    _SOEHistory,
    _soe_for_mesh,
    _tail_cutoff,
    build_soe,
    soe_eval,
)
from fracstep.specialfn import omega

STD = dict(alpha=0.5, eps=1e-8, delta_t=1e-3, T=1.0)


def test_build_certifies_on_independent_grid(store):
    approx = store.soe(**STD)
    grid = np.geomspace(1e-3, 1.0, 733)  # not the construction grid
    vals = approx.weights @ np.exp(-np.outer(approx.nodes, grid))
    resid = np.max(np.abs(omega(0.5, grid) - vals))
    assert resid <= 1e-8
    assert approx.Nq <= 200
    assert approx.cert_residual <= 1e-8


def test_nodes_and_weights_positive(store):
    approx = store.soe(**STD)
    assert np.all(approx.nodes > 0.0)
    assert np.all(approx.weights > 0.0)


def test_kernel_condition_flag(store):
    approx = store.soe(**STD)
    cap = min(omega(0.5, 1.0) / 3.0, 0.5 * omega(1.5, 1.0))
    assert approx.meets_kernel_condition == (approx.eps <= cap)
    assert approx.meets_kernel_condition


def test_slack_tolerance_is_trivially_certified():
    eps = 2.0 * omega(0.5, 1e-3)  # looser than the function's sup on the window
    approx = build_soe(0.5, eps, 1e-3, 1.0)
    assert approx.cert_residual <= eps
    assert approx.Nq <= 16


def test_unreachable_tolerance_raises():
    with pytest.raises(ToleranceUnreachableError):
        build_soe(0.5, 1e-30, 1e-6, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta_t,T", [(1e-310, 1.0), (5e-324, 1.0), (1e-3, 1e308),
                                       (1e-300, 1e300)])
def test_window_too_wide_for_a_double_is_refused_by_the_budget(delta_t, T):
    # a subnormal delta_t, or a ratio T/delta_t past the largest double,
    # needs at least 1024 dyadic panels, twice the node budget
    with pytest.raises(ToleranceUnreachableError,
                       match=r"within 512 nodes; the window needs at least 1024 "
                             r"dyadic panels$"):
        build_soe(0.5, 1e-8, delta_t, T)


def test_widest_finite_window_keeps_the_rounding_floor_refusal():
    # 1023 panels: counted, so the refusal names the floor and the first rung
    with pytest.raises(ToleranceUnreachableError,
                       match=r"within 512 nodes; eps is below the rounding floor "
                             r"\S+ = 5\.6e\+288 \(Nq = 1025\)$"):
        build_soe(0.999, 1e-8, 1e-305, 1.0)


@pytest.mark.parametrize("eps,delta_t,T", [
    (math.nan, 0.1, 1.0), (math.inf, 0.1, 1.0), (0.0, 0.1, 1.0),
    (1e-8, math.nan, 1.0), (1e-8, 0.1, math.nan), (1e-8, 0.1, math.inf),
    (1e-8, 1.0, 1.0)])
def test_build_refuses_invalid_window_or_tolerance(eps, delta_t, T):
    # NaN and infinity used to fail late, as a numerical error
    with pytest.raises(ValueError):
        build_soe(0.5, eps, delta_t, T)


def test_eval_endpoints_and_window(store):
    approx = store.soe(**STD)
    assert abs(soe_eval(approx, 1e-3) - omega(0.5, 1e-3)) <= approx.eps
    assert abs(soe_eval(approx, 1.0) - omega(0.5, 1.0)) <= approx.eps
    with pytest.raises(OutOfWindowError):
        soe_eval(approx, 1e-4)
    with pytest.raises(OutOfWindowError):
        soe_eval(approx, 1.5)


def test_eval_refuses_nan(store):
    # NaN fails both window comparisons, so it once skipped the check silently
    with pytest.raises(OutOfWindowError):
        soe_eval(store.soe(**STD), math.nan)



def test_eval_monotone_decreasing(store):
    approx = store.soe(**STD)
    ts = np.geomspace(1e-3, 1.0, 50)
    vals = [soe_eval(approx, t) for t in ts]
    assert np.all(np.diff(vals) < 0.0)


def _one_node(node):
    # a one-term approximation that passes fast L1's certification checks
    return SOEApprox(nodes=np.array([node]), weights=np.array([1.0]),
                     eps=0.1, delta_t=0.1, T=1.0, alpha=0.5,
                     cert_residual=0.0, meets_kernel_condition=False)


def _run_steps(history, increments):
    """Yield the term of each step of ``history.steps()``, sending step n's
    increment back when resumed after it; the last send must end the steps."""
    steps = history.steps()
    term = next(steps)
    for increment in increments[:-1]:
        yield term
        term = steps.send(increment)
    yield term
    with pytest.raises(StopIteration):
        steps.send(increments[-1])


def test_history_zero_stays_zero(store):
    approx = store.soe(**STD)
    history = _SOEHistory(approx, uniform_mesh(10, 1.0), 0.5)
    steps = history.steps()
    assert next(steps) == 0.0
    assert steps.send(0.0) == 0.0
    steps.send(0.0)
    assert np.array_equal(history.H, np.zeros(approx.Nq))


def test_history_single_node_closed_form():
    history = _SOEHistory(_one_node(1.0), uniform_mesh(1, 1.0), 0.5)
    list(_run_steps(history, [1.0]))
    assert history.H[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_history_decays_without_increments():
    history = _SOEHistory(_one_node(2.0), uniform_mesh(3, 0.75), 0.5)
    history.H[:] = 1.0
    before = 1.0
    for term in _run_steps(history, [0.0] * 3):
        # decayed over this step; the pushes of 0 before it added nothing
        assert history.H[0] == pytest.approx(before * math.exp(-0.5), rel=1e-15)
        assert term == pytest.approx(before * math.exp(-0.5), rel=1e-15)
        before = history.H[0]
    assert history.H[0] == before


def test_history_length_mismatch(store):
    # the states are sized by the approximation, so only an increment that
    # does not match the unknowns can disagree with them
    history = _SOEHistory(store.soe(**STD), uniform_mesh(10, 1.0), 0.5, (3,))
    steps = history.steps()
    next(steps)
    with pytest.raises(ValueError):
        steps.send(np.ones(4))


def test_history_matrix_state_updates_each_column(store):
    approx = store.soe(**STD)
    mesh = graded_mesh(12, 2.0, 1.0)
    rng = np.random.default_rng(5)
    incr = rng.standard_normal((mesh.N, 3))
    block = _SOEHistory(approx, mesh, 0.5, (3,))
    columns = [_SOEHistory(approx, mesh, 0.5) for _ in range(3)]
    runs = [_run_steps(block, incr)] + [_run_steps(history, incr[:, j])
                                        for j, history in enumerate(columns)]
    for _ in range(mesh.N):
        terms, *column_terms = map(next, runs)
        assert terms.shape == (3,)
        for j, (history, term) in enumerate(zip(columns, column_terms)):
            assert type(term) is float
            assert terms[j] == pytest.approx(term, rel=1e-14)
            assert np.array_equal(block.H[:, j], history.H)
    for run in runs:  # the last push
        assert next(run, None) is None
    for j, history in enumerate(columns):
        assert np.array_equal(block.H[:, j], history.H)


@pytest.mark.parametrize("family,alpha", [("uniform", 0.5), ("graded2", 0.3),
                                          ("graded2", 0.7)])
def test_fast_apply_matches_direct_convolution(store, family, alpha):
    N = 96
    mesh = graded_mesh(N, 2.0, 1.0) if family == "graded2" \
        else uniform_mesh(N, 1.0)
    eps = 1e-9
    approx = store.soe(alpha, eps, float(mesh.tau.min()), mesh.T)
    rng = np.random.default_rng(42)
    v = np.cumsum(rng.standard_normal(N + 1) * 0.1)
    fast = apply_discrete_derivative(fast_l1_kernel(mesh, alpha, approx), v)
    direct = apply_discrete_derivative(l1_kernel(mesh, alpha), v)
    tv = float(np.sum(np.abs(np.diff(v))))
    assert np.max(np.abs(fast - direct)) <= 2.0 * eps * tv


def test_json_roundtrip(store):
    # the body `soe build` prints gives back every node and weight exactly
    approx = store.soe(**STD)
    back = json.loads(approx.to_json())
    assert np.array_equal(back["nodes"], approx.nodes)
    assert np.array_equal(back["weights"], approx.weights)
    assert back["eps"] == approx.eps
    assert back["meets_kernel_condition"] is approx.meets_kernel_condition


def _plain_ladder(alpha, eps, delta_t, T):
    """The node ladder with every rung checked on the whole certification grid
    and every Gauss rule recomputed, uncached: the reference for ``build_soe``."""
    rule = _gauss_rule.__wrapped__
    pref = math.sin(math.pi * alpha) / math.pi
    theta0 = 1.0 / T
    theta_max = max(_tail_cutoff(alpha, eps, delta_t), 4.0 * theta0)
    n_dyadic = math.ceil(math.log2(theta_max / theta0))
    grid = _certification_grid(delta_t, T)
    cap = min(eps / 3.0, omega(1.0 - alpha, T))

    def residual(nodes, weights):
        approx = weights @ np.exp(-np.outer(nodes, grid))
        return float(np.max(np.abs(omega(1.0 - alpha, grid) - approx)))

    for m in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24):
        if m * (n_dyadic + 1) + m > NODE_BUDGET:
            break
        xj, wj = rule(max(2, m), alpha)
        nodes = [theta0 * 0.5 * (1.0 + xj)]
        weights = [pref * (theta0 * 0.5) ** alpha * wj]
        xl, wl = rule(m)
        lo = theta0
        for _ in range(n_dyadic):
            hi = 2.0 * lo
            th = 0.5 * (hi - lo) * xl + 0.5 * (hi + lo)
            nodes.append(th)
            weights.append(pref * 0.5 * (hi - lo) * wl * th ** (alpha - 1.0))
            lo = hi
        nodes = np.concatenate(nodes)
        weights = np.concatenate(weights)
        res = residual(nodes, weights)
        if res <= eps:
            keep = weights * np.exp(-nodes * delta_t) > cap * 1e-4 / len(nodes)
            if not np.any(keep):
                keep[np.argmax(weights * np.exp(-nodes * delta_t))] = True
            if not np.all(keep):
                pruned_res = residual(nodes[keep], weights[keep])
                if pruned_res <= eps:
                    nodes, weights, res = nodes[keep], weights[keep], pruned_res
            order = np.argsort(nodes)
            return nodes[order], weights[order], res
    # every rung was refused; the rounding floor is taken at the last one
    floor = len(nodes) * 2.0 ** -53 * omega(1.0 - alpha, grid)[0]
    raise ToleranceUnreachableError(
        f"could not certify eps={eps} on [{delta_t}, {T}] within {NODE_BUDGET} "
        f"nodes; eps is {'below' if eps < floor else 'above'} the rounding floor "
        f"Nq*2^-53*omega_(1-alpha)(delta_t) = {floor:.1e} (Nq = {len(nodes)})")


def _outcome(build, *args):
    try:
        nodes, weights, res = build(*args)
    except ToleranceUnreachableError as exc:
        return str(exc)
    return nodes.tobytes(), weights.tobytes(), res, len(nodes)


def _built(*args):
    approx = build_soe(*args)
    return approx.nodes, approx.weights, approx.cert_residual


def test_ladder_matches_plain_ladder():
    # the delta_t probe may only reject rungs the whole grid rejects too, and
    # the cached rules and broadcast panels give the same bits
    refused = 0
    for args in itertools.product((0.05, 0.3, 0.7, 0.99), (1e-6, 1e-10, 1e-12),
                                  (1e-12, 1e-6, 1e-2), (1.0, 10.0)):
        expected = _outcome(_plain_ladder, *args)
        assert _outcome(_built, *args) == expected, args
        refused += isinstance(expected, str)
    assert 0 < refused < 72


def test_blocked_sweep_matches_plain_ladder():
    # grids of 1,360 to 2,280 points: several sweep blocks, the last partial
    refused = 0
    for args in itertools.product((0.3, 0.5), (1e-8, 1e-12), (1e-10, 1e-16),
                                  (1.0, 10.0)):
        assert len(_certification_grid(*args[2:])) % SWEEP_BLOCK, args
        expected = _outcome(_plain_ladder, *args)
        assert _outcome(_built, *args) == expected, args
        refused += isinstance(expected, str)
    assert 0 < refused < 16


@settings(derandomize=True, max_examples=200, deadline=None)
@given(alpha=st.floats(0.005, 0.999), log_eps=st.floats(-15.0, 3.0),
       log_delta_t=st.floats(-16.0, -1.0), log_T=st.floats(-3.0, 4.0))
def test_ladder_matches_plain_ladder_on_random_windows(alpha, log_eps, log_delta_t,
                                                        log_T):
    # the same nodes, weights, residual and Nq, or the same refusal text, as
    # the reference off the fixed product grid of the two tests above
    delta_t, T = sorted((10.0 ** log_delta_t, 10.0 ** log_T))
    assume(delta_t < T)
    args = (alpha, 10.0 ** log_eps, delta_t, T)
    assert _outcome(_built, *args) == _outcome(_plain_ladder, *args)


@pytest.mark.parametrize("eps, delta_t, T", [(1e-8, 1e-10, 1.0), (1e-4, 1e-16, 10.0)])
def test_sweep_is_the_dense_product_in_any_node_order(eps, delta_t, T):
    # the swept residual of a sum, whole or of any leading rows, is that of
    # the dense product, whatever the order of the nodes; bit for bit with a
    # given OpenBLAS, like the pinned bodies
    approx = build_soe(0.5, eps, delta_t, T)
    order = np.random.default_rng(0).permutation(approx.Nq)
    nodes, weights = approx.nodes[order], approx.weights[order]
    grid = _certification_grid(delta_t, T)
    assert len(grid) > SWEEP_BLOCK and len(grid) % SWEEP_BLOCK
    target = omega(0.5, grid)
    k = approx.Nq // 2
    dense = []
    for n, w in ((nodes, weights), (nodes[:k], weights[:k])):
        sums = w @ np.exp(-np.outer(n, grid))
        # against the dense sums as target, the residual is 0 only if every
        # swept sum has its dense column's bits
        assert _residual(n, w, sums, grid, 0.0) == 0.0
        dense.append(float(np.max(np.abs(target - sums))))
        assert _residual(n, w, target, grid, math.inf) == dense[-1]
    assert _residual(nodes, weights, target, grid, eps) == dense[0]
    # a sum that errs by more than eps anywhere is refused with no residual
    assert _residual(nodes, weights, target, grid, 0.5 * dense[0]) == math.inf


def _unskipped_residual(nodes, weights, target, grid, eps):
    """The sweep with every node in every block, kept as the reference of
    ``_residual``, which leaves out the trailing nodes whose terms underflow."""
    n = len(nodes)
    scratch = np.empty(n * min(SWEEP_BLOCK, len(grid)))
    negated = -nodes[:, None]
    res = 0.0
    for j in range(0, len(grid), SWEEP_BLOCK):
        t, f = grid[j:j + SWEEP_BLOCK], target[j:j + SWEEP_BLOCK]
        e = scratch[:n * len(t)].reshape(n, len(t))
        np.exp(np.multiply(negated, t, out=e), out=e)
        err = float(np.max(np.abs(f - weights @ e)))
        if not err <= eps:
            return math.inf
        res = max(res, err)
    return res


def test_underflow_skip_keeps_every_build(monkeypatch):
    # every term left out is exactly 0, so each build, refusals included, is
    # the unskipped sweep's to the bit; most certified builds leave some out
    assert np.exp(np.full(17, -EXP_UNDERFLOW)).max() == 0.0 == math.exp(-EXP_UNDERFLOW)
    sweep = list(itertools.product((0.1, 0.3, 0.5, 0.7, 0.9), (1e-6, 1e-8, 1e-10, 1e-12),
                                   (1e-2, 1e-5, 1e-8, 1e-12, 1e-16), (1.0, 10.0)))
    skipped = [_outcome(_built, *args) for args in sweep]
    monkeypatch.setattr(soe, "_residual", _unskipped_residual)
    for args, outcome in zip(sweep, skipped):
        assert outcome == _outcome(_built, *args), args
    certified = [(args, np.frombuffer(outcome[0])) for args, outcome in
                 zip(sweep, skipped) if not isinstance(outcome, str)]
    left_out = sum(nodes[-1] * grid[SWEEP_BLOCK::SWEEP_BLOCK].max(initial=0.0)
                   >= EXP_UNDERFLOW for nodes, grid in
                   ((nodes, _certification_grid(*args[2:])) for args, nodes in certified))
    assert 0 < len(certified) < len(sweep) and left_out > len(certified) // 2


@pytest.mark.parametrize("N", [4096, 10**5])
def test_build_holds_no_grid_sized_matrix(N):
    # one (Nq, grid) exponential matrix alone takes at least 2.3 and 4.3 MB here
    delta_t = graded_mesh(N, 2.0, 1.0).tau.min()
    tracemalloc.start()
    try:
        build_soe(0.5, 1e-10, delta_t, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


def _per_step_march(approx, mesh, increments):
    """Terms, decays, phis and final states of the recurrence, one step at a
    time."""
    nodes = approx.nodes.reshape((-1,) + (1,) * (increments.ndim - 1))
    H = np.zeros((approx.Nq,) + increments.shape[1:])
    terms, decays, phis = [], [], []
    for n in range(1, mesh.N + 1):
        x = nodes * mesh.tau[n - 1]
        phi = -np.expm1(-x) / x
        decays.append(np.exp(-x))
        H *= decays[-1]
        terms.append(approx.weights @ H)
        phis.append(phi)
        H += phi * increments[n - 1]
    return terms, decays, phis, H


@pytest.mark.parametrize("N", [1, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1,
                               2 * STEP_BLOCK + 3])
@pytest.mark.parametrize("state", ["scalar", "M", "N"])
def test_blocked_history_matches_per_step_recurrence(store, N, state):
    mesh = graded_mesh(N, 2.0, 1.0)
    approx = store.soe(0.4, 1e-8, min(float(mesh.tau.min()), 0.5 * mesh.T), mesh.T)
    shape = {"scalar": (), "M": (3,), "N": (N,)}[state]
    increments = np.random.default_rng(N).standard_normal((N,) + shape)
    terms, decays, phis, H = _per_step_march(approx, mesh, increments)
    # the blocks' factors, the ones fast_l1_kernel reads, step by step
    history = _SOEHistory(approx, mesh, 0.4, shape)
    starts = []
    for start, block_decays, block_phis in history.blocks():
        starts.append(start)
        stop = start + len(block_decays)
        assert np.array_equal(block_decays, decays[start:stop])
        assert np.array_equal(block_phis, phis[start:stop])
    assert starts == list(range(0, N, STEP_BLOCK)) and stop == N
    # the march's steps, which push in place
    history = _SOEHistory(approx, mesh, 0.4, shape)
    for n, term in enumerate(_run_steps(history, increments), 1):
        assert np.array_equal(term, terms[n - 1])
    assert n == N
    assert np.array_equal(history.H, H)


@pytest.mark.parametrize("alpha", [None, 0.1, 0.5, 0.9])
def test_gauss_rule_matches_scipy(alpha):
    scipy_special = pytest.importorskip("scipy.special")
    for m in range(1, 25):
        x, w = _gauss_rule(m, alpha)
        if alpha is None:
            xr, wr = scipy_special.roots_legendre(m)
        else:
            xr, wr = scipy_special.roots_jacobi(m, 0.0, alpha - 1.0)
        assert np.max(np.abs(x - xr)) <= 2e-15, m
        # scipy's own weights err by up to 2e-12 relative against 40-digit
        # rules on these m (its Newton-polished weights at alpha = 0.1)
        assert np.max(np.abs(w / wr - 1.0)) <= 4e-12, m


@pytest.mark.parametrize("alpha", [None, 0.1, 0.5, 0.9])
def test_gauss_rule_is_exact_to_degree_2m_minus_1(alpha):
    # sum w x^j = int_{-1}^{1} (1+x)^b x^j dx for j <= 2m-1, against the
    # 50-digit binomial sum int_0^2 y^b (y-1)^j dy; relative to sum w |x|^j,
    # the size of the terms the rule adds (0 only for the one-point Legendre
    # rule's odd moments, which it gets exactly)
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        b = mpmath.mpf(0.0 if alpha is None else alpha - 1.0)
        exact = [mpmath.fsum(mpmath.binomial(j, i) * (-1) ** (j - i)
                             * 2 ** (b + i + 1) / (b + i + 1) for i in range(j + 1))
                 for j in range(48)]
        for m in range(1, 25):
            x, w = _gauss_rule(m, alpha)
            xs = [mpmath.mpf(v) for v in x.tolist()]
            terms = [mpmath.mpf(v) for v in w.tolist()]  # w x^j, from j = 0
            for j in range(2 * m):
                scale = mpmath.fsum(abs(t) for t in terms)
                worst = max(worst, float(abs(mpmath.fsum(terms) - exact[j]) / (scale or 1)))
                terms = [t * xi for t, xi in zip(terms, xs)]
    assert worst <= 1e-13, worst


def test_cached_gauss_rules_are_read_only_and_unshared():
    mesh = graded_mesh(64, 2.0, 1.0)
    approxes = [_soe_for_mesh(alpha, 1e-10, mesh) for alpha in (0.3, 0.7)]
    rules = [_gauss_rule(m) for m in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24)]
    rules += [_gauss_rule(max(2, m), a.alpha) for a in approxes
              for m in (1, 2, 3, 4, 6, 8, 10, 12, 16)]
    assert _gauss_rule.cache_info().maxsize is not None
    for array in (x for rule in rules for x in rule):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
        for approx in approxes:
            assert not np.shares_memory(array, approx.nodes)
            assert not np.shares_memory(array, approx.weights)
