"""Power flow and continuation: exact Jacobian against finite differences,
structure at the unloaded flat point, the array kernel against the per-bus
loops, nose-search invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gridstrength import converter, powerflow
from gridstrength.boundary import case_gscr, scale_to_gscr
from gridstrength.casefile import case_from_dict, load_bundled_case, with_rating
from gridstrength.converter import LccParams, rated_order, sensitivity_T
from gridstrength.errors import ConverterInfeasible, GridStrengthError
from gridstrength.gscr import characteristic_delta
from gridstrength.netmodel import scale_impedance
from gridstrength.powerflow import (
    NEWTON_STEP_TRIES,
    SMALL_N,
    Diverged,
    GridState,
    assemble_jacobian,
    converter_states,
    damped_newton,
    mismatch,
    newton_solve,
    prepare,
    sigma_min,
    trace_map,
)

from conftest import CONVERTER_BLOCK, cgscr_fold, random_network_doc
from oracles import central_jacobian

LOOPS = 10**6   # SMALL_N that keeps every size on the per-bus loops
ARRAYS = 0      # SMALL_N that sends every size down the array path


def tiny_doc(n_buses, b_c, emfs, x_t=0.4, x_tie=0.5):
    buses = [f"b{i}" for i in range(n_buses)]
    return {
        "name": "tiny",
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": b, "kind": "converter"} for b in buses],
        "branches": [
            {"from": buses[i], "to": buses[i + 1], "reactance_pu": x_tie}
            for i in range(n_buses - 1)
        ],
        "thevenin_links": [
            {"bus": b, "reactance_pu": x_t, "emf_pu": e}
            for b, e in zip(buses, emfs)
        ],
        "converters": [
            {**CONVERTER_BLOCK, "bus": b, "b_c_pu": b_c} for b in buses
        ],
    }


@pytest.fixture(scope="module")
def sidc_trace(sidc):
    return trace_map(sidc)


def fd_full_jacobian(prep, delta, U, orders, h=1e-6):
    n = prep.n

    def g(d, u):
        return mismatch(prep, d, u, orders)[0]

    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        J[:, k] = (g(delta + e, U) - g(delta - e, U)) / (2.0 * h)
        J[:, n + k] = (g(delta, U + e) - g(delta, U - e)) / (2.0 * h)
    return J


# ----------------------------------------------------------------- jacobian

# ------------------------------------------------- the shared damped Newton

def sqrt2_resid(x):
    return x * x - 2.0, None


def sqrt2_jac(x, _):
    return np.array([[2.0 * x[0]]])


def test_damped_newton_converges():
    res = damped_newton(sqrt2_resid, sqrt2_jac, np.array([1.0]), 1e-12, 50)
    assert res.reason == ""
    assert res.x[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert res.norm <= 1e-12
    assert res.trace[0] == 1.0 and res.trace[-1] == res.norm
    assert list(res.trace) == sorted(res.trace, reverse=True)


def test_damped_newton_iteration_limit():
    res = damped_newton(sqrt2_resid, sqrt2_jac, np.array([1.0]), 1e-12, 1)
    assert res.reason == "iteration limit"
    assert res.x[0] == 1.5
    assert res.trace == (1.0, 0.25)


def test_damped_newton_infeasible_start():
    res = damped_newton(lambda x: None, sqrt2_jac, np.array([1.0]), 1e-12, 50)
    assert res.reason == "infeasible start"
    assert res.trace == ()


def test_damped_newton_singular_jacobian():
    res = damped_newton(sqrt2_resid, lambda x, _: np.zeros((1, 1)), np.array([1.0]), 1e-12, 50)
    assert res.reason == "singular jacobian"
    assert res.x[0] == 1.0 and res.trace == (1.0,)


def test_damped_newton_no_acceptable_step():
    # r = x - 1 is defined only for x <= 0, so every damped step from 0 leaves the domain
    tried = []

    def resid(x):
        tried.append(x[0])
        return (x - 1.0, None) if x[0] <= 0.0 else None

    res = damped_newton(resid, lambda x, _: np.eye(1), np.array([0.0]), 1e-12, 50)
    assert res.reason == "no acceptable step"
    assert res.x[0] == 0.0
    assert tried[1:] == [0.5 ** k for k in range(NEWTON_STEP_TRIES)]


@pytest.mark.parametrize("slack, reason, x, trace", [
    (1.2, "iteration limit", 1.0, (1.0, 1.1)),
    (1.0, "no acceptable step", 0.0, (1.0,)),
])
def test_damped_newton_slack_bounds_the_rise(slack, reason, x, trace):
    # every step raises |r| from 1.0 to 1.1
    def resid(z):
        return np.array([1.0 if z[0] == 0.0 else 1.1]), None

    res = damped_newton(resid, lambda z, _: -np.eye(1), np.array([0.0]), 1e-12, 1, slack=slack)
    assert (res.reason, res.x[0], res.trace) == (reason, x, trace)


# ----------------------------------------------------------- power flow

def test_jacobian_matches_finite_differences(dual):
    prep = prepare(dual)
    orders = 0.9 * prep.rated_orders
    state = newton_solve(prep, orders)
    assert isinstance(state, GridState)
    J = assemble_jacobian(prep, state.delta, state.U, orders)
    fd = fd_full_jacobian(prep, state.delta, state.U, orders)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(J - fd)) <= 1e-5 * scale


def test_flat_unloaded_jacobian_structure():
    # no filters, matched emfs: the flat point solves exactly and the
    # Jacobian collapses to [[-B, 0], [0, -B]]; at zero order the array
    # path's converter diagonal must give this with I = 0 on every bus
    for n in (2, SMALL_N + 2):
        case = case_from_dict(tiny_doc(n, b_c=0.0, emfs=[1.0] * n))
        prep = prepare(case)
        orders = np.zeros(n)
        state = newton_solve(prep, orders)
        assert isinstance(state, GridState)
        assert state.U == pytest.approx([1.0] * n, abs=1e-12)
        assert state.delta == pytest.approx([0.0] * n, abs=1e-12)
        J = assemble_jacobian(prep, state.delta, state.U, orders)
        negB = -prep.net.B
        assert np.allclose(J[:n, :n], negB, atol=1e-12)
        assert np.allclose(J[n:, n:], negB, atol=1e-12)
        assert np.allclose(J[n:, :n], 0.0, atol=1e-12)
        assert np.allclose(J[:n, n:], 0.0, atol=1e-12)


def test_block_determinant_schur_identity(sidc):
    prep = prepare(sidc)
    state = newton_solve(prep, prep.rated_orders)
    assert isinstance(state, GridState)
    J = assemble_jacobian(prep, state.delta, state.U, prep.rated_orders)
    n = prep.n
    full = np.linalg.det(J)
    schur = J[n:, n:] - J[n:, :n] @ np.linalg.solve(J[:n, :n], J[:n, n:])
    split = np.linalg.det(J[:n, :n]) * np.linalg.det(schur)
    assert split == pytest.approx(full, rel=1e-9)


# ------------------------------------------------------------ array kernel

def tuned_random_case(n):
    """Random n-bus network with a link on every bus, at gSCR 3 with the rated point at U = 1."""
    doc = random_network_doc(np.random.default_rng(1000 + n), n, link_prob=1.0)
    return scale_to_gscr(case_from_dict(doc), 3.0)


def kernel_at(prep, delta, U, orders):
    r, conv = mismatch(prep, delta, U, orders)
    J = assemble_jacobian(prep, delta, U, orders, conv)
    return r, J, converter_states(prep, conv)


@pytest.mark.parametrize("n", [5, 8, 16])
def test_array_kernel_matches_loops(n, monkeypatch):
    # at the rated point and at the continuation's last point before the nose
    prep = prepare(tuned_random_case(n))
    rated = newton_solve(prep, prep.rated_orders)
    assert isinstance(rated, GridState)
    tr = trace_map(prep)
    for lam, st in ((1.0, rated), (tr.lambda_max, tr.state_at_map)):
        at = (prep, st.delta, st.U, lam * prep.rated_orders)
        monkeypatch.setattr(powerflow, "SMALL_N", ARRAYS)
        r_arr, J_arr, st_arr = kernel_at(*at)
        monkeypatch.setattr(powerflow, "SMALL_N", LOOPS)
        r_loop, J_loop, st_loop = kernel_at(*at)
        scale = np.abs(J_loop).max()
        assert np.abs(J_arr - J_loop).max() <= 1e-13 * scale
        assert np.abs(r_arr - r_loop).max() <= 1e-13 * scale
        for a, b in zip(st_arr, st_loop, strict=True):
            assert tuple(a) == pytest.approx(tuple(b), rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("n", range(2, 11))
def test_random_jacobian_matches_finite_differences(n, monkeypatch):
    prep = prepare(tuned_random_case(n))
    orders = 0.9 * prep.rated_orders
    state = newton_solve(prep, orders)
    assert isinstance(state, GridState)
    for small_n in (ARRAYS, LOOPS):
        monkeypatch.setattr(powerflow, "SMALL_N", small_n)
        J = assemble_jacobian(prep, state.delta, state.U, orders)
        fd = fd_full_jacobian(prep, state.delta, state.U, orders)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(J - fd).max() <= 1e-5 * scale


@pytest.mark.parametrize("n", [5, 16, 32])
def test_newton_gives_one_state_on_both_paths(n, monkeypatch):
    prep = prepare(tuned_random_case(n))
    states = []
    for small_n in (ARRAYS, LOOPS):
        monkeypatch.setattr(powerflow, "SMALL_N", small_n)
        states.append(newton_solve(prep, prep.rated_orders))
    arr, loop = states
    assert isinstance(arr, GridState) and isinstance(loop, GridState)
    assert arr.delta == pytest.approx(loop.delta, rel=1e-12, abs=1e-14)
    assert arr.U == pytest.approx(loop.U, rel=1e-12)
    for a, b in zip(arr.converter_states, loop.converter_states, strict=True):
        assert tuple(a) == pytest.approx(tuple(b), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("small_n", [ARRAYS, LOOPS], ids=["arrays", "loops"])
def test_tuned_rated_flow_is_flat_on_the_low_root(n, small_n, monkeypatch):
    # tune_sources pins the rated point at U = 1, and a flat start lands on it
    # with every converter on the low root of (b - r) I^2 - a U cos(gamma) I + p = 0
    prep = prepare(tuned_random_case(n))
    monkeypatch.setattr(powerflow, "SMALL_N", small_n)
    state = newton_solve(prep, prep.rated_orders)
    assert isinstance(state, GridState)
    assert np.abs(state.U - 1.0).max() <= 1e-9
    for par, st in zip(prep.converters, state.converter_states, strict=True):
        assert st.I_d < par.a * st.U * math.cos(par.gamma) / (2.0 * (par.b - par.r))


@pytest.mark.parametrize("n", [8, 16])
def test_continuation_steps_agree_on_both_paths(n, monkeypatch):
    # at n = 16 the divergent last step tries points outside the U band and
    # points without a converter steady state, which a flat rated start never does
    prep = prepare(tuned_random_case(n))
    fallbacks = []
    loop_solve = converter._solve_converters_loop

    def counted(*args):
        fallbacks.append(args)
        return loop_solve(*args)

    monkeypatch.setattr(converter, "_solve_converters_loop", counted)
    monkeypatch.setattr(powerflow, "SMALL_N", ARRAYS)
    arr = trace_map(prep)
    assert fallbacks or n == 8      # the array path handed an infeasible point to the loops
    monkeypatch.setattr(powerflow, "SMALL_N", LOOPS)
    loop = trace_map(prep)
    assert [p.lam for p in arr.history] == [p.lam for p in loop.history]
    assert arr.diverged_at == loop.diverged_at
    # the last point sits within LAM_BISECT_TOL of the fold, where J is nearly
    # singular and the two kernels' rounding moves Q by ~2e-12 relative
    for a, b in zip(arr.history[:-1], loop.history[:-1], strict=True):
        assert a.delta == pytest.approx(b.delta, rel=1e-12, abs=1e-14)
        assert a.U == pytest.approx(b.U, rel=1e-12)
        for x, y in zip((a.P, a.Q, a.mu), (b.P, b.Q, b.mu), strict=True):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("bad, U_low, error", [
    ((2, 4), None, ConverterInfeasible),    # no real root on two buses: the first one names it
    ((4,), 1, GridStrengthError),           # U <= 0 on bus 1 comes before bus 4 in bus order
])
def test_infeasible_converter_named_alike_on_both_paths(bad, U_low, error, monkeypatch):
    prep = prepare(tuned_random_case(6))
    U = np.ones(prep.n)
    orders = prep.rated_orders.copy()
    orders[list(bad)] *= 50.0
    if U_low is not None:
        U[U_low] = 0.0
    messages = []
    for small_n in (ARRAYS, LOOPS):
        monkeypatch.setattr(powerflow, "SMALL_N", small_n)
        with pytest.raises(error) as exc:
            mismatch(prep, np.zeros(prep.n), U, orders)
        messages.append((type(exc.value), str(exc.value), getattr(exc.value, "bus", None)))
    assert messages[0] == messages[1]
    if error is ConverterInfeasible:
        assert messages[0][2] == prep.net.bus_order[bad[0]]


# ---------------------------------------- the array kernel's shared terms

@pytest.mark.parametrize("n", [5, 8, 16, 32, 64])
def test_jacobian_from_mismatch_terms_is_bitwise_a_fresh_one(n):
    prep = prepare(tuned_random_case(n))
    rated = newton_solve(prep, prep.rated_orders)
    assert isinstance(rated, GridState)
    tr = trace_map(prep)
    for lam, st in ((1.0, rated), (tr.lambda_max, tr.state_at_map)):
        orders = lam * prep.rated_orders
        _, terms = mismatch(prep, st.delta, st.U, orders)
        J_terms = assemble_jacobian(prep, st.delta, st.U, orders, terms)
        J_fresh = assemble_jacobian(prep, st.delta, st.U, orders)
        assert J_terms.tobytes() == J_fresh.tobytes()


@pytest.mark.parametrize("n", [5, 16])
def test_mismatch_reuses_only_the_converter_terms(n):
    # as in tune_sources: U and orders stay, the angles and the source term move
    prep = prepare(tuned_random_case(n))
    st = newton_solve(prep, prep.rated_orders)
    assert isinstance(st, GridState)
    _, old = mismatch(prep, st.delta, st.U, prep.rated_orders)
    moved = replace(prep, net=prep.net._replace(f=1.01 * prep.net.f))
    delta = st.delta + 0.01 * np.cos(np.arange(n))
    r, terms = mismatch(moved, delta, st.U, prep.rated_orders, old)
    r_fresh, _ = mismatch(moved, delta, st.U, prep.rated_orders)
    assert r.tobytes() == r_fresh.tobytes()
    assert (assemble_jacobian(moved, delta, st.U, prep.rated_orders, terms).tobytes()
            == assemble_jacobian(moved, delta, st.U, prep.rated_orders).tobytes())


def varied_converters_doc(rng, n):
    """random_network_doc with every converter constant drawn per bus (rated power reachable)."""
    doc = random_network_doc(rng, n)
    for conv in doc["converters"]:
        conv.update(gamma_deg=float(rng.uniform(10.0, 25.0)), n_bridges=int(rng.integers(2, 5)),
                    k_ratio=float(rng.uniform(0.4, 0.6)),
                    x_commutation_pu=float(rng.uniform(0.03, 0.08)),
                    r_dc_pu=float(rng.uniform(0.0, 0.05)), b_c_pu=float(rng.uniform(0.0, 1.0)))
    return doc


@pytest.mark.parametrize("source", ["cigre_sidc", "dual", "triple", "quad",
                                    *[f"random-{n}" for n in (2, 3, 4, 5, 8, 16, 32, 64)]])
def test_prepared_constants_are_bitwise_the_per_bus_ones(source):
    if source.startswith("random-"):
        n = int(source.split("-")[1])
        case = case_from_dict(varied_converters_doc(np.random.default_rng(3000 + n), n))
    else:
        case = load_bundled_case(source)
    prep = prepare(case)
    convs = tuple(LccParams.from_spec(case.converter_at(b), case) for b in prep.net.bus_order)
    expected = {
        "p_dn": [p.p_dn for p in convs],
        "a": [p.a for p in convs],
        "b_over_a": [p.b / p.a for p in convs],
        "cos_g": [math.cos(p.gamma) for p in convs],
        "acg": [p.a * math.cos(p.gamma) for p in convs],
        "gamma": [p.gamma for p in convs],
        "A4": [4.0 * (p.b - p.r) for p in convs],
        "r": [p.r for p in convs],
        "wbc": [p.b_c for p in convs],
    }
    assert set(expected) == set(prep.consts._fields)
    for name, values in expected.items():
        assert getattr(prep.consts, name).tobytes() == np.array(values).tobytes(), name
    orders = np.array([p.p_dn * rated_order(p) for p in convs])
    assert prep.rated_orders.tobytes() == orders.tobytes()
    assert prep.converters == convs


@pytest.mark.parametrize("changes, message", [
    ({1: {"gamma_deg": 95.0}}, "gamma must lie in (0, pi/2)"),
    ({1: {"x_commutation_pu": 0.0}}, "invalid converter constants"),
    ({1: {"x_commutation_pu": 5.0}}, "converter cannot deliver rated power at rated voltage"),
    # every bus's constants are checked before any bus's rated point
    ({0: {"x_commutation_pu": 5.0}, 4: {"gamma_deg": 95.0}}, "gamma must lie in (0, pi/2)"),
])
def test_prepare_rejects_converters_outside_the_model(changes, message):
    case = case_from_dict(random_network_doc(np.random.default_rng(11), 6))
    buses = case.converter_buses()
    specs = tuple(c._replace(**changes.get(buses.index(c.bus), {})) for c in case.converters)
    with pytest.raises(GridStrengthError) as err:
        prepare(replace(case, converters=specs))
    assert str(err.value) == message


def test_converters_solved_once_per_mismatch_never_in_the_jacobian(monkeypatch):
    prep = prepare(tuned_random_case(16))
    log = []
    solve, mis, jac = converter._solve_converters, powerflow.mismatch, powerflow.assemble_jacobian

    def counted_solve(*args):
        log.append("solve")
        return solve(*args)

    def counted_mismatch(*args):
        log.append("mismatch")
        return mis(*args)

    def counted_jacobian(*args):
        log.append("jacobian")
        J = jac(*args)
        log.append("end")
        return J

    monkeypatch.setattr(converter, "_solve_converters", counted_solve)
    monkeypatch.setattr(powerflow, "mismatch", counted_mismatch)
    monkeypatch.setattr(powerflow, "assemble_jacobian", counted_jacobian)
    assert isinstance(newton_solve(prep, prep.rated_orders), GridState)
    calls = log.count("mismatch")
    assert calls > 1 and log.count("jacobian") == calls - 1
    assert log.count("solve") == calls
    assert all(a != "jacobian" or b == "end" for a, b in zip(log, log[1:]))


def test_flow_sized_solve_builds_no_lcc_params(monkeypatch):
    # the array path reads the prepared constants; LccParams are for the per-bus
    # loops and the failure paths, built on first use
    case = tuned_random_case(16)
    built = []
    monkeypatch.setattr(LccParams, "__post_init__", lambda self: built.append(self.bus))
    prep = prepare(case)
    assert isinstance(newton_solve(prep, prep.rated_orders), GridState)
    assert built == []
    prep.converters     # the counter sees a construction
    assert len(built) == 16


# ------------------------------------------------------------- fold system

def _fold_residual(prep, c, s_free, s):
    """The fold system's residual as a function of z = (x, v, p) in a list, p = s or lam."""
    m = len(c)

    def F(z):
        z = np.array(z)
        scale, lam = (z[-1], 1.0) if s_free else (s, z[-1])
        r, _, J = powerflow._fold_point(powerflow._at_scale(prep, scale), lam, z[:m])
        return [*r, *(J @ z[m:2 * m]), c @ z[m:2 * m] - 1.0]
    return F


@pytest.mark.parametrize("n", range(1, 17))
def test_fold_jacobian_matches_central_differences(n):
    # s free at lam = 1 and lam free at a fixed s, at a fold (J singular) and away
    # from it (the rated flow with a random v, and 0.9 of rated load for lam)
    rng = np.random.default_rng(4000 + n)
    case = scale_to_gscr(case_from_dict(random_network_doc(rng, n, link_prob=1.0)), 2.0)
    prep = prepare(case)
    g1 = case_gscr(case)[1]
    fold = cgscr_fold(prep, g1)
    rated = newton_solve(prep, prep.rated_orders)
    assert isinstance(rated, GridState)
    m = 2 * n
    for x, v, s, lam in ((fold.x, fold.v, fold.s, 1.0),
                         (np.concatenate([rated.delta, rated.U]), rng.normal(size=m), 1.0, 0.9)):
        c = v / (v @ v)
        for s_free in (True, False):
            z = np.concatenate([x, v, [s if s_free else lam]])
            at = powerflow._at_scale(prep, s)
            _, t, J = powerflow._fold_point(at, 1.0 if s_free else lam, x)
            exact = powerflow._fold_jacobian(at, z, c, J, t, s_free)
            fd = np.array(central_jacobian(_fold_residual(prep, c, s_free, s), z.tolist()))
            for rows, cols in ((slice(0, m), slice(0, m)), (slice(m, 2 * m), slice(0, m)),
                               (slice(m, 2 * m), slice(m, 2 * m)), (slice(0, 2 * m), -1),
                               (2 * m, slice(m, 2 * m))):
                scale = np.abs(fd[rows, cols]).max()
                assert np.abs(exact[rows, cols] - fd[rows, cols]).max() <= 1e-6 * scale
            assert not exact[:m, m:2 * m].any() and not exact[2 * m, :m].any()


# -------------------------------------------------------------- newton solve

def test_zero_orders_recover_emf():
    case = case_from_dict(tiny_doc(1, b_c=0.0, emfs=[1.05]))
    state = newton_solve(prepare(case), [0.0])
    assert isinstance(state, GridState)
    assert state.U[0] == pytest.approx(1.05, abs=1e-8)
    assert state.delta[0] == pytest.approx(0.0, abs=1e-10)


def test_mismatch_small_at_solution(sidc):
    prep = prepare(sidc)
    state = newton_solve(prep, prep.rated_orders)
    assert isinstance(state, GridState)
    r, _ = mismatch(prep, state.delta, state.U, prep.rated_orders, state.converter_states)
    assert np.max(np.abs(r)) <= 1e-8


def test_order_vector_validation(sidc):
    prep = prepare(sidc)
    with pytest.raises(GridStrengthError):
        newton_solve(prep, [-0.1])
    with pytest.raises(GridStrengthError):
        newton_solve(prep, [1.0, 1.0])


def test_diverges_beyond_the_nose(sidc):
    prep = prepare(sidc)
    mild = newton_solve(prep, 1.5 * prep.rated_orders)
    assert isinstance(mild, Diverged)
    assert mild.reason
    hopeless = newton_solve(prep, 20.0 * prep.rated_orders)
    assert isinstance(hopeless, Diverged)


# ------------------------------------------------------------- continuation

def test_continuation_interval_invariants(sidc_trace):
    tr = sidc_trace
    assert tr.diverged_at > tr.lambda_max
    assert tr.diverged_at - tr.lambda_max <= 1e-6 + 1e-12
    lams = [pt.lam for pt in tr.history]
    assert lams == sorted(lams)
    assert lams[-1] == tr.lambda_max
    assert len(tr.mu_at_map) == 1


def test_sigma_min_shrinks_toward_the_nose(sidc, sidc_trace):
    prep = prepare(sidc)
    sig = [sigma_min(prep, pt) for pt in sidc_trace.history[-5:]]
    assert all(a > b - 1e-12 for a, b in zip(sig, sig[1:]))
    assert sig[-1] < 0.1 * sig[0] or sig[-1] < 0.05


def test_step_size_does_not_move_the_nose(sidc, sidc_trace, monkeypatch):
    monkeypatch.setattr(powerflow, "LAM_STEP", 0.005)
    fine = trace_map(sidc)
    assert fine.lambda_max == pytest.approx(sidc_trace.lambda_max, abs=2e-4)


def test_characteristic_delta_small_at_map(sidc, sidc_trace, measured):
    # the calibrated single-infeed case sits at its critical point, so the
    # characteristic residual at the nose should be near zero
    _, lam1 = case_gscr(sidc)
    prep = prepare(sidc)
    st = sidc_trace.state_at_map.converter_states[0]
    par = prep.converters[0]
    rho_sys = st.P * par.p_dn / st.U**2
    T = sensitivity_T(st, par).T
    delta_o = characteristic_delta(rho_sys, T, lam1)
    measured["powerflow.characteristic delta at sidc nose"] = delta_o
    assert abs(delta_o) <= 0.05


def test_halved_rating_doubles_index_and_adds_margin(sidc):
    _, base = case_gscr(sidc)
    bus = sidc.converter_buses()[0]
    half = with_rating(sidc, bus, 0.5 * sidc.converter_at(bus).p_dn_mw)
    _, doubled = case_gscr(half)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
    tr = trace_map(half)
    assert tr.lambda_max > 1.0


def test_infeasible_light_start_is_converter_infeasible(sidc):
    # at 15x rated impedance the filter shunts overvolt even the doubled
    # light starts; the searches read this type as "grid too weak"
    with pytest.raises(ConverterInfeasible, match="^trace_map: base case infeasible at lambda = 0.8 "):
        trace_map(scale_impedance(sidc, 15.0))
