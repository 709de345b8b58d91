"""Strength thresholds: closed forms, the numeric scale searches and the
source-tuning helper."""

import concurrent.futures
import math

import numpy as np
import pytest

import gridstrength.boundary as boundary
import gridstrength.powerflow as powerflow
from gridstrength.boundary import (
    BoundaryResult,
    _bisect_scale,
    _critical_fold,
    _modal_fold,
    boundary_overlap_c,
    bscr_solve,
    case_gscr,
    cscr_closed_form,
    fan_out,
    find_boundary_numeric,
    find_critical_numeric,
    scale_to_gscr,
    sweep_dual_infeed,
    tune_sources,
)
from gridstrength.casefile import case_from_dict
from gridstrength.converter import LccParams, rated_state, sensitivity_T
from gridstrength.errors import GridStrengthError
from gridstrength.netmodel import scale_impedance
from gridstrength.powerflow import (
    U_BAND,
    GridState,
    assemble_jacobian,
    mismatch,
    newton_solve,
    prepare,
)

from conftest import (
    CONVERTER_BLOCK,
    heterogeneous_case,
    hub_network_doc,
    random_network_doc,
    serial_pool,
    stress_case,
)
from oracles import bscr_newton, central_jacobian
from test_converter import cigre_params


@pytest.fixture(scope="module")
def crit_sidc(sidc):
    return find_critical_numeric(sidc)


@pytest.fixture(scope="module")
def bnd_sidc(sidc):
    return find_boundary_numeric(sidc)


@pytest.fixture(scope="module")
def bnd_dual(dual):
    return find_boundary_numeric(dual)


# --------------------------------------------------------------- closed forms

def test_cscr_closed_form_hand_values():
    assert cscr_closed_form(1.5) == pytest.approx(2.0, abs=1e-15)
    assert cscr_closed_form(0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(GridStrengthError):
        cscr_closed_form(-0.1)


def test_cscr_golden_at_calibration():
    p = cigre_params()
    T_N = sensitivity_T(rated_state(p), p).T
    assert cscr_closed_form(T_N) == pytest.approx(2.002372, abs=1e-6)


def test_boundary_overlap_c_values():
    assert boundary_overlap_c(math.radians(15.0)) == pytest.approx(0.129410, abs=1e-6)
    assert boundary_overlap_c(0.0) == pytest.approx(0.5 * (1.0 - math.cos(math.pi / 6.0)), abs=1e-15)


def test_bscr_regression_frozen():
    assert bscr_solve(cigre_params()) == pytest.approx(2.663191, abs=1e-5)


def test_bscr_closed_form_matches_the_coupled_newton():
    # the closed form against the (U, SCR) Newton it replaced, on random converters
    # that deliver rated power; where that Newton stalls there is nothing to compare
    rng = np.random.default_rng(25)
    compared = 0
    for _ in range(1200):
        p = LccParams(p_dn=float(rng.uniform(0.2, 2.0)),
                      gamma=math.radians(rng.uniform(10.0, 25.0)), n=int(rng.integers(1, 5)),
                      k=float(rng.uniform(0.3, 0.6)), x=float(rng.uniform(0.02, 0.15)),
                      r=float(rng.uniform(0.0, 0.05)), b_c=float(rng.uniform(0.2, 0.8)))
        try:
            rated = rated_state(p)
        except GridStrengthError:
            continue
        want = bscr_newton(p.a, p.b, p.b_c, p.gamma, rated.P, rated.Q)
        if want is not None:
            compared += 1
            assert bscr_solve(p) == pytest.approx(want, rel=1e-9, abs=0.0)
    assert compared >= 1000


def test_bscr_gamma_shift_golden():
    # larger extinction angle pushes the 30 degree point to a stronger grid
    got = bscr_solve(cigre_params(gamma=math.radians(18.0)))
    assert got == pytest.approx(2.831485, abs=1e-5)
    assert got > bscr_solve(cigre_params())


@pytest.mark.xfail(strict=True, reason="closed form lands at 2.66 at this calibration")
def test_bscr_within_band():
    assert 2.9 <= bscr_solve(cigre_params()) <= 3.1


@pytest.mark.xfail(strict=True, reason="closed form understates the full-model boundary by ~11 pct")
def test_bscr_agrees_with_numeric_search(bnd_sidc):
    closed = bscr_solve(cigre_params())
    assert abs(closed - bnd_sidc.value) / bnd_sidc.value <= 0.02


def test_bscr_gap_to_numeric_regression(bnd_sidc, measured):
    gap = abs(bscr_solve(cigre_params()) - bnd_sidc.value) / bnd_sidc.value
    measured["boundary.closed-vs-numeric boundary gap (pct)"] = 100.0 * gap
    assert 0.08 <= gap <= 0.14


# ------------------------------------------------------------ scale searches

def test_find_critical_single_infeed(crit_sidc, measured):
    r = crit_sidc
    measured["boundary.sidc critical index"] = r.value
    assert r.kind == "CgSCR"
    assert 1.9 <= r.value <= 2.1
    assert r.condition_residual <= 1e-3
    assert len(r.per_converter_mu) == 1
    # the authored case already sits at its critical point
    assert r.scale_star == pytest.approx(1.0, abs=5e-3)
    closed = cscr_closed_form(sensitivity_T(rated_state(cigre_params()), cigre_params()).T)
    assert abs(r.value - closed) / closed <= 0.03


def test_find_critical_scale_invariance(sidc, dual, triple, quad, monkeypatch):
    # the modal start at s0 = gSCR(1) / 2 moves with the scale, so every k takes
    # the same path: no continuation and one short fold Newton on the exact
    # Jacobian, one kernel point per fold residual
    calls = {"mismatch": 0, "_mismatch_array": 0, "trace_map": 0}

    def counted(name):
        fn = getattr(powerflow, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        # mismatch's own call into the array form is not a second kernel point
        if name != "_mismatch_array":
            monkeypatch.setattr(powerflow, name, wrapper)
        monkeypatch.setattr(boundary, name, wrapper)
    for case in (sidc, dual, triple, quad):
        want = find_critical_numeric(case).value
        for s in (0.5, 1.0, 2.0, 5.0, 15.0):
            calls.update(mismatch=0, _mismatch_array=0, trace_map=0)
            r = find_critical_numeric(scale_impedance(case, s))
            assert calls["trace_map"] == 0
            assert calls["_mismatch_array"] > 0
            assert calls["mismatch"] + calls["_mismatch_array"] <= 22
            assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("j, n, k, want", [
    # each once broke a bracket of fold probes in s from s = 1, which the modal
    # start and the walk from it both avoid: (0, 3), whose light start at s = 1
    # sits on a filter-overvolted branch with the root below the bracket built
    # from there, and (2, 12), whose failed fold probe at s = 1 read as the far
    # side and built a false bracket
    (0, 3, 2.0, 1.8296094964),
    (2, 12, 0.7, 1.9838841983),
])
def test_critical_on_heterogeneous_converters(j, n, k, want, monkeypatch):
    case = scale_impedance(heterogeneous_case(j, n), k)
    assert find_critical_numeric(case).value == pytest.approx(want, abs=1e-8)
    monkeypatch.setattr(boundary, "_modal_fold", lambda prep, g1: None)
    assert find_critical_numeric(case).value == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 5.0, 15.0])
@pytest.mark.parametrize("name", ["sidc", "dual", "triple", "quad"])
def test_failed_modal_start_falls_back_to_the_bracket(name, k, request, monkeypatch):
    # the walk along the fold curve lands on the modal fold at every scale, with
    # lam-free folds alone: no s-free fold and no continuation
    case = scale_impedance(request.getfixturevalue(name), k)
    want = find_critical_numeric(case).value
    solve, s_free, traced = boundary._solve_fold, [], []

    def counted(prep, x, v, s, lam=None, tol=boundary.FOLD_TOL):
        if lam is None:
            s_free.append(s)
        return solve(prep, x, v, s, lam, tol)

    monkeypatch.setattr(boundary, "_modal_fold", lambda prep, g1: None)
    monkeypatch.setattr(boundary, "_solve_fold", counted)
    for module in (boundary, powerflow):
        monkeypatch.setattr(module, "trace_map", lambda *args: traced.append(args))
    assert find_critical_numeric(case).value == pytest.approx(want, rel=1e-10, abs=0.0)
    assert s_free == [] and traced == []


# stress inputs at the parent's bracket solved at one k only: its window of
# absolute scales [0.05, 20] cut off the root at the other
ONE_K_PAIRS = [(0, 6), (0, 9), (3, 1), (6, 4), (10, 6), (11, 9), (18, 4), (18, 9), (21, 1),
               (23, 6), (24, 4), (29, 4)]


@pytest.mark.parametrize("seed, n", ONE_K_PAIRS)
def test_fallback_is_scale_invariant(seed, n):
    half, unit = (find_critical_numeric(stress_case(seed, n, k)).value for k in (0.5, 1.0))
    assert half == pytest.approx(unit, rel=1e-12, abs=0.0)


def test_lam_free_fold_stays_in_the_model_domain():
    # a lam-free Newton step once walked lam below 0, and solve_state's order
    # precondition escaped as the search's answer on these four inputs
    messages = []
    for seed, n, k in ((42, 1, 0.5), (48, 4, 0.5), (74, 6, 0.5), (110, 6, 1.0)):
        try:
            find_critical_numeric(stress_case(seed, n, k))
        except GridStrengthError as exc:
            messages.append(str(exc))
    assert messages and not any("solve_state" in m for m in messages)
    for k in (0.5, 1.0):
        assert find_critical_numeric(stress_case(110, 6, k)).value == pytest.approx(
            8.6358129742, abs=1e-10)


@pytest.mark.parametrize("seed, n, k, want", [
    (15, 4, 1.0, 4.124871242319338),
    (18, 1, 1.0, 6.427373125962935),
    (10, 6, 0.5, 12.17530488314376),
])
def test_bracket_where_the_modal_start_fails(seed, n, k, want):
    case = stress_case(seed, n, k)
    prep = prepare(case)
    assert _modal_fold(prep, case_gscr(case)[1]) is None
    assert find_critical_numeric(case).value == pytest.approx(want, rel=1e-10, abs=0.0)
    _check_fold_certificate(case, _critical_fold(prep, case_gscr(case)[1]))


def _check_fold_certificate(case, fold):
    # re-prepared from the scaled case file, not from the fold's own scaling
    prep = prepare(scale_impedance(case, fold.s))
    n = prep.n
    delta, U = fold.x[:n], fold.x[n:]
    orders = fold.lam * prep.rated_orders
    sv = np.linalg.svd(assemble_jacobian(prep, delta, U, orders), compute_uv=False)
    assert sv[-1] <= 1e-8 * sv[0]
    assert abs(fold.lam - 1.0) <= boundary.MODAL_TOL
    assert fold.residual <= 1e-10
    gP, gQ, _ = mismatch(prep, delta, U, orders)
    assert np.max(np.abs(np.concatenate([gP, gQ]))) <= 1e-10
    assert np.all((U > U_BAND[0]) & (U < U_BAND[1]))
    assert find_critical_numeric(case).condition_residual <= 1e-10


@pytest.mark.parametrize("name", ["sidc", "dual", "triple", "quad"])
def test_critical_fold_certificate(name, request):
    case = request.getfixturevalue(name)
    _check_fold_certificate(case, _critical_fold(prepare(case), case_gscr(case)[1]))


@pytest.mark.parametrize("name", ["sidc", "dual", "triple", "quad"])
def test_modal_fold_certificate(name, request):
    case = request.getfixturevalue(name)
    fold = _modal_fold(prepare(case), case_gscr(case)[1])
    _check_fold_certificate(case, fold)
    assert fold.residual <= boundary.MODAL_TOL


def _fold_residual(prep, c, s_free, s):
    """The fold system's residual as a function of z = (x, v, p) in a list, p = s or lam."""
    m = len(c)

    def F(z):
        z = np.array(z)
        scale, lam = (z[-1], 1.0) if s_free else (s, z[-1])
        t, J = boundary._fold_point(boundary._at_scale(prep, scale), lam, z[:m])
        return [*t.r, *(J @ z[m:2 * m]), c @ z[m:2 * m] - 1.0]
    return F


@pytest.mark.parametrize("n", range(1, 17))
def test_fold_jacobian_matches_central_differences(n):
    # s free at lam = 1 and lam free at a fixed s, at a fold (J singular) and away
    # from it (the rated flow with a random v, and 0.9 of rated load for lam)
    rng = np.random.default_rng(4000 + n)
    case = scale_to_gscr(case_from_dict(random_network_doc(rng, n, link_prob=1.0)), 2.0)
    prep = prepare(case)
    g1 = case_gscr(case)[1]
    fold = _modal_fold(prep, g1) or _critical_fold(prep, g1)
    rated = newton_solve(prep, prep.rated_orders)
    assert isinstance(rated, GridState)
    m = 2 * n
    for x, v, s, lam in ((fold.x, fold.v, fold.s, 1.0),
                         (np.concatenate([rated.delta, rated.U]), rng.normal(size=m), 1.0, 0.9)):
        c = v / (v @ v)
        for s_free in (True, False):
            z = np.concatenate([x, v, [s if s_free else lam]])
            at = boundary._at_scale(prep, s)
            t, J = boundary._fold_point(at, 1.0 if s_free else lam, x)
            exact = boundary._fold_jacobian(at, z, c, J, t, s_free)
            fd = np.array(central_jacobian(_fold_residual(prep, c, s_free, s), z.tolist()))
            for rows, cols in ((slice(0, m), slice(0, m)), (slice(m, 2 * m), slice(0, m)),
                               (slice(m, 2 * m), slice(m, 2 * m)), (slice(0, 2 * m), -1),
                               (2 * m, slice(m, 2 * m))):
                scale = np.abs(fd[rows, cols]).max()
                assert np.abs(exact[rows, cols] - fd[rows, cols]).max() <= 1e-6 * scale
            assert not exact[:m, m:2 * m].any() and not exact[2 * m, :m].any()


@pytest.mark.parametrize("n", range(2, 11))
def test_fold_certificate_on_random_networks(n):
    # the fold the search returns is a certified saddle-node, and its voltage
    # mode is the Perron vector of J_eq up to a few degrees
    case = scale_to_gscr(case_from_dict(random_network_doc(np.random.default_rng(6000 + n), n,
                                                           link_prob=1.0)), 2.0)
    prep = prepare(case)
    eig, g1 = case_gscr(case)
    fold = _modal_fold(prep, g1) or _critical_fold(prep, g1)
    assert find_critical_numeric(case).value == g1 / fold.s
    _check_fold_certificate(case, fold)
    mode, w = fold.v[n:], eig.perron_vector
    cos = abs(mode @ w) / (np.linalg.norm(mode) * np.linalg.norm(w))
    assert math.degrees(math.acos(min(cos, 1.0))) <= 5.0


def test_critical_fold_matches_divergence_bisection(sidc, dual, triple, quad):
    # slow reference: bisect the scale on the continuation's last convergent lambda
    critical_tol = 1e-3  # on |lambda_max - 1|
    for case in (sidc, dual, triple, quad):
        best = _bisect_scale(prepare(case), lambda tr: tr.lambda_max - 1.0, critical_tol)
        _, want = case_gscr(scale_impedance(case, best.s))
        assert find_critical_numeric(case).value == pytest.approx(want, rel=1e-4)


def test_search_value_is_index_of_scaled_case(crit_sidc, bnd_sidc, bnd_dual, sidc, dual):
    # the searches report gSCR(1) / s; reducing the scaled case file agrees
    for r, case in ((crit_sidc, sidc), (bnd_sidc, sidc), (bnd_dual, dual)):
        _, want = case_gscr(scale_impedance(case, r.scale_star))
        assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lands, message", [
    (0, r"no fold from the modal start at scales 1 and 0\.666667$"),
    (1, r"lost the fold curve at scale 1 \(lam 1\.00025\)$"),
], ids=["start", "walk"])
def test_walk_that_loses_the_fold_curve_fails_by_name(sidc, lands, message, monkeypatch):
    # only the first `lands` lam-free folds converge, so the walk cannot start
    # or its step halves below WALK_STEP_MIN at the scale it last reached
    solve, landed = boundary._solve_fold, []

    def first_folds_only(prep, x, v, s, lam=None, tol=boundary.FOLD_TOL):
        if len(landed) == lands:
            return None
        landed.append(s)
        return solve(prep, x, v, s, lam, tol)

    monkeypatch.setattr(boundary, "_modal_fold", lambda prep, g1: None)
    monkeypatch.setattr(boundary, "_solve_fold", first_folds_only)
    with pytest.raises(GridStrengthError, match=message):
        find_critical_numeric(sidc)


def test_singular_fold_system_is_a_package_error(sidc, monkeypatch):
    monkeypatch.setattr(boundary, "_fold_jacobian",
                        lambda at, z, *args: np.zeros((len(z), len(z))))
    with pytest.raises(GridStrengthError, match="singular fold system"):
        find_critical_numeric(sidc)


def test_find_boundary_single_infeed(bnd_sidc, measured):
    r = bnd_sidc
    measured["boundary.sidc boundary index"] = r.value
    assert r.kind == "BgSCR"
    assert 2.9 <= r.value <= 3.1
    assert r.condition_residual <= 0.05
    assert abs(r.per_converter_mu[0] - 30.0) <= 0.05


def test_find_boundary_dual_straddles_target(bnd_dual):
    r = bnd_dual
    assert 2.9 <= r.value <= 3.1
    assert len(r.per_converter_mu) == 2
    mu = np.array(r.per_converter_mu)
    assert abs(np.mean(mu) - 30.0) <= 0.1   # equal ratings: mean is unweighted
    assert np.all(np.abs(mu - 30.0) <= 1.5)


def test_find_boundary_triple(triple):
    r = find_boundary_numeric(triple)
    assert r.condition_residual <= 0.05
    assert np.all(np.abs(np.array(r.per_converter_mu) - 30.0) <= 1.5)


def test_critical_below_boundary_everywhere(crit_sidc, bnd_sidc, bnd_dual, dual, triple, quad):
    assert crit_sidc.value < bnd_sidc.value
    assert find_critical_numeric(dual).value < bnd_dual.value
    assert find_critical_numeric(triple).value < find_boundary_numeric(triple).value
    assert find_critical_numeric(quad).value < find_boundary_numeric(quad).value


def test_symmetric_twins_match_single_infeed(crit_sidc):
    # identical converters behind identical links: the tie carries nothing
    # along the symmetric loading path, so the critical index is the
    # single-infeed one
    doc = {
        "name": "twins",
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": "a", "kind": "converter"}, {"id": "b", "kind": "converter"}],
        "branches": [{"from": "a", "to": "b", "reactance_pu": 1.0}],
        "thevenin_links": [
            {"bus": "a", "reactance_pu": 0.5, "emf_pu": 1.0},
            {"bus": "b", "reactance_pu": 0.5, "emf_pu": 1.0},
        ],
        "converters": [
            {**CONVERTER_BLOCK, "bus": "a"},
            {**CONVERTER_BLOCK, "bus": "b"},
        ],
    }
    twins = tune_sources(case_from_dict(doc))
    r = find_critical_numeric(twins)
    assert abs(r.value - crit_sidc.value) / crit_sidc.value <= 0.02


def test_boundary_aggregation_rules(dual, bnd_dual):
    r_max = find_boundary_numeric(dual, aggregation="max")
    assert 2.8 <= r_max.value <= 3.2
    assert max(r_max.per_converter_mu) == pytest.approx(30.0, abs=0.05)
    assert r_max.value != bnd_dual.value
    with pytest.raises(GridStrengthError):
        find_boundary_numeric(dual, aggregation="median")


# ------------------------------------------------------------- source tuning

def test_bundled_cases_are_tuned(sidc, dual):
    for case in (sidc, dual):
        tuned = tune_sources(case)
        got = [ln.emf_pu for ln in tuned.thevenin_links]
        want = [ln.emf_pu for ln in case.thevenin_links]
        assert got == pytest.approx(want, abs=1e-6)


def test_tuned_sidc_emf_golden(sidc):
    tuned = tune_sources(sidc)
    assert tuned.thevenin_links[0].emf_pu == pytest.approx(1.1361269119, abs=1e-6)


def rated_from_link_seed(case):
    """Rated Newton from U = 1 and the per-link closed-form angles."""
    # flat-start Newton walks to the system's upper voltage root, so seed the
    # angles from the per-link closed form to land on the tuned root
    prep = prepare(case)
    delta = np.zeros(prep.n)
    for ln in case.thevenin_links:
        i = prep.net.bus_order.index(ln.bus)
        st = rated_state(prep.converters[i])
        p_sys = st.P * prep.converters[i].p_dn
        q_sys = st.Q * prep.converters[i].p_dn
        delta[i] = math.atan2(ln.reactance_pu * p_sys, 1.0 - ln.reactance_pu * q_sys)
    warm = GridState(delta=delta, U=np.ones(prep.n), converter_states=())
    return newton_solve(prep, prep.rated_orders, warm=warm)


def test_tuning_solves_rated_at_unit_voltage(dual):
    state = rated_from_link_seed(tune_sources(dual))
    assert isinstance(state, GridState)
    assert state.U == pytest.approx(np.ones(2), abs=1e-6)


def test_tuning_through_kron_reduced_network():
    # the internal hub is eliminated, so the reduced B is dense while each
    # reduced source term stays E_i / x_i
    case = case_from_dict(hub_network_doc(["a", "b"]))
    tuned = tune_sources(case)
    emfs = [ln.emf_pu for ln in tuned.thevenin_links]
    assert emfs[0] != pytest.approx(emfs[1], abs=1e-3)
    state = rated_from_link_seed(tuned)
    assert isinstance(state, GridState)
    assert state.U == pytest.approx(np.ones(2), abs=1e-6)


@pytest.mark.parametrize("link_buses", [["a", "h"], ["a"], ["a", "a"]])
def test_tuning_needs_one_link_per_converter_bus(link_buses):
    case = case_from_dict(hub_network_doc(link_buses))
    with pytest.raises(GridStrengthError, match="one source link per converter bus"):
        tune_sources(case)


def test_scale_to_target_index(sidc):
    scaled = scale_to_gscr(sidc, 3.0)
    _, g = case_gscr(scaled)
    assert g == pytest.approx(3.0, rel=1e-12)
    prep = prepare(scaled)
    state = newton_solve(prep, prep.rated_orders)
    assert isinstance(state, GridState)
    assert math.degrees(state.converter_states[0].mu) < 30.0
    with pytest.raises(GridStrengthError):
        scale_to_gscr(sidc, 0.0)


# -------------------------------------------------------------------- sweep

def test_sweep_single_ratio(dual):
    rows = sweep_dual_infeed(dual, [1.0])
    assert len(rows) == 1
    row = rows[0]
    assert row.ratio == 1.0
    assert 1.9 <= row.cgscr <= 2.1
    assert 2.9 <= row.bgscr <= 3.1


def test_sweep_input_validation(dual, sidc):
    with pytest.raises(GridStrengthError):
        sweep_dual_infeed(dual, [0.0])
    with pytest.raises(GridStrengthError):
        sweep_dual_infeed(sidc, [1.0])


def test_sweep_pool_never_exceeds_ratio_count(dual, monkeypatch):
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(seen))
    monkeypatch.setattr(boundary, "_sweep_point", lambda task: task[1])
    assert sweep_dual_infeed(dual, [0.5, 2.0], jobs=5000) == [0.5, 2.0]
    assert seen == [2]


def test_fan_out_with_no_task_opens_no_pool(monkeypatch):
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(seen))
    assert fan_out(abs, 2, []) == []
    assert seen == []


def test_boundary_result_validation():
    with pytest.raises(GridStrengthError):
        BoundaryResult(kind="XSCR", value=2.0, scale_star=1.0,
                       condition_residual=0.0, per_converter_mu=(30.0,))
    with pytest.raises(GridStrengthError):
        BoundaryResult(kind="CgSCR", value=0.0, scale_star=1.0,
                       condition_residual=0.0, per_converter_mu=(30.0,))
