"""Strength thresholds: closed forms, the numeric scale searches and the
source-tuning helper."""

import concurrent.futures
import math

import numpy as np
import pytest

import gridstrength.boundary as boundary
from gridstrength.boundary import (
    BoundaryResult,
    _bisect_scale,
    _critical_fold,
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
from gridstrength.converter import rated_state, sensitivity_T
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

from conftest import CONVERTER_BLOCK, hub_network_doc, serial_pool
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


def test_find_critical_scale_invariance(sidc, dual, triple, quad):
    # at 5x and 15x the continuation first stops on the U = 2 band edge, which
    # is no fold; only an in-band fold counts as the near side of the root
    for case in (sidc, dual, triple, quad):
        want = find_critical_numeric(case).value
        for s in (0.5, 2.0, 5.0, 15.0):
            r = find_critical_numeric(scale_impedance(case, s))
            assert r.value == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("name", ["sidc", "dual", "triple", "quad"])
def test_critical_fold_certificate(name, request):
    case = request.getfixturevalue(name)
    fold = _critical_fold(prepare(case))
    # re-prepared from the scaled case file, not from the fold's own scaling
    prep = prepare(scale_impedance(case, fold.s))
    n = prep.n
    delta, U = fold.x[:n], fold.x[n:]
    orders = fold.lam * prep.rated_orders
    sv = np.linalg.svd(assemble_jacobian(prep, delta, U, orders), compute_uv=False)
    assert sv[-1] <= 1e-8 * sv[0]
    assert fold.lam == 1.0
    assert fold.residual <= 1e-10
    gP, gQ, _ = mismatch(prep, delta, U, orders)
    assert np.max(np.abs(np.concatenate([gP, gQ]))) <= 1e-10
    assert np.all((U > U_BAND[0]) & (U < U_BAND[1]))
    assert find_critical_numeric(case).condition_residual <= 1e-10


def test_critical_fold_matches_divergence_bisection(sidc, dual, triple, quad):
    # slow reference: bisect the scale on the continuation's last convergent lambda
    critical_tol = 1e-3  # on |lambda_max - 1|
    for case in (sidc, dual, triple, quad):
        best = _bisect_scale(prepare(case), lambda tr: tr.lambda_max - 1.0, critical_tol,
                             "reference")
        _, want = case_gscr(scale_impedance(case, best.s))
        assert find_critical_numeric(case).value == pytest.approx(want, rel=1e-4)


def test_search_value_is_index_of_scaled_case(crit_sidc, bnd_sidc, bnd_dual, sidc, dual):
    # the searches report gSCR(1) / s; reducing the scaled case file agrees
    for r, case in ((crit_sidc, sidc), (bnd_sidc, sidc), (bnd_dual, dual)):
        _, want = case_gscr(scale_impedance(case, r.scale_star))
        assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_closing_newton_outside_bracket_shrinks_it(sidc, monkeypatch):
    # the first fold Newton in s fails; a midpoint probe shrinks the bracket
    # and the second Newton lands inside it
    solve = boundary._solve_fold
    calls = []      # (free parameter is s, s at the start, fold)

    def first_s_free_call_fails(at, x, v, p):
        s_free = at(2.0 * p)[1] != at(p)[1]
        fold = None if s_free and not any(c[0] for c in calls) else solve(at, x, v, p)
        calls.append((s_free, at(p)[1], fold))
        return fold

    monkeypatch.setattr(boundary, "_solve_fold", first_s_free_call_fails)
    fold = _critical_fold(prepare(sidc))
    kinds = [c[0] for c in calls]
    assert kinds[-3:] == [True, False, True]      # failed Newton, midpoint probe, Newton
    probes = [(s, f) for s_free, s, f in calls if not s_free]
    lo = max(s for s, f in probes if f is not None and f.lam > 1.0)
    hi = min(s for s, f in probes if f is None or f.lam <= 1.0)
    assert lo <= fold.s <= hi
    assert fold.lam == 1.0
    _, g = case_gscr(sidc)
    assert g / fold.s == pytest.approx(1.9987510265167951, rel=1e-10)


def test_closing_newton_that_never_lands_collapses_the_bracket(sidc, monkeypatch):
    solve = boundary._solve_fold

    def s_free_calls_fail(at, x, v, p):
        return None if at(2.0 * p)[1] != at(p)[1] else solve(at, x, v, p)

    monkeypatch.setattr(boundary, "_solve_fold", s_free_calls_fail)
    with pytest.raises(GridStrengthError, match="no fold at rated load between scales"):
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
        i = prep.net.B.index_of(ln.bus)
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
