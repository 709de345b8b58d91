"""Acceptance gate: the nine headline checks, one test per criterion, at
their stated tolerances and runtime budgets.

Criteria 1 and 8 are expected to fail at this calibration and are left
failing on purpose: the closed-form boundary ratio lands at 2.66 against
the [2.9, 3.1] band, and the -2c/U shortcut misses the exact derivative
by 9.1% against the 2% band.  Both gaps are structural consequences of
the benchmark commutation reactance, measured, logged and pinned by
regression tests in the module suites; weakening the asserted bands here
would hide exactly the information this gate exists to surface.
"""

import math
import time

import numpy as np
import pytest

from gridstrength.boundary import (
    bscr_solve,
    case_gscr,
    cscr_closed_form,
    find_boundary_numeric,
    find_critical_numeric,
    scale_to_gscr,
    sweep_dual_infeed,
)
from gridstrength.converter import rated_state, sensitivity_T, solve_state
from gridstrength.gscr import (
    compute_gscr,
    extended_jacobian,
    factorization_check,
    perron_check,
)
from gridstrength.netmodel import reduce_case, scale_impedance
from gridstrength.powerflow import GridState, assemble_jacobian, newton_solve, prepare, trace_map
from gridstrength.validate import SWEEP_RATIOS

from conftest import random_case
from oracles import charpoly_lambda1, fd_central
from test_converter import cigre_params
from test_gscr import random_negb, sus
from test_powerflow import fd_full_jacobian

ALL_CASES = ("sidc", "dual", "triple", "quad")


def case_jacobian(case):
    net = reduce_case(case)
    p_n = np.array([case.rating_pu(case.converter_at(b)) for b in net.bus_order])
    return extended_jacobian(net.B, p_n)


def test_criterion_1(sidc, measured, note_criterion):
    t0 = time.perf_counter()
    p = cigre_params()
    closed_c = cscr_closed_form(sensitivity_T(rated_state(p), p).T)
    closed_b = bscr_solve(p)
    num_c = find_critical_numeric(sidc).value
    num_b = find_boundary_numeric(sidc).value
    elapsed = time.perf_counter() - t0
    measured["acceptance.c1 closed CSCR"] = closed_c
    measured["acceptance.c1 closed BSCR"] = closed_b
    measured["acceptance.c1 numeric CgSCR"] = num_c
    measured["acceptance.c1 numeric BgSCR"] = num_b
    note_criterion(1, f"closed {closed_c:.4f}/{closed_b:.4f}, numeric {num_c:.4f}/{num_b:.4f}; "
                      f"closed BSCR below band")
    assert 1.9 <= closed_c <= 2.1
    assert 1.9 <= num_c <= 2.1
    assert 2.9 <= num_b <= 3.1
    assert elapsed < 5.0
    # structural: the closed form understates the full-model boundary here
    assert 2.9 <= closed_b <= 3.1


def test_criterion_2(sidc, dual, triple, quad, measured, note_criterion):
    t0 = time.perf_counter()
    worst = 0.0
    for case in (sidc, dual, triple, quad):
        tuned = scale_to_gscr(case, 2.0)
        res = trace_map(tuned)
        for bus, p_sys in zip(reduce_case(tuned).bus_order, res.history[-1].P):
            mw = p_sys * tuned.system_base_mva
            rated = tuned.converter_at(bus).p_dn_mw
            worst = max(worst, 100.0 * abs(mw - rated) / rated)
    elapsed = time.perf_counter() - t0
    measured["acceptance.c2 worst nose-power deviation (pct)"] = worst
    note_criterion(2, f"worst deviation {worst:.3f}% of rated")
    assert worst <= 1.0
    assert elapsed < 60.0


def test_criterion_3(sidc, dual, triple, quad, measured, note_criterion):
    t0 = time.perf_counter()
    worst = 0.0
    for case in (sidc, dual, triple, quad):
        tuned = scale_to_gscr(case, 3.0)
        res = trace_map(tuned)
        for mu in res.mu_at_map:
            worst = max(worst, abs(math.degrees(mu) - 30.0))
    elapsed = time.perf_counter() - t0
    measured["acceptance.c3 worst overlap deviation (deg)"] = worst
    note_criterion(3, f"worst deviation {worst:.3f} deg from 30")
    assert worst <= 1.5
    assert elapsed < 60.0


def test_criterion_4(dual, measured, note_criterion):
    t0 = time.perf_counter()
    rows = sweep_dual_infeed(dual, SWEEP_RATIOS)
    cg = [r.cgscr for r in rows]
    bg = [r.bgscr for r in rows]
    cg_mean = sum(cg) / len(cg)
    bg_mean = sum(bg) / len(bg)
    cg_spread = 100.0 * (max(cg) - min(cg)) / cg_mean
    bg_spread = 100.0 * (max(bg) - min(bg)) / bg_mean
    elapsed = time.perf_counter() - t0
    measured["acceptance.c4 CgSCR spread (pct)"] = cg_spread
    measured["acceptance.c4 BgSCR spread (pct)"] = bg_spread
    note_criterion(4, f"spreads {cg_spread:.2f}%/{bg_spread:.2f}%, "
                      f"means {cg_mean:.3f}/{bg_mean:.3f}")
    assert cg_spread <= 3.0
    assert bg_spread <= 1.5
    assert abs(cg_mean - 2.0) / 2.0 <= 0.05
    assert abs(bg_mean - 3.0) / 3.0 <= 0.05
    assert elapsed < 120.0


def test_criterion_5(rng, note_criterion):
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 11))
        rep = perron_check(case_jacobian(random_case(rng, n)))
        assert rep.positive
        assert rep.perron_positive
        if n > 1:
            assert rep.simple
            assert rep.relative_gap > 1e-9
    elapsed = time.perf_counter() - t0
    note_criterion(5, "200 random networks, n up to 10")
    assert elapsed < 10.0


def test_criterion_6(rng, note_criterion):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        J = extended_jacobian(random_negb(rng, n), rng.uniform(0.4, 2.0, size=n))
        resid = factorization_check(J, float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.0, 2.0)))
        worst = max(worst, resid)
        assert resid <= 1e-8
    note_criterion(6, f"worst residual {worst:.2e} over 100 draws")


def test_criterion_7(rng, note_criterion):
    for z, p_n in ((0.5, 1.0), (0.31, 0.77), (1.7, 2.3)):
        J = extended_jacobian(sus([[-1.0 / z]]), [p_n])
        _, g = compute_gscr(J)
        assert g == pytest.approx(1.0 / (p_n * z), rel=1e-12)
    for _ in range(10):
        J = extended_jacobian(random_negb(rng, 6), rng.uniform(0.4, 2.0, size=6))
        _, g = compute_gscr(J)
        oracle = charpoly_lambda1([list(row) for row in J.matrix])
        assert g == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    note_criterion(7, "collapse exact, 10 six-bus oracle draws")


def test_criterion_8(dual, measured, note_criterion):
    # jacobian vs central differences, blockwise
    prep = prepare(dual)
    orders = 0.9 * prep.rated_orders
    state = newton_solve(prep, orders)
    assert isinstance(state, GridState)
    J = assemble_jacobian(prep, state.delta, state.U, orders)
    fd = fd_full_jacobian(prep, state.delta, state.U, orders)
    n = prep.n
    got = {"J_pd": J[:n, :n], "J_pv": J[:n, n:], "J_qd": J[n:, :n], "J_qv": J[n:, n:]}
    want = {"J_pd": fd[:n, :n], "J_pv": fd[:n, n:], "J_qd": fd[n:, :n], "J_qv": fd[n:, n:]}
    for name in got:
        scale = max(1.0, float(np.max(np.abs(want[name]))))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-5 * scale, name

    # exact converter derivative vs central differences
    p = cigre_params()
    from gridstrength.converter import rated_order
    order = rated_order(p)
    for U in (0.85, 1.0, 1.15):
        bundle = sensitivity_T(solve_state(p, U, order), p)
        expect = fd_central(lambda u: math.tan(solve_state(p, u, order).phi), U, 1e-6)
        assert bundle.dphi_dU_exact == pytest.approx(expect, rel=1e-5)

    # the -2c/U shortcut against the exact derivative at the rated point
    bundle = sensitivity_T(rated_state(p), p)
    gap = 100.0 * abs(bundle.dphi_dU_approx - bundle.dphi_dU_exact) / abs(bundle.dphi_dU_exact)
    measured["acceptance.c8 approximation gap (pct)"] = gap
    note_criterion(8, f"exact paths match FD; -2c/U gap {gap:.2f}% vs 2% band (structural)")
    assert gap <= 2.0


def test_criterion_9(rng, note_criterion):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        case = random_case(rng, n)
        _, base = case_gscr(case)
        s = float(rng.uniform(0.3, 3.0))
        _, scaled = case_gscr(scale_impedance(case, s))
        rel = abs(scaled * s - base) / base
        worst = max(worst, rel)
        assert rel <= 1e-9
    note_criterion(9, f"worst relative drift {worst:.2e} over 50 cases")
