"""LCC steady state: quadratic root against a bisection oracle, angle
identities, sensitivity quantities against finite differences."""

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridstrength.converter import (
    ConverterState,
    LccParams,
    k_of_c,
    overlap_angle,
    rated_current,
    rated_order,
    rated_state,
    sensitivity_T,
    solve_state,
    state_derivatives,
)
from gridstrength.errors import ConverterInfeasible, GridStrengthError

from oracles import bisect_low_root, fd_central


def cigre_params(**overrides):
    base = dict(
        p_dn=1.0,
        gamma=math.radians(15.0),
        n=2,
        k=0.4196,
        x=0.0528,
        r=0.01,
        b_c=0.5093,
    )
    base.update(overrides)
    return LccParams(**base)


def state_with_c(c, gamma_deg=15.0):
    """Bare state carrying only the fields overlap_angle reads."""
    return ConverterState(U=1.0, I_d=0.0, P=0.0, Q=0.0, phi=0.0, mu=0.0,
                          c=c, rho=0.0), cigre_params(gamma=math.radians(gamma_deg))


# ------------------------------------------------------------------ solving

def test_zero_order_limit():
    p = cigre_params()
    st0 = solve_state(p, 1.0, 0.0)
    assert st0.I_d == 0.0
    assert st0.c == 0.0
    # acos(cos g) - g leaves ~5e-17 of roundoff
    assert st0.mu == pytest.approx(0.0, abs=1e-12)
    assert st0.P == 0.0
    assert math.cos(st0.phi) == pytest.approx(math.cos(p.gamma), abs=1e-15)
    assert st0.Q == pytest.approx(p.b_c, abs=1e-15)  # U = 1


def test_rated_current_against_bisection_oracle():
    p = cigre_params()
    order = rated_order(p)
    got = solve_state(p, 1.0, order).I_d

    def quadratic(i):
        return (p.b - p.r) * i * i - p.a * math.cos(p.gamma) * i + order

    hi = p.a * math.cos(p.gamma) / (2.0 * (p.r + p.b))
    expect = bisect_low_root(quadratic, 0.0, hi)
    assert got == pytest.approx(expect, abs=1e-8)


@given(st.floats(0.7, 1.3), st.floats(0.05, 0.95))
def test_low_root_against_oracle_across_loadings(U, frac):
    p = cigre_params()
    p_max = (p.a * U * math.cos(p.gamma)) ** 2 / (4.0 * (p.b - p.r))
    order = frac * p_max
    got = solve_state(p, U, order).I_d

    def quadratic(i):
        return (p.b - p.r) * i * i - p.a * U * math.cos(p.gamma) * i + order

    hi = p.a * U * math.cos(p.gamma) / (2.0 * (p.r + p.b))
    expect = bisect_low_root(quadratic, 0.0, hi)
    assert got == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_no_real_root_below_discriminant_voltage():
    p = cigre_params()
    order = rated_order(p)
    u_zero = 2.0 * math.sqrt((p.b - p.r) * order) / (p.a * math.cos(p.gamma))
    with pytest.raises(ConverterInfeasible):
        solve_state(p, 0.99 * u_zero, order)
    st_ok = solve_state(p, 1.01 * u_zero, order)
    assert st_ok.I_d > 0


def test_order_beyond_map_at_rated_voltage():
    p = cigre_params()
    p_max = (p.a * math.cos(p.gamma)) ** 2 / (4.0 * (p.b - p.r))
    with pytest.raises(ConverterInfeasible):
        solve_state(p, 1.0, 1.01 * p_max)


def test_input_validation():
    p = cigre_params()
    with pytest.raises(GridStrengthError):
        solve_state(p, 0.0, 1.0)
    with pytest.raises(GridStrengthError):
        solve_state(p, 1.0, -0.1)
    with pytest.raises(GridStrengthError):
        cigre_params(gamma=0.0)
    with pytest.raises(GridStrengthError):
        cigre_params(x=-0.05)


@given(st.floats(0.7, 1.3), st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9)))
def test_current_monotone_in_order(U, fracs):
    p = cigre_params()
    lo, hi = sorted(fracs)
    if hi - lo < 1e-6:
        return
    p_max = (p.a * U * math.cos(p.gamma)) ** 2 / (4.0 * (p.b - p.r))
    i_lo = solve_state(p, U, lo * p_max).I_d
    i_hi = solve_state(p, U, hi * p_max).I_d
    assert i_lo < i_hi


@given(st.floats(0.7, 1.3), st.floats(0.05, 0.95))
def test_power_factor_identity(U, frac):
    p = cigre_params()
    p_max = (p.a * U * math.cos(p.gamma)) ** 2 / (4.0 * (p.b - p.r))
    stt = solve_state(p, U, frac * p_max)
    assert math.cos(stt.phi) == pytest.approx(math.cos(p.gamma) - stt.c, abs=1e-12)
    # reactive balance rebuilt from the state's own fields
    q = -stt.P * math.tan(stt.phi) + p.b_c * U * U
    assert stt.Q == pytest.approx(q, abs=1e-12)


def test_rated_point_is_exactly_rated():
    p = cigre_params()
    stt = rated_state(p)
    assert stt.U == 1.0
    assert stt.P == pytest.approx(1.0, abs=1e-12)
    assert stt.rho == pytest.approx(1.0, abs=1e-12)
    i_n = rated_current(p)
    assert rated_order(p) == pytest.approx(1.0 + i_n * i_n * p.r, abs=1e-15)


# ------------------------------------------------------------------- angles

def test_overlap_thirty_degrees_exact():
    g = math.radians(15.0)
    c = 0.5 * (math.cos(g) - math.cos(g + math.pi / 6.0))
    assert c == pytest.approx(0.129410, abs=1e-6)
    stt, p = state_with_c(c)
    assert overlap_angle(stt, p) == pytest.approx(math.pi / 6.0, abs=1e-12)


def test_overlap_zero_at_zero_c():
    stt, p = state_with_c(0.0)
    assert overlap_angle(stt, p) == pytest.approx(0.0, abs=1e-12)


def test_overlap_against_mpmath():
    stt, p = state_with_c(0.10, gamma_deg=18.0)
    with mpmath.workdps(50):
        expect = float(mpmath.acos(mpmath.cos(mpmath.radians(18)) - mpmath.mpf(2) / 10)
                       - mpmath.radians(18))
    assert overlap_angle(stt, p) == pytest.approx(expect, abs=1e-12)


def test_overlap_domain_violation():
    stt, p = state_with_c(0.999)
    with pytest.raises(ConverterInfeasible):
        overlap_angle(stt, p)


# -------------------------------------------------------------- sensitivity

def test_k_of_c_closed_value():
    # gamma = 0, c chosen so cos(phi) = 1/sqrt(2): K = 2 sqrt(2)
    assert k_of_c(0.292893, 0.0) == pytest.approx(2.828427, abs=1e-5)
    assert k_of_c(1.0 - 1.0 / math.sqrt(2.0), 0.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_k_of_c_domain():
    with pytest.raises(GridStrengthError):
        k_of_c(-0.1, 0.0)  # cos(phi) would exceed 1
    with pytest.raises(GridStrengthError):
        k_of_c(1.0, 0.0)


def test_k_of_c_grows_toward_unity_cosine():
    # K has a minimum at cos(phi) = sqrt(2/3); stay on the near-unity side
    # of it, which is the regime the strength boundaries live in
    g = math.radians(15.0)
    samples = [k_of_c(c, g) for c in (0.14, 0.1, 0.05, 0.02, 0.01)]
    assert samples == sorted(samples)  # K rises as cos(phi) -> 1


@given(st.floats(math.radians(5.0), math.radians(40.0)), st.floats(0.15, 0.9))
def test_k_of_c_is_tan_phi_derivative(gamma, cphi):
    c = math.cos(gamma) - cphi
    if c <= 1e-3:
        return

    def tan_phi(cc):
        return math.tan(math.acos(math.cos(gamma) - cc))

    expect = fd_central(tan_phi, c, 1e-6)
    assert k_of_c(c, gamma) == pytest.approx(expect, rel=1e-6)


def test_sensitivity_vanishes_without_compensation():
    p = cigre_params(b_c=0.0)
    stt = solve_state(p, 1.0, 1e-8)
    bundle = sensitivity_T(stt, p)
    assert bundle.T == pytest.approx(0.0, abs=1e-5)


def test_rated_T_golden():
    # frozen on first run; the closed-form critical ratio it implies must be
    # near 2 for the calibration to make sense
    p = cigre_params()
    bundle = sensitivity_T(rated_state(p), p)
    assert bundle.T == pytest.approx(1.50296, abs=1e-3)
    cscr = 0.5 * (bundle.T + math.sqrt(bundle.T**2 + 4.0))
    assert 1.9 <= cscr <= 2.1


def test_sensitivity_requires_positive_power():
    p = cigre_params()
    st0 = solve_state(p, 1.0, 0.0)
    with pytest.raises(GridStrengthError):
        sensitivity_T(st0, p)


def test_dphi_exact_matches_finite_difference():
    p = cigre_params()
    order = rated_order(p)
    for U in (0.85, 1.0, 1.15):
        stt = solve_state(p, U, order)
        bundle = sensitivity_T(stt, p)

        def tan_phi(u):
            return math.tan(solve_state(p, u, order).phi)

        expect = fd_central(tan_phi, U, 1e-6)
        assert bundle.dphi_dU_exact == pytest.approx(expect, rel=1e-5)


# The -2c/U shortcut behind T treats the converter current as a pure 1/U
# profile.  At this commutation reactance the exact slope is -1.20/U, so the
# shortcut misses the exact tan(phi) derivative by 9.1 pct at the rated point
# and the (P/U) T rebuild of dQ/dU by 2.3 pct.  The regression tests pin those
# gaps so a silent change in either path shows up; the band tests keep the
# 2 pct target on record as the expected failure it is at this calibration.

def _dphi_gap_pct():
    p = cigre_params()
    bundle = sensitivity_T(rated_state(p), p)
    return 100.0 * abs(bundle.dphi_dU_approx - bundle.dphi_dU_exact) / abs(bundle.dphi_dU_exact)


def _dq_gap_pct():
    # finite-difference dQ/dU along CP-CEA against the (P/U) T reconstruction
    p = cigre_params()
    order = rated_order(p)
    stt = solve_state(p, 1.0, order)
    bundle = sensitivity_T(stt, p)

    def q_of(u):
        return solve_state(p, u, order).Q

    fd = fd_central(q_of, 1.0, 1e-6)
    theory = (stt.P / stt.U) * bundle.T
    return 100.0 * abs(fd - theory) / abs(fd)


def test_dphi_approximation_gap_regression(measured):
    gap = _dphi_gap_pct()
    measured["converter.dphi_dU approx-vs-exact gap at rated (pct)"] = gap
    assert gap == pytest.approx(9.117056, abs=1e-4)


def test_dq_du_reconstruction_gap_regression(measured):
    gap = _dq_gap_pct()
    measured["converter.dQ_dU theory-vs-fd gap at rated (pct)"] = gap
    assert gap == pytest.approx(2.288970, abs=1e-4)


@pytest.mark.xfail(strict=True, reason="structural 9.1 pct at this reactance")
def test_dphi_approximation_band_at_rated():
    assert _dphi_gap_pct() <= 2.0


@pytest.mark.xfail(strict=True, reason="structural 2.3 pct at this reactance")
def test_dq_du_reconstruction_band_at_rated():
    assert _dq_gap_pct() <= 2.0


def test_zero_current_derivatives():
    p = cigre_params()
    st0 = solve_state(p, 1.0, 0.0)
    d = state_derivatives(p, st0)
    assert (d.dI_dU, d.dc_dU, d.dP_dU) == (0.0, 0.0, 0.0)
    assert d.dQ_dU == pytest.approx(2.0 * p.b_c, abs=1e-15)


def test_state_derivatives_match_finite_differences():
    p = cigre_params()
    order = 0.8 * rated_order(p)
    stt = solve_state(p, 1.05, order)
    d = state_derivatives(p, stt)
    for name, got in (("I_d", d.dI_dU), ("c", d.dc_dU), ("P", d.dP_dU), ("Q", d.dQ_dU)):
        expect = fd_central(lambda u, f=name: getattr(solve_state(p, u, order), f), 1.05, 1e-6)
        assert got == pytest.approx(expect, rel=1e-6, abs=1e-9), name
