"""LCC inverter steady state under constant-power, constant-extinction-angle control.

All equations live in converter-local per unit (the converter's own rated
power and AC voltage are 1.0).  With

    a = 3 sqrt(2) N K / pi        b = 3 N X / pi

the inverter DC voltage is U_d = a U cos(gamma) - b I and the commutation
ratio is c = X I / (sqrt(2) K U) = (b/a) I / U.  The power order is held
at the rectifier, so the delivered power is P = P_order - I^2 R and the
DC current solves

    (b - R) I^2 - a U cos(gamma) I + P_order = 0        (low root)

The reactive balance is Q = -P tan(phi) + B_c U^2 with cos(phi) = cos(gamma) - c;
B_c is the filter susceptance at rated frequency.  The array form, _constants
to _state_tangent, is this arithmetic element by element on every bus at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile, ConverterSpec
from .errors import ConverterInfeasible, GridStrengthError

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LccParams:
    """Converter constants.  x, r, b_c are converter-base pu; p_dn is system-base pu."""

    p_dn: float
    gamma: float            # extinction angle, rad
    n: int                  # cascaded bridge count
    k: float                # transformer ratio
    x: float                # commutation reactance
    r: float                # DC line resistance
    b_c: float              # shunt compensation susceptance
    bus: str = ""

    def __post_init__(self):
        if not 0.0 < self.gamma < math.pi / 2:
            raise GridStrengthError("gamma must lie in (0, pi/2)")
        if self.n < 1 or self.x <= 0 or self.k <= 0 or self.r < 0 or self.b_c < 0 or self.p_dn <= 0:
            raise GridStrengthError("invalid converter constants")

    @property
    def a(self) -> float:
        return 3.0 * SQRT2 * self.n * self.k / math.pi

    @property
    def b(self) -> float:
        return 3.0 * self.n * self.x / math.pi

    @classmethod
    def from_spec(cls, spec: ConverterSpec, case: CaseFile) -> "LccParams":
        return cls(
            p_dn=case.rating_pu(spec),
            gamma=math.radians(spec.gamma_deg),
            n=spec.n_bridges,
            k=spec.k_ratio,
            x=spec.x_commutation_pu,
            r=spec.r_dc_pu,
            b_c=spec.b_c_pu,
            bus=spec.bus,
        )


class ConverterState(NamedTuple):
    """Solved operating point, converter-local pu; angles in radians."""

    U: float
    I_d: float
    P: float
    Q: float
    phi: float
    mu: float
    c: float
    rho: float


class StateDerivatives(NamedTuple):
    """Exact d/dU at fixed power order, along the CP-CEA characteristic."""

    dI_dU: float
    dc_dU: float
    dP_dU: float
    dQ_dU: float


class SensitivityBundle(NamedTuple):
    T: float
    dphi_dU_exact: float    # d(tan phi)/dU through the exact dc/dU
    dphi_dU_approx: float   # -2 c K(c) / U


def k_of_c(c: float, gamma: float) -> float:
    """K(c) = 1 / (cos^2(phi) sin(phi)) with cos(phi) = cos(gamma) - c."""
    cphi = math.cos(gamma) - c
    if not 0.0 < cphi < 1.0:
        raise GridStrengthError(f"k_of_c: cos(gamma) - c = {cphi:.6g} outside (0, 1)")
    sphi = math.sqrt(1.0 - cphi * cphi)
    return 1.0 / (cphi * cphi * sphi)


def overlap_angle(state: ConverterState, params: LccParams) -> float:
    """mu = arccos(cos(gamma) - 2c) - gamma, radians."""
    arg = math.cos(params.gamma) - 2.0 * state.c
    if not -1.0 < arg <= 1.0:
        raise ConverterInfeasible("overlap angle out of range", params.bus or None)
    return math.acos(arg) - params.gamma


def solve_state(params: LccParams, U: float, p_order: float) -> ConverterState:
    """Solve the steady state at AC voltage U and rectifier order p_order (local pu).

    Picks the low-current root, the branch continuous with I -> 0 at zero
    order.  Raises ConverterInfeasible when the voltage cannot deliver the
    order (callers treat that as the MAP side of the nose) or when the
    overlap angle leaves its domain.
    """
    if U <= 0:
        raise GridStrengthError("solve_state: U must be positive")
    if p_order < 0:
        raise GridStrengthError("solve_state: p_order must be nonnegative")
    g = params.gamma
    A = params.b - params.r
    Bq = params.a * U * math.cos(g)
    disc = Bq * Bq - 4.0 * A * p_order
    if disc < 0.0:
        raise ConverterInfeasible(
            f"no real root at U = {U:.6g}, order = {p_order:.6g}", params.bus or None
        )
    # q-form keeps the low root stable for any sign of (b - R), including 0
    I = 2.0 * p_order / (Bq + math.sqrt(disc))
    c = (params.b / params.a) * I / U
    cphi = math.cos(g) - c
    if cphi <= 0.0:
        raise ConverterInfeasible("power factor angle reached 90 deg", params.bus or None)
    mu_arg = math.cos(g) - 2.0 * c
    if not -1.0 < mu_arg <= 1.0:
        raise ConverterInfeasible("overlap angle out of range", params.bus or None)
    P = p_order - I * I * params.r
    sphi = math.sqrt(1.0 - cphi * cphi)
    Q = -P * sphi / cphi + params.b_c * U * U
    return ConverterState(
        U=U,
        I_d=I,
        P=P,
        Q=Q,
        phi=math.acos(cphi),
        mu=math.acos(mu_arg) - g,
        c=c,
        rho=P / (U * U),
    )


def state_derivatives(params: LccParams, state: ConverterState) -> StateDerivatives:
    """Exact voltage derivatives at fixed order, from the current quadratic."""
    U, I, c = state.U, state.I_d, state.c
    g = params.gamma
    if I == 0.0:
        return StateDerivatives(0.0, 0.0, 0.0, 2.0 * params.b_c * U)
    A = params.b - params.r
    denom = 2.0 * A * I - params.a * U * math.cos(g)
    # at the low root denom = -sqrt(disc) < 0; it vanishes only at the nose
    dI = params.a * math.cos(g) * I / denom
    dc = c * (dI / I - 1.0 / U)
    dP = -2.0 * I * dI * params.r
    cphi = math.cos(g) - c
    sphi = math.sqrt(1.0 - cphi * cphi)
    Kc = 1.0 / (cphi * cphi * sphi)
    dQ = -dP * sphi / cphi - state.P * Kc * dc + 2.0 * params.b_c * U
    return StateDerivatives(dI_dU=dI, dc_dU=dc, dP_dU=dP, dQ_dU=dQ)


def sensitivity_T(state: ConverterState, params: LccParams) -> SensitivityBundle:
    """T = 2 c K(c) + 2 B_c U^2 / P plus both tan(phi) voltage derivatives."""
    if state.P <= 0.0:
        raise GridStrengthError("sensitivity_T: converter power must be positive")
    Kc = k_of_c(state.c, params.gamma)
    T = 2.0 * state.c * Kc + 2.0 * params.b_c * state.U**2 / state.P
    d = state_derivatives(params, state)
    return SensitivityBundle(
        T=T,
        dphi_dU_exact=Kc * d.dc_dU,
        dphi_dU_approx=-2.0 * state.c * Kc / state.U,
    )


def rated_current(params: LccParams) -> float:
    """Low root of b I^2 - a cos(gamma) I + 1 = 0: delivered power 1 at U = 1."""
    Bq = params.a * math.cos(params.gamma)
    disc = Bq * Bq - 4.0 * params.b
    if disc < 0:
        raise GridStrengthError("converter cannot deliver rated power at rated voltage")
    return 2.0 / (Bq + math.sqrt(disc))


def rated_order(params: LccParams) -> float:
    """Rectifier order that delivers exactly rated power at U = 1 (local pu)."""
    I_N = rated_current(params)
    return 1.0 + I_N * I_N * params.r


def rated_state(params: LccParams) -> ConverterState:
    return solve_state(params, 1.0, rated_order(params))


class _ConverterArrays(NamedTuple):
    """LccParams of every bus as arrays; converter-base pu except p_dn."""

    p_dn: np.ndarray
    a: np.ndarray
    b_over_a: np.ndarray
    cos_g: np.ndarray
    acg: np.ndarray         # a cos(gamma)
    gamma: np.ndarray
    A4: np.ndarray          # 4 (b - r), the current quadratic's leading coefficient times 4
    r: np.ndarray
    wbc: np.ndarray         # omega b_c


class _Orders(NamedTuple):
    """The orders and the quadratic's terms in them alone: once per newton_solve, else per call."""

    orders: np.ndarray      # system pu
    p: np.ndarray           # converter pu
    p2: np.ndarray          # 2 p
    A4p: np.ndarray         # 4 (b - r) p
    valid: bool             # p >= 0 and, in a record for one call, U > 0 on every bus


class _ConverterPoint(NamedTuple):
    """Every converter at one (U, orders), converter pu: the low root and what follows from it."""

    U: np.ndarray
    I: np.ndarray
    cphi: np.ndarray
    sphi: np.ndarray
    root: np.ndarray        # sqrt of the quadratic's discriminant
    P: np.ndarray
    mQ: np.ndarray          # -Q, which saves a negation in Q and in gQ


# LccParams' lower bounds in _constants' rows (x <= 0 is x < 5e-324); nan passes, as there
_LOWER = np.array([5e-324, 5e-324, 1.0, 5e-324, 5e-324, 0.0, 0.0])[:, None]


def _lcc_params(case: CaseFile, buses) -> tuple[LccParams, ...]:
    return tuple(LccParams.from_spec(case.converter_at(bus), case) for bus in buses)


def _constants(case: CaseFile, buses) -> tuple[_ConverterArrays, np.ndarray]:
    """LccParams' constants and rated_order, in system pu, for every bus at once.

    The arithmetic is LccParams' and rated_current's, element by element, so
    the constants are bitwise theirs.  Where a converter is outside their
    domain the per-bus constructors run, and the first failure raises.
    """
    # ConverterSpec's fields p_dn_mw .. b_c_pu, one row each
    rows = chain.from_iterable([s[1:8] for s in map(case.converter_at, buses)])
    C = np.fromiter(rows, float).reshape(-1, 7).T.copy()
    C[0] /= case.system_base_mva
    np.radians(C[1], out=C[1])
    p_dn, gamma, nb, k, x, r, b_c = C
    # math.cos, not np.cos: numpy's vector cos may round differently from libm's
    cos_g = np.array([math.cos(g) for g in gamma.tolist()])
    a = 3.0 * SQRT2 * nb * k / math.pi
    b = 3.0 * nb * x / math.pi
    Bq = a * cos_g
    disc = Bq * Bq - 4.0 * b
    if (C < _LOWER).any() or not (gamma < math.pi / 2).all() or (disc < 0.0).any():
        for p in _lcc_params(case, buses):
            rated_order(p)
        raise AssertionError("unreachable: the per-bus constructors raise on the same bus")
    I_N = 2.0 / (Bq + np.sqrt(disc))
    consts = _ConverterArrays(p_dn=p_dn, a=a, b_over_a=b / a, cos_g=cos_g, acg=Bq,
                              gamma=gamma, A4=4.0 * (b - r), r=r, wbc=b_c)   # omega = 1
    return consts, p_dn * (1.0 + I_N * I_N * r)


def _order_terms(k: _ConverterArrays, p_orders: np.ndarray, U=None) -> _Orders:
    p = p_orders / k.p_dn
    # min() is nan, and each test false, when an input is nan
    valid = p.min() >= 0.0 and (U is None or U.min() > 0.0)
    return _Orders(p_orders, p, 2.0 * p, k.A4 * p, valid)


def _solve_converters(k: _ConverterArrays, U: np.ndarray, o: _Orders, params) -> _ConverterPoint:
    """Every converter at once: the low root of the current quadratic.

    The arithmetic and the domain checks are solve_state's, element by
    element, so a bus fails here exactly where solve_state fails on it.  On a
    failure, and only then, params() gives the LccParams per bus, the per-bus
    solves run in bus order, and the first failing one raises its reason and bus.
    """
    Bq = k.a * U * k.cos_g
    disc = Bq * Bq - o.A4p
    # U > 0 is in o.valid or newton_solve's band; min() is nan, each test false, on nan
    if o.valid and disc.min() >= 0.0:
        root = np.sqrt(disc)
        I = o.p2 / (Bq + root)
        c = k.b_over_a * I / U
        cphi = k.cos_g - c
        # as c >= 0 and cos(gamma) <= 1, this gives -1 < cos(gamma) - 2c <= 1 too
        if cphi.min() > 0.0:
            P = o.p - I * I * k.r
            sphi = np.sqrt(1.0 - cphi * cphi)
            mQ = P * sphi / cphi - k.wbc * U * U
            return _ConverterPoint(U, I, cphi, sphi, root, P, mQ)
    _solve_converters_loop(params(), U, o.orders)
    raise AssertionError("unreachable: the per-bus solves raise on the same bus")


def _solve_converters_loop(params, U: np.ndarray, p_orders: np.ndarray):
    """Local solves per bus; p_orders in system pu.  Raises ConverterInfeasible."""
    states = []
    for i, p in enumerate(params):
        states.append(solve_state(p, float(U[i]), float(p_orders[i]) / p.p_dn))
    return tuple(states)


def _point_states(k: _ConverterArrays, t: _ConverterPoint) -> tuple[ConverterState, ...]:
    """t as one ConverterState per bus, for output."""
    c = k.b_over_a * t.I / t.U
    cols = (t.U, t.I, t.P, -t.mQ, np.arccos(t.cphi), np.arccos(k.cos_g - 2.0 * c) - k.gamma, c,
            t.P / (t.U * t.U))
    return tuple(map(ConverterState._make, zip(*(col.tolist() for col in cols))))


def _converter_slopes(k: _ConverterArrays, t: _ConverterPoint) -> tuple:
    """-dI/dU, -dc/dU, dP/dU and -dQ/dU at fixed order at the point t.

    At the low root 2 (b - r) I - a U cos(gamma) = -root.
    """
    ndI = k.acg * t.I / t.root
    ndc = k.b_over_a * (ndI + t.I / t.U) / t.U
    dP = 2.0 * t.I * ndI * k.r
    ndQ = dP * t.sphi / t.cphi - t.P * ndc / (t.cphi * t.cphi * t.sphi) - 2.0 * k.wbc * t.U
    return ndI, ndc, dP, ndQ


def _state_tangent(k: _ConverterArrays, t: _ConverterPoint, dU, dp) -> tuple:
    """Derivative along (dU, dp) of P, -Q, dP/dU and -dQ/dU at t, then dP/dU and -dQ/dU.

    dp is in converter pu.  The quadratic gives dI = (dp - a cos(gamma) I dU) / root,
    so dI/dp = 1 / root; the rest follows by the chain rule, as in _converter_slopes.
    """
    U, I, P, cphi, sphi, root = t.U, t.I, t.P, t.cphi, t.sphi, t.root
    ndI, ndc, dP, ndQ = _converter_slopes(k, t)
    tan, K = sphi / cphi, 1.0 / (cphi * cphi * sphi)    # d tan = K dc
    d_root = (k.acg * k.acg * U * dU - 0.5 * k.A4 * dp) / root
    d_I = (dp - k.acg * I * dU) / root
    d_c = k.b_over_a * (d_I - I * dU / U) / U
    d_P = dp - 2.0 * k.r * I * d_I
    d_mQ = d_P * tan + P * K * d_c - 2.0 * k.wbc * U * dU
    d_K = K * d_c * (2.0 / cphi - cphi / (sphi * sphi))
    d_ndI = k.acg * (d_I - I * d_root / root) / root
    d_ndc = k.b_over_a * (d_ndI + (d_I - 2.0 * I * dU / U) / U - ndI * dU / U) / U
    d_dP = 2.0 * k.r * (d_I * ndI + I * d_ndI)
    d_ndQ = (d_dP * tan + dP * K * d_c - K * (d_P * ndc + P * d_ndc) - P * ndc * d_K
             - 2.0 * k.wbc * dU)
    return d_P, d_mQ, d_dP, d_ndQ, dP, ndQ
