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
B_c is the filter susceptance at rated frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    U_dI: float


class StateDerivatives(NamedTuple):
    """Exact d/dU at fixed power order, along the CP-CEA characteristic."""

    dI_dU: float
    dc_dU: float
    dP_dU: float
    dQ_dU: float


class SensitivityBundle(NamedTuple):
    K_c: float
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
        U_dI=params.a * U * math.cos(g) - params.b * I,
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
        K_c=Kc,
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
