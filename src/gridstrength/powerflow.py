"""AC/DC power flow and continuation to the maximum-available-power point.

State is (delta, U) at the reduced converter buses, angles against the
common source phase.  The balance equations, scaled by 1/U as in the
small-signal model, are

    gP_i = f_i sin(d_i) + sum_{j!=i} B_ij U_j sin(d_i - d_j) - P_ci(U_i)/U_i
    gQ_i = -B_ii U_i - sum_{j!=i} B_ij U_j cos(d_i - d_j) - f_i cos(d_i)
           - Q_ci(U_i)/U_i

with converter injections P_ci, Q_ci resolved through the CP-CEA model at
every iteration (full coupling).  The Newton Jacobian is the exact
derivative of (gP, gQ); the theory sensitivity factor T of the
small-signal model is a diagnostic, computed on demand by
converter.sensitivity_T and never inside Newton.

damped_newton is the one Newton loop in the package: the power flow here,
and source tuning, the fold solve and the closed-form BSCR in boundary,
each pass it a residual and a Jacobian.  They share one line search (the
step is halved until the residual's max-norm falls, within a caller-given
slack, for at most NEWTON_STEP_TRIES step lengths) and one set of stop
reasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .casefile import CaseFile
from .converter import (
    ConverterState,
    LccParams,
    rated_order,
    solve_state,
    state_derivatives,
)
from .errors import ConverterInfeasible, GridStrengthError
from .netmodel import ReducedNetwork, reduce_case

U_BAND = (0.2, 2.0)
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 50
NEWTON_STEP_TRIES = 7       # step lengths 1, 1/2, ..., 1/64 per Newton iteration
LAM0 = 0.1                  # light-start loading factor of the continuation
LAM_LIMIT = 1000.0          # loading factor at which a continuation gives up


@dataclass(frozen=True)
class GridState:
    delta: np.ndarray
    U: np.ndarray
    converter_states: tuple[ConverterState, ...]


@dataclass(frozen=True)
class JacobianBlocks:
    J_pd: np.ndarray
    J_pv: np.ndarray
    J_qd: np.ndarray
    J_qv: np.ndarray

    def full(self) -> np.ndarray:
        top = np.hstack([self.J_pd, self.J_pv])
        bot = np.hstack([self.J_qd, self.J_qv])
        return np.vstack([top, bot])


@dataclass(frozen=True)
class Diverged:
    reason: str
    trace: tuple[float, ...]    # mismatch inf-norms per iteration


@dataclass(frozen=True)
class MapPoint:
    lam: float
    U: tuple[float, ...]
    P: tuple[float, ...]        # system pu, inverter side
    Q: tuple[float, ...]
    mu: tuple[float, ...]       # rad
    sigma_min: float


@dataclass(frozen=True)
class ContinuationResult:
    lambda_max: float
    state_at_map: GridState
    mu_at_map: tuple[float, ...]    # rad
    diverged_at: float
    history: tuple[MapPoint, ...]


@dataclass(frozen=True)
class PreparedCase:
    """Reduced network plus converter constants, reused across solves."""

    case: CaseFile
    net: ReducedNetwork
    converters: tuple[LccParams, ...]
    rated_orders: np.ndarray    # system pu rectifier orders at rated delivery

    @property
    def n(self) -> int:
        return self.net.order


def prepare(case: CaseFile) -> PreparedCase:
    net = reduce_case(case)
    convs = []
    for bus in net.bus_order:
        convs.append(LccParams.from_spec(case.converter_at(bus), case))
    orders = np.array([p.p_dn * rated_order(p) for p in convs])
    return PreparedCase(case=case, net=net, converters=tuple(convs), rated_orders=orders)


def _converter_states(prep: PreparedCase, U: np.ndarray, p_orders: np.ndarray):
    """Local solves per bus; p_orders in system pu.  Raises ConverterInfeasible."""
    states = []
    for i, p in enumerate(prep.converters):
        states.append(solve_state(p, float(U[i]), float(p_orders[i]) / p.p_dn))
    return tuple(states)


def mismatch(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
             p_orders: np.ndarray, states=None):
    """Scaled mismatches (gP, gQ); converter states solved here unless passed in."""
    if states is None:
        states = _converter_states(prep, U, p_orders)
    B = prep.net.B.matrix
    f = prep.net.f
    n = prep.n
    gP = np.zeros(n)
    gQ = np.zeros(n)
    for i in range(n):
        p_sys = states[i].P * prep.converters[i].p_dn
        q_sys = states[i].Q * prep.converters[i].p_dn
        sp = f[i] * math.sin(delta[i])
        sq = -B[i, i] * U[i] - f[i] * math.cos(delta[i])
        for j in range(n):
            if j == i:
                continue
            th = delta[i] - delta[j]
            sp += B[i, j] * U[j] * math.sin(th)
            sq -= B[i, j] * U[j] * math.cos(th)
        gP[i] = sp - p_sys / U[i]
        gQ[i] = sq - q_sys / U[i]
    return gP, gQ, states


def assemble_jacobian(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
                      p_orders: np.ndarray, states=None) -> JacobianBlocks:
    """Exact Jacobian of the scaled mismatches at the given state."""
    if states is None:
        states = _converter_states(prep, U, p_orders)
    B = prep.net.B.matrix
    f = prep.net.f
    n = prep.n
    J_pd = np.zeros((n, n))
    J_pv = np.zeros((n, n))
    J_qd = np.zeros((n, n))
    J_qv = np.zeros((n, n))
    for i in range(n):
        par = prep.converters[i]
        st = states[i]
        der = state_derivatives(par, st)
        p_sys = st.P * par.p_dn
        q_sys = st.Q * par.p_dn
        dp_sys = der.dP_dU * par.p_dn
        dq_sys = der.dQ_dU * par.p_dn
        acc_pd = f[i] * math.cos(delta[i])
        acc_qd = f[i] * math.sin(delta[i])
        for j in range(n):
            if j == i:
                continue
            th = delta[i] - delta[j]
            c, s = math.cos(th), math.sin(th)
            acc_pd += B[i, j] * U[j] * c
            acc_qd += B[i, j] * U[j] * s
            J_pd[i, j] = -B[i, j] * U[j] * c
            J_qd[i, j] = -B[i, j] * U[j] * s
            J_pv[i, j] = B[i, j] * s
            J_qv[i, j] = -B[i, j] * c
        J_pd[i, i] = acc_pd
        J_qd[i, i] = acc_qd
        J_pv[i, i] = (p_sys - U[i] * dp_sys) / U[i] ** 2
        J_qv[i, i] = -B[i, i] + (q_sys - U[i] * dq_sys) / U[i] ** 2
    return JacobianBlocks(J_pd=J_pd, J_pv=J_pv, J_qd=J_qd, J_qv=J_qv)


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    aux: object                 # what resid returned alongside r at x
    norm: float                 # max-norm of r at x
    trace: tuple[float, ...]    # norm at the start and after each accepted step
    reason: str                 # "" when converged, else why the solve stopped


def damped_newton(resid, jac, x, tol: float, max_iter: int, slack: float = 1.0) -> NewtonResult:
    """Newton on resid(x) = 0 with a backtracking line search.

    resid(x) returns (r, aux), or None where x is outside its domain;
    jac(x, aux) returns dr/dx.  Each step is tried at full length and then
    halved, NEWTON_STEP_TRIES lengths in all, until max|r| falls below slack
    times its current value or reaches tol.  Never raises on divergence: the
    reason says why the solve stopped ("infeasible start", "singular
    jacobian", "no acceptable step" or "iteration limit").
    """
    point = resid(x)
    if point is None:
        return NewtonResult(x, None, math.inf, (), "infeasible start")
    r, aux = point
    norm = np.max(np.abs(r))
    trace = [norm]
    for _ in range(max_iter):
        if norm <= tol:
            break
        try:
            dx = np.linalg.solve(jac(x, aux), -r)
        except np.linalg.LinAlgError:
            return NewtonResult(x, aux, norm, tuple(trace), "singular jacobian")
        for alpha in 0.5 ** np.arange(NEWTON_STEP_TRIES):
            x_try = x + alpha * dx
            point = resid(x_try)
            if point is not None:
                norm_try = np.max(np.abs(point[0]))
                if norm_try < slack * norm or norm_try <= tol:
                    break
        else:
            return NewtonResult(x, aux, norm, tuple(trace), "no acceptable step")
        x, (r, aux), norm = x_try, point, norm_try
        trace.append(norm)
    return NewtonResult(x, aux, norm, tuple(trace), "" if norm <= tol else "iteration limit")


def newton_solve(prep: PreparedCase | CaseFile, p_orders, warm: GridState | None = None,
                 tol: float = NEWTON_TOL):
    """Power flow by damped_newton; returns GridState or Diverged (never raises on divergence)."""
    if isinstance(prep, CaseFile):
        prep = prepare(prep)
    p_orders = np.asarray(p_orders, dtype=float)
    n = prep.n
    if p_orders.shape != (n,) or np.any(p_orders < 0):
        raise GridStrengthError("newton_solve: order vector must be nonnegative, one per converter")
    if warm is not None:
        x = np.concatenate([warm.delta, warm.U])
    else:
        x = np.concatenate([np.zeros(n), np.ones(n)])

    def resid(x):
        # a trial outside the U band or without a converter steady state is rejected
        U = x[n:]
        if np.any(U <= U_BAND[0]) or np.any(U >= U_BAND[1]):
            return None
        try:
            gP, gQ, states = mismatch(prep, x[:n], U, p_orders)
        except ConverterInfeasible:
            return None
        return np.concatenate([gP, gQ]), states

    def jac(x, states):
        return assemble_jacobian(prep, x[:n], x[n:], p_orders, states).full()

    # a step may raise the mismatch by 20%: the raw step overshoots the U band
    # at light load with big shunts
    res = damped_newton(resid, jac, x, tol, NEWTON_MAX_ITER, slack=1.2)
    if res.reason:
        return Diverged(reason=res.reason, trace=res.trace)
    return GridState(delta=res.x[:n], U=res.x[n:], converter_states=res.aux)


def _sigma_min(prep, delta, U, p_orders, states) -> float:
    blocks = assemble_jacobian(prep, delta, U, p_orders, states)
    return float(np.linalg.svd(blocks.full(), compute_uv=False)[-1])


def continuation_steps(prep: PreparedCase,
                       step: float = 0.02) -> tuple[list[tuple[float, GridState]], float]:
    """Stepping phase of the continuation: fixed steps in lambda until Newton diverges.

    Orders are lambda times the rated-order vector (loading proportional to
    ratings); each solve warm-starts from the previous accepted state.  When
    the light start itself has no in-band solution (weak grids: the filter
    shunts overvolt an unloaded bus) the start doubles, up to three times,
    before the case is declared infeasible (ConverterInfeasible).  Returns
    the converged (lambda, state) points in order and the first lambda at
    which Newton diverged.
    """

    def solve_at(lam, warm):
        return newton_solve(prep, lam * prep.rated_orders, warm=warm)

    lam0 = LAM0
    state = solve_at(lam0, None)
    while isinstance(state, Diverged) and lam0 * 2.0 < 1.0:
        lam0 *= 2.0
        state = solve_at(lam0, None)
    if isinstance(state, Diverged):
        raise ConverterInfeasible(
            f"trace_map: base case infeasible at lambda = {lam0} ({state.reason})"
        )
    points = [(lam0, state)]
    while True:
        good_lam, good_state = points[-1]
        lam_try = good_lam + step
        if lam_try > LAM_LIMIT:
            raise GridStrengthError(f"trace_map: no divergence below lambda = {LAM_LIMIT}")
        nxt = solve_at(lam_try, good_state)
        if isinstance(nxt, Diverged):
            return points, lam_try
        points.append((lam_try, nxt))


def trace_map(case: CaseFile | PreparedCase, step: float = 0.02,
              bisect_tol: float = 1e-6) -> ContinuationResult:
    """Raise the loading factor until the power flow diverges; bisect the nose.

    The stepping phase is continuation_steps; the nose is then bisected
    between the last converged and the first divergent lambda.
    """
    prep = case if isinstance(case, PreparedCase) else prepare(case)
    history: list[MapPoint] = []

    def record(lam, st):
        history.append(
            MapPoint(
                lam=lam,
                U=tuple(float(u) for u in st.U),
                P=tuple(s.P * p.p_dn for s, p in zip(st.converter_states, prep.converters)),
                Q=tuple(s.Q * p.p_dn for s, p in zip(st.converter_states, prep.converters)),
                mu=tuple(s.mu for s in st.converter_states),
                sigma_min=_sigma_min(prep, st.delta, st.U, lam * prep.rated_orders,
                                     st.converter_states),
            )
        )

    points, bad_lam = continuation_steps(prep, step)
    for lam, st in points:
        record(lam, st)
    good_lam, good_state = points[-1]

    while bad_lam - good_lam > bisect_tol:
        mid = 0.5 * (good_lam + bad_lam)
        nxt = newton_solve(prep, mid * prep.rated_orders, warm=good_state)
        if isinstance(nxt, Diverged):
            bad_lam = mid
        else:
            good_lam, good_state = mid, nxt
            record(good_lam, good_state)

    return ContinuationResult(
        lambda_max=good_lam,
        state_at_map=good_state,
        mu_at_map=tuple(s.mu for s in good_state.converter_states),
        diverged_at=bad_lam,
        history=tuple(history),
    )
