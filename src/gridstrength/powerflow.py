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

mismatch and assemble_jacobian are the power-flow kernel.  Above SMALL_N
buses they work on whole arrays, in the array form of MATPOWER's dSbus_dV
(Zimmerman et al., IEEE TPWRS 26(1), 2011): the current quadratic is
solved for every converter at once (low root, with solve_state's
arithmetic element by element), the residual comes from the products
B (U cos d) and B (U sin d), and the Jacobian fills one 2n x 2n array from
B o cos(d_i - d_j) and B o sin(d_i - d_j) plus an exact converter diagonal.
At SMALL_N buses or fewer numpy's fixed cost per call outweighs the O(n^2)
work, so the kernel runs per-bus loops over solve_state and
state_derivatives instead.  mismatch returns the converter terms it
solved; callers hand them to assemble_jacobian at the same point, and
converter_states turns them into ConverterState records for output.

damped_newton is the one Newton loop in the package: the power flow here,
and source tuning, the fold solve and the closed-form BSCR in boundary,
each pass it a residual and a Jacobian.  They share one line search (the
step is halved until the residual's max-norm falls, within a caller-given
slack, for the NEWTON_STEPS lengths) and one set of stop reasons.  The
step lengths are a constant tuple and the norm one max over |r|, so at
small n an iteration costs little beyond the caller's residual and Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
NEWTON_STEPS = tuple(0.5 ** k for k in range(NEWTON_STEP_TRIES))
LAM0 = 0.1                  # light-start loading factor of the continuation
LAM_STEP = 0.02             # loading-factor step of the continuation's stepping phase
LAM_LIMIT = 1000.0          # loading factor at which a continuation gives up
# largest bus count the kernel runs as per-bus loops: up to here numpy's fixed
# cost per call is at least the loops' O(n^2) work (break-even at n = 3-4)
SMALL_N = 4


@dataclass(frozen=True)
class GridState:
    delta: np.ndarray
    U: np.ndarray
    converter_states: tuple[ConverterState, ...]


@dataclass(frozen=True)
class Diverged:
    reason: str
    trace: tuple[float, ...]    # mismatch inf-norms per iteration


@dataclass(frozen=True)
class MapPoint:
    lam: float
    delta: tuple[float, ...]    # rad
    U: tuple[float, ...]
    P: tuple[float, ...]        # system pu, inverter side
    Q: tuple[float, ...]
    mu: tuple[float, ...]       # rad


@dataclass(frozen=True)
class ContinuationResult:
    lambda_max: float
    state_at_map: GridState
    mu_at_map: tuple[float, ...]    # rad
    diverged_at: float
    history: tuple[MapPoint, ...]


class _ConverterArrays(NamedTuple):
    """LccParams of every bus as arrays; converter-base pu except p_dn."""

    p_dn: np.ndarray
    a: np.ndarray
    b: np.ndarray
    b_over_a: np.ndarray
    cos_g: np.ndarray
    gamma: np.ndarray
    A: np.ndarray           # b - r, the current quadratic's leading coefficient
    r: np.ndarray
    wbc: np.ndarray         # omega b_c


class _ArrayTerms(NamedTuple):
    """Converter solution at every bus, converter-local pu (array path)."""

    U: np.ndarray
    I: np.ndarray
    c: np.ndarray
    cphi: np.ndarray
    sphi: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    mu_arg: np.ndarray      # cos(gamma) - 2c
    Bq: np.ndarray          # a U cos(gamma)
    root: np.ndarray        # sqrt of the quadratic's discriminant


@dataclass(frozen=True)
class PreparedCase:
    """Reduced network plus converter constants, reused across solves."""

    net: ReducedNetwork
    converters: tuple[LccParams, ...]
    rated_orders: np.ndarray    # system pu rectifier orders at rated delivery
    consts: _ConverterArrays

    @property
    def n(self) -> int:
        return self.net.order


def prepare(case: CaseFile) -> PreparedCase:
    net = reduce_case(case)
    convs = tuple(LccParams.from_spec(case.converter_at(bus), case) for bus in net.bus_order)
    orders = np.array([p.p_dn * rated_order(p) for p in convs])
    table = np.array([(p.p_dn, p.a, p.b, p.b / p.a, math.cos(p.gamma), p.gamma,
                       p.b - p.r, p.r, p.omega * p.b_c) for p in convs]).T.copy()
    return PreparedCase(net=net, converters=convs, rated_orders=orders,
                        consts=_ConverterArrays(*table))


def _solve_converters(prep: PreparedCase, U: np.ndarray, p_orders: np.ndarray) -> _ArrayTerms:
    """Every converter at once: the low root of the current quadratic.

    The arithmetic and the domain checks are solve_state's, element by
    element, so a bus fails here exactly where solve_state fails on it.  On
    a failure the per-bus solves run in bus order, and the first failing
    one raises its ConverterInfeasible reason and bus name.
    """
    k = prep.consts
    p = p_orders / k.p_dn
    Bq = k.a * U * k.cos_g
    disc = Bq * Bq - 4.0 * k.A * p
    # min() is nan, and every test below false, when an input is nan
    if U.min() > 0.0 and p.min() >= 0.0 and disc.min() >= 0.0:
        root = np.sqrt(disc)
        I = 2.0 * p / (Bq + root)
        c = k.b_over_a * I / U
        cphi = k.cos_g - c
        mu_arg = k.cos_g - 2.0 * c      # <= 1, as c >= 0
        if cphi.min() > 0.0 and mu_arg.min() > -1.0:
            P = p - I * I * k.r
            sphi = np.sqrt(1.0 - cphi * cphi)
            Q = -P * sphi / cphi + k.wbc * U * U
            return _ArrayTerms(U, I, c, cphi, sphi, P, Q, mu_arg, Bq, root)
    _solve_converters_loop(prep, U, p_orders)
    raise AssertionError("unreachable: the per-bus solves raise on the same bus")


def _solve_converters_loop(prep: PreparedCase, U: np.ndarray, p_orders: np.ndarray):
    """Local solves per bus; p_orders in system pu.  Raises ConverterInfeasible."""
    states = []
    for i, p in enumerate(prep.converters):
        states.append(solve_state(p, float(U[i]), float(p_orders[i]) / p.p_dn))
    return tuple(states)


def converter_states(prep: PreparedCase, conv) -> tuple[ConverterState, ...]:
    """The converter terms mismatch returned, as one ConverterState per bus (for output)."""
    if not isinstance(conv, _ArrayTerms):
        return conv     # the per-bus path solved ConverterState records already
    k = prep.consts
    cols = (conv.U, conv.I, conv.P, conv.Q, np.arccos(conv.cphi),
            np.arccos(conv.mu_arg) - k.gamma, conv.c, conv.P / (conv.U * conv.U),
            conv.Bq - k.b * conv.I)
    return tuple(ConverterState(*row) for row in zip(*(col.tolist() for col in cols)))


def mismatch(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
             p_orders: np.ndarray, conv=None):
    """Scaled mismatches (gP, gQ) and the converter terms they used.

    The converter terms are solved here unless conv passes in what an
    earlier call returned at the same U and orders.
    """
    if prep.n <= SMALL_N:
        return _mismatch_loop(prep, delta, U, p_orders, conv)
    if conv is None:
        conv = _solve_converters(prep, U, p_orders)
    B = prep.net.B.matrix
    f = prep.net.f
    p_dn = prep.consts.p_dn
    cos_d, sin_d = np.cos(delta), np.sin(delta)
    # sum_j B_ij U_j cos(d_i - d_j) and sin(d_i - d_j), the j = i term included
    bc, bs = B @ (U * cos_d), B @ (U * sin_d)
    gP = f * sin_d + (sin_d * bc - cos_d * bs) - conv.P * p_dn / U
    gQ = -(cos_d * bc + sin_d * bs) - f * cos_d - conv.Q * p_dn / U
    return gP, gQ, conv


def _mismatch_loop(prep, delta, U, p_orders, states):
    if states is None:
        states = _solve_converters_loop(prep, U, p_orders)
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
                      p_orders: np.ndarray, conv=None) -> np.ndarray:
    """Exact Jacobian of (gP, gQ) in (delta, U), as [[dgP/dd, dgP/dU], [dgQ/dd, dgQ/dU]].

    conv is what mismatch returned at the same point, or None to solve it here.
    """
    if prep.n <= SMALL_N:
        return _jacobian_loop(prep, delta, U, p_orders, conv)
    if conv is None:
        conv = _solve_converters(prep, U, p_orders)
    n = prep.n
    B = prep.net.B.matrix
    f = prep.net.f
    k, t = prep.consts, conv
    e = np.exp(1j * delta)
    W = B * (e[:, None] * e.conj())     # B_ij e^{j (d_i - d_j)}
    C, S = W.real, W.imag
    J = np.empty((2 * n, 2 * n))
    np.multiply(C, -U, out=J[:n, :n])
    np.multiply(S, -U, out=J[n:, :n])
    J[:n, n:] = S
    np.negative(C, out=J[n:, n:])
    # converter slopes at fixed order; 2 A I - a U cos(gamma) = -root at the low root
    dI = -k.a * k.cos_g * t.I / t.root
    dc = k.b_over_a * (dI - t.I / U) / U
    dP = -2.0 * t.I * dI * k.r
    dQ = -dP * t.sphi / t.cphi - t.P * dc / (t.cphi * t.cphi * t.sphi) + 2.0 * k.wbc * U
    # block diagonals as strided views of the flat J; the products above left
    # -C_ii U_i on the angle diagonals, and W @ U sums over every j
    WU = W @ U
    flat, s, m = J.reshape(-1), 2 * n + 1, 2 * n * n
    flat[:n * s:s] += f * e.real + WU.real          # dgP/dd
    flat[m::s] += f * e.imag + WU.imag              # dgQ/dd
    flat[n:n * s:s] = k.p_dn * (t.P - U * dP) / (U * U)                # dgP/dU
    flat[m + n::s] = k.p_dn * (t.Q - U * dQ) / (U * U) - B.diagonal()  # dgQ/dU
    return J


def _jacobian_loop(prep, delta, U, p_orders, states):
    if states is None:
        states = _solve_converters_loop(prep, U, p_orders)
    B = prep.net.B.matrix
    f = prep.net.f
    n = prep.n
    J = np.zeros((2 * n, 2 * n))
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
            J[i, j] = -B[i, j] * U[j] * c
            J[n + i, j] = -B[i, j] * U[j] * s
            J[i, n + j] = B[i, j] * s
            J[n + i, n + j] = -B[i, j] * c
        J[i, i] = acc_pd
        J[n + i, i] = acc_qd
        J[i, n + i] = (p_sys - U[i] * dp_sys) / U[i] ** 2
        J[n + i, n + i] = -B[i, i] + (q_sys - U[i] * dq_sys) / U[i] ** 2
    return J


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
    jac(x, aux) returns dr/dx.  Each step is tried at the NEWTON_STEPS
    lengths in turn until max|r| falls below slack times its current value
    or reaches tol.  Never raises on divergence: the reason says why the
    solve stopped ("infeasible start", "singular jacobian", "no acceptable
    step" or "iteration limit").
    """
    point = resid(x)
    if point is None:
        return NewtonResult(x, None, math.inf, (), "infeasible start")
    r, aux = point
    norm = np.abs(r).max()
    trace = [norm]
    for _ in range(max_iter):
        if norm <= tol:
            break
        try:
            dx = np.linalg.solve(jac(x, aux), -r)
        except np.linalg.LinAlgError:
            return NewtonResult(x, aux, norm, tuple(trace), "singular jacobian")
        for alpha in NEWTON_STEPS:
            x_try = x + alpha * dx
            point = resid(x_try)
            if point is not None:
                norm_try = np.abs(point[0]).max()
                if norm_try < slack * norm or norm_try <= tol:
                    break
        else:
            return NewtonResult(x, aux, norm, tuple(trace), "no acceptable step")
        x, (r, aux), norm = x_try, point, norm_try
        trace.append(norm)
    return NewtonResult(x, aux, norm, tuple(trace), "" if norm <= tol else "iteration limit")


def newton_solve(prep: PreparedCase, p_orders, warm: GridState | None = None,
                 tol: float = NEWTON_TOL):
    """Power flow by damped_newton; returns GridState or Diverged (never raises on divergence)."""
    p_orders = np.asarray(p_orders, dtype=float)
    n = prep.n
    if p_orders.shape != (n,) or np.any(p_orders < 0):
        raise GridStrengthError("newton_solve: order vector must be nonnegative, one per converter")
    if warm is not None:
        x = np.concatenate([warm.delta, warm.U])
    else:
        x = np.concatenate([np.zeros(n), np.ones(n)])
    lo, hi = U_BAND

    def resid(x):
        # a trial outside the U band or without a converter steady state is rejected
        U = x[n:]
        if U.min() <= lo or U.max() >= hi:
            return None
        try:
            gP, gQ, conv = mismatch(prep, x[:n], U, p_orders)
        except ConverterInfeasible:
            return None
        return np.concatenate([gP, gQ]), conv

    def jac(x, conv):
        return assemble_jacobian(prep, x[:n], x[n:], p_orders, conv)

    # a step may raise the mismatch by 20%: the raw step overshoots the U band
    # at light load with big shunts
    res = damped_newton(resid, jac, x, tol, NEWTON_MAX_ITER, slack=1.2)
    if res.reason:
        return Diverged(reason=res.reason, trace=res.trace)
    return GridState(delta=res.x[:n], U=res.x[n:], converter_states=converter_states(prep, res.aux))


def sigma_min(prep: PreparedCase, point: MapPoint) -> float:
    """Smallest singular value of the power-flow Jacobian at a continuation point."""
    J = assemble_jacobian(prep, np.array(point.delta), np.array(point.U),
                          point.lam * prep.rated_orders)
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def continuation_steps(prep: PreparedCase) -> tuple[list[tuple[float, GridState]], float]:
    """Stepping phase of the continuation: LAM_STEP steps in lambda until Newton diverges.

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
        lam_try = good_lam + LAM_STEP
        if lam_try > LAM_LIMIT:
            raise GridStrengthError(f"trace_map: no divergence below lambda = {LAM_LIMIT}")
        nxt = solve_at(lam_try, good_state)
        if isinstance(nxt, Diverged):
            return points, lam_try
        points.append((lam_try, nxt))


def trace_map(case: CaseFile | PreparedCase, bisect_tol: float = 1e-6) -> ContinuationResult:
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
                delta=tuple(float(d) for d in st.delta),
                U=tuple(float(u) for u in st.U),
                P=tuple(s.P * p.p_dn for s, p in zip(st.converter_states, prep.converters)),
                Q=tuple(s.Q * p.p_dn for s, p in zip(st.converter_states, prep.converters)),
                mu=tuple(s.mu for s in st.converter_states),
            )
        )

    points, bad_lam = continuation_steps(prep)
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
