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
(Zimmerman et al., IEEE TPWRS 26(1), 2011), with converter's array form.
Once per solve, newton_solve takes the current quadratic's terms in the
orders alone (p, 2p, 4(b - r)p, p >= 0).  Once per point: the low root for
every converter, one exp(j d), one W = B o e^{j (d_i - d_j)} and one W U,
whose sum with f e^{j d} gives the residual and, with the converter terms
through the rating and 1/U, the 2n x 2n Jacobian.  At SMALL_N buses or
fewer numpy's fixed cost per call outweighs the O(n^2) work, so mismatch
runs per-bus loops over solve_state and state_derivatives instead; the fold
system, whose second-order terms read the array point, calls the array form
_mismatch_array at every n.  On both paths mismatch returns the residual
(gP, gQ) as one vector and the terms of its point, for assemble_jacobian
there, for mismatch at the same U and orders (which reuses the converter
solution alone) and for converter_states (output); only these three tell
the paths apart.

The fold system solves for the power flow's saddle-node directly, as a point
of collapse (Canizares & Alvarado, IEEE TPWRS 8(1), 1993): Newton on g(x) = 0,
J v = 0, c.v = 1 and one free parameter, the impedance scale s at rated load
or the loading lambda at a fixed s, on an exact Jacobian whose second-order
terms are the complex form of MATPOWER's d2Sbus_dV2 (Zimmerman, MATPOWER
Technical Note 2, 2010) plus the converter terms' tangents.

damped_newton is the one Newton loop in the package: the power flow and the
fold system here, and source tuning in boundary, each pass it a residual
and its exact Jacobian.  They share one line search (the
step is halved until the residual's max-norm falls, within a caller-given
slack, for the NEWTON_STEPS lengths) and one set of stop reasons.  The
step lengths are a constant tuple and the norm one max over |r|, so at
small n an iteration costs little beyond the caller's residual and Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import converter
from .casefile import CaseFile
from .converter import ConverterState, LccParams, state_derivatives
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
LAM_BISECT_TOL = 1e-6       # loading-factor interval at which trace_map's nose bisection stops
FOLD_TOL = 1e-10            # on the fold system's residual
FOLD_MAX_ITER = 30
MODAL_TOL = 1e-12           # the modal fold's: stopped at FOLD_TOL its s can sit 7e-10 off
# largest bus count the kernel runs as per-bus loops: up to here numpy's fixed
# cost per call is at least the loops' O(n^2) work (break-even at n = 3-4)
SMALL_N = 4


class GridState(NamedTuple):
    delta: np.ndarray
    U: np.ndarray
    converter_states: tuple[ConverterState, ...]


class Diverged(NamedTuple):
    reason: str
    trace: tuple[float, ...]    # mismatch inf-norms per iteration


class MapPoint(NamedTuple):
    lam: float
    delta: tuple[float, ...]    # rad
    U: tuple[float, ...]
    P: tuple[float, ...]        # system pu, inverter side
    Q: tuple[float, ...]
    mu: tuple[float, ...]       # rad


class ContinuationResult(NamedTuple):
    lambda_max: float
    state_at_map: GridState
    mu_at_map: tuple[float, ...]    # rad
    diverged_at: float
    history: tuple[MapPoint, ...]


class _Point(NamedTuple):
    """One array-path point: conv depends on (U, orders), W and inj on all."""

    conv: converter._ConverterPoint
    W: np.ndarray           # B_ij e^{j (d_i - d_j)}
    inj: np.ndarray         # f_i e^{j d_i} + sum_j W_ij U_j, the j = i term included


@dataclass(frozen=True)
class PreparedCase:
    """Reduced network plus converter constants, reused across solves."""

    net: ReducedNetwork
    case: CaseFile              # its converter blocks give converters; net may be rescaled
    rated_orders: np.ndarray    # system pu rectifier orders at rated delivery
    consts: converter._ConverterArrays
    B_c: np.ndarray = field(init=False)     # B as complex, the type it meets in W, and
    B_diag: np.ndarray = field(init=False)  # its diagonal: both follow net, replace() included

    def __post_init__(self):
        object.__setattr__(self, "B_c", self.net.B.astype(complex))
        object.__setattr__(self, "B_diag", self.net.B.diagonal().copy())

    @property
    def n(self) -> int:
        return len(self.net.bus_order)

    @cached_property
    def converters(self) -> tuple[LccParams, ...]:
        """LccParams per bus, built on first use: the per-bus loops and their callers read them."""
        return converter._lcc_params(self.case, self.net.bus_order)


def prepare(case: CaseFile) -> PreparedCase:
    """Reduce the network and take converter._constants of its buses (which checks them)."""
    net = reduce_case(case)
    consts, rated_orders = converter._constants(case, net.bus_order)
    return PreparedCase(net=net, case=case, rated_orders=rated_orders, consts=consts)


def converter_states(prep: PreparedCase, conv) -> tuple[ConverterState, ...]:
    """The converter solution mismatch returned, as one ConverterState per bus (for output).

    The per-bus path solved ConverterState records already.
    """
    return converter._point_states(prep.consts, conv.conv) if isinstance(conv, _Point) else conv


def mismatch(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
             p_orders, conv=None):
    """Scaled mismatches (gP, gQ) as one vector r, and the terms they came from: (r, point).

    p_orders (system pu) may come as newton_solve's converter._Orders.  The converter
    solution is solved here unless conv, what an earlier call returned at the
    same U and orders, lends its own.  The terms serve assemble_jacobian here.
    """
    if len(U) <= SMALL_N:
        return _mismatch_loop(prep, delta, U, p_orders, conv)
    return _mismatch_array(prep, delta, U, p_orders, conv)


def _mismatch_array(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
                    p_orders, conv=None):
    """mismatch on whole arrays at any bus count; its terms are a _Point."""
    n, k = len(U), prep.consts
    if conv is None:
        o = p_orders if type(p_orders) is converter._Orders else converter._order_terms(k, p_orders, U)
        conv = converter._solve_converters(k, U, o, lambda: prep.converters)
    else:
        conv = conv.conv
    e = np.exp(1j * delta)
    W = prep.B_c * np.multiply.outer(e, e.conj())
    inj = prep.net.f * e + W.dot(U)     # as W @ U, without matmul's dispatch
    r, p_dn = np.empty(2 * n), k.p_dn
    np.subtract(inj.imag, conv.P * p_dn / U, out=r[:n])
    np.subtract(conv.mQ * p_dn / U, inj.real, out=r[n:])
    return r, _Point(conv, W, inj)


def _mismatch_loop(prep, delta, U, p_orders, states):
    if states is None:
        orders = p_orders.orders if type(p_orders) is converter._Orders else p_orders
        states = converter._solve_converters_loop(prep.converters, U, orders)
    B = prep.net.B
    f = prep.net.f
    n = prep.n
    r = np.zeros(2 * n)
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
        r[i] = sp - p_sys / U[i]
        r[n + i] = sq - q_sys / U[i]
    return r, states


def assemble_jacobian(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
                      p_orders, conv=None) -> np.ndarray:
    """Exact Jacobian of (gP, gQ) in (delta, U), as [[dgP/dd, dgP/dU], [dgQ/dd, dgQ/dU]].

    conv is what mismatch or _mismatch_array returned at the same point, or
    None to compute it here; a _Point takes the array form, the per-bus
    states the loops.
    """
    t = mismatch(prep, delta, U, p_orders)[1] if conv is None else conv
    if type(t) is not _Point:
        return _jacobian_loop(prep, delta, U, t)
    n, c, p_dn = len(U), t.conv, prep.consts.p_dn
    C, S, mU = t.W.real, t.W.imag, -U
    J = np.empty((2 * n, 2 * n))
    np.multiply(C, mU, out=J[:n, :n])
    np.multiply(S, mU, out=J[n:, :n])
    J[:n, n:] = S
    np.negative(C, out=J[n:, n:])
    _, _, dP, ndQ = converter._converter_slopes(prep.consts, c)
    # block diagonals as strided views of the flat J; the products above left
    # -C_ii U_i on the angle diagonals, and inj sums W_ij U_j over every j
    flat, s, m, U2 = J.reshape(-1), 2 * n + 1, 2 * n * n, U * U
    flat[:n * s:s] += t.inj.real                                        # dgP/dd
    flat[m::s] += t.inj.imag                                            # dgQ/dd
    np.divide(p_dn * (c.P - U * dP), U2, out=flat[n:n * s:s])           # dgP/dU
    np.subtract(p_dn * (U * ndQ - c.mQ) / U2, prep.B_diag, out=flat[m + n::s])     # dgQ/dU
    return J


def _jacobian_loop(prep, delta, U, states):
    B, f, n = prep.net.B, prep.net.f, prep.n
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


class NewtonResult(NamedTuple):
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


def newton_solve(prep: PreparedCase, p_orders, warm: GridState | None = None):
    """Power flow by damped_newton; returns GridState or Diverged (never raises on divergence)."""
    p_orders = np.asarray(p_orders, dtype=float)
    n = prep.n
    if p_orders.shape != (n,) or (p_orders < 0).any():
        raise GridStrengthError("newton_solve: order vector must be nonnegative, one per converter")
    if warm is not None:
        x = np.concatenate([warm.delta, warm.U])
    else:
        x = np.concatenate([np.zeros(n), np.ones(n)])
    lo, hi = U_BAND
    orders = converter._order_terms(prep.consts, p_orders)

    def resid(x):
        # a trial outside the U band or without a converter steady state is rejected
        U = x[n:]
        if U.min() <= lo or U.max() >= hi:
            return None
        try:
            return mismatch(prep, x[:n], U, orders)
        except ConverterInfeasible:
            return None

    def jac(x, conv):
        return assemble_jacobian(prep, x[:n], x[n:], orders, conv)

    # a step may raise the mismatch by 20%: the raw step overshoots the U band
    # at light load with big shunts
    res = damped_newton(resid, jac, x, NEWTON_TOL, NEWTON_MAX_ITER, slack=1.2)
    if res.reason:
        return Diverged(reason=res.reason, trace=res.trace)
    return GridState(delta=res.x[:n], U=res.x[n:], converter_states=converter_states(prep, res.aux))


def sigma_min(prep: PreparedCase, point: MapPoint) -> float:
    """Smallest singular value of the power-flow Jacobian at a continuation point."""
    J = assemble_jacobian(prep, np.array(point.delta), np.array(point.U),
                          point.lam * prep.rated_orders)
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def trace_map(case: CaseFile | PreparedCase) -> ContinuationResult:
    """Raise the loading factor until the power flow diverges; bisect the nose.

    Orders are lambda times the rated-order vector (loading proportional to
    ratings).  The stepping phase takes LAM_STEP steps in lambda, each solve
    warm-started from the previous accepted state, until Newton diverges;
    the nose is then bisected between the last converged and the first
    divergent lambda.  When the light start itself has no in-band solution
    (weak grids: the filter shunts overvolt an unloaded bus) the start
    doubles, up to three times, before the case is declared infeasible
    (ConverterInfeasible).
    """
    prep = case if isinstance(case, PreparedCase) else prepare(case)
    p_dn = prep.consts.p_dn.tolist()
    history: list[MapPoint] = []

    def record(lam, st):
        history.append(
            MapPoint(
                lam=lam,
                delta=tuple(float(d) for d in st.delta),
                U=tuple(float(u) for u in st.U),
                P=tuple(s.P * p for s, p in zip(st.converter_states, p_dn)),
                Q=tuple(s.Q * p for s, p in zip(st.converter_states, p_dn)),
                mu=tuple(s.mu for s in st.converter_states),
            )
        )

    good_lam = LAM0
    good_state = newton_solve(prep, good_lam * prep.rated_orders)
    while isinstance(good_state, Diverged) and good_lam * 2.0 < 1.0:
        good_lam *= 2.0
        good_state = newton_solve(prep, good_lam * prep.rated_orders)
    if isinstance(good_state, Diverged):
        raise ConverterInfeasible(
            f"trace_map: base case infeasible at lambda = {good_lam} ({good_state.reason})"
        )
    record(good_lam, good_state)
    bad_lam = math.inf     # until the first divergence: LAM_STEP steps, then bisection
    while bad_lam - good_lam > LAM_BISECT_TOL:
        lam = good_lam + LAM_STEP if bad_lam == math.inf else 0.5 * (good_lam + bad_lam)
        if lam > LAM_LIMIT:
            raise GridStrengthError(f"trace_map: no divergence below lambda = {LAM_LIMIT}")
        nxt = newton_solve(prep, lam * prep.rated_orders, warm=good_state)
        if isinstance(nxt, Diverged):
            bad_lam = lam
        else:
            good_lam, good_state = lam, nxt
            record(lam, nxt)

    return ContinuationResult(
        lambda_max=good_lam,
        state_at_map=good_state,
        mu_at_map=tuple(s.mu for s in good_state.converter_states),
        diverged_at=bad_lam,
        history=tuple(history),
    )


class _Fold(NamedTuple):
    """Saddle-node of the power flow at impedance scale s and loading lam."""

    s: float
    lam: float
    x: np.ndarray       # (delta, U) at the reduced converter buses
    v: np.ndarray       # right null vector of the power-flow Jacobian, c.v = 1
    residual: float     # max-norm of the fold system's residual
    states: tuple[ConverterState, ...]


def _at_scale(prep: PreparedCase, s: float) -> PreparedCase:
    """The prepared case with every reactance times s: reduced B and f divide by s."""
    return replace(prep, net=prep.net._replace(B=prep.net.B / s, f=prep.net.f / s))


def _fold_point(prep: PreparedCase, lam: float, x: np.ndarray):
    """The array kernel's r, point and J at x and lam times the rated orders, at any bus count."""
    n, orders = prep.n, lam * prep.rated_orders
    r, t = _mismatch_array(prep, x[:n], x[n:], orders)
    return r, t, assemble_jacobian(prep, x[:n], x[n:], orders, t)


def _converter_tangent(k, t, dU, dp) -> tuple:
    """Derivative along (dU, dp) of the converter terms of g and of J's dU diagonals at t, the
    converter record: converter._state_tangent's, dp in converter pu, through the rating and 1/U."""
    d_P, d_mQ, d_dP, d_ndQ, dP, ndQ = converter._state_tangent(k, t, dU, dp)
    U, P, mQ = t.U, t.P, t.mQ
    p_U, U2 = k.p_dn / U, U * U
    return (-p_U * (d_P - P * dU / U), p_U * (d_mQ - mQ * dU / U),
            k.p_dn * (d_P - dU * dP - U * d_dP - 2.0 * (P - U * dP) * dU / U) / U2,
            k.p_dn * (dU * ndQ + U * d_ndQ - d_mQ - 2.0 * (U * ndQ - mQ) * dU / U) / U2)


def _fold_jacobian(prep: PreparedCase, z: np.ndarray, c: np.ndarray, J: np.ndarray, t,
                   s_free: bool) -> np.ndarray:
    """Exact Jacobian of the fold system in z = (x, v, p), p the scale s or the load lam.

    d(J v)/dx is the derivative of J along v = (dd, du), as the second
    derivatives of g are symmetric: W moves by j (dd_i - dd_j) W and inj by
    j dd inj - j W (dd U) + W du, laid out as assemble_jacobian lays out W and
    inj, and each converter diagonal by its tangent along du.  B and f scale
    as 1/s, so the s column is the network part of g and of J v over -s; the
    lam column is the converter terms' tangent along the rated orders.
    """
    m, L = len(c), 2 * len(c) + 1     # L: the side of the fold system's Jacobian
    n, k = m // 2, prep.consts
    dd, du = z[m:m + n], z[m + n:2 * m]
    W, inj, U = t.W, t.inj, t.conv.U
    dW = 1j * np.subtract.outer(dd, dd) * W
    dM = dW * U + W * du                # the derivative of W_ij U_j
    d_inj = 1j * (dd * inj - W.dot(dd * U)) + W.dot(du)
    _, _, dJ_PU, dJ_QU = _converter_tangent(k, t.conv, du, 0.0)
    # [[J, 0, col], [D, J, col], [0, c, 0]] in one array: D's blocks diag(d) - M as 0 - M,
    # then d - M_ii on their diagonals, strided views of the flat F (d + W_ii as d - (-W_ii))
    F = np.zeros((L, L))
    F[:m, :m] = F[m:2 * m, m:2 * m] = J
    for i, j, d, M in ((m, 0, d_inj.real, dM.real), (m, n, dJ_PU, -dW.imag),
                       (m + n, 0, d_inj.imag, dM.imag), (m + n, n, dJ_QU, dW.real)):
        np.subtract(0.0, M, out=F[i:i + n, j:j + n])
        np.subtract(d, M.diagonal(), out=F.reshape(-1)[i * L + j::L + 1][:n])
    if s_free:
        col = np.concatenate([inj.imag, -inj.real, d_inj.imag, -d_inj.real]) / -z[-1]
    else:
        dgP, dgQ, dJ_PU, dJ_QU = _converter_tangent(k, t.conv, 0.0, prep.rated_orders / k.p_dn)
        col = np.concatenate([dgP, dgQ, dJ_PU * du, dJ_QU * du])
    F[:2 * m, 2 * m], F[2 * m, m:2 * m] = col, c
    return F


def _solve_fold(prep: PreparedCase, x, v, s: float, lam: float | None = None,
                kind: str = "find_critical_numeric") -> _Fold | None:
    """Newton on g(x) = 0, J v = 0, c.v = 1 with c = v / |v|^2, started at (x, v).

    Without lam the unknowns are (x, v, s) at rated load, lam = 1, to MODAL_TOL;
    with lam they are (x, v, lam), started at lam, at the fixed scale s, to
    FOLD_TOL.  Newton runs on the exact Jacobian; one that stalls within
    FOLD_TOL has met the residual's rounding floor and counts as converged.
    Returns None when Newton fails or the fold lies outside U_BAND; kind names the caller.
    """
    m = len(x)
    c = v / (v @ v)
    fixed = None if lam is None else _at_scale(prep, s)

    def resid(z):
        # None where a bus voltage, s or lam is not positive or a converter has no steady state
        if np.any(z[m // 2:m] <= 0.0) or z[-1] <= 0.0:
            return None
        at, load = (_at_scale(prep, z[-1]), 1.0) if fixed is None else (fixed, z[-1])
        try:
            r, t, J = _fold_point(at, load, z[:m])
        except ConverterInfeasible:
            return None
        vv = z[m:2 * m]
        return np.concatenate([r, J @ vv, [c @ vv - 1.0]]), (at, J, t)

    res = damped_newton(resid, lambda z, a: _fold_jacobian(a[0], z, c, *a[1:], fixed is None),
                        np.concatenate([x, v, [s if lam is None else lam]]),
                        MODAL_TOL if fixed is None else FOLD_TOL, FOLD_MAX_ITER)
    if res.reason == "singular jacobian":
        raise GridStrengthError(f"{kind}: singular fold system")
    z, U = res.x, res.x[m // 2:m]
    stalled = res.reason == "no acceptable step" and res.norm <= FOLD_TOL
    if res.reason and not stalled or np.any(U <= U_BAND[0]) or np.any(U >= U_BAND[1]):
        return None
    s, lam = (z[-1], 1.0) if fixed is None else (s, z[-1])
    return _Fold(float(s), float(lam), z[:m], z[m:2 * m], float(res.norm),
                 converter_states(res.aux[0], res.aux[2]))


def _modal_start(prep: PreparedCase, s: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(lam, x, v) to start a fold Newton at scale s.

    x is the first converged flow at 0.8 or 0.5 of rated load (rated load sits on
    the nose at s = gSCR(1) / 2), else flat at rated load; v is J's last right
    singular vector at x and lam, where every converter has a steady state.
    """
    n, scaled = prep.n, _at_scale(prep, s)
    flows = ((lam, newton_solve(scaled, lam * prep.rated_orders)) for lam in (0.8, 0.5))
    lam, st = next(((lam, st) for lam, st in flows if isinstance(st, GridState)), (1.0, None))
    x = np.concatenate([st.delta, st.U] if st else [np.zeros(n), np.ones(n)])
    return lam, x, np.linalg.svd(_fold_point(scaled, lam, x)[2])[2][-1]
