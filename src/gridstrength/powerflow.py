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
(Zimmerman et al., IEEE TPWRS 26(1), 2011), with solve_state's arithmetic
element by element.  Once per solve, newton_solve takes the current
quadratic's terms in the orders alone (p, 2p, 4(b - r)p, p >= 0).  Once
per point: the low root for every converter, one exp(j d), one
W = B o e^{j (d_i - d_j)} and one W U, whose sum with f e^{j d} gives the
residual as one vector and, with the converter terms, the 2n x 2n
Jacobian.  At SMALL_N buses or fewer numpy's fixed cost per call outweighs
the O(n^2) work, so mismatch runs per-bus loops over solve_state and
state_derivatives instead; the fold solve, whose second-order terms read
the array point, calls the array form _mismatch_array at every n.  mismatch
returns the terms of its point for assemble_jacobian there, for mismatch at
the same U and orders (which reuses the converter solution alone) and for
converter_states (output).

damped_newton is the one Newton loop in the package: the power flow here,
and source tuning and the fold solve in boundary, each pass it a residual
and its exact Jacobian.  They share one line search (the
step is halved until the residual's max-norm falls, within a caller-given
slack, for the NEWTON_STEPS lengths) and one set of stop reasons.  The
step lengths are a constant tuple and the norm one max over |r|, so at
small n an iteration costs little beyond the caller's residual and Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile
from .converter import (
    SQRT2,
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
LAM_BISECT_TOL = 1e-6       # loading-factor interval at which trace_map's nose bisection stops
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


class _ConverterArrays(NamedTuple):
    """LccParams of every bus as arrays; converter-base pu except p_dn."""

    p_dn: np.ndarray
    a: np.ndarray
    b: np.ndarray
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


class _Point(NamedTuple):
    """One array-path point: U to mQ (converter pu) depend on (U, orders), W, inj, r on all."""

    U: np.ndarray
    I: np.ndarray
    cphi: np.ndarray
    sphi: np.ndarray
    root: np.ndarray        # sqrt of the quadratic's discriminant
    P: np.ndarray
    mQ: np.ndarray          # -Q, which saves a negation in Q and in gQ
    W: np.ndarray           # B_ij e^{j (d_i - d_j)}
    inj: np.ndarray         # f_i e^{j d_i} + sum_j W_ij U_j, the j = i term included
    r: np.ndarray           # (gP, gQ) as one vector


# LccParams' lower bounds in prepare's rows (x <= 0 is x < 5e-324); nan passes, as there
_LOWER = np.array([5e-324, 5e-324, 1.0, 5e-324, 5e-324, 0.0, 0.0])[:, None]


@dataclass(frozen=True)
class PreparedCase:
    """Reduced network plus converter constants, reused across solves."""

    net: ReducedNetwork
    case: CaseFile              # its converter blocks give converters; net may be rescaled
    rated_orders: np.ndarray    # system pu rectifier orders at rated delivery
    consts: _ConverterArrays
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
        return _lcc_params(self.case, self.net.bus_order)


def _lcc_params(case: CaseFile, buses) -> tuple[LccParams, ...]:
    return tuple(LccParams.from_spec(case.converter_at(bus), case) for bus in buses)


def prepare(case: CaseFile) -> PreparedCase:
    """Reduce the network and take LccParams' constants and rated_order for every bus at once.

    The arithmetic is LccParams' and rated_current's, element by element, so
    the constants are bitwise theirs.  Where a converter is outside their
    domain the per-bus constructors run, and the first failure raises.
    """
    net = reduce_case(case)
    # ConverterSpec's fields p_dn_mw .. b_c_pu, one row each
    rows = chain.from_iterable([s[1:8] for s in map(case.converter_at, net.bus_order)])
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
        for p in _lcc_params(case, net.bus_order):
            rated_order(p)
        raise AssertionError("unreachable: the per-bus constructors raise on the same bus")
    I_N = 2.0 / (Bq + np.sqrt(disc))
    consts = _ConverterArrays(p_dn=p_dn, a=a, b=b, b_over_a=b / a, cos_g=cos_g, acg=Bq,
                              gamma=gamma, A4=4.0 * (b - r), r=r, wbc=b_c)   # omega = 1
    return PreparedCase(net=net, case=case, rated_orders=p_dn * (1.0 + I_N * I_N * r),
                        consts=consts)


def _order_terms(prep: PreparedCase, p_orders: np.ndarray, U=None) -> _Orders:
    p = p_orders / prep.consts.p_dn
    # min() is nan, and each test false, when an input is nan
    valid = p.min() >= 0.0 and (U is None or U.min() > 0.0)
    return _Orders(p_orders, p, 2.0 * p, prep.consts.A4 * p, valid)


def _solve_converters(prep: PreparedCase, U: np.ndarray, o: _Orders) -> tuple:
    """Every converter at once: the low root of the current quadratic, as _Point's U to mQ.

    The arithmetic and the domain checks are solve_state's, element by
    element, so a bus fails here exactly where solve_state fails on it.  On
    a failure the per-bus solves run in bus order, and the first failing
    one raises its ConverterInfeasible reason and bus name.
    """
    k = prep.consts
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
            return U, I, cphi, sphi, root, P, mQ
    _solve_converters_loop(prep, U, o.orders)
    raise AssertionError("unreachable: the per-bus solves raise on the same bus")


def _solve_converters_loop(prep: PreparedCase, U: np.ndarray, p_orders: np.ndarray):
    """Local solves per bus; p_orders in system pu.  Raises ConverterInfeasible."""
    states = []
    for i, p in enumerate(prep.converters):
        states.append(solve_state(p, float(U[i]), float(p_orders[i]) / p.p_dn))
    return tuple(states)


def converter_states(prep: PreparedCase, conv) -> tuple[ConverterState, ...]:
    """The converter solution mismatch returned, as one ConverterState per bus (for output)."""
    if not isinstance(conv, _Point):
        return conv     # the per-bus path solved ConverterState records already
    k, t = prep.consts, conv
    c = k.b_over_a * t.I / t.U
    cols = (t.U, t.I, t.P, -t.mQ, np.arccos(t.cphi), np.arccos(k.cos_g - 2.0 * c) - k.gamma, c,
            t.P / (t.U * t.U), k.a * t.U * k.cos_g - k.b * t.I)
    return tuple(map(ConverterState._make, zip(*(col.tolist() for col in cols))))


def mismatch(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
             p_orders, conv=None):
    """Scaled mismatches (gP, gQ) and the terms they came from.

    p_orders (system pu) may come as newton_solve's _Orders.  The converter
    solution is solved here unless conv, what an earlier call returned at the
    same U and orders, lends its own.  The terms serve assemble_jacobian here.
    """
    if len(U) <= SMALL_N:
        return _mismatch_loop(prep, delta, U, p_orders, conv)
    return _mismatch_array(prep, delta, U, p_orders, conv)


def _mismatch_array(prep: PreparedCase, delta: np.ndarray, U: np.ndarray,
                    p_orders, conv=None):
    """mismatch on whole arrays at any bus count; its terms are a _Point."""
    n = len(U)
    if conv is None:
        o = p_orders if type(p_orders) is _Orders else _order_terms(prep, p_orders, U)
        conv = _solve_converters(prep, U, o)
    else:
        conv = conv[:7]     # U to mQ
    e = np.exp(1j * delta)
    W = prep.B_c * np.multiply.outer(e, e.conj())
    inj = prep.net.f * e + W.dot(U)     # as W @ U, without matmul's dispatch
    r, p_dn = np.empty(2 * n), prep.consts.p_dn
    gP = np.subtract(inj.imag, conv[-2] * p_dn / U, out=r[:n])      # conv[-2] is P
    gQ = np.subtract(conv[-1] * p_dn / U, inj.real, out=r[n:])      # conv[-1] is -Q
    return gP, gQ, _Point(*conv, W, inj, r)


def _mismatch_loop(prep, delta, U, p_orders, states):
    if states is None:
        states = _solve_converters_loop(prep, U, p_orders)
    B = prep.net.B
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
                      p_orders, conv=None) -> np.ndarray:
    """Exact Jacobian of (gP, gQ) in (delta, U), as [[dgP/dd, dgP/dU], [dgQ/dd, dgQ/dU]].

    conv is what mismatch or _mismatch_array returned at the same point, or
    None to compute it here; a _Point takes the array form, the per-bus
    states the loops.
    """
    t = mismatch(prep, delta, U, p_orders)[2] if conv is None else conv
    if type(t) is not _Point:
        return _jacobian_loop(prep, delta, U, t)
    n, k = len(U), prep.consts
    C, S, mU = t.W.real, t.W.imag, -U
    J = np.empty((2 * n, 2 * n))
    np.multiply(C, mU, out=J[:n, :n])
    np.multiply(S, mU, out=J[n:, :n])
    J[:n, n:] = S
    np.negative(C, out=J[n:, n:])
    _, _, dP, ndQ = _converter_slopes(k, t)
    # block diagonals as strided views of the flat J; the products above left
    # -C_ii U_i on the angle diagonals, and inj sums W_ij U_j over every j
    flat, s, m, U2 = J.reshape(-1), 2 * n + 1, 2 * n * n, U * U
    flat[:n * s:s] += t.inj.real                                        # dgP/dd
    flat[m::s] += t.inj.imag                                            # dgQ/dd
    np.divide(k.p_dn * (t.P - U * dP), U2, out=flat[n:n * s:s])         # dgP/dU
    np.subtract(k.p_dn * (U * ndQ - t.mQ) / U2, prep.B_diag, out=flat[m + n::s])   # dgQ/dU
    return J


def _converter_slopes(k: _ConverterArrays, t: _Point) -> tuple:
    """-dI/dU, -dc/dU, dP/dU and -dQ/dU at fixed order at the point t.

    At the low root 2 (b - r) I - a U cos(gamma) = -root.
    """
    ndI = k.acg * t.I / t.root
    ndc = k.b_over_a * (ndI + t.I / t.U) / t.U
    dP = 2.0 * t.I * ndI * k.r
    ndQ = dP * t.sphi / t.cphi - t.P * ndc / (t.cphi * t.cphi * t.sphi) - 2.0 * k.wbc * t.U
    return ndI, ndc, dP, ndQ


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


def newton_solve(prep: PreparedCase, p_orders, warm: GridState | None = None,
                 tol: float = NEWTON_TOL):
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
    array = n > SMALL_N     # order terms once per solve, the residual as one vector
    orders = _order_terms(prep, p_orders) if array else p_orders

    def resid(x):
        # a trial outside the U band or without a converter steady state is rejected
        U = x[n:]
        if U.min() <= lo or U.max() >= hi:
            return None
        try:
            gP, gQ, conv = mismatch(prep, x[:n], U, orders)
        except ConverterInfeasible:
            return None
        return (conv.r if array else np.concatenate([gP, gQ])), conv

    def jac(x, conv):
        return assemble_jacobian(prep, x[:n], x[n:], orders, conv)

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
