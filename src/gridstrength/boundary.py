"""Critical and boundary strength ratios.

Single-infeed closed forms come from the characteristic relation
rho*T + rho^2/SCR - SCR = 0: at the rated point (rho = 1) the positive
root is (T_N + sqrt(T_N^2 + 4))/2, and at the 30-degree-overlap point the
converter equations are closed jointly with the network relation.

Multi-infeed thresholds are found numerically by scaling every reactance
by s.  Kron reduction is homogeneous in the reactances, so a search
prepares the case once, each probe divides the reduced B and source vector
by s, and the index J_eq = -diag(1/P_N) B at the found scale is reported
as gSCR(1)/s without reducing the scaled case again.  Sources keep their
authored emfs during a search; scaling touches reactances only.

The critical ratio is the scale at which the saddle-node (fold) of the
power flow sits at rated load, lambda = 1.  The fold is solved for directly
as a point of collapse (Canizares & Alvarado, IEEE TPWRS 8(1), 1993): a
Newton on g(x) = 0, J v = 0, c.v = 1 and one free parameter.  A bracket of
fold probes in lambda is followed by one fold Newton in s at lambda = 1.
The boundary ratio bisects s on the aggregated overlap angle at the
continuation's last convergent point = 30 degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile, with_rating
from .converter import ConverterState, LccParams, k_of_c, rated_state
from .errors import BracketError, ConverterInfeasible, GridStrengthError
from .gscr import EigenResult, characteristic_delta, compute_gscr, extended_jacobian
from .netmodel import reduce_case, scale_impedance
from .powerflow import (
    U_BAND,
    ContinuationResult,
    PreparedCase,
    assemble_jacobian,
    continuation_steps,
    converter_states,
    damped_newton,
    mismatch,
    prepare,
    trace_map,
)

SCALE_LO = 0.05
SCALE_HI = 20.0
SCALE_REL_TOL = 1e-4
BOUNDARY_TOL_DEG = 0.05  # on |mu_agg - 30 deg|
MU_TARGET_DEG = 30.0
FOLD_TOL = 1e-10         # on the fold system's residual
FOLD_MAX_ITER = 30
FOLD_FD_STEP = 1e-6
# per-converter overlap angles (deg) and rating weights -> the searched angle
_AGGREGATE = {
    "mean": lambda mu, w: float(np.dot(w, mu) / np.sum(w)),
    "max": lambda mu, w: float(np.max(mu)),
    "first": lambda mu, w: float(mu[0]),
}
AGG_RULES = tuple(_AGGREGATE)


@dataclass(frozen=True)
class BoundaryResult:
    kind: str                           # CSCR | BSCR | CgSCR | BgSCR
    value: float
    scale_star: float
    condition_residual: float
    per_converter_mu: tuple[float, ...]  # degrees

    def __post_init__(self):
        if self.kind not in ("CSCR", "BSCR", "CgSCR", "BgSCR"):
            raise GridStrengthError(f"BoundaryResult: unknown kind {self.kind!r}")
        if not self.value > 0:
            raise GridStrengthError("BoundaryResult: value must be positive")


class SweepRow(NamedTuple):
    ratio: float
    cgscr: float
    bgscr: float


def cscr_closed_form(T_N: float) -> float:
    """Positive root of 1*T_N + 1/SCR - SCR = 0 (rated point, rho = 1)."""
    if T_N < 0:
        raise GridStrengthError("cscr_closed_form: T_N must be nonnegative")
    return 0.5 * (T_N + math.sqrt(T_N * T_N + 4.0))


def boundary_overlap_c(gamma: float) -> float:
    """c at which the overlap angle is exactly 30 degrees."""
    return 0.5 * (math.cos(gamma) - math.cos(gamma + math.pi / 6.0))


def bscr_solve(params: LccParams) -> float:
    """SCR at which the 30-degree-overlap point sits on the characteristic.

    Unknowns are (U_B, SCR).  At fixed c = c_B the converter equations give
    I, P, Q as functions of U_B alone; the source emf is pinned by the rated
    tune at the same SCR, which closes the network relation.  The second
    residual is the characteristic itself at (rho_B, T_B).
    """
    c_B = boundary_overlap_c(params.gamma)
    cphi = math.cos(params.gamma) - c_B
    if not 0.0 < cphi < 1.0:
        raise GridStrengthError("bscr_solve: 30 degree overlap is outside the model domain")
    tphi = math.sqrt(1.0 - cphi * cphi) / cphi
    K_B = k_of_c(c_B, params.gamma)
    rs = rated_state(params)
    P_N, Q_N = rs.P, rs.Q

    def resid(x):
        U, scr = x
        if U <= 0 or scr <= 0:
            return None
        Z = 1.0 / scr
        E = math.hypot(1.0 - Z * Q_N, Z * P_N)
        I = (params.a / params.b) * c_B * U
        P = (params.a * U * math.cos(params.gamma) - params.b * I) * I
        if P <= 0:
            return None
        Q = -P * tphi + params.omega * params.b_c * U * U
        r1 = (P * Z) ** 2 + (U * U - Q * Z) ** 2 - (E * U) ** 2
        rho = P / (U * U)
        T = 2.0 * c_B * K_B + 2.0 * params.omega * params.b_c * U * U / P
        return np.array([r1, characteristic_delta(rho, T, scr)]), None

    def jac(x, _):
        J = np.zeros((2, 2))
        h = 1e-7
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            rp, rm = resid(x + step), resid(x - step)
            if rp is None or rm is None:
                raise GridStrengthError("bscr_solve: residual left its domain")
            J[:, k] = (rp[0] - rm[0]) / (2.0 * h)
        return J

    res = damped_newton(resid, jac, np.array([0.9, 3.0]), 1e-9, 60)
    if res.reason:
        raise GridStrengthError(f"bscr_solve: {res.reason}")
    return float(res.x[1])


def case_gscr(case: CaseFile) -> tuple[EigenResult, float]:
    """Grid-strength index of a case: smallest eigenvalue of the extended Jacobian."""
    net = reduce_case(case)
    p_n = np.array([case.rating_pu(case.converter_at(b)) for b in net.bus_order])
    return compute_gscr(extended_jacobian(net.B, p_n))


def tune_sources(case: CaseFile) -> CaseFile:
    """Set link emfs so the rated point solves at exactly U = 1 on every bus.

    Unknowns are one angle per converter bus and one emf per Thevenin link,
    against the 2n balance equations at U = 1.  Every link sits on its own
    converter bus, so Kron reduction leaves the reduced source term at
    f_i = E_i / x_i and the Newton Jacobian is the power-flow angle block
    plus the diagonal emf columns d(gP, gQ)/dE = (sin d / x, -cos d / x).
    The single-infeed closed form E = hypot(1 - Z Q_N, Z P_N) is the n = 1
    special case and is used, link by link, as the starting guess.
    """
    prep = prepare(case)
    n = prep.n
    links = case.thevenin_links
    link_at = {ln.bus: ln for ln in links}
    if len(links) != n or set(link_at) != set(prep.net.bus_order):
        raise GridStrengthError("tune_sources: needs exactly one source link per converter bus")
    x_link = np.array([link_at[b].reactance_pu for b in prep.net.bus_order])
    U = np.ones(n)
    orders = prep.rated_orders

    # seed from the single-infeed closed form applied link by link
    emfs = np.zeros(n)
    delta = np.zeros(n)
    for i, par in enumerate(prep.converters):
        st = rated_state(par)
        Z = x_link[i]
        p_sys = st.P * par.p_dn
        q_sys = st.Q * par.p_dn
        emfs[i] = math.hypot(1.0 - Z * q_sys, Z * p_sys)
        delta[i] = math.atan2(Z * p_sys, 1.0 - Z * q_sys)

    def with_emfs(e):
        return replace(prep, net=prep.net._replace(f=e / x_link))

    # at U = 1 and rated orders the converter states do not move with (d, E):
    # the first residual solves them and every later one reuses them
    conv = None

    def resid(x):
        nonlocal conv
        gP, gQ, conv = mismatch(with_emfs(x[n:]), x[:n], U, orders, conv)
        return np.concatenate([gP, gQ]), conv

    def jac(x, conv):
        d = x[:n]
        J = assemble_jacobian(with_emfs(x[n:]), d, U, orders, conv)
        J[:, n:] = np.vstack([np.diag(np.sin(d) / x_link), -np.diag(np.cos(d) / x_link)])
        return J

    res = damped_newton(resid, jac, np.concatenate([delta, emfs]), 1e-12, 40)
    # 40 iterations that end within 1e-10 are accepted
    if res.reason and not (res.reason == "iteration limit" and res.norm <= 1e-10):
        raise GridStrengthError(f"tune_sources: {res.reason}")
    new_links = tuple(ln._replace(emf_pu=float(res.x[n + prep.net.B.index_of(ln.bus)]))
                      for ln in links)
    return replace(case, thevenin_links=new_links)


def scale_to_gscr(case: CaseFile, target: float) -> CaseFile:
    """Rescale reactances so the case's index equals target, then retune the emfs."""
    if not target > 0:
        raise GridStrengthError("scale_to_gscr: target must be positive")
    _, g = case_gscr(case)
    return tune_sources(scale_impedance(case, g / target))


class _Probe(NamedTuple):
    s: float
    g: float
    result: ContinuationResult | _Fold | None


def _bracket(probe, kind: str) -> tuple[_Probe, _Probe]:
    """Probe s = 1, then multiply or divide s by 1.5 until the gap changes sign.

    Returns (lo, hi) with lo.g > 0 >= hi.g and lo.s < hi.s, or (p, p) when
    the gap at s = 1 is exactly 0.  The gap is assumed to fall with s.
    """
    grow = 1.5
    p = probe(1.0)
    lo = hi = p
    if p.g > 0:
        while True:
            s_next = lo.s * grow
            if s_next > SCALE_HI:
                raise BracketError(f"{kind}: no sign change up to scale {SCALE_HI}")
            hi = probe(s_next)
            if hi.g > 0:
                lo = hi
            else:
                break
    elif p.g < 0:
        while True:
            s_next = hi.s / grow
            if s_next < SCALE_LO:
                raise BracketError(f"{kind}: no sign change down to scale {SCALE_LO}")
            lo = probe(s_next)
            if lo.g < 0:
                hi = lo
            else:
                break
    return lo, hi


def _bisect_scale(prep: PreparedCase, gap_of, cond_tol: float, kind: str) -> _Probe:
    """Find s with gap(s) = 0, gap decreasing in s; geometric probe then bisect."""

    def probe(s):
        try:
            tr = trace_map(_at_scale(prep, s))
        except ConverterInfeasible:
            # grid too weak to even carry the light start: far side of the root
            return _Probe(s=s, g=-math.inf, result=None)
        return _Probe(s=s, g=gap_of(tr), result=tr)

    lo, hi = _bracket(probe, kind)
    if lo is hi:
        return lo
    best = lo if abs(lo.g) <= abs(hi.g) else hi
    while hi.s - lo.s > SCALE_REL_TOL * lo.s:
        mid = probe(0.5 * (lo.s + hi.s))
        if mid.result is not None and abs(mid.g) < abs(best.g):
            best = mid
        if mid.g > 0:
            lo = mid
        else:
            hi = mid
    if best.result is None or abs(best.g) > cond_tol:
        raise GridStrengthError(f"{kind}: bisection stalled with residual {best.g:.3g}")
    return best


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
    net = prep.net
    return replace(prep, net=net._replace(B=replace(net.B, matrix=net.B.matrix / s),
                                          f=net.f / s))


def _fold_point(at, p: float, x: np.ndarray):
    """g, J and the converter terms at x, with (prepared case, s, lam) = at(p)."""
    prep, _, lam = at(p)
    n, orders = prep.n, lam * prep.rated_orders
    gP, gQ, conv = mismatch(prep, x[:n], x[n:], orders)
    return np.concatenate([gP, gQ]), assemble_jacobian(prep, x[:n], x[n:], orders, conv), conv


def _fold_jacobian(at, z: np.ndarray, c: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Jacobian of the fold system in z = (x, v, p), by central differences.

    d(J v)/dx equals the derivative of J along v, because the second
    derivatives of g are symmetric, so one difference pair gives that block.
    """
    m = len(c)
    x, v, p = z[:m], z[m:2 * m], z[-1]
    h = FOLD_FD_STEP
    g_up, J_up, _ = _fold_point(at, p + h, x)
    g_dn, J_dn, _ = _fold_point(at, p - h, x)
    A = np.zeros((2 * m + 1, 2 * m + 1))
    A[:m, :m] = A[m:2 * m, m:2 * m] = J
    A[m:2 * m, :m] = (_fold_point(at, p, x + h * v)[1]
                      - _fold_point(at, p, x - h * v)[1]) / (2.0 * h)
    A[2 * m, m:2 * m] = c
    A[:m, 2 * m] = (g_up - g_dn) / (2.0 * h)
    A[m:2 * m, 2 * m] = (J_up - J_dn) @ v / (2.0 * h)
    return A


def _solve_fold(at, x, v, p: float) -> _Fold | None:
    """Newton on g(x) = 0, J v = 0, c.v = 1 in (x, v, p), with c = v / |v|^2.

    at(p) gives (prepared case, s, lam): a probe frees lam at a fixed scale,
    the closing solve frees s at lam = 1.  The solve is powerflow.damped_newton.
    Returns None when Newton fails or the fold lies outside U_BAND.
    """
    m = len(x)
    c = v / (v @ v)

    def resid(z):
        # None where a bus voltage is not positive or a converter has no steady state
        if np.any(z[m // 2:m] <= 0.0):
            return None
        try:
            g, J, conv = _fold_point(at, z[-1], z[:m])
        except ConverterInfeasible:
            return None
        vv = z[m:2 * m]
        return np.concatenate([g, J @ vv, [c @ vv - 1.0]]), (J, conv)

    try:
        res = damped_newton(resid, lambda z, aux: _fold_jacobian(at, z, c, aux[0]),
                            np.concatenate([x, v, [p]]), FOLD_TOL, FOLD_MAX_ITER)
    except ConverterInfeasible:  # a difference point of the Jacobian left a converter's domain
        return None
    if res.reason == "singular jacobian":
        raise GridStrengthError("find_critical_numeric: singular fold system")
    z = res.x
    U = z[m // 2:m]
    if res.reason or np.any(U <= U_BAND[0]) or np.any(U >= U_BAND[1]):
        return None
    prep, s, lam = at(z[-1])
    return _Fold(s=float(s), lam=float(lam), x=z[:m], v=z[m:2 * m],
                 residual=float(res.norm), states=converter_states(prep, res.aux[1]))


def _critical_fold(prep: PreparedCase) -> _Fold:
    """Fold at rated load: bracket the scale with fold probes, then one fold Newton in s.

    A probe frees lam at a fixed scale, from the last converged point of the
    continuation's stepping phase; a failed fold, one outside U_BAND or a grid
    too weak for the light start is the far side of the root.  The closing
    Newton frees s at lam = 1 from the bracket end nearer rated load.  As in
    rtsafe (Numerical Recipes 9.4) a root outside the bracket is refused: a
    probe at the midpoint, warm-started from the nearer fold, shrinks it first.
    """
    kind = "find_critical_numeric"

    def probe(s, warm: _Fold | None = None) -> _Probe:
        scaled = _at_scale(prep, s)
        if warm is None:
            try:
                points, _ = continuation_steps(scaled)
            except ConverterInfeasible:
                return _Probe(s=s, g=-math.inf, result=None)
            lam, st = points[-1]
            J = assemble_jacobian(scaled, st.delta, st.U, lam * scaled.rated_orders)
            x, v = np.concatenate([st.delta, st.U]), np.linalg.svd(J)[2][-1]
        else:
            x, v, lam = warm.x, warm.v, warm.lam
        fold = _solve_fold(lambda p: (scaled, s, p), x, v, lam)
        return _Probe(s=s, g=-math.inf if fold is None else fold.lam - 1.0, result=fold)

    lo, hi = _bracket(probe, kind)
    while True:     # lo is hi when lam = 1 exactly at s = 1: the Newton stays there
        start = (lo if abs(lo.g) <= abs(hi.g) else hi).result
        fold = _solve_fold(lambda p: (_at_scale(prep, p), p, 1.0), start.x, start.v, start.s)
        if fold is not None and lo.s <= fold.s <= hi.s:
            return fold
        if hi.s - lo.s <= FOLD_TOL * lo.s:
            raise GridStrengthError(f"{kind}: no fold at rated load between scales "
                                    f"{lo.s:.6g} and {hi.s:.6g}")
        s = 0.5 * (lo.s + hi.s)
        p = probe(s, (lo if hi.result is None or s - lo.s <= hi.s - s else hi).result)
        lo, hi = (p, hi) if p.g > 0 else (lo, p)


def _result(kind: str, prep: PreparedCase, s: float, residual: float, mu_rad) -> BoundaryResult:
    """The search's answer at scale s; the index there is gSCR(1) / s."""
    _, g = compute_gscr(extended_jacobian(prep.net.B, prep.consts.p_dn))
    return BoundaryResult(kind=kind, value=g / s, scale_star=s, condition_residual=residual,
                          per_converter_mu=tuple(math.degrees(m) for m in mu_rad))


def find_critical_numeric(case: CaseFile) -> BoundaryResult:
    """Scale reactances until the fold of the power flow sits at rated load."""
    prep = prepare(case)
    fold = _critical_fold(prep)
    return _result("CgSCR", prep, fold.s, fold.residual, [st.mu for st in fold.states])


def find_boundary_numeric(case: CaseFile, aggregation: str = "mean") -> BoundaryResult:
    """Scale reactances until the aggregated overlap angle at the nose is 30 deg."""
    aggregate = _AGGREGATE.get(aggregation)
    if aggregate is None:
        raise GridStrengthError(f"unknown aggregation rule {aggregation!r}; expected one of {AGG_RULES}")
    prep = prepare(case)

    def gap(tr: ContinuationResult) -> float:
        return aggregate(np.degrees(np.array(tr.mu_at_map)), prep.consts.p_dn) - MU_TARGET_DEG

    best = _bisect_scale(prep, gap, BOUNDARY_TOL_DEG, "find_boundary_numeric")
    return _result("BgSCR", prep, best.s, abs(best.g), best.result.mu_at_map)


def fan_out(fn, jobs: int, *iterables) -> list:
    """list(map(fn, *iterables)), over min(jobs, task count) worker processes when jobs > 1."""
    if jobs <= 1 or len(iterables[0]) == 0:     # no task needs no pool
        return list(map(fn, *iterables))
    # imported only here, so that importing the package never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(iterables[0]))) as ex:
        return list(ex.map(fn, *iterables))


def _sweep_point(args):
    case, ratio, aggregation = args
    # re-establish the rated point near each search's own target region:
    # stale emfs from the authored scale put extreme rating ratios on a
    # shunt-inflated voltage branch with no lambda_max = 1 crossing at all
    crit = find_critical_numeric(scale_to_gscr(case, 2.0))
    bnd = find_boundary_numeric(scale_to_gscr(case, 3.0), aggregation)
    return SweepRow(ratio=ratio, cgscr=crit.value, bgscr=bnd.value)


def sweep_dual_infeed(case: CaseFile, rating_ratios, aggregation: str = "mean",
                      jobs: int = 1) -> list[SweepRow]:
    """Rescale the second converter's rating and redo both searches per ratio."""
    buses = case.converter_buses()
    if len(buses) != 2:
        raise GridStrengthError("sweep_dual_infeed: case must have exactly two converters")
    base = case.converter_at(buses[0]).p_dn_mw
    tasks = []
    for r in rating_ratios:
        if not r > 0:
            raise GridStrengthError(f"sweep_dual_infeed: ratio must be positive, got {r}")
        tasks.append((with_rating(case, buses[1], r * base), float(r), aggregation))
    return fan_out(_sweep_point, jobs, tasks)
