"""Critical and boundary strength ratios.

Single-infeed closed forms come from the characteristic relation
rho*T + rho^2/SCR - SCR = 0: at the rated point (rho = 1) the positive
root is (T_N + sqrt(T_N^2 + 4))/2, and at the 30-degree-overlap point the
converter equations are closed jointly with the network relation.

Multi-infeed thresholds are found numerically: scale every reactance by s,
trace the continuation to its nose, and bisect s on the defining condition
(lambda_max = 1 for the critical ratio, aggregated overlap angle at the
nose = 30 degrees for the boundary ratio).  The grid-strength index of the
scaled case is then reported.  Sources keep their authored emfs during a
search; scaling touches reactances only.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .casefile import CaseFile, with_rating
from .converter import LccParams, k_of_c, rated_state
from .errors import BracketError, ConverterInfeasible, GridStrengthError
from .gscr import EigenResult, characteristic_delta, compute_gscr, extended_jacobian
from .netmodel import reduce_case, scale_impedance
from .powerflow import ContinuationResult, assemble_jacobian, mismatch, prepare, trace_map

SCALE_LO = 0.05
SCALE_HI = 20.0
SCALE_REL_TOL = 1e-4
CRITICAL_TOL = 1e-3      # on |lambda_max - 1|
BOUNDARY_TOL_DEG = 0.05  # on |mu_agg - 30 deg|
MU_TARGET_DEG = 30.0
AGG_RULES = ("mean", "max", "first")


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


@dataclass(frozen=True)
class SweepRow:
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


def bscr_solve(params: LccParams, tol: float = 1e-9, max_iter: int = 60) -> float:
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

    def residuals(U, scr):
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
        r2 = characteristic_delta(rho, T, scr)
        return np.array([r1, r2])

    x = np.array([0.9, 3.0])
    r = residuals(*x)
    if r is None:
        raise GridStrengthError("bscr_solve: infeasible initial point")
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            return float(x[1])
        J = np.zeros((2, 2))
        h = 1e-7
        for k in range(2):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            rp, rm = residuals(*xp), residuals(*xm)
            if rp is None or rm is None:
                raise GridStrengthError("bscr_solve: residual left its domain")
            J[:, k] = (rp - rm) / (2.0 * h)
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            raise GridStrengthError("bscr_solve: singular jacobian")
        alpha, nrm = 1.0, np.max(np.abs(r))
        for _ in range(9):
            r_try = residuals(*(x + alpha * dx))
            if r_try is not None and np.max(np.abs(r_try)) < nrm:
                x = x + alpha * dx
                r = r_try
                break
            alpha *= 0.5
        else:
            raise GridStrengthError("bscr_solve: no descent step")
    if np.max(np.abs(r)) <= tol:
        return float(x[1])
    raise GridStrengthError("bscr_solve: did not converge")


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
        return replace(prep, net=replace(prep.net, f=e / x_link))

    def resid(x, states=None):
        gP, gQ, states = mismatch(with_emfs(x[n:]), x[:n], U, orders, states)
        return np.concatenate([gP, gQ]), states

    x = np.concatenate([delta, emfs])
    # at U = 1 and rated orders the converter states do not move with (d, E)
    r, states = resid(x)
    for _ in range(40):
        if np.max(np.abs(r)) <= 1e-12:
            break
        d = x[:n]
        blocks = assemble_jacobian(with_emfs(x[n:]), d, U, orders, states)
        J = np.block([[blocks.J_pd, np.diag(np.sin(d) / x_link)],
                      [blocks.J_qd, -np.diag(np.cos(d) / x_link)]])
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            raise GridStrengthError("tune_sources: singular jacobian")
        alpha, nrm = 1.0, np.max(np.abs(r))
        for _ in range(8):
            x_try = x + alpha * dx
            r_try, _ = resid(x_try, states)
            if np.max(np.abs(r_try)) < nrm:
                x, r = x_try, r_try
                break
            alpha *= 0.5
        else:
            raise GridStrengthError("tune_sources: no descent step")
    if np.max(np.abs(r)) > 1e-10:
        raise GridStrengthError("tune_sources: did not converge")
    new_links = tuple(replace(ln, emf_pu=float(x[n + prep.net.B.index_of(ln.bus)]))
                      for ln in links)
    return replace(case, thevenin_links=new_links)


def scale_to_gscr(case: CaseFile, target: float, retune: bool = True) -> CaseFile:
    """Rescale reactances so the case's index equals target; optionally retune emfs."""
    if not target > 0:
        raise GridStrengthError("scale_to_gscr: target must be positive")
    _, g = case_gscr(case)
    scaled = scale_impedance(case, g / target)
    return tune_sources(scaled) if retune else scaled


def _mu_aggregate(mu_deg: np.ndarray, weights: np.ndarray, rule: str) -> float:
    if rule == "mean":
        return float(np.dot(weights, mu_deg) / np.sum(weights))
    if rule == "max":
        return float(np.max(mu_deg))
    if rule == "first":
        return float(mu_deg[0])
    raise GridStrengthError(f"unknown aggregation rule {rule!r}; expected one of {AGG_RULES}")


@dataclass(frozen=True)
class _Probe:
    s: float
    g: float
    trace: ContinuationResult | None


def _bisect_scale(case: CaseFile, gap_of, cond_tol: float, kind: str) -> _Probe:
    """Find s with gap(s) = 0, gap decreasing in s; geometric probe then bisect."""

    def probe(s):
        scaled = scale_impedance(case, s)
        try:
            tr = trace_map(scaled)
        except ConverterInfeasible:
            # grid too weak to even carry the light start: far side of the root
            return _Probe(s=s, g=-math.inf, trace=None)
        return _Probe(s=s, g=gap_of(tr), trace=tr)

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
    else:
        return p

    # lo.g > 0 >= hi.g with lo.s < hi.s
    best = lo if abs(lo.g) <= abs(hi.g) else hi
    while hi.s - lo.s > SCALE_REL_TOL * lo.s:
        mid = probe(0.5 * (lo.s + hi.s))
        if mid.trace is not None and abs(mid.g) < abs(best.g):
            best = mid
        if mid.g > 0:
            lo = mid
        else:
            hi = mid
    if best.trace is None or abs(best.g) > cond_tol:
        raise GridStrengthError(f"{kind}: bisection stalled with residual {best.g:.3g}")
    return best


def find_critical_numeric(case: CaseFile) -> BoundaryResult:
    """Scale reactances until the nose of the continuation sits at rated load."""
    best = _bisect_scale(case, lambda tr: tr.lambda_max - 1.0, CRITICAL_TOL, "find_critical_numeric")
    _, g = case_gscr(scale_impedance(case, best.s))
    return BoundaryResult(
        kind="CgSCR",
        value=g,
        scale_star=best.s,
        condition_residual=abs(best.g),
        per_converter_mu=tuple(math.degrees(m) for m in best.trace.mu_at_map),
    )


def find_boundary_numeric(case: CaseFile, aggregation: str = "mean") -> BoundaryResult:
    """Scale reactances until the aggregated overlap angle at the nose is 30 deg."""
    if aggregation not in AGG_RULES:
        raise GridStrengthError(f"unknown aggregation rule {aggregation!r}; expected one of {AGG_RULES}")
    prep = prepare(case)
    weights = np.array([p.p_dn for p in prep.converters])

    def gap(tr: ContinuationResult) -> float:
        mu_deg = np.degrees(np.array(tr.mu_at_map))
        return _mu_aggregate(mu_deg, weights, aggregation) - MU_TARGET_DEG

    best = _bisect_scale(case, gap, BOUNDARY_TOL_DEG, "find_boundary_numeric")
    _, g = case_gscr(scale_impedance(case, best.s))
    return BoundaryResult(
        kind="BgSCR",
        value=g,
        scale_star=best.s,
        condition_residual=abs(best.g),
        per_converter_mu=tuple(math.degrees(m) for m in best.trace.mu_at_map),
    )


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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]
