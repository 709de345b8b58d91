"""Critical and boundary strength ratios.

Single-infeed closed forms come from the characteristic relation
rho*T + rho^2/SCR - SCR = 0: at the rated point (rho = 1) the positive
root is (T_N + sqrt(T_N^2 + 4))/2, and at the 30-degree-overlap point,
where c = c_B fixes rho_B and T_B, it is rho_B times that root at T_B.

Multi-infeed thresholds are found numerically by scaling every reactance
by s.  Kron reduction is homogeneous in the reactances, so a search
prepares the case once, each probe divides the reduced B and source vector
by s, and the index J_eq = -diag(1/P_N) B at the found scale is reported
as gSCR(1)/s without reducing the scaled case again.  Sources keep their
authored emfs during a search; scaling touches reactances only.

The critical ratio is the scale at which the saddle-node (fold) of the power
flow sits at rated load, lambda = 1: powerflow's s-free fold solve from the
paper's threshold s = gSCR(1)/2, or, when that fold fails its certificate,
lambda-free folds that walk the fold curve lambda_fold(s) across lambda = 1
(Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria, 2000)
and the same s-free solve, closing on rated load from the walk's end above
it.  The boundary ratio bisects s on the aggregated overlap angle at 30 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile, with_rating
from .converter import LccParams, k_of_c
from .errors import BracketError, CaseFormatError, ConverterInfeasible, GridStrengthError
from .gscr import EigenResult, compute_gscr, extended_jacobian
from .netmodel import reduce_case, scale_impedance
from .powerflow import (
    ContinuationResult,
    PreparedCase,
    _at_scale,
    _Fold,
    _modal_start,
    _solve_fold,
    assemble_jacobian,
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
WALK_STEP = math.log(1.1)       # the fold walk's first step in ln s,
WALK_STEP_MAX = math.log(1.5)   # its largest,
WALK_STEP_MIN = 1e-3            # and the step below which the walk has lost the fold curve
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
    """SCR at which the 30-degree-overlap point sits on the characteristic, in closed form.

    At c = c_B the converter equations give I = (a/b) c_B U, so the delivered
    power P = (a^2/b) c_B (cos(gamma) - c_B) U^2 and Q = -P tan(phi) + b_c U^2
    are both proportional to U^2.  rho_B = P / U^2 and T_B = 2 c_B K(c_B) +
    2 b_c / rho_B then depend on neither U_B nor the source emf, and the
    characteristic rho T + rho^2/SCR - SCR = 0 gives SCR = rho_B CSCR(T_B);
    the network relation only pins U_B.
    """
    c_B = boundary_overlap_c(params.gamma)
    cphi = math.cos(params.gamma) - c_B
    if not 0.0 < cphi < 1.0:
        raise GridStrengthError("bscr_solve: 30 degree overlap is outside the model domain")
    rho = params.a * params.a / params.b * c_B * cphi
    return rho * cscr_closed_form(2.0 * c_B * k_of_c(c_B, params.gamma) + 2.0 * params.b_c / rho)


def _index(B: np.ndarray, p_n: np.ndarray, buses) -> tuple[EigenResult, float]:
    """compute_gscr of J_eq = -diag(1/p_n) B; CaseFormatError names a bus whose row overflows."""
    with np.errstate(over="ignore"):    # an overflow is named below
        J = extended_jacobian(B, p_n)
    if not np.isfinite(J.matrix).all():     # scanned by row only when it fails
        i = np.isfinite(J.matrix).all(axis=1).argmin()
        raise CaseFormatError(f"network: bus {buses[i]!r}: max |B_ij| / rating = "
                              f"{np.abs(B[i]).max():.3g} / {p_n[i]:.3g} overflows")
    return compute_gscr(J)


def case_gscr(case: CaseFile) -> tuple[EigenResult, float]:
    """Grid-strength index of a case: smallest eigenvalue of the extended Jacobian."""
    net = reduce_case(case)
    # case.rating_pu of each bus's converter, the same quotients as one array division
    p_n = np.fromiter((case.converter_at(b).p_dn_mw for b in net.bus_order), float) / case.system_base_mva
    return _index(net.B, p_n, net.bus_order)


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

    # at U = 1 and rated orders the converter states do not move with (d, E):
    # one solve seeds the emfs, link by link, and serves every residual
    conv = mismatch(prep, np.zeros(n), U, orders)[1]
    p_sys, q_sys = np.array([(c.P, c.Q) for c in converter_states(prep, conv)]).T * prep.consts.p_dn
    emfs = np.hypot(1.0 - x_link * q_sys, x_link * p_sys)
    delta = np.arctan2(x_link * p_sys, 1.0 - x_link * q_sys)

    def with_emfs(e):
        return replace(prep, net=prep.net._replace(f=e / x_link))

    def resid(x):
        return mismatch(with_emfs(x[n:]), x[:n], U, orders, conv)

    def jac(x, point):
        d = x[:n]
        J = assemble_jacobian(with_emfs(x[n:]), d, U, orders, point)
        J[:, n:] = np.vstack([np.diag(np.sin(d) / x_link), -np.diag(np.cos(d) / x_link)])
        return J

    res = damped_newton(resid, jac, np.concatenate([delta, emfs]), 1e-12, 40)
    # 40 iterations that end within 1e-10 are accepted
    if res.reason and not (res.reason == "iteration limit" and res.norm <= 1e-10):
        raise GridStrengthError(f"tune_sources: {res.reason}")
    new_links = tuple(ln._replace(emf_pu=float(res.x[n + prep.net.bus_order.index(ln.bus)]))
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
    result: ContinuationResult | None


def _bracket(probe) -> tuple[_Probe, _Probe]:
    """Probe s = 1, then multiply or divide s by 1.5 until the gap changes sign.

    Returns (lo, hi) with lo.g > 0 >= hi.g and lo.s < hi.s, or (p, p) when
    the gap at s = 1 is exactly 0.  The gap is assumed to fall with s.
    """
    lo = hi = probe(1.0)
    up = lo.g > 0
    while hi.g > 0 if up else lo.g < 0:
        s_next = hi.s * 1.5 if up else lo.s / 1.5
        if not SCALE_LO <= s_next <= SCALE_HI:
            raise BracketError("find_boundary_numeric: no sign change "
                               + (f"up to scale {SCALE_HI}" if up else f"down to scale {SCALE_LO}"))
        p = probe(s_next)
        lo, hi = (hi, p) if up else (p, lo)
    return lo, hi


def _bisect_scale(prep: PreparedCase, gap_of, cond_tol: float) -> _Probe:
    """Find s with gap(s) = 0, gap decreasing in s; geometric probe then bisect."""

    def probe(s):
        try:
            tr = trace_map(_at_scale(prep, s))
        except ConverterInfeasible:
            # grid too weak to even carry the light start: far side of the root
            return _Probe(s=s, g=-math.inf, result=None)
        return _Probe(s=s, g=gap_of(tr), result=tr)

    lo, hi = _bracket(probe)
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
        raise GridStrengthError(f"find_boundary_numeric: bisection stalled with residual {best.g:.3g}")
    return best


def _modal_fold(prep: PreparedCase, g1: float, start) -> _Fold | None:
    """One fold Newton in s from start, the modal start at s0 = gSCR(1) / 2; None if uncertified."""
    _, x, v = start
    fold = _solve_fold(prep, x, v, 0.5 * g1)
    return fold if fold is not None and SCALE_LO <= fold.s <= SCALE_HI else None


def _walk_folds(prep: PreparedCase, fold: _Fold, gap, kind: str):
    """Walk lam_fold(s) from fold to gap = 0, gap falling with s: (lo, hi), the last two folds,
    lo.s < hi.s and gap(lo) > 0 >= gap(hi).  Each step moves ln s by h from the last fold; h
    starts at WALK_STEP, grows x1.5 up to WALK_STEP_MAX and halves after a failure."""
    up, h, last = gap(fold) > 0, WALK_STEP, fold
    while (gap(fold) > 0) == up:
        nxt = _solve_fold(prep, fold.x, fold.v, fold.s * math.exp(h if up else -h), fold.lam, kind)
        if nxt is not None:
            last, fold, h = fold, nxt, min(1.5 * h, WALK_STEP_MAX)
        elif (h := 0.5 * h) < WALK_STEP_MIN:
            raise GridStrengthError(f"{kind}: lost the fold curve at scale {fold.s:.6g} "
                                    f"(lam {fold.lam:.6g})")
    return (last, fold) if up else (fold, last)


def _critical_fold(prep: PreparedCase, g1: float, start) -> _Fold:
    """Fold at rated load when _modal_fold has none: _walk_folds across lam = 1 from a lam-free
    fold at start, _modal_fold's, else at the modal start at s0 / 1.5, then _modal_fold's s-free
    Newton from lo, above rated load where every converter has a steady state, into [lo.s, hi.s]."""
    kind = "find_critical_numeric"
    starts = ((s, *(_modal_start(prep, s) if i else start)) for i, s in enumerate((0.5 * g1, g1 / 3.0)))
    fold = next(filter(None, (_solve_fold(prep, x, v, s, lam) for s, lam, x, v in starts)), None)
    if fold is None:
        raise GridStrengthError(f"{kind}: no fold from the modal start at scales "
                                f"{0.5 * g1:.6g} and {g1 / 3.0:.6g}")
    lo, hi = _walk_folds(prep, fold, lambda f: f.lam - 1.0, kind)
    rated = _solve_fold(prep, lo.x, lo.v, lo.s)
    if rated is None or not lo.s <= rated.s <= hi.s:
        raise GridStrengthError(f"{kind}: no fold at rated load between scales "
                                f"{lo.s:.6g} and {hi.s:.6g}")
    return rated


def _index_at_unit_scale(prep: PreparedCase) -> float:
    """gSCR(1), the index at the authored scale; every search's value is gSCR(1) / s."""
    g1 = _index(prep.net.B, prep.consts.p_dn, prep.net.bus_order)[1]
    if not g1 > 0:
        raise GridStrengthError(f"threshold search: gSCR at scale 1 is {g1:.6g}, not positive")
    return g1


def _result(kind: str, g1: float, s: float, residual: float, mu_rad) -> BoundaryResult:
    """The search's answer at scale s: the index there is gSCR(1) / s."""
    return BoundaryResult(kind=kind, value=g1 / s, scale_star=s, condition_residual=residual,
                          per_converter_mu=tuple(math.degrees(m) for m in mu_rad))


def find_critical_numeric(case: CaseFile) -> BoundaryResult:
    """Scale reactances until the fold of the power flow sits at rated load."""
    prep = prepare(case)
    g1 = _index_at_unit_scale(prep)
    start = _modal_start(prep, 0.5 * g1)
    fold = _modal_fold(prep, g1, start) or _critical_fold(prep, g1, start)
    return _result("CgSCR", g1, fold.s, fold.residual, [st.mu for st in fold.states])


def find_boundary_numeric(case: CaseFile, aggregation: str = "mean") -> BoundaryResult:
    """Scale reactances until the aggregated overlap angle at the nose is 30 deg."""
    aggregate = _AGGREGATE.get(aggregation)
    if aggregate is None:
        raise GridStrengthError(f"unknown aggregation rule {aggregation!r}; expected one of {AGG_RULES}")
    prep = prepare(case)
    g1 = _index_at_unit_scale(prep)

    def gap(tr: ContinuationResult) -> float:
        return aggregate(np.degrees(np.array(tr.mu_at_map)), prep.consts.p_dn) - MU_TARGET_DEG

    best = _bisect_scale(prep, gap, BOUNDARY_TOL_DEG)
    return _result("BgSCR", g1, best.s, abs(best.g), best.result.mu_at_map)


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
