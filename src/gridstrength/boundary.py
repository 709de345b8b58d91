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
flow sits at rated load, lambda = 1.  The fold is solved for directly as a
point of collapse (Canizares & Alvarado, IEEE TPWRS 8(1), 1993): a Newton on
g(x) = 0, J v = 0, c.v = 1 and one free parameter, s at lambda = 1, started
at the paper's threshold s = gSCR(1)/2; when that fold fails its certificate,
lambda-free folds walk the fold curve lambda_fold(s) from there to lambda = 1
(Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria, 2000).
The fold Jacobian is exact: its second-order terms are the complex form of
MATPOWER's d2Sbus_dV2 (Zimmerman, MATPOWER Technical Note 2, 2010) plus the
converter terms' tangents.  The boundary ratio bisects s on the aggregated
overlap angle at the nose = 30 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile, with_rating
from .converter import ConverterState, LccParams, k_of_c
from .errors import BracketError, ConverterInfeasible, GridStrengthError
from .gscr import EigenResult, compute_gscr, extended_jacobian
from .netmodel import reduce_case, scale_impedance
from .powerflow import (
    U_BAND,
    ContinuationResult,
    GridState,
    PreparedCase,
    _converter_slopes,
    _mismatch_array,
    assemble_jacobian,
    converter_states,
    damped_newton,
    mismatch,
    newton_solve,
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
MODAL_TOL = 1e-12        # the modal fold's: stopped at FOLD_TOL its s can sit 7e-10 off
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

    # at U = 1 and rated orders the converter states do not move with (d, E):
    # one solve seeds the emfs, link by link, and serves every residual
    conv = mismatch(prep, np.zeros(n), U, orders)[2]
    p_sys, q_sys = np.array([(c.P, c.Q) for c in converter_states(prep, conv)]).T * prep.consts.p_dn
    emfs = np.hypot(1.0 - x_link * q_sys, x_link * p_sys)
    delta = np.arctan2(x_link * p_sys, 1.0 - x_link * q_sys)

    def with_emfs(e):
        return replace(prep, net=prep.net._replace(f=e / x_link))

    def resid(x):
        gP, gQ, point = mismatch(with_emfs(x[n:]), x[:n], U, orders, conv)
        return np.concatenate([gP, gQ]), point

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
    """The array kernel's point and J at x and lam times the rated orders, at any bus count."""
    n, orders = prep.n, lam * prep.rated_orders
    t = _mismatch_array(prep, x[:n], x[n:], orders)[2]
    return t, assemble_jacobian(prep, x[:n], x[n:], orders, t)


def _converter_tangent(k, t, dU, dp) -> tuple:
    """Derivative along (dU, dp) of the converter terms of g and of J's dU diagonals at t.

    dp is in converter pu.  The quadratic gives dI = (dp - a cos(gamma) I dU) / root,
    so dI/dp = 1 / root; the rest follows by the chain rule, as in _converter_slopes.
    """
    U, I, P, mQ, cphi, sphi, root = t.U, t.I, t.P, t.mQ, t.cphi, t.sphi, t.root
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
    m = len(c)
    n, k = m // 2, prep.consts
    dd, du = z[m:m + n], z[m + n:2 * m]
    W, inj = t.W, t.inj
    dW = 1j * np.subtract.outer(dd, dd) * W
    dM = dW * t.U + W * du              # the derivative of W_ij U_j
    d_inj = 1j * (dd * inj - W.dot(dd * t.U)) + W.dot(du)
    _, _, dJ_PU, dJ_QU = _converter_tangent(k, t, du, 0.0)
    D = np.block([[np.diag(d_inj.real) - dM.real, np.diag(dJ_PU) + dW.imag],
                  [np.diag(d_inj.imag) - dM.imag, np.diag(dJ_QU) - dW.real]])
    if s_free:
        col = np.concatenate([inj.imag, -inj.real, d_inj.imag, -d_inj.real]) / -z[-1]
    else:
        dgP, dgQ, dJ_PU, dJ_QU = _converter_tangent(k, t, 0.0, prep.rated_orders / k.p_dn)
        col = np.concatenate([dgP, dgQ, dJ_PU * du, dJ_QU * du])
    O = np.zeros((m, m))
    return np.block([[J, O, col[:m, None]], [D, J, col[m:, None]], [O[:1], c[None], 0.0]])


def _solve_fold(prep: PreparedCase, x, v, s: float, lam: float | None = None,
                tol: float = FOLD_TOL) -> _Fold | None:
    """Newton on g(x) = 0, J v = 0, c.v = 1 with c = v / |v|^2, started at (x, v).

    Without lam the unknowns are (x, v, s) at rated load, lam = 1; with lam
    they are (x, v, lam), started at lam, at the fixed scale s.  The solve is
    damped_newton to tol on the exact Jacobian; one that stalls within
    FOLD_TOL has met the residual's rounding floor and counts as converged.
    Returns None when Newton fails or the fold lies outside U_BAND.
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
            t, J = _fold_point(at, load, z[:m])
        except ConverterInfeasible:
            return None
        vv = z[m:2 * m]
        return np.concatenate([t.r, J @ vv, [c @ vv - 1.0]]), (at, J, t)

    res = damped_newton(resid, lambda z, a: _fold_jacobian(a[0], z, c, *a[1:], fixed is None),
                        np.concatenate([x, v, [s if lam is None else lam]]), tol, FOLD_MAX_ITER)
    if res.reason == "singular jacobian":
        raise GridStrengthError("find_critical_numeric: singular fold system")
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
    return lam, x, np.linalg.svd(_fold_point(scaled, lam, x)[1])[2][-1]


def _modal_fold(prep: PreparedCase, g1: float) -> _Fold | None:
    """One fold Newton in s from the paper's threshold s0 = gSCR(1) / 2; None if uncertified."""
    _, x, v = _modal_start(prep, 0.5 * g1)
    fold = _solve_fold(prep, x, v, 0.5 * g1, tol=MODAL_TOL)
    return fold if fold is not None and SCALE_LO <= fold.s <= SCALE_HI else None


def _critical_fold(prep: PreparedCase, g1: float) -> _Fold:
    """Fold at rated load when _modal_fold has none: walk the fold curve lam_fold(s) to lam = 1.

    Every fold frees lam at a fixed s, the first from the modal start at s0 =
    gSCR(1) / 2, else at s0 / 1.5.  The walk steps ln s by h toward lam = 1
    (lam_fold falls with s) from the last fold; h starts at WALK_STEP, grows
    x1.5 after a success up to WALK_STEP_MAX and halves after a failure.
    Illinois regula falsi in s then closes on lam = 1 to MODAL_TOL, each probe
    solved to MODAL_TOL from the bracket end nearer lam = 1 and replaced by the
    midpoint when it fails or leaves the ends' range of lam.  A bracket one
    rounding step wide ends at its nearer end if that is within FOLD_TOL.
    """
    kind = "find_critical_numeric"
    starts = ((s, *_modal_start(prep, s)) for s in (0.5 * g1, g1 / 3.0))
    fold = next(filter(None, (_solve_fold(prep, x, v, s, lam) for s, lam, x, v in starts)), None)
    if fold is None:
        raise GridStrengthError(f"{kind}: no fold from the modal start at scales "
                                f"{0.5 * g1:.6g} and {g1 / 3.0:.6g}")
    up, h, last = fold.lam > 1.0, WALK_STEP, fold
    while (fold.lam > 1.0) == up:
        nxt = _solve_fold(prep, fold.x, fold.v, fold.s * math.exp(h if up else -h), fold.lam)
        if nxt is not None:
            last, fold, h = fold, nxt, min(1.5 * h, WALK_STEP_MAX)
        elif (h := 0.5 * h) < WALK_STEP_MIN:
            raise GridStrengthError(f"{kind}: lost the fold curve at scale {fold.s:.6g} "
                                    f"(lam {fold.lam:.6g})")

    a, b, ga = last, fold, last.lam - 1.0
    while abs(b.lam - 1.0) > MODAL_TOL:
        gb, (lo, hi) = b.lam - 1.0, sorted((a.s, b.s))
        near = a if abs(a.lam - 1.0) < abs(gb) else b
        mid, s, probe = 0.5 * (lo + hi), (a.s * gb - b.s * ga) / (gb - ga), None
        if lo < mid < hi:
            if lo < s < hi:
                probe = _solve_fold(prep, near.x, near.v, s, near.lam, MODAL_TOL)
            if probe is None or not min(a.lam, b.lam) <= probe.lam <= max(a.lam, b.lam):
                probe = _solve_fold(prep, near.x, near.v, mid, near.lam, MODAL_TOL)
        elif abs(near.lam - 1.0) <= FOLD_TOL:
            return near
        if probe is None:
            raise GridStrengthError(f"{kind}: no fold at rated load between scales "
                                    f"{lo:.6g} and {hi:.6g}")
        # Illinois: the end kept a second time in a row has its lam - 1 halved
        if (probe.lam > 1.0) != (b.lam > 1.0):
            a, ga = b, gb
        else:
            ga *= 0.5
        b = probe
    return b


def _index_at_unit_scale(prep: PreparedCase) -> float:
    """gSCR(1), the index at the authored scale; every search's value is gSCR(1) / s."""
    g1 = compute_gscr(extended_jacobian(prep.net.B, prep.consts.p_dn))[1]
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
    fold = _modal_fold(prep, g1) or _critical_fold(prep, g1)
    return _result("CgSCR", g1, fold.s, max(fold.residual, abs(fold.lam - 1.0)),
                   [st.mu for st in fold.states])


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
