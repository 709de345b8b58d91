"""Independent reference computations the workloads check outputs against.

Nothing here calls into gridstrength's numerics: the susceptance matrix,
Kron reduction, converter steady state and bus power balance are rebuilt
from the case data with plain numpy, so a defect in a layer cannot also
hide itself in the check.
"""

from __future__ import annotations

import math

import numpy as np


def reduced_network(case):
    """(converter bus ids, B_red, f_red) by Kron reduction of the full network."""
    ids = [b.id for b in case.buses]
    idx = {b: i for i, b in enumerate(ids)}
    B = np.zeros((len(ids), len(ids)))
    f = np.zeros(len(ids))
    for br in case.branches:
        i, j = idx[br.from_bus], idx[br.to_bus]
        y = 1.0 / br.reactance_pu
        B[i, j] += y
        B[j, i] += y
        B[i, i] -= y
        B[j, j] -= y
    for ln in case.thevenin_links:
        i = idx[ln.bus]
        B[i, i] -= 1.0 / ln.reactance_pu
        f[i] += ln.emf_pu / ln.reactance_pu
    keep = [i for i, b in enumerate(case.buses) if b.kind == "converter"]
    elim = [i for i, b in enumerate(case.buses) if b.kind != "converter"]
    B_red = B[np.ix_(keep, keep)]
    f_red = f[keep]
    if elim:
        B_ke = B[np.ix_(keep, elim)]
        X = np.linalg.solve(B[np.ix_(elim, elim)], np.column_stack([B_ke.T, f[elim]]))
        B_red = B_red - B_ke @ X[:, :-1]
        f_red = f_red - B_ke @ X[:, -1]
    return [ids[i] for i in keep], B_red, f_red


def gscr_nonsymmetric(case) -> float:
    """Smallest eigenvalue of J_eq = -diag(1/P_N) B_red from a general eigensolve."""
    buses, B_red, _ = reduced_network(case)
    p_n = np.array([case.rating_pu(case.converter_at(b)) for b in buses])
    ev = np.linalg.eigvals(-B_red / p_n[:, None])
    return float(np.min(ev.real))


def strength_label(g: float, cg: float = 2.0, bg: float = 3.0) -> str:
    return "VeryWeak" if g < cg else ("Weak" if g <= bg else "Strong")


def rated_converter_pq(spec, U: float) -> tuple[float, float]:
    """(P, Q) in converter-local pu at AC voltage U under the rated order (CP-CEA)."""
    a = 3.0 * math.sqrt(2.0) * spec.n_bridges * spec.k_ratio / math.pi
    b = 3.0 * spec.n_bridges * spec.x_commutation_pu / math.pi
    r = spec.r_dc_pu
    cg = math.cos(math.radians(spec.gamma_deg))
    i_rated = 2.0 / (a * cg + math.sqrt((a * cg) ** 2 - 4.0 * b))
    order = 1.0 + i_rated * i_rated * r
    i_d = 2.0 * order / (a * U * cg + math.sqrt((a * U * cg) ** 2 - 4.0 * (b - r) * order))
    P = order - i_d * i_d * r
    cphi = cg - (b / a) * i_d / U
    Q = -P * math.sqrt(1.0 - cphi * cphi) / cphi + spec.b_c_pu * U * U
    return P, Q


def power_balance_residual(case, delta, U, P_sys, Q_sys) -> float:
    """Max |network injection - converter draw| over buses, system pu.

    Network side: P_i = sum_j B_ij U_i U_j sin(d_i - d_j) + f_i U_i sin(d_i),
    Q_i = -sum_j B_ij U_i U_j cos(d_i - d_j) - f_i U_i cos(d_i).
    """
    _, B, f = reduced_network(case)
    th = delta[:, None] - delta[None, :]
    P_net = U * ((B * np.sin(th)) @ U) + f * U * np.sin(delta)
    Q_net = -U * ((B * np.cos(th)) @ U) - f * U * np.cos(delta)
    return float(max(np.max(np.abs(P_net - P_sys)), np.max(np.abs(Q_net - Q_sys))))
