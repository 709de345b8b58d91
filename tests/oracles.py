"""Hand-rolled numerical oracles, independent of the library and of numpy.linalg.

Everything here works on plain lists of floats so that an agreement check
against the library is a genuine cross-implementation comparison, not the
same BLAS call twice.  The case-file reference parse shares only the
record types with the library; the central-difference Jacobian
differentiates whatever function it is given, the library's own kernel
included.
"""

import math

from gridstrength.casefile import Branch, Bus, CaseFile, ConverterSpec, TheveninLink


def solve_full_pivot(A, B):
    """Solve A X = B by Gaussian elimination with full pivoting.

    A is n x n, B is n x m, both lists of lists.  Returns X as lists.
    """
    n = len(A)
    m = len(B[0]) if B else 0
    a = [[float(A[i][j]) for j in range(n)] for i in range(n)]
    b = [[float(B[i][j]) for j in range(m)] for i in range(n)]
    col_perm = list(range(n))
    for k in range(n):
        piv, pi, pj = 0.0, k, k
        for i in range(k, n):
            for j in range(k, n):
                if abs(a[i][j]) > piv:
                    piv, pi, pj = abs(a[i][j]), i, j
        if piv == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            b[k], b[pi] = b[pi], b[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            col_perm[k], col_perm[pj] = col_perm[pj], col_perm[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f == 0.0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
            for j in range(m):
                b[i][j] -= f * b[k][j]
    y = [[0.0] * m for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(m):
            s = b[i][j]
            for t in range(i + 1, n):
                s -= a[i][t] * y[t][j]
            y[i][j] = s / a[i][i]
    x = [[0.0] * m for _ in range(n)]
    for i in range(n):
        x[col_perm[i]] = y[i]
    return x


def kron_oracle(M, keep_idx):
    """Schur complement M_kk - M_ke M_ee^-1 M_ek via full-pivot elimination."""
    n = len(M)
    keep = list(keep_idx)
    elim = [i for i in range(n) if i not in set(keep)]
    if not elim:
        return [[float(M[i][j]) for j in keep] for i in keep]
    Bkk = [[float(M[i][j]) for j in keep] for i in keep]
    Bke = [[float(M[i][j]) for j in elim] for i in keep]
    Bek = [[float(M[i][j]) for j in keep] for i in elim]
    Bee = [[float(M[i][j]) for j in elim] for i in elim]
    X = solve_full_pivot(Bee, Bek)
    ne = len(elim)
    return [
        [Bkk[p][q] - sum(Bke[p][t] * X[t][q] for t in range(ne)) for q in range(len(keep))]
        for p in range(len(keep))
    ]


def susceptance_loop(case):
    """Bus susceptance matrix and source vector of a case, one branch and one link at a time.

    Entries are updated in file order, branches first, then links; returns
    (B, f) as lists in bus order.
    """
    idx = {b.id: i for i, b in enumerate(case.buses)}
    n = len(idx)
    B = [[0.0] * n for _ in range(n)]
    f = [0.0] * n
    for br in case.branches:
        i, j = idx[br.from_bus], idx[br.to_bus]
        y = 1.0 / br.reactance_pu
        B[i][j] += y
        B[j][i] += y
        B[i][i] -= y
        B[j][j] -= y
    for ln in case.thevenin_links:
        i = idx[ln.bus]
        B[i][i] -= 1.0 / ln.reactance_pu
        f[i] += ln.emf_pu / ln.reactance_pu
    return B, f


def det_lu(M):
    """Determinant by pure-python LU with partial pivoting."""
    n = len(M)
    a = [[float(M[i][j]) for j in range(n)] for i in range(n)]
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
            a[i][k] = 0.0
    return det


def charpoly_lambda1(M, steps=4000):
    """Smallest eigenvalue of M by walking det(M - lam I) to its first sign
    change below the Gershgorin upper bound, then bisecting.

    Assumes a real spectrum with all eigenvalues positive and the smallest
    one simple relative to the walk step, which holds for the symmetrizable
    M-matrix products exercised here.
    """
    n = len(M)
    hi_bound = max(
        M[i][i] + sum(abs(M[i][j]) for j in range(n) if j != i) for i in range(n)
    )

    def f(lam):
        shifted = [
            [M[i][j] - (lam if i == j else 0.0) for j in range(n)] for i in range(n)
        ]
        return det_lu(shifted)

    lo, f_lo = 0.0, f(0.0)
    if f_lo == 0.0:
        return 0.0
    step = hi_bound / steps
    hi = None
    x = step
    while x <= hi_bound + step:
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) != (f_lo > 0.0):
            hi = x
            break
        lo, f_lo = x, fx
        x += step
    if hi is None:
        raise AssertionError("no sign change of det(M - lam I) below the Gershgorin bound")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi_bound):
            break
    return 0.5 * (lo + hi)


def bisect_low_root(f, lo, hi, iters=200):
    """Root of f in [lo, hi] by plain bisection; endpoints must straddle."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise AssertionError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_central(f, x, h):
    """Central finite difference (f(x+h) - f(x-h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_jacobian(F, z, rel_step=1e-6):
    """Jacobian of F at z by central differences, one coordinate at a time.

    z is a list of floats and F maps such a list to a sequence of floats;
    coordinate k steps by rel_step * max(1, |z_k|).  The reference the fold
    system's exact Jacobian is checked against, block by block.
    """
    cols = []
    for k in range(len(z)):
        h = rel_step * max(1.0, abs(z[k]))
        up, dn = list(z), list(z)
        up[k] += h
        dn[k] -= h
        cols.append([(a - b) / (up[k] - dn[k]) for a, b in zip(F(up), F(dn))])
    return [list(row) for row in zip(*cols)]


def bscr_newton(a, b, b_c, gamma, P_N, Q_N, tol=1e-9, max_iter=60):
    """SCR of the 30-degree-overlap point by a damped Newton in (U, SCR) on central differences.

    The coupled form the closed-form BSCR replaced: the network relation at
    the rated tune E = hypot(1 - Q_N/SCR, P_N/SCR) and the characteristic
    rho T + rho^2/SCR - SCR = 0, both at c = c_B, from (U, SCR) = (0.9, 3).
    Returns None when the Newton stops without converging.
    """
    c_B = 0.5 * (math.cos(gamma) - math.cos(gamma + math.pi / 6.0))
    cphi = math.cos(gamma) - c_B
    tphi = math.sqrt(1.0 - cphi * cphi) / cphi
    K = 1.0 / (cphi * cphi * math.sqrt(1.0 - cphi * cphi))

    def resid(x):
        U, scr = x
        if U <= 0 or scr <= 0:
            return None
        Z = 1.0 / scr
        E = math.hypot(1.0 - Z * Q_N, Z * P_N)
        I = a / b * c_B * U
        P = (a * U * math.cos(gamma) - b * I) * I
        Q = -P * tphi + b_c * U * U
        rho, T = P / (U * U), 2.0 * c_B * K + 2.0 * b_c * U * U / P
        return [(P * Z) ** 2 + (U * U - Q * Z) ** 2 - (E * U) ** 2, rho * T + rho * rho / scr - scr]

    x, r = [0.9, 3.0], resid([0.9, 3.0])
    for _ in range(max_iter):
        if max(map(abs, r)) <= tol:
            return x[1]
        (j11, j12), (j21, j22) = central_jacobian(resid, x, 1e-7)
        det = j11 * j22 - j12 * j21
        dx = [(-r[0] * j22 + r[1] * j12) / det, (-r[1] * j11 + r[0] * j21) / det]
        for alpha in (0.5 ** k for k in range(7)):
            trial = [x[0] + alpha * dx[0], x[1] + alpha * dx[1]]
            r_try = resid(trial)
            if r_try is not None and max(map(abs, r_try)) < max(map(abs, r)):
                x, r = trial, r_try
                break
        else:
            return None
    return None


def parse_by_keyword(doc, name=""):
    """The CaseFile a well-formed case document describes, each record built by keyword.

    No validation: the reference for what case_from_dict builds from a
    document it accepts.
    """
    gamma_default = {50.0: 18.0, 60.0: 15.0}
    frequency = float(doc["frequency_hz"])

    def converter(c):
        gamma = c.get("gamma_deg")
        return ConverterSpec(
            bus=str(c["bus"]),
            p_dn_mw=float(c["p_dn_mw"]),
            gamma_deg=gamma_default[frequency] if gamma is None else float(gamma),
            n_bridges=int(float(c["n_bridges"])),
            k_ratio=float(c["k_ratio"]),
            x_commutation_pu=float(c["x_commutation_pu"]),
            r_dc_pu=float(c["r_dc_pu"]),
            b_c_pu=float(c["b_c_pu"]),
            u_ac_kv=float(c["u_ac_kv"]),
            control=str(c.get("control", "cp-cea")),
        )

    return CaseFile(
        system_base_mva=float(doc["system_base_mva"]),
        frequency_hz=frequency,
        buses=tuple(Bus(id=str(b["id"]), kind=str(b.get("kind", "converter")))
                    for b in doc["buses"]),
        branches=tuple(Branch(from_bus=str(br["from"]), to_bus=str(br["to"]),
                              reactance_pu=float(br["reactance_pu"]))
                       for br in doc.get("branches", [])),
        thevenin_links=tuple(TheveninLink(bus=str(ln["bus"]), reactance_pu=float(ln["reactance_pu"]),
                                          emf_pu=float(ln["emf_pu"]))
                             for ln in doc["thevenin_links"]),
        converters=tuple(converter(c) for c in doc["converters"]),
        name=name or str(doc.get("name", "")),
        comment=str(doc.get("comment", "")),
    )
