"""Susceptance-matrix assembly, Kron reduction and impedance scaling.

The network is purely inductive.  With every branch reactance x_ij and
Thevenin reactance x_ti the bus susceptance matrix is

    B_ij = 1/x_ij            (i != j, branch present)
    B_ii = -(sum_j 1/x_ij + 1/x_ti)

so diagonals are negative, off-diagonals nonnegative, and -B is an
M-matrix whenever the grounded graph is connected.  The ground node is
implicit: Thevenin links only deepen diagonals.

B is assembled from index arrays, as MATPOWER's makeYbus does (Zimmerman
et al., IEEE TPWRS 26(1), 2011): one bincount adds every entry in file
order, branches then links, so B is bitwise what a loop over them gives.
Kron reduction is the Schur complement of the internal block B_ee (Dörfler
& Bullo, IEEE TCAS-I 60(1), 2013); B_ee is factored once, for the reduced
matrix and the reduced source vector together.  `reduce_case` assembles B
and f with the converter buses first, so the blocks are slices.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile
from .errors import CaseFormatError, GridStrengthError

_CELL_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])    # of a branch's cells (i,j) (j,i) (i,i) (j,j)


def _assemble(case: CaseFile, order) -> tuple[np.ndarray, np.ndarray]:
    """B and f with rows in the given bus order, from one pass over branches then links."""
    # a Thevenin link is a branch to the ground node, key None and index n, dropped at the end
    n, idx = len(order), dict(zip((*order, None), range(len(order) + 1)))
    # columns of the records; validation guarantees at least one link
    fr, to, x = zip(*case.branches) if case.branches else ((), (), ())
    at, x_link, emf = zip(*case.thevenin_links)
    ends = np.fromiter(map(idx.__getitem__, fr + at + to + (None,) * len(at)), np.intp).reshape(2, -1)
    y = np.divide(1.0, x + x_link)
    # flat cells (i,j) (j,i) (i,i) (j,j) of each branch in file order: bincount
    # adds them in that order, as a loop over branches then links would
    m = n + 1
    cells = ends.T @ np.array([[m, 1, m + 1, 0], [1, m, 0, m + 1]])
    vals = y[:, None] * _CELL_SIGNS
    B = np.bincount(cells.ravel(), weights=vals.ravel(), minlength=m * m).reshape(m, m)
    f = np.bincount(ends[0, len(fr):], weights=np.divide(emf, x_link), minlength=n)
    return B[:n, :n].copy(), f


def _schur(M: np.ndarray, order, k: int, f: np.ndarray):
    """Schur complement of M onto its first k buses with one factorization of M_ee.

    M_ee X = [M_ek | f_e] is solved for both right-hand sides at once; returns
    the reduced matrix and f_k - M_ke M_ee^-1 f_e.
    """
    Bke = M[:k, k:]
    try:
        X = np.linalg.solve(M[k:, k:], np.concatenate((Bke.T, f[k:, None]), axis=1))
    except np.linalg.LinAlgError:
        raise GridStrengthError(
            f"reduce_case: singular internal block, buses {list(order[k:])} float with no path to a source"
        ) from None
    P = Bke @ X
    red = M[:k, :k] - P[:, :k]
    red = 0.5 * (red + red.T)  # exact symmetry, elimination is symmetric in theory
    return red, f[:k] - P[:, k]


class ReducedNetwork(NamedTuple):
    """Network seen from the converter buses after eliminating internal ones.

    ``f`` is the reduced equivalent source vector: f_red = f_c - B_ce B_ee^-1 f_e.
    The bus power expressions used by the power flow are

        P_i = sum_j B_ij U_i U_j sin(d_i - d_j) + f_i U_i sin(d_i)
        Q_i = -sum_j B_ij U_i U_j cos(d_i - d_j) - f_i U_i cos(d_i)

    with angles measured against the common source phase.
    """

    B: np.ndarray               # n x n reduced susceptance matrix, pu
    f: np.ndarray
    bus_order: tuple[str, ...]  # row i of B and entry i of f belong to bus_order[i]


# Bound on n·|B_ii| for every bus i of the reduced network.  The diagonal of
# -B dominates its row (|B_ij| <= |B_ii|), and what follows B sums its
# entries: the power flow sums n products B_ij U_i U_j, and
# `gscr._symmetrized` adds S = D^{1/2} (-B) D^{1/2} to its transpose, within
# 2**501 / p for the smallest rating p.  A finite B near the float limit would
# make these sums overflow to inf or nan instead of naming the bus.  The
# eigensolve and the eigenpair check's norms need no bound of their own:
# `gscr.compute_gscr` scales S and J = -B/p by a power of two that brings
# max |S|, and with it every |J_ij| <= |S_ii|, near 1 first.  The reduced
# source term f_i takes the same bound on n·|f_i|: f_i e^{j d_i} is one more
# term of each sum f_i e^{j d_i} + sum_j B_ij U_j e^{j (d_i - d_j)} that gives
# the mismatch, the Jacobian's angle diagonals and the fold system's J v, so
# those stay within (1/n + max_j U_j)·2**500, and their squares finite.
B_BOUND = 2.0**500


def reduce_case(case: CaseFile) -> ReducedNetwork:
    # one bus index with the converter buses first, each group in bus order:
    # B and f come out already split for the Schur complement
    conv = [b.id for b in case.buses if b.kind == "converter"]
    order = conv + [b.id for b in case.buses if b.kind != "converter"]
    B, f = _assemble(case, order)
    k = len(conv)
    if k < len(order):      # internal buses to eliminate (bus ids are unique)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            B, f = _schur(B, order, k, f)
    bound = B_BOUND / k
    # one whole-array test, false on nan and inf; max |B| >= max |B_ii|, so only a
    # network that fails it can fail the scans that name the first bus
    if not (np.abs(B).max() <= bound and np.abs(f).max() <= bound):
        ok = np.isfinite(B).all(axis=1) & np.isfinite(f)
        if not ok.all():
            raise CaseFormatError(f"network: bus {order[ok.argmin()]!r}: 1/reactance_pu overflows")
        for what, size in (("1/reactance_pu", np.abs(np.diagonal(B))),
                           ("emf_pu/reactance_pu", np.abs(f))):
            i = (size > bound).argmax()
            if size[i] > bound:
                raise CaseFormatError(f"network: bus {order[i]!r}: {what} sums to "
                                      f"{size[i]:.3g}, above 2**500/n = {bound:.3g}")
    return ReducedNetwork(B=B, f=f, bus_order=tuple(conv))


def scale_impedance(case: CaseFile, s: float) -> CaseFile:
    """Multiply every branch and Thevenin reactance by s; nothing else changes."""
    if not s > 0:
        raise GridStrengthError(f"scale_impedance: scale must be positive, got {s}")
    branches = tuple(br._replace(reactance_pu=br.reactance_pu * s) for br in case.branches)
    links = tuple(ln._replace(reactance_pu=ln.reactance_pu * s) for ln in case.thevenin_links)
    return replace(case, branches=branches, thevenin_links=links)
