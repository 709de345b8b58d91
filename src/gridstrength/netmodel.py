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
matrix and the reduced source vector together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .casefile import CaseFile
from .errors import CaseFormatError, GridStrengthError


@dataclass(frozen=True)
class SusceptanceMatrix:
    matrix: np.ndarray          # n x n, pu
    bus_order: tuple[str, ...]  # row i corresponds to bus_order[i]

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.bus_order):
            raise GridStrengthError("susceptance matrix shape does not match bus order")

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def index_of(self, bus: str) -> int:
        return self.bus_order.index(bus)


def build_susceptance(case: CaseFile) -> SusceptanceMatrix:
    order = tuple(b.id for b in case.buses)
    idx = {b: i for i, b in enumerate(order)}
    n = len(order)
    links = case.thevenin_links
    # ends i, j; a Thevenin link is a branch to the ground node, index n, dropped at the end
    ends = np.array(([idx[br.from_bus] for br in case.branches] + [idx[ln.bus] for ln in links],
                     [idx[br.to_bus] for br in case.branches] + [n] * len(links)), dtype=np.intp)
    y = 1.0 / np.array([br.reactance_pu for br in case.branches]
                       + [ln.reactance_pu for ln in links], dtype=float)
    # flat cells (i,j) (j,i) (i,i) (j,j) of each branch in file order: bincount
    # adds them in that order, as a loop over branches then links would
    m = n + 1
    cells = ends.T @ np.array([[m, 1, m + 1, 0], [1, m, 0, m + 1]])
    vals = y[:, None] * np.array([1.0, 1.0, -1.0, -1.0])
    B = np.bincount(cells.ravel(), weights=vals.ravel(), minlength=m * m).reshape(m, m)
    return SusceptanceMatrix(matrix=B[:n, :n].copy(), bus_order=order)


def _split(B: SusceptanceMatrix, keep) -> tuple[np.ndarray, int]:
    """Bus positions, kept buses first and each group in bus order, and the kept count."""
    keep_idx, elim_idx = [], []
    for i, b in enumerate(B.bus_order):
        (keep_idx if b in keep else elim_idx).append(i)
    return np.array(keep_idx + elim_idx, dtype=np.intp), len(keep_idx)


def _eliminate(B: SusceptanceMatrix, perm: np.ndarray, k: int, f=None):
    """Schur complement onto the first k buses of perm with one factorization of B_ee.

    B_ee X = [B_ek | f_e] is solved for all right-hand sides at once; returns
    the reduced matrix and, when f is given, f_k - B_ke B_ee^-1 f_e.
    """
    M = B.matrix.take(perm, 0).take(perm, 1)
    Bke = M[:k, k:]
    rhs = Bke.T if f is None else np.column_stack((Bke.T, f.take(perm[k:])))
    try:
        X = np.linalg.solve(M[k:, k:], rhs)
    except np.linalg.LinAlgError:
        floating = [B.bus_order[i] for i in perm[k:]]
        raise GridStrengthError(
            f"kron_reduce: singular internal block, buses {floating} float with no path to a source"
        ) from None
    P = Bke @ X
    red = M[:k, :k] - P[:, :k]
    red = 0.5 * (red + red.T)  # exact symmetry, elimination is symmetric in theory
    reduced = SusceptanceMatrix(matrix=red, bus_order=tuple(B.bus_order[i] for i in perm[:k]))
    return reduced, None if f is None else f.take(perm[:k]) - P[:, k]


def kron_reduce(B: SusceptanceMatrix, keep: set[str] | tuple[str, ...]) -> SusceptanceMatrix:
    """Eliminate all buses outside ``keep``: B_kk - B_ke B_ee^-1 B_ek."""
    keep_set = set(keep)
    unknown = keep_set - set(B.bus_order)
    if unknown:
        raise GridStrengthError(f"kron_reduce: unknown buses {sorted(unknown)}")
    perm, k = _split(B, keep_set)
    if k == B.order:
        return B
    return _eliminate(B, perm, k)[0]


def source_vector(case: CaseFile, B: SusceptanceMatrix) -> np.ndarray:
    """Per-bus equivalent source injection f_i = E_i / x_ti (0 where no link)."""
    idx = {b: i for i, b in enumerate(B.bus_order)}
    links = case.thevenin_links
    at = np.array([idx[ln.bus] for ln in links], dtype=np.intp)
    return np.bincount(at, weights=[ln.emf_pu / ln.reactance_pu for ln in links], minlength=B.order)


class ReducedNetwork(NamedTuple):
    """Network seen from the converter buses after eliminating internal ones.

    ``f`` is the reduced equivalent source vector: f_red = f_c - B_ce B_ee^-1 f_e.
    The bus power expressions used by the power flow are

        P_i = sum_j B_ij U_i U_j sin(d_i - d_j) + f_i U_i sin(d_i)
        Q_i = -sum_j B_ij U_i U_j cos(d_i - d_j) - f_i U_i cos(d_i)

    with angles measured against the common source phase.
    """

    B: SusceptanceMatrix
    f: np.ndarray

    @property
    def order(self) -> int:
        return self.B.order

    @property
    def bus_order(self) -> tuple[str, ...]:
        return self.B.bus_order


def reduce_case(case: CaseFile) -> ReducedNetwork:
    B = build_susceptance(case)
    f = source_vector(case, B)
    keep = set(case.converter_buses())
    if len(keep) < B.order:     # internal buses to eliminate (bus ids are unique)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            B, f = _eliminate(B, *_split(B, keep), f)
    ok = np.isfinite(B.matrix).all(axis=1) & np.isfinite(f)
    if not ok.all():
        raise CaseFormatError(f"network: bus {B.bus_order[ok.argmin()]!r}: 1/reactance_pu overflows")
    return ReducedNetwork(B=B, f=f)


def scale_impedance(case: CaseFile, s: float) -> CaseFile:
    """Multiply every branch and Thevenin reactance by s; nothing else changes."""
    if not s > 0:
        raise GridStrengthError(f"scale_impedance: scale must be positive, got {s}")
    branches = tuple(br._replace(reactance_pu=br.reactance_pu * s) for br in case.branches)
    links = tuple(ln._replace(reactance_pu=ln.reactance_pu * s) for ln in case.thevenin_links)
    return replace(case, branches=branches, thevenin_links=links)
