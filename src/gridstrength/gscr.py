"""Extended Jacobian, its spectrum, the strength index and classification.

J_eq = -D B with D = diag(1/P_Ni) over the reduced susceptance matrix.
J_eq is diagonally similar to the symmetric S = D^{1/2} (-B) D^{1/2}
(both scalings by sqrt of ratings), so the spectrum is real and the
minimum eigenvalue, the gSCR, is computed from a symmetric eigensolve
rather than a general nonsymmetric one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EigenSolveError, GridStrengthError
from .netmodel import SusceptanceMatrix

# relative spectral gap under which simplicity is reported as degenerate
DEGENERATE_GAP = 1e-9


class ExtendedJacobian(NamedTuple):
    matrix: np.ndarray      # -diag(1/P_N) B_red
    p_n: np.ndarray         # ratings, system-base pu
    bus_order: tuple[str, ...]


class EigenResult(NamedTuple):
    lambdas: np.ndarray         # ascending
    perron_vector: np.ndarray   # eigenvector of lambda_1, unit sum, positive
    transform: np.ndarray       # columns diagonalize J_eq (W^-1 J W = diag)


class StrengthClass(NamedTuple):
    label: str              # "VeryWeak" | "Weak" | "Strong"
    cg: float
    bg: float


class PerronReport(NamedTuple):
    """Spectral sanity of J_eq: positivity, simplicity, Perron positivity."""

    lambda1: float
    gap: float                  # lambda_2 - lambda_1
    min_component: float        # smallest Perron-vector entry
    relative_gap: float         # gap / lambda_n
    degenerate: bool            # relative gap below DEGENERATE_GAP

    @property
    def positive(self) -> bool:
        return self.lambda1 > 0

    @property
    def simple(self) -> bool:
        return self.gap > 0 and not self.degenerate

    @property
    def perron_positive(self) -> bool:
        return self.min_component > 0


def extended_jacobian(B_red: SusceptanceMatrix, p_n) -> ExtendedJacobian:
    p = np.asarray(p_n, dtype=float)
    if p.shape != (B_red.order,):
        raise GridStrengthError(
            f"extended_jacobian: {p.size} ratings for {B_red.order} buses"
        )
    if np.any(p <= 0):
        raise GridStrengthError("extended_jacobian: ratings must be positive")
    return ExtendedJacobian(
        matrix=-B_red.matrix / p[:, None],
        p_n=p,
        bus_order=B_red.bus_order,
    )


def _symmetrized(J: ExtendedJacobian) -> np.ndarray:
    d = 1.0 / np.sqrt(J.p_n)
    # S = D^{1/2} (-B) D^{1/2}; recover -B as diag(P_N) J_eq
    negB = J.p_n[:, None] * J.matrix
    S = d[:, None] * negB * d[None, :]
    return 0.5 * (S + S.T)


def compute_gscr(J: ExtendedJacobian) -> tuple[EigenResult, float]:
    """Spectrum of J_eq via the symmetrized form; gSCR is the smallest eigenvalue."""
    S = _symmetrized(J)
    try:
        lam, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"symmetric eigensolve failed: {exc}") from exc
    d = 1.0 / np.sqrt(J.p_n)
    W = d[:, None] * V            # columns are eigenvectors of J_eq
    w1 = W[:, 0] / np.linalg.norm(W[:, 0])
    resid = np.linalg.norm(J.matrix @ w1 - lam[0] * w1)
    scale = np.linalg.norm(J.matrix)
    if scale > 0 and resid > 1e-10 * scale:
        raise EigenSolveError(f"eigenpair residual {resid:.3e} exceeds tolerance")
    # fix sign by the largest-magnitude component, then normalize to unit sum
    if w1[np.argmax(np.abs(w1))] < 0:
        w1 = -w1
    s = w1.sum()
    if s != 0:
        w1 = w1 / s
    res = EigenResult(lambdas=lam, perron_vector=w1, transform=W)
    return res, float(lam[0])


def perron_check(J: ExtendedJacobian) -> PerronReport:
    """perron_report of J's spectrum, from one compute_gscr."""
    return perron_report(compute_gscr(J)[0])


def perron_report(eig: EigenResult) -> PerronReport:
    """Margins for lambda_1 > 0, simplicity and Perron positivity of a computed spectrum.

    Failures are report entries, not exceptions: exactly symmetric
    topologies with zero coupling legitimately collapse the spectral gap.
    """
    lam = eig.lambdas
    gap = float(lam[1] - lam[0]) if len(lam) > 1 else float("inf")
    lam_n = float(lam[-1])
    rel = gap / lam_n if lam_n > 0 else 0.0
    return PerronReport(
        lambda1=float(lam[0]),
        gap=gap,
        min_component=float(np.min(eig.perron_vector)),
        relative_gap=rel,
        degenerate=rel <= DEGENERATE_GAP,
    )


def characteristic_delta(rho: float, T: float, lam: float) -> float:
    """Delta(O) = rho T + rho^2 / lambda - lambda."""
    if lam <= 0:
        raise GridStrengthError("characteristic_delta: lambda must be positive")
    return rho * T + rho * rho / lam - lam


def factorization_check(J: ExtendedJacobian, rho: float, T: float) -> float:
    """Relative residual between det(rho T I + rho^2 J^-1 - J) and the eigenvalue product."""
    lam = np.linalg.eigvalsh(_symmetrized(J))
    if np.any(lam == 0):
        raise GridStrengthError("factorization_check: singular extended Jacobian")
    M = rho * T * np.eye(len(lam)) + rho * rho * np.linalg.inv(J.matrix) - J.matrix
    det = float(np.linalg.det(M))
    prod = float(np.prod([characteristic_delta(rho, T, x) for x in lam]))
    denom = max(abs(det), abs(prod))
    if denom == 0:
        return 0.0
    return abs(det - prod) / denom


def classify(gscr: float, cg: float = 2.0, bg: float = 3.0) -> StrengthClass:
    """Strength class with inclusive boundaries: gSCR equal to a threshold is Weak."""
    if not 0 < cg < bg:
        raise GridStrengthError(f"classify: need 0 < cg < bg, got cg={cg}, bg={bg}")
    if gscr < cg:
        label = "VeryWeak"
    elif gscr <= bg:
        label = "Weak"
    else:
        label = "Strong"
    return StrengthClass(label=label, cg=cg, bg=bg)
