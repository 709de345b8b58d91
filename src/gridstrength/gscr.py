"""Extended Jacobian, its spectrum, the strength index and classification.

J_eq = -D B with D = diag(1/P_Ni) over the reduced susceptance matrix.
J_eq is diagonally similar to the symmetric S = D^{1/2} (-B) D^{1/2}
(both scalings by sqrt of ratings), so the spectrum is real and the
minimum eigenvalue, the gSCR, is computed from a symmetric eigensolve
rather than a general nonsymmetric one.

Only the eigenvalues and the Perron vector are computed: the eigenvalues
of S without eigenvectors, then the Perron vector by one step of inverse
iteration from the computed lambda_1 (Peters & Wilkinson, "Inverse
iteration, ill-conditioned equations and Newton's method", SIAM Review
21(3), 1979): one solve (S - sigma I) y = 1 with sigma just below
lambda_1, mapped back to J_eq through D^{1/2}.  The full modal basis, which
only the decoupling of the characteristic equation uses, is
`modal_transform`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EigenSolveError, GridStrengthError

# relative spectral gap under which simplicity is reported as degenerate
DEGENERATE_GAP = 1e-9
# the Perron solve's shift below lambda_1, per bus and relative to |S|: past
# the rounding of the eigensolve and of the elimination, about n eps |S|.
# On random networks of n <= 8, solves came out exactly singular below
# 0.5 n eps |S| (2 in 20,000 at 0.5, 1 in 8 at 0.25), so 4 leaves a factor 8
PERRON_SHIFT = 4.0 * float(np.finfo(float).eps)


class ExtendedJacobian(NamedTuple):
    matrix: np.ndarray      # -diag(1/P_N) B_red
    p_n: np.ndarray         # ratings, system-base pu


class EigenResult(NamedTuple):
    lambdas: np.ndarray         # ascending
    perron_vector: np.ndarray   # eigenvector of lambda_1, unit sum, positive


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


def extended_jacobian(B: np.ndarray, p_n) -> ExtendedJacobian:
    """J_eq = -diag(1/P_N) B from the n x n reduced susceptance matrix and n ratings."""
    p = np.asarray(p_n, dtype=float)
    if p.ndim != 1 or B.shape != (p.size, p.size):
        raise GridStrengthError(
            f"extended_jacobian: {p.size} ratings for a {'x'.join(map(str, B.shape))} matrix"
        )
    if np.any(p <= 0):
        raise GridStrengthError("extended_jacobian: ratings must be positive")
    return ExtendedJacobian(matrix=-B / p[:, None], p_n=p)


def _symmetrized(J: ExtendedJacobian) -> np.ndarray:
    d = 1.0 / np.sqrt(J.p_n)
    # S = D^{1/2} (-B) D^{1/2}; recover -B as diag(P_N) J_eq
    negB = J.p_n[:, None] * J.matrix
    S = d[:, None] * negB * d[None, :]
    return 0.5 * (S + S.T)


def compute_gscr(J: ExtendedJacobian) -> tuple[EigenResult, float]:
    """Spectrum of J_eq and its Perron vector; gSCR is the smallest eigenvalue."""
    S = _symmetrized(J)
    try:
        lam = np.linalg.eigvalsh(S)
        # S - sigma I is positive definite, n = 1 included.  The solve scales
        # the lambda_1 component of 1, at least 1 as the Perron vector of S is
        # positive, by 1/(lambda_1 - sigma), so the relative residual left by
        # the others is at most sqrt(n) (lambda_1 - sigma)
        n = len(lam)
        sigma = lam[0] - PERRON_SHIFT * n * max(abs(lam[0]), abs(lam[-1]))
        S.flat[:: n + 1] -= sigma      # S - sigma I, in place
        y = np.linalg.solve(S, np.ones(n))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"symmetric eigensolve failed: {exc}") from exc
    w1 = y / np.sqrt(J.p_n)        # eigenvector of J_eq = D^{1/2} y
    w1 /= np.linalg.norm(w1)
    resid = np.linalg.norm(J.matrix @ w1 - lam[0] * w1)
    scale = np.linalg.norm(J.matrix)
    if not resid <= 1e-10 * scale:     # false for nan as well
        raise EigenSolveError(f"eigenpair residual {resid:.3e} exceeds tolerance")
    # fix sign by the largest-magnitude component, then normalize to unit sum
    if w1[np.argmax(np.abs(w1))] < 0:
        w1 = -w1
    s = w1.sum()
    if s != 0:
        w1 = w1 / s
    return EigenResult(lambdas=lam, perron_vector=w1), float(lam[0])


def modal_transform(J: ExtendedJacobian) -> np.ndarray:
    """Modal basis W of J_eq: columns are eigenvectors in ascending eigenvalue order (W^-1 J W = diag)."""
    try:
        V = np.linalg.eigh(_symmetrized(J))[1]
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"symmetric eigensolve failed: {exc}") from exc
    return V / np.sqrt(J.p_n)[:, None]


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
