"""Spectrum of the extended Jacobian: hand cases, a characteristic-polynomial
oracle, the determinant factorization and the classification boundaries."""

import math

import numpy as np
import pytest

from gridstrength.casefile import case_from_dict
from gridstrength.errors import EigenSolveError, GridStrengthError
from gridstrength.gscr import (
    ExtendedJacobian,
    characteristic_delta,
    classify,
    compute_gscr,
    extended_jacobian,
    factorization_check,
    modal_transform,
    perron_check,
)
from gridstrength.netmodel import reduce_case

from conftest import internal_network_doc, random_network_doc
from oracles import charpoly_lambda1


def sus(rows):
    return np.array(rows, dtype=float)


def random_negb(rng, n):
    """Connected random susceptance matrix with at least one grounding link."""
    B = np.zeros((n, n))

    def tie(i, j, y):
        B[i, j] += y
        B[j, i] += y
        B[i, i] -= y
        B[j, j] -= y

    for j in range(1, n):
        tie(int(rng.integers(0, j)), j, float(rng.uniform(0.5, 4.0)))
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        if rng.random() < 0.5:
            tie(int(i), int(j), float(rng.uniform(0.2, 2.0)))
    for i in range(n):
        if i == 0 or rng.random() < 0.6:
            B[i, i] -= float(rng.uniform(0.5, 3.0))
    return sus(B)


# ------------------------------------------------------------------ spectrum

def test_single_bus_hand_value():
    J = extended_jacobian(sus([[-2.0]]), [1.0])
    eig, gscr = compute_gscr(J)
    assert gscr == pytest.approx(2.0, abs=1e-14)
    assert eig.perron_vector == pytest.approx([1.0])
    assert classify(gscr).label == "Weak"


def test_two_bus_symmetric_hand_spectrum():
    J = extended_jacobian(sus([[-2.0, 1.0], [1.0, -2.0]]), [1.0, 1.0])
    eig, gscr = compute_gscr(J)
    assert gscr == pytest.approx(1.0, abs=1e-12)
    assert eig.lambdas == pytest.approx([1.0, 3.0], abs=1e-12)
    assert eig.perron_vector == pytest.approx([0.5, 0.5], abs=1e-12)


def test_two_bus_ratings_break_symmetry():
    # det(J - lam I) = lam^2 - 3 lam + 3/2
    J = extended_jacobian(sus([[-2.0, 1.0], [1.0, -2.0]]), [2.0, 1.0])
    assert np.allclose(J.matrix, [[1.0, -0.5], [-1.0, 2.0]])
    eig, gscr = compute_gscr(J)
    lo = (3.0 - math.sqrt(3.0)) / 2.0
    hi = (3.0 + math.sqrt(3.0)) / 2.0
    assert eig.lambdas == pytest.approx([lo, hi], abs=1e-12)
    assert gscr == pytest.approx(lo, abs=1e-12)


def test_rating_vector_validation():
    b = sus([[-2.0, 1.0], [1.0, -2.0]])
    with pytest.raises(GridStrengthError):
        extended_jacobian(b, [1.0])
    with pytest.raises(GridStrengthError):
        extended_jacobian(b, [1.0, 0.0])
    with pytest.raises(GridStrengthError):
        extended_jacobian(b, [1.0, -2.0])
    # the matrix must be n x n for n ratings
    for B in (b[:1], b[0], np.ones((3, 3))):
        with pytest.raises(GridStrengthError):
            extended_jacobian(B, [1.0, 1.0])


def test_nonfinite_matrix_is_eigensolve_error():
    # the eigenpair residual is nan here, which a plain "resid > tol" lets through
    J = ExtendedJacobian(matrix=np.array([[math.nan, 0.0], [0.0, 1.0]]), p_n=np.ones(2))
    with pytest.raises(EigenSolveError):
        compute_gscr(J)


def test_gscr_against_charpoly_oracle(rng):
    for _ in range(5):
        b = random_negb(rng, 6)
        p = rng.uniform(0.4, 2.0, size=6)
        J = extended_jacobian(b, p)
        _, gscr = compute_gscr(J)
        expect = charpoly_lambda1([list(row) for row in J.matrix])
        assert gscr == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_transform_diagonalizes(rng):
    b = random_negb(rng, 5)
    p = rng.uniform(0.4, 2.0, size=5)
    J = extended_jacobian(b, p)
    eig, _ = compute_gscr(J)
    W = modal_transform(J)
    lhs = J.matrix @ W
    rhs = W * eig.lambdas[None, :]
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.linalg.norm(J.matrix)


def network_jacobian(doc) -> ExtendedJacobian:
    case = case_from_dict(doc)
    net = reduce_case(case)
    return extended_jacobian(net.B, [case.rating_pu(case.converter_at(b)) for b in net.bus_order])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 16, 24, 40, 64])
@pytest.mark.parametrize("make", [random_network_doc, internal_network_doc])
def test_eigen_path_on_networks(make, n):
    rng = np.random.default_rng(7400 + n)
    for _ in range(3):
        J = network_jacobian(make(rng, n))
        eig, g = compute_gscr(J)
        general = np.sort(np.linalg.eigvals(J.matrix).real)
        tol = 1e-10 * np.max(np.abs(general))
        assert g == eig.lambdas[0]
        assert np.max(np.abs(eig.lambdas - general)) <= tol
        if n <= 6:
            assert abs(g - charpoly_lambda1(J.matrix.tolist())) <= tol
        # Perron vector: an eigenvector of lambda_1, strictly positive on a connected network
        w = eig.perron_vector / np.linalg.norm(eig.perron_vector)
        assert np.linalg.norm(J.matrix @ w - g * w) <= 1e-10 * np.linalg.norm(J.matrix)
        assert np.all(w > 0)


def test_spectrum_matches_general_eigensolve(rng):
    b = random_negb(rng, 7)
    p = rng.uniform(0.4, 2.0, size=7)
    J = extended_jacobian(b, p)
    eig, _ = compute_gscr(J)
    general = np.sort(np.linalg.eigvals(J.matrix).real)
    assert np.max(np.abs(eig.lambdas - general)) <= 1e-10 * np.max(general)


def test_perron_report_on_connected_case(rng):
    b = random_negb(rng, 5)
    p = rng.uniform(0.4, 2.0, size=5)
    rep = perron_check(extended_jacobian(b, p))
    assert rep.positive
    assert rep.simple
    assert rep.perron_positive
    assert rep.relative_gap > 0


def test_perron_report_flags_decoupled_twins():
    # identical isolated buses: the gap collapses, reported not raised
    b = sus([[-2.0, 0.0], [0.0, -2.0]])
    rep = perron_check(extended_jacobian(b, [1.0, 1.0]))
    assert rep.positive
    assert rep.degenerate
    assert not rep.simple
    assert rep.gap == pytest.approx(0.0, abs=1e-14)
    # inverse iteration from the vector of ones returns the positive combination
    assert rep.min_component == 0.5


# -------------------------------------------------- characteristic equation

def test_characteristic_delta_hand_roots():
    assert characteristic_delta(1.0, 1.5, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert characteristic_delta(1.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_characteristic_delta_decreasing_in_lambda():
    grid = [0.2, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [characteristic_delta(1.0, 1.5, lam) for lam in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_characteristic_delta_domain():
    with pytest.raises(GridStrengthError):
        characteristic_delta(1.0, 1.5, 0.0)
    with pytest.raises(GridStrengthError):
        characteristic_delta(1.0, 1.5, -1.0)


def test_factorization_hand_case():
    # eigenvalues 1 and 3, rho = 1, T = 3/2: both sides equal -7/4
    J = extended_jacobian(sus([[-2.0, 1.0], [1.0, -2.0]]), [1.0, 1.0])
    M = 1.5 * np.eye(2) + np.linalg.inv(J.matrix) - J.matrix
    assert np.linalg.det(M) == pytest.approx(-1.75, abs=1e-12)
    assert factorization_check(J, 1.0, 1.5) <= 1e-12


def test_factorization_scalar_case():
    J = extended_jacobian(sus([[-2.0]]), [1.0])
    assert factorization_check(J, 0.8, 1.2) <= 1e-14


def test_factorization_random(rng):
    for _ in range(5):
        b = random_negb(rng, 5)
        p = rng.uniform(0.4, 2.0, size=5)
        J = extended_jacobian(b, p)
        rho = float(rng.uniform(0.3, 1.2))
        T = float(rng.uniform(0.0, 2.0))
        assert factorization_check(J, rho, T) <= 1e-8


# ------------------------------------------------------------ invariances

def test_rating_homogeneity(rng):
    b = random_negb(rng, 5)
    p = rng.uniform(0.4, 2.0, size=5)
    _, base = compute_gscr(extended_jacobian(b, p))
    for alpha in (0.5, 3.7):
        _, scaled = compute_gscr(extended_jacobian(b, alpha * p))
        assert scaled * alpha == pytest.approx(base, rel=1e-9)


def test_extra_tie_never_weakens(rng):
    for _ in range(5):
        n = 5
        b = random_negb(rng, n)
        p = rng.uniform(0.4, 2.0, size=n)
        _, before = compute_gscr(extended_jacobian(b, p))
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        y = float(rng.uniform(0.2, 2.0))
        m = b.copy()
        m[i, j] += y
        m[j, i] += y
        m[i, i] -= y
        m[j, j] -= y
        _, after = compute_gscr(extended_jacobian(sus(m), p))
        assert after >= before - 1e-12


# -------------------------------------------------------------- classification

@pytest.mark.parametrize("gscr,label", [
    (1.5, "VeryWeak"),
    (1.999, "VeryWeak"),
    (2.0, "Weak"),
    (2.5, "Weak"),
    (3.0, "Weak"),
    (3.1, "Strong"),
    (10.0, "Strong"),
])
def test_classify_inclusive_boundaries(gscr, label):
    got = classify(gscr)
    assert got.label == label
    assert (got.cg, got.bg) == (2.0, 3.0)


def test_classify_custom_thresholds():
    assert classify(2.5, cg=2.6, bg=3.5).label == "VeryWeak"
    assert classify(2.5, cg=1.0, bg=2.0).label == "Strong"


def test_classify_threshold_validation():
    with pytest.raises(GridStrengthError):
        classify(2.0, cg=3.0, bg=2.0)
    with pytest.raises(GridStrengthError):
        classify(2.0, cg=0.0, bg=3.0)
    with pytest.raises(GridStrengthError):
        classify(2.0, cg=2.0, bg=2.0)
