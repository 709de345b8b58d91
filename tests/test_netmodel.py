"""Susceptance assembly, Kron reduction against a hand elimination oracle,
impedance scaling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridstrength.casefile import case_from_dict
from gridstrength.errors import GridStrengthError
from gridstrength.netmodel import _schur, reduce_case, scale_impedance

from conftest import CONVERTER_BLOCK, internal_network_doc, random_case, random_network_doc
from oracles import kron_oracle, susceptance_loop


def doc_of(buses, branches, links, converter_buses):
    return {
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [
            {"id": b, "kind": "converter" if b in converter_buses else "internal"}
            for b in buses
        ],
        "branches": [
            {"from": f, "to": t, "reactance_pu": x} for f, t, x in branches
        ],
        "thevenin_links": [
            {"bus": b, "reactance_pu": x, "emf_pu": 1.0} for b, x in links
        ],
        "converters": [{**CONVERTER_BLOCK, "bus": b} for b in converter_buses],
    }


def all_converters(doc):
    """The document with every bus a converter bus, so that reduce_case keeps B and f whole."""
    block = doc["converters"][0]
    held = {c["bus"] for c in doc["converters"]}
    return {**doc, "buses": [{**b, "kind": "converter"} for b in doc["buses"]],
            "converters": doc["converters"] + [{**block, "bus": b["id"]} for b in doc["buses"]
                                               if b["id"] not in held]}


def test_single_shunt_assembly():
    case = case_from_dict(doc_of(["a"], [], [("a", 0.5)], ["a"]))
    assert reduce_case(case).B.matrix.tolist() == [[-2.0]]


def test_two_bus_hand_assembly():
    case = case_from_dict(
        doc_of(["n1", "n2"], [("n1", "n2", 0.5)], [("n2", 0.25)], ["n1", "n2"])
    )
    B = reduce_case(case).B
    assert B.bus_order == ("n1", "n2")
    assert B.matrix.tolist() == [[-2.0, 2.0], [2.0, -6.0]]


def test_identical_pair_assembly():
    case = case_from_dict(
        doc_of(["a", "b"], [("a", "b", 1.0)], [("a", 0.5), ("b", 0.5)], ["a", "b"])
    )
    assert reduce_case(case).B.matrix.tolist() == [[-3.0, 1.0], [1.0, -3.0]]


def test_assembly_symmetry_is_exact(rng):
    for n in (3, 5, 8):
        M = reduce_case(random_case(rng, n)).B.matrix
        assert np.array_equal(M, M.T)


def test_series_reduction():
    # converter bus behind 0.5 pu, internal bus grounded through 0.5 pu
    case = case_from_dict(
        doc_of(["c", "m"], [("c", "m", 0.5)], [("m", 0.5)], ["c"])
    )
    red = reduce_case(case).B
    assert red.bus_order == ("c",)
    assert red.matrix[0, 0] == pytest.approx(-1.0, abs=1e-14)


def test_reduction_matches_elimination_oracle(rng):
    for _ in range(10):
        doc = random_network_doc(rng, 5)
        # demote two buses to internal so there is something to eliminate
        for b in doc["buses"][3:]:
            b["kind"] = "internal"
        doc["converters"] = doc["converters"][:3]
        case = case_from_dict(doc)
        red = reduce_case(case).B
        order = [b.id for b in case.buses]
        keep_idx = [order.index(b) for b in red.bus_order]
        expect = np.array(kron_oracle(susceptance_loop(case)[0], keep_idx))
        assert np.max(np.abs(red.matrix - expect)) <= 1e-12


INTERNAL_SIZES = (2, 3, 5, 8, 13, 24, 40, 64)


@pytest.mark.parametrize("n", INTERNAL_SIZES)
def test_assembly_is_bitwise_the_loop_assembly(n):
    rng = np.random.default_rng(7100 + n)
    for _ in range(3):
        case = case_from_dict(all_converters(internal_network_doc(rng, n)))
        net = reduce_case(case)
        B_loop, f_loop = susceptance_loop(case)
        assert net.bus_order == tuple(b.id for b in case.buses)
        assert net.B.matrix.tolist() == B_loop
        assert net.f.tolist() == f_loop


@pytest.mark.parametrize("n", INTERNAL_SIZES)
def test_reduced_network_matches_elimination_oracle(n):
    # f_red is the reduced coupling to a source node bordering B by f
    case = case_from_dict(internal_network_doc(np.random.default_rng(7200 + n), n))
    net = reduce_case(case)
    B_loop, f_loop = susceptance_loop(case)
    bordered = [row + [fi] for row, fi in zip(B_loop, f_loop)] + [f_loop + [0.0]]
    order = [b.id for b in case.buses]
    keep_idx = [order.index(b) for b in net.bus_order] + [len(order)]
    expect = np.array(kron_oracle(bordered, keep_idx))
    k = net.order
    assert np.max(np.abs(net.B.matrix - expect[:k, :k])) <= 1e-12 * np.max(np.abs(expect[:k, :k]))
    assert np.max(np.abs(net.f - expect[:k, k])) <= 1e-12 * np.max(np.abs(expect[:k, k]))


def test_reduced_negative_is_positive_definite(rng):
    for n in (2, 4, 7):
        net = reduce_case(random_case(rng, n))
        eigs = np.linalg.eigvalsh(-net.B.matrix)
        assert np.all(eigs > 0)


def test_kron_singular_internal_block_names_buses():
    # internal pair connected only to each other: floating, not eliminable
    # (case validation rejects such a network before reduce_case sees it)
    M = np.array([[-2.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]])
    with pytest.raises(GridStrengthError) as err:
        _schur(M, ("keep", "f1", "f2"), 1, np.zeros(3))
    assert "f1" in str(err.value) and "f2" in str(err.value)


def test_scale_identity_and_simple_case():
    case = case_from_dict(doc_of(["a"], [], [("a", 0.5)], ["a"]))
    same = scale_impedance(case, 1.0)
    assert same.thevenin_links[0].reactance_pu == 0.5
    doubled = scale_impedance(case, 2.0)
    assert reduce_case(doubled).B.matrix.tolist() == [[-1.0]]
    # nothing but reactances changes
    assert doubled.thevenin_links[0].emf_pu == case.thevenin_links[0].emf_pu
    assert doubled.converters == case.converters


def test_scale_homogeneity(rng):
    for s in (0.3, 2.0, 7.5):
        case = random_case(rng, 4)
        base = reduce_case(case).B.matrix
        scaled = reduce_case(scale_impedance(case, s)).B.matrix
        rel = np.max(np.abs(scaled - base / s)) / np.max(np.abs(base))
        assert rel <= 1e-12


def test_scale_rejects_nonpositive():
    case = case_from_dict(doc_of(["a"], [], [("a", 0.5)], ["a"]))
    with pytest.raises(GridStrengthError):
        scale_impedance(case, 0.0)
    with pytest.raises(GridStrengthError):
        scale_impedance(case, -2.0)


def test_reduced_source_vector_single_bus():
    case = case_from_dict(doc_of(["a"], [], [("a", 0.5)], ["a"]))
    net = reduce_case(case)
    assert net.f[0] == pytest.approx(1.0 / 0.5)


@st.composite
def network_docs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    parents = [draw(st.integers(0, i)) for i in range(n - 1)]
    xs = st.floats(0.1, 5.0, allow_nan=False)
    branches = [
        (f"b{i + 1}", f"b{parents[i]}", draw(xs)) for i in range(n - 1)
    ]
    n_links = draw(st.integers(1, n))
    links = [(f"b{draw(st.integers(0, n - 1))}", draw(xs)) for _ in range(n_links)]
    # duplicate link buses are fine: susceptances add
    buses = [f"b{i}" for i in range(n)]
    return doc_of(buses, branches, sorted(set(links)), buses)


@given(network_docs())
def test_connected_networks_reduce_cleanly(doc):
    case = case_from_dict(doc)
    net = reduce_case(case)
    M = net.B.matrix
    assert np.array_equal(M, M.T)
    assert np.all(np.diag(M) < 0)
    off = M - np.diag(np.diag(M))
    assert np.min(off) >= -1e-12
    assert np.all(np.linalg.eigvalsh(-M) > 0)
