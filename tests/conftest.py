"""Shared fixtures, random case builders and the acceptance summary hook."""

import importlib
import importlib.util
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import gridstrength
from gridstrength import boundary, powerflow
from gridstrength.boundary import find_boundary_numeric, scale_to_gscr
from gridstrength.casefile import case_from_dict, load_bundled_case
from gridstrength.netmodel import scale_impedance

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CONVERTER_BLOCK = {
    "p_dn_mw": 990.0,
    "gamma_deg": 15.0,
    "n_bridges": 2,
    "k_ratio": 0.4196,
    "x_commutation_pu": 0.0528,
    "r_dc_pu": 0.01,
    "b_c_pu": 0.5093,
    "u_ac_kv": 230.0,
}


def script_env() -> dict:
    """Environment for a script run as a child process: the package under test first on its path."""
    src = str(Path(gridstrength.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def serial_pool(seen: list):
    """A ProcessPoolExecutor stand-in: records each max_workers in seen and maps in this process."""

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool


# the functions whose calls count_work counts, by home module
COUNTED = (("powerflow", "mismatch"), ("powerflow", "_fold_point"), ("powerflow", "newton_solve"),
           ("powerflow", "_solve_fold"), ("netmodel", "reduce_case"), ("gscr", "compute_gscr"))


def count_work(mp: pytest.MonkeyPatch) -> dict:
    """Calls of each COUNTED function from here on, through every binding the package holds.

    The counts are exact and machine-independent.  Kernel points, one evaluation
    of the power-flow equations each, are the mismatch plus _fold_point calls.
    """
    modules = [gridstrength] + [importlib.import_module(f"gridstrength.{m.name}")
                                for m in pkgutil.iter_modules(gridstrength.__path__)
                                if m.name != "__main__"]
    counts = {}
    for home, name in COUNTED:
        real = getattr(importlib.import_module(f"gridstrength.{home}"), name)
        counts[name] = 0

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                mp.setattr(module, name, counted)
    return counts


@pytest.fixture
def work_counts(monkeypatch):
    return count_work(monkeypatch)


def cgscr_fold(prep, g1):
    """find_critical_numeric's fold: the modal fold, else the walk, from one modal start."""
    start = powerflow._modal_start(prep, 0.5 * g1)
    return boundary._modal_fold(prep, g1, start) or boundary._critical_fold(prep, g1, start)


@pytest.fixture(scope="session")
def sidc():
    return load_bundled_case("cigre_sidc")


@pytest.fixture(scope="session")
def dual():
    return load_bundled_case("dual")


@pytest.fixture(scope="session")
def bnd_sidc_work(sidc):
    # the search and the work it took, counted once for the tests that read either
    with pytest.MonkeyPatch.context() as mp:
        counts = count_work(mp)
        result = find_boundary_numeric(sidc)
    return result, dict(counts)


@pytest.fixture(scope="session")
def bnd_sidc(bnd_sidc_work):
    return bnd_sidc_work[0]


@pytest.fixture(scope="session")
def bnd_dual(dual):
    return find_boundary_numeric(dual)


@pytest.fixture(scope="session")
def bnd_dual_max(dual):
    return find_boundary_numeric(dual, aggregation="max")


@pytest.fixture(scope="session")
def triple():
    return load_bundled_case("triple")


@pytest.fixture(scope="session")
def quad():
    return load_bundled_case("quad")


@pytest.fixture(scope="session")
def bnd_triple(triple):
    return find_boundary_numeric(triple)


@pytest.fixture(scope="session")
def bnd_quad(quad):
    return find_boundary_numeric(quad)


def random_network_doc(rng, n, link_prob=0.7):
    """Random connected inductive network document with n converter buses.

    A random spanning tree keeps the bus graph connected; extra ties and
    per-bus Thevenin links (at least one) are sprinkled on top.  Ratings
    are random and emfs are 1.0 (tests that need a tuned rated point tune
    separately).
    """
    buses = [f"b{i}" for i in range(n)]
    branches = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        branches.append({
            "from": buses[i], "to": buses[j],
            "reactance_pu": float(rng.uniform(0.2, 2.0)),
        })
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.choice(n, size=2, replace=False)
        branches.append({
            "from": buses[int(i)], "to": buses[int(j)],
            "reactance_pu": float(rng.uniform(0.2, 2.0)),
        })
    linked = [b for b in buses if rng.random() < link_prob]
    if not linked:
        linked = [buses[int(rng.integers(0, n))]]
    links = [{
        "bus": b, "reactance_pu": float(rng.uniform(0.3, 1.5)), "emf_pu": 1.0,
    } for b in linked]
    converters = [
        {**CONVERTER_BLOCK, "bus": b, "p_dn_mw": float(rng.uniform(300.0, 1500.0))}
        for b in buses
    ]
    return {
        "name": f"random-{n}",
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": b, "kind": "converter"} for b in buses],
        "branches": branches,
        "thevenin_links": links,
        "converters": converters,
    }


def random_case(rng, n):
    return case_from_dict(random_network_doc(rng, n))


def internal_network_doc(rng, n):
    """n converter buses plus n // 2 + 1 sourced internal buses in random order.

    A random spanning tree plus random ties (parallel branches included)
    keeps the graph connected; a third of the converter buses carry a
    source as well.  Kron reduction has n // 2 + 1 buses to eliminate.
    """
    conv = [f"c{i}" for i in range(n)]
    internal = [f"x{i}" for i in range(n // 2 + 1)]
    order = [str(b) for b in rng.permutation(conv + internal)]
    branches = []
    for i in range(1, len(order)):
        j = int(rng.integers(0, i))
        branches.append({"from": order[i], "to": order[j],
                         "reactance_pu": float(rng.uniform(0.2, 2.0))})
    for _ in range(int(rng.integers(len(order) // 4, len(order) // 2 + 1))):
        i, j = rng.choice(len(order), size=2, replace=False)
        branches.append({"from": order[int(i)], "to": order[int(j)],
                         "reactance_pu": float(rng.uniform(0.2, 2.0))})
    sourced = internal + [b for b in conv if rng.random() < 1.0 / 3.0]
    return {
        "name": f"internal-{n}",
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": b, "kind": "internal" if b in internal else "converter"} for b in order],
        "branches": branches,
        "thevenin_links": [{"bus": b, "reactance_pu": float(rng.uniform(0.3, 1.5)),
                            "emf_pu": float(rng.uniform(0.9, 1.1))} for b in sourced],
        "converters": [{**CONVERTER_BLOCK, "bus": b, "p_dn_mw": float(rng.uniform(300.0, 1500.0))}
                       for b in conv],
    }


def hub_network_doc(link_buses):
    """Two converters tied through an internal hub bus that Kron reduction
    removes; Thevenin links of 0.5, 0.4, ... pu on the buses named in link_buses."""
    return {
        "name": "hub",
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": "a", "kind": "converter"}, {"id": "b", "kind": "converter"},
                  {"id": "h", "kind": "internal"}],
        "branches": [{"from": "a", "to": "h", "reactance_pu": 0.3},
                     {"from": "b", "to": "h", "reactance_pu": 0.4}],
        "thevenin_links": [{"bus": b, "reactance_pu": 0.5 - 0.1 * k, "emf_pu": 1.0}
                           for k, b in enumerate(link_buses)],
        "converters": [{**CONVERTER_BLOCK, "bus": "a"}, {**CONVERTER_BLOCK, "bus": "b"}],
    }


def load_netgen():
    """perfbench/netgen.py, loaded read-only as the benchmark's workloads load it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "netgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_netgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def heterogeneous_case(j, n):
    """A flow network with per-converter gamma, x_c, b_c and rating drawn at random, tuned to 2."""
    rng = np.random.default_rng(7000 + 100 * j + n)
    doc = load_netgen().flow_network_doc(rng, n, "h")
    for conv in doc["converters"]:
        conv["gamma_deg"] = float(rng.uniform(14.0, 20.0))
        conv["x_commutation_pu"] = float(rng.uniform(0.03, 0.09))
        conv["b_c_pu"] = float(rng.uniform(0.35, 0.6))
        conv["p_dn_mw"] = float(300.0 * 16.0 ** rng.uniform(0.0, 1.0))
    return scale_to_gscr(case_from_dict(doc), 2.0)


def stress_case(seed, n, k):
    """A random network with random emfs and converter constants, far from a tuned rated point."""
    rng = np.random.default_rng(9000 + seed)
    doc = random_network_doc(rng, n, link_prob=0.6)
    for link in doc["thevenin_links"]:
        link["emf_pu"] = float(rng.uniform(0.85, 1.25))
    for conv in doc["converters"]:
        conv["gamma_deg"] = float(rng.uniform(12.0, 25.0))
        conv["x_commutation_pu"] = float(rng.uniform(0.02, 0.15))
        conv["b_c_pu"] = float(rng.uniform(0.2, 0.8))
        conv["p_dn_mw"] = float(200.0 * 20.0 ** rng.uniform(0.0, 1.0))
    return scale_impedance(case_from_dict(doc), k)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


# --------------------------------------------------------------- reporting

MEASURED = {}

CRITERIA = {
    1: "single-infeed thresholds: closed forms and scale searches in band",
    2: "nose powers at index 2 within 1% of rated, all four cases",
    3: "overlap angles at index 3 within 1.5 deg of 30, all four cases",
    4: "dual-infeed rating sweep: spreads and means in band",
    5: "random connected networks: positive spectrum, positive Perron vector, simple minimum",
    6: "determinant-vs-product factorization residual at 1e-8",
    7: "single-infeed collapse exact; eigensolve matches charpoly bisection oracle",
    8: "Jacobian and converter derivatives match finite differences; approximation band",
    9: "impedance scaling homogeneity of the index",
}

_acceptance_outcomes = {}
ACCEPTANCE_NOTES = {}


@pytest.fixture
def measured():
    """Dict collected across the run and printed in the terminal summary."""
    return MEASURED


@pytest.fixture
def note_criterion():
    """Stash a one-line detail to show next to a criterion's PASS/FAIL line."""

    def _note(num, text):
        ACCEPTANCE_NOTES[num] = text

    return _note


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        _acceptance_outcomes[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    tr = terminalreporter
    if _acceptance_outcomes:
        tr.section("acceptance criteria")
        for num in sorted(_acceptance_outcomes):
            flag = "PASS" if _acceptance_outcomes[num] == "passed" else "FAIL"
            line = f"criterion {num}: {flag}  {CRITERIA.get(num, '')}"
            note = ACCEPTANCE_NOTES.get(num)
            if note:
                line += f"  [{note}]"
            tr.write_line(line)
    if MEASURED:
        tr.section("measured values (logged)")
        for key in sorted(MEASURED):
            val = MEASURED[key]
            text = f"{val:.6g}" if isinstance(val, float) else str(val)
            tr.write_line(f"{key} = {text}")
