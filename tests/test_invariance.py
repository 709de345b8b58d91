"""Metamorphic checks: the thresholds are properties of the network, not of how its
case document is written.

Four transforms leave the physics unchanged: a permutation of every list in the
document, the system base times k with every reactance times k, a branch split in
series through a new internal bus, and a branch replaced by two parallel branches
of twice its reactance (on a network with no branch, its first Thevenin link, a
branch to the source, takes the last two).  gSCR and CgSCR, on the modal path and
on the forced walk, must move by at most 1e-12 relative; BgSCR under `mean` and
`max` is checked under the permutation on dual only, as its bisection is slow.
"""

import functools
import json

import numpy as np
import pytest

import gridstrength.boundary as boundary
from gridstrength.boundary import case_gscr, find_boundary_numeric, find_critical_numeric
from gridstrength.casefile import bundled_case_dir, case_from_dict, case_to_dict

from conftest import heterogeneous_case, random_network_doc

REL = 1e-12


def permuted(doc, seed=0):
    rng = np.random.default_rng(seed)
    out = dict(doc)
    for key in ("buses", "branches", "thevenin_links", "converters"):
        out[key] = [doc[key][i] for i in rng.permutation(len(doc[key]))]
    return out


def rebased(doc, k=4.0):
    return {**doc, "system_base_mva": k * doc["system_base_mva"],
            "branches": [{**br, "reactance_pu": k * br["reactance_pu"]} for br in doc["branches"]],
            "thevenin_links": [{**ln, "reactance_pu": k * ln["reactance_pu"]}
                               for ln in doc["thevenin_links"]]}


def split(doc, t=0.3):
    buses = doc["buses"] + [{"id": "mid", "kind": "internal"}]
    if doc["branches"]:
        br, *rest = doc["branches"]
        x = br["reactance_pu"]
        return {**doc, "buses": buses, "branches": rest + [
            {**br, "to": "mid", "reactance_pu": t * x},
            {**br, "from": "mid", "reactance_pu": (1.0 - t) * x}]}
    ln, *rest = doc["thevenin_links"]
    x = ln["reactance_pu"]
    return {**doc, "buses": buses,
            "branches": [{"from": ln["bus"], "to": "mid", "reactance_pu": t * x}],
            "thevenin_links": rest + [{**ln, "bus": "mid", "reactance_pu": (1.0 - t) * x}]}


def doubled(doc):
    key = "branches" if doc["branches"] else "thevenin_links"
    first, *rest = doc[key]
    twin = {**first, "reactance_pu": 2.0 * first["reactance_pu"]}
    return {**doc, key: rest + [twin, dict(twin)]}


TRANSFORMS = {"permute": permuted, "rebase": rebased, "split": split, "parallel": doubled}
NETWORKS = ["cigre_sidc", "dual", "triple", "quad", "random-1", "random-3", "random-7",
            "random-12", "hetero-0-5"]


@functools.lru_cache(maxsize=None)
def _doc_json(network):
    """The network's case document, as JSON text so that no test can edit the cached one."""
    kind, *args = network.split("-")
    if kind == "random":
        n = int(args[0])
        doc = random_network_doc(np.random.default_rng(8000 + n), n)
    elif kind == "hetero":
        doc = case_to_dict(heterogeneous_case(*map(int, args)))
    else:
        doc = json.loads((bundled_case_dir() / f"{network}.json").read_text(encoding="utf-8"))
    return json.dumps(doc)


def _values(doc):
    """gSCR, CgSCR on the modal path and CgSCR on the forced walk."""
    case = case_from_dict(doc)
    modal = find_critical_numeric(case).value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boundary, "_modal_fold", lambda prep, g1, start: None)
        walk = find_critical_numeric(case).value
    return case_gscr(case)[1], modal, walk


@functools.lru_cache(maxsize=None)
def _reference(network):
    return _values(json.loads(_doc_json(network)))


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("network", NETWORKS)
def test_gscr_and_cgscr_are_invariant(network, transform):
    got = _values(TRANSFORMS[transform](json.loads(_doc_json(network))))
    assert got == pytest.approx(_reference(network), rel=REL, abs=0.0)


@pytest.fixture(scope="module")
def dual_reversed():
    # the buses and converters in reverse, so inv2 comes first, and the links in
    # file order, so a slip that pairs a link with a bus by position shows
    doc = json.loads(_doc_json("dual"))
    return case_from_dict({**doc, "buses": doc["buses"][::-1],
                           "converters": doc["converters"][::-1]})


@pytest.mark.parametrize("rule", ["mean", "max"])
def test_bgscr_is_invariant_under_permutation(rule, dual_reversed, request):
    want = request.getfixturevalue({"mean": "bnd_dual", "max": "bnd_dual_max"}[rule])
    got = find_boundary_numeric(dual_reversed, rule)
    assert got.value == pytest.approx(want.value, rel=REL, abs=0.0)
    # per_converter_mu follows the buses list: reversed here
    assert got.per_converter_mu[::-1] == pytest.approx(want.per_converter_mu, rel=REL, abs=0.0)


def test_first_rule_reads_the_first_converter_bus_in_the_buses_list(dual_reversed):
    assert dual_reversed.converter_buses()[0] == "inv2"
    r = find_boundary_numeric(dual_reversed, "first")
    assert abs(r.per_converter_mu[0] - 30.0) <= 0.05
