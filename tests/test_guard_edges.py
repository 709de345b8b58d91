"""Each guard on the path from case file to index, at its edge: a value exactly
at the bound is accepted, one ulp past it is named, and so is one nan entry.
The messages are the full texts the golden message table pins."""

import math
import sys

import numpy as np
import pytest

from gridstrength import boundary, netmodel
from gridstrength.casefile import case_from_dict
from gridstrength.errors import CaseFormatError
from gridstrength.netmodel import B_BOUND, reduce_case

from conftest import CONVERTER_BLOCK, hub_network_doc

MAX = sys.float_info.max


def up(x):
    return math.nextafter(x, math.inf)


def down(x):
    return math.nextafter(x, 0.0)


def one_bus_doc(x=0.5, emf=1.0, p_dn_mw=990.0, base=990.0):
    """One converter bus behind one Thevenin link: B = [[-1/x]], f = [emf/x], n = 1."""
    return {"system_base_mva": base, "frequency_hz": 60,
            "buses": [{"id": "inv1", "kind": "converter"}],
            "thevenin_links": [{"bus": "inv1", "reactance_pu": x, "emf_pu": emf}],
            "converters": [{**CONVERTER_BLOCK, "bus": "inv1", "p_dn_mw": p_dn_mw}]}


def named(call, message):
    with pytest.raises(CaseFormatError) as err:
        call()
    assert str(err.value) == message


# -------------------------------------------------- netmodel.reduce_case bounds

def test_reduced_network_exactly_at_the_bound_is_accepted():
    net = reduce_case(case_from_dict(one_bus_doc(x=2.0**-500)))
    assert net.B.tolist() == [[-B_BOUND]] and net.f.tolist() == [B_BOUND]


@pytest.mark.parametrize("x, emf, what", [
    (down(2.0**-500), 1.0, "1/reactance_pu"),           # |B_11| one ulp over
    (2.0**-500, up(1.0), "emf_pu/reactance_pu"),        # |f_1| one ulp over, B at the bound
], ids=["B", "f"])
def test_reduced_network_one_ulp_over_the_bound_is_named(x, emf, what):
    assert max(1.0 / x, emf / x) == up(B_BOUND)
    named(lambda: reduce_case(case_from_dict(one_bus_doc(x=x, emf=emf))),
          f"network: bus 'inv1': {what} sums to 3.27e+150, above 2**500/n = 3.27e+150")


@pytest.mark.parametrize("entry", ["B", "f"])
def test_reduced_network_with_one_nan_entry_is_named(entry, monkeypatch):
    # the elimination of the hub bus, with one entry of bus b's row made nan
    schur = netmodel._schur

    def one_nan(*args):
        B, f = schur(*args)
        if entry == "B":
            B[1, 0] = math.nan
        else:
            f[1] = math.nan
        return B, f

    monkeypatch.setattr(netmodel, "_schur", one_nan)
    named(lambda: reduce_case(case_from_dict(hub_network_doc(["a", "b"]))),
          "network: bus 'b': 1/reactance_pu overflows")


# -------------------------------------------- boundary._index: J = -B / rating

def test_index_at_the_float_maximum_is_accepted():
    assert boundary._index(np.array([[-MAX]]), np.array([1.0]), ("b0",))[1] == MAX


def test_index_one_ulp_past_the_float_maximum_is_named():
    named(lambda: boundary._index(np.array([[-MAX]]), np.array([down(1.0)]), ("b0",)),
          "network: bus 'b0': max |B_ij| / rating = 1.8e+308 / 1 overflows")


def test_index_with_one_nan_entry_is_named():
    B = np.array([[-2.0, 1.0], [math.nan, -2.0]])
    named(lambda: boundary._index(B, np.ones(2), ("b0", "b1")),
          "network: bus 'b1': max |B_ij| / rating = nan / 1 overflows")


# ----------------------- casefile: a record's per-unit quotients and ranges

def _least_with_finite_reciprocal() -> float:
    x = 1.0 / MAX
    while 1.0 / x == math.inf:
        x = up(x)
    while 1.0 / down(x) < math.inf:
        x = down(x)
    return x


X_EDGE = _least_with_finite_reciprocal()


def hub_doc(branch_x=None, **converter):
    """hub_network_doc with the second branch's reactance and the second converter's
    fields replaced, so that the first record of each section passes its test."""
    doc = hub_network_doc(["a"])
    if branch_x is not None:
        doc["branches"][1]["reactance_pu"] = branch_x
    doc["converters"][1].update(converter)
    return doc


@pytest.mark.parametrize("doc, message", [
    # 1/x: the least x whose reciprocal is finite, and the float below it
    (one_bus_doc(x=X_EDGE, emf=X_EDGE), None),
    (one_bus_doc(x=down(X_EDGE), emf=X_EDGE),
     "thevenin_links[0].reactance_pu: 1/reactance_pu: must be a positive finite number, got inf"),
    (one_bus_doc(x=math.nan),
     "thevenin_links[0].reactance_pu: must be a positive finite number, got nan"),
    # E/x at the float maximum, and one ulp past it
    (one_bus_doc(x=1.0, emf=MAX), None),
    (one_bus_doc(x=down(1.0), emf=MAX),
     "thevenin_links[0].emf_pu: emf_pu/reactance_pu: must be a positive finite number, got inf"),
    (one_bus_doc(emf=math.nan),
     "thevenin_links[0].emf_pu: must be a positive finite number, got nan"),
    # P/S at the least positive float, and the quotient that rounds to zero
    (one_bus_doc(p_dn_mw=5e-324, base=1.0), None),
    (one_bus_doc(p_dn_mw=5e-324, base=2.0),
     "converter at inv1.p_dn_mw: p_dn_mw/system_base_mva: must be a positive finite number, "
     "got 0.0"),
    (one_bus_doc(p_dn_mw=math.nan),
     "converter at inv1.p_dn_mw: must be a positive finite number, got nan"),
    # the same tests on the second record of a section, named by its index
    (hub_doc(branch_x=X_EDGE), None),
    (hub_doc(branch_x=down(X_EDGE)),
     "branches[1].reactance_pu: 1/reactance_pu: must be a positive finite number, got inf"),
    (hub_doc(branch_x=math.nan), "branches[1].reactance_pu: must be a positive finite number, got nan"),
    # gamma in (0, 90): the float below 90 and 90 itself
    (hub_doc(gamma_deg=down(90.0)), None),
    (hub_doc(gamma_deg=90.0), "converter at b.gamma_deg: must lie in (0, 90)"),
    (hub_doc(gamma_deg=math.nan), "converter at b.gamma_deg: must lie in (0, 90)"),
    # r_dc >= 0: zero and the float below it
    (hub_doc(r_dc_pu=0.0), None),
    (hub_doc(r_dc_pu=-5e-324), "converter at b.r_dc_pu: must be a finite number >= 0, got -5e-324"),
    (hub_doc(r_dc_pu=math.nan), "converter at b.r_dc_pu: must be a finite number >= 0, got nan"),
], ids=["1/x-edge", "1/x-over", "x-nan", "E/x-edge", "E/x-over", "E-nan",
        "P/S-edge", "P/S-under", "P-nan",
        "branch-1/x-edge", "branch-1/x-over", "branch-x-nan", "gamma-edge", "gamma-over", "gamma-nan",
        "r-edge", "r-under", "r-nan"])
def test_record_quotients_at_their_float_edges(doc, message):
    if message is None:
        case_from_dict(doc)
    else:
        named(lambda: case_from_dict(doc), message)

