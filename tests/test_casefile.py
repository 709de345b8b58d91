"""Case schema: parsing, validation, defaults, bundled data."""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridstrength.cli as cli
from gridstrength.boundary import case_gscr
from gridstrength.casefile import (
    CASE_DIR_ENV,
    bundled_case_dir,
    case_from_dict,
    case_to_dict,
    load_bundled_case,
    load_case,
    save_case,
    with_rating,
)
from gridstrength.errors import CaseFormatError, GridStrengthError
from gridstrength.netmodel import reduce_case

from conftest import CONVERTER_BLOCK, load_netgen, script_env
from oracles import parse_by_keyword

BUNDLED = ("cigre_sidc", "dual", "triple", "quad")


def minimal_doc():
    return {
        "name": "one-bus",
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": "inv1", "kind": "converter"}],
        "branches": [],
        "thevenin_links": [{"bus": "inv1", "reactance_pu": 0.5, "emf_pu": 1.1}],
        "converters": [{**CONVERTER_BLOCK, "bus": "inv1"}],
    }


def test_minimal_one_bus_case():
    case = case_from_dict(minimal_doc())
    assert len(case.buses) == 1
    assert case.converter_buses() == ("inv1",)
    assert case.thevenin_links[0].reactance_pu == 0.5


def test_cigre_converter_base_impedance():
    # 230 kV / 990 MW inverter side: base impedance 53.43 ohm
    case = load_bundled_case("cigre_sidc")
    spec = case.converters[0]
    assert spec.u_ac_kv == 230.0
    assert spec.p_dn_mw == 990.0
    assert abs(spec.base_impedance_ohm - 53.43) < 5e-3


def test_rating_pu_is_on_system_base():
    case = case_from_dict(minimal_doc())
    assert case.rating_pu(case.converters[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["branches"].append(
        {"from": "inv1", "to": "inv1", "reactance_pu": 1.0}), "self-loop"),
    (lambda d: d["thevenin_links"].__setitem__(
        0, {"bus": "inv1", "reactance_pu": 0.0, "emf_pu": 1.0}), "positive"),
    (lambda d: d["thevenin_links"].__setitem__(
        0, {"bus": "inv1", "reactance_pu": -0.5, "emf_pu": 1.0}), "positive"),
    (lambda d: d["thevenin_links"].clear(), "at least one"),
    (lambda d: d["converters"].append({**CONVERTER_BLOCK, "bus": "inv1"}), "duplicate converter"),
    (lambda d: d["buses"].append({"id": "inv1", "kind": "converter"}), "duplicate id"),
    (lambda d: d["converters"][0].__setitem__("control", "cc"), "control mode"),
    (lambda d: d["converters"][0].__setitem__("gamma_deg", 95.0), "gamma_deg"),
    (lambda d: d["converters"][0].__setitem__("n_bridges", 0), "n_bridges"),
    (lambda d: d.pop("buses"), "missing key"),
    (lambda d: d["buses"].__setitem__(0, {"id": "inv1", "kind": "load"}), "kind"),
])
def test_invalid_documents_are_named(mutate, fragment):
    doc = copy.deepcopy(minimal_doc())
    mutate(doc)
    with pytest.raises(CaseFormatError) as err:
        case_from_dict(doc)
    assert fragment in str(err.value)


def golden_doc():
    """Two converter buses and one internal bus; every section has an item [1]."""
    return {
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": "c1", "kind": "converter"}, {"id": "c2", "kind": "converter"},
                  {"id": "m", "kind": "internal"}],
        "branches": [{"from": "c1", "to": "m", "reactance_pu": 0.5},
                     {"from": "c2", "to": "m", "reactance_pu": 0.4}],
        "thevenin_links": [{"bus": "c1", "reactance_pu": 0.5, "emf_pu": 1.0},
                           {"bus": "m", "reactance_pu": 0.3, "emf_pu": 1.1}],
        "converters": [{**CONVERTER_BLOCK, "bus": "c1"}, {**CONVERTER_BLOCK, "bus": "c2"}],
    }


def overflowing_dual_doc():
    """The bundled dual case with both reactances on bus inv1 at 1e-308."""
    doc = case_to_dict(load_bundled_case("dual"))
    for item in doc["branches"] + doc["thevenin_links"]:
        if "inv1" in (item.get("from"), item.get("bus")):
            item["reactance_pu"] = 1e-308
    return doc


def near_limit_dual_doc():
    """The bundled dual case with its inv1-inv2 branch at 1e-308: B is finite, at about 1e308."""
    doc = case_to_dict(load_bundled_case("dual"))
    for br in doc["branches"]:
        if {br["from"], br["to"]} == {"inv1", "inv2"}:
            br["reactance_pu"] = 1e-308
    return doc


def huge_emf_dual_doc():
    """The bundled dual case with the emf of its first link at 1e300: E/x is finite, near 2e300."""
    doc = case_to_dict(load_bundled_case("dual"))
    doc["thevenin_links"][0]["emf_pu"] = 1e300
    return doc


def _doc(mutate):
    """case_from_dict on golden_doc() after mutate(doc) edits it in place."""
    def call(path):
        doc = golden_doc()
        mutate(doc)
        case_from_dict(doc)
    return call


def _raw(obj):
    return lambda path: case_from_dict(obj)


def _file(data):
    """load_case on a file holding data (bytes), or on a missing file for None."""
    def call(path):
        if data is not None:
            path.write_bytes(data)
        load_case(path)
    return call


def _set(section, i, **values):
    return _doc(lambda d: d[section][i].update(values))


def _drop(section, i, key):
    return _doc(lambda d: d[section][i].pop(key))


# Full text of every CaseFormatError casefile and netmodel raise, one row per
# raise site and per checked field; $PATH is the file a row loads, $CASES the
# bundled dir.
GOLDEN_MESSAGES = [
    (_raw([]), "top level: expected object"),
    (_doc(lambda d: d.pop("buses")), "top level: missing key 'buses'"),
    (_doc(lambda d: d.update(buses={})), "top level.buses: expected list, got dict"),
    (_doc(lambda d: d["buses"].__setitem__(1, "c2")), "buses[1]: expected object"),
    (_drop("buses", 1, "id"), "buses[1]: missing key 'id'"),
    (_doc(lambda d: d["branches"].__setitem__(1, [])), "branches[1]: expected object"),
    (_drop("branches", 1, "from"), "branches[1]: missing key 'from'"),
    (_drop("branches", 1, "to"), "branches[1]: missing key 'to'"),
    (_drop("branches", 1, "reactance_pu"), "branches[1]: missing key 'reactance_pu'"),
    (_set("branches", 1, reactance_pu="x"), "branches[1]: 'reactance_pu' is not a number: 'x'"),
    (_set("branches", 1, reactance_pu=None),
     "branches[1]: 'reactance_pu' is not a number: None"),
    (_set("branches", 1, reactance_pu=10**400),
     "branches[1]: 'reactance_pu' is outside the float range"),
    (_doc(lambda d: d.update(branches=None)), "top level.branches: expected list, got NoneType"),
    (_doc(lambda d: d.update(branches=3)), "top level.branches: expected list, got int"),
    (_doc(lambda d: d.pop("thevenin_links")), "top level: missing key 'thevenin_links'"),
    (_doc(lambda d: d.update(thevenin_links="m")),
     "top level.thevenin_links: expected list, got str"),
    (_doc(lambda d: d["thevenin_links"].__setitem__(1, 3)), "thevenin_links[1]: expected object"),
    (_drop("thevenin_links", 1, "bus"), "thevenin_links[1]: missing key 'bus'"),
    (_drop("thevenin_links", 1, "reactance_pu"),
     "thevenin_links[1]: missing key 'reactance_pu'"),
    (_drop("thevenin_links", 1, "emf_pu"), "thevenin_links[1]: missing key 'emf_pu'"),
    (_set("thevenin_links", 1, reactance_pu=[]),
     "thevenin_links[1]: 'reactance_pu' is not a number: []"),
    (_set("thevenin_links", 1, emf_pu="high"),
     "thevenin_links[1]: 'emf_pu' is not a number: 'high'"),
    (_set("thevenin_links", 1, emf_pu=-10**400),
     "thevenin_links[1]: 'emf_pu' is outside the float range"),
    (_doc(lambda d: d.pop("frequency_hz")), "top level: missing key 'frequency_hz'"),
    (_doc(lambda d: d.update(frequency_hz="sixty")),
     "top level: 'frequency_hz' is not a number: 'sixty'"),
    (_doc(lambda d: d.update(frequency_hz=10**400)),
     "top level: 'frequency_hz' is outside the float range"),
    (_doc(lambda d: d.pop("converters")), "top level: missing key 'converters'"),
    (_doc(lambda d: d.update(converters={})), "top level.converters: expected list, got dict"),
    (_doc(lambda d: d["converters"].__setitem__(1, None)), "converters[1]: expected object"),
    (_doc(lambda d: (d.update(frequency_hz=16.7), d["converters"][1].pop("gamma_deg"))),
     "converters[1]: gamma_deg omitted and no default exists for 16.7 Hz "
     "(defaults cover 50 and 60 Hz)"),
    (_set("converters", 1, gamma_deg="x"), "converters[1]: 'gamma_deg' is not a number: 'x'"),
    (_drop("converters", 1, "n_bridges"), "converters[1]: missing key 'n_bridges'"),
    (_set("converters", 1, n_bridges="two"),
     "converters[1]: 'n_bridges' is not a number: 'two'"),
    (_set("converters", 1, n_bridges=2.5),
     "converters[1]: 'n_bridges' must be a whole number, got 2.5"),
    *[(_set("converters", 1, **{key: 10**400}), f"converters[1]: '{key}' is outside the float range")
      for key in ("gamma_deg", "n_bridges", "p_dn_mw", "x_commutation_pu")],
    (_drop("converters", 1, "bus"), "converters[1]: missing key 'bus'"),
    *[(_drop("converters", 1, key), f"converters[1]: missing key '{key}'")
      for key in ("p_dn_mw", "k_ratio", "x_commutation_pu", "r_dc_pu", "b_c_pu", "u_ac_kv")],
    *[(_set("converters", 1, **{key: "?"}), f"converters[1]: '{key}' is not a number: '?'")
      for key in ("p_dn_mw", "k_ratio", "x_commutation_pu", "r_dc_pu", "b_c_pu", "u_ac_kv")],
    (_doc(lambda d: d.pop("system_base_mva")), "top level: missing key 'system_base_mva'"),
    (_doc(lambda d: d.update(system_base_mva={})),
     "top level: 'system_base_mva' is not a number: {}"),
    (_doc(lambda d: d.update(system_base_mva=10**400)),
     "top level: 'system_base_mva' is outside the float range"),
    (_doc(lambda d: d["buses"].append({"id": "c2", "kind": "converter"})),
     "buses: duplicate id 'c2'"),
    (_set("buses", 2, kind="load"), "bus m: unknown kind 'load'"),
    (_doc(lambda d: d.update(system_base_mva=0)),
     "system_base_mva: must be a positive finite number, got 0.0"),
    (_doc(lambda d: d.update(frequency_hz=float("nan"))),
     "frequency_hz: must be a positive finite number, got nan"),
    (_doc(lambda d: d["thevenin_links"].clear()), "thevenin_links: at least one link is required"),
    (_set("branches", 1, **{"from": "zz"}), "branches[1]: unknown bus 'zz'"),
    (_set("branches", 1, to="zz"), "branches[1]: unknown bus 'zz'"),
    (_set("branches", 1, to="c2"), "branches[1]: self-loop at 'c2'"),
    (_set("branches", 1, reactance_pu=-0.4),
     "branches[1].reactance_pu: must be a positive finite number, got -0.4"),
    (_set("branches", 1, reactance_pu=float("inf")),
     "branches[1].reactance_pu: must be a positive finite number, got inf"),
    (_set("thevenin_links", 1, bus="zz"), "thevenin_links[1]: unknown bus 'zz'"),
    (_set("thevenin_links", 1, reactance_pu=0),
     "thevenin_links[1].reactance_pu: must be a positive finite number, got 0.0"),
    (_set("thevenin_links", 1, emf_pu=-1),
     "thevenin_links[1].emf_pu: must be a positive finite number, got -1.0"),
    (_doc(lambda d: d["converters"].append({**CONVERTER_BLOCK, "bus": "c2"})),
     "converters: duplicate converter at bus 'c2'"),
    (_doc(lambda d: d["converters"].pop(1)),
     "converters: converter bus 'c2' has no converter block"),
    (_doc(lambda d: d["converters"].append({**CONVERTER_BLOCK, "bus": "m"})),
     "converters: bus 'm' is not declared kind=converter"),
    (_doc(lambda d: (d["converters"].clear(), [b.update(kind="internal") for b in d["buses"]])),
     "converters: at least one converter is required"),
    (_set("converters", 1, control="cc"),
     "converter at c2: unsupported control mode 'cc' (only cp-cea)"),
    (_set("converters", 1, p_dn_mw=0),
     "converter at c2.p_dn_mw: must be a positive finite number, got 0.0"),
    (_set("converters", 1, u_ac_kv=-230),
     "converter at c2.u_ac_kv: must be a positive finite number, got -230.0"),
    (_set("converters", 1, k_ratio=float("nan")),
     "converter at c2.k_ratio: must be a positive finite number, got nan"),
    (_set("converters", 1, x_commutation_pu=float("inf")),
     "converter at c2.x_commutation_pu: must be a positive finite number, got inf"),
    (_set("converters", 1, r_dc_pu=-0.01),
     "converter at c2.r_dc_pu: must be a finite number >= 0, got -0.01"),
    (_set("converters", 1, b_c_pu=float("nan")),
     "converter at c2.b_c_pu: must be a finite number >= 0, got nan"),
    (_set("converters", 1, n_bridges=0), "converter at c2.n_bridges: must be >= 1"),
    (_set("converters", 1, gamma_deg=90), "converter at c2.gamma_deg: must lie in (0, 90)"),
    (_set("converters", 1, gamma_deg=float("nan")),
     "converter at c2.gamma_deg: must lie in (0, 90)"),
    (_doc(lambda d: d["buses"].append({"id": "island", "kind": "internal"})),
     "network: bus 'island' is not connected to any source"),
    (_doc(lambda d: d["branches"].pop(1)), "network: bus 'c2' is not connected to any source"),
    (_file(None), "cannot read case file $PATH: No such file or directory"),
    (_file(b'{"name": "\xff"}'), "$PATH: not UTF-8 text (invalid start byte at byte 10)"),
    (_file(b"{,}"), "$PATH: line 1, column 2: Expecting property name enclosed in double quotes"),
    (_file(b'{"system_base_mva": 1' + b"0" * 5000 + b"}"),
     "$PATH: a number has too many digits to read"),
    (_file(b"[" * 100_000 + b"]" * 100_000), "$PATH: arrays or objects nest too deeply to read"),
    (_file(json.dumps({**golden_doc(), "thevenin_links": []}).encode()),
     "$PATH: thevenin_links: at least one link is required"),
    (lambda path: load_bundled_case("nope"), "no bundled case named 'nope.json' in $CASES"),
    # each 1/x is finite, but the branch and the link on inv1 sum past the float range
    (lambda path: reduce_case(case_from_dict(overflowing_dual_doc())),
     "network: bus 'inv1': 1/reactance_pu overflows"),
    # finite, but later sums of B's entries would overflow
    (lambda path: reduce_case(case_from_dict(near_limit_dual_doc())),
     "network: bus 'inv1': 1/reactance_pu sums to 1e+308, above 2**500/n = 1.64e+150"),
    # finite, but the mismatch and the fold system sum f with B's terms
    (lambda path: reduce_case(case_from_dict(huge_emf_dual_doc())),
     "network: bus 'inv1': emf_pu/reactance_pu sums to 1.92e+300, above 2**500/n = 1.64e+150"),
]


@pytest.mark.parametrize("call, message", GOLDEN_MESSAGES)
def test_error_messages_are_golden(call, message, tmp_path):
    path = tmp_path / "golden.json"
    with pytest.raises(CaseFormatError) as err:
        call(path)
    assert str(err.value) == (message.replace("$PATH", str(path))
                              .replace("$CASES", str(bundled_case_dir())))


def test_bus_named_like_the_ground_is_not_a_source():
    doc = golden_doc()
    doc["buses"].append({"id": "<ground>", "kind": "internal"})
    with pytest.raises(CaseFormatError) as err:
        case_from_dict(doc)
    assert str(err.value) == "network: bus '<ground>' is not connected to any source"


def test_zero_branch_reactance_rejected():
    doc = minimal_doc()
    doc["buses"].append({"id": "inv2", "kind": "converter"})
    doc["converters"].append({**CONVERTER_BLOCK, "bus": "inv2"})
    doc["branches"].append({"from": "inv1", "to": "inv2", "reactance_pu": 0.0})
    with pytest.raises(CaseFormatError) as err:
        case_from_dict(doc)
    assert "reactance_pu" in str(err.value)


def test_disconnected_bus_rejected():
    doc = minimal_doc()
    doc["buses"].append({"id": "inv2", "kind": "converter"})
    doc["converters"].append({**CONVERTER_BLOCK, "bus": "inv2"})
    # no branch, no link: inv2 floats
    with pytest.raises(CaseFormatError) as err:
        case_from_dict(doc)
    assert "inv2" in str(err.value)


def test_converter_bus_requires_converter_block():
    doc = minimal_doc()
    doc["buses"].append({"id": "inv2", "kind": "converter"})
    doc["thevenin_links"].append({"bus": "inv2", "reactance_pu": 0.5, "emf_pu": 1.0})
    with pytest.raises(CaseFormatError) as err:
        case_from_dict(doc)
    assert "no converter block" in str(err.value)


def test_internal_bus_with_converter_block_rejected():
    doc = minimal_doc()
    doc["buses"][0]["kind"] = "internal"
    with pytest.raises(CaseFormatError) as err:
        case_from_dict(doc)
    assert "not declared kind=converter" in str(err.value)


def test_parse_error_carries_location(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"system_base_mva": 990,\n  "buses": [,]\n}')
    with pytest.raises(CaseFormatError) as err:
        load_case(bad)
    assert "line 2" in str(err.value)


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(CaseFormatError) as err:
        load_case(missing)
    assert "nope.json" in str(err.value)


def test_roundtrip_through_dict_and_disk(tmp_path):
    case = case_from_dict(minimal_doc())
    again = case_from_dict(case_to_dict(case), name=case.name)
    assert case_to_dict(again) == case_to_dict(case)

    # the file stem becomes the loaded name, so keep them aligned
    path = tmp_path / "one-bus.json"
    save_case(case, path)
    loaded = load_case(path)
    assert case_to_dict(loaded) == case_to_dict(case)


def test_gamma_defaults_by_frequency():
    doc = minimal_doc()
    del doc["converters"][0]["gamma_deg"]
    doc["frequency_hz"] = 50
    assert case_from_dict(doc).converters[0].gamma_deg == 18.0
    doc["frequency_hz"] = 60
    assert case_from_dict(doc).converters[0].gamma_deg == 15.0
    doc["frequency_hz"] = 16.7
    with pytest.raises(CaseFormatError):
        case_from_dict(doc)


def test_explicit_gamma_overrides_default():
    doc = minimal_doc()
    doc["frequency_hz"] = 50
    doc["converters"][0]["gamma_deg"] = 15.0
    assert case_from_dict(doc).converters[0].gamma_deg == 15.0


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_cases_load(name):
    case = load_bundled_case(name)
    assert case.name == name
    assert len(case.converter_buses()) >= 1


@pytest.mark.parametrize("name", BUNDLED)
def test_parse_equals_the_keyword_reference_on_bundled_cases(name):
    doc = json.loads((bundled_case_dir() / f"{name}.json").read_text(encoding="utf-8"))
    assert case_from_dict(doc, name=name) == parse_by_keyword(doc, name=name)


def test_parse_equals_the_keyword_reference_on_seeded_networks():
    netgen = load_netgen()
    for seed in range(50):
        rng = np.random.default_rng(4100 + seed)
        n = int(rng.integers(1, 65))
        for doc in (netgen.flow_network_doc(rng, n, "flow"), netgen.index_network_doc(rng, n, "index")):
            assert case_from_dict(doc) == parse_by_keyword(doc)


def test_make_cases_regenerates_bundled(tmp_path):
    # tuned emfs may move in the last bit with the solver; all else is exact
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_cases.py"
    done = subprocess.run([sys.executable, str(script), "--root", str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=script_env())
    assert done.returncode == 0, done.stderr
    for name in BUNDLED:
        fresh = case_to_dict(load_case(tmp_path / "src" / "gridstrength" / "cases" / f"{name}.json"))
        packaged = case_to_dict(load_bundled_case(name))
        fresh_emfs = [ln.pop("emf_pu") for ln in fresh["thevenin_links"]]
        packaged_emfs = [ln.pop("emf_pu") for ln in packaged["thevenin_links"]]
        assert fresh == packaged
        assert fresh_emfs == pytest.approx(packaged_emfs, abs=1e-12)


def test_case_dir_env_override(tmp_path, monkeypatch):
    case = load_bundled_case("cigre_sidc")
    save_case(case, tmp_path / "special.json")
    monkeypatch.setenv(CASE_DIR_ENV, str(tmp_path))
    loaded = load_bundled_case("special")
    assert loaded.converter_buses() == case.converter_buses()
    with pytest.raises(CaseFormatError):
        load_bundled_case("cigre_sidc")  # not present in the override dir


def test_with_rating_replaces_only_target():
    case = load_bundled_case("dual")
    b1, b2 = case.converter_buses()
    varied = with_rating(case, b2, 495.0)
    assert varied.converter_at(b2).p_dn_mw == 495.0
    assert varied.converter_at(b1).p_dn_mw == case.converter_at(b1).p_dn_mw
    with pytest.raises(KeyError):
        with_rating(case, "no-such-bus", 100.0)


def test_converter_lookup_follows_with_rating():
    case = load_bundled_case("dual")
    b1, b2 = case.converter_buses()
    before = case.converter_at(b2)  # the lookup of the original is in use
    varied = with_rating(case, b2, 495.0)
    assert varied.converter_at(b2) is varied.converters[1]
    assert varied.converter_at(b2).p_dn_mw == 495.0
    assert case.converter_at(b2) is before and before.p_dn_mw != 495.0
    with pytest.raises(KeyError):
        varied.converter_at("no-such-bus")


def test_case_files_are_json_with_trailing_newline(tmp_path):
    case = case_from_dict(minimal_doc())
    path = tmp_path / "style.json"
    save_case(case, path)
    text = path.read_text()
    assert text.endswith("}\n")
    json.loads(text)


# any JSON value: the numbers include ints past float range and nan and +-inf,
# which json writes as NaN and Infinity and reads back
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _mutate_at_random_path(data, doc):
    """Walk down from doc to one entry, then delete it or replace it by a random JSON value."""
    node = doc
    while node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
            node = node[key]
        elif data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(JSON_VALUES)
            return


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@given(name=st.sampled_from(BUNDLED), edits=st.integers(1, 3), data=st.data())
def test_mutated_documents_fail_only_with_named_errors(fuzz_path, name, edits, data):
    doc = case_to_dict(load_bundled_case(name))
    for _ in range(edits):
        _mutate_at_random_path(data, doc)
    try:
        case = case_from_dict(doc)
    except CaseFormatError:
        pass
    else:
        try:
            case_gscr(case)
        except GridStrengthError:
            pass
    fuzz_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["gscr", str(fuzz_path)])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        line = err.getvalue()
        assert code in (1, 2) and out.getvalue() == ""
        assert line.startswith("error: ") and line.count("\n") == 1
        # reduce_case's bounds are checked after the file is read, and name the bus only
        assert code == 1 or str(fuzz_path) in line or line.startswith("error: network: bus ")
