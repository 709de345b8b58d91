"""Case schema: parsing, validation, defaults, bundled data."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gridstrength.casefile import (
    CASE_DIR_ENV,
    case_from_dict,
    case_to_dict,
    load_bundled_case,
    load_case,
    save_case,
    with_rating,
)
from gridstrength.errors import CaseFormatError

from conftest import CONVERTER_BLOCK, script_env

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


def test_case_files_are_json_with_trailing_newline(tmp_path):
    case = case_from_dict(minimal_doc())
    path = tmp_path / "style.json"
    save_case(case, path)
    text = path.read_text()
    assert text.endswith("}\n")
    json.loads(text)
