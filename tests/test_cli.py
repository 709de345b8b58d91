"""The command-line front end through main(): exit codes, JSON and CSV
shapes, determinism, output redirection."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gridstrength.cli as cli
from gridstrength import boundary
from gridstrength.boundary import AGG_RULES, SweepRow
from gridstrength.casefile import (
    bundled_case_dir,
    case_from_dict,
    case_to_dict,
    load_bundled_case,
    load_case,
    save_case,
)
from gridstrength.netmodel import scale_impedance
from gridstrength.validate import ValidationReport, ValidationRow

from conftest import hub_network_doc, script_env
from test_casefile import BUNDLED, huge_emf_dual_doc, near_limit_dual_doc, overflowing_dual_doc


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("cases")
    sidc = load_bundled_case("cigre_sidc")
    save_case(sidc, d / "sidc.json")
    # 4x still converges on the shunt-inflated branch near U = 1.86; six
    # times rated impedance has no in-band rated solution left
    save_case(scale_impedance(sidc, 6.0), d / "weak.json")
    (d / "bad.json").write_text("{not json", encoding="utf-8")
    return {
        "sidc": str(d / "sidc.json"),
        "weak": str(d / "weak.json"),
        "bad": str(d / "bad.json"),
        "missing": str(d / "nope.json"),
        "dir": str(d),
    }


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ exit codes

def test_missing_file_is_input_error(capsys, paths):
    code, out, err = run(capsys, ["gscr", paths["missing"]])
    assert code == 2
    assert out == ""
    assert paths["missing"] in err


def test_malformed_case_is_input_error(capsys, paths):
    code, _, err = run(capsys, ["gscr", paths["bad"]])
    assert code == 2
    assert "line 1" in err


def test_non_utf8_case_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["gscr", str(path)])
    assert (code, out) == (2, "")
    assert str(path) in err
    assert "UTF-8" in err


def test_unwritable_out_is_input_error(capsys, paths, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, ["gscr", paths["sidc"], "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize("parts, reason", [
    (("missing-dir", "report.json"), "No such file or directory"),
    ((), "Is a directory"),
])
def test_unwritable_out_is_reported_before_running(capsys, monkeypatch, tmp_path, parts, reason):
    def never(**kwargs):
        raise AssertionError("validate_suite ran")

    monkeypatch.setattr(cli, "validate_suite", never)
    target = tmp_path.joinpath(*parts)
    code, out, err = run(capsys, ["validate", "--out", str(target)])
    assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")


def test_bus_named_like_the_ground_is_input_error(capsys, tmp_path):
    # an isolated bus must fail validation whatever its id
    doc = hub_network_doc(["a", "b"])
    doc["buses"].append({"id": "<ground>", "kind": "internal"})
    path = tmp_path / "ground.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["gscr", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: network: bus '<ground>' is not connected to any source\n"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["bogus"])[0] == 2
    assert run(capsys, ["validate", "--jobs", "2"])[0] == 2
    assert run(capsys, ["powerflow", "--tol-newton", "1e-8", "cigre_sidc"])[0] == 2


@pytest.mark.parametrize("argv, name", [
    (["gscr", "--cg", "nan"], "cg"),
    (["sweep", "--jobs", "0"], "jobs"),
    (["classify", "--bg", "inf"], "bg"),
])
def test_nonfinite_or_nonpositive_setting_is_input_error(capsys, paths, argv, name):
    code, out, err = run(capsys, argv + [paths["sidc"]])
    assert (code, out) == (2, "")
    assert name in err


@pytest.mark.parametrize("where, value", [
    (("branches", 0, "reactance_pu"), "abc"),
    (("thevenin_links", 0, "emf_pu"), None),
    (("converters", 0, "n_bridges"), "two"),
    (("converters", 0, "gamma_deg"), "x"),
    (("system_base_mva",), [1]),
    (("system_base_mva",), math.nan),
    (("converters", 0, "r_dc_pu"), math.nan),
    (("converters", 0, "b_c_pu"), math.inf),
    (("converters", 0, "n_bridges"), 2.7),
    (("frequency_hz",), -60),
    (("frequency_hz",), 0),
    (("frequency_hz",), math.nan),
    (("frequency_hz",), math.inf),
    (("branches",), None),
    (("branches",), 3),
    pytest.param(("branches", 0, "reactance_pu"), 10**400, id="reactance-400-digits"),
    pytest.param(("thevenin_links", 0, "emf_pu"), 10**400, id="emf-400-digits"),
    pytest.param(("converters", 0, "x_commutation_pu"), -10**400, id="x-minus-400-digits"),
    pytest.param(("system_base_mva",), 10**400, id="base-400-digits"),
    # positive and finite as written, but 1/x or P_dn/S_base overflows to inf
    pytest.param(("branches", 0, "reactance_pu"), 1e-320, id="reactance-1e-320"),
    pytest.param(("system_base_mva",), 1e-320, id="base-1e-320"),
])
def test_bad_case_number_is_input_error(capsys, tmp_path, where, value):
    doc = hub_network_doc(["a", "b"])
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["gscr", str(path)])
    assert (code, out) == (2, "")
    assert where[-1] in err


@pytest.mark.parametrize("cmd", ["gscr", "classify", "powerflow", "find-cgscr"])
def test_overflowing_susceptance_is_input_error(capsys, tmp_path, cmd):
    # Kron reduction names the bus before any eigensolve or power flow warns,
    # and the CLI names the file as it does for every other case error
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(overflowing_dual_doc()), encoding="utf-8")
    code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out, err) == (2, "", f"error: {path}: network: bus 'inv1': 1/reactance_pu overflows\n")


@pytest.mark.parametrize("cmd", ["gscr", "classify", "powerflow", "find-cgscr"])
def test_susceptance_near_the_float_limit_is_input_error(capsys, tmp_path, cmd):
    # B is finite but near 1e308: named by bus before a sum of its entries overflows
    path = tmp_path / "near_limit.json"
    path.write_text(json.dumps(near_limit_dual_doc()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: network: bus 'inv1': 1/reactance_pu sums")


@pytest.mark.parametrize("cmd", ["gscr", "powerflow", "find-cgscr", "find-bgscr"])
def test_source_term_near_the_float_limit_is_input_error(capsys, tmp_path, cmd):
    # emf/x is finite but near 1e300: named by bus before the kernel sums it with B's terms
    path = tmp_path / "huge_emf.json"
    path.write_text(json.dumps(huge_emf_dual_doc()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: network: bus 'inv1': emf_pu/reactance_pu sums")


def _case_with(tmp_path, name, edit):
    """The bundled case name, written after edit(doc) changes its document."""
    doc = case_to_dict(load_bundled_case(name))
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _sidc_with(tmp_path, edit):
    return _case_with(tmp_path, "cigre_sidc", edit)


def _reactance(x):
    return lambda doc: doc["thevenin_links"][0].update(reactance_pu=x)


@pytest.mark.parametrize("edit, want", [
    # reduced B about 7e-294: unscaled, the Perron solve overflows to a nan residual
    pytest.param(_reactance(1.419264220113578e+293), 7.0459e-294, id="tiny-B"),  # 1/x
    # rating p = 1.5e-154 pu: unscaled, the eigenpair check's norm of J overflows
    pytest.param(lambda doc: doc.update(system_base_mva=6.6368649253215856e+156),
                 1.34078e+154, id="tiny-rating"),  # 2/p
])
def test_index_does_not_depend_on_the_magnitude_of_B_or_the_ratings(capsys, tmp_path, edit,
                                                                     want):
    path = _sidc_with(tmp_path, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["gscr", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["gscr"] == want


def test_network_bound_error_names_the_case_file(capsys, tmp_path):
    path = _sidc_with(tmp_path, _reactance(1e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["gscr", str(path)])
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: network: bus 'inv1': 1/reactance_pu sums to 1e+200, "
                   "above 2**500/n = 3.27e+150\n")


def _tiny_rating_normal_b(doc):
    # rating 990 MW / 1e306 MVA = 9.9e-304 pu against B = 1/x = 1e10: the index is 1e313
    doc.update(system_base_mva=1e306)
    for link in doc["thevenin_links"]:
        link.update(reactance_pu=1e-10)


@pytest.mark.parametrize("cmd", ["gscr", "classify", "find-cgscr", "find-bgscr"])
def test_index_beyond_the_float_range_is_input_error(capsys, tmp_path, cmd):
    path = _sidc_with(tmp_path, _tiny_rating_normal_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: network: bus 'inv1': max |B_ij| / rating = "
                   "1e+10 / 9.9e-304 overflows\n")


@pytest.mark.parametrize("cmd", ["powerflow", "map"])
def test_flow_never_forms_the_overflowing_index(capsys, tmp_path, cmd):
    path = _sidc_with(tmp_path, _tiny_rating_normal_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [cmd, str(path)])
    assert (code, err) == (0, "")
    assert out


def _tiny_ratings(doc):
    # ratings 990 MW / 1e290 MVA = 9.9e-288 pu against the authored B: unscaled, the
    # Perron vector y / sqrt(p) is about 1e158 and its norm overflows
    doc.update(system_base_mva=1e290)


@pytest.mark.parametrize("name", ["cigre_sidc", "dual", "quad"])
def test_perron_vector_survives_ratings_near_the_float_minimum(capsys, tmp_path, name):
    path = _case_with(tmp_path, name, _tiny_ratings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd in ("gscr", "classify"):
            code, out, err = run(capsys, [cmd, str(path)])
            assert (code, err) == (0, ""), cmd
        eig = boundary.case_gscr(load_case(path))[0]
    authored = boundary.case_gscr(load_bundled_case(name))[0]
    assert np.abs(eig.perron_vector - authored.perron_vector).max() <= 1e-12
    assert eig.lambdas == pytest.approx(authored.lambdas * (1e290 / 990), rel=1e-12)


def _index_near_the_float_maximum(doc):
    # every Thevenin reactance 1e-10 against ratings 990 MW / 1.5e301 MVA: J_eq is finite,
    # about 1.5e308, so S + S.T overflows where 0.5 S + 0.5 S.T does not
    doc.update(system_base_mva=1.5e301)
    for link in doc["thevenin_links"]:
        link.update(reactance_pu=1e-10)


@pytest.mark.parametrize("name, perron", [("cigre_sidc", [1.0]), ("dual", [0.5, 0.5])],
                         ids=["cigre_sidc", "dual"])
def test_index_near_the_float_maximum(capsys, tmp_path, name, perron):
    path = _case_with(tmp_path, name, _index_near_the_float_maximum)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["gscr", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["gscr"] == 1.51515e+308
        eig, g = boundary.case_gscr(load_case(path))
        assert (g, eig.perron_vector.tolist()) == (1.5151515151515154e+308, perron)
        # the searches fail by name: no fold or bracket this far from the authored scale
        for cmd in ("find-cgscr", "find-bgscr"):
            code, out, err = run(capsys, [cmd, str(path)])
            assert (code, out) == (1, ""), cmd
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_number_with_too_many_digits_is_input_error(capsys, tmp_path):
    # beyond Python's 4,300-digit limit json cannot read the integer, nor write it
    doc = hub_network_doc(["a", "b"])
    doc["branches"][0]["reactance_pu"] = "HUGE"
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000), encoding="utf-8")
    code, out, err = run(capsys, ["gscr", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: a number has too many digits to read\n"


def test_deeply_nested_document_is_input_error(tmp_path):
    # json.loads gives up on 100,000 nested arrays with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "gridstrength", "gscr", str(path)],
                          capture_output=True, text=True, timeout=60, env=script_env())
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {path}: arrays or objects nest too deeply to read\n"


@pytest.mark.parametrize("argv", [["gscr", "quad"], ["find-cgscr", "cigre_sidc"]])
def test_bundled_case_name_reads_as_its_path(capsys, argv):
    by_name = run(capsys, argv)
    by_path = run(capsys, [argv[0], str(bundled_case_dir() / f"{argv[1]}.json")])
    assert by_name == by_path and by_name[0] == 0


def test_existing_path_wins_over_bundled_name(capsys, paths, monkeypatch, tmp_path):
    (tmp_path / "quad").write_bytes(Path(paths["sidc"]).read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["gscr", "quad"])
    sidc = json.loads(run(capsys, ["gscr", paths["sidc"]])[1])
    assert code == 0
    assert {**json.loads(out), "case": sidc["case"]} == sidc


def test_unknown_case_name_is_input_error(capsys):
    code, out, err = run(capsys, ["gscr", "quadd"])
    assert (code, out) == (2, "")
    assert err == "error: cannot read case file quadd: No such file or directory\n"


def test_version(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert "gridstrength" in out


def test_python_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "gridstrength", "--version"],
                          capture_output=True, text=True, timeout=60, env=script_env())
    assert done.returncode == 0
    assert done.stdout.startswith("gridstrength ")


def test_import_loads_every_module_and_no_process_pool():
    code = ("import sys, gridstrength; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('gridstrength', 'concurrent', 'multiprocessing'))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=script_env())
    assert done.returncode == 0
    assert done.stdout.split() == [
        "gridstrength", *(f"gridstrength.{m}" for m in (
            "boundary", "casefile", "converter", "errors", "gscr", "netmodel", "powerflow",
            "validate"))]


def test_link_off_converter_bus_exits_one(capsys, tmp_path):
    path = tmp_path / "hub.json"
    save_case(case_from_dict(hub_network_doc(["a", "h"])), path)
    code, out, err = run(capsys, ["sweep", str(path)])
    assert code == 1
    assert out == ""
    assert err == "error: tune_sources: needs exactly one source link per converter bus\n"


@pytest.mark.parametrize("cmd", ["find-cgscr", "find-bgscr"])
def test_search_without_positive_index_exits_one(tmp_path, cmd):
    # a 1e-20 tie cancels gSCR(1) to 0.0, so the modal start s0 = gSCR(1)/2 would be 0;
    # run as a child process so that any numpy warning would show on stderr
    doc = json.loads((bundled_case_dir() / "dual.json").read_text(encoding="utf-8"))
    doc["branches"][0]["reactance_pu"] = 1e-20
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "gridstrength", cmd, str(path)],
                          capture_output=True, text=True, timeout=60, env=script_env())
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: threshold search: gSCR at scale 1 is 0, not positive\n"


def test_diverged_powerflow_exits_one(capsys, paths):
    code, out, err = run(capsys, ["powerflow", paths["weak"]])
    assert code == 1
    assert out == ""
    assert "diverged" in err


# ------------------------------------------------------------------- reports

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("cmd", ["gscr", "classify", "powerflow", "find-cgscr"])
@pytest.mark.parametrize("case", BUNDLED)
def test_bundled_outputs_are_golden(capsys, case, cmd):
    # the behaviour reference: stdout of each subcommand on each bundled case, byte for byte
    code, out, err = run(capsys, [cmd, case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{case}.{cmd}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("golden", [*[f"{case}.map.csv" for case in BUNDLED],
                                    "cigre_sidc.find-bgscr.json",
                                    *[f"dual.find-bgscr.{agg}.json" for agg in AGG_RULES],
                                    "triple.find-bgscr.mean.json", "quad.find-bgscr.mean.json"])
def test_continuation_and_boundary_outputs_are_golden(capsys, golden):
    # the continuation and the BgSCR bisection on bundled cases, byte for byte; each
    # file is named case.subcommand[.aggregation].extension
    case, cmd, *agg = golden.split(".")[:-1]
    code, out, err = run(capsys, [cmd, *(["--agg", *agg] if agg else []), case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_gscr_report_and_determinism(capsys, paths):
    code, out, err = run(capsys, ["gscr", paths["sidc"]])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["command"] == "gscr"
    assert doc["gscr"] == pytest.approx(2.0, abs=1e-6)
    assert doc["classification"]["label"] == "Weak"
    assert doc["spectrum_check"]["lambda_1_positive"] is True
    assert doc["spectrum_check"]["degenerate"] is False
    assert len(doc["eigenvalues"]) == len(doc["bus_order"]) == 1
    again = run(capsys, ["gscr", paths["sidc"]])[1]
    assert again == out


def test_gscr_runs_one_eigensolve(capsys, paths, work_counts):
    code, out, _ = run(capsys, ["gscr", paths["sidc"]])
    assert code == 0 and json.loads(out)["spectrum_check"]["lambda_1_positive"] is True
    assert (work_counts["reduce_case"], work_counts["compute_gscr"]) == (1, 1)


def test_classify_threshold_override(capsys, paths):
    base = json.loads(run(capsys, ["classify", paths["sidc"]])[1])
    assert base["label"] == "Weak"
    moved = json.loads(run(capsys, ["classify", paths["sidc"], "--cg", "2.5"])[1])
    assert moved["label"] == "VeryWeak"


@pytest.mark.parametrize("cmd", ["gscr", "classify"])
@pytest.mark.parametrize("cg, bg", [("3", "2"), ("2", "2")])
def test_threshold_order_is_input_error(capsys, paths, cmd, cg, bg):
    code, out, err = run(capsys, [cmd, paths["sidc"], "--cg", cg, "--bg", bg])
    assert (code, out) == (2, "")
    assert err == f"error: --cg ({cg}) must be below --bg ({bg})\n"


def test_powerflow_report(capsys, paths):
    code, out, _ = run(capsys, ["powerflow", paths["sidc"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    bus = doc["buses"][0]
    assert 0.98 <= bus["U_pu"] <= 1.06
    assert 20.0 <= bus["mu_deg"] <= 26.0
    assert 980.0 <= doc["total_P_MW"] <= 1000.0


def test_map_csv_shape(capsys, paths):
    code, out, _ = run(capsys, ["map", paths["sidc"]])
    assert code == 0
    assert "\r" not in out
    assert out.endswith("\n")
    lines = out.rstrip("\n").split("\n")
    header = lines[0].split(",")
    assert header[0] == "lambda"
    assert header[-1] == "sigma_min"
    assert len(header) == 6
    lams = []
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 6
        lams.append(float(cols[0]))
    assert lams == sorted(lams)
    assert lams[-1] == pytest.approx(1.0, abs=2e-3)


def test_out_file_instead_of_stdout(capsys, paths, tmp_path):
    inline = run(capsys, ["gscr", paths["sidc"]])[1]
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["gscr", paths["sidc"], "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == inline


def test_find_cgscr_report(capsys, paths):
    code, out, _ = run(capsys, ["find-cgscr", paths["sidc"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "CgSCR"
    assert 1.9 <= doc["value"] <= 2.1
    assert doc["scale_star"] == pytest.approx(1.0, abs=5e-3)
    assert doc["condition_residual"] <= 1e-3
    assert len(doc["per_converter_mu_deg"]) == 1
    assert "aggregation" not in doc


def test_find_bgscr_report(capsys, paths):
    code, out, _ = run(capsys, ["find-bgscr", paths["sidc"], "--agg", "first"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "BgSCR"
    assert 2.9 <= doc["value"] <= 3.1
    assert doc["aggregation"] == "first"
    assert doc["per_converter_mu_deg"][0] == pytest.approx(30.0, abs=0.1)


def test_sweep_csv_wiring(capsys, paths, monkeypatch):
    rows = [SweepRow(ratio=0.25, cgscr=2.01, bgscr=3.02),
            SweepRow(ratio=4.0, cgscr=1.99, bgscr=2.98)]
    seen = {}

    def fake_sweep(case, ratios, aggregation="mean", jobs=1):
        seen["ratios"] = tuple(ratios)
        seen["jobs"] = jobs
        return rows

    monkeypatch.setattr(cli, "sweep_dual_infeed", fake_sweep)
    code, out, _ = run(capsys, ["sweep", paths["sidc"], "--jobs", "3"])
    assert code == 0
    assert out == "ratio,CgSCR,BgSCR\n0.25,2.01,3.02\n4,1.99,2.98\n"
    assert seen["ratios"] == (0.25, 0.5, 1.0, 2.0, 4.0)
    assert seen["jobs"] == 3
    assert run(capsys, ["sweep", paths["sidc"], "--ratios", "0.25, 4"])[0] == 0
    assert seen["ratios"] == (0.25, 4.0)
    for bad in ("", "x", "1,,2", "0", "-1", "nan", "inf"):
        seen.clear()
        code, out, err = run(capsys, ["sweep", paths["sidc"], "--ratios", bad])
        assert (code, out, seen) == (2, "", {})
        assert "--ratios" in err


def fake_row(passed, expected=1.0):
    return ValidationRow(scenario="case1", quantity="q", expected=expected,
                         computed=1.0, deviation=0.0 if passed else math.inf,
                         tolerance=1.0, passed=passed, source="benchmark: fake")


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["make_cases.py", "cgscr_study.py"])
def test_scripts_parse_and_show_help(script):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, timeout=60, env=script_env())
    assert done.returncode == 0
    assert "usage" in done.stdout.lower()


def test_cgscr_study_runs_and_diffs_a_subset(tmp_path):
    def study(*argv, status=0):
        done = subprocess.run([sys.executable, str(SCRIPTS / "cgscr_study.py"), *argv],
                              capture_output=True, text=True, timeout=120, env=script_env())
        assert done.returncode == status, done.stderr
        return done.stdout

    out = tmp_path / "stress.jsonl"
    study("run", str(out), "--only", "stress/seed=0/")
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 8
    assert all(r["path"] in ("modal", "fallback") and r["value"] > 0 for r in lines)
    assert study("diff", str(out), str(out)).startswith(
        "8 inputs in both files: 8 equal, 0 moved, 0 lost, 0 gained")
    # one value edited: the input has moved, and diff says so in its status too
    edited = tmp_path / "edited.jsonl"
    lines[3]["value"] *= 1.0 + 1e-12
    edited.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    assert study("diff", str(out), str(edited), status=1).startswith(
        "8 inputs in both files: 7 equal, 1 moved, 0 lost, 0 gained")


def test_bgscr_study_runs_on_sidc(tmp_path, bnd_sidc):
    # one line per rule; the walker lands on the exact single-infeed BSCR, and the
    # bisection is find_boundary_numeric's own value
    out = tmp_path / "sidc.jsonl"
    done = subprocess.run([sys.executable, str(SCRIPTS / "cgscr_study.py"), "bgscr", str(out),
                           "--only", "bundled/cigre_sidc/k=1.0"],
                          capture_output=True, text=True, timeout=120, env=script_env())
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["label"], r["rule"]) for r in lines] == [
        ("bundled/cigre_sidc/k=1.0", rule) for rule in AGG_RULES]
    for r in lines:
        assert r["walk"]["value"] == pytest.approx(2.993314724758691, rel=0.0, abs=1e-9)
        assert r["bisect"]["value"] == bnd_sidc.value


def test_validate_exit_mapping(capsys, monkeypatch):
    monkeypatch.setattr(cli, "validate_suite",
                        lambda aggregation="mean": ValidationReport(rows=(fake_row(True),)))
    code, out, _ = run(capsys, ["validate"])
    assert code == 0
    assert json.loads(out)["overall"] is True

    monkeypatch.setattr(cli, "validate_suite",
                        lambda aggregation="mean": ValidationReport(
                            rows=(fake_row(False, expected=math.nan),)))
    code, out, _ = run(capsys, ["validate"])
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] is False
    assert doc["rows"][0]["expected"] is None
    assert doc["rows"][0]["deviation"] is None
