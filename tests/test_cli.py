"""The command-line front end through main(): exit codes, JSON and CSV
shapes, determinism, output redirection."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gridstrength.cli as cli
from gridstrength import boundary, gscr
from gridstrength.boundary import SweepRow
from gridstrength.casefile import bundled_case_dir, case_from_dict, load_bundled_case, save_case
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


@pytest.mark.parametrize("argv, name", [
    (["powerflow", "--tol-newton", "inf"], "tol_newton"),
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
    # Kron reduction names the bus before any eigensolve or power flow warns
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(overflowing_dual_doc()), encoding="utf-8")
    code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out, err) == (2, "", "error: network: bus 'inv1': 1/reactance_pu overflows\n")


@pytest.mark.parametrize("cmd", ["gscr", "classify", "powerflow", "find-cgscr"])
def test_susceptance_near_the_float_limit_is_input_error(capsys, tmp_path, cmd):
    # B is finite but near 1e308: named by bus before a sum of its entries overflows
    path = tmp_path / "near_limit.json"
    path.write_text(json.dumps(near_limit_dual_doc()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: network: bus 'inv1': 1/reactance_pu sums")


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
    assert err.startswith("error: network: bus 'inv1': emf_pu/reactance_pu sums")


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


def test_gscr_runs_one_eigensolve(capsys, paths, monkeypatch):
    calls = []
    real = gscr.compute_gscr

    def counted(J):
        calls.append(J)
        return real(J)

    # boundary.case_gscr holds its own binding of the name; count calls through either
    monkeypatch.setattr(gscr, "compute_gscr", counted)
    monkeypatch.setattr(boundary, "compute_gscr", counted)
    code, out, _ = run(capsys, ["gscr", paths["sidc"]])
    assert code == 0 and json.loads(out)["spectrum_check"]["lambda_1_positive"] is True
    assert len(calls) == 1


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
    def study(*argv):
        done = subprocess.run([sys.executable, str(SCRIPTS / "cgscr_study.py"), *argv],
                              capture_output=True, text=True, timeout=120, env=script_env())
        assert done.returncode == 0, done.stderr
        return done.stdout

    out = tmp_path / "stress.jsonl"
    study("run", str(out), "--only", "stress/seed=0/")
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 8
    assert all(r["path"] in ("modal", "fallback") and r["value"] > 0 for r in lines)
    assert study("diff", str(out), str(out)).startswith(
        "8 inputs in both files: 8 equal, 0 moved, 0 lost, 0 gained")


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
