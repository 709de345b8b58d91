"""The packaged validation suite end to end, once, plus its error paths."""

import concurrent.futures
import math

import pytest

import gridstrength.validate as validate
from gridstrength.errors import GridStrengthError
from gridstrength.validate import (
    BOUNDARY_EXPECTED,
    CRITICAL_EXPECTED,
    SCENARIOS,
    SWEEP_SCENARIO,
    run_scenario,
    validate_suite,
)

from conftest import serial_pool


@pytest.fixture(scope="module")
def report():
    return validate_suite(jobs=1)


def test_overall_passes(report, measured):
    crit = [r for r in report.rows if r.scenario in CRITICAL_EXPECTED]
    bnd = [r for r in report.rows if r.scenario in BOUNDARY_EXPECTED]
    measured["validate.max critical deviation (pct)"] = max(r.deviation for r in crit)
    measured["validate.max boundary deviation (deg)"] = max(r.deviation for r in bnd)
    assert report.overall
    assert report.failed() == ()


def test_row_count_and_order(report):
    assert len(report.rows) == 23
    scenarios = [r.scenario for r in report.rows]
    assert scenarios == sorted(scenarios)
    assert set(scenarios) == set(SCENARIOS)
    per = {s: scenarios.count(s) for s in set(scenarios)}
    assert per["case4-quad-critical"] == 4
    assert per[SWEEP_SCENARIO] == 4


def test_rows_within_their_tolerances(report):
    for r in report.rows:
        assert r.passed
        assert r.deviation <= r.tolerance
        assert math.isfinite(r.computed)


def test_sources_are_tagged(report):
    assert all(r.source.startswith("benchmark") for r in report.rows)


def test_scenario_error_becomes_failed_row(monkeypatch):
    def boom(scenario):
        raise GridStrengthError("boom")

    monkeypatch.setattr(validate, "_critical_rows", boom)
    rows = run_scenario("case1-single-critical")
    assert len(rows) == 1
    row = rows[0]
    assert not row.passed
    assert row.quantity.startswith("error:")
    assert "boom" in row.quantity
    assert row.deviation == math.inf


def test_scenario_programming_error_propagates(monkeypatch):
    def broken(scenario):
        raise TypeError("broken")

    monkeypatch.setattr(validate, "_critical_rows", broken)
    with pytest.raises(TypeError, match="broken"):
        run_scenario("case1-single-critical")


def test_unknown_scenario_is_a_failed_row():
    rows = run_scenario("case0-nope")
    assert len(rows) == 1
    assert not rows[0].passed
    assert "unknown scenario" in rows[0].quantity


@pytest.mark.parametrize("jobs, workers", [(3, 3), (5000, len(SCENARIOS))])
def test_pool_never_exceeds_scenario_count(monkeypatch, jobs, workers):
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(seen))
    monkeypatch.setattr(validate, "run_scenario", lambda scenario, aggregation: [])
    assert validate_suite(jobs=jobs).rows == ()
    assert seen == [workers]
