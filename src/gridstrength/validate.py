"""Built-in validation suite.

Eight tuned scenarios plus the dual-infeed rating sweep, each compared
against reference benchmark values.  Critical scenarios rescale a bundled
case to index 2 and check the continuation nose power per converter;
boundary scenarios rescale to index 3 and check the overlap angles there.
Source emfs are re-tuned at the target scale so every scenario starts from
a clean rated point.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

from .boundary import fan_out, scale_to_gscr, sweep_dual_infeed
from .casefile import CaseFile, load_bundled_case
from .errors import GridStrengthError
from .powerflow import trace_map

CRITICAL_TOL_PCT = 1.0      # relative MW deviation per converter
BOUNDARY_TOL_DEG = 1.5      # absolute angle deviation per converter
SWEEP_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)

# expected values are reference benchmark results for these constructions;
# tie reactances in the bundled cases are reconstructions, so the angle
# splits match only loosely while staying inside the stated bands
CRITICAL_EXPECTED = {
    "case1-single-critical": ("cigre_sidc", (992.59,)),
    "case2-dual-critical": ("dual", (992.89, 992.22)),
    "case3-triple-critical": ("triple", (990.23, 990.19, 990.19)),
    "case4-quad-critical": ("quad", (990.47, 990.43, 990.43, 990.42)),
}
BOUNDARY_EXPECTED = {
    "case5-single-boundary": ("cigre_sidc", (30.03,)),
    "case6-dual-boundary": ("dual", (30.94, 29.75)),
    "case7-triple-boundary": ("triple", (31.08, 30.17, 30.17)),
    "case8-triple-variant-boundary": ("triple", (30.82, 29.78, 29.78)),
}
SWEEP_SCENARIO = "case9-dual-sweep"

SCENARIOS = tuple(sorted([*CRITICAL_EXPECTED, *BOUNDARY_EXPECTED, SWEEP_SCENARIO]))


class ValidationRow(NamedTuple):
    scenario: str
    quantity: str
    expected: float
    computed: float
    deviation: float
    tolerance: float
    passed: bool
    source: str


class ValidationReport(NamedTuple):
    rows: tuple[ValidationRow, ...]

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.rows)

    def failed(self) -> tuple[ValidationRow, ...]:
        return tuple(r for r in self.rows if not r.passed)


def _triple_variant(case: CaseFile) -> CaseFile:
    """The fourth boundary scenario: the inv2-inv3 tie tightened to 0.9 pu."""
    branches = tuple(
        b._replace(reactance_pu=0.9) if {b.from_bus, b.to_bus} == {"inv2", "inv3"} else b
        for b in case.branches
    )
    return replace(case, branches=branches, name="triple-x23-0.9")


def _scenario_case(scenario: str) -> CaseFile:
    table = CRITICAL_EXPECTED if scenario in CRITICAL_EXPECTED else BOUNDARY_EXPECTED
    name, _ = table[scenario]
    case = load_bundled_case(name)
    if scenario == "case8-triple-variant-boundary":
        case = _triple_variant(case)
    return case


def _critical_rows(scenario: str) -> list[ValidationRow]:
    name, expected = CRITICAL_EXPECTED[scenario]
    case = scale_to_gscr(_scenario_case(scenario), 2.0)
    res = trace_map(case)
    rows = []
    for i, (exp, p_sys) in enumerate(zip(expected, res.history[-1].P)):
        mw = p_sys * case.system_base_mva
        dev = 100.0 * abs(mw - exp) / exp
        rows.append(ValidationRow(
            scenario=scenario,
            quantity=f"nose power P{i + 1} (MW)",
            expected=exp,
            computed=mw,
            deviation=dev,
            tolerance=CRITICAL_TOL_PCT,
            passed=dev <= CRITICAL_TOL_PCT,
            source="benchmark: critical power at index 2",
        ))
    return rows


def _boundary_rows(scenario: str) -> list[ValidationRow]:
    _, expected = BOUNDARY_EXPECTED[scenario]
    case = scale_to_gscr(_scenario_case(scenario), 3.0)
    res = trace_map(case)
    rows = []
    for i, (exp, mu) in enumerate(zip(expected, res.mu_at_map)):
        mu_deg = math.degrees(mu)
        dev = abs(mu_deg - exp)
        rows.append(ValidationRow(
            scenario=scenario,
            quantity=f"overlap angle mu{i + 1} (deg)",
            expected=exp,
            computed=mu_deg,
            deviation=dev,
            tolerance=BOUNDARY_TOL_DEG,
            passed=dev <= BOUNDARY_TOL_DEG,
            source="benchmark: overlap angle at index 3",
        ))
    return rows


def _sweep_rows(aggregation: str) -> list[ValidationRow]:
    case = load_bundled_case("dual")
    table = sweep_dual_infeed(case, SWEEP_RATIOS, aggregation=aggregation)
    cg = [r.cgscr for r in table]
    bg = [r.bgscr for r in table]

    def spread_pct(vals):
        m = sum(vals) / len(vals)
        return 100.0 * (max(vals) - min(vals)) / m, m

    cg_spread, cg_mean = spread_pct(cg)
    bg_spread, bg_mean = spread_pct(bg)
    src = "benchmark: rating-sweep dispersion"
    rows = [
        ValidationRow(SWEEP_SCENARIO, "CgSCR spread over ratios (%)", 1.54, cg_spread,
                      cg_spread, 3.0, cg_spread <= 3.0, src),
        ValidationRow(SWEEP_SCENARIO, "BgSCR spread over ratios (%)", 0.61, bg_spread,
                      bg_spread, 1.5, bg_spread <= 1.5, src),
        ValidationRow(SWEEP_SCENARIO, "CgSCR mean", 2.0, cg_mean,
                      100.0 * abs(cg_mean - 2.0) / 2.0, 5.0,
                      abs(cg_mean - 2.0) / 2.0 <= 0.05, src),
        ValidationRow(SWEEP_SCENARIO, "BgSCR mean", 3.0, bg_mean,
                      100.0 * abs(bg_mean - 3.0) / 3.0, 5.0,
                      abs(bg_mean - 3.0) / 3.0 <= 0.05, src),
    ]
    return rows


def run_scenario(scenario: str, aggregation: str = "mean") -> list[ValidationRow]:
    try:
        if scenario in CRITICAL_EXPECTED:
            return _critical_rows(scenario)
        if scenario in BOUNDARY_EXPECTED:
            return _boundary_rows(scenario)
        if scenario == SWEEP_SCENARIO:
            return _sweep_rows(aggregation)
        raise GridStrengthError(f"unknown scenario {scenario!r}")
    except GridStrengthError as exc:  # a failed scenario is a failed row, not a crash
        return [ValidationRow(
            scenario=scenario,
            quantity=f"error: {exc}",
            expected=math.nan,
            computed=math.nan,
            deviation=math.inf,
            tolerance=0.0,
            passed=False,
            source="suite",
        )]


def validate_suite(jobs: int = 1, aggregation: str = "mean") -> ValidationReport:
    """Run every scenario; rows ordered by scenario id whatever the fan-out."""
    chunks = fan_out(run_scenario, jobs, SCENARIOS, [aggregation] * len(SCENARIOS))
    rows = [row for chunk in chunks for row in chunk]
    return ValidationReport(rows=tuple(rows))
