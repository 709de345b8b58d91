"""Command-line front end.

One subcommand per library capability: index computation, classification,
rated power flow, continuation tracing, the two threshold searches, the
dual-infeed rating sweep and the built-in validation suite.  Structured
reports are JSON in the same style as the case files; tabular output
(map, sweep) is CSV with a header row and LF endings.  Output is
deterministic: same case and config, same bytes.

Exit codes: 0 success, 1 computation failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .boundary import (
    case_gscr,
    find_boundary_numeric,
    find_critical_numeric,
    sweep_dual_infeed,
)
from .casefile import CaseFile, load_case
from .errors import CaseFormatError, GridStrengthError
from .gscr import classify, extended_jacobian, perron_check
from .netmodel import reduce_case
from .powerflow import NEWTON_TOL, Diverged, newton_solve, prepare, trace_map
from .validate import SWEEP_RATIOS, validate_suite

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    case_path: str = ""
    out_path: str = ""
    tol_newton: float = NEWTON_TOL
    tol_bisect: float = 1e-6
    aggregation: str = "mean"
    cg: float = 2.0
    bg: float = 3.0
    jobs: int = 1

    def __post_init__(self):
        for name in ("tol_newton", "tol_bisect"):
            if not getattr(self, name) > 0:
                raise CaseFormatError(f"{name} must be positive")
        if self.jobs < 1:
            raise CaseFormatError("jobs must be at least 1")


def _sig6(x: float) -> float:
    """Six significant digits, as a number (JSON stays numeric)."""
    if x != x or math.isinf(x):
        return x
    return float(f"{x:.6g}")


def _deg2(rad: float) -> float:
    return round(math.degrees(rad), 2)


def _num(x: float):
    # strict JSON has no NaN; failed rows carry null instead
    return None if x != x else _sig6(x)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _case_name(case: CaseFile, path: str) -> str:
    return case.name or Path(path).stem


# ---------------------------------------------------------------- subcommands

def _cmd_gscr(cfg: RunConfig) -> tuple[str, int]:
    case = load_case(cfg.case_path)
    eig, g = case_gscr(case)
    net = reduce_case(case)
    J = extended_jacobian(net.B, [case.rating_pu(case.converter_at(b)) for b in net.bus_order])
    per = perron_check(J)
    cls = classify(g, cg=cfg.cg, bg=cfg.bg)
    doc = {
        "command": "gscr",
        "case": _case_name(case, cfg.case_path),
        "bus_order": list(net.bus_order),
        "eigenvalues": [_sig6(v) for v in eig.lambdas],
        "gscr": _sig6(g),
        "classification": {"label": cls.label, "cg": _sig6(cls.cg), "bg": _sig6(cls.bg)},
        "spectrum_check": {
            "lambda_1_positive": per.lambda1 > 0,
            "relative_gap": _sig6(per.relative_gap),
            "perron_min_component": _sig6(per.min_component),
            "degenerate": per.degenerate,
        },
    }
    return _json_doc(doc), EXIT_OK


def _cmd_classify(cfg: RunConfig) -> tuple[str, int]:
    case = load_case(cfg.case_path)
    _, g = case_gscr(case)
    cls = classify(g, cg=cfg.cg, bg=cfg.bg)
    doc = {
        "command": "classify",
        "case": _case_name(case, cfg.case_path),
        "gscr": _sig6(g),
        "label": cls.label,
        "cg": _sig6(cls.cg),
        "bg": _sig6(cls.bg),
    }
    return _json_doc(doc), EXIT_OK


def _cmd_powerflow(cfg: RunConfig) -> tuple[str, int]:
    case = load_case(cfg.case_path)
    prep = prepare(case)
    res = newton_solve(prep, prep.rated_orders, tol=cfg.tol_newton)
    if isinstance(res, Diverged):
        raise GridStrengthError(f"rated power flow diverged: {res.reason}")
    buses = []
    for i, bus in enumerate(prep.net.bus_order):
        st = res.converter_states[i]
        spec = case.converter_at(bus)
        buses.append({
            "bus": bus,
            "U_pu": _sig6(float(res.U[i])),
            "delta_deg": _deg2(float(res.delta[i])),
            "P_MW": _sig6(st.P * spec.p_dn_mw),
            "Q_MVAr": _sig6(st.Q * spec.p_dn_mw),
            "mu_deg": _deg2(st.mu),
            "I_d_pu": _sig6(st.I_d),
        })
    doc = {
        "command": "powerflow",
        "case": _case_name(case, cfg.case_path),
        "converged": True,
        "buses": buses,
        "total_P_MW": _sig6(sum(b["P_MW"] for b in buses)),
    }
    return _json_doc(doc), EXIT_OK


def _cmd_map(cfg: RunConfig) -> tuple[str, int]:
    case = load_case(cfg.case_path)
    res = trace_map(case, bisect_tol=cfg.tol_bisect)
    order = reduce_case(case).bus_order
    base = case.system_base_mva
    header = (["lambda"]
              + [f"U_{b}" for b in order]
              + [f"P_MW_{b}" for b in order]
              + [f"Q_MVAr_{b}" for b in order]
              + [f"mu_deg_{b}" for b in order]
              + ["sigma_min"])
    rows = []
    for pt in res.history:
        rows.append([f"{pt.lam:.6g}"]
                    + [f"{u:.6g}" for u in pt.U]
                    + [f"{p * base:.6g}" for p in pt.P]
                    + [f"{q * base:.6g}" for q in pt.Q]
                    + [f"{math.degrees(m):.2f}" for m in pt.mu]
                    + [f"{pt.sigma_min:.6g}"])
    return _csv(header, rows), EXIT_OK


def _cmd_find(cfg: RunConfig, which: str) -> tuple[str, int]:
    case = load_case(cfg.case_path)
    if which == "find-cgscr":
        res = find_critical_numeric(case)
    else:
        res = find_boundary_numeric(case, aggregation=cfg.aggregation)
    doc = {
        "command": which,
        "case": _case_name(case, cfg.case_path),
        "kind": res.kind,
        "value": _sig6(res.value),
        "scale_star": _sig6(res.scale_star),
        "condition_residual": _sig6(res.condition_residual),
        "per_converter_mu_deg": [round(m, 2) for m in res.per_converter_mu],
    }
    if which == "find-bgscr":
        doc["aggregation"] = cfg.aggregation
    return _json_doc(doc), EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> tuple[str, int]:
    case = load_case(cfg.case_path)
    table = sweep_dual_infeed(case, SWEEP_RATIOS, aggregation=cfg.aggregation, jobs=cfg.jobs)
    rows = [[f"{r.ratio:.6g}", f"{r.cgscr:.6g}", f"{r.bgscr:.6g}"] for r in table]
    return _csv(["ratio", "CgSCR", "BgSCR"], rows), EXIT_OK


def _cmd_validate(cfg: RunConfig) -> tuple[str, int]:
    report = validate_suite(jobs=cfg.jobs, aggregation=cfg.aggregation)
    rows = []
    for r in report.rows:
        rows.append({
            "scenario": r.scenario,
            "quantity": r.quantity,
            "expected": _num(r.expected),
            "computed": _num(r.computed),
            "deviation": _num(r.deviation) if not math.isinf(r.deviation) else None,
            "tolerance": _sig6(r.tolerance),
            "passed": r.passed,
            "source": r.source,
        })
    doc = {"command": "validate", "overall": report.overall, "rows": rows}
    return _json_doc(doc), EXIT_OK if report.overall else EXIT_COMPUTE


# ------------------------------------------------------------------ dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstrength",
        description="Grid strength of multi-infeed LCC-HVDC systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="", metavar="PATH", help="write output here instead of stdout")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel workers")
    agg = argparse.ArgumentParser(add_help=False)
    agg.add_argument("--agg", default="mean", choices=("mean", "max", "first"),
                     help="per-converter overlap-angle aggregation rule")
    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument("--cg", type=float, default=2.0, help="critical threshold")
    thresholds.add_argument("--bg", type=float, default=3.0, help="boundary threshold")

    def case_cmd(name, help_, parents):
        p = sub.add_parser(name, help=help_, parents=[out] + parents)
        p.add_argument("case", help="case file path")
        return p

    case_cmd("gscr", "index, spectrum and classification of a case", [thresholds])
    case_cmd("classify", "strength class of a case", [thresholds])
    pf = case_cmd("powerflow", "rated-point AC/DC power flow", [])
    pf.add_argument("--tol-newton", type=float, default=NEWTON_TOL, metavar="X",
                    help="mismatch norm tolerance")
    mp = case_cmd("map", "continuation trace to maximum available power (CSV)", [])
    mp.add_argument("--tol-bisect", type=float, default=1e-6, metavar="X",
                    help="loading-factor interval at the nose")
    case_cmd("find-cgscr", "impedance scale search for the critical index", [])
    case_cmd("find-bgscr", "impedance scale search for the 30-degree boundary", [agg])
    case_cmd("sweep", "dual-infeed rating-ratio sweep (CSV)", [agg, jobs])
    sub.add_parser("validate", help="built-in benchmark suite on bundled cases",
                   parents=[out, agg, jobs])
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        case_path=getattr(args, "case", ""),
        out_path=args.out,
        tol_newton=getattr(args, "tol_newton", NEWTON_TOL),
        tol_bisect=getattr(args, "tol_bisect", 1e-6),
        aggregation=getattr(args, "agg", "mean"),
        cg=getattr(args, "cg", 2.0),
        bg=getattr(args, "bg", 3.0),
        jobs=getattr(args, "jobs", 1),
    )


def _dispatch(cfg: RunConfig) -> tuple[str, int]:
    if cfg.subcommand == "gscr":
        return _cmd_gscr(cfg)
    if cfg.subcommand == "classify":
        return _cmd_classify(cfg)
    if cfg.subcommand == "powerflow":
        return _cmd_powerflow(cfg)
    if cfg.subcommand == "map":
        return _cmd_map(cfg)
    if cfg.subcommand in ("find-cgscr", "find-bgscr"):
        return _cmd_find(cfg, cfg.subcommand)
    if cfg.subcommand == "sweep":
        return _cmd_sweep(cfg)
    if cfg.subcommand == "validate":
        return _cmd_validate(cfg)
    raise CaseFormatError(f"unknown subcommand {cfg.subcommand!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _config_from(args)
        text, code = _dispatch(cfg)
    except (CaseFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GridStrengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
