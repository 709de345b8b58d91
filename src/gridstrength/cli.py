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
import errno
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .boundary import (
    AGG_RULES,
    case_gscr,
    find_boundary_numeric,
    find_critical_numeric,
    sweep_dual_infeed,
)
from .casefile import CaseFile, bundled_case_dir, load_case
from .errors import CaseFormatError, GridStrengthError
from .gscr import classify, perron_report
from .powerflow import Diverged, newton_solve, prepare, sigma_min, trace_map
from .validate import SWEEP_RATIOS, validate_suite

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


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


def _case_path(arg: str) -> Path:
    """The path arg, or the bundled case named arg when no such path exists."""
    bundled = bundled_case_dir() / f"{arg}.json"
    if not os.path.exists(arg) and Path(arg).name == arg and bundled.is_file():
        return bundled
    return Path(arg)


# ---------------------------------------------------------------- subcommands

def _cmd_gscr(args: argparse.Namespace, case: CaseFile) -> tuple[str, int]:
    eig, g = case_gscr(case)
    per = perron_report(eig)
    cls = classify(g, cg=args.cg, bg=args.bg)
    doc = {
        "command": "gscr",
        "case": case.name,
        "bus_order": list(case.converter_buses()),
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


def _cmd_classify(args: argparse.Namespace, case: CaseFile) -> tuple[str, int]:
    _, g = case_gscr(case)
    cls = classify(g, cg=args.cg, bg=args.bg)
    doc = {
        "command": "classify",
        "case": case.name,
        "gscr": _sig6(g),
        "label": cls.label,
        "cg": _sig6(cls.cg),
        "bg": _sig6(cls.bg),
    }
    return _json_doc(doc), EXIT_OK


def _cmd_powerflow(args: argparse.Namespace, case: CaseFile) -> tuple[str, int]:
    prep = prepare(case)
    res = newton_solve(prep, prep.rated_orders)
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
        "case": case.name,
        "converged": True,
        "buses": buses,
        "total_P_MW": _sig6(sum(b["P_MW"] for b in buses)),
    }
    return _json_doc(doc), EXIT_OK


def _cmd_map(args: argparse.Namespace, case: CaseFile) -> tuple[str, int]:
    prep = prepare(case)
    res = trace_map(prep)
    order = prep.net.bus_order
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
                    + [f"{sigma_min(prep, pt):.6g}"])
    return _csv(header, rows), EXIT_OK


def _cmd_find(args: argparse.Namespace, case: CaseFile) -> tuple[str, int]:
    which = args.subcommand
    if which == "find-cgscr":
        res = find_critical_numeric(case)
    else:
        res = find_boundary_numeric(case, aggregation=args.agg)
    doc = {
        "command": which,
        "case": case.name,
        "kind": res.kind,
        "value": _sig6(res.value),
        "scale_star": _sig6(res.scale_star),
        "condition_residual": _sig6(res.condition_residual),
        "per_converter_mu_deg": [round(m, 2) for m in res.per_converter_mu],
    }
    if which == "find-bgscr":
        doc["aggregation"] = args.agg
    return _json_doc(doc), EXIT_OK


def _cmd_sweep(args: argparse.Namespace, case: CaseFile) -> tuple[str, int]:
    table = sweep_dual_infeed(case, args.ratios, aggregation=args.agg, jobs=args.jobs)
    rows = [[f"{r.ratio:.6g}", f"{r.cgscr:.6g}", f"{r.bgscr:.6g}"] for r in table]
    return _csv(["ratio", "CgSCR", "BgSCR"], rows), EXIT_OK


def _cmd_validate(args: argparse.Namespace, _case: None) -> tuple[str, int]:
    report = validate_suite(aggregation=args.agg)
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

def _unwritable(path: str) -> str | None:
    """Why writing path would fail, or None; found without creating or truncating it."""
    target = Path(path)
    parent = target.parent
    if target.is_dir():
        code = errno.EISDIR
    elif not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif not os.access(target if target.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return os.strerror(code)


def _positive(name: str, convert=float):
    """argparse type: a positive finite number; the error names the setting."""

    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            x = math.nan
        if not 0 < x < math.inf:  # also false for nan
            raise argparse.ArgumentTypeError(f"{name} must be positive and finite, got {text!r}")
        return x

    return parse


def _ratios(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated positive finite rating ratios."""
    return tuple(map(_positive("each ratio"), text.split(",")))


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
    jobs.add_argument("--jobs", type=_positive("jobs", int), default=1, metavar="N",
                      help="parallel workers")
    agg = argparse.ArgumentParser(add_help=False)
    agg.add_argument("--agg", default="mean", choices=AGG_RULES,
                     help="per-converter overlap-angle aggregation rule; first is the first "
                          "converter bus in the case's buses list")
    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument("--cg", type=_positive("cg"), default=2.0, help="critical threshold")
    thresholds.add_argument("--bg", type=_positive("bg"), default=3.0, help="boundary threshold")

    def case_cmd(name, help_, parents, run):
        p = sub.add_parser(name, help=help_, parents=[out] + parents)
        p.add_argument("case", help="case file path or bundled case name")
        p.set_defaults(run=run)
        return p

    case_cmd("gscr", "index, spectrum and classification of a case", [thresholds], _cmd_gscr)
    case_cmd("classify", "strength class of a case", [thresholds], _cmd_classify)
    case_cmd("powerflow", "rated-point AC/DC power flow", [], _cmd_powerflow)
    case_cmd("map", "continuation trace to maximum available power (CSV)", [], _cmd_map)
    case_cmd("find-cgscr", "impedance scale search for the critical index", [], _cmd_find)
    case_cmd("find-bgscr", "impedance scale search for the 30-degree boundary", [agg], _cmd_find)
    sw = case_cmd("sweep", "dual-infeed rating-ratio sweep (CSV)", [agg, jobs], _cmd_sweep)
    sw.add_argument("--ratios", type=_ratios, default=SWEEP_RATIOS, metavar="R,R,...",
                    help="second-to-first converter rating ratios")
    sub.add_parser("validate", help="built-in benchmark suite on bundled cases",
                   parents=[out, agg]).set_defaults(run=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    if "cg" in args and args.cg >= args.bg:
        print(f"error: --cg ({args.cg:g}) must be below --bg ({args.bg:g})", file=sys.stderr)
        return EXIT_INPUT
    reason = _unwritable(args.out) if args.out else None
    if reason:
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_INPUT
    path, case = _case_path(args.case) if "case" in args else None, None
    try:
        if path is not None:
            case = load_case(path)
        text, code = args.run(args, case)
    except (CaseFormatError, FileNotFoundError, IsADirectoryError) as exc:
        # load_case's messages carry the path; the network checks after it name it here
        where = f"{path}: " if case is not None and isinstance(exc, CaseFormatError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT
    except GridStrengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
