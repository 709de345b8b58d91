"""CgSCR equivalence study on a fixed list of 686 inputs, and the BgSCR walker study.

    PYTHONPATH=src python scripts/cgscr_study.py run OUT.jsonl [--only PREFIX]
    python scripts/cgscr_study.py diff OLD.jsonl NEW.jsonl
    PYTHONPATH=src python scripts/cgscr_study.py bgscr OUT.jsonl [--only PREFIX]
    python scripts/cgscr_study.py report OUT.jsonl > REPORT.md

`run` writes one JSON line per input: its label, the path the search took
("modal", "fallback", or null when it failed before the modal fold), the
value, the largest bus voltage at the returned fold ("max_u") and the
error message.  Values are written with repr's round trip, so two files can
be compared bitwise.  `--only` keeps the labels that start with PREFIX.

The inputs come from the test suite's recipes, loaded by path from
tests/conftest.py and perfbench/netgen.py:
  bundled   the four bundled cases x 13 impedance scales               52
  dual      dual at 9 rating ratios, raw and tuned to gSCR 2           18
  random    random_network_doc seeds 0-11 x n in {1,2,3,4,6,8,12}     84
  internal  internal_network_doc seeds 100-107 x n in {2,4,6,8}        32
  flow      flow_network_doc seeds 3000+100j+n (j 0-5, n 4-16),
            raw and tuned to gSCR 1.5, 2, 2.5 and 3.5                 120
  hetero    heterogeneous_case (j 0-3, n in {2,3,5,8,12}) x 7 scales  140
  stress    stress_case seeds 0-29 x n in {1,4,6,9} x k in {0.5,1}    240

Run the same script against two source trees (PYTHONPATH=<tree>/src) and
`diff` the two files: it lists the inputs lost (solved only in OLD), gained
(solved only in NEW) and moved (solved in both, values not bitwise equal),
and failures whose message changed.  Like diff(1), it exits 1 when any input
is lost, gained or moved or a failure message changed, and 0 otherwise.

`bgscr` runs BgSCR two ways on the same inputs plus the bundled cases at
k = 0.02 and 30, under each aggregation rule: find_boundary_numeric (bisection
of s on the continuation's last convergent point) and a walker on the fold
curve.  The walker starts from the CgSCR fold, or, where the CgSCR search
fails, from a lam-free fold at the modal start at s0 = gSCR(1)/3; it runs
boundary._walk_folds on mu_agg - 30 deg, which falls with s, and closes with
an Illinois secant on ln s to |mu_agg - 30 deg| <= MU_TOL_DEG.  Each secant
probe is a lam-free fold warm-started from the nearer end; where it fails or
its lam leaves the ends' lam, the probe moves to the midpoint in ln s.  One
JSON line per input and rule holds both values, their kernel points (calls
of powerflow.mismatch plus powerflow._fold_point, each one evaluation of the
power-flow equations), times, the walker's start, walk folds, secant probes
and midpoint probes, the largest bus voltage at the walker's fold and each
method's error.  A case with one converter has one angle under every rule,
so its searches run once, under "mean", and its line is written for each
rule.  `report` summarizes such a file as Markdown, per input
group and rule, with every failure.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("cigre_sidc", "dual", "triple", "quad")
BUNDLED_SCALES = (0.06, 0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 15.0, 19.0)
DUAL_RATIOS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
HETERO_SCALES = (0.3, 0.5, 0.7, 1.0, 2.0, 3.0, 5.0)
BGSCR_EXTRA_SCALES = (0.02, 30.0)   # where the bisection's window of absolute scales ends
RULES = ("mean", "max", "first")
MU_TOL_DEG = 1e-9
SECANT_MAX_PROBES = 60
FAR_APART = 1e-2    # report: relative gap between the two values listed run by run


@functools.cache
def _recipes():
    """tests/conftest.py as a module; its own imports need tests/ on the path."""
    sys.path.insert(0, str(ROOT / "tests"))
    spec = importlib.util.spec_from_file_location("study_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs():
    """(label, make) per input, in a fixed order; make() returns the CaseFile."""
    # the package under study is whichever PYTHONPATH gives; diff needs none
    from gridstrength import boundary
    from gridstrength.casefile import case_from_dict, load_bundled_case, with_rating
    from gridstrength.netmodel import scale_impedance

    t = _recipes()
    netgen = t.load_netgen()

    for name in BUNDLED:
        for k in BUNDLED_SCALES:
            yield f"bundled/{name}/k={k}", lambda name=name, k=k: scale_impedance(
                load_bundled_case(name), k)
    for r in DUAL_RATIOS:
        def rated(r=r):
            dual = load_bundled_case("dual")
            a, b = dual.converter_buses()
            return with_rating(dual, b, r * dual.converter_at(a).p_dn_mw)
        yield f"dual/ratio={r}/raw", rated
        yield f"dual/ratio={r}/gscr=2", lambda rated=rated: boundary.scale_to_gscr(rated(), 2.0)
    for seed in range(12):
        for n in (1, 2, 3, 4, 6, 8, 12):
            yield f"random/seed={seed}/n={n}", lambda seed=seed, n=n: case_from_dict(
                t.random_network_doc(np.random.default_rng(seed), n))
    for seed in range(100, 108):
        for n in (2, 4, 6, 8):
            yield f"internal/seed={seed}/n={n}", lambda seed=seed, n=n: case_from_dict(
                t.internal_network_doc(np.random.default_rng(seed), n))
    for j in range(6):
        for n in (4, 8, 12, 16):
            def flow(j=j, n=n):
                rng = np.random.default_rng(3000 + 100 * j + n)
                return case_from_dict(netgen.flow_network_doc(rng, n, f"flow-{j}-{n}"))
            yield f"flow/j={j}/n={n}/raw", flow
            for g in (1.5, 2.0, 2.5, 3.5):
                yield f"flow/j={j}/n={n}/gscr={g}", lambda flow=flow, g=g: boundary.scale_to_gscr(
                    flow(), g)
    for j in range(4):
        for n in (2, 3, 5, 8, 12):
            for k in HETERO_SCALES:
                yield f"hetero/j={j}/n={n}/k={k}", lambda j=j, n=n, k=k: scale_impedance(
                    t.heterogeneous_case(j, n), k)
    for seed in range(30):
        for n in (1, 4, 6, 9):
            for k in (0.5, 1.0):
                yield f"stress/seed={seed}/n={n}/k={k}", lambda seed=seed, n=n, k=k: t.stress_case(
                    seed, n, k)


def run_one(build) -> dict:
    """One search, with the path it took and the fold it returned."""
    from gridstrength import boundary

    seen = {"path": None, "fold": None}
    modal, fallback = boundary._modal_fold, boundary._critical_fold

    def modal_seen(*args):
        seen["fold"] = fold = modal(*args)
        seen["path"] = "modal" if fold is not None else "fallback"
        return fold

    def fallback_seen(*args):
        seen["fold"] = fold = fallback(*args)
        return fold

    boundary._modal_fold, boundary._critical_fold = modal_seen, fallback_seen
    try:
        value = boundary.find_critical_numeric(build()).value
        error = None
    except Exception as exc:   # every failure is data here, the unnamed ones most of all
        value, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        boundary._modal_fold, boundary._critical_fold = modal, fallback
    fold = seen["fold"]
    max_u = None if value is None else float(fold.x[len(fold.x) // 2:].max())
    return {"path": seen["path"], "value": value, "max_u": max_u, "error": error}


def run(out: Path, only: str) -> None:
    with out.open("w", encoding="utf-8") as fh:
        for label, build in inputs():
            if label.startswith(only):
                fh.write(json.dumps({"label": label, **run_one(build)}) + "\n")
                fh.flush()


def bgscr_inputs():
    """inputs(), then the bundled cases at the BGSCR_EXTRA_SCALES."""
    from gridstrength.casefile import load_bundled_case
    from gridstrength.netmodel import scale_impedance

    yield from inputs()
    for name in BUNDLED:
        for k in BGSCR_EXTRA_SCALES:
            yield f"bundled/{name}/k={k}", lambda name=name, k=k: scale_impedance(
                load_bundled_case(name), k)


def walk_bgscr(case, rule: str, counts: dict):
    """BgSCR on the fold curve: (value, fold); counts gets the start and the probe tallies."""
    from gridstrength import boundary
    from gridstrength.errors import GridStrengthError
    from gridstrength.powerflow import _modal_start, prepare

    kind = "find_boundary_numeric"
    prep = prepare(case)
    g1 = boundary._index_at_unit_scale(prep)
    aggregate = boundary._AGGREGATE[rule]

    def gap(fold):
        mu = np.degrees([st.mu for st in fold.states])
        return aggregate(mu, prep.consts.p_dn) - boundary.MU_TARGET_DEG

    def lam_free(near, log_s):
        return boundary._solve_fold(prep, near.x, near.v, math.exp(log_s), near.lam, kind)

    try:
        start = _modal_start(prep, 0.5 * g1)
        fold = boundary._modal_fold(prep, g1, start) or boundary._critical_fold(prep, g1, start)
        counts["start"] = "cgscr"
    except GridStrengthError:
        s0 = g1 / 3.0
        lam, x, v = _modal_start(prep, s0)
        fold = boundary._solve_fold(prep, x, v, s0, lam, kind)
        counts["start"] = "third"
        if fold is None:
            raise GridStrengthError(f"{kind}: no fold from the modal start at scale {s0:.6g}")
    last = [fold]

    def walk_gap(f):
        if f is not last[0]:
            last[0] = f
            counts["walk_folds"] += 1
        return gap(f)

    lo, hi = boundary._walk_folds(prep, fold, walk_gap, kind)
    # Illinois: the end that a probe leaves in place twice running has its gap weight halved
    ends, replaced = [[lo, gap(lo)], [hi, gap(hi)]], None
    for f, g in ends:
        if abs(g) <= MU_TOL_DEG:
            return g1 / f.s, f
    for _ in range(SECANT_MAX_PROBES):
        (a, ga), (b, gb) = ends
        la, lb = math.log(a.s), math.log(b.s)
        t = la + (lb - la) * ga / (ga - gb)
        fold = lam_free(a if abs(t - la) <= abs(t - lb) else b, t)
        counts["secant"] += 1
        lam_lo, lam_hi = sorted((a.lam, b.lam))
        if fold is None or not lam_lo <= fold.lam <= lam_hi:
            fold = lam_free(a, 0.5 * (la + lb))
            counts["midpoint"] += 1
            if fold is None or not lam_lo <= fold.lam <= lam_hi:
                raise GridStrengthError(f"{kind}: rule {rule!r}: no fold on the curve between "
                                        f"scales {a.s:.6g} and {b.s:.6g}")
        g = gap(fold)
        if abs(g) <= MU_TOL_DEG:
            return g1 / fold.s, fold
        i = 0 if g > 0 else 1
        ends[i] = [fold, g]
        if replaced == i:
            ends[1 - i][1] *= 0.5
        replaced = i
    raise GridStrengthError(f"{kind}: rule {rule!r}: secant stalled between scales "
                            f"{ends[0][0].s:.6g} and {ends[1][0].s:.6g}")


def _counted(fn) -> dict:
    """fn's result and error, its kernel points (conftest.count_work's) and its time."""
    import pytest

    with pytest.MonkeyPatch.context() as mp:
        counts = _recipes().count_work(mp)
        start = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:   # every failure is data here, the unnamed ones most of all
            value, error = None, f"{type(exc).__name__}: {exc}"
    return {"value": value, "error": error, "points": counts["mismatch"] + counts["_fold_point"],
            "ms": round(1e3 * (time.perf_counter() - start), 1)}


def bgscr_one(case, rule: str) -> dict:
    """Both BgSCR searches on one case under one rule."""
    from gridstrength import boundary

    bisect = _counted(lambda: boundary.find_boundary_numeric(case, rule).value)
    counts = {"start": None, "walk_folds": 0, "secant": 0, "midpoint": 0}
    walk = _counted(lambda: walk_bgscr(case, rule, counts))
    value, fold = walk["value"] or (None, None)
    walk.update(value=value, **counts,
                max_u=None if fold is None else float(fold.x[len(fold.x) // 2:].max()))
    return {"bisect": bisect, "walk": walk}


def bgscr(out: Path, only: str) -> None:
    with out.open("w", encoding="utf-8") as fh:
        for label, build in bgscr_inputs():
            if not label.startswith(only):
                continue
            try:
                case, rows = build(), {}
            except Exception as exc:   # the input itself could not be built
                case, rows = None, {rule: {"build_error": f"{type(exc).__name__}: {exc}"}
                                    for rule in RULES}
            for rule in RULES:
                # one converter reads the same angle under every rule: its searches run once
                key = rule if case is None or len(case.converter_buses()) > 1 else RULES[0]
                if key not in rows:
                    rows[key] = bgscr_one(case, key)
                fh.write(json.dumps({"label": label, "rule": rule, **rows[key]}) + "\n")
                fh.flush()


def report(path: Path) -> None:
    """Markdown summary of a bgscr file: per group and rule, then every failure."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    groups = list(dict.fromkeys(r["label"].split("/")[0] for r in rows))
    print(f"# BgSCR by bisection and by the fold-curve walker: {len(rows)} runs\n")
    print("| group | rule | runs | both solve | walker - bisection, relative | "
          "kernel points, bisection (median, max) | walker (median, max) | walker starts from "
          "gSCR(1)/3 | midpoint probes |")
    print("|---|---|---|---|---|---|---|---|---|")
    for group in groups:
        for rule in RULES:
            sel = [r for r in rows if r["label"].split("/")[0] == group and r["rule"] == rule
                   and "build_error" not in r]
            both = [r for r in sel if r["bisect"]["value"] and r["walk"]["value"]]
            rel = [(r["walk"]["value"] - r["bisect"]["value"]) / r["bisect"]["value"] for r in both]
            pts = {m: sorted(r[m]["points"] for r in sel if r[m]["value"]) for m in ("bisect", "walk")}
            spans = {m: f"{int(np.median(p))}, {p[-1]}" if p else "-" for m, p in pts.items()}
            third = sum(r["walk"]["start"] == "third" for r in sel)
            mid = sum(r["walk"]["midpoint"] for r in sel)
            span = f"{min(rel):.2e} to {max(rel):.2e}" if rel else "-"
            print(f"| {group} | {rule} | {len(sel)} | {len(both)} | {span} | {spans['bisect']} | "
                  f"{spans['walk']} | {third} | {mid} |")
    print(f"\n## Runs where the two values differ by more than {FAR_APART:g} relative\n")
    for r in rows:
        if "build_error" in r:
            continue
        a, b = r["bisect"]["value"], r["walk"]["value"]
        if a and b and abs(b - a) > FAR_APART * a:
            print(f"- {r['label']} ({r['rule']}): bisection {a!r}, walker {b!r} "
                  f"(max U {r['walk']['max_u']:.4g})")
    print("\n## Failures\n")
    for r in rows:
        if "build_error" in r:
            print(f"- {r['label']} ({r['rule']}): not built: {r['build_error']}")
            continue
        for m in ("bisect", "walk"):
            if r[m]["error"]:
                other = r["walk" if m == "bisect" else "bisect"]["value"]
                print(f"- {r['label']} ({r['rule']}), {m}: {r[m]['error']} "
                      f"[other method: {other!r}]")


def _load(path: Path) -> dict:
    return {r["label"]: r for r in map(json.loads, path.read_text(encoding="utf-8").splitlines())}


def diff(old_path: Path, new_path: Path) -> int:
    old, new = _load(old_path), _load(new_path)
    lost, gained, moved, messages = [], [], [], []
    equal = both_fail = 0
    for label in old.keys() & new.keys():
        a, b = old[label], new[label]
        if a["value"] is not None and b["value"] is None:
            lost.append((label, a, b))
        elif a["value"] is None and b["value"] is not None:
            gained.append((label, a, b))
        elif a["value"] is None:
            both_fail += 1
            if a["error"] != b["error"]:
                messages.append((label, a, b))
        elif a["value"] == b["value"]:
            equal += 1
        else:
            moved.append((abs(b["value"] - a["value"]) / abs(a["value"]), label, a, b))
    print(f"{len(old.keys() & new.keys())} inputs in both files: {equal} equal, {len(moved)} moved, "
          f"{len(lost)} lost, {len(gained)} gained, {both_fail} fail on both sides "
          f"({len(messages)} with a changed message)")
    for path in ("modal", "fallback"):
        rel = [m[0] for m in moved if m[2]["path"] == path]
        count = sum(1 for a in old.values() if a["path"] == path and a["value"] is not None)
        print(f"  solved on the {path} path in OLD: {count}; moved {len(rel)}, "
              f"largest relative move {max(rel, default=0.0):.3g}")
    print(f"only in OLD: {len(old.keys() - new.keys())}, only in NEW: {len(new.keys() - old.keys())}")
    for title, rows in (("lost", lost), ("gained", gained)):
        print(f"{title}:")
        for label, a, b in sorted(rows):
            kept = a if a["value"] is not None else b
            gone = b if kept is a else a
            print(f"  {label}: {kept['value']!r} (max U {kept['max_u']:.4g}, {kept['path']}); "
                  f"other side: {gone['error']}")
    print("moved (largest first):")
    for rel, label, a, b in sorted(moved, reverse=True):
        print(f"  {label}: {a['value']!r} -> {b['value']!r} ({rel:.3g} relative, "
              f"max U {a['max_u']:.4g} -> {b['max_u']:.4g}, {a['path']} -> {b['path']})")
    print("changed messages:")
    for label, a, b in sorted(messages):
        print(f"  {label}: {a['error']} -> {b['error']}")
    return int(bool(lost or gained or moved or messages))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run every input and write JSON lines")
    r.add_argument("out", type=Path)
    r.add_argument("--only", default="", help="run only the labels that start with this prefix")
    d = sub.add_parser("diff", help="compare two run files")
    d.add_argument("old", type=Path)
    d.add_argument("new", type=Path)
    b = sub.add_parser("bgscr", help="run both BgSCR searches on every input and rule")
    b.add_argument("out", type=Path)
    b.add_argument("--only", default="", help="run only the labels that start with this prefix")
    rep = sub.add_parser("report", help="summarize a bgscr file as Markdown")
    rep.add_argument("path", type=Path)
    args = ap.parse_args(argv)
    if args.cmd in ("run", "bgscr"):
        (run if args.cmd == "run" else bgscr)(args.out, args.only)
        return 0
    if args.cmd == "report":
        report(args.path)
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
