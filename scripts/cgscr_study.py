"""CgSCR equivalence study: find_critical_numeric on a fixed list of 686 inputs.

    PYTHONPATH=src python scripts/cgscr_study.py run OUT.jsonl [--only PREFIX]
    python scripts/cgscr_study.py diff OLD.jsonl NEW.jsonl

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
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("cigre_sidc", "dual", "triple", "quad")
BUNDLED_SCALES = (0.06, 0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 15.0, 19.0)
DUAL_RATIOS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
HETERO_SCALES = (0.3, 0.5, 0.7, 1.0, 2.0, 3.0, 5.0)


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
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run(args.out, args.only)
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
