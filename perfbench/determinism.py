"""Check that two traced runs with the same seed report identical work counts.

    python3 perfbench/determinism.py --workload flow --seed 1 [--seconds 1]

Counts (calls, Newton iterations, probes, divergence shares, continuation
points, spans) are machine-independent, so they must repeat exactly; only
times may differ.  Prints each count and exits 1 if any differs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def is_count(name: str) -> bool:
    return not (name.endswith("_ms") or name == "trace.overhead_frac")


def traced_counts(workload: str, seed: int, seconds: float) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported wrong outputs")
    return {name: m["value"] for name, m in result["metrics"].items() if is_count(name)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "flow", "index"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for name in sorted(first):
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:45s} {first[name]!r:>22} {second.get(name)!r:>22}  {mark}")
    print(f"{args.workload} seed {args.seed}: "
          + (f"{len(differ)} counts differ" if differ else f"all {len(first)} counts identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
