"""Benchmark for gridstrength: end-to-end op metrics, or per-layer spans with --trace 1.

    python3 perfbench/run.py --workload {search,flow,index} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  One process, one op at a time (closed loop), BLAS pinned to one
thread.  Inputs come from --seed only.  Ops run in whole passes over the
workload's inputs, at least MIN_PASSES of them, until the ops have taken
--seconds at reference speed (see Calibration), so every input weighs the
same in every run and the sample count does not follow the machine's
momentary speed.  Every op's output is checked against an independent
computation (see checks.py).

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Provenance, sample counts, the tail percentile used and failure
reasons go to the line before it and to perfbench/out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
# every input is timed at least twice; a pass is never cut short, so the
# sample count (and with it the tail percentile) only changes with speed
MIN_PASSES = 2
TAIL_BEYOND = 10
# The machine's speed drifts by tens of percent within seconds to minutes
# (other tenants share its cores).  A fixed kernel timed between ops and
# around set-ups tracks that drift; times are reported at the speed at which
# the kernel takes CAL_REF_MS.  Unscaled times go to the result file.
CAL_REF_MS = 2.0
CAL_EVERY_S = 0.05      # one kernel run per this much op time
CAL_WINDOW = 16         # samples around an op that set its scale

# layer metric -> (end-to-end metric and workload it should move, where it should not)
PREDICTIONS = (
    ("boundary.probes, powerflow.newton_iters, powerflow.diverged_iter_frac, "
     "powerflow.trace_map.points (fold solve)",
     "ops_per_s and op_p50_ms on search", "flow, index"),
    ("powerflow.mismatch.self_ms, powerflow.assemble_jacobian.self_ms, "
     "converter.solve_state.calls (array kernel)",
     "ops_per_s on flow", "index; watch search for a small-n regression"),
    ("boundary.tune_sources.self_ms (exact-Jacobian tuning)",
     "setup_s on flow", "ops_per_s anywhere"),
    ("gscr.compute_gscr.calls and netmodel.reduce_case.calls per op",
     "ops_per_s on index", "search, flow"),
    ("casefile.load_case.self_ms", "op_p50_ms on index at small n", "search, flow"),
)
UNMEASURED = (
    "ProcessPoolExecutor paths (--jobs > 1 in sweep and validate)",
    "tier-1 test-suite wall time",
    "CLI argument parsing (paid once per process, next to interpreter and numpy import)",
)


def _provenance(np) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridstrength").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _time_import() -> float:
    """Seconds a fresh interpreter takes to import the package, as it measures them.

    Timed in the child: the parent's wait for a child with a timeout polls in
    steps of up to 50 ms, which would quantize the result.
    """
    code = ("import time; t0 = time.perf_counter(); import gridstrength; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


class Calibration:
    """Pure-Python trig loop plus a small LAPACK solve, the mix the ops run.

    Samples are time-stamped; an op or set-up is scaled by the median of the
    CAL_WINDOW samples nearest to it in time, so drift during the run is
    followed rather than averaged.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._A = rng.standard_normal((48, 48)) + 48.0 * np.eye(48)
        self._b = rng.standard_normal(48)
        self._x = [float(v) for v in rng.standard_normal(64)]
        self.at: list[float] = []
        self.took: list[float] = []
        self._credit = 0.0

    def run(self, times: int = 1) -> None:
        xs, solve, A, b = self._x, self._np.linalg.solve, self._A, self._b
        for _ in range(times):
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(12):
                for xi in xs:
                    for xj in xs[::4]:
                        acc += math.sin(xi - xj) * xj - math.cos(xi - xj)
                solve(A, b)
            t1 = time.perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)

    def after_op(self, op_s: float) -> None:
        self._credit += op_s
        runs = int(self._credit / CAL_EVERY_S)
        if runs:
            self._credit -= runs * CAL_EVERY_S
            self.run(runs)

    def recent_scale(self) -> float:
        """Reference-speed seconds per measured second over the latest samples."""
        return CAL_REF_MS / (statistics.median(self.took[-CAL_WINDOW:]) * 1e3)

    def scale_at(self, t: float) -> float:
        """Reference-speed seconds per measured second around time t."""
        i = bisect.bisect(self.at, t)
        near = self.took[max(0, i - CAL_WINDOW // 2): i + CAL_WINDOW // 2]
        return CAL_REF_MS / (statistics.median(near) * 1e3)


class Stats:
    """Op outcomes of one run: time, midpoint and input of every attempted op."""

    def __init__(self):
        self.times: list[float] = []
        self.mids: list[float] = []
        self.labels: list[str | None] = []     # None for an op that raised
        self.correct = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.raised: list[str] = []

    def record(self, workload, item, tracer=None, cal=None) -> None:
        from gridstrength.errors import GridStrengthError

        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(item)
            else:
                with tracer.root("op"):
                    out = workload.op(item)
        except GridStrengthError as exc:
            out = exc
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.mids.append(0.5 * (t0 + t1))
        if cal is not None:
            cal.after_op(t1 - t0)
        if isinstance(out, GridStrengthError):
            self.labels.append(None)
            self.failed += 1
            self.raised.append(f"{type(out).__name__}: {out}")
            return
        self.labels.append(workload.label(item))
        reason = workload.check(item, out)
        if reason is None:
            self.correct += 1
        else:
            self.failed += 1
            self.wrong.append(reason)

    def merge(self, other: "Stats") -> None:
        for name in ("times", "mids", "labels", "wrong", "raised"):
            getattr(self, name).extend(getattr(other, name))
        self.correct += other.correct
        self.failed += other.failed


def _run_pass(workload, items, stats, tracer=None, cal=None) -> float:
    t0 = time.perf_counter()
    for item in items:
        stats.record(workload, item, tracer, cal)
    return time.perf_counter() - t0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _op_metrics(times, labels, correct) -> tuple[dict, dict]:
    """ops_per_s, op_p50_ms and op_tail_ms from op times, plus how they were taken."""
    xs = sorted(times)
    k = max(len(xs) - TAIL_BEYOND, 1)   # highest rank with TAIL_BEYOND samples above it
    by_input: dict[str, list[float]] = {}
    for t, label in zip(times, labels):
        if label is not None:
            by_input.setdefault(label, []).append(t)
    medians = {label: statistics.median(v) for label, v in by_input.items()}
    ok_frac = correct / len(times)
    values = {
        # one pass over the inputs, each at its median op time
        "ops_per_s": ok_frac * len(medians) / sum(medians.values()) if medians else 0.0,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": xs[k - 1] * 1e3,
    }
    detail = {"op_tail_percentile": 100.0 * k / len(xs),
              "op_p50_ms_by_input": {label: v * 1e3 for label, v in medians.items()}}
    return values, detail


def measure(workload, seed: int, seconds: float, workdir: Path, np):
    """Untraced run: SETUP_REPEATS timed set-ups, then whole passes for `seconds`."""
    cal = Calibration(np)
    setups, setup_mids = [], []
    for _ in range(SETUP_REPEATS):
        cal.run(CAL_WINDOW // 2)
        t0 = time.perf_counter()
        import_s = _time_import()
        t1 = time.perf_counter()
        items = workload.setup(np.random.default_rng(seed), workdir)
        t2 = time.perf_counter()
        setups.append({"total_s": import_s + t2 - t1, "import_s": import_s})
        setup_mids.append(0.5 * (t0 + t2))
    cal.run(CAL_WINDOW // 2)
    stats = Stats()
    passes = 0
    ref_s = 0.0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or ref_s < seconds:
        first = len(stats.times)
        _run_pass(workload, items, stats, cal=cal)
        ref_s += sum(stats.times[first:]) * cal.recent_scale()
        passes += 1
    wall_s = time.perf_counter() - t0
    cal.run(CAL_WINDOW // 2)

    raw, _ = _op_metrics(stats.times, stats.labels, stats.correct)
    raw["setup_s"] = statistics.median(r["total_s"] for r in setups)
    scaled, detail = _op_metrics(
        [t * cal.scale_at(m) for t, m in zip(stats.times, stats.mids)], stats.labels,
        stats.correct)
    metrics = {
        "ops_per_s": _metric(scaled["ops_per_s"], "1/s"),
        "op_p50_ms": _metric(scaled["op_p50_ms"], "ms"),
        "op_tail_ms": _metric(scaled["op_tail_ms"], "ms"),
        "ok_frac": _metric(stats.correct / len(stats.times), "fraction"),
        "setup_s": _metric(statistics.median(
            r["total_s"] * cal.scale_at(m) for r, m in zip(setups, setup_mids)), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail.update({
        "passes": passes, "inputs_per_pass": len(items), "samples": len(stats.times),
        "setup_runs": setups, "measured_wall_s": wall_s, "unscaled": raw,
        "calibration": {"ref_ms": CAL_REF_MS, "samples": len(cal.took),
                        "median_ms": statistics.median(cal.took) * 1e3}})
    return metrics, stats, detail


def measure_traced(workload, seed: int, seconds: float, workdir: Path, np, spans_path: Path):
    """Traced run: one traced set-up, then untraced and traced passes in turn."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.root("setup"):
        items = workload.setup(np.random.default_rng(seed), workdir)
    tracer.uninstall()
    stats, plain, traced = Stats(), Stats(), Stats()
    plain_s = traced_s = 0.0
    passes = 0
    t0 = time.perf_counter()
    while True:
        plain_s += _run_pass(workload, items, plain)
        tracer.install()
        traced_s += _run_pass(workload, items, traced, tracer)
        tracer.uninstall()
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    ops = len(traced.times)
    metrics = {name: _metric(v, unit) for name, (v, unit)
               in tracer.layer_metrics(ops=ops, setups=1).items()}
    metrics["trace.overhead_ms"] = _metric((traced_s - plain_s) / ops * 1e3, "ms/op")
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0, "fraction")
    tracer.write(spans_path)
    stats.merge(plain)
    stats.merge(traced)
    detail = {"passes": passes, "inputs_per_pass": len(items), "traced_ops": ops,
              "untraced_wall_s": plain_s, "traced_wall_s": traced_s,
              "spans": len(tracer.name), "spans_file": spans_path.relative_to(ROOT).as_posix()}
    return metrics, stats, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "flow", "index"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridstrength" / "__init__.py").is_file():
        print(f"error: no gridstrength sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy as np

    import gridstrength
    from workloads import WORKLOADS

    if Path(gridstrength.__file__).resolve().parent != SRC / "gridstrength":
        print(f"error: imported gridstrength from {gridstrength.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, stats, detail = measure_traced(workload, args.seed, args.seconds, workdir, np,
                                                OUT_DIR / f"spans-{tag}.tsv.gz")
    else:
        metrics, stats, detail = measure(workload, args.seed, args.seconds, workdir, np)
    result = {"correct": not stats.wrong, "attempted": len(stats.times),
              "failed": stats.failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.why, "inputs": workload.sizes,
        "client": "closed loop, one process, one op at a time",
        **detail,
        "wrong_outputs": stats.wrong[:20], "raised": stats.raised[:20],
        "provenance": _provenance(np),
        "predictions": [{"layer_metric": a, "should_move": b, "should_not_move": c}
                        for a, b, c in PREDICTIONS],
        "unmeasured": list(UNMEASURED),
        "result": result,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    for reason in stats.wrong[:5] + stats.raised[:5]:
        print(f"op failed: {reason}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
