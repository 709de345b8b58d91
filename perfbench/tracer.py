"""Spans around gridstrength's public functions, recorded from outside the package.

`Tracer.install()` replaces each function in `LAYER_FUNCTIONS` with a
recording wrapper at *every* binding a `gridstrength.*` module holds:
`from .converter import solve_state` binds the name separately in
`powerflow`, so patching only `converter.solve_state` would miss the calls
the power flow makes.  `uninstall()` puts the originals back.

Spans live in flat in-memory arrays (id = index) with a parent link, so
the spans of one benchmark op share its root span.  Self time is a span's
duration minus the durations of its direct children; the package is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

from gridstrength.powerflow import Diverged

# (module, function, timed): untimed entries report call counts only
LAYER_FUNCTIONS = (
    ("casefile", "load_case", True),
    ("netmodel", "reduce_case", True),
    ("netmodel", "scale_impedance", False),
    ("gscr", "compute_gscr", True),
    ("gscr", "perron_check", False),
    ("converter", "solve_state", True),
    ("converter", "state_derivatives", True),
    ("powerflow", "prepare", True),
    ("powerflow", "mismatch", True),
    ("powerflow", "assemble_jacobian", True),
    ("powerflow", "newton_solve", True),
    ("powerflow", "trace_map", True),
    ("boundary", "tune_sources", True),
    ("boundary", "find_critical_numeric", True),
    ("boundary", "find_boundary_numeric", True),
)
SEARCHES = ("boundary.find_critical_numeric", "boundary.find_boundary_numeric")
# layer functions that run only while a workload sets up; reported per set-up
SETUP_FUNCTIONS = ("boundary.tune_sources",)

OK, RAISED, DIVERGED = 0, 1, 2
ROOT = -1


def _observe_newton(result):
    return (DIVERGED if isinstance(result, Diverged) else OK), 0


def _observe_trace_map(result):
    return OK, len(result.history)


OBSERVERS = {
    "powerflow.newton_solve": _observe_newton,
    "powerflow.trace_map": _observe_trace_map,
}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.status = array("b")
        self.value = array("l")
        self._stack = [ROOT]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.status.append(OK)
        self.value.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, status: int = OK, value: int = 0) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self.status[sid] = status
        self.value[sid] = value

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-side root span ("op" or "setup") around the enclosed calls."""
        sid = self._open(self._name_id(name))
        try:
            yield
        except BaseException:
            self._close(sid, RAISED)
            raise
        self._close(sid)

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        observe = OBSERVERS.get(qualname)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(sid, RAISED)
                raise
            if observe is None:
                close(sid)
            else:
                close(sid, *observe(result))
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gridstrength" or k.startswith("gridstrength."))]
        for module_name, fn_name, _ in LAYER_FUNCTIONS:
            home = importlib.import_module(f"gridstrength.{module_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """All spans as gzip'd TSV: id, parent, name, start_ns, end_ns, status, value."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tstatus\tvalue\n")
            names = self.names
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{names[self.name[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.status[sid]}\t{self.value[sid]}\n")

    def layer_metrics(self, ops: int, setups: int) -> dict[str, tuple[float, str]]:
        """Per-op (per-set-up for SETUP_FUNCTIONS) counts, self times and derived ratios."""
        n = len(self.name)
        name_of = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        root_name = [""] * n
        for sid in range(n):
            p = self.parent[sid]
            if p == ROOT:
                root_name[sid] = name_of[sid]
            else:
                child_ns[p] += dur[sid]
                root_name[sid] = root_name[p]

        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        total_ns: dict[str, int] = {}
        newton_iters = diverged_iters = 0
        solves = diverged_solves = 0
        points = probes = probes_infeasible = 0
        for sid in range(n):
            name = name_of[sid]
            phase = "setup" if name in SETUP_FUNCTIONS else "op"
            if root_name[sid] != phase or self.parent[sid] == ROOT:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur[sid] - child_ns[sid]
            total_ns[name] = total_ns.get(name, 0) + dur[sid]
            parent = self.parent[sid]
            parent_name = name_of[parent] if parent != ROOT else ""
            if name == "powerflow.newton_solve":
                solves += 1
                diverged_solves += self.status[sid] == DIVERGED
            elif name == "powerflow.assemble_jacobian" and parent_name == "powerflow.newton_solve":
                newton_iters += 1
                diverged_iters += self.status[parent] == DIVERGED
            elif name == "powerflow.trace_map":
                points += self.value[sid]
                if parent_name in SEARCHES:
                    probes += 1
                    probes_infeasible += self.status[sid] == RAISED

        out: dict[str, tuple[float, str]] = {}
        for module_name, fn_name, timed in LAYER_FUNCTIONS:
            name = f"{module_name}.{fn_name}"
            per, unit = (setups, "setup") if name in SETUP_FUNCTIONS else (ops, "op")
            out[f"{name}.calls"] = (calls.get(name, 0) / per, f"count/{unit}")
            if timed:
                out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / per, f"ms/{unit}")
        out["boundary.tune_sources.total_ms"] = (
            total_ns.get("boundary.tune_sources", 0) / 1e6 / setups, "ms/setup")
        out["powerflow.newton_iters"] = (newton_iters / ops, "count/op")
        out["powerflow.newton_solve.diverged_frac"] = (
            diverged_solves / solves if solves else 0.0, "fraction")
        out["powerflow.diverged_iter_frac"] = (
            diverged_iters / newton_iters if newton_iters else 0.0, "fraction")
        out["powerflow.trace_map.points"] = (points / ops, "count/op")
        out["boundary.probes"] = (probes / ops, "count/op")
        out["boundary.probes_infeasible"] = (probes_infeasible / ops, "count/op")
        out["trace.spans"] = (sum(r == "op" for r in root_name) / ops, "count/op")
        return out

