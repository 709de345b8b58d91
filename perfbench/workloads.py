"""The three workloads: inputs from a seed, one op per input, a check per output.

Each workload is a closed-loop client making one library call sequence at
a time.  Library functions are looked up on their `gridstrength` module at
call time, so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import numpy as np

import checks
import netgen
from gridstrength import boundary, casefile, gscr, netmodel, powerflow

# CgSCR / BgSCR of the bundled cases at the commit that introduced this
# benchmark; a search may move them by at most SEARCH_REL_TOL
SEARCH_REFERENCE = {
    "cigre_sidc": (1.99878, 2.99653),
    "dual": (2.00114, 2.99641),
    "triple": (1.99886, 2.99628),
    "quad": (1.99876, 2.99558),
}
SEARCH_REL_TOL = 1e-4
# condition tolerances the searches promise (CRITICAL_TOL, BOUNDARY_TOL_DEG)
CRITICAL_RESIDUAL = 1e-3
BOUNDARY_RESIDUAL_DEG = 0.05

# an odd count of inputs puts the median op inside one input's times
FLOW_SIZES = (16, 20, 24, 28, 32)
FLOW_GSCR = 3.5
FLOW_RESIDUAL = 1e-6

INDEX_SIZES = (4, 8, 16, 24, 32, 48, 64)
INDEX_TARGETS = (1.5, 2.5, 4.0)     # one per strength class
INDEX_REL_TOL = 1e-8


class Search:
    why = ("threshold searches on the bundled cases: bisection on Newton divergence near "
           "the nose, the cost a direct fold solve would remove")
    sizes = "bundled cases n = 1-4, CgSCR and BgSCR each"

    def setup(self, rng, workdir):
        cases = {name: casefile.load_bundled_case(name) for name in SEARCH_REFERENCE}
        for case in cases.values():
            prep = powerflow.prepare(case)
            powerflow.newton_solve(prep, prep.rated_orders)
        items = [(name, kind, case) for name, case in cases.items() for kind in ("CgSCR", "BgSCR")]
        return [items[i] for i in rng.permutation(len(items))]

    def label(self, item):
        return f"{item[0]}/{item[1]}"

    def op(self, item):
        _, kind, case = item
        if kind == "CgSCR":
            return boundary.find_critical_numeric(case)
        return boundary.find_boundary_numeric(case)

    def check(self, item, res):
        name, kind, _ = item
        ref = SEARCH_REFERENCE[name][0 if kind == "CgSCR" else 1]
        tol = CRITICAL_RESIDUAL if kind == "CgSCR" else BOUNDARY_RESIDUAL_DEG
        if res.kind != kind:
            return f"{name}: kind {res.kind} != {kind}"
        if abs(res.value - ref) > SEARCH_REL_TOL * ref:
            return f"{name} {kind}: {res.value:.6g} vs reference {ref}"
        if not res.condition_residual <= tol:
            return f"{name} {kind}: condition residual {res.condition_residual:.3g} > {tol}"
        return None


class Flow:
    why = ("flat-start rated power flow on random networks at n = 16-32: converging Newton "
           "dominated by the per-bus loops an array kernel would replace")
    sizes = f"n = {', '.join(map(str, FLOW_SIZES))} converter buses, scaled to gSCR {FLOW_GSCR}"

    def setup(self, rng, workdir):
        items = []
        for n in FLOW_SIZES:
            name = f"flow-{len(items)}-n{n}"
            case = casefile.case_from_dict(netgen.flow_network_doc(rng, n, name))
            items.append(boundary.scale_to_gscr(case, FLOW_GSCR))
        self.op(items[0])
        return items

    def label(self, case):
        return case.name

    def op(self, case):
        prep = powerflow.prepare(case)
        return powerflow.newton_solve(prep, prep.rated_orders)

    def check(self, case, res):
        if isinstance(res, powerflow.Diverged):
            return f"{case.name}: rated power flow diverged ({res.reason})"
        specs = [case.converter_at(b) for b in case.converter_buses()]
        p_dn = np.array([case.rating_pu(s) for s in specs])
        P = np.array([st.P for st in res.converter_states])
        Q = np.array([st.Q for st in res.converter_states])
        resid = checks.power_balance_residual(case, res.delta, res.U, P * p_dn, Q * p_dn)
        if not resid <= FLOW_RESIDUAL:
            return f"{case.name}: power balance residual {resid:.3g}"
        if not np.max(np.abs(res.U - 1.0)) <= FLOW_RESIDUAL:
            return f"{case.name}: bus voltage off 1 pu by {np.max(np.abs(res.U - 1.0)):.3g}"
        for spec, u, p, q in zip(specs, res.U, P, Q):
            p_ref, q_ref = checks.rated_converter_pq(spec, float(u))
            if not (abs(p - 1.0) <= FLOW_RESIDUAL and abs(p - p_ref) <= 1e-9
                    and abs(q - q_ref) <= 1e-9):
                return f"{case.name} {spec.bus}: converter state P={p:.9g} Q={q:.9g}"
        return None


class Index:
    why = ("strength index and class of case files with internal buses, n = 4-64: parsing, "
           "Kron reduction and eigensolves, no power flow (control workload)")
    sizes = (f"n = {', '.join(map(str, INDEX_SIZES))} converter buses plus n/2 + 1 internal, "
             f"scaled to gSCR {', '.join(map(str, INDEX_TARGETS))} in turn")

    def setup(self, rng, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for k, n in enumerate(INDEX_SIZES):
            case = casefile.case_from_dict(netgen.index_network_doc(rng, n, f"index-{n}"))
            _, g = boundary.case_gscr(case)
            case = netmodel.scale_impedance(case, g / INDEX_TARGETS[k % len(INDEX_TARGETS)])
            path = workdir / f"index-{n}.json"
            casefile.save_case(case, path)
            items.append((path, checks.gscr_nonsymmetric(case)))
        for item in items:
            self.op(item)
        return items

    def label(self, item):
        return item[0].stem

    def op(self, item):
        # the call sequence of the `gscr` CLI subcommand
        case = casefile.load_case(item[0])
        eig, g = boundary.case_gscr(case)
        net = netmodel.reduce_case(case)
        J = gscr.extended_jacobian(
            net.B, [case.rating_pu(case.converter_at(b)) for b in net.bus_order])
        per = gscr.perron_check(J)
        cls = gscr.classify(g)
        return g, eig, per, cls

    def check(self, item, out):
        path, g_ref = item
        g, eig, per, cls = out
        if not abs(g - g_ref) <= INDEX_REL_TOL * abs(g_ref):
            return f"{path.name}: gSCR {g!r} vs nonsymmetric eigensolve {g_ref!r}"
        if not (abs(eig.lambdas[0] - g) <= INDEX_REL_TOL * abs(g)
                and abs(per.lambda1 - g) <= INDEX_REL_TOL * abs(g) and per.positive):
            return f"{path.name}: spectrum report disagrees with gSCR {g!r}"
        if cls.label != checks.strength_label(g_ref):
            return f"{path.name}: label {cls.label} for gSCR {g_ref:.6g}"
        return None


WORKLOADS = {"search": Search(), "flow": Flow(), "index": Index()}

