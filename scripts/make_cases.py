"""Regenerate the bundled benchmark cases.

Converter parameters follow the CIGRE benchmark in converter-local pu on a
990 MW / 230 kV base.  Tie-line and Thevenin reactances are reconstructions
chosen so the authored index sits near 2 and the multi-infeed angle splits
match the reference tables; the boundary searches rescale impedance anyway,
so results are insensitive to the authored scale.  Source emfs are tuned so
every case solves its rated point at exactly U = 1.

Writes each case to the packaged src/gridstrength/cases/.
"""

import argparse
import os

from gridstrength.boundary import case_gscr, tune_sources
from gridstrength.casefile import case_from_dict, save_case

CONVERTER = {
    "p_dn_mw": 990.0,
    "gamma_deg": 15.0,
    "n_bridges": 2,
    "k_ratio": 0.4196,
    "x_commutation_pu": 0.0528,
    "r_dc_pu": 0.01,
    "b_c_pu": 0.5093,
    "u_ac_kv": 230.0,
}


def _doc(name, comment, thevenin, branches):
    buses = sorted({ln["bus"] for ln in thevenin})
    return {
        "name": name,
        "comment": comment,
        "system_base_mva": 990.0,
        "frequency_hz": 60,
        "buses": [{"id": b, "kind": "converter"} for b in buses],
        "branches": branches,
        "thevenin_links": thevenin,
        "converters": [dict(CONVERTER, bus=b) for b in buses],
    }


def build_docs():
    def lk(bus, x):
        return {"bus": bus, "reactance_pu": x, "emf_pu": 1.0}

    def br(a, b, x):
        return {"from": a, "to": b, "reactance_pu": x}

    return [
        _doc("cigre_sidc", "CIGRE benchmark single-infeed, SCR 2 at rated",
             [lk("inv1", 0.5)], []),
        _doc("dual", "dual infeed, mildly asymmetric Thevenin legs",
             [lk("inv1", 0.52), lk("inv2", 0.48)],
             [br("inv1", "inv2", 0.3)]),
        _doc("triple", "triple infeed, full tie triangle",
             [lk("inv1", 0.51), lk("inv2", 0.495), lk("inv3", 0.495)],
             [br("inv1", "inv2", 1.2), br("inv1", "inv3", 1.2), br("inv2", "inv3", 1.2)]),
        _doc("quad", "quad infeed, tie ring",
             [lk("inv1", 0.50), lk("inv2", 0.50), lk("inv3", 0.505), lk("inv4", 0.495)],
             [br("inv1", "inv2", 1.6), br("inv2", "inv3", 1.6),
              br("inv3", "inv4", 1.6), br("inv4", "inv1", 1.6)]),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    out_dir = os.path.join(args.root, "src", "gridstrength", "cases")
    os.makedirs(out_dir, exist_ok=True)

    for doc in build_docs():
        case = tune_sources(case_from_dict(doc, name=doc["name"]))
        _, g = case_gscr(case)
        emfs = ", ".join(f"{ln.bus}={ln.emf_pu:.6f}" for ln in case.thevenin_links)
        print(f"{doc['name']}: gSCR={g:.4f}  {emfs}")
        save_case(case, os.path.join(out_dir, doc["name"] + ".json"))


if __name__ == "__main__":
    main()
