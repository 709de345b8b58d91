"""Seeded random network documents for the `flow` and `index` workloads.

Every document is a connected, purely inductive network in the case-file
schema.  Two properties matter for the workloads:

* `flow` networks give every converter bus exactly one Thevenin link, the
  shape `boundary.tune_sources` requires to pin the rated point at U = 1.
* `index` networks add internal buses (no converter) so that Kron reduction
  has something to eliminate; sources sit on internal and converter buses.

The same `numpy.random.Generator` state always yields the same document.
"""

from __future__ import annotations

CONVERTER_BLOCK = {
    "gamma_deg": 15.0,
    "n_bridges": 2,
    "k_ratio": 0.4196,
    "x_commutation_pu": 0.0528,
    "r_dc_pu": 0.01,
    "b_c_pu": 0.5093,
    "u_ac_kv": 230.0,
}
SYSTEM_BASE_MVA = 990.0


def _tree_and_ties(rng, buses, extra_ties):
    """Random spanning tree over `buses` plus `extra_ties` random chords."""
    branches = []
    for i in range(1, len(buses)):
        j = int(rng.integers(0, i))
        branches.append({"from": buses[i], "to": buses[j],
                         "reactance_pu": float(rng.uniform(0.2, 2.0))})
    for _ in range(extra_ties):
        i, j = rng.choice(len(buses), size=2, replace=False)
        branches.append({"from": buses[int(i)], "to": buses[int(j)],
                         "reactance_pu": float(rng.uniform(0.2, 2.0))})
    return branches


def _converters(rng, buses):
    return [{**CONVERTER_BLOCK, "bus": b, "p_dn_mw": float(rng.uniform(300.0, 1500.0))}
            for b in buses]


def flow_network_doc(rng, n: int, name: str) -> dict:
    """n converter buses, one Thevenin link each, no internal buses."""
    buses = [f"c{i}" for i in range(n)]
    links = [{"bus": b, "reactance_pu": float(rng.uniform(0.3, 1.5)), "emf_pu": 1.0}
             for b in buses]
    return {
        "name": name,
        "system_base_mva": SYSTEM_BASE_MVA,
        "frequency_hz": 60,
        "buses": [{"id": b, "kind": "converter"} for b in buses],
        "branches": _tree_and_ties(rng, buses, int(rng.integers(n // 4, n // 2 + 1))),
        "thevenin_links": links,
        "converters": _converters(rng, buses),
    }


def index_network_doc(rng, n: int, name: str) -> dict:
    """n converter buses plus n // 2 + 1 internal buses, all of which Kron reduction removes.

    Every internal bus carries a source, so the internal block of the
    susceptance matrix is always nonsingular; a random third of the
    converter buses carry one as well.
    """
    conv = [f"c{i}" for i in range(n)]
    internal = [f"x{i}" for i in range(n // 2 + 1)]
    order = list(rng.permutation(conv + internal))
    sourced = internal + [b for b in conv if rng.random() < 1.0 / 3.0]
    links = [{"bus": b, "reactance_pu": float(rng.uniform(0.3, 1.5)), "emf_pu": 1.0}
             for b in sourced]
    kinds = {b: "converter" for b in conv} | {b: "internal" for b in internal}
    return {
        "name": name,
        "system_base_mva": SYSTEM_BASE_MVA,
        "frequency_hz": 60,
        "buses": [{"id": str(b), "kind": kinds[str(b)]} for b in order],
        "branches": _tree_and_ties(rng, [str(b) for b in order],
                                   int(rng.integers(len(order) // 4, len(order) // 2 + 1))),
        "thevenin_links": links,
        "converters": _converters(rng, conv),
    }
