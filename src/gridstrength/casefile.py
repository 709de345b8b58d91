"""Case file schema: parsing, validation and per-unit bookkeeping.

A case is a JSON document with top-level keys ``system_base_mva``,
``frequency_hz``, ``buses``, ``branches``, ``thevenin_links`` and
``converters``.  All reactances are pu on the system base; converter
blocks declare their own voltage/power base and are converted at load
time.  The ground node is implicit: Thevenin links connect buses to it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import CaseFormatError

CASE_DIR_ENV = "GRIDSTRENGTH_CASE_DIR"

# extinction-angle defaults by nominal frequency, degrees
_GAMMA_DEFAULT_DEG = {50.0: 18.0, 60.0: 15.0}


class Bus(NamedTuple):
    id: str
    kind: str  # "converter" | "internal"


class Branch(NamedTuple):
    from_bus: str
    to_bus: str
    reactance_pu: float


class TheveninLink(NamedTuple):
    bus: str
    reactance_pu: float
    emf_pu: float


class ConverterSpec(NamedTuple):
    """Raw converter block as written in the case file.

    Quantities are pu on the converter's own base (``p_dn_mw``,
    ``u_ac_kv``); :func:`gridstrength.converter.LccParams.from_spec`
    performs the conversion to system base.
    """

    bus: str
    p_dn_mw: float
    gamma_deg: float
    n_bridges: int
    k_ratio: float
    x_commutation_pu: float
    r_dc_pu: float
    b_c_pu: float
    u_ac_kv: float
    control: str = "cp-cea"

    @property
    def base_impedance_ohm(self) -> float:
        return self.u_ac_kv**2 / self.p_dn_mw


@dataclass(frozen=True)
class CaseFile:
    system_base_mva: float
    frequency_hz: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    thevenin_links: tuple[TheveninLink, ...]
    converters: tuple[ConverterSpec, ...]
    name: str = ""
    comment: str = ""

    def converter_buses(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses if b.kind == "converter")

    @cached_property
    def _converter_by_bus(self) -> dict[str, ConverterSpec]:
        # built on first use; replace() makes a new instance, so never stale.
        # Reversed so that, as in a scan, the first block of a bus wins.
        return {c.bus: c for c in reversed(self.converters)}

    def converter_at(self, bus: str) -> ConverterSpec:
        return self._converter_by_bus[bus]

    def rating_pu(self, spec: ConverterSpec) -> float:
        """Converter rated power on the system base."""
        return spec.p_dn_mw / self.system_base_mva


def _get(obj: dict, key: str, where: str, kind=None):
    if key not in obj:
        raise CaseFormatError(f"{where}: missing key '{key}'")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise CaseFormatError(f"{where}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _number(obj: dict, key: str, where: str) -> float:
    val = _get(obj, key, where)
    try:
        return float(val)
    except (TypeError, ValueError):
        raise CaseFormatError(f"{where}: '{key}' is not a number: {val!r}") from None
    except OverflowError:   # an integer beyond the float range
        raise CaseFormatError(f"{where}: '{key}' is outside the float range") from None


def _positive(x: float, where: str) -> float:
    if not math.isfinite(x) or x <= 0:
        raise CaseFormatError(f"{where}: must be a positive finite number, got {x!r}")
    return x


def _nonnegative(x: float, where: str) -> float:
    if not math.isfinite(x) or x < 0:
        raise CaseFormatError(f"{where}: must be a finite number >= 0, got {x!r}")
    return x


# Validation tests each record with one cheap condition; only a record that
# fails it goes through the checks below, which name the first violation.

def _branch_fault(i: int, br: Branch, known) -> None:
    where = f"branches[{i}]"
    for end in (br.from_bus, br.to_bus):
        if end not in known:
            raise CaseFormatError(f"{where}: unknown bus '{end}'")
    if br.from_bus == br.to_bus:
        raise CaseFormatError(f"{where}: self-loop at '{br.from_bus}'")
    _positive(br.reactance_pu, f"{where}.reactance_pu")
    _positive(1.0 / br.reactance_pu, f"{where}.reactance_pu: 1/reactance_pu")


def _link_fault(i: int, ln: TheveninLink, known) -> None:
    where = f"thevenin_links[{i}]"
    if ln.bus not in known:
        raise CaseFormatError(f"{where}: unknown bus '{ln.bus}'")
    _positive(ln.reactance_pu, f"{where}.reactance_pu")
    _positive(ln.emf_pu, f"{where}.emf_pu")
    _positive(1.0 / ln.reactance_pu, f"{where}.reactance_pu: 1/reactance_pu")
    _positive(ln.emf_pu / ln.reactance_pu, f"{where}.emf_pu: emf_pu/reactance_pu")


def _converter_fault(c: ConverterSpec, base_mva: float) -> None:
    where = f"converter at {c.bus}"
    if c.control != "cp-cea":
        raise CaseFormatError(f"{where}: unsupported control mode '{c.control}' (only cp-cea)")
    _positive(c.p_dn_mw, f"{where}.p_dn_mw")
    _positive(c.p_dn_mw / base_mva, f"{where}.p_dn_mw: p_dn_mw/system_base_mva")
    _positive(c.u_ac_kv, f"{where}.u_ac_kv")
    _positive(c.k_ratio, f"{where}.k_ratio")
    _positive(c.x_commutation_pu, f"{where}.x_commutation_pu")
    _nonnegative(c.r_dc_pu, f"{where}.r_dc_pu")
    _nonnegative(c.b_c_pu, f"{where}.b_c_pu")
    if c.n_bridges < 1:
        raise CaseFormatError(f"{where}.n_bridges: must be >= 1")
    if not 0.0 < c.gamma_deg < 90.0:
        raise CaseFormatError(f"{where}.gamma_deg: must lie in (0, 90)")


def validate_case(case: CaseFile) -> CaseFile:
    """Check every schema invariant; raises CaseFormatError naming the first violation."""
    ids = [b.id for b in case.buses]
    known = set(ids)
    if len(known) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise CaseFormatError(f"buses: duplicate id '{dup}'")
    for b in case.buses:
        if b.kind not in ("converter", "internal"):
            raise CaseFormatError(f"bus {b.id}: unknown kind '{b.kind}'")
    _positive(case.system_base_mva, "system_base_mva")
    _positive(case.frequency_hz, "frequency_hz")
    if not case.thevenin_links:
        raise CaseFormatError("thevenin_links: at least one link is required")

    # 0 < x < inf is false for nan, inf and x <= 0 alike; a positive finite
    # input can still overflow in per unit (1/x, E/x, P/S), tested likewise
    inf, base = math.inf, case.system_base_mva
    for i, (fr, to, x) in enumerate(case.branches):
        if not (fr in known and to in known and fr != to and 0.0 < x < inf and 1.0 / x < inf):
            _branch_fault(i, case.branches[i], known)
    for i, (at, x, emf) in enumerate(case.thevenin_links):
        if not (at in known and 0.0 < x < inf and 0.0 < emf < inf
                and 1.0 / x < inf and 0.0 < emf / x < inf):
            _link_fault(i, case.thevenin_links[i], known)

    conv_buses = [c.bus for c in case.converters]
    if len(conv_buses) != len(set(conv_buses)):
        dup = next(b for b in conv_buses if conv_buses.count(b) > 1)
        raise CaseFormatError(f"converters: duplicate converter at bus '{dup}'")
    declared = {b.id for b in case.buses if b.kind == "converter"}
    if set(conv_buses) != declared:
        missing = declared - set(conv_buses)
        extra = set(conv_buses) - declared
        if missing:
            raise CaseFormatError(f"converters: converter bus '{sorted(missing)[0]}' has no converter block")
        raise CaseFormatError(f"converters: bus '{sorted(extra)[0]}' is not declared kind=converter")
    if not conv_buses:
        raise CaseFormatError("converters: at least one converter is required")
    for i, (_, p, gamma, n, k, x_c, r_dc, b_c, u_ac, control) in enumerate(case.converters):
        if not (control == "cp-cea" and 0.0 < p < inf and 0.0 < p / base < inf and 0.0 < u_ac < inf
                and 0.0 < k < inf and 0.0 < x_c < inf and 0.0 <= r_dc < inf and 0.0 <= b_c < inf
                and n >= 1 and 0.0 < gamma < 90.0):
            _converter_fault(case.converters[i], base)

    # connectivity to the implicit ground: search from every bus with a link
    adjacent = {b: [] for b in ids}
    for fr, to, _ in case.branches:
        adjacent[fr].append(to)
        adjacent[to].append(fr)
    reached = {ln.bus for ln in case.thevenin_links}
    stack = list(reached)
    while stack:
        for b in adjacent[stack.pop()]:
            if b not in reached:
                reached.add(b)
                stack.append(b)
    if len(reached) < len(ids):
        b = next(b for b in ids if b not in reached)
        raise CaseFormatError(f"network: bus '{b}' is not connected to any source")
    return case


# Parsing reads each section in one comprehension of direct dict access.  A
# malformed item makes that raise one of _MALFORMED; the section is then read
# again item by item with the checks below, which name the item and field at
# fault.  Records are built as their NamedTuple's own __new__ builds them, by
# tuple.__new__ on the fields in order, which leaves no Python call per item.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)
_CONVERTER_NUMBERS = ("p_dn_mw", "k_ratio", "x_commutation_pu", "r_dc_pu", "b_c_pu", "u_ac_kv")
_new = tuple.__new__


def _check_fields(obj, where: str, text: tuple[str, ...], numbers: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise CaseFormatError(f"{where}: expected object")
    for key in text:
        _get(obj, key, where)
    for key in numbers:
        _number(obj, key, where)


def _check_converter(obj, where: str, frequency_hz: float) -> None:
    _check_fields(obj, where, ())
    if obj.get("gamma_deg") is None:
        if frequency_hz not in _GAMMA_DEFAULT_DEG:
            raise CaseFormatError(
                f"{where}: gamma_deg omitted and no default exists for {frequency_hz} Hz "
                "(defaults cover 50 and 60 Hz)"
            )
    else:
        _number(obj, "gamma_deg", where)
    n_bridges = _number(obj, "n_bridges", where)
    if not n_bridges.is_integer():
        raise CaseFormatError(f"{where}: 'n_bridges' must be a whole number, got {n_bridges!r}")
    _check_fields(obj, where, ("bus",), _CONVERTER_NUMBERS)


def _section(items, name: str, parse, check) -> tuple:
    try:
        return parse(items)
    except _MALFORMED:
        for i, obj in enumerate(items):
            check(obj, f"{name}[{i}]")
        raise


def _converters(items, frequency_hz: float) -> tuple:
    n_bridges = [float(c["n_bridges"]) for c in items]
    if not all(map(float.is_integer, n_bridges)):
        raise ValueError(n_bridges)
    return tuple([_new(ConverterSpec, (
        str(c["bus"]), float(c["p_dn_mw"]),
        _GAMMA_DEFAULT_DEG[frequency_hz] if (gamma := c.get("gamma_deg")) is None else float(gamma),
        int(n), float(c["k_ratio"]), float(c["x_commutation_pu"]),
        float(c["r_dc_pu"]), float(c["b_c_pu"]), float(c["u_ac_kv"]), str(c.get("control", "cp-cea")),
    )) for c, n in zip(items, n_bridges)])


def case_from_dict(doc: dict, name: str = "") -> CaseFile:
    if not isinstance(doc, dict):
        raise CaseFormatError("top level: expected object")
    buses = _section(
        _get(doc, "buses", "top level", list), "buses",
        lambda items: tuple([_new(Bus, (str(b["id"]), str(b.get("kind", "converter"))))
                             for b in items]),
        lambda b, where: _check_fields(b, where, ("id",)))
    branches = _section(
        _get(doc, "branches", "top level", list) if "branches" in doc else [], "branches",
        lambda items: tuple([_new(Branch, (str(br["from"]), str(br["to"]), float(br["reactance_pu"])))
                             for br in items]),
        lambda br, where: _check_fields(br, where, ("from", "to"), ("reactance_pu",)))
    links = _section(
        _get(doc, "thevenin_links", "top level", list), "thevenin_links",
        lambda items: tuple([_new(TheveninLink, (str(ln["bus"]), float(ln["reactance_pu"]),
                                                 float(ln["emf_pu"]))) for ln in items]),
        lambda ln, where: _check_fields(ln, where, ("bus",), ("reactance_pu", "emf_pu")))
    frequency = _number(doc, "frequency_hz", "top level")
    converters = _section(
        _get(doc, "converters", "top level", list), "converters",
        lambda items: _converters(items, frequency),
        lambda c, where: _check_converter(c, where, frequency))
    case = CaseFile(
        system_base_mva=_number(doc, "system_base_mva", "top level"),
        frequency_hz=frequency,
        buses=buses,
        branches=branches,
        thevenin_links=links,
        converters=converters,
        name=name or str(doc.get("name", "")),
        comment=str(doc.get("comment", "")),
    )
    return validate_case(case)


def case_to_dict(case: CaseFile) -> dict:
    doc: dict = {}
    if case.name:
        doc["name"] = case.name
    if case.comment:
        doc["comment"] = case.comment
    doc["system_base_mva"] = case.system_base_mva
    doc["frequency_hz"] = case.frequency_hz
    doc["buses"] = [b._asdict() for b in case.buses]
    doc["branches"] = [
        {"from": br.from_bus, "to": br.to_bus, "reactance_pu": br.reactance_pu}
        for br in case.branches
    ]
    doc["thevenin_links"] = [ln._asdict() for ln in case.thevenin_links]
    doc["converters"] = [c._asdict() for c in case.converters]
    return doc


def load_case(path: str | Path) -> CaseFile:
    """Load and validate a case file; CaseFormatError carries the location."""
    p = path if isinstance(path, Path) else Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CaseFormatError(f"cannot read case file {p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CaseFormatError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:   # an integer literal beyond Python's digit limit
        raise CaseFormatError(f"{p}: a number has too many digits to read") from exc
    except RecursionError as exc:
        raise CaseFormatError(f"{p}: arrays or objects nest too deeply to read") from exc
    try:
        return case_from_dict(doc, name=p.stem)
    except CaseFormatError as exc:
        raise CaseFormatError(f"{p}: {exc}") from exc


def save_case(case: CaseFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=2) + "\n")


def bundled_case_dir() -> Path:
    """Directory the named cases are loaded from; env override wins."""
    override = os.environ.get(CASE_DIR_ENV)
    if override:
        return Path(override)
    return Path(resources.files("gridstrength") / "cases")


def load_bundled_case(name: str) -> CaseFile:
    if not name.endswith(".json"):
        name = name + ".json"
    path = bundled_case_dir() / name
    if not path.is_file():
        raise CaseFormatError(f"no bundled case named {name!r} in {bundled_case_dir()}")
    return load_case(path)


def with_rating(case: CaseFile, bus: str, p_dn_mw: float) -> CaseFile:
    """Copy of the case with one converter's rating replaced."""
    if not any(c.bus == bus for c in case.converters):
        raise KeyError(bus)
    convs = tuple(
        c._replace(p_dn_mw=p_dn_mw) if c.bus == bus else c for c in case.converters
    )
    return replace(case, converters=convs)
