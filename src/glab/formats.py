"""Versioned JSON instance files.

Every file is a UTF-8 JSON object with a ``kind`` discriminator and a
``version`` field (currently 1).  Payloads hold only strings, integers
and nested objects/arrays, so fixtures stay human-diffable; all algebra
data (complex coefficients) is generated internally and never read from
files.  The schemas are documented in docs/file-formats.md and are part
of the public contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dynamics import DirectedGraph, FiniteDynSystem
from .errors import CapExceededError
from .groups import CayleyGroup, PartialAction
from . import groupoids

SCHEMA_VERSION = 1

KINDS = (
    "groupoid-tables",
    "action",
    "partial-action",
    "group-bundle",
    "pair",
    "graph",
    "dynsys",
)


class InstanceFormatError(ValueError):
    """Parse or schema violation, with position info when available."""

    def __init__(self, message, source=None, line=None, column=None):
        self.source = source
        self.line = line
        self.column = column
        prefix = ""
        if source is not None:
            prefix = f"{source}: "
            if line is not None:
                prefix = f"{source}:{line}:{column}: "
        super().__init__(prefix + message)


@dataclass
class Instance:
    """A parsed instance file: its kind, raw payload, and built object."""

    kind: str
    payload: dict
    obj: object

    def groupoid(self) -> groupoids.FiniteGroupoid:
        """The finite groupoid carried by this instance (groupoid kinds only)."""
        if isinstance(self.obj, groupoids.FiniteGroupoid):
            return self.obj
        if isinstance(self.obj, PartialAction):
            if self.kind == "action":
                return groupoids.from_group_action(self.obj)
            return groupoids.from_partial_action(self.obj)
        raise InstanceFormatError(
            f"kind {self.kind!r} does not define a groupoid; "
            f"use the graph/dynamics commands for it"
        )


def _need(payload: dict, key: str, types, where: str):
    if key not in payload:
        raise InstanceFormatError(f"missing field {key!r} in {where}")
    value = payload[key]
    # bool is an int subclass, so ``True`` would pass for an integer
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in allowed):
        raise InstanceFormatError(
            f"field {key!r} in {where} has type {type(value).__name__}"
        )
    return value


def _identifiers(payload: dict, key: str, where: str) -> list:
    """A list field of unit or point identifiers, which must be scalars."""
    values = _need(payload, key, list, where)
    for value in values:
        if isinstance(value, (list, dict)):
            raise InstanceFormatError(
                f"field {key!r} in {where} holds a non-scalar identifier {value!r}"
            )
    return values


def group_from_dict(payload: dict, where: str = "group") -> CayleyGroup:
    elements = _need(payload, "elements", list, where)
    rows = _need(payload, "table", list, where)
    if len(rows) != len(elements):
        raise InstanceFormatError(
            f"{where}.table has {len(rows)} rows for {len(elements)} elements"
        )
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(elements):
            raise InstanceFormatError(
                f"{where}.table row {i} is not a list of {len(elements)} entries"
            )
    try:
        return CayleyGroup.from_rows(
            elements, rows, name=payload.get("name", "group")
        )
    except Exception as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _action_from_dict(payload: dict, kind: str) -> PartialAction:
    group = group_from_dict(_need(payload, "group", dict, kind))
    space = _need(payload, "space", list, kind)
    raw_maps = _need(payload, "maps", dict, kind)
    unknown = set(raw_maps) - set(group.elements)
    if unknown:
        raise InstanceFormatError(
            f"maps given for non-elements {sorted(unknown)!r}"
        )
    maps = {g: dict(_need(raw_maps, g, dict, f"{kind}.maps"))
            for g in group.elements if g in raw_maps}
    try:
        action = PartialAction(group, space, maps)
    except Exception as exc:
        raise InstanceFormatError(f"{kind}: {exc}") from exc
    if kind == "action" and not action.is_global:
        raise InstanceFormatError("kind 'action' requires totally defined maps")
    return action


def instance_from_dict(payload: dict, source=None) -> Instance:
    """Validate a payload and build the carried object."""
    try:
        if not isinstance(payload, dict):
            raise InstanceFormatError("top level is not a JSON object")
        version = _need(payload, "version", int, "instance")
        if version != SCHEMA_VERSION:
            raise InstanceFormatError(f"unsupported version {version}")
        kind = _need(payload, "kind", str, "instance")
        if kind not in KINDS:
            raise InstanceFormatError(f"unknown kind {kind!r}; expected one of {KINDS}")

        if kind in ("action", "partial-action"):
            obj = _action_from_dict(payload, kind)
        elif kind == "pair":
            points = _identifiers(payload, "points", kind)
            obj = groupoids.pair_groupoid(tuple(points))
        elif kind == "group-bundle":
            units = _identifiers(payload, "units", kind)
            fiber_payloads = _need(payload, "fibers", dict, kind)
            if set(units) != set(fiber_payloads):
                raise InstanceFormatError("fibers do not match the unit list")
            fibers = {
                u: group_from_dict(_need(fiber_payloads, u, dict, "fibers"),
                                   where=f"fibers[{u!r}]")
                for u in units
            }
            obj = groupoids.group_bundle(fibers)
        elif kind == "groupoid-tables":
            elements = _need(payload, "elements", list, kind)
            units = _need(payload, "units", list, kind)
            source_map = _need(payload, "source", dict, kind)
            range_map = _need(payload, "range", dict, kind)
            inverse_map = _need(payload, "inverse", dict, kind)
            compose = _need(payload, "compose", list, kind)
            triples = []
            for i, entry in enumerate(compose):
                if not isinstance(entry, list) or len(entry) != 3:
                    raise InstanceFormatError(f"compose entry {i} is not a triple")
                triples.append(tuple(entry))
            try:
                obj = groupoids.from_tables(
                    elements, units, source_map, range_map, inverse_map, triples
                )
            except Exception as exc:
                raise InstanceFormatError(f"groupoid-tables: {exc}") from exc
        elif kind == "graph":
            vertices = _need(payload, "vertices", list, kind)
            edges = _need(payload, "edges", list, kind)
            for i, e in enumerate(edges):
                if not isinstance(e, dict) or not {"src", "dst"} <= set(e):
                    raise InstanceFormatError(f"edge {i} needs 'src' and 'dst'")
            try:
                obj = DirectedGraph(vertices, edges)
            except Exception as exc:
                raise InstanceFormatError(f"graph: {exc}") from exc
        else:
            space = _need(payload, "space", list, kind)
            mapping = _need(payload, "map", dict, kind)
            try:
                obj = FiniteDynSystem(tuple(space), mapping)
            except Exception as exc:
                raise InstanceFormatError(f"dynsys: {exc}") from exc
        return Instance(kind, payload, obj)
    except InstanceFormatError as exc:
        if source is not None and exc.source is None:
            raise InstanceFormatError(str(exc), source=source) from exc
        raise


def element_count(payload) -> int:
    """The arrows a groupoid payload describes, counted before anything is
    built; other kinds and malformed fields count 0 (left to the parser)."""

    def size(value):
        return len(value) if isinstance(value, (list, dict)) else 0

    try:
        kind = payload.get("kind")
        if kind == "pair":
            return size(payload["points"]) ** 2
        if kind == "groupoid-tables":
            return size(payload["elements"])
        if kind == "group-bundle":
            return sum(size(f["elements"]) for f in payload["fibers"].values())
        if kind in ("action", "partial-action"):
            return sum(size(m) for m in payload["maps"].values())
    except (AttributeError, KeyError, TypeError):
        pass
    return 0


def parse_instance(text: str, source=None, max_elements: int | None = None) -> Instance:
    """Parse and build an instance.  A groupoid payload that describes
    more than ``max_elements`` arrows raises ``CapExceededError``
    before anything is built."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            exc.msg, source=source or "<input>", line=exc.lineno, column=exc.colno
        ) from exc
    count = element_count(payload)
    if max_elements is not None and count > max_elements:
        raise CapExceededError(f"instance has {count} elements (cap {max_elements})")
    return instance_from_dict(payload, source=source)


def load_instance(path, max_elements: int | None = None) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceFormatError(str(exc), source=str(path)) from exc
    return parse_instance(text, source=str(path), max_elements=max_elements)


def dump_instance(payload: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
