"""Machine- and human-readable reports for the command line.

Reports are plain dicts (JSON-ready) with a ``command`` discriminator;
``render_text`` lays them out as stable tables.  The one exception is
the ``ideals`` table of an ``analyze`` report: its 2^b rows are held as
the lattice's mask columns and written out from them, in the bytes
``json.dumps`` would give their dicts.  Every report echoes the seed,
the tolerances, and the package conventions verbatim, and is
deterministic for a fixed input and seed.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from . import ideals as ideal_ops
from .algebra import BlockDecomposition, _bits
from .dynamics import _union
from .formats import Instance
from .groups import PartialAction
from .groupoids import FiniteGroupoid
from .ideals import CONVENTIONS, VerificationReport, _sub_indices

# ``graph``: the cycles listed, the lattice sets listed, and the lattice
# sets whose pairwise meets and joins are checked
_GRAPH_LISTING_CAP = 50
# ``dr``: the largest space whose loci list their members, and the
# invariant sets listed
_DR_LISTING_CAP = 64


def fmt_element(el) -> str:
    if isinstance(el, tuple):
        return "(" + ",".join(fmt_element(x) for x in el) + ")"
    return str(el)


def fmt_set(items) -> list:
    return sorted(fmt_element(el) for el in items)


def _parameters(decomp: BlockDecomposition) -> dict:
    return {
        "seed": decomp.seed,
        "zero_eps": decomp.tol.zero_eps,
        "eig_residual": decomp.tol.eig_residual,
    }


def _instance_header(instance: Instance, source) -> dict:
    return {"source": str(source), "kind": instance.kind}


def freeness_table(action: PartialAction, g: FiniteGroupoid) -> list:
    """Per-point freeness of a partial action against the effectiveness
    of its transformation groupoid ``g`` (the two sides computed separately)."""
    e = action.group.identity
    rows = []
    for x in action.space:
        unit = (x, e, x)
        free = action.is_topologically_free_at(x)
        strong = action.is_strongly_topologically_free_at(x)
        effective = g.is_effective_at(unit)
        jointly = g.is_jointly_effective_at(unit)
        rows.append({
            "point": fmt_element(x),
            "topologically_free": free,
            "strongly_free": strong,
            "effective": effective,
            "jointly_effective": jointly,
            "agree": free == effective and strong == jointly,
        })
    return rows


# One ideal row as ``json.dumps(row, sort_keys=True, indent=2)`` lays it out
# as an item of a top-level list
_JSON_ROW = (
    '    {\n'
    '      "blocks": %s,\n'
    '      "dimension": %d,\n'
    '      "dynamical": %s,\n'
    '      "purely_non_dynamical": %s,\n'
    '      "sandwich": {\n'
    '        "lower": %s,\n'
    '        "upper": %s\n'
    '      },\n'
    '      "triple_quotient_blocks": %s\n'
    '    }'
)
_JSON_BOOL = ("false", "true")
# rows encoded per slice, so that no column is ever a list of 2^b ints
_JSON_SLICE = 1 << 12


def _json_list(lines: list, indent: int) -> str:
    """The ``indent=2`` layout of a list given its item lines, indented
    already, when its opening bracket sits on a line indented by
    ``indent`` spaces."""
    return "[\n" + ",\n".join(lines) + "\n" + " " * indent + "]" if lines else "[]"


class _IdealTable:
    """The ``ideals`` rows of an ``analyze`` report, one per ideal mask m,
    held as the lattice columns indexed by m: the sandwich pair U, V
    (``lower``, ``upper``; orbit masks), the blocks ``over`` V minus U and
    the triple's ``quotient`` (block masks), ``dimension``, ``dynamical``
    and ``pnd``.  ``units`` is the legend: every (formatted unit, orbit
    index), sorted by name.

    Iterating yields the rows as dicts; ``json_rows`` writes them in the
    bytes ``json.dumps(..., sort_keys=True, indent=2)`` gives those dicts
    as the items of the report's top-level ``ideals`` list.
    """

    def __init__(self, decomp: BlockDecomposition):
        masks = np.arange(1 << decomp.block_count, dtype=np.int64)
        self.n_orbits = len(decomp.orbit_masks)
        dynamical_of = decomp.over(np.arange(1 << self.n_orbits, dtype=np.int64))
        self.lower, self.upper = decomp.filled(masks), decomp.touched(masks)
        under = dynamical_of[self.lower]
        self.quotient = masks & ~under
        self.over = dynamical_of[self.upper & ~self.lower]
        self.dimension = np.zeros(len(masks), dtype=np.int64)
        for blk in decomp.blocks:
            self.dimension += (masks >> blk.index & 1) * blk.dimension ** 2
        self.dynamical, self.pnd = under == masks, (masks != 0) & (self.lower == 0)
        g = decomp.groupoid
        self.units = sorted(zip(map(fmt_element, g.unit_list), g._unit_orbits()))

    def __len__(self) -> int:
        return len(self.lower)

    def _columns(self, start: int = 0, stop: int | None = None) -> list:
        return [c[start:stop].tolist() for c in (
            self.lower, self.upper, self.over, self.quotient, self.dimension,
            self.dynamical, self.pnd)]

    def _unit_sets(self, encode) -> dict:
        """Per distinct sandwich set (an orbit mask), its sorted units,
        each passed through ``encode`` once."""
        legend = [(encode(name), o) for name, o in self.units]
        seen = np.zeros(1 << self.n_orbits, dtype=bool)
        seen[self.lower] = seen[self.upper] = True
        return {w: [text for text, o in legend if w >> o & 1]
                for w in np.flatnonzero(seen).tolist()}

    def __iter__(self):
        sets = self._unit_sets(str)
        for m, (lo, up, ov, q, dim, dyn, nd) in enumerate(zip(*self._columns())):
            yield {
                "blocks": _bits(m),
                "dimension": dim,
                "dynamical": dyn,
                "purely_non_dynamical": nd,
                "sandwich": {"lower": sets[lo], "upper": sets[up]},
                "triple_quotient_blocks": _sub_indices(ov, q),
            }

    def json_rows(self):
        """The rows' JSON text, joined by ``",\\n"``, in slices of
        ``_JSON_SLICE`` rows.  A block list is the concatenation of the
        texts of its low b//2 bits and of its high bits (ascending either
        way), a sandwich set is encoded once per orbit mask, and a
        triple's quotient once per (V minus U, quotient) pair."""
        b = len(self).bit_length() - 1
        half = b // 2
        item = ",\n        %d".__mod__
        low = ["".join(map(item, _bits(x))) for x in range(1 << half)]
        high = ["".join(item(half + i) for i in _bits(y)) for y in range(1 << (b - half))]
        low_mask = (1 << half) - 1
        sets = {w: _json_list(lines, 8) for w, lines in
                self._unit_sets(lambda name: " " * 10 + json.dumps(name)).items()}
        quotients = {}
        for start in range(0, len(self), _JSON_SLICE):
            rows = []
            for m, lo, up, ov, q, dim, dyn, nd in zip(
                    range(start, len(self)), *self._columns(start, start + _JSON_SLICE)):
                blocks = low[m & low_mask] + high[m >> half]
                quotient = quotients.get((ov, q))
                if quotient is None:
                    quotient = quotients[ov, q] = _json_list(
                        ["        %d" % i for i in _sub_indices(ov, q)], 6)
                rows.append(_JSON_ROW % (
                    "[\n" + blocks[2:] + "\n      ]" if blocks else "[]", dim,
                    _JSON_BOOL[dyn], _JSON_BOOL[nd], sets[lo], sets[up], quotient))
            yield (",\n" if start else "") + ",\n".join(rows)


def analyze_report(instance: Instance, source, decomp: BlockDecomposition) -> dict:
    g = decomp.groupoid
    report = {
        "command": "analyze",
        "instance": {
            **_instance_header(instance, source),
            "name": g.name,
            "elements": len(g),
            "units": len(g.units),
            "orbits": len(decomp.orbit_masks),
            "block_dimensions": list(decomp.dimensions),
        },
        "parameters": _parameters(decomp),
        "conventions": list(CONVENTIONS),
        "numerics": dict(decomp.numerics),
    }
    table = _IdealTable(decomp)
    obstruction = ideal_ops.obstruction_ideal(decomp).mask
    kernel = ideal_ops.collapse_kernel(decomp).mask
    report["counts"] = {
        "ideals": len(table),
        "dynamical": int(table.dynamical.sum()),
        "purely_non_dynamical": int(table.pnd.sum()),
        "triples": len(table),
    }
    report["ideals"] = table
    held = decomp._held(obstruction)
    report["obstruction_ideal"] = {
        "blocks": _bits(obstruction),
        "noneffective_units": fmt_set(itertools.compress(g.elements, g._pair_slots().isotropy > 1)),
        "support_size": int(held.sum()),
    }
    report["collapse_kernel"] = {
        "blocks": _bits(kernel),
        "purely_non_dynamical": kernel != 0 and decomp.filled(kernel) == 0,
        "support_matches_obstruction": bool((decomp._held(kernel) == held).all()),
    }
    if isinstance(instance.obj, PartialAction):
        report["freeness"] = freeness_table(instance.obj, g)
    return report


def verify_report(instance: Instance, source, result: VerificationReport,
                  theorem: str = "all") -> dict:
    body = result.to_dict()
    body["command"] = "verify"
    body["instance"].update(_instance_header(instance, source))
    body["theorem"] = theorem
    if theorem != "all":
        body["checks"] = [c for c in body["checks"] if c["name"] == theorem]
        body["all_passed"] = all(c["passed"] for c in body["checks"])
    return body


def graph_report(instance: Instance, source) -> dict:
    graph = instance.obj
    count, cycles = graph._cycle_walk(head=_GRAPH_LISTING_CAP)
    exitless = graph.exitless_cycle_vertices()
    lattice = graph._lattice_masks()
    as_set = set(lattice)
    checked = lattice[:_GRAPH_LISTING_CAP]
    shown = [fmt_set(graph._members(m)) for m in checked]
    # the lattice and the joins both come from the cyclic-component reach
    # masks, so each checked set is also tested against the definitions
    law_failures = []
    for a, name in zip(checked, shown):
        if not graph._is_hereditary(a):
            law_failures.append(f"{name} is not hereditary")
        if not graph._is_saturated(a):
            law_failures.append(f"{name} is not saturated")
    reached = [graph._creach_of(m) for m in checked]
    joins = {r: graph._hereditary_saturated(r) in as_set
             for r in {ra | rb for ra in reached for rb in reached}}
    for a, ra, name_a in zip(checked, reached, shown):
        for b, rb, name_b in zip(checked, reached, shown):
            if a & b not in as_set:
                law_failures.append(f"meet of {name_a} and {name_b} escapes")
            if not joins[ra | rb]:
                law_failures.append(f"join of {name_a} and {name_b} escapes")
    return {
        "command": "graph",
        "instance": {
            **_instance_header(instance, source),
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
        },
        "cycles": {
            "count": count,
            "listed": [[fmt_element(graph.edges[k].ident) for k in c] for c in cycles],
            # a cycle has no exit exactly when it is a cycle of the
            # unique-out-edge map
            "with_exit": count - len(graph._exitless_cycles),
            "condition_L": graph.condition_L(),
            "exitless_cycle_vertices": fmt_set(exitless),
        },
        "obstruction_vertex_set": fmt_set(graph.obstruction_vertex_set()),
        "lattice": {
            "size": len(lattice),
            "sets": shown,
            "closure_laws_ok": not law_failures,
            "law_failures": law_failures[:5],
        },
        "conventions": list(CONVENTIONS),
    }


def dr_report(instance: Instance, source) -> dict:
    system = instance.obj
    periodic = system.periodic_points()
    loci = {}
    for p in range(1, len(system.space) + 1):
        locus = system.periodic_locus(p)
        loci[str(p)] = {
            "size": len(locus),
            "members": fmt_set(locus) if len(system.space) <= _DR_LISTING_CAP else None,
        }
    orbit_side, isotropy_side = system._noneffective_sides()
    classes, masks = system._invariant_masks()
    return {
        "command": "dr",
        "instance": {
            **_instance_header(instance, source),
            "points": len(system.space),
        },
        "periodic_loci": loci,
        "periodic_points": {
            "size": len(periodic),
            "members": fmt_set(periodic) if len(system.space) <= _DR_LISTING_CAP else None,
        },
        "noneffective_locus": {
            "orbit_side_size": len(orbit_side),
            "eventually_periodic_size": len(isotropy_side),
            "agree": orbit_side == isotropy_side,
            "note": (
                "the whole space is the expected (degenerate) answer for a "
                "total map on a finite set; the content is the agreement of "
                "the two independently computed sides"
            ),
        },
        "invariant_sets": {
            "size": len(masks),
            "sets": [fmt_set(_union(classes, m)) for m in masks[:_DR_LISTING_CAP]],
        },
        "conventions": list(CONVENTIONS),
    }


# -- text rendering -------------------------------------------------------------


def _kv_lines(title: str, mapping: dict) -> list:
    lines = [f"== {title} =="]
    width = max((len(k) for k in mapping), default=0)
    for k, v in mapping.items():
        lines.append(f"  {k:<{width}}  {v}")
    return lines


def _bool(v) -> str:
    return "yes" if v else "no"


def render_text(report: dict) -> str:
    command = report.get("command", "verify")
    lines = []
    inst = report.get("instance", {})
    lines += _kv_lines("instance", inst)
    if "parameters" in report:
        lines += _kv_lines("parameters", report["parameters"])
    if command == "analyze":
        lines += _kv_lines("counts", report["counts"])
        lines.append("== ideals ==")
        lines.append("  blocks          dim  dyn  pnd  U -> V")
        for row in report["ideals"]:
            blocks = ",".join(map(str, row["blocks"])) or "-"
            sandwich = f"{row['sandwich']['lower']} -> {row['sandwich']['upper']}"
            lines.append(
                f"  {blocks:<14}  {row['dimension']:>3}  {_bool(row['dynamical']):<3}"
                f"  {_bool(row['purely_non_dynamical']):<3}  {sandwich}"
            )
        lines += _kv_lines("obstruction ideal", report["obstruction_ideal"])
        lines += _kv_lines("collapse kernel", report["collapse_kernel"])
        if "freeness" in report:
            lines.append("== freeness (partial action vs groupoid) ==")
            for row in report["freeness"]:
                lines.append(
                    f"  {row['point']:<10} free={_bool(row['topologically_free'])}"
                    f" strong={_bool(row['strongly_free'])}"
                    f" effective={_bool(row['effective'])}"
                    f" jointly={_bool(row['jointly_effective'])}"
                    f" agree={_bool(row['agree'])}"
                )
    elif command == "verify":
        lines += _kv_lines("counts", report["counts"])
        lines.append("== checks ==")
        for c in report["checks"]:
            status = "pass" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']:<12} {status}  {c['details']}")
            for w in c["witnesses"]:
                lines.append(f"      witness: {w}")
        lines.append(f"overall: {'pass' if report['all_passed'] else 'FAIL'}")
    elif command == "graph":
        lines += _kv_lines("cycles", {
            "count": report["cycles"]["count"],
            "with_exit": report["cycles"]["with_exit"],
            "condition_L": _bool(report["cycles"]["condition_L"]),
            "exitless_vertices": report["cycles"]["exitless_cycle_vertices"],
        })
        lines.append(f"obstruction vertex set: {report['obstruction_vertex_set']}")
        lines.append(
            f"saturated hereditary lattice ({report['lattice']['size']} sets, "
            f"closure laws {'ok' if report['lattice']['closure_laws_ok'] else 'FAIL'}):"
        )
        for s in report["lattice"]["sets"]:
            lines.append(f"  {s}")
    elif command == "dr":
        lines.append("== periodic loci ==")
        for p, locus in report["periodic_loci"].items():
            members = locus["members"]
            shown = " ".join(members) if members is not None else "(suppressed)"
            lines.append(f"  P_{p}: size {locus['size']}  {shown}")
        non = report["noneffective_locus"]
        lines += _kv_lines("noneffective locus", {
            "orbit side": non["orbit_side_size"],
            "eventually periodic side": non["eventually_periodic_size"],
            "agree": _bool(non["agree"]),
        })
        lines.append(f"  note: {non['note']}")
        lines.append(f"invariant sets: {report['invariant_sets']['size']}")
        for s in report["invariant_sets"]["sets"]:
            lines.append(f"  {s}")
    if "conventions" in report:
        lines.append("== conventions ==")
        for c in report["conventions"]:
            lines.append(f"  - {c}")
    return "\n".join(lines) + "\n"
