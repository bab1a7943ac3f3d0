"""Independent expectations for every output the benchmark checks.

Nothing here calls glab.  Groupoid instances are read either from their
instance-file payloads or, for the library sweep, from the element
tables of a built groupoid (elements, units, source, range, compose);
everything else is recomputed from first principles:

- orbits by breadth-first search over arrows;
- block dimensions as orbit size times the irreducible degrees of the
  isotropy group, the degrees being the unique multiset of divisors of
  the group order, one per conjugacy class, whose squares sum to it;
- ideal, dynamical, purely non-dynamical and triple counts by per-orbit
  block counting;
- periodic loci of a map from the cycles of its functional graph;
- exit-less cycle vertices by following the unique out-edge of
  out-degree-one vertices, simple cycles by a rooted depth-first count,
  and the saturated hereditary lattice by brute force over unions of
  strongly connected components.

Each ``check_*`` function returns a list of problems; empty means the
output agrees.
"""

from __future__ import annotations

import json
from math import prod

EIG_RESIDUAL_BOUND = 1e-10


def fmt_element(el) -> str:
    """The report's element notation: tuples as ``(a,b,c)``."""
    if isinstance(el, (tuple, list)):
        return "(" + ",".join(fmt_element(x) for x in el) + ")"
    return str(el)


# -- groupoid structure --------------------------------------------------------


class Tables:
    """Units, arrows (source, range) and isotropy multiplication tables."""

    def __init__(self, units, arrows, isotropy):
        self.units = list(units)          # unit labels, in element order
        self.arrows = list(arrows)        # (source, range) per element
        self.isotropy = isotropy          # unit -> multiplication table (index lists)


def _table_from_members(members, mul) -> list:
    index = {m: i for i, m in enumerate(members)}
    return [[index[mul(a, b)] for b in members] for a in members]


def tables_from_groupoid(g) -> Tables:
    """Read a built groupoid's element tables (no glab algorithm is used)."""
    units = [el for el in g.elements if el in g.units]
    arrows = [(g.source(el), g.range(el)) for el in g.elements]
    members = {u: [] for u in units}
    for el in g.elements:
        if g.source(el) == g.range(el):
            members[g.source(el)].append(el)
    isotropy = {u: _table_from_members(members[u], g.compose) for u in units}
    return Tables(units, arrows, isotropy)


def _group(payload: dict):
    elements = payload["elements"]
    index = {e: i for i, e in enumerate(elements)}
    rows = payload["table"]
    return elements, lambda a, b: rows[index[a]][index[b]]


def tables_from_payload(payload: dict) -> Tables:
    """Groupoid tables of an ``action``, ``partial-action`` or ``pair`` file."""
    kind = payload["kind"]
    if kind == "pair":
        points = payload["points"]
        units = [(x, x) for x in points]
        arrows = [((y, y), (x, x)) for x in points for y in points]
        return Tables(units, arrows, {u: [[0]] for u in units})
    if kind not in ("action", "partial-action"):
        raise ValueError(f"no oracle for kind {kind!r}")
    elements, mul = _group(payload["group"])
    identity = next(e for e in elements if all(mul(e, g) == g for g in elements))
    maps = payload["maps"]
    units = [(x, identity, x) for x in payload["space"]]
    arrows = [((y, identity, y), (m[y], identity, m[y]))
              for g in elements for m in [maps.get(g, {})] for y in m]
    isotropy = {}
    for x in payload["space"]:
        stabilizer = [g for g in elements if maps.get(g, {}).get(x) == x]
        isotropy[(x, identity, x)] = _table_from_members(stabilizer, mul)
    return Tables(units, arrows, isotropy)


def bfs_orbits(t: Tables) -> list:
    neighbours = {u: set() for u in t.units}
    for s, r in t.arrows:
        neighbours[s].add(r)
        neighbours[r].add(s)
    seen, orbits = set(), []
    for u in t.units:
        if u in seen:
            continue
        orbit, frontier = set(), [u]
        while frontier:
            x = frontier.pop()
            if x not in orbit:
                orbit.add(x)
                frontier.extend(neighbours[x] - orbit)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def conjugacy_class_count(table) -> int:
    n = len(table)
    e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inverse = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
    return len({frozenset(table[table[j][i]][inverse[j]] for j in range(n))
                for i in range(n)})


def irreducible_degrees(order: int, n_classes: int) -> list:
    """The unique multiset of ``n_classes`` divisors of ``order`` whose
    squares sum to ``order``; raises when it is not unique."""
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    solutions = set()

    def search(remaining, count, smallest, chosen):
        if count == 0:
            if remaining == 0:
                solutions.add(tuple(chosen))
            return
        for d in divisors:
            if d >= smallest and d * d <= remaining:
                search(remaining - d * d, count - 1, d, chosen + [d])

    search(order, n_classes, 1, [])
    if len(solutions) != 1:
        raise ValueError(f"degrees not unique for order {order}, {n_classes} classes")
    return list(solutions.pop())


def expected_structure(t: Tables) -> dict:
    """Orbits, sorted block dimensions and the four lattice counts."""
    orbits = bfs_orbits(t)
    dims, per_orbit = [], []
    for orbit in orbits:
        table = t.isotropy[min(orbit, key=t.units.index)]
        degrees = irreducible_degrees(len(table), conjugacy_class_count(table))
        dims.extend(len(orbit) * d for d in degrees)
        per_orbit.append(len(degrees))
    ideals = 2 ** sum(per_orbit)
    return {
        "orbits": orbits,
        "elements": len(t.arrows),
        "dims": sorted(dims),
        "counts": {
            "ideals": ideals,
            "dynamical": 2 ** len(orbits),
            "purely_non_dynamical": max(prod(2 ** k - 1 for k in per_orbit) - 1, 0),
            "triples": ideals,
        },
    }


# -- groupoid reports ------------------------------------------------------------


def _check_instance(report: dict, expect: dict) -> list:
    problems = []
    inst = report["instance"]
    if inst["elements"] != expect["elements"]:
        problems.append(f"elements {inst['elements']} != {expect['elements']}")
    if inst["orbits"] != len(expect["orbits"]):
        problems.append(f"orbits {inst['orbits']} != {len(expect['orbits'])}")
    if sorted(inst["block_dimensions"]) != expect["dims"]:
        problems.append(f"block dimensions {inst['block_dimensions']} != {expect['dims']}")
    if report["counts"] != expect["counts"]:
        problems.append(f"counts {report['counts']} != {expect['counts']}")
    residual = report["numerics"]["eig_residual"]
    if not residual <= EIG_RESIDUAL_BOUND:
        problems.append(f"eig_residual {residual} above {EIG_RESIDUAL_BOUND}")
    return problems


def check_verify_report(report: dict, expect: dict) -> list:
    """A ``verify`` report (CLI JSON or ``VerificationReport.to_dict()``)."""
    problems = _check_instance(report, expect)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["all_passed"]:
        problems.append(f"checks failed: {failed}")
    if len(report["checks"]) != 6:
        problems.append(f"{len(report['checks'])} checks instead of 6")
    return problems


def check_analyze_report(report: dict, expect: dict) -> list:
    problems = _check_instance(report, expect)
    rows = report["ideals"]
    if len(rows) != expect["counts"]["ideals"]:
        problems.append(f"{len(rows)} ideal rows for 2^b = {expect['counts']['ideals']}")
    dynamical = sum(1 for r in rows if r["dynamical"])
    if dynamical != 2 ** len(expect["orbits"]):
        problems.append(f"{dynamical} dynamical rows for {len(expect['orbits'])} orbits")
    orbit_names = [frozenset(fmt_element(u) for u in orbit) for orbit in expect["orbits"]]
    dims = report["instance"]["block_dimensions"]
    for r in rows:
        lower = frozenset(r["sandwich"]["lower"])
        upper = frozenset(r["sandwich"]["upper"])
        where = f"row {r['blocks']}"
        if not lower <= upper:
            problems.append(f"{where}: lower not inside upper")
        for side in (lower, upper):
            if side != frozenset().union(*(o for o in orbit_names if o <= side)):
                problems.append(f"{where}: sandwich set is not a union of orbits")
        # I_U <= I <= I_V is tight exactly for the dynamical ideals, and an
        # ideal misses the diagonal exactly when U is empty
        if r["dynamical"] != (lower == upper):
            problems.append(f"{where}: dynamical flag disagrees with its sandwich pair")
        if r["purely_non_dynamical"] != (bool(r["blocks"]) and not lower):
            problems.append(f"{where}: purely non-dynamical flag disagrees with U")
        if r["dimension"] != sum(dims[i] ** 2 for i in r["blocks"]):
            problems.append(f"{where}: dimension is not the sum of its block sizes")
        if len(problems) > 5:
            break
    return problems


def parse_reports(text: str) -> list:
    """The JSON objects printed one after another by ``--format json``."""
    decoder, out, pos = json.JSONDecoder(), [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        obj, pos = decoder.raw_decode(text, pos)
        out.append(obj)


# -- finite dynamical systems ----------------------------------------------------


def expected_dr(payload: dict) -> dict:
    space, f = payload["space"], payload["map"]
    cycle_lengths, on_cycle, state = [], set(), {}
    for x in space:
        path = []
        while x not in state:
            state[x] = "open"
            path.append(x)
            x = f[x]
        if state[x] == "open":
            cycle = path[path.index(x):]
            cycle_lengths.append(len(cycle))
            on_cycle.update(cycle)
        for y in path:
            state[y] = "done"
    parent = {x: x for x in space}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in space:
        parent[find(x)] = find(f[x])
    components = len({find(x) for x in space})
    n = len(space)
    return {
        "points": n,
        "periodic": len(on_cycle),
        "loci": {str(p): sum(c for c in cycle_lengths if p % c == 0)
                 for p in range(1, n + 1)},
        "invariant_sets": 2 ** components,
    }


def check_dr_report(report: dict, expect: dict) -> list:
    problems = []
    sizes = {p: locus["size"] for p, locus in report["periodic_loci"].items()}
    if sizes != expect["loci"]:
        bad = [p for p in expect["loci"] if sizes.get(p) != expect["loci"][p]]
        problems.append(f"periodic locus sizes differ at p = {bad[:5]}")
    if report["periodic_points"]["size"] != expect["periodic"]:
        problems.append("periodic point count differs")
    non = report["noneffective_locus"]
    if not (non["orbit_side_size"] == non["eventually_periodic_size"]
            == expect["points"] and non["agree"]):
        problems.append("non-effective locus is not the whole space")
    if report["invariant_sets"]["size"] != expect["invariant_sets"]:
        problems.append(f"invariant sets {report['invariant_sets']['size']} "
                        f"!= {expect['invariant_sets']}")
    return problems


# -- directed graphs ---------------------------------------------------------------


def expected_graph(payload: dict) -> dict:
    vertices = payload["vertices"]
    succ = {v: [] for v in vertices}
    for e in payload["edges"]:
        succ[e["src"]].append(e["dst"])

    # exit-less cycle vertices: cycles inside the out-degree-one part
    unique = {v: s[0] for v, s in succ.items() if len(s) == 1}
    exitless = set()
    for v in unique:
        walk = []
        while v in unique and v not in walk:
            walk.append(v)
            v = unique[v]
        if v in walk:
            exitless.update(walk[walk.index(v):])

    # simple cycles counted once each, rooted at their least vertex
    order = {v: i for i, v in enumerate(vertices)}
    multi = {v: {} for v in vertices}
    for v in vertices:
        for w in succ[v]:
            multi[v][w] = multi[v].get(w, 0) + 1
    cycles = 0
    for root in vertices:
        stack = [(root, 1, {root})]
        while stack:
            v, ways, on_path = stack.pop()
            for w, k in multi[v].items():
                if w == root:
                    cycles += ways * k
                elif order[w] > order[root] and w not in on_path:
                    stack.append((w, ways * k, on_path | {w}))

    # saturated hereditary sets: unions of strongly connected components
    # closed under successors, filtered by saturation
    comps = _sccs(vertices, succ)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    below = [0] * len(comps)
    for v in vertices:
        for w in succ[v]:
            if comp_of[w] != comp_of[v]:
                below[comp_of[v]] |= 1 << comp_of[w]
    lattice = 0
    for mask in range(1 << len(comps)):
        if any(mask >> i & 1 and below[i] & ~mask for i in range(len(comps))):
            continue
        members = {v for i, c in enumerate(comps) if mask >> i & 1 for v in c}
        if all(v in members or not all(w in members for w in succ[v]) for v in vertices):
            lattice += 1
    return {
        "exitless": sorted(exitless),
        "obstruction": sorted(_saturated_hereditary(exitless, vertices, succ)),
        "cycles": cycles,
        "lattice": lattice,
    }


def _sccs(vertices, succ) -> list:
    """Strongly connected components by forward/backward reachability."""
    pred = {v: [] for v in vertices}
    for v in vertices:
        for w in succ[v]:
            pred[w].append(v)

    def reach(v, adj):
        seen, frontier = {v}, [v]
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    comps, assigned = [], set()
    for v in vertices:
        if v not in assigned:
            comp = reach(v, succ) & reach(v, pred)
            assigned |= comp
            comps.append(comp)
    return comps


def _saturated_hereditary(start, vertices, succ) -> set:
    members = set(start)
    changed = True
    while changed:
        changed = False
        for v in vertices:
            inside = v in members
            if inside and any(w not in members for w in succ[v]):
                members.update(succ[v])
                changed = True
            elif not inside and succ[v] and all(w in members for w in succ[v]):
                members.add(v)
                changed = True
    return members


def check_graph_report(report: dict, expect: dict) -> list:
    problems = []
    cyc = report["cycles"]
    if sorted(cyc["exitless_cycle_vertices"]) != expect["exitless"]:
        problems.append("exit-less cycle vertices differ")
    if cyc["condition_L"] != (not expect["exitless"]):
        problems.append("condition (L) verdict differs")
    if sorted(report["obstruction_vertex_set"]) != expect["obstruction"]:
        problems.append("obstruction vertex set differs")
    if cyc["count"] != expect["cycles"]:
        problems.append(f"{cyc['count']} simple cycles != {expect['cycles']}")
    if report["lattice"]["size"] != expect["lattice"]:
        problems.append(f"lattice size {report['lattice']['size']} != {expect['lattice']}")
    if not report["lattice"]["closure_laws_ok"]:
        problems.append("closure laws fail")
    return problems
