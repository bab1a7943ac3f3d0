"""Deterministic random instance generation.

All generators draw from a caller-supplied ``random.Random`` so that a
fixed (type, size, seed) triple always produces the same instance, byte
for byte after serialization.  Group actions are assembled from
transitive components (cosets of cyclic subgroups, plus fixed points),
partial actions are restrictions of global actions on a larger space,
and graphs are sparse random digraphs with loop enrichment and a
sink-repair pass.
"""

from __future__ import annotations

import random

from .groups import CayleyGroup, PartialAction, cyclic_group, dihedral_group, symmetric_group
from . import groupoids


def _group_families(max_order: int):
    families = []
    for n in range(1, max_order + 1):
        families.append(("cyclic", n, n))
    for n in range(2, max_order // 2 + 1):
        families.append(("dihedral", n, 2 * n))
    fact, n = 1, 1
    while True:
        n += 1
        fact *= n
        if fact > max_order:
            break
        families.append(("symmetric", n, fact))
    return families


def random_group(rng: random.Random, max_order: int = 8) -> CayleyGroup:
    family, n, _ = rng.choice(_group_families(max_order))
    if family == "cyclic":
        return cyclic_group(n)
    if family == "dihedral":
        return dihedral_group(n)
    return symmetric_group(n)


def _cyclic_subgroup(group: CayleyGroup, g):
    members = [group.identity]
    cur = g
    while cur != group.identity:
        members.append(cur)
        cur = group.mul(cur, g)
    return members


def random_global_action(rng: random.Random, group: CayleyGroup, size: int) -> PartialAction:
    """A random action on ``size`` points, glued from transitive pieces.

    Each piece is the coset space of a cyclic subgroup (giving points
    with that stabilizer), with single fixed points filling the rest.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    subgroup_of = {g: _cyclic_subgroup(group, g) for g in group.elements}
    components = []
    remaining = size
    while remaining > 0:
        candidates = [
            g for g in group.elements
            if group.order // len(subgroup_of[g]) <= remaining
        ]
        if candidates:
            g = rng.choice(candidates)
            h_members = set(subgroup_of[g])
        else:
            h_members = set(group.elements)
        cosets = []
        seen = set()
        for a in group.elements:
            if a in seen:
                continue
            coset = frozenset(group.mul(a, h) for h in h_members)
            seen |= coset
            cosets.append(coset)
        components.append(cosets)
        remaining -= len(cosets)
    points = [f"x{i}" for i in range(size)]
    assignment = points[:]
    rng.shuffle(assignment)
    name_of = {}
    k = 0
    for cosets in components:
        for coset in cosets:
            name_of[id(coset)] = assignment[k]
            k += 1
    maps = {g: {} for g in group.elements}
    for cosets in components:
        lookup = {}
        for coset in cosets:
            for a in coset:
                lookup[a] = coset
        for g in group.elements:
            for coset in cosets:
                rep = next(iter(coset))
                target = lookup[group.mul(g, rep)]
                maps[g][name_of[id(coset)]] = name_of[id(target)]
    return PartialAction(group, points, maps)


def random_partial_action(rng: random.Random, group: CayleyGroup, size: int,
                          padding: int | None = None) -> PartialAction:
    """Restriction of a random global action on a padded space to a
    random subset of the requested size (always a valid partial action)."""
    if padding is None:
        padding = rng.randint(1, max(1, size // 2 + 1))
    big = random_global_action(rng, group, size + padding)
    keep = rng.sample(list(big.space), size)
    order = {x: i for i, x in enumerate(big.space)}
    keep.sort(key=lambda x: order[x])
    return big.restricted_to(keep)


def random_groupoid(rng: random.Random, max_size: int = 64) -> groupoids.FiniteGroupoid:
    """A random finite groupoid for sweeps: an action or partial-action
    groupoid, a group bundle, a pair groupoid, or a disjoint union of
    two smaller draws."""
    kind = rng.choices(
        ("action", "partial", "bundle", "pair", "union"),
        weights=(30, 25, 20, 10, 15),
    )[0]
    if kind == "union" and max_size >= 8:
        left = random_groupoid(rng, max_size // 2)
        right = random_groupoid(rng, max_size - max_size // 2)
        return groupoids.disjoint_union([left, right])
    if kind == "pair":
        n = rng.randint(1, max(1, int(max_size ** 0.5)))
        return groupoids.pair_groupoid(tuple(f"x{i}" for i in range(n)))
    if kind == "bundle":
        fibers = {}
        budget = rng.randint(1, max_size)
        i = 0
        while budget > 0:
            group = random_group(rng, min(8, budget))
            fibers[f"u{i}"] = group
            budget -= group.order
            i += 1
        return groupoids.group_bundle(fibers)
    group = random_group(rng, 8)
    size = rng.randint(1, max(1, max_size // group.order))
    if kind == "action":
        return groupoids.from_group_action(random_global_action(rng, group, size))
    action = random_partial_action(rng, group, size)
    return groupoids.from_partial_action(action)


def random_graph(rng: random.Random, n_vertices: int, loops: int | None = None,
                 edge_probability: float | None = None) -> dict:
    """A sink-free random digraph as an instance payload.

    Non-loop edges are sampled independently; ``loops`` extra self-loops
    are then attached to random vertices; finally every sink gets one
    random outgoing edge.
    """
    if n_vertices < 1:
        raise ValueError("graphs need at least one vertex")
    vertices = [f"v{i}" for i in range(n_vertices)]
    if edge_probability is None:
        edge_probability = min(1.0, 1.5 / max(1, n_vertices - 1)) if n_vertices > 1 else 0.0
    if loops is None:
        loops = max(1, n_vertices // 4)
    edges = []
    for src in vertices:
        for dst in vertices:
            if src != dst and rng.random() < edge_probability:
                edges.append((src, dst))
    for _ in range(loops):
        v = rng.choice(vertices)
        edges.append((v, v))
    out_degree = {v: 0 for v in vertices}
    for src, _ in edges:
        out_degree[src] += 1
    for v in vertices:
        if out_degree[v] == 0:
            edges.append((v, rng.choice(vertices)))
    return {
        "version": 1,
        "kind": "graph",
        "vertices": vertices,
        "edges": [
            {"id": f"e{i}", "src": src, "dst": dst} for i, (src, dst) in enumerate(edges)
        ],
    }


def random_dynsys(rng: random.Random, size: int) -> dict:
    if size < 0:
        raise ValueError("size must be nonnegative")
    points = [f"x{i}" for i in range(size)]
    return {
        "version": 1,
        "kind": "dynsys",
        "space": points,
        "map": {x: rng.choice(points) for x in points},
    }


def group_payload(group: CayleyGroup) -> dict:
    els = list(group.elements)
    return {
        "name": group.name,
        "elements": els,
        "table": [[group.mul(a, b) for b in els] for a in els],
    }


def action_payload(action: PartialAction, kind: str) -> dict:
    return {
        "version": 1,
        "kind": kind,
        "group": group_payload(action.group),
        "space": list(action.space),
        "maps": {g: dict(sorted(m.items())) for g, m in action.maps.items()},
    }


def random_instance(rng: random.Random, kind: str, size: int, **options) -> dict:
    """Entry point used by the command line: a JSON-ready payload."""
    if kind == "action":
        group = random_group(rng, options.get("group_order", 8))
        return action_payload(random_global_action(rng, group, size), "action")
    if kind == "partial-action":
        group = random_group(rng, options.get("group_order", 8))
        return action_payload(random_partial_action(rng, group, size), "partial-action")
    if kind == "graph":
        return random_graph(rng, size, loops=options.get("loops"),
                            edge_probability=options.get("edge_probability"))
    if kind == "dynsys":
        return random_dynsys(rng, size)
    raise ValueError(f"no generator for kind {kind!r}")
