"""Seeded inputs for the four workloads, and the operations run on them.

``make_inputs(name, seed, workdir)`` is the benchmark's set-up: it draws
or writes every input of one workload into ``workdir`` and returns the
operations of one round, the oracle expectations their outputs are
checked against, and a digest of the inputs.  The same seed always gives
the same inputs and the same digest.  The sweep first searches for draws
that meet its block-count quotas (``sweep_draws``); a caller that times
set-up makes that search once, beforehand, and passes its result in.

Operations are closed-loop: one client runs them one after another.
CLI operations call ``glab.cli.main(argv)`` in-process; every call loads
its instance files afresh, so no decomposition cached on a groupoid is
reused.  Library operations (the sweep) rebuild their groupoid from the
recorded random state inside the timed call.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import oracles

WORKLOADS = ("sweep", "lattice", "decompose", "combinatorial")

# Block-count strata of the acceptance sweep (random_groupoid, at most 64
# elements, kept at <= 12 blocks): 1-9 blocks at a quarter of its 200
# instances, 10-12 blocks at about a third.  The 10-12-block instances take
# four fifths of the time; drawing to fixed quotas, with more of them than a
# quarter would give, keeps their share and the spread of their sum about
# the same for every seed.  Draws at 10-12 blocks with one block per orbit
# (unit spaces) are skipped: they verify about twice as slowly as the rest
# of their stratum and turn up in fewer than one round in three.
SWEEP_MAX_SIZE = 64
SWEEP_QUOTAS = {1: 11, 2: 3, 3: 3, 4: 5, 5: 3, 6: 5, 7: 3, 8: 5, 9: 3, 10: 6,
                11: 5, 12: 3}
SWEEP_HEAVY = 10

# lattice: ``glab random --type action --size 12 --group-order 6`` draws
# with 12 blocks (the 2^b ideal walk is what the workload measures), one
# file per (elements, orbits) shape below: groups of order 6, 4 and 2.
# Fixing the shapes keeps each file's cost, and the memory the concurrent
# batch holds, about the same for every seed.
LATTICE_POINTS = 12
LATTICE_BLOCKS = 12
LATTICE_SHAPES = ((72, 5), (48, 6), (24, 8))

# combinatorial: map sizes for ``glab dr`` and component shapes for
# ``glab graph`` (see _graph_payload).
DR_POINTS = (200, 250)
GRAPH_SHAPES = (
    # (complete digraph sizes, ring sizes, tails): 46 vertices, about 16k
    # simple cycles (one K8) and a 128-set lattice
    ((8,), (7, 6, 6, 5, 5, 5), 4),
    # 47 vertices, about 2.5k cycles and a 256-set lattice
    ((7, 5, 4), (6, 6, 5, 5, 5), 4),
)


@dataclass
class Op:
    """One timed operation of a round."""

    name: str
    kind: str                      # "job" (library) or a CLI subcommand
    oracle: Callable[[], dict]     # the expectation its output is checked against
    argv: list = field(default_factory=list)
    state: object = None           # random state of a sweep draw


@dataclass
class Inputs:
    ops: list
    digest: str


def make_inputs(name: str, seed: int, workdir: str, draws=None) -> Inputs:
    """One round's operations on the inputs of ``seed``; ``draws`` is the
    sweep's ``sweep_draws(seed)``, searched for here when not given."""
    os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    if name == "sweep":
        ops = _sweep(draws if draws is not None else sweep_draws(seed), digest)
    else:
        ops = _BUILDERS[name](random.Random(f"{name}:{seed}"), workdir, digest)
    return Inputs(ops, digest.hexdigest())


def _write(workdir: str, filename: str, payload: dict, digest=None) -> str:
    from glab.formats import dump_instance

    text = dump_instance(payload)
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if digest is not None:
        digest.update(filename.encode() + b"\0" + text.encode() + b"\0")
    return path


# -- sweep -----------------------------------------------------------------------


def sweep_draws(seed: int) -> list:
    """(random state, oracle expectation) of each draw kept to the quotas.

    Filling the quotas takes between about 220 and 570 draws, depending on
    the seed.  That search picks inputs of the wanted shapes; it is not
    set-up a user of the program would do, and timed with the set-up it
    would make ``setup_s`` follow the seed more than the program.  So it
    is made once, untimed, and each timed set-up regenerates only the
    kept draws.
    """
    from glab import generators

    rng = random.Random(f"sweep:{seed}")
    need = dict(SWEEP_QUOTAS)
    draws = []
    while any(need.values()):
        state = rng.getstate()
        g = generators.random_groupoid(rng, SWEEP_MAX_SIZE)
        if len(g) > SWEEP_MAX_SIZE:
            continue
        expect = oracles.expected_structure(oracles.tables_from_groupoid(g))
        blocks = len(expect["dims"])
        if not need.get(blocks) or (
                blocks >= SWEEP_HEAVY and len(expect["orbits"]) == blocks):
            continue
        need[blocks] -= 1
        draws.append((state, expect))
    return draws


def _sweep(draws, digest) -> list:
    from glab import generators

    ops = []
    for state, expect in draws:
        rng = random.Random()
        rng.setstate(state)
        g = generators.random_groupoid(rng, SWEEP_MAX_SIZE)
        ops.append(Op(f"draw{len(ops):02d}", "job", partial(dict, expect),
                      state=state))
        digest.update(repr((sorted(map(repr, g.elements)),
                            [(repr(a), repr(b), repr(g.compose(a, b)))
                             for a, b in g.composable_pairs()])).encode())
    return ops


# -- lattice -----------------------------------------------------------------------


def _lattice(rng, workdir, digest) -> list:
    from glab import generators

    batch_dir = os.path.join(workdir, "batch")
    os.makedirs(batch_dir, exist_ok=True)
    paths, expects = [], []
    for i, shape in enumerate(LATTICE_SHAPES):
        while True:
            payload = generators.random_instance(
                rng, "action", LATTICE_POINTS, group_order=6)
            expect = _structure(payload)
            if (len(expect["dims"]) == LATTICE_BLOCKS
                    and (expect["elements"], len(expect["orbits"])) == shape):
                break
        paths.append(_write(batch_dir, f"action{i}.json", payload, digest))
        expects.append(expect)
    by_file = {os.path.basename(p): e for p, e in zip(paths, expects)}
    ops = [Op("batch", "batch", partial(dict, by_file),
              ["verify", "--batch", batch_dir, "--format", "json"])]
    for path, expect in zip(paths, expects):
        ops.append(Op(f"analyze:{os.path.basename(path)}", "analyze",
                      partial(dict, expect), ["analyze", path, "--format", "json"]))
    return ops


# -- decompose -----------------------------------------------------------------------


def _regular_action(group, points) -> dict:
    """The left-regular action of ``group`` on ``points`` (one per element)."""
    from glab.generators import action_payload
    from glab.groups import PartialAction

    name_of = dict(zip(group.elements, points))
    maps = {g: {name_of[h]: name_of[group.mul(g, h)] for h in group.elements}
            for g in group.elements}
    return action_payload(PartialAction(group, list(points), maps), "action")


def _coset_action(group, subgroup, labels) -> dict:
    """``group`` acting on its left cosets of ``subgroup``."""
    from glab.generators import action_payload
    from glab.groups import PartialAction

    cosets, seen = [], set()
    for a in group.elements:
        if a not in seen:
            coset = frozenset(group.mul(a, h) for h in subgroup)
            seen |= coset
            cosets.append(coset)
    name_of = {c: labels[i] for i, c in enumerate(cosets)}
    coset_of = {a: c for c in cosets for a in c}
    maps = {g: {name_of[c]: name_of[coset_of[group.mul(g, next(iter(c)))]]
                for c in cosets}
            for g in group.elements}
    return action_payload(PartialAction(group, [name_of[c] for c in cosets], maps),
                          "action")


def _structure(payload: dict) -> dict:
    return oracles.expected_structure(oracles.tables_from_payload(payload))


def _labels(rng, prefix: str, n: int) -> list:
    labels = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels


def _decompose(rng, workdir, digest) -> list:
    from glab.groups import cyclic_group, dihedral_group, symmetric_group

    s4 = symmetric_group(4)
    involutions = [g for g in s4.elements
                   if g != s4.identity and s4.mul(g, g) == s4.identity]
    order16 = rng.choice([cyclic_group(16), dihedral_group(8)])
    payloads = [
        # pair groupoid on 18 points: |G| = 324, one block
        ("pair.json", {"version": 1, "kind": "pair", "points": _labels(rng, "p", 18)}),
        # regular action of an order-16 group: |G| = 256, one block
        ("regular.json", _regular_action(order16, _labels(rng, "y", 16))),
        # S4 on the cosets of an order-2 subgroup: |G| = 288, two blocks
        ("s4_cosets.json", _coset_action(
            s4, (s4.identity, rng.choice(involutions)), _labels(rng, "c", 12))),
    ]
    ops = []
    for filename, payload in payloads:
        path = _write(workdir, filename, payload, digest)
        ops.append(Op(f"verify:{filename}", "verify", partial(_structure, payload),
                      ["verify", path, "--format", "json"]))
    return ops


# -- combinatorial -------------------------------------------------------------------


def _graph_payload(rng, complete, rings, tails) -> dict:
    """A sink-free graph built from disjoint strongly connected pieces.

    ``complete`` gives the sizes of complete digraphs (many simple cycles,
    every cycle with an exit); ``rings`` the sizes of directed cycles, each
    of which the seed either leaves exit-less or gives one chord (two
    cycles, one exit); ``tails`` extra vertices each get a single edge into
    a random piece.  The shape fixes the lattice size (2^pieces) and the
    cycle count to within a few cycles, so the command costs about the same
    for every seed; the seed picks the labels, the edge order, the chords
    and the tails' targets.
    """
    n = sum(complete) + sum(rings) + tails
    names = _labels(rng, "v", n)
    edges, start = [], 0
    for k in complete:
        members = names[start:start + k]
        edges += [(a, b) for a in members for b in members if a != b]
        start += k
    for k in rings:
        members = names[start:start + k]
        edges += [(members[i], members[(i + 1) % k]) for i in range(k)]
        if rng.random() < 0.5:
            edges.append((members[0], members[2]))
        start += k
    for tail in names[start:]:
        edges.append((tail, rng.choice(names[:start])))
    rng.shuffle(edges)
    return {
        "version": 1,
        "kind": "graph",
        "vertices": sorted(names, key=lambda v: int(v[1:])),
        "edges": [{"id": f"e{i}", "src": a, "dst": b} for i, (a, b) in enumerate(edges)],
    }


def _combinatorial(rng, workdir, digest) -> list:
    from glab import generators

    ops = []
    for n in DR_POINTS:
        payload = generators.random_dynsys(rng, n)
        path = _write(workdir, f"dynsys{n}.json", payload, digest)
        ops.append(Op(f"dr:dynsys{n}", "dr", partial(oracles.expected_dr, payload),
                      ["dr", path, "--format", "json"]))
    for i, shape in enumerate(GRAPH_SHAPES):
        payload = _graph_payload(rng, *shape)
        path = _write(workdir, f"graph{i}.json", payload, digest)
        ops.append(Op(f"graph:graph{i}", "graph", partial(oracles.expected_graph, payload),
                      ["graph", path, "--format", "json"]))
    return ops


_BUILDERS = {
    "lattice": _lattice,
    "decompose": _decompose,
    "combinatorial": _combinatorial,
}


# -- output checks ---------------------------------------------------------------------


def check_output(op: Op, output, expect: dict) -> list:
    """Problems with one operation's output; empty when it agrees."""
    if op.kind == "job":
        return oracles.check_verify_report(output, expect)
    reports = oracles.parse_reports(output)
    if op.kind == "batch":
        by_file = {os.path.basename(r["instance"]["source"]): r for r in reports}
        if sorted(by_file) != sorted(expect) or len(reports) != len(expect):
            return [f"batch reported {sorted(by_file)}"]
        return [f"{name}: {p}" for name, e in expect.items()
                for p in oracles.check_verify_report(by_file[name], e)]
    if len(reports) != 1:
        return [f"{len(reports)} reports instead of one"]
    check = {
        "verify": oracles.check_verify_report,
        "analyze": oracles.check_analyze_report,
        "dr": oracles.check_dr_report,
        "graph": oracles.check_graph_report,
    }[op.kind]
    return check(reports[0], expect)
