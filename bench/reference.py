"""Reference figures at the caps: one-off timings, not benchmark workloads.

    python3 bench/reference.py                 # every case (several minutes)
    python3 bench/reference.py --case verify-12 --case dr-300

Each case builds its input from a fixed seed, runs the command or
library call once and prints ``case seconds detail``.  Cases:

- ``verify-<b>`` for b in 10..14: ``glab verify`` on an action instance
  with exactly b blocks;
- ``verify-24``: a 24-block instance, which decomposes fully before
  ``verify`` exits 3 on the block cap;
- ``wedderburn-pair22``, ``wedderburn-s4x8``, ``wedderburn-s4x16``,
  ``wedderburn-d8x2``: the decomposition alone on ``pair(22)``, S4
  bundles over 8 and 16 units, and D8 acting regularly on two copies of
  itself (32 points);
- ``batch-10``: ``glab verify --batch`` over ten 12-to-14-block lattice
  files, then the same files verified one by one;
- ``dr-<n>`` for n in 300, 400, 1024 and ``graph-<n>`` for n in 40..64:
  ``glab dr`` / ``glab graph`` on ``glab random`` instances.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import shutil
import sys
import time

import oracles
import run
import workloads

SEED = 1
GRAPH_SIZES = (40, 44, 48, 52, 56, 64)


def _cli(argv) -> tuple:
    from glab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - start, f"exit {code}"


def _action_file(workdir, blocks, rng, name) -> str:
    from glab import generators

    while True:
        payload = generators.random_instance(rng, "action", rng.randint(6, 24),
                                             group_order=6)
        expect = oracles.expected_structure(oracles.tables_from_payload(payload))
        if len(expect["dims"]) == blocks:
            return workloads._write(workdir, name, payload)


def _timed(fn) -> tuple:
    start = time.perf_counter()
    detail = fn()
    return time.perf_counter() - start, detail


def cases(workdir) -> dict:
    from glab import generators, groupoids, groups, wedderburn

    def verify(blocks):
        path = _action_file(workdir, blocks, random.Random(SEED), f"b{blocks}.json")
        return _cli(["verify", path, "--format", "json"])

    def decompose(build):
        return _timed(lambda: f"blocks {wedderburn(build()).block_count}")

    def d8x2():
        d8 = groups.dihedral_group(8)
        left = workloads._regular_action(d8, [f"a{i}" for i in range(16)])
        right = workloads._regular_action(d8, [f"b{i}" for i in range(16)])
        left["space"] += right["space"]
        for g in left["maps"]:
            left["maps"][g].update(right["maps"][g])
        from glab.formats import instance_from_dict
        return instance_from_dict(left).groupoid()

    def batch():
        rng = random.Random(SEED)
        batch_dir = os.path.join(workdir, "batch")
        os.makedirs(batch_dir, exist_ok=True)
        paths = [_action_file(batch_dir, 12 + i % 3, rng, f"f{i}.json") for i in range(10)]
        pooled, _ = _cli(["verify", "--batch", batch_dir, "--format", "json"])
        serial = sum(_cli(["verify", p, "--format", "json"])[0] for p in paths)
        return pooled, f"serial {serial:.2f}s ratio {pooled / serial:.2f}"

    def random_file(kind, size):
        rng = random.Random(SEED)
        if kind == "dynsys":
            payload = generators.random_dynsys(rng, size)
        else:
            payload = generators.random_graph(rng, size)
        path = workloads._write(workdir, f"{kind}{size}.json", payload)
        return _cli(["dr" if kind == "dynsys" else "graph", path, "--format", "json"])

    def s4_bundle(units):
        return lambda: groupoids.group_bundle(
            {f"u{i}": groups.symmetric_group(4) for i in range(units)})

    table = {f"verify-{b}": (lambda b=b: verify(b)) for b in range(10, 15)}
    table["verify-24"] = lambda: verify(24)
    table["wedderburn-pair22"] = lambda: decompose(
        lambda: groupoids.pair_groupoid([f"p{i}" for i in range(22)]))
    table["wedderburn-s4x8"] = lambda: decompose(s4_bundle(8))
    table["wedderburn-s4x16"] = lambda: decompose(s4_bundle(16))
    table["wedderburn-d8x2"] = lambda: decompose(d8x2)
    table["batch-10"] = batch
    for n in (300, 400, 1024):
        table[f"dr-{n}"] = lambda n=n: random_file("dynsys", n)
    for n in GRAPH_SIZES:
        table[f"graph-{n}"] = lambda n=n: random_file("graph", n)
    return table


def main(argv=None) -> int:
    run.import_glab()
    workdir = run.OUT / f"reference-{os.getpid()}"
    os.makedirs(workdir, exist_ok=True)
    try:
        table = cases(str(workdir))
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--case", action="append", choices=sorted(table))
        args = parser.parse_args(argv)
        print("machine: " + str(run.machine_record(SEED)))
        for name in args.case or table:
            seconds, detail = table[name]()
            print(f"{name} {seconds:.3f}s {detail}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
