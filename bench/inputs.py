"""Regenerate every workload's inputs from a seed and print their digests.

    python3 bench/inputs.py --seed 1 [--workload lattice ...]

The files are written to ``bench/out/inputs-seed<seed>/<workload>/`` and
kept.  Two machines or two commits ran the same inputs when they print the
same digests.  The sweep's inputs are random states for
``generators.random_groupoid``; its digest covers the element and
composition tables of the groupoids they draw.
"""

from __future__ import annotations

import argparse

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    run.import_glab()
    for name in args.workload or workloads.WORKLOADS:
        workdir = run.OUT / f"inputs-seed{args.seed}" / name
        inputs = workloads.make_inputs(name, args.seed, str(workdir))
        print(f"{name} seed {args.seed} ops/round {len(inputs.ops)} digest {inputs.digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
