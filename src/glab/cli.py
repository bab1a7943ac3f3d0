"""Command-line front door.

Subcommands: ``analyze`` (full ideal inventory of a groupoid instance),
``verify`` (theorem suite with exit code 1 on any failure), ``random``
(deterministic instance generation), ``graph`` and ``dr`` (the
combinatorial layer).  Exit codes: 0 success / all pass, 1 theorem
failure, 2 input error, 3 cap exceeded, 4 internal error (a bug in
glab, reported as ``error: internal error: ...`` on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass

from . import generators, reports
from .algebra import DEFAULT_SEED, MAX_BLOCKS
from .errors import CapExceededError, check_cap
from .formats import InstanceFormatError, dump_instance, load_instance
from .ideals import _decomposition_of, verify as run_verify
from .linalg import TolerancePolicy

EXIT_OK = 0
EXIT_THEOREM = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

THEOREMS = ("sandwich", "bijection", "obstruction", "lattice", "support",
            "effective", "all")


@dataclass
class Caps:
    groupoid_size: int = 512
    blocks: int = MAX_BLOCKS
    graph_vertices: int = 64
    dynsys_points: int = 1024


def _warn(message: str):
    print(f"warning: {message}", file=sys.stderr)


def _caps_from_args(args) -> Caps:
    caps = Caps()
    if getattr(args, "max_size", None) is not None:
        caps.groupoid_size = args.max_size
        _warn(f"groupoid size cap overridden to {caps.groupoid_size}")
    if getattr(args, "max_blocks", None) is not None:
        caps.blocks = args.max_blocks
        _warn(f"block cap overridden to {caps.blocks}; verification cost is 2^blocks")
    if getattr(args, "max_vertices", None) is not None:
        caps.graph_vertices = args.max_vertices
        _warn(f"graph vertex cap overridden to {caps.graph_vertices}")
    return caps


def _seed_from_args(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GLAB_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise InstanceFormatError(f"GLAB_SEED is not an integer: {env!r}")
    return DEFAULT_SEED


def _tolerance_from_args(args) -> TolerancePolicy:
    if getattr(args, "tolerance", None) is not None:
        return TolerancePolicy(zero_eps=args.tolerance)
    return TolerancePolicy()


# The ideals table's stand-in while the rest of an analyze report is
# encoded.  The split is made at the whole top-level line, which no JSON
# string can contain (its newline would be escaped), so a unit or point
# named like the stand-in cannot move it.
_ROWS_STANDIN = "<ideal rows>"
_ROWS_LINE = f'\n  "ideals": "{_ROWS_STANDIN}"'


def _emit(report: dict, fmt: str):
    if fmt != "json":
        print(reports.render_text(report), end="")
        return
    table = report.get("ideals")
    if not isinstance(table, reports._IdealTable):
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    text = json.dumps({**report, "ideals": _ROWS_STANDIN}, sort_keys=True, indent=2)
    head, tail = text.split(_ROWS_LINE)
    out = sys.stdout
    out.write(head + '\n  "ideals": [\n')
    for chunk in table.json_rows():
        out.write(chunk)
    out.write("\n  ]" + tail + "\n")


def _load_groupoid_instance(path, caps: Caps):
    instance = load_instance(path, max_elements=caps.groupoid_size)
    return instance, instance.groupoid()


def _cmd_analyze(args) -> int:
    caps = _caps_from_args(args)
    instance, groupoid = _load_groupoid_instance(args.path, caps)
    decomp = _decomposition_of(groupoid, _tolerance_from_args(args), _seed_from_args(args),
                               caps.blocks)
    report = reports.analyze_report(instance, args.path, decomp)
    _emit(report, args.format)
    return EXIT_OK


def _verify_one(path, args, caps: Caps) -> tuple:
    instance, groupoid = _load_groupoid_instance(path, caps)
    result = run_verify(
        groupoid, _tolerance_from_args(args), _seed_from_args(args), caps.blocks
    )
    report = reports.verify_report(instance, path, result, args.theorem)
    return report, EXIT_OK if report["all_passed"] else EXIT_THEOREM


def _cmd_verify(args) -> int:
    caps = _caps_from_args(args)
    if args.batch:
        paths = sorted(
            os.path.join(args.batch, name)
            for name in os.listdir(args.batch)
            if name.endswith(".json")
        )
        if not paths:
            raise InstanceFormatError(f"no .json instances in {args.batch!r}")
        worst = EXIT_OK
        for path in paths:
            try:
                report, code = _verify_one(path, args, caps)
            except Exception as exc:  # noqa: BLE001 - mapped to exit codes
                code = _report_error(exc, f"{path}: ")
            else:
                _emit(report, args.format)
            worst = max(worst, code)
        return worst
    report, code = _verify_one(args.path, args, caps)
    _emit(report, args.format)
    return code


def _cmd_random(args) -> int:
    caps = _caps_from_args(args)
    rng = random.Random(args.seed)
    options = {}
    if args.loops is not None:
        options["loops"] = args.loops
    if args.group_order is not None:
        options["group_order"] = args.group_order
    if args.type == "graph":
        check_cap(args.size, caps.graph_vertices, "vertices")
    if args.type == "dynsys":
        check_cap(args.size, caps.dynsys_points, "points")
    if args.type in ("action", "partial-action"):
        order = args.group_order or 8
        if args.size * order > caps.groupoid_size:
            raise CapExceededError(
                f"size {args.size} with group order up to {order} may exceed "
                f"{caps.groupoid_size} groupoid elements"
            )
    payload = generators.random_instance(rng, args.type, args.size, **options)
    sys.stdout.write(dump_instance(payload))
    return EXIT_OK


def _cmd_graph(args) -> int:
    caps = _caps_from_args(args)
    instance = load_instance(args.path)
    if instance.kind != "graph":
        raise InstanceFormatError(f"expected a graph instance, got {instance.kind!r}")
    check_cap(len(instance.obj.vertices), caps.graph_vertices, "vertices")
    _emit(reports.graph_report(instance, args.path), args.format)
    return EXIT_OK


def _cmd_dr(args) -> int:
    instance = load_instance(args.path)
    if instance.kind != "dynsys":
        raise InstanceFormatError(f"expected a dynsys instance, got {instance.kind!r}")
    check_cap(len(instance.obj.space), Caps.dynsys_points, "points")
    _emit(reports.dr_report(instance, args.path), args.format)
    return EXIT_OK


def _report_error(exc: Exception, prefix: str = "") -> int:
    """Print ``error: ...`` on stderr and return the exit code for ``exc``."""
    internal = ""
    if isinstance(exc, CapExceededError):
        code = EXIT_CAP
    elif isinstance(exc, (ValueError, OSError)):
        code = EXIT_INPUT
    else:
        code, internal = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: "
    print(f"{prefix}error: {internal}{exc}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glab",
        description="finite groupoid C*-algebras: ideal lattices and theorem checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def groupoid_options(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tolerance", type=float, default=None,
                       help="zero_eps threshold (default 1e-9)")
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                       help="decomposition seed (default GLAB_SEED or 0xC0FFEE)")
        p.add_argument("--max-size", type=int, default=None)
        p.add_argument("--max-blocks", type=int, default=None)

    p = sub.add_parser("analyze", help="full ideal inventory of a groupoid instance")
    p.add_argument("path")
    groupoid_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the theorem suite")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--batch", default=None, help="directory of .json instances")
    p.add_argument("--theorem", choices=THEOREMS, default="all")
    groupoid_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random", help="emit a deterministic random instance")
    p.add_argument("--type", required=True,
                   choices=("action", "partial-action", "graph", "dynsys"))
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    p.add_argument("--loops", type=int, default=None, help="graph loop enrichment")
    p.add_argument("--group-order", type=int, default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--max-vertices", type=int, default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("graph", help="graph-algebra ideal lattice report")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-vertices", type=int, default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dr", help="finite dynamical system report")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_dr)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.batch and args.path is None:
        parser.error("verify needs a path or --batch")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
