import ast
import copy
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from glab import algebra as al
from glab import groupoids as gp
from glab import ideals as il
from glab import reports
from glab.algebra import DEFAULT_SEED, wedderburn
from glab.cli import _ROWS_STANDIN, _emit, main
from glab.dynamics import FiniteDynSystem
from glab.errors import CapExceededError
from glab.formats import Instance, dump_instance, load_instance
from glab.generators import group_payload, random_groupoid, random_instance
from glab.groups import PartialAction, cyclic_group

from _oracles import (block_set, set_dimension, set_is_dynamical,
                      set_is_purely_nondynamical, set_sandwich, set_theta_inverse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def swap_file(tmp_path):
    payload = {
        "version": 1,
        "kind": "action",
        "group": group_payload(cyclic_group(2)),
        "space": ["a", "b", "c"],
        "maps": {
            "r0": {"a": "a", "b": "b", "c": "c"},
            "r1": {"a": "b", "b": "a", "c": "c"},
        },
    }
    path = tmp_path / "swap.json"
    path.write_text(dump_instance(payload))
    return path


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(dump_instance({"version": 1, "kind": "pair", "points": ["1", "2"]}))
    return path


class TestAnalyze:
    def test_counts_in_json(self, capsys, swap_file):
        code, out, _ = run(capsys, "analyze", str(swap_file), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {
            "ideals": 8, "dynamical": 4, "purely_non_dynamical": 2, "triples": 8,
        }
        assert sorted(report["instance"]["block_dimensions"]) == [1, 1, 2]
        assert report["parameters"]["seed"] == 0xC0FFEE
        assert len(report["conventions"]) == 3

    def test_obstruction_data_built_once(self, capsys, swap_file, monkeypatch):
        import glab.algebra as algebra_mod
        import glab.ideals as ideals_mod

        def refuse(*args):
            raise AssertionError("a fiber was built")

        calls = []
        real = ideals_mod._collapse_traces
        monkeypatch.setattr(ideals_mod, "_collapse_traces",
                            lambda d: calls.append(d) or real(d))
        monkeypatch.setattr(algebra_mod._Fiber, "__init__", refuse)
        code, out, _ = run(capsys, "analyze", str(swap_file), "--format", "json")
        assert code == 0
        # one trace per block, all in one call
        assert len(calls) == 1
        assert len(real(calls[0])) == len(json.loads(out)["instance"]["block_dimensions"])

    @pytest.mark.parametrize("failures, message", [
        (["collapse kernel meets the diagonal"], "collapse kernel meets the diagonal"),
        (["collapse kernel meets the diagonal",
          "obstruction ideal support differs from the non-effective reduction"],
         "obstruction ideal support differs from the non-effective reduction"),
    ])
    def test_failed_obstruction_statement(self, capsys, swap_file, monkeypatch,
                                          failures, message):
        # the support message first, as obstruction_ideal raises it before
        # collapse_kernel raises the first failure
        import glab.ideals as ideals_mod

        real = ideals_mod._obstruction
        monkeypatch.setattr(ideals_mod, "_obstruction",
                            lambda d: real(d)[:2] + (failures,))
        code, _, err = run(capsys, "analyze", str(swap_file))
        assert (code, err) == (2, f"error: {message}\n")

    def test_pair_report(self, capsys, pair_file):
        code, out, _ = run(capsys, "analyze", str(pair_file), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["ideals"] == 2
        assert report["obstruction_ideal"]["blocks"] == []

    def test_bundle_report(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(dump_instance({
            "version": 1,
            "kind": "group-bundle",
            "units": ["u"],
            "fibers": {"u": group_payload(cyclic_group(2))},
        }))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["ideals"] == 4
        assert report["obstruction_ideal"]["blocks"] == [0, 1]

    def test_text_is_stable(self, capsys, swap_file):
        code1, out1, _ = run(capsys, "analyze", str(swap_file))
        code2, out2, _ = run(capsys, "analyze", str(swap_file))
        assert code1 == code2 == 0
        assert out1 == out2
        assert "== ideals ==" in out1

    def test_freeness_section_for_partial_actions(self, capsys, tmp_path):
        payload = {
            "version": 1,
            "kind": "partial-action",
            "group": group_payload(cyclic_group(2)),
            "space": ["a", "c"],
            "maps": {"r0": {"a": "a", "c": "c"}, "r1": {"c": "c"}},
        }
        path = tmp_path / "pa.json"
        path.write_text(dump_instance(payload))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        rows = json.loads(out)["freeness"]
        by_point = {r["point"]: r for r in rows}
        assert by_point["a"]["effective"] is True
        assert by_point["c"]["effective"] is False
        assert all(r["agree"] for r in rows)

    def test_freeness_reuses_the_analyzed_groupoid(self, capsys, tmp_path, monkeypatch):
        built = []
        real = gp.FiniteGroupoid.validate
        monkeypatch.setattr(gp.FiniteGroupoid, "validate",
                            lambda self, *a, **k: built.append(self) or real(self, *a, **k))
        path = Path(__file__).parent / "data" / "action8.json"
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["freeness"]
        assert len(built) == 1

    def test_partial_action_validated_once(self, capsys, monkeypatch):
        calls = []
        real = PartialAction.validate
        monkeypatch.setattr(PartialAction, "validate",
                            lambda self: calls.append(self) or real(self))
        path = Path(__file__).parent / "data" / "action8.json"
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert len(calls) == 1

    def test_graph_instance_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(dump_instance({
            "version": 1, "kind": "graph", "vertices": ["v"],
            "edges": [{"id": "e", "src": "v", "dst": "v"}],
        }))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "graph" in err

    def test_seed_env(self, capsys, swap_file, monkeypatch):
        monkeypatch.setenv("GLAB_SEED", "12345")
        code, out, _ = run(capsys, "analyze", str(swap_file), "--format", "json")
        assert code == 0
        assert json.loads(out)["parameters"]["seed"] == 12345

    def test_tolerance_flag_echoed(self, capsys, swap_file):
        code, out, _ = run(
            capsys, "analyze", str(swap_file), "--format", "json",
            "--tolerance", "1e-8",
        )
        assert code == 0
        assert json.loads(out)["parameters"]["zero_eps"] == 1e-8


class TestVerify:
    def test_all_pass(self, capsys, swap_file):
        code, out, _ = run(capsys, "verify", str(swap_file), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "sandwich", "bijection", "obstruction", "lattice", "support",
            "effective",
        }

    def test_theorem_selection(self, capsys, swap_file):
        code, out, _ = run(
            capsys, "verify", str(swap_file), "--theorem", "sandwich",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [c["name"] for c in report["checks"]] == ["sandwich"]

    def test_batch(self, capsys, swap_file, pair_file):
        directory = swap_file.parent
        code, out, _ = run(capsys, "verify", "--batch", str(directory),
                           "--format", "json")
        assert code == 0
        # output ordered by filename: pair.json before swap.json
        assert out.index("pair.json") < out.index("swap.json")

    def test_batch_reports_bad_file(self, capsys, swap_file, pair_file):
        bad = swap_file.parent / "bad.json"
        bad.write_text('{"version": 1, "kind": "pair", "points": [[1], [2]]}')
        code, out, err = run(capsys, "verify", "--batch", str(swap_file.parent),
                             "--format", "json")
        assert code == 2
        assert err.startswith(f"{bad}: error: ") and "non-scalar" in err
        assert out.index("pair.json") < out.index("swap.json")

    def test_over_cap_instance_rejected_before_validation(self, capsys, tmp_path,
                                                          monkeypatch):
        from glab.groupoids import FiniteGroupoid

        calls = []
        monkeypatch.setattr(FiniteGroupoid, "validate",
                            lambda self, *a, **k: calls.append(self))
        path = tmp_path / "pair40.json"
        path.write_text(dump_instance(
            {"version": 1, "kind": "pair", "points": list(range(40))}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "1600 elements (cap 512)" in err
        assert not calls

    def test_bool_version_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"version": true, "kind": "pair", "points": [1, 2]}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "'version'" in err

    def test_internal_error_exit_code(self, capsys, swap_file, pair_file, monkeypatch):
        import glab.cli as cli_mod

        real = cli_mod.run_verify

        def broken_on_pairs(groupoid, *args, **kwargs):
            if groupoid.name.startswith("pair"):
                raise RuntimeError("boom")
            return real(groupoid, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_verify", broken_on_pairs)
        code, out, err = run(capsys, "verify", str(pair_file))
        assert code == 4
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"
        code, out, err = run(capsys, "verify", "--batch", str(swap_file.parent),
                             "--format", "json")
        assert code == 4
        assert err == f"{pair_file}: error: internal error: RuntimeError: boom\n"
        assert json.loads(out)["all_passed"] is True
        assert "swap.json" in out

    def test_in_process_calls_keep_their_own_options(self, capsys, swap_file):
        # the parser is built once per process; each call parses afresh
        import glab.cli as cli_mod

        code, out, _ = run(capsys, "verify", str(swap_file), "--format", "json",
                           "--seed", "7")
        assert code == 0 and json.loads(out)["parameters"]["seed"] == 7
        code, text, _ = run(capsys, "verify", str(swap_file))
        assert code == 0 and not text.startswith("{")
        assert f"\n  seed          {DEFAULT_SEED}\n" in text
        code, out, _ = run(capsys, "verify", str(swap_file), "--format", "json")
        assert json.loads(out)["parameters"]["seed"] == DEFAULT_SEED
        assert cli_mod._parser() is cli_mod._parser()

    def test_missing_path(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_theorem_failure_exit_code(self, capsys, swap_file, monkeypatch):
        import glab.cli as cli_mod

        real = cli_mod.run_verify

        def doctored(*args, **kwargs):
            report = real(*args, **kwargs)
            report.checks[0].passed = False
            return report

        monkeypatch.setattr(cli_mod, "run_verify", doctored)
        code, out, _ = run(capsys, "verify", str(swap_file))
        assert code == 1
        assert "FAIL" in out

    def test_obstruction_statement_failure_exits_1(self, capsys, swap_file, pair_file,
                                                  monkeypatch):
        # a collapse representation that kills every block: the kernel
        # meets the diagonal, which the obstruction check reports
        import glab.ideals as ideals_mod

        real = ideals_mod._collapse_traces
        monkeypatch.setattr(ideals_mod, "_collapse_traces", lambda d: 0 * real(d))
        code, out, err = run(capsys, "verify", str(swap_file), "--format", "json")
        assert (code, err) == (1, "")
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "obstruction")
        assert not check["passed"]
        assert "collapse kernel meets the diagonal" in check["witnesses"]
        code, out, err = run(capsys, "verify", "--batch", str(swap_file.parent))
        assert (code, err) == (1, "")
        assert out.count("collapse kernel meets the diagonal") == 2

    def test_json_report_deterministic(self, capsys, swap_file):
        _, out1, _ = run(capsys, "verify", str(swap_file), "--format", "json")
        _, out2, _ = run(capsys, "verify", str(swap_file), "--format", "json")
        assert out1 == out2

    def test_measured_residual_within_tolerance(self, capsys, swap_file):
        code, out, _ = run(capsys, "verify", str(swap_file), "--format", "json")
        assert code == 0
        report = json.loads(out)
        # numerics holds the measured residual, parameters the tolerance
        assert report["parameters"]["eig_residual"] == 1e-10
        assert report["numerics"]["eig_residual"] <= report["parameters"]["eig_residual"]

    def test_cap_override_warns(self, capsys, swap_file):
        code, _, err = run(capsys, "verify", str(swap_file), "--max-blocks", "25")
        assert code == 0
        assert "warning" in err and "2^blocks" in err


UNUSED_OPTIONS = [
    ("analyze", "--max-vertices", "64"),
    ("verify", "--max-vertices", "64"),
    ("random", "--max-blocks", "5"),
    *(("graph", flag, value) for flag, value in (
        ("--tolerance", "1e-9"), ("--seed", "1"), ("--max-size", "9"), ("--max-blocks", "5"))),
    *(("dr", flag, value) for flag, value in (
        ("--tolerance", "1e-9"), ("--seed", "1"), ("--max-size", "9"), ("--max-blocks", "5"),
        ("--max-vertices", "64"))),
]


@pytest.mark.parametrize("command, flag, value", UNUSED_OPTIONS)
def test_option_a_subcommand_does_not_use_is_input_error(capsys, swap_file, command,
                                                         flag, value):
    argv = ([command, "--type", "action", "--size", "3", "--seed", "1"]
            if command == "random" else [command, str(swap_file)])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("command", ("verify", "analyze"))
@pytest.mark.parametrize("name", ("swap_and_fix", "z2_bundle", "action8"))
def test_json_report_matches_golden(capsys, monkeypatch, command, name):
    """Byte-for-byte against reports committed in tests/data (``action8`` is
    ``glab random --type action --size 5 --seed 8 --group-order 6``)."""
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GLAB_SEED", raising=False)
    code, out, _ = run(capsys, command, f"{name}.json", "--format", "json")
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.{command}.json").read_bytes()


@pytest.mark.parametrize("name", ("swap_and_fix", "z2_bundle", "action8"))
def test_analyze_text_matches_golden(capsys, monkeypatch, name):
    """The ``glab analyze`` text report, byte-for-byte against tests/data."""
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GLAB_SEED", raising=False)
    code, out, _ = run(capsys, "analyze", f"{name}.json")
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.analyze.txt").read_bytes()


def test_obstruction_reads_block_masks_only(capsys, monkeypatch):
    """``verify`` and ``analyze`` decide J^ob and the collapse kernel from
    block masks, the orbit table and the collapse traces: with the fibers,
    the operator norm and every frozenset route to an ideal's diagonal or
    support refused, each report keeps its bytes."""
    import glab.algebra as algebra_mod
    import glab.linalg as linalg_mod

    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GLAB_SEED", raising=False)
    runs = [(command, f"{name}.json", fmt) for name in ("swap_and_fix", "z2_bundle", "action8")
            for command in ("verify", "analyze") for fmt in ("json", "text")]
    expected = [run(capsys, command, path, "--format", fmt) for command, path, fmt in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("the obstruction left the block masks")

    monkeypatch.setattr(algebra_mod, "_orbit_fibers", refuse)
    monkeypatch.setattr(linalg_mod, "operator_norm", refuse)
    monkeypatch.setattr(algebra_mod.BlockDecomposition, "dynamical_ideal_of", refuse)
    monkeypatch.setattr(gp.FiniteGroupoid, "effective_units", refuse)
    monkeypatch.setattr(algebra_mod.Ideal, "support", refuse)
    monkeypatch.setattr(algebra_mod.Ideal, "diagonal_units", refuse)
    for (command, path, fmt), want in zip(runs, expected):
        assert want[0] == 0
        assert run(capsys, command, path, "--format", fmt) == want


def rows_as_dicts(report) -> str:
    """``json.dumps`` of an analyze report with its ideal rows as dicts,
    as ``--format json`` printed it before the rows were streamed."""
    return json.dumps({**report, "ideals": list(report["ideals"])},
                      sort_keys=True, indent=2) + "\n"


def first_difference(out: str, expected: str):
    """None for equal texts, else the first differing line as (index, got,
    wanted): pytest's own diff of two multi-megabyte texts takes minutes."""
    lines = itertools.zip_longest(out.split("\n"), expected.split("\n"))
    return next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b), None)


class TestStreamedIdealRows:
    """``analyze --format json`` writes the ideal rows from the lattice
    columns; its bytes must be those of ``json.dumps`` on the row dicts."""

    def test_escaped_names_and_a_point_named_like_the_standin(self, capsys, tmp_path):
        z2 = cyclic_group(2)
        odd = ['a"b', "c\\d", "é", "\U0001d50a", _ROWS_STANDIN, "z"]
        payload = {
            "version": 1,
            "kind": "partial-action",
            "group": group_payload(z2),
            "space": odd,
            "maps": {
                "r0": {x: x for x in odd},
                "r1": {odd[0]: odd[2], odd[2]: odd[0], odd[1]: odd[3], odd[3]: odd[1],
                       _ROWS_STANDIN: _ROWS_STANDIN},
            },
        }
        path = tmp_path / "odd.json"
        path.write_text(dump_instance(payload))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 0
        assert f'"point": "{_ROWS_STANDIN}"' in out and "\\ud835\\udd0a" in out
        instance = load_instance(str(path))
        report = reports.analyze_report(instance, str(path),
                                        wedderburn(instance.groupoid()))
        assert first_difference(out, rows_as_dicts(report)) is None
        assert json.loads(out)["ideals"][0] == {
            "blocks": [], "dimension": 0, "dynamical": True,
            "purely_non_dynamical": False, "sandwich": {"lower": [], "upper": []},
            "triple_quotient_blocks": [],
        }

    def test_numeric_units_over_several_slices(self, capsys):
        g = gp.unit_space_groupoid(range(14))
        report = reports.analyze_report(Instance("groupoid-tables", {}, g), "units",
                                        wedderburn(g))
        _emit(report, "json")
        out = capsys.readouterr().out
        assert first_difference(out, rows_as_dicts(report)) is None
        rows = json.loads(out)["ideals"]
        assert len(rows) == 1 << 14
        # unit names sort as text
        assert rows[-1]["sandwich"]["upper"] == sorted(map(str, range(14)))
        assert rows[-1]["sandwich"]["upper"][:3] == ["0", "1", "10"]

    def test_rows_match_set_reference(self, capsys):
        rng = random.Random(1010)
        checked = 0
        while checked < 12:
            g = random_groupoid(rng, 24)
            d = wedderburn(g)
            if d.block_count > 7:
                continue
            checked += 1
            report = reports.analyze_report(Instance("groupoid-tables", {}, g), "draw",
                                            d)
            _emit(report, "json")
            out = capsys.readouterr().out
            assert first_difference(out, rows_as_dicts(report)) is None
            for ideal, row in zip(d.all_ideals(), json.loads(out)["ideals"], strict=True):
                blocks = block_set(ideal)
                lower, upper = set_sandwich(ideal)
                assert row == {
                    "blocks": sorted(blocks),
                    "dimension": set_dimension(d, blocks),
                    "dynamical": set_is_dynamical(d, blocks),
                    "purely_non_dynamical": set_is_purely_nondynamical(d, blocks),
                    "sandwich": {"lower": reports.fmt_set(lower),
                                 "upper": reports.fmt_set(upper)},
                    "triple_quotient_blocks": sorted(set_theta_inverse(ideal)[2]),
                }


@pytest.mark.parametrize("command, name, fmt, suffix", (
    ("graph", "graph16", "json", "json"),
    ("graph", "graph16", "text", "txt"),
    ("dr", "map40", "json", "json"),
    ("dr", "map40", "text", "txt"),
    ("dr", "map15", "json", "json"),
    ("dr", "map15", "text", "txt"),
))
def test_dynamics_report_matches_golden(capsys, command, name, fmt, suffix, monkeypatch):
    """Byte-for-byte against reports committed in tests/data: ``graph16`` has
    a complete piece, a chorded ring feeding it, an exit-less ring, an
    exit-less loop and tails; ``map40`` has cycles of lengths 1, 2, 3, 4
    and 6 with random trees hanging off them; ``map15`` has 8 classes
    (256 invariant sets, so the listing stops at 64), and its map's keys
    come in an order that finds its cycles out of first-point order."""
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, command, f"{name}.json", "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.{command}.{suffix}").read_bytes()


def test_dr_report_reads_each_side_once(capsys, monkeypatch):
    """``dr`` takes both sides of the non-effective locus from one pass, so
    each report computes the eventually-periodic locus once."""
    calls = []
    locus = FiniteDynSystem.eventually_periodic_locus
    monkeypatch.setattr(FiniteDynSystem, "eventually_periodic_locus",
                        lambda system: calls.append(system) or locus(system))
    monkeypatch.chdir(GOLDEN)
    for fmt in ("json", "text"):
        calls.clear()
        code, out, _ = run(capsys, "dr", "map40.json", "--format", fmt)
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize("fmt, suffix", (("json", "json"), ("text", "txt")))
def test_dr_report_lists_from_masks(capsys, monkeypatch, fmt, suffix):
    """``dr`` builds only the invariant sets it lists: with
    ``invariant_sets`` refused it prints the golden bytes."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("dr built every invariant set")

    monkeypatch.setattr(FiniteDynSystem, "invariant_sets", refuse)
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, "dr", "map15.json", "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / f"map15.dr.{suffix}").read_bytes()


def test_dr_report_at_the_point_cap(capsys, tmp_path):
    """A 1,024-point map with 16 fixed points (point i goes to point i mod
    16) has 2^16 invariant sets.  Every class weighs 64, so the listing is
    the empty set, the 16 classes in order and the first 47 pairs of
    classes in ``combinations`` order."""
    names = [f"p{i:04d}" for i in range(1024)]
    payload = {"version": 1, "kind": "dynsys", "space": names,
               "map": {x: names[i % 16] for i, x in enumerate(names)}}
    path = tmp_path / "fixed16.json"
    path.write_text(dump_instance(payload))
    code, out, _ = run(capsys, "dr", str(path), "--format", "json")
    assert code == 0
    invariant = json.loads(out)["invariant_sets"]
    classes = [[x for i, x in enumerate(names) if i % 16 == c] for c in range(16)]
    pairs = itertools.islice(itertools.combinations(classes, 2), 47)
    assert invariant["size"] == 65_536
    assert invariant["sets"] == [[], *classes, *(sorted(a + b) for a, b in pairs)]


class TestRandom:
    def test_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "random", "--type", "action", "--size", "5",
                             "--seed", "1")
        code2, out2, _ = run(capsys, "random", "--type", "action", "--size", "5",
                             "--seed", "1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_single_loop_shape(self, capsys):
        code, out, _ = run(capsys, "random", "--type", "graph", "--size", "1",
                           "--seed", "0", "--loops", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == ["v0"]
        assert len(payload["edges"]) == 1

    def test_generated_instances_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "random", "--type", "action", "--size", "4",
                           "--seed", "1")
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_block_cap_exceeded_is_exit_3(self, capsys, tmp_path, monkeypatch):
        """``swap_and_fix`` has 3 blocks (2, 1, 1).  Above the cap every block
        refusal reads the same text, and ``verify``, ``analyze``, ``verify
        --batch``, ``enumerate_triples`` and ``all_ideals`` on a groupoid give
        it from the center's dimension, before any eigensolve or convolution."""
        calls = []
        eigh, convolve = np.linalg.eigh, al._convolve
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append("eigh") or eigh(*a, **k))
        monkeypatch.setattr(al, "_convolve",
                            lambda *a: calls.append("convolve") or convolve(*a))
        path = GOLDEN / "swap_and_fix.json"
        refusal = "3 blocks exceed the cap 2"
        for command in ("verify", "analyze"):
            code, out, err = run(capsys, command, str(path), "--max-blocks", "2")
            assert (code, out) == (3, "")
            assert err.endswith(f"error: {refusal}\n")
        assert calls == []
        for command in ("verify", "analyze"):
            assert run(capsys, command, str(path), "--max-blocks", "3")[0] == 0

        # the over-cap file is reported and the batch goes on
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "a_swap.json").write_bytes(path.read_bytes())
        (batch / "b_pair.json").write_text(
            dump_instance({"version": 1, "kind": "pair", "points": ["1", "2"]}))
        calls.clear()
        code, out, err = run(capsys, "verify", "--batch", str(batch), "--max-blocks", "2",
                             "--format", "json")
        assert code == 3 and f"a_swap.json: error: {refusal}\n" in err
        assert json.loads(out)["all_passed"]
        batch_calls = list(calls)
        calls.clear()
        assert run(capsys, "verify", str(batch / "b_pair.json"), "--max-blocks", "2")[0] == 0
        assert batch_calls == calls

        for refuse in (lambda g: il.verify(g, max_blocks=2),
                       lambda g: il.enumerate_triples(g, max_blocks=2),
                       lambda g: al.all_ideals(g, max_blocks=2)):
            calls.clear()
            with pytest.raises(CapExceededError, match=f"^{refusal}$"):
                refuse(load_instance(path).groupoid())
            assert calls == []
        d = wedderburn(load_instance(path).groupoid())
        for refuse in (d.all_ideals, lambda cap: il.verify(d, max_blocks=cap),
                       lambda cap: il.enumerate_triples(d, max_blocks=cap)):
            with pytest.raises(CapExceededError, match=f"^{refusal}$"):
                refuse(2)

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "random", "--type", "graph", "--size", "100",
                           "--seed", "0")
        assert code == 3
        assert "cap" in err


class TestGraphAndDr:
    def test_graph_report(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(dump_instance({
            "version": 1, "kind": "graph", "vertices": ["v"],
            "edges": [{"id": "e", "src": "v", "dst": "v"}],
        }))
        code, out, _ = run(capsys, "graph", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["obstruction_vertex_set"] == ["v"]
        assert report["lattice"]["size"] == 2
        assert report["cycles"]["condition_L"] is False

    def test_graph_sink_error(self, capsys, tmp_path):
        path = tmp_path / "sink.json"
        path.write_text(dump_instance({
            "version": 1, "kind": "graph", "vertices": ["a", "b"],
            "edges": [{"id": "e", "src": "a", "dst": "b"}],
        }))
        code, _, err = run(capsys, "graph", str(path))
        assert code == 2
        assert "'b'" in err

    def test_dr_report(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(dump_instance({
            "version": 1, "kind": "dynsys",
            "space": ["x", "y", "z"],
            "map": {"x": "y", "y": "z", "z": "x"},
        }))
        code, out, _ = run(capsys, "dr", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        non = report["noneffective_locus"]
        assert non["agree"] is True
        assert non["orbit_side_size"] == 3
        assert report["periodic_loci"]["3"]["size"] == 3

    def test_graph_over_cap(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        vertices = [f"v{i}" for i in range(65)]
        path.write_text(dump_instance({
            "version": 1, "kind": "graph", "vertices": vertices,
            "edges": [{"id": f"e{i}", "src": v, "dst": vertices[(i + 1) % 65]}
                      for i, v in enumerate(vertices)],
        }))
        code, out, err = run(capsys, "graph", str(path))
        assert code == 3
        assert "65 vertices exceed the cap 64" in err
        assert out == ""

    def test_graph_cycle_cap(self, capsys, tmp_path):
        # the loopless K9 has 125,664 simple cycles
        path = tmp_path / "k9.json"
        vertices = [f"v{i}" for i in range(9)]
        path.write_text(dump_instance({
            "version": 1, "kind": "graph", "vertices": vertices,
            "edges": [{"id": f"{a}-{b}", "src": a, "dst": b}
                      for a in vertices for b in vertices if a != b],
        }))
        code, out, err = run(capsys, "graph", str(path))
        assert code == 3
        assert "more than 100000 simple cycles" in err
        assert out == ""

    def test_long_ring_past_cap(self, capsys, tmp_path):
        # the cycle search keeps its own stack, so a 1,200-edge cycle does
        # not hit the recursion limit
        path = tmp_path / "ring.json"
        vertices = [f"v{i}" for i in range(1200)]
        path.write_text(dump_instance({
            "version": 1, "kind": "graph", "vertices": vertices,
            "edges": [{"id": f"e{i}", "src": v, "dst": vertices[(i + 1) % 1200]}
                      for i, v in enumerate(vertices)],
        }))
        code, out, _ = run(capsys, "graph", str(path), "--max-vertices", "2000",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["cycles"]["count"] == 1

    def test_dr_over_cap(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        space = [f"x{i}" for i in range(1025)]
        path.write_text(dump_instance({
            "version": 1, "kind": "dynsys", "space": space,
            "map": {x: space[0] for x in space},
        }))
        code, out, err = run(capsys, "dr", str(path))
        assert code == 3
        assert "1025 points exceed the cap 1024" in err
        assert out == ""

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        for command in ("analyze", "verify", "graph", "dr"):
            code, _, err = run(capsys, command, str(path))
            assert code == 2


SRC = Path(__file__).parent.parent / "src" / "glab"


def test_counted_caps_raise_through_check_cap():
    """``raise CapExceededError`` appears only in ``errors.check_cap`` and at
    the caps that refuse a partial or estimated count: the two cycle-cap
    raises of the cycle walk, the lattice build, the pre-parse element count
    and ``glab random``'s action-size estimate.  Every other counted cap
    goes through ``check_cap``, with its one message form."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "CapExceededError"):
                sites.append(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(sites) == [
        "cli._cmd_random",
        "dynamics.DirectedGraph._cycle_walk",
        "dynamics.DirectedGraph._cycle_walk",
        "dynamics.DirectedGraph._lattice_masks",
        "errors.check_cap",
        "formats.parse_instance",
    ]


class TestMalformedInstances:
    """Every malformed instance maps to exit 2 (or 0, 1, 3), never to 4."""

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["maps"].update(r1=None), "field 'r1' in action.maps has type NoneType"),
        (lambda p: p["maps"].update(r1=[1, 2]), "field 'r1' in action.maps has type list"),
    ])
    def test_map_values_type_checked(self, capsys, tmp_path, edit, message):
        payload = json.loads((GOLDEN / "action8.json").read_text())
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and message in err

    def test_fiber_values_type_checked(self, capsys, tmp_path):
        payload = json.loads((GOLDEN / "z2_bundle.json").read_text())
        payload["fibers"]["u"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "field 'u' in fibers has type int" in err

    @staticmethod
    def mutated(payload, rng):
        """``payload`` with one or two nodes replaced by a value of another
        shape, a dict key deleted or renamed, or a list item repeated."""
        payload = copy.deepcopy(payload)
        values = [None, 5, -1, True, 1.5, "x", "", [], [1, 2], {}, {"a": 1}, [[1]], [None]]
        for _ in range(rng.randint(1, 2)):
            paths, stack = [], [((), payload)]
            while stack:
                path, node = stack.pop()
                if path:
                    paths.append(path)
                items = (node.items() if isinstance(node, dict)
                         else enumerate(node) if isinstance(node, list) else ())
                stack.extend((path + (k,), v) for k, v in items)
            path = rng.choice(paths)
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            op = rng.random()
            if op < 0.15 and isinstance(parent, dict):
                del parent[path[-1]]
            elif op < 0.25 and isinstance(parent, dict):
                parent[rng.choice(["k", "5"])] = parent.pop(path[-1])
            elif op < 0.35 and isinstance(parent, list):
                parent.append(copy.deepcopy(parent[path[-1]]))
            else:
                parent[path[-1]] = copy.deepcopy(rng.choice(values))
        return payload

    def test_seeded_mutations_never_exit_4(self, capsys, tmp_path):
        rng = random.Random(2024)
        payloads = [json.loads((GOLDEN / f"{name}.json").read_text())
                    for name in ("action8", "swap_and_fix", "z2_bundle", "graph16", "map40")]
        for kind, size in (("action", 4), ("partial-action", 4), ("graph", 6), ("dynsys", 8)):
            options = {"group_order": 4} if "action" in kind else {}
            payloads.append(random_instance(rng, kind, size, **options))
        payloads.append({"version": 1, "kind": "pair", "points": ["a", "b", "c"]})
        payloads.append({"version": 1, "kind": "group-bundle", "units": ["u", "v"],
                         "fibers": {"u": group_payload(cyclic_group(3)),
                                    "v": group_payload(cyclic_group(2))}})
        pair = gp.pair_groupoid("ab")
        payloads.append({
            "version": 1, "kind": "groupoid-tables",
            "elements": ["".join(el) for el in pair.elements],
            "units": ["".join(u) for u in pair.unit_list],
            **{key: {"".join(el): "".join(f(el)) for el in pair.elements}
               for key, f in (("source", pair.source), ("range", pair.range),
                              ("inverse", pair.inverse))},
            "compose": [["".join(a), "".join(b), "".join(pair.compose(a, b))]
                        for a, b in pair.composable_pairs()],
        })
        path = tmp_path / "mutant.json"
        codes = set()
        for _ in range(500):
            path.write_text(json.dumps(self.mutated(rng.choice(payloads), rng)))
            for argv in (["verify", str(path)], ["analyze", str(path), "--format", "json"],
                         ["graph", str(path)], ["dr", str(path)]):
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2, 3), (argv[0], path.read_text(), err)
                codes.add(code)
        assert {0, 2} <= codes


def test_reports_leave_numpy_ma_unimported():
    """In-process ``verify``, ``graph``, ``dr`` and ``analyze`` on the golden
    inputs never import ``numpy.ma``, which a plain ``np.unique`` pulls in
    (numpy 2.4) and nothing in the package needs."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from glab.cli import main
        data = sys.argv[1]
        runs = [("verify", name) for name in ("z2_bundle", "swap_and_fix", "action8")]
        runs += [("graph", "graph16"), ("dr", "map40")]
        runs += [("analyze", name) for name in ("z2_bundle", "swap_and_fix", "action8")]
        for command, name in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, f"{data}/{name}.json", "--format", "json"])
            print(command, name, code, "numpy.ma" in sys.modules)
    """)
    root = Path(__file__).resolve().parent
    result = subprocess.run(
        [sys.executable, "-c", script, str(root / "data")], capture_output=True, text=True,
        timeout=120, check=True, env={**os.environ, "PYTHONPATH": str(root.parent / "src")})
    assert result.stdout.splitlines() == [
        f"{command} {name} 0 False" for command, name in (
            ("verify", "z2_bundle"), ("verify", "swap_and_fix"), ("verify", "action8"),
            ("graph", "graph16"), ("dr", "map40"), ("analyze", "z2_bundle"),
            ("analyze", "swap_and_fix"), ("analyze", "action8"))]


def test_reports_independent_of_hash_seed():
    """``verify`` and ``analyze`` on every groupoid in tests/data, ``graph``
    on ``graph16`` and ``dr`` on ``map40`` and ``map15``, in JSON and text,
    print the same bytes, errors and exit codes under two ``PYTHONHASHSEED``
    values."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from glab.cli import main
        data = sys.argv[1]
        runs = [(command, name) for name in ("z2_bundle", "swap_and_fix", "action8")
                for command in ("verify", "analyze")]
        runs += [("graph", "graph16"), ("dr", "map40"), ("dr", "map15")]
        for command, name in runs:
            for fmt in ("json", "text"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, f"{data}/{name}.json", "--format", fmt])
                print(command, name, fmt, code, repr(out.getvalue()), repr(err.getvalue()))
    """)
    root = Path(__file__).resolve().parent
    env = {key: value for key, value in os.environ.items() if key != "GLAB_SEED"}
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(root / "data")], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env={**env, "PYTHONPATH": str(root.parent / "src"), "PYTHONHASHSEED": seed})
        for seed in ("0", "1")]
    results = [proc.communicate(timeout=120) + (proc.returncode,) for proc in procs]
    assert results[0][2] == 0 and results[0][1] == ""
    assert len(results[0][0].splitlines()) == 18
    assert results[0] == results[1]
