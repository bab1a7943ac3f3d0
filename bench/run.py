"""glab benchmark: one workload, seeded inputs, checked outputs, one JSON line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from anywhere; the program is imported from the checkout's ``src``.
Set-up (a fresh interpreter importing glab, plus generating every input)
is repeated five times and the median of its CPU times is ``setup_s``;
the sweep's search for draws that meet its quotas is made once, before.
Then whole rounds of the workload's operations run in a closed loop until
the next round would pass ``--seconds`` of operation wall time;
``round_cpu_s`` is the median round's CPU time.  Outputs are checked
against independent oracles after the timed part.  ``--trace 1`` alternates untraced and traced rounds and reports
per-layer metrics instead of the end-to-end ones.  The last line of
standard output is the result object; earlier lines describe the machine,
the inputs and the per-command split.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
WALL, CPU = 0, 1          # positions in an operation's (wall, CPU) times

LAYER_SELF = (
    "formats.load_instance", "groupoids.validate", "groupoids.restrict",
    "algebra.wedderburn", "algebra.restriction_decomposition", "algebra.all_ideals",
    "linalg.hermitian_eigen", "ideals.verify", "ideals.enumerate_triples",
    "ideals.theta", "ideals.theta_inverse", "ideals.sandwich", "ideals.collapse_kernel",
    "reports.verify_report", "reports.analyze_report", "reports.dr_report",
    "reports.graph_report", "cli.main", "dynamics.periodic_locus",
    "dynamics.periodic_points", "dynamics.noneffective_locus",
    "dynamics.eventually_periodic_locus", "dynamics.simple_cycles",
    "dynamics.hereditary_saturated_sets", "dynamics.exitless_cycle_vertices",
)
LAYER_CALLS = (
    "groupoids.validate", "groupoids.restrict", "algebra.wedderburn",
    "algebra.restriction_decomposition", "linalg.hermitian_eigen", "ideals.theta",
    "ideals.theta_inverse", "ideals.sandwich", "dynamics.periodic_locus",
    "dynamics.saturated_hereditary_closure",
)


def import_glab():
    """Import the checkout's glab, or exit with an error when it is not there.

    OpenBLAS is held to one thread: on two shared cores a second BLAS
    thread left the decompositions no faster and doubled the run-to-run
    spread of their times.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import glab
        import glab.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import glab from {ROOT / 'src'}: {exc}")
    if Path(glab.__file__).resolve().parent != ROOT / "src" / "glab":
        sys.exit(f"bench: glab imported from {glab.__file__}, not from this checkout")
    return glab


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    paths = set()
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _import_seconds() -> float:
    """CPU time for a fresh interpreter to start and import glab."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = _children_cpu()
    subprocess.run([sys.executable, "-c", "import glab.cli"], env=env, cwd=ROOT,
                   check=True)
    return _children_cpu() - before


def setup(workload: str, seed: int, workdir: Path):
    draws = workloads.sweep_draws(seed) if workload == "sweep" else None
    samples, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        imported = _import_seconds()
        start = time.process_time()
        inputs = workloads.make_inputs(workload, seed, str(workdir), draws)
        samples.append(imported + time.process_time() - start)
        digests.add(inputs.digest)
    return inputs, statistics.median(samples), len(digests) == 1


class Runner:
    """Runs operations, keeping each distinct output once for checking."""

    def __init__(self, glab, ops, workdir: Path):
        self.glab = glab
        self.ops = ops
        self.outdir = workdir / "outputs"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.pending = {}      # (op index, output hash) -> saved output path
        self.verdicts = {}     # (op index, output hash) -> list of problems
        self.results = []      # (op index, exit code or None, output hash or error)
        self.expected = {}     # op index -> oracle expectation
        self.output_bytes = 0

    def run(self, i: int) -> tuple:
        """Run operation ``i``; its (wall, CPU) seconds."""
        op = self.ops[i]
        rng = random.Random()
        if op.state is not None:
            rng.setstate(op.state)
        out, err = io.StringIO(), io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            if op.kind == "job":
                g = self.glab.generators.random_groupoid(rng, workloads.SWEEP_MAX_SIZE)
                self.glab.wedderburn(g)
                output = self.glab.verify(g)
                code = 0
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.glab.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failure
            code, output = None, f"{type(exc).__name__}: {exc}"
        times = (time.perf_counter() - wall, time.process_time() - cpu)
        if code is None:
            self.results.append((i, None, output))
        elif op.kind == "job":
            self._keep(i, code, output.to_dict())
        else:
            output = out.getvalue()
            self.output_bytes += len(output.encode())
            self._keep(i, code, output)
        return times

    def _keep(self, i, code, output):
        if isinstance(output, dict):
            digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
            key = (i, digest)
            if key not in self.verdicts:
                self.verdicts[key] = self._check(i, output)
        else:
            digest = hashlib.sha256(output.encode()).hexdigest()
            key = (i, digest)
            if key not in self.verdicts and key not in self.pending:
                path = self.outdir / f"{i}-{digest[:16]}.txt"
                path.write_text(output, encoding="utf-8")
                self.pending[key] = path
        self.results.append((i, code, digest))

    def _check(self, i: int, output) -> list:
        op = self.ops[i]
        if i not in self.expected:
            self.expected[i] = op.oracle()
        try:
            return workloads.check_output(op, output, self.expected[i])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"output not in the documented form: {exc!r}"]

    def check(self) -> tuple:
        """(attempted, failed, problem lines) after checking saved outputs."""
        for key, path in self.pending.items():
            self.verdicts[key] = self._check(key[0], path.read_text("utf-8"))
        self.pending.clear()
        failed, problems = 0, []
        for i, code, digest in self.results:
            why = []
            if code is None:
                why = [digest]
            elif code != 0:
                why = [f"exit code {code}"]
            why += self.verdicts.get((i, digest), [])
            if why:
                failed += 1
                problems.append(f"{self.ops[i].name}: {'; '.join(why[:3])}")
        return len(self.results), failed, problems


def run_round(runner: Runner) -> list:
    return [runner.run(i) for i in range(len(runner.ops))]


def round_total(times, which: int) -> float:
    return sum(t[which] for t in times)


def command_split(ops, rounds) -> dict:
    """Per command kind, the median over rounds of its summed CPU time."""
    kinds = sorted({op.kind for op in ops})
    return {f"{k}_cpu_s": statistics.median(
        sum(t[CPU] for op, t in zip(ops, r) if op.kind == k) for r in rounds)
        for k in kinds}


def untraced(runner: Runner, seconds: float):
    """Whole rounds until the next would pass ``seconds`` of wall time."""
    rounds, busy = [], 0.0
    while True:
        times = run_round(runner)
        rounds.append(times)
        busy += round_total(times, WALL)
        if busy + round_total(times, WALL) > seconds:
            return rounds


def traced(runner: Runner, seconds: float, span_path: Path):
    import tracer

    plain, traced_rounds, totals, busy_worker, busy = [], [], [], [], 0.0
    while True:
        times = run_round(runner)
        plain.append(round_total(times, CPU))
        busy += round_total(times, WALL)
        t = tracer.Tracer()
        t.install()
        try:
            before = runner.output_bytes
            times = run_round(runner)
        finally:
            t.uninstall()
        spans = t.take()
        if not traced_rounds:
            _write_spans(spans, span_path)
        traced_rounds.append((round_total(times, CPU), runner.output_bytes - before))
        totals.append(tracer.layer_totals(spans))
        busy_worker.append(tracer.worker_busy(spans, "ideals.verify"))
        del spans
        pair = round_total(times, WALL) * 2
        busy += pair / 2
        if busy + pair > seconds:
            break
    def column(span_name, field):
        return [tot.get(span_name, (0.0, 0, 0))[field] for tot in totals]

    metrics = {f"{name}.self_s": (statistics.median(column(name, 0)), "s")
               for name in LAYER_SELF}
    counts = [(f"{name}.calls", column(name, 1)) for name in LAYER_CALLS]
    counts += [(count_name, column(span_name, 2))
               for span_name, (count_name, _) in tracer.RESULT_COUNTS.items()]
    counts.append(("cli.output_bytes", [b for _, b in traced_rounds]))
    for name, values in counts:
        metrics[name] = (values[0], "bytes" if name == "cli.output_bytes" else "count")
    counts_repeat = all(len(set(values)) == 1 for _, values in counts)
    metrics["cli.batch.verify_busy_s"] = (statistics.median(busy_worker), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t for t, _ in traced_rounds) - statistics.median(plain), "s")
    return metrics, len(plain) + len(traced_rounds), counts_repeat


def _write_spans(spans, path: Path):
    if not spans:
        return
    origin = min(s[2] for s in spans)
    threads = sorted({s[5] for s in spans})
    body = {
        "fields": ["id", "name", "start_us", "end_us", "parent", "thread", "work"],
        "spans": [[sid, name, round((start - origin) * 1e6, 1),
                   round((end - origin) * 1e6, 1), parent, threads.index(thread), work]
                  for sid, name, start, end, parent, thread, work in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(body, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    glab = import_glab()
    print("machine: " + json.dumps(machine_record(args.seed), sort_keys=True))
    # Reports echo the instance path, so it is relative to the checkout and
    # the same in every run: output sizes and digests then repeat exactly.
    os.chdir(ROOT)
    workdir = (OUT / f"work-{args.workload}-{args.seed}").relative_to(ROOT)
    try:
        inputs, setup_s, repeatable = setup(args.workload, args.seed, workdir)
        print(f"inputs: {args.workload} seed {args.seed} ops/round {len(inputs.ops)} "
              f"digest {inputs.digest}" + ("" if repeatable else " (NOT REPEATABLE)"))
        runner = Runner(glab, inputs.ops, workdir)
        if args.trace:
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            metrics, n_rounds, counts_repeat = traced(runner, args.seconds, span_path)
            print(f"trace: {n_rounds} rounds, spans of the first traced round in "
                  f"{span_path.relative_to(ROOT)}"
                  + ("" if counts_repeat else "; COUNTS DIFFER BETWEEN ROUNDS"))
        else:
            rounds = untraced(runner, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            op_walls = [t[WALL] for r in rounds for t in r]
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak, "MiB"),
                "round_cpu_s": (statistics.median(round_total(r, CPU) for r in rounds), "s"),
            }
            split = command_split(inputs.ops, rounds)
            split.update(
                rounds=len(rounds),
                round_cpu_each_s=[round(round_total(r, CPU), 4) for r in rounds],
                round_wall_s=statistics.median(round_total(r, WALL) for r in rounds),
                op_wall_p50_s=statistics.median(op_walls),
                op_wall_p95_s=statistics.quantiles(op_walls, n=20, method="inclusive")[-1])
            print("split: " + json.dumps(split, sort_keys=True))
        attempted, failed, problems = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems[:20]:
        print(f"failed: {line}")
    result = {
        "correct": repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
