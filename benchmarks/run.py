"""Benchmark of the oredango toolkit: one workload, one seed, one process.

    python3 benchmarks/run.py --workload reduced-decide --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.py` and BENCHMARK.json for why each exists):
reduced-decide, puzzle-batch and large-build.  Inputs come from `--seed`
only.  One caller runs operations back to back (a closed loop, one client,
one thread) for `--seconds` of wall time, and checks every output between
operations, outside the timed region, without the search engine.  The
package is imported from `src/` of the checkout holding this directory;
without it the run stops with exit code 2 and prints no result.

`--trace 0` reports the end-to-end metrics.  Times in them are CPU time:
of this one thread for operations and set-ups, of the child for cold
processes.  Nothing here waits on I/O or on another thread, so CPU time is
the wall time a user sees on a core of their own (the median ratio is
1.00), but it leaves out the milliseconds in which the hypervisor gives
the core to another guest, which otherwise make up a quarter of the
slowest 1% of puzzle-batch operations.  Every time is also scaled to a
reference host by `pace.Pace`: after each timed interval a fixed routine
that is not the program's runs for a quarter of the interval, and each
time is multiplied by the reference's speed over the host's speed measured
right beside it; cold CLI runs are scaled instead by cold runs of a fixed
reference process (see `ColdCli`).  Unscaled figures, wall time and the
host's speed factor are printed beside them.
  setup_s      median over several set-ups (spread over the run) of
               import, input generation and one warm-up operation
  ops_per_s    operations per second of (scaled) operation time
  op_ms.p50    median operation latency
  op_ms.tail   the workload's tail percentile (`tail_percentile`: the
               highest of p99/p95/p75 that leaves at least ten samples
               above it at the workload's usual sample count; fixed, so
               that it means the same in every run; the count above it
               is printed)
  peak_rss_mb  ru_maxrss of this process
  cli_ms.p50   median CPU time of a cold
               `python -m oredango.cli solve --count --limit 2 FILE`
               subprocess on puzzle boards drawn from the seed, scaled
               by the reference process's median
Failed operations (raised, or output failed its check) are the result's
`failed` out of `attempted`; a run with any failure is not `correct`.

`--trace 1` runs every operation twice, once plain and once with every
listed function wrapped (see `tracing.py`), alternating which goes first,
until `--seconds`/2 of plain operation time is spent.  It reports per
function calls, total and self seconds and errors, the work counts, the
tracing overhead (traced minus plain operation time over the same
operations) and, on reduced-decide, `ref.highs_s`: the median time of
scipy's HiGHS `milp` on the first 16 models (0 when scipy is missing and
on the other workloads; a feasibility disagreement is a failure).

The last stdout line is the JSON result.  Details, the determinism record
and the spans go to `benchmarks/out/`.  `--smoke` shrinks every input for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracing  # noqa: E402  (this directory is on sys.path as the script's)
from pace import Pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_ARGS = ("solve", "--count", "--limit", "2")
# A cold interpreter importing the standard modules the package imports,
# and its median CPU time on the reference host of `pace`.
REFERENCE_START = ("-c", "import argparse, dataclasses, enum, itertools, "
                         "pathlib, re, typing")
REFERENCE_START_MS = 80.0


def load_package():
    """Import `oredango` afresh from this checkout's src directory."""
    for key in [k for k in sys.modules
                if k == "oredango" or k.startswith("oredango.")]:
        del sys.modules[key]
    pkg = importlib.import_module("oredango")
    importlib.import_module("oredango.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "oredango":
        raise RuntimeError(f"imported oredango from {pkg.__file__}, "
                           f"not from {SRC}")
    return pkg


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of sorted samples."""
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Closed loop over a workload's items, checking every output."""

    def __init__(self, workload, pkg, items, tracer=None, on_first=None,
                 pace=None):
        self.workload, self.pkg, self.items = workload, pkg, items
        self.tracer = tracer
        self.pace = pace           # sampled right after each operation
        self.on_first = on_first   # called untimed with each new item's result
        self.walls: list[tuple[float, float]] = []   # wall start, end
        self.times: list[float] = []   # thread CPU seconds
        self.records: list[tuple[int, str]] = []
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[int, tuple] = {}   # item index -> (digest, ok)

    def _fail(self, k: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {k} (item {k % len(self.items)}): "
                                 f"{message}")

    def _timed(self, start: float, cpu: float) -> None:
        self.times.append(thread_time() - cpu)
        self.walls.append((start, perf_counter()))
        if self.pace is not None:
            self.pace.sample(self.times[-1])

    def step(self, k: int) -> None:
        index = k % len(self.items)
        item = self.items[index]
        run = self.workload.run
        start = perf_counter()
        cpu = thread_time()
        try:
            if self.tracer is None:
                result = run(self.pkg, item)
            else:
                result = self.tracer.op(k, run, self.pkg, item)
        except Exception as err:  # a failed operation, counted and reported
            self._timed(start, cpu)
            self._fail(k, f"raised {err!r}")
            return
        self._timed(start, cpu)
        self.records.append(self.workload.record(result))
        digest = self.workload.digest(result)
        if index in self.verdicts:
            first, ok = self.verdicts[index]
            if digest != first:
                self._fail(k, "output differs from an earlier run of the "
                              "same input")
            elif not ok:
                self._fail(k, "output failed its check on an earlier run")
            return
        try:
            problems = self.workload.check(self.pkg, item, result)
        except Exception as err:  # the check itself hit a broken output
            problems = [f"check raised {err!r}"]
        self.verdicts[index] = (digest, not problems)
        if problems:
            self._fail(k, "; ".join(problems[:3]))
        if self.on_first is not None:
            self.on_first(index, result)

    def run_for(self, seconds: float, chores=()) -> None:
        """Run for `seconds` of wall time, and at least one operation.  Each
        (function, count) chore is called `count` times at even intervals
        of the run, so it samples the whole run; it times itself and
        returns its duration, for which `pace` is sampled right after."""
        gc.collect()
        done = [0] * len(chores)
        k = 0
        begin = perf_counter()
        while True:
            spent = perf_counter() - begin
            due = [i for i, (_, count) in enumerate(chores)
                   if done[i] < count and spent >= done[i] * seconds / count]
            for i in due:
                self.pace.sample(chores[i][0]())
                done[i] += 1
            if due:
                gc.collect()   # the chore's garbage is not the next op's
                continue
            if spent >= seconds and k:
                return
            self.step(k)
            k += 1


def setup(workload, seed: int, smoke: bool):
    """Import, generate inputs and warm up once;
    ((wall start, wall end, CPU seconds), package, items)."""
    start = perf_counter()
    cpu = thread_time()
    pkg = load_package()
    items = workload.items(random.Random(f"{workload.name}:{seed}"), smoke)
    workload.run(pkg, workload.warm_item())
    return (start, perf_counter(), thread_time() - cpu), pkg, items


def cli_boards(pkg, seed: int, out: Path, smoke: bool):
    """Puzzle boards from the seed, written out, with the expected count."""
    rng = random.Random(f"cli:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    boards = []
    for i in range(5):
        planted = WORKLOADS["puzzle-batch"].planted(rng, smoke)
        path = out / f"cli-board-{i}.odg"
        path.write_text(planted.text)
        outcome = pkg.solver.enumerate(pkg.textio.parse_board(planted.text), 2)
        expected = ">=2" if outcome.status.value == "cap_reached" else "1"
        boards.append((path, expected))
    return boards


class ColdCli:
    """CPU milliseconds of cold CLI subprocesses on the given boards, each
    beside a cold run of the reference process, in alternating order.

    A cold process does not slow with the host the way `pace`'s routine
    does (start-up is partly kernel work), but it slows the way another
    cold Python process does: over stretches of a run, median CLI time
    over median reference time spreads a quarter as much as either."""

    def __init__(self, boards):
        self.boards = boards
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []       # milliseconds
        self.reference: list[float] = []   # milliseconds
        self.failed = 0
        self.problems: list[str] = []
        # untimed: writes bytecode, warms the file cache
        self._run(["-m", "oredango.cli", *CLI_ARGS, str(boards[0][0])])
        self._run(REFERENCE_START)

    def _run(self, args) -> tuple[float, subprocess.CompletedProcess]:
        """CPU milliseconds of the child, user and system, and its result."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=self.env, cwd=ROOT, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (after.ru_utime - before.ru_utime + after.ru_stime
                - before.ru_stime) * 1000.0, proc

    def scaled_p50(self) -> float:
        return (statistics.median(self.times) * REFERENCE_START_MS
                / statistics.median(self.reference))

    def sample(self) -> float:
        path, expected = self.boards[len(self.times) % len(self.boards)]
        cli = ["-m", "oredango.cli", *CLI_ARGS, str(path)]
        cli_first = len(self.times) % 2 == 0
        if cli_first:
            took, proc = self._run(cli)
        reference, ref_proc = self._run(REFERENCE_START)
        if not cli_first:
            took, proc = self._run(cli)
        self.times.append(took)
        self.reference.append(reference)
        if ref_proc.returncode != 0:
            self.failed += 1
            self.problems.append(f"reference process: exit "
                                 f"{ref_proc.returncode}")
        if proc.returncode != 0 or proc.stdout.strip() != expected:
            self.failed += 1
            self.problems.append(f"cli on {path.name}: exit {proc.returncode}, "
                                 f"printed {proc.stdout.strip()!r}, "
                                 f"expected {expected!r}")
        return (took + reference) / 1000.0


def cli_in_process(pkg, boards) -> tuple[int, list[str]]:
    """Run `cli.main` once per board in this process (traced run)."""
    failed, problems = 0, []
    for path, expected in boards:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = pkg.cli.main([*CLI_ARGS, str(path)])
        if code != 0 or captured.getvalue().strip() != expected:
            failed += 1
            problems.append(f"cli.main on {path.name}: exit {code}, "
                            f"printed {captured.getvalue().strip()!r}")
    return failed, problems


def highs_seconds(pkg, board) -> tuple[float, bool | None]:
    """Seconds scipy's HiGHS `milp` takes on the board's 0-1 model, and
    whether it found the model feasible; (0, None) without scipy."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_array
    except ImportError:
        return 0.0, None
    model = pkg.ilp.build_model(board)
    column = {name: i for i, (name, _) in enumerate(model.variables)}
    rows, cols, lower, upper = [], [], [], []
    for r, con in enumerate(model.constraints):
        rows += [r] * len(con.terms)
        cols += [column[t] for t in con.terms]
        lower.append(-np.inf if con.lower is None else con.lower)
        upper.append(np.inf if con.upper is None else con.upper)
    matrix = csr_array((np.ones(len(rows)), (rows, cols)),
                       shape=(len(model.constraints), len(column)))
    start = perf_counter()
    res = milp(np.asarray(model.objective, dtype=float),
               constraints=LinearConstraint(matrix, lower, upper),
               integrality=np.ones(len(column)), bounds=Bounds(0, 1),
               options={"time_limit": 60})
    elapsed = perf_counter() - start
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS ended with status {res.status}: "
                           f"{res.message}")
    return elapsed, res.status == 0


def determinism_record(workload, seed: int, records) -> dict:
    prefix = records[:workload.record_prefix]
    return {
        "workload": workload.name, "seed": seed, "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": len(records),
        "nodes_total": sum(n for n, _ in records),
        "statuses": dict(sorted(Counter(s for _, s in records).items())),
        "prefix_ops": len(prefix),
        "prefix_nodes": sum(n for n, _ in prefix),
        "prefix_statuses": dict(sorted(Counter(s for _, s in prefix).items())),
    }


def end_to_end(args, workload, out: Path):
    pace = Pace()
    first, pkg, items = setup(workload, args.seed, args.smoke)
    pace.sample(first[2])
    setups = [first]

    def another_setup() -> float:
        setups.append(setup(workload, args.seed, args.smoke)[0])
        return setups[-1][2]

    cli = ColdCli(cli_boards(pkg, args.seed, out, args.smoke))
    loop = Loop(workload, pkg, items, pace=pace)
    # Set-ups and CLI runs are spread over the loop, so that all metrics
    # sample the same stretch of time.  The set-ups made there are timed
    # and discarded.
    loop.run_for(args.seconds, [
        (cli.sample, 2 if args.smoke else 20),
        (another_setup, 1 if args.smoke else 3),
    ])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_ms = sorted(t * 1000.0 * pace.scale(*wall)
                   for wall, t in zip(loop.walls, loop.times))
    raw_ms = sorted(t * 1000.0 for t in loop.times)
    wall_ms = sorted((end - start) * 1000.0 for start, end in loop.walls)
    setup_s = [cpu * pace.scale(start, end) for start, end, cpu in setups]
    tail_p = workload.tail_percentile
    tail_ms = percentile(op_ms, tail_p)
    beyond = sum(1 for x in op_ms if x > tail_ms)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(op_ms) * 1000.0 / sum(op_ms), "1/s"),
        "op_ms.p50": (percentile(op_ms, 50.0), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_ms.p50": (cli.scaled_p50(), "ms"),
    }
    attempted = len(loop.times) + len(cli.times)
    failed = loop.failed + cli.failed
    notes = {
        "op_ms.tail": f"p{tail_p:g} of {len(op_ms)} samples, "
                      f"{beyond} above it"
                      + ("; fewer than ten" if beyond < 10 else "")
                      + f"; unscaled {percentile(raw_ms, tail_p):.4f}, wall "
                      f"{percentile(wall_ms, tail_p):.4f}",
        "ops_per_s": f"{len(op_ms)} operations in {sum(op_ms) / 1000:.3f} s "
                     f"of scaled, {sum(raw_ms) / 1000:.3f} s of unscaled "
                     f"operation time",
        "op_ms.p50": f"unscaled {percentile(raw_ms, 50.0):.4f}, wall "
                     f"{percentile(wall_ms, 50.0):.4f}",
        "setup_s": f"median of {len(setups)} set-ups; unscaled "
                   f"{statistics.median(cpu for _, _, cpu in setups):.4f}",
        "cli_ms.p50": f"{len(cli.times)} cold runs spread over the loop; "
                      f"unscaled {statistics.median(cli.times):.4f}, "
                      f"reference process "
                      f"{statistics.median(cli.reference):.4f}",
    }
    print(f"host speed: median reference repetition {pace.factor():.4f}x "
          f"the reference host's, over {len(pace.reps)} repetitions")
    record = determinism_record(workload, args.seed, loop.records)
    return metrics, notes, attempted, failed, loop.problems + cli.problems, record


def traced(args, workload, out: Path):
    """Per-layer run: each operation runs once plain and once traced, in
    alternating order, on two separately imported copies of the package,
    so the overhead is measured over the same operations at the same time."""
    _, plain_pkg, items = setup(workload, args.seed, args.smoke)
    _, traced_pkg, _ = setup(workload, args.seed, args.smoke)
    boards = cli_boards(plain_pkg, args.seed, out, args.smoke)

    fixed: dict[int, int] = {}
    highs: list[float] = []
    problems: list[str] = []
    highs_failed = 0

    def on_first(index: int, result) -> None:
        nonlocal highs_failed
        board = workload.board(result)
        fixed[index] = len(plain_pkg.solver.propagate(board, {}) or {})
        if not workload.highs_reference or len(highs) >= 16:
            return
        try:
            seconds, feasible = highs_seconds(plain_pkg, board)
        except RuntimeError as err:
            highs_failed += 1
            problems.append(f"item {index}: {err}")
            return
        if feasible is None:
            return
        highs.append(seconds)
        status = workload.record(result)[1]
        if feasible != (status == "sat"):
            highs_failed += 1
            problems.append(f"HiGHS says feasible={feasible} on item "
                            f"{index}, the solver says {status}")

    plain = Loop(workload, plain_pkg, items, on_first=on_first)
    tracer = tracing.Tracer()
    tracer.install(traced_pkg)
    try:
        loop = Loop(workload, traced_pkg, items, tracer=tracer)
        gc.collect()
        k = 0
        spent = 0.0
        while spent < args.seconds / 2.0:
            for side in ((plain, loop) if k % 2 else (loop, plain)):
                side.step(k)
            spent += plain.times[-1]
            k += 1
        tracer.op_id = -1
        cli_failed, cli_problems = cli_in_process(traced_pkg, boards)
    finally:
        tracer.uninstall()
    tracer.write_spans(out / f"spans-{workload.name}.tsv")
    count = k
    problems += cli_problems

    mismatched = sum(1 for index, verdict in loop.verdicts.items()
                     if plain.verdicts.get(index, verdict) != verdict)
    if mismatched:
        problems.append(f"{mismatched} items gave other outputs traced")
    tracer.counts["solver.fixed_at_root"] = sum(
        fixed.get(k % len(items), 0) for k in range(count))
    if workload.highs_reference and not highs:
        print("ref.highs_s skipped: scipy is missing")
    highs_s = statistics.median(highs) if highs else 0.0

    metrics = {}
    for name in tracing.NAMES:
        calls, total, self_s, errors = tracer.stats[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.errors"] = (errors, "count")
    units = {"ilp.lp_bytes": "bytes", "textio.bytes_in": "bytes",
             "textio.bytes_out": "bytes"}
    for name in tracing.COUNTS:
        metrics[name] = (tracer.counts[name], units.get(name, "count"))
    nodes = tracer.counts["solver.nodes"]
    run_self = tracer.stats["solver.BoundedCounts.run"][2]
    metrics["solver.us_per_node"] = (run_self / nodes * 1e6 if nodes else 0.0,
                                     "us")
    untraced_s, traced_s = sum(plain.times), sum(loop.times)
    metrics["trace.ops"] = (count, "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s,
                                       "ratio")
    metrics["ref.highs_s"] = (highs_s, "s")

    p50 = percentile(sorted(plain.times), 50.0)
    notes = {
        "trace.overhead_s": f"{traced_s:.3f} s traced vs {untraced_s:.3f} s "
                            f"untraced over the same {count} operations",
        "solver.BoundedCounts.run.self_s":
            f"{run_self / count * 1000:.3f} ms per operation, "
            f"{run_self / count / p50:.0%} of the untraced op_ms.p50",
    }
    if highs:
        notes["ref.highs_s"] = f"median of {len(highs)} HiGHS solves"
    print("wait: none to report; one process and one thread, no layer "
          "shares anything another waits on")
    attempted = count * 2 + len(boards)
    failed = plain.failed + loop.failed + cli_failed + highs_failed + mismatched
    record = determinism_record(workload, args.seed, loop.records)
    return (metrics, notes, attempted, failed,
            plain.problems + loop.problems + problems, record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "oredango" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    out = HERE / "out" / ("smoke" if args.smoke else "")
    out.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    metrics, notes, attempted, failed, problems, record = run(args, workload, out)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted})")
    for problem in problems:
        print("problem:", problem, file=sys.stderr)
    print("record", json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = dict(result, notes=notes, record=record, problems=problems)
    (out / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
