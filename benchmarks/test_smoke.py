"""Fast checks of the benchmark harness itself, at smoke sizes.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import (WORKLOADS, brute_force_sat, exactly_one,  # noqa: E402
                       lp_problems, one_in_three_clauses, planted_board)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_run_reports_the_spec_metrics(workload, trace):
    result = json.loads(smoke(workload, trace).stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_same_seed_gives_same_nodes_and_statuses():
    def record(proc):
        line = next(l for l in proc.stdout.splitlines()
                    if l.startswith("record "))
        found = json.loads(line[len("record "):])
        return {k: found[k] for k in ("prefix_ops", "prefix_nodes",
                                      "prefix_statuses")}
    first = record(smoke("reduced-decide", 0, seed=3))
    assert first == record(smoke("reduced-decide", 0, seed=3))
    assert first["prefix_ops"] == WORKLOADS["reduced-decide"].record_prefix


def test_without_the_package_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "puzzle-batch", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_brute_force_matches_a_plain_scan():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 7)
        hidden = [rng.randint(0, 1) for _ in range(n)] if rng.random() < .5 else None
        # at least n/3 clauses, so that every variable can be used
        clauses = one_in_three_clauses(rng, n, rng.randint(n // 3 + 1, n + 2),
                                       hidden)
        plain = any(exactly_one(clauses, list(bits))
                    for bits in itertools.product((0, 1), repeat=n))
        assert brute_force_sat(n, clauses) == plain
        if hidden is not None:
            assert plain and exactly_one(clauses, hidden)


def test_planted_boards_solve_and_their_lp_accepts_only_solutions():
    from oredango import core, ilp, textio
    rng = random.Random(9)
    for _ in range(40):
        planted = planted_board(rng, 3, 8)
        board = textio.parse_board(planted.text)
        coloring = core.Coloring(planted.circles, planted.blacks)
        assert core.check_coloring(board, coloring).ok
        lp = ilp.export_lp(ilp.build_model(board))
        assert lp_problems(lp, planted.circles, planted.blacks) == []
        flipped = core.Coloring(planted.circles,
                                planted.blacks ^ planted.circles)
        broken = not core.check_coloring(board, flipped).ok
        assert bool(lp_problems(lp, planted.circles, flipped.blacks)) == broken


def test_pace_rates_an_interval_by_the_repetitions_beside_it():
    from pace import REFERENCE_REP_S, Pace
    pace = Pace()
    pace.sample(0.0)
    assert len(pace.reps) == 1
    # repetitions at 0.1 s steps, twice as slow from 1.0 s on
    pace.stamps = [i / 10 for i in range(20)]
    pace.reps = [REFERENCE_REP_S * (2 if i >= 10 else 1) for i in range(20)]
    assert pace.scale(0.3, 0.5) == 1.0
    assert pace.scale(1.4, 1.6) == 0.5
    # nothing within the margin: the nearest repetition after it
    pace.stamps, pace.reps = [0.0, 5.0], [REFERENCE_REP_S, 4 * REFERENCE_REP_S]
    assert pace.scale(2.0, 2.001) == 0.25
    assert pace.scale(6.0, 6.001) == 0.25
