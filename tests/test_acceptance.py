"""Acceptance checks, one test per shipped criterion.

Each test prints a single `criterion N: PASS` line once its assertions
hold, so a verbose run reads as a checklist.  Time budgets are asserted
where the criterion pins one.
"""

import random
import time

from conftest import FIXTURES, fixture_text
from oredango import cli, ilp, reduction, solver, textio
from oredango.core import Coloring, check_coloring
from oracles import (highs_point, literal_oracle, mask_oracle, random_board,
                     random_instance)


def passed(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


def test_criterion_1_sample_solves_and_checks_clean(sample_board):
    start = time.perf_counter()
    outcome = solver.solve(sample_board)
    assert outcome.status is solver.SolveStatus.SAT
    assert check_coloring(sample_board, outcome.solutions[0]).ok
    published = textio.parse_coloring(fixture_text("sample4x4.sol"),
                                      sample_board)
    assert check_coloring(sample_board, published).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"solved and checked the 4x4 sample in {elapsed:.3f}s")


def test_criterion_2_violations_are_discriminated_exactly(sample_board):
    counts = textio.parse_coloring(fixture_text("sample4x4-wrong-counts.sol"),
                                   sample_board)
    report = check_coloring(sample_board, counts)
    assert [(v.rule, v.index, v.window, v.observed) for v in report] == [
        ("A", 2, None, 3), ("B", 1, 2, 3)]
    assert {(v.rule, v.index) for v in report} == {("A", 2), ("B", 1)}

    triples = textio.parse_coloring(
        fixture_text("sample4x4-wrong-triples.sol"), sample_board)
    report = check_coloring(sample_board, triples)
    assert [(v.rule, v.index, v.window, v.observed) for v in report] == [
        ("C", 3, 1, 0), ("C", 4, 1, 3), ("C", 4, 2, 3), ("D", 3, 1, 3)]
    assert {(v.rule, v.index) for v in report} == {("C", 3), ("C", 4),
                                                   ("D", 3)}
    passed(2, "both wrong answers produce exactly the expected violations")


def test_criterion_3_pair_block_has_two_key_patterns(pair_board):
    outcome = solver.enumerate(pair_board, cap=100)
    oracle = literal_oracle(pair_board)
    assert len(outcome.solutions) == 2
    assert set(outcome.solutions) == oracle
    assert len(oracle) == 2
    passed(3, "2x3 block enumerates to exactly the 2 brute-forced patterns")


def test_criterion_4_reduction_end_to_end(capsys, tmp_path):
    start = time.perf_counter()
    cnf = str(FIXTURES / "three-clauses.c13")
    board_path = tmp_path / "reduced.odg"
    assert cli.main(["reduce", cnf, "-o", str(board_path)]) == 0
    assert cli.main(["solve", str(board_path), "--count"]) == 0
    assert capsys.readouterr().out == "1\n"

    instance = textio.parse_one_in_three(fixture_text("three-clauses.c13"))
    reduced = reduction.reduce(instance)
    outcome = solver.enumerate(reduced.board, cap=2)
    assert len(outcome.solutions) == 1
    assert reduction.coloring_to_assignment(reduced, outcome.solutions[0]) \
        == (1, 0, 0, 1)
    assert all(len(path) <= 2 for path in reduced.board.skewers)
    assert all(clue in (None, 0, 1)
               for clue in reduced.board.circles.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(4, f"reduce/solve/decode round trip in {elapsed:.3f}s")


def test_criterion_5_solver_equals_oracle_equals_ilp():
    # the ILP leg solves the exported LP text with HiGHS, an outside 0-1
    # solver, when scipy is installed
    try:
        import scipy  # noqa: F401
        highs = True
    except ImportError:
        highs = False
    rng = random.Random(19937)
    boards = feasible = 0
    while boards < 200:
        board = random_board(rng, max_circles=16)
        expected = mask_oracle(board)
        outcome = solver.enumerate(board, cap=1 << 17)
        assert outcome.status is not solver.SolveStatus.CAP_REACHED
        assert set(outcome.solutions) == expected

        if highs:
            model = ilp.build_model(board)
            point = highs_point(ilp.export_lp(model))
            assert (point is not None) == bool(expected)
            if point is not None:
                feasible += 1
                blacks = frozenset(coord for name, coord in model.variables
                                   if point[name])
                assert Coloring(frozenset(board.circles), blacks) in expected
        boards += 1
    ilp_leg = (f"HiGHS on the LP text finds a point in the oracle set on "
               f"all {feasible} feasible ones and none on the rest" if highs
               else "ILP leg not run: scipy (HiGHS) is not installed")
    passed(5, f"{boards} random boards agree across solver and oracle; "
              f"{ilp_leg}")


def test_criterion_6_reduction_bijection_holds_at_random():
    rng = random.Random(28462)
    start = time.perf_counter()
    for _ in range(100):
        instance = random_instance(rng, max_vars=4, max_clauses=4)
        result = reduction.verify_reduction(instance)
        assert result.ok, result.problems
        assert result.puzzle_solutions == result.assignments
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(6, f"100 random instances verified in {elapsed:.3f}s")


def test_criterion_7_ilp_census(sample_board):
    model = ilp.build_model(sample_board)
    assert len(model.variables) == 13
    equalities = [c for c in model.constraints if c.lower == c.upper]
    ranges = [c for c in model.constraints if c.lower != c.upper]
    assert len(equalities) == 4
    assert len(ranges) == 17
    prefixes = [c.name[:2] for c in ranges]
    assert (prefixes.count("tb"), prefixes.count("tr"),
            prefixes.count("tc")) == (7, 5, 5)
    text = ilp.export_lp(model)
    rows = [line for line in text.splitlines()
            if " = " in line or ">=" in line or "<=" in line]
    assert len(rows) == 38
    passed(7, "13 variables, 4 equalities, 17 ranges, 38 LP rows")


def test_criterion_8_another_solution_semantics(capsys, pair_board):
    pair = str(FIXTURES / "pairblock.odg")
    first = str(FIXTURES / "pairblock-first.sol")
    second = str(FIXTURES / "pairblock-second.sol")

    assert cli.main(["another", pair, first]) == 0
    assert capsys.readouterr().out == fixture_text("pairblock-second.sol")

    assert cli.main(["another", pair, first, second]) == 1
    assert capsys.readouterr().out == "NONE\n"

    zero_case = solver.another_solution(pair_board, [])
    assert zero_case == solver.solve(pair_board).solutions[0]
    passed(8, "another-solution walks, exhausts, and degenerates to solve")
