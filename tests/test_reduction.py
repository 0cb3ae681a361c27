import itertools
import random
import time

import pytest

from conftest import FIXTURES, fixture_text, reduce_without
from oredango import reduction, solver, textio
from oredango.core import Coloring, check_coloring
from oredango.core import build_board
from oredango.reduction import ReductionError
from oracles import random_instance, sized_instance

THREE_CLAUSE_MAP = """\
literal 1 1 1 2
literal 1 2 1 6
literal 1 3 1 10
literal 2 -1 5 3
literal 2 3 5 10
literal 2 4 5 14
literal 3 2 13 6
literal 3 -3 13 11
literal 3 -4 13 15
readout 1 3 3
readout 2 3 7
readout 3 3 11
readout 4 3 15
"""


@pytest.fixture
def three_clause():
    return textio.parse_one_in_three(fixture_text("three-clauses.c13"))


def test_clauses_are_int_tuples_sorted_by_variable():
    assert reduction.one_in_three(4, [(-3, 1, 2)]).clauses == ((1, 2, -3),)


def test_factory_normalizes_and_rejects():
    instance = reduction.one_in_three(4, [(-3, 1, 2), (4, -2, 1)])
    assert instance.clauses == ((1, 2, -3), (1, -2, 4))

    # each bad instance fails the same way through the factory and
    # through the instance itself
    for nvars, clauses, message in [
            (3, [(1, 0, 2)], "clause 1: zero literal"),
            (3, [(1, 2)], "clause 1: three literals"),
            (3, [(1, 2, 4)], "clause 1: literal 4 exceeds .* beyond 3"),
            (3, [(1, -1, 2)], "clause 1: same variable twice"),
            (-1, [], "variable count cannot be negative"),
            # int() would truncate these to (1, 2, 3) and (0, 2, 3)
            (3, [(1.9, "2", 3)], "clause 1: literal 1.9 is not an integer"),
            (3, [(0.5, 2, 3)], "clause 1: literal 0.5 is not an integer")]:
        for build in (reduction.one_in_three, reduction.OneInThreeInstance):
            with pytest.raises(ReductionError, match=f"^{message}"):
                build(nvars, tuple(clauses))


def test_reduce_names_few_unused_variables_in_bounded_time():
    instance = reduction.one_in_three(3_000_000, [(1, 2, 3)])
    start = time.perf_counter()
    with pytest.raises(ReductionError) as caught:
        reduction.reduce(instance)
    assert time.perf_counter() - start < 0.1
    assert str(caught.value) == ("variables in no clause: "
                                 "[4, 5, 6, 7, 8, 9, 10, 11, 12, 13] "
                                 "(+2999987 more)")
    spread = reduction.one_in_three(30, [(2, 9, 30)])
    with pytest.raises(ReductionError, match=r"clause: \[1, 3, 4, 5, 6, 7, 8, "
                       r"10, 11, 12\] \(\+17 more\)$"):
        reduction.reduce(spread)


def test_random_instance_returns_when_variables_outnumber_clauses():
    rng = random.Random(5)
    for args in ((7, 7), (12, 5)):
        for _ in range(200):
            instance = random_instance(rng, *args)
            used = {abs(lit) for clause in instance.clauses for lit in clause}
            assert used == set(range(1, instance.nvars + 1))


@pytest.mark.parametrize("planted", [False, True])
def test_sized_instance_returns_when_clauses_barely_cover_the_variables(
        planted):
    # 150 literal places for 80 variables: plain rejection sampling
    # ran for minutes here
    instance = sized_instance(random.Random(1), 80, 50, planted)
    used = {abs(lit) for clause in instance.clauses for lit in clause}
    assert (used, len(instance.clauses)) == (set(range(1, 81)), 50)
    with pytest.raises(ValueError, match="3 clauses cannot use 10 variables"):
        sized_instance(random.Random(1), 10, 3, planted)


def test_reduce_rejects_degenerate_instances():
    with pytest.raises(ReductionError, match="at least one clause"):
        reduction.reduce(reduction.one_in_three(3, []))
    with pytest.raises(ReductionError, match="at least one variable"):
        reduction.reduce(reduction.OneInThreeInstance(0, ()))
    with pytest.raises(ReductionError, match=r"in no clause: \[4\]"):
        reduction.reduce(reduction.one_in_three(4, [(1, 2, 3)]))
    # a bad clause fails where the instance is made, before `reduce`
    with pytest.raises(ReductionError, match="three distinct"):
        reduction.OneInThreeInstance(3, ((1, -1, 2),))
    with pytest.raises(ReductionError, match="beyond 2"):
        reduction.OneInThreeInstance(2, ((1, 2, 3),))


def test_reduce_takes_directly_built_unsorted_clauses():
    raw = ((-3, 2, 1), (4, -1, 3), (-4, 2, -3))
    direct = reduction.reduce(reduction.OneInThreeInstance(4, raw))
    normalized = reduction.reduce(reduction.one_in_three(4, raw))
    assert textio.write_board(direct.board) \
        == textio.write_board(normalized.board)
    assert reduction.format_reduction_map(direct) \
        == reduction.format_reduction_map(normalized)


def test_directly_built_instance_sorts_its_clauses():
    raw = ((-3, 2, 1), (4, -1, 3), (-4, 2, -3))
    direct = reduction.OneInThreeInstance(4, raw)
    assert direct == reduction.one_in_three(4, raw)
    assert textio.write_one_in_three(direct) \
        == "p 1in3 4 3\n1 2 -3 0\n-1 3 4 0\n2 -3 -4 0\n"


def test_reduced_board_dimensions(three_clause):
    reduced = reduction.reduce(three_clause)
    assert (reduced.board.rows, reduced.board.cols) == (14, 17)
    assert len(reduced.board.circles) == 97
    assert len(reduced.board.skewers) == 81


def test_dimension_formula_on_random_instances():
    rng = random.Random(52477)
    for _ in range(30):
        instance = random_instance(rng)
        reduced = reduction.reduce(instance)
        n = instance.nvars
        m = max(len(instance.clauses), 2)
        assert reduced.board.cols == 4 * n + 1
        assert reduced.board.rows == 4 * m - 2 + n * max(0, m - 2)


def test_reduced_boards_stay_within_target_fragment(three_clause):
    board = reduction.reduce(three_clause).board
    assert all(len(path) <= 2 for path in board.skewers)
    clues = {clue for clue in board.circles.values() if clue is not None}
    assert clues <= {0, 1}


def test_band_skewers_hold_their_circle_keys(three_clause):
    # one tuple per band circle: its skewer holds the board's own key
    rng = random.Random(3)
    for instance in [three_clause] + [random_instance(rng) for _ in range(5)]:
        board = reduction.reduce(instance).board
        keys = {coord: coord for coord in board.circles}
        pairs = [coord for path in board.skewers if len(path) == 2
                 for coord in path]
        assert pairs
        assert all(keys[coord] is coord for coord in pairs)


@pytest.mark.parametrize("name", ["three-clauses", "two-clauses",
                                  "one-clause"])
def test_reduce_reproduces_the_pinned_board_and_map(name):
    # three strips with spacer rows, two strips without, a doubled clause
    reduced = reduction.reduce(
        textio.parse_one_in_three(fixture_text(f"{name}.c13")))
    golden = FIXTURES / "golden"
    assert textio.write_board(reduced.board).encode() \
        == (golden / f"{name}.odg").read_bytes()
    assert reduction.format_reduction_map(reduced).encode() \
        == (golden / f"{name}.map").read_bytes()


def test_literal_cells_and_readout(three_clause):
    reduced = reduction.reduce(three_clause)
    assert reduction.format_reduction_map(reduced) == THREE_CLAUSE_MAP
    assert reduced.literal_cells[(1, 1)] == (1, 2)
    assert reduced.literal_cells[(2, -1)] == (5, 3)
    assert reduced.variable_readout == {1: (3, 3), 2: (3, 7),
                                        3: (3, 11), 4: (3, 15)}
    # clause i's literals sit in the i-th row whose anchor carries clue 1,
    # each in its literal's column
    circles = reduced.board.circles
    clause_rows = [r for r in range(1, reduced.board.rows + 1)
                   if circles.get((r, 1)) == 1]
    for (i, lit), (row, column) in reduced.literal_cells.items():
        assert column == 4 * abs(lit) - 2 + (lit < 0)
        assert row == clause_rows[i - 1]


def test_single_clause_is_doubled():
    instance = reduction.one_in_three(3, [(1, 2, 3)])
    reduced = reduction.reduce(instance)
    assert reduced.board.rows == 6
    assert set(reduced.literal_cells) == {(1, 1), (1, 2), (1, 3)}
    outcome = solver.enumerate(reduced.board, cap=10)
    assert len(outcome.solutions) == 3


@pytest.mark.parametrize("name", ["three-clauses", "two-clauses",
                                  "one-clause"])
def test_encoding_total_and_exact(name):
    instance = textio.parse_one_in_three(fixture_text(f"{name}.c13"))
    reduced = reduction.reduce(instance)
    domain = frozenset(reduced.board.circles)
    accepted = set(reduction.enumerate_assignments(instance))
    for bits in itertools.product((0, 1), repeat=instance.nvars):
        coloring = reduction.assignment_to_coloring(reduced, bits)
        assert coloring.cells == domain
        assert check_coloring(reduced.board, coloring).ok \
            == (bits in accepted)


def test_assignment_round_trip(three_clause):
    reduced = reduction.reduce(three_clause)
    coloring = reduction.assignment_to_coloring(reduced, (1, 0, 0, 1))
    assert reduction.coloring_to_assignment(reduced, coloring) == (1, 0, 0, 1)


def test_board_solution_decodes(three_clause):
    reduced = reduction.reduce(three_clause)
    outcome = solver.enumerate(reduced.board, cap=5)
    assert len(outcome.solutions) == 1
    assert reduction.coloring_to_assignment(reduced, outcome.solutions[0]) \
        == (1, 0, 0, 1)
    assert outcome.solutions[0] \
        == reduction.assignment_to_coloring(reduced, (1, 0, 0, 1))


def test_assignment_guards(three_clause):
    reduced = reduction.reduce(three_clause)
    with pytest.raises(ReductionError, match="covers 3 variables"):
        reduction.assignment_to_coloring(reduced, (1, 0, 0))
    # int() would truncate (1.7, 0.2, "0", 1) to the valid (1, 0, 0, 1)
    for bad in ((1, 0, 2, 0), (1.7, 0.2, "0", 1)):
        with pytest.raises(ReductionError, match="0 or 1"):
            reduction.assignment_to_coloring(reduced, bad)
    blank = Coloring(frozenset(reduced.board.circles), frozenset())
    with pytest.raises(ReductionError, match="does not solve"):
        reduction.coloring_to_assignment(reduced, blank)


def test_enumerate_assignments(three_clause):
    assert reduction.enumerate_assignments(three_clause) == [(1, 0, 0, 1)]
    lone = reduction.one_in_three(3, [(1, 2, 3)])
    assert reduction.enumerate_assignments(lone) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    wide = reduction.OneInThreeInstance(25, ())
    with pytest.raises(ReductionError, match="24 variables"):
        reduction.enumerate_assignments(wide)
    with pytest.raises(ReductionError, match="clause 2: zero literal"):
        reduction.OneInThreeInstance(3, ((1, 2, 3), (0, 1, 2)))


def test_verify_reduction_passes(three_clause):
    result = reduction.verify_reduction(three_clause)
    assert result.ok
    assert (result.assignments, result.puzzle_solutions) == (1, 1)
    assert result.problems == ()
    # `ok` is read from the problems, so the two cannot disagree
    assert not result._replace(problems=("x",)).ok


@pytest.mark.parametrize("cell,role,counts,problem", [
    ((2, 3), ("guard", -1), ("1", 2),
     "assignment (0, 0, 1, 0) encodes to a non-solution"),
    # three is the enumeration cap, one past the accepted count
    ((1, 6), ("clause", 2), (">=3", 2),
     "board solution decodes to rejected assignment (1, 1, 0, 0)"),
])
def test_verify_reduction_fails_without_a_literal_circle(monkeypatch, cell,
                                                         role, counts,
                                                         problem):
    instance = textio.parse_one_in_three(fixture_text("two-clauses.c13"))
    # both cells lie in the first strip: in its clause row, or in the
    # guard row below it, and in their literal's column
    kind, lit = role
    placed = reduction.reduce(instance).literal_cells
    clause_row = placed[(1, instance.clauses[0][0])][0]
    assert cell == (clause_row + (kind == "guard"),
                    4 * abs(lit) - 2 + (lit < 0))
    reduce_without(monkeypatch, cell)
    result = reduction.verify_reduction(instance)
    assert not result.ok
    assert (result.puzzle_count, result.assignments) == counts
    assert result.problems[0] == (f"board has {counts[0]} solutions, "
                                  f"instance accepts {counts[1]} assignments")
    assert problem in result.problems


def test_verify_reduction_reports_a_capped_count_as_at_least(monkeypatch):
    instance = textio.parse_one_in_three(fixture_text("two-clauses.c13"))
    reduce_without(monkeypatch, (1, 6))
    board = reduction.reduce(instance).board
    assert len(solver.enumerate(board, cap=1000).solutions) == 4
    result = reduction.verify_reduction(instance)
    # the enumeration stops at its cap, one past the 2 accepted assignments
    assert (result.puzzle_solutions, result.capped) == (3, True)
    assert result.puzzle_count == ">=3"
    assert result.problems[0] \
        == "board has >=3 solutions, instance accepts 2 assignments"


def _rebuilt(reduced, clues=None, widen=()):
    """`reduced` on a board whose clues `clues` overrides and whose first
    skewer starts with the circles `widen`, as a layout fault would."""
    board = reduced.board
    first, *rest = board.skewers
    skewers = [(*widen, *first)] + [path for path in rest if len(path) > 1]
    return reduced._replace(board=build_board(
        board.rows, board.cols, {**board.circles, **(clues or {})}, skewers))


def _refuse(*args):
    raise ReductionError("refused")


def _first_twice(honest):
    def faulty(board, cap):
        outcome = honest(board, cap)
        return outcome._replace(solutions=outcome.solutions[:1] * 2)
    return faulty


# two-clauses' accepted assignments, each mapped to the other
SWAPPED = {(0, 0, 1, 0): (1, 0, 0, 1), (1, 0, 0, 1): (0, 0, 1, 0)}


@pytest.mark.parametrize("cnf,target,fault,problems", [
    # the first band skewer, (3, 2)-(4, 3), takes the guard circle (2, 3)
    ("blocked", "reduce",
     lambda honest: lambda inst: _rebuilt(honest(inst), widen=[(2, 3)]),
     # which also lets the board solve
     ("skewer 1 threads 3 circles",
      "board has >=1 solutions, instance accepts 0 assignments",
      "board solution decodes to rejected assignment (1, 0, 1)")),
    ("blocked", "reduce",
     lambda honest: lambda inst: _rebuilt(honest(inst), clues={(3, 2): 2}),
     ("clue 2 at (3, 2) is outside {0, 1}",)),
    # the solver finds its first solution, of (1, 0, 0, 1), twice and
    # the second never
    ("two-clauses", "enumerate", _first_twice,
     ("encoding of (0, 0, 1, 0) missed by the solver",)),
    ("two-clauses", "assignment_to_coloring",
     lambda honest: lambda reduced, a: honest(reduced, SWAPPED[a]),
     ("assignment (0, 0, 1, 0) does not survive the round trip",
      "assignment (1, 0, 0, 1) does not survive the round trip",
      "board solution is not the canonical encoding of (1, 0, 0, 1)",
      "board solution is not the canonical encoding of (0, 0, 1, 0)")),
    ("two-clauses", "coloring_to_assignment", lambda honest: _refuse,
     ("assignment (0, 0, 1, 0) encodes to a non-solution",
      "assignment (1, 0, 0, 1) encodes to a non-solution",
      "solver produced a coloring that fails revalidation",
      "solver produced a coloring that fails revalidation")),
], ids=["long-skewer", "big-clue", "missed", "swapped", "revalidation"])
def test_verify_reduction_names_each_fault(monkeypatch, cnf, target, fault,
                                           problems):
    if cnf == "blocked":   # accepts no assignment; its board has no solution
        instance = reduction.one_in_three(3, [(1, 2, 3), (-1, -2, -3)])
    else:
        instance = textio.parse_one_in_three(fixture_text(f"{cnf}.c13"))
    module = solver if target == "enumerate" else reduction
    monkeypatch.setattr(module, target, fault(getattr(module, target)))
    result = reduction.verify_reduction(instance)
    assert result.problems == problems and result.ok is False


def test_verify_reduction_zero_solution_instances():
    blocked = reduction.one_in_three(3, [(1, 2, 3), (-1, -2, -3)])
    result = reduction.verify_reduction(blocked)
    assert result.ok
    assert (result.assignments, result.puzzle_solutions) == (0, 0)

    pinned = reduction.one_in_three(
        3, [(1, 2, 3), (-1, 2, 3), (1, -2, 3), (1, 2, -3)])
    assert reduction.enumerate_assignments(pinned) == []
    reduced = reduction.reduce(pinned)
    assert solver.solve(reduced.board).status is solver.SolveStatus.UNSAT
    result = reduction.verify_reduction(pinned)
    assert result.ok
    assert (result.assignments, result.puzzle_solutions) == (0, 0)


def test_duplicated_clause_instance():
    # an explicit duplicate clause is laid out as two strips, unlike the
    # automatic doubling of a lone clause, but accepts the same patterns
    twice = reduction.one_in_three(3, [(1, 2, 3), (1, 2, 3)])
    lone = reduction.one_in_three(3, [(1, 2, 3)])
    assert reduction.enumerate_assignments(twice) \
        == reduction.enumerate_assignments(lone)
    reduced = reduction.reduce(twice)
    assert len(solver.enumerate(reduced.board, cap=10).solutions) == 3
    assert set(reduced.literal_cells) == {
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}


def test_verify_reduction_doubled_clause():
    result = reduction.verify_reduction(reduction.one_in_three(3, [(1, 2, 3)]))
    assert result.ok
    assert (result.assignments, result.puzzle_solutions) == (3, 3)


def test_verify_reduction_limits():
    wide = reduction.one_in_three(7, [(1, 2, 3), (4, 5, 6), (5, 6, 7)])
    with pytest.raises(ReductionError, match="limited"):
        reduction.verify_reduction(wide)
    deep = reduction.one_in_three(3, [(1, 2, 3)] * 6)
    with pytest.raises(ReductionError, match="limited"):
        reduction.verify_reduction(deep)


def test_verify_reduction_on_random_instances():
    rng = random.Random(68000)
    for _ in range(40):
        result = reduction.verify_reduction(random_instance(rng))
        assert result.ok, result.problems
