"""Translation of 1-in-3 satisfiability into Oredango boards.

A 1-in-3 instance is a set of clauses, each holding three literals over
distinct variables; an assignment is accepted when every clause has
exactly one true literal.  `reduce` builds a board whose solutions match
the accepted assignments one for one, using only size-one and size-two
skewers and clues 0 and 1.

Layout.  The board has 4n+1 columns for n variables.  Column 1 and column
4n+1 are anchor columns; variable v owns four columns: 4v-2 carries the
positive literal, 4v-1 the negative one, 4v is a separator colored black
inside pair bands, and 4v+1 (absent for the last variable) a separator
colored white there.  Rows top to bottom interleave three kinds of block:

* a clause strip per clause: a clause row holding black anchors (clue 1)
  and one circle per literal, then a guard row holding white anchors
  (clue 0) and, for the clause's first and third literals by column
  order, a circle in the complementary literal column;
* a pair band between consecutive strips: per variable, two crossed
  size-two skewers over the literal columns with clue 1 on each circle of
  the positive column, forcing the negative column to copy the variable's
  value and the positive column its complement;
* spacer rows above every band except the first: one row per variable
  carrying whatever literal-column circles the strip above did not
  provide, so that between two bands each literal column holds exactly
  one circle, plus separator circles (clue 0 under column 4v, clue 1
  under 4v+1) that keep the separator columns legal.

Column windows then pin every literal-column circle outside the bands to
the value of that column's literal, the clause row forbids two adjacent
true literals and a uniform clause, and the guard row forbids the outer
pair of literals from being true together: exactly one literal per clause
is true.  A single-clause instance is laid out with the clause doubled,
which leaves the accepted assignments unchanged.  Each variable's value
is read back from its negative-literal circle in row 3, the top row of
the first band.

The canonical encoding of an assignment reads each circle's colour from
the board alone: a clued loner (an anchor or a separator) is black for
clue 1; any other circle sits in a literal column and is black when that
literal is true, or on a band's two-circle skewer when it is false.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import solver
from .core import (BLACK, Board, Coloring, Coord, Frozen, _collector_paused,
                   build_board, capped_list, check_coloring)


class ReductionError(ValueError):
    """The instance or assignment violates the translation's contract."""


# A literal is a signed variable number: v or -v for variable v >= 1.
Clause = tuple[int, int, int]


class OneInThreeInstance(Frozen):
    """Normalized instance: each clause a tuple of three signed literals
    sorted by variable (`sorted(literals, key=abs)`).

    The instance checks itself when it is made: a negative `nvars`, or a
    clause with any finding of `clause_findings`, raises ReductionError
    (the first finding, as `clause <k>: …`) before the clauses are sorted.
    So every instance in hand holds valid clauses, and one built directly
    equals the one `one_in_three` builds from the same clauses.
    Instances compare and hash on `(nvars, clauses)`.
    """

    nvars: int
    clauses: tuple[Clause, ...]

    def __init__(self, nvars, clauses):
        if nvars < 0:
            raise ReductionError("variable count cannot be negative")
        for pos, clause in enumerate(clauses, start=1):
            findings = clause_findings(clause, nvars)
            if findings:
                raise ReductionError(f"clause {pos}: {findings[0][1]}")
        vars(self).update(nvars=nvars, clauses=tuple(
            tuple(sorted(clause, key=abs)) for clause in clauses))


def clause_findings(clause: Sequence[int], nvars: int) -> list[tuple[int, str]]:
    """Every way a clause of signed literals breaks the 1-in-3 contract
    over variables 1..nvars, as (literal position from 0, message)."""
    if len(clause) != 3:
        return [(0, f"three literals needed, found {len(clause)}")]
    found = []
    for k, lit in enumerate(clause):
        if type(lit) is not int:
            found.append((k, f"literal {lit!r} is not an integer"))
        elif lit == 0:
            found.append((k, "zero literal (variables count from 1)"))
        elif abs(lit) > nvars:
            found.append((k, f"literal {lit} exceeds the {nvars} declared "
                             f"variables (variable {abs(lit)} is beyond {nvars})"))
    if not found and len({abs(lit) for lit in clause}) != 3:
        found.append((0, "same variable twice, not three distinct variables"))
    return found


def one_in_three(nvars: int,
                 clauses: Iterable[Iterable[int]]) -> OneInThreeInstance:
    """Build a normalized instance from clauses of signed int literals;
    the instance checks them as it is made."""
    return OneInThreeInstance(nvars, tuple(map(tuple, clauses)))


class ReducedPuzzle(NamedTuple):
    board: Board
    literal_cells: Mapping[tuple[int, int], Coord]
    variable_readout: Mapping[int, Coord]


# Most circles `reduce` lays out: about 4.7 times the board of 120
# variables and 150 clauses.  7.4 million took 30.7 s and 2.2 GB.
MAX_REDUCED_CIRCLES = 1_000_000


def _board_circles(nvars: int, nclauses: int) -> int:
    """Circles of the board `reduce` lays out for an instance of this size:
    9 per clause strip, 8n-2 per pair band (four literal circles and two
    rows of separators per variable) and 4n-6 per spacer block (the 2n-5
    literal circles its strip leaves out, and 2n-1 separators)."""
    m = max(2, nclauses)
    return 9 * m + (m - 1) * (8 * nvars - 2) + (m - 2) * (4 * nvars - 6)


def _col(lit: int) -> int:
    return 4 * abs(lit) - 2 + (lit < 0)


@_collector_paused
def reduce(instance: OneInThreeInstance) -> ReducedPuzzle:
    """Translate an instance into a board with matching solutions.

    The board spans 4m-2 + n*max(0, m-2) rows and 4n+1 columns, where m
    is the laid-out clause count (a lone clause is doubled).  The clauses
    were checked when the instance was made; raises ReductionError for an
    instance without variables or clauses, with variables in no clause, or
    whose board would hold more than MAX_REDUCED_CIRCLES circles.
    """
    n = instance.nvars
    if n < 1:
        raise ReductionError("an instance needs at least one variable")
    if not instance.clauses:
        raise ReductionError("an instance needs at least one clause")
    used = {abs(lit) for clause in instance.clauses for lit in clause}
    if len(used) != n:
        unused = (v for v in range(1, n + 1) if v not in used)
        raise ReductionError("variables in no clause: "
                             + capped_list(unused, n - len(used)))
    size = _board_circles(n, len(instance.clauses))
    if size > MAX_REDUCED_CIRCLES:
        raise ReductionError(f"the board would hold {size} circles, over the "
                             f"limit of {MAX_REDUCED_CIRCLES}")

    clauses = list(instance.clauses)
    doubled = len(clauses) == 1
    if doubled:
        clauses.append(clauses[0])
    m = len(clauses)
    right = 4 * n + 1

    circles: dict[Coord, int | None] = {}
    skewers: list[list[Coord]] = []
    literal_cells: dict[tuple[int, int], Coord] = {}
    r = 0
    # Blocks top to bottom as the module docstring lays them out; the
    # last clause's strip closes the board.
    for i, clause in enumerate(clauses, start=1):
        # sorted by variable, so already in column order (`_col` grows with it)
        r += 1
        circles[r, 1] = circles[r, right] = 1
        for lit in clause:
            cell = (r, _col(lit))
            circles[cell] = None
            literal_cells.setdefault((1 if doubled else i, lit), cell)
        r += 1
        guards = (-clause[0], -clause[2])
        circles[r, 1] = circles[r, right] = 0
        for lit in guards:
            circles[r, _col(lit)] = None
        if i == m:
            break

        if i > 1:
            # spacer rows fill the literal columns this strip left empty
            taken = {_col(lit) for lit in (*clause, *guards)}
            for v in range(1, n + 1):
                r += 1
                for column in (4 * v - 2, 4 * v - 1):
                    if column not in taken:
                        circles[r, column] = None
                circles[r, 4 * v] = 0
                if v < n:
                    circles[r, 4 * v + 1] = 1

        # the pair band, rows t and r
        t, r = r + 1, r + 2
        for v in range(1, n + 1):
            pos, neg = 4 * v - 2, 4 * v - 1
            # one tuple per band circle, its key and its place on a skewer,
            # so the board holds each band coordinate once
            tp, rp, tn, rn = (t, pos), (r, pos), (t, neg), (r, neg)
            circles[tp] = circles[rp] = 1
            circles[tn] = circles[rn] = None
            circles[t, 4 * v] = circles[r, 4 * v] = 1
            skewers += [[tp, rn], [rp, tn]]
            if v < n:
                circles[t, 4 * v + 1] = circles[r, 4 * v + 1] = 0

    board = build_board(r, right, circles, skewers)
    # row 3 is the top row of the first band, below the first strip
    readout = {v: (3, 4 * v - 1) for v in range(1, n + 1)}
    return ReducedPuzzle(board, literal_cells, readout)


def _values(instance_size: int, assignment: Sequence[int]) -> list[int]:
    if len(assignment) != instance_size:
        raise ReductionError(f"assignment covers {len(assignment)} variables, "
                             f"board encodes {instance_size}")
    # test the raw values, so that int() truncates nothing
    if any(v not in (0, 1) for v in assignment):
        raise ReductionError("assignment values must be 0 or 1")
    return list(map(int, assignment))


@_collector_paused
def assignment_to_coloring(reduced: ReducedPuzzle,
                           assignment: Sequence[int]) -> Coloring:
    """Canonical coloring encoding an assignment.

    Total for every 0/1 vector of the right length, and any other value
    (2, 1.7 or "0") raises ReductionError; the result solves the board
    exactly when the assignment satisfies the source instance.
    """
    values = _values(len(reduced.variable_readout), assignment)
    # true[c]: the truth of column c's literal, 0 in the other columns
    true = [0, 0] + [x for b in values for x in (b, b ^ 1, 0, 0)]
    circles = reduced.board.circles
    blacks = []
    for path in reduced.board.skewers:
        if len(path) == 2:
            for cell in path:
                if not true[cell[1]]:
                    blacks.append(cell)
        else:
            cell, = path
            clue = circles[cell]
            if true[cell[1]] if clue is None else clue:
                blacks.append(cell)
    return Coloring(frozenset(circles), frozenset(blacks))


@_collector_paused
def coloring_to_assignment(reduced: ReducedPuzzle,
                           coloring: Coloring) -> tuple[int, ...]:
    """Read the encoded assignment back from a solving coloring.

    Raises ReductionError when the coloring does not solve the board, and
    ColoringError when it colours other circles than the board's.
    """
    report = check_coloring(reduced.board, coloring)
    if not report.ok:
        raise ReductionError("coloring does not solve the reduced board: "
                             + report[0].describe())
    readout = reduced.variable_readout
    return tuple(1 if coloring[readout[v]] == BLACK else 0
                 for v in sorted(readout))


def enumerate_assignments(instance: OneInThreeInstance) -> list[tuple[int, ...]]:
    """All accepted assignments by exhaustive scan, lexicographic order."""
    if instance.nvars > 24:
        raise ReductionError("exhaustive scan is limited to 24 variables")
    accepted = []
    for bits in itertools.product((0, 1), repeat=instance.nvars):
        if all(sum(bits[abs(lit) - 1] ^ (lit < 0) for lit in clause) == 1
               for clause in instance.clauses):
            accepted.append(bits)
    return accepted


class VerificationResult(NamedTuple):
    """Outcome of an exhaustive instance/board cross-check: it passes
    when it found no problems."""

    assignments: int
    puzzle_solutions: int
    problems: tuple[str, ...]
    # True when the enumeration cap, one past `assignments`, stopped the
    # count: the board has `puzzle_solutions` solutions or more
    capped: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def puzzle_count(self) -> str:
        """`puzzle_solutions` as reported, `>=N` when capped."""
        return solver.count_text(self.puzzle_solutions, self.capped)


@_collector_paused
def verify_reduction(instance: OneInThreeInstance) -> VerificationResult:
    """Prove the translation exact for one small instance.

    Enumerates both sides, checks the counts agree, that the two mapping
    directions are mutual inverses, and that the board keeps to size-two
    skewers and clues 0 and 1.  Limited to 6 variables and 5 clauses.
    """
    if instance.nvars > 6 or len(instance.clauses) > 5:
        raise ReductionError("verification is exhaustive; limited to "
                             "6 variables and 5 clauses")
    reduced = reduce(instance)
    board = reduced.board
    problems: list[str] = []

    for k, path in enumerate(board.skewers, start=1):
        if len(path) > 2:
            problems.append(f"skewer {k} threads {len(path)} circles")
    for coord in board.row_major:
        clue = board.circles[coord]
        if clue is not None and clue not in (0, 1):
            problems.append(f"clue {clue} at {coord} is outside {{0, 1}}")

    accepted = enumerate_assignments(instance)
    outcome = solver.enumerate(board, cap=len(accepted) + 1)
    solutions = list(outcome.solutions)
    capped = outcome.status is solver.SolveStatus.CAP_REACHED
    if len(solutions) != len(accepted):
        shown = solver.count_text(len(solutions), capped)
        problems.append(f"board has {shown} solutions, instance "
                        f"accepts {len(accepted)} assignments")

    solution_set = set(solutions)
    accepted_set = set(accepted)
    for assignment in accepted:
        coloring = assignment_to_coloring(reduced, assignment)
        try:
            decoded = coloring_to_assignment(reduced, coloring)
        except ReductionError:
            problems.append(f"assignment {assignment} encodes to a "
                            "non-solution")
            continue
        if coloring not in solution_set and len(solutions) == len(accepted):
            problems.append(f"encoding of {assignment} missed by the solver")
        if decoded != assignment:
            problems.append(f"assignment {assignment} does not survive the "
                            "round trip")
    for coloring in solutions:
        try:
            assignment = coloring_to_assignment(reduced, coloring)
        except ReductionError:
            problems.append("solver produced a coloring that fails revalidation")
            continue
        if assignment not in accepted_set:
            problems.append(f"board solution decodes to rejected "
                            f"assignment {assignment}")
        elif assignment_to_coloring(reduced, assignment) != coloring:
            problems.append(f"board solution is not the canonical encoding "
                            f"of {assignment}")

    return VerificationResult(len(accepted), len(solutions), tuple(problems),
                              capped)


def format_reduction_map(reduced: ReducedPuzzle) -> str:
    """Plain-text cell map: literal placements, then readout cells."""
    lines = []
    ordered = sorted(reduced.literal_cells.items(),
                     key=lambda item: (item[0][0], item[1][1]))
    for (i, lit), (row, column) in ordered:
        lines.append(f"literal {i} {lit} {row} {column}")
    for v in sorted(reduced.variable_readout):
        row, column = reduced.variable_readout[v]
        lines.append(f"readout {v} {row} {column}")
    return "\n".join(lines) + "\n"
