import random
import time
import tracemalloc
from itertools import groupby
from operator import itemgetter

import pytest

from conftest import fixture_text
from oredango import core, ilp, reduction, solver, textio
from oredango.core import (BLACK, Board, BoardError, Coloring, ColoringError,
                           build_board, check_coloring, triple_index)
from oracles import (listed_rules, listed_violations, random_board,
                     sized_instance)

PUBLISHED_BLACKS = [(1, 2), (1, 4), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3),
                    (4, 4)]


def coloring_of(board, blacks):
    return Coloring(frozenset(board.circles), frozenset(blacks))


def test_build_board_assembles_sample(sample_board):
    assert sample_board.rows == 4 and sample_board.cols == 4
    assert len(sample_board.circles) == 13
    # explicit skewers first, stored small-endpoint first, loners row-major
    assert list(sample_board.skewers) == [
        ((1, 3), (1, 2), (2, 1), (3, 2), (4, 1)),
        ((1, 4), (2, 3), (3, 4), (4, 3), (4, 2), (3, 1)),
        ((1, 1),),
        ((4, 4),),
    ]
    assert sample_board.clue_of(sample_board.skewers[0]) == 3
    assert sample_board.clue_of(sample_board.skewers[1]) == 4


def test_path_reversal_builds_the_same_board():
    circles = {(1, 1): None, (1, 2): None, (2, 3): 1}
    forward = build_board(2, 3, circles, [[(1, 1), (1, 2), (2, 3)]])
    backward = build_board(2, 3, circles, [[(2, 3), (1, 2), (1, 1)]])
    assert forward == backward


def test_circles_map_to_plain_clues(sample_board):
    expected = {}
    for line in fixture_text("sample4x4.odg").splitlines():
        if line.startswith("circle "):
            r, c, *clue = map(int, line.split()[1:])
            expected[(r, c)] = clue[0] if clue else None
    assert sample_board.circles == expected
    assert {type(clue) for clue in sample_board.circles.values()} \
        == {int, type(None)}


def test_reversed_path_is_stored_as_a_canonical_tuple():
    board = build_board(2, 3, {(1, 1): None, (1, 2): None, (2, 3): 1},
                        [[(2, 3), (1, 2), (1, 1)]])
    assert board.skewers == (((1, 1), (1, 2), (2, 3)),)
    assert type(board.skewers[0]) is tuple


def test_explicit_loner_path_joins_the_appendix():
    explicit = build_board(1, 3, dict.fromkeys([(1, 1), (1, 3)]), [[(1, 3)]])
    implicit = build_board(1, 3, dict.fromkeys([(1, 1), (1, 3)]))
    assert explicit == implicit
    assert explicit.skewers == (((1, 1),), ((1, 3),))


@pytest.mark.parametrize("rows,cols,circles,skewers,fragment", [
    (0, 3, {}, [], "at least 1x1"),
    (2, 2, {(1, 3): None}, [], "outside"),
    (2, 2, {1: None}, [], r"circle key 1 is not \(row, col\)"),
    (2, 2, {(1, 1): -1}, [], "negative clue"),
    (2, 2, {(1, 1): None}, [[(1, 1), (2, 2)], [(2, 2)]], "not a circle"),
    (2, 2, {(1, 1): None, (2, 2): None},
     [[(1, 1), (2, 2)], [(2, 2), (1, 1)]], "two skewers"),
    (2, 2, {(1, 1): None, (2, 2): None}, [[(1, 1), (2, 2), (1, 1)]],
     "repeats"),
    (3, 3, {(1, 1): None, (3, 3): None}, [[(1, 1), (3, 3)]], "jumps"),
    (2, 2, {(1, 1): 1, (2, 2): 1}, [[(1, 1), (2, 2)]], "two clues"),
    (2, 2, {(1, 1): 3, (2, 2): None}, [[(1, 1), (2, 2)]], "exceeds"),
    (1, 1, {(1, 1): 2}, [], "exceeds"),
    (2, 2, {(1,): None}, [], r"circle key \(1,\) is not \(row, col\)"),
    (2, 2, {(1, 1, 0): None}, [], r"circle key \(1, 1, 0\) is not"),
    (2, 2, {(1, 1): None}, [[]], "skewer 1 has an empty path"),
    (2, 2, {"ab": None}, [], "circle key 'ab' is not"),
    (2, 2, {(1, 1): 0.5}, [], r"clue 0\.5 at \(1, 1\) is not an int"),
    (2, 2, {(1, 1): True}, [], r"clue True at \(1, 1\) is not an int"),
    (2, 2, {(1, 1): "1"}, [], r"clue '1' at \(1, 1\) is not an int"),
    (2, 2, {(1.5, 2): None}, [], r"circle key \(1\.5, 2\) is not"),
    (2, 2, {(1, True): None}, [], r"circle key \(1, True\) is not"),
    # the first fault in mapping order, whichever kind it is
    (2, 2, {(1, 1): 1.0, (3, 3): None}, [], "is not an int"),
    (2, 2, {(3, 3): None, (1, 1): 1.0}, [], "outside"),
])
def test_build_board_rejections(rows, cols, circles, skewers, fragment):
    with pytest.raises(BoardError, match=fragment):
        build_board(rows, cols, circles, skewers)


@pytest.mark.parametrize("rows,cols,circles,skewers,message,coord,skewer", [
    # explicit skewers come before loners, whatever their row-major place
    (2, 3, {(1, 1): 2, (2, 2): 1, (2, 3): 1}, [[(2, 3), (2, 2)]],
     "skewer 1 carries two clues", (2, 3), 1),
    # loners in row-major order, not in mapping order
    (1, 3, {(1, 3): 2, (1, 1): 2}, [],
     "clue 2 at (1, 1) exceeds skewer size 1", (1, 1), 1),
    # a one-circle path becomes a loner numbered in the appendix
    (2, 3, {(1, 1): None, (1, 2): None, (1, 3): None, (2, 2): 2, (2, 3): 2},
     [[(2, 2)], [(1, 1), (1, 2)]],
     "clue 2 at (2, 2) exceeds skewer size 1", (2, 2), 3),
    # a structural fault on a later skewer beats a clue fault on an earlier
    (3, 3, {(1, 1): 1, (1, 2): 1, (3, 1): None, (3, 3): None},
     [[(1, 1), (1, 2)], [(3, 1), (3, 3)]],
     "skewer 2 jumps from (3,1) to (3,3)", (3, 3), 2),
    (2, 3, {(1, 1): 2, (2, 1): None, (2, 2): 3}, [[(2, 1), (2, 2)]],
     "clue 3 at (2, 2) exceeds skewer size 2", (2, 2), 1),
    (2, 3, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1, (2, 3): 3},
     [[(2, 1), (2, 2)], [(1, 2), (1, 1)]],
     "skewer 1 carries two clues", (2, 2), 1),
])
def test_build_board_reports_the_first_clue_fault(rows, cols, circles, skewers,
                                                  message, coord, skewer):
    with pytest.raises(BoardError) as caught:
        build_board(rows, cols, circles, skewers)
    assert (str(caught.value), caught.value.coord, caught.value.skewer) == (
        message, coord, skewer)


def test_board_rebuilds_from_its_own_fields(sample_board, pair_board):
    boards = [sample_board, pair_board]
    boards += [textio.parse_board(fixture_text(f"golden/{name}.odg"))
               for name in ("one-clause", "two-clauses", "three-clauses")]
    rng = random.Random(2211)
    boards += [random_board(rng) for _ in range(200)]
    for board in boards:
        assert build_board(board.rows, board.cols, board.circles,
                           board.skewers) == board


def test_board_keeps_the_callers_key_tuples():
    key = (1, 2)
    circles = {(1, 1): 1, key: None}
    board = build_board(1, 2, circles)
    kept, = (coord for coord in board.circles if coord == key)
    assert kept is key
    # a copy: the caller's later changes do not reach the board
    circles[1, 1] = None
    assert board.circles == {(1, 1): 1, (1, 2): None}


def test_triple_index_windows(sample_board):
    index = triple_index(sample_board)
    assert index.row_triples[0] == (
        ((1, 1), (1, 2), (1, 3)), ((1, 2), (1, 3), (1, 4)))
    assert index.row_triples[1] == ()  # two circles only
    # column 3 skips the empty cell (3, 3)
    assert index.col_triples[2] == (((1, 3), (2, 3), (4, 3)),)
    assert len(index.skewer_triples[0]) == 3
    assert len(index.skewer_triples[1]) == 4
    assert index.skewer_triples[2] == ()
    assert sum(len(w) for w in index.row_triples) == 5
    assert sum(len(w) for w in index.col_triples) == 5


def test_published_coloring_is_clean(sample_board):
    report = check_coloring(sample_board, coloring_of(sample_board,
                                                      PUBLISHED_BLACKS))
    assert report.ok
    assert len(report) == 0
    assert isinstance(report, tuple) and report.violations is report


def test_count_violations_are_exact(sample_board):
    coloring = textio.parse_coloring(fixture_text("sample4x4-wrong-counts.sol"),
                                     sample_board)
    report = check_coloring(sample_board, coloring)
    assert isinstance(report, tuple) and report.violations is report
    assert not report.ok
    assert [(v.rule, v.index, v.window, v.observed) for v in report] == [
        ("A", 2, None, 3),
        ("B", 1, 2, 3),
    ]
    assert report.violations[0].describe() == (
        "rule A skewer 2: 3 black, clue 4 at "
        "(1,4)(2,3)(3,4)(4,3)(4,2)(3,1)")
    assert report.violations[1].describe() == (
        "rule B skewer 1 window 2: 3 black at (1,2)(2,1)(3,2)")


def test_triple_violations_are_exact(sample_board):
    coloring = textio.parse_coloring(
        fixture_text("sample4x4-wrong-triples.sol"), sample_board)
    report = check_coloring(sample_board, coloring)
    assert [(v.rule, v.index, v.window, v.observed) for v in report] == [
        ("C", 3, 1, 0),
        ("C", 4, 1, 3),
        ("C", 4, 2, 3),
        ("D", 3, 1, 3),
    ]


def test_check_coloring_counts_without_a_tuple_per_entry(
        wide_reduced_board):
    board = wide_reduced_board
    coloring = solver.solve(board).solutions[0]
    assert check_coloring(board, coloring).ok   # fills the board's caches
    tracemalloc.start()
    try:
        report = check_coloring(board, coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    # one flag per circle and one count per entry, about 9 B an entry; a
    # tuple per entry costs 50 B or more
    assert peak < 20 * len(board.rules.lo)


def test_domain_mismatch_raises(sample_board):
    cells = sample_board.circles.keys() - {(4, 4), (1, 1)} | {(5, 5)}
    coloring = Coloring(frozenset(cells), frozenset({(5, 5)}))
    with pytest.raises(ColoringError) as caught:
        check_coloring(sample_board, coloring)
    assert str(caught.value) == (
        "coloring domain mismatch: missing [(1, 1), (4, 4)], extra [(5, 5)]")


def test_domain_mismatch_names_a_bounded_sample():
    board = reduction.reduce(
        sized_instance(random.Random(1), 40, 50, True)).board
    coords = board.row_major
    with pytest.raises(ColoringError) as caught:
        check_coloring(board, Coloring(frozenset(), frozenset()))
    message = str(caught.value)
    assert len(message) < 2000
    assert message == (f"coloring domain mismatch: missing {list(coords[:10])}"
                       f" (+{len(coords) - 10} more), extra []")


def test_rule_a_is_vacuous_without_a_clue():
    board = build_board(1, 2, dict.fromkeys([(1, 1), (1, 2)]),
                        [[(1, 1), (1, 2)]])
    for blacks in ([], [(1, 1)], [(1, 1), (1, 2)]):
        report = check_coloring(board, coloring_of(board, blacks))
        assert not [v for v in report if v.rule == "A"]


def test_row_major_order_is_sorted_once_and_shared():
    rng = random.Random(2207)
    for _ in range(40):
        board = random_board(rng)
        assert board.row_major == tuple(sorted(board.circles))
        # the board keeps one order
        assert board.row_major is board.row_major
        # no order handed over
        direct = Board(board.rows, board.cols, board.circles, board.skewers)
        assert direct.row_major == board.row_major


def test_color_flip_keeps_run_violations():
    rng = random.Random(4021)
    for _ in range(60):
        board = random_board(rng, max_circles=12)
        coords = board.row_major
        blacks = frozenset(c for c in coords if rng.random() < 0.5)
        domain = frozenset(coords)
        plain = check_coloring(board, Coloring(domain, blacks))
        flipped = check_coloring(board, Coloring(domain, domain - blacks))
        runs = lambda rep: [(v.rule, v.index, v.window) for v in rep
                            if v.rule != "A"]
        assert runs(plain) == runs(flipped)


def test_report_empty_iff_counts_in_window():
    rng = random.Random(515)
    for _ in range(80):
        board = random_board(rng, max_circles=12)
        coords = board.row_major
        coloring = Coloring(frozenset(coords),
                            frozenset(c for c in coords if rng.random() < 0.5))
        counts_ok = all(
            lo <= len(coloring.blacks.intersection(cells)) <= hi
            for _, _, _, cells, lo, hi in listed_rules(board))
        assert check_coloring(board, coloring).ok == counts_ok


def test_deleting_an_empty_row_preserves_the_report():
    rng = random.Random(99)
    trials = 0
    while trials < 30:
        board = random_board(rng, max_circles=10, max_side=4)
        empty = [r for r in range(1, board.rows + 1)
                 if not any(c[0] == r for c in board.circles)]
        if board.rows < 2 or not empty:
            continue
        trials += 1
        gone = empty[0]
        shift = lambda c: (c[0] - 1, c[1]) if c[0] > gone else c
        circles = {shift(c): board.circles[c] for c in board.row_major}
        skewers = [[shift(c) for c in path]
                   for path in board.skewers if len(path) >= 2]
        smaller = build_board(board.rows - 1, board.cols, circles, skewers)
        coords = board.row_major
        coloring = Coloring(frozenset(coords),
                            frozenset(c for c in coords if rng.random() < 0.5))
        moved = Coloring(frozenset(shift(c) for c in coloring.cells),
                         frozenset(shift(c) for c in coloring.blacks))
        before = [(v.rule, v.observed, tuple(shift(c) for c in v.cells))
                  for v in check_coloring(board, coloring)]
        after = [(v.rule, v.observed, v.cells)
                 for v in check_coloring(smaller, moved)]
        assert before == after


def assert_rules_match_listing(board):
    """`board.rules` equals the independent `listed_rules` field by field,
    the listing's coordinates turned into row-major indices."""
    rules = board.rules
    listing = listed_rules(board)
    index = {c: i for i, c in enumerate(board.row_major)}
    assert list(rules.cut(rules.cells)) == [
        tuple(map(index.__getitem__, entry[3])) for entry in listing]
    assert list(rules.lo) == [entry[4] for entry in listing]
    assert list(rules.hi) == [entry[5] for entry in listing]
    runs, first = [], 0
    for (rule, i), line in groupby(listing, key=itemgetter(0, 1)):
        n = len(list(line))
        runs.append((rule, i, first, n))
        first += n
    assert rules.runs == tuple(runs)


def test_constraints_match_clues_and_windows():
    rng = random.Random(2024)
    for _ in range(120):
        assert_rules_match_listing(random_board(rng))


@pytest.mark.parametrize("planted", [False, True])
def test_constraints_match_clues_and_windows_on_reduced_boards(planted):
    # loners and two-circle skewers only, unlike most random boards
    rng = random.Random(808 + planted)
    for _ in range(12):
        nvars = rng.randint(3, 8)
        instance = sized_instance(rng, nvars, rng.randint(nvars // 2 + 1, 8),
                                  planted)
        assert_rules_match_listing(reduction.reduce(instance).board)


def test_sample_constraints_in_report_order(sample_board):
    rules = sample_board.rules
    assert [rule for rule, _, _, n in rules.runs for _ in range(n)] \
        == ["A"] * 4 + ["B"] * 7 + ["C"] * 5 + ["D"] * 5
    first = tuple(map(sample_board.row_major.__getitem__,
                      list(rules.cut(rules.cells))[0]))
    assert (rules.runs[0], first, rules.lo[0], rules.hi[0]) \
        == (("A", 1, 0, 1), sample_board.skewers[0], 3, 3)


def test_constraints_are_cached(sample_board):
    assert sample_board.rules is sample_board.rules


def test_cached_constraints_leave_equality_alone():
    rng = random.Random(7)
    for _ in range(20):
        board = random_board(rng)
        board.rules
        fresh = Board(board.rows, board.cols, board.circles, board.skewers)
        assert "rules" not in vars(fresh)
        assert board == fresh and not board != fresh
        assert fresh.rules == board.rules


def shifted(board, rows, cols, dr, dc):
    """`board` moved down by dr and right by dc inside a rows x cols header."""
    def move(coord):
        return (coord[0] + dr, coord[1] + dc)
    circles = {move(c): clue for c, clue in board.circles.items()}
    paths = [[move(c) for c in path] for path in board.skewers if len(path) > 1]
    return build_board(rows, cols, circles, paths)


def test_constraints_skip_empty_lines_in_wide_headers():
    rng = random.Random(4)
    for _ in range(200):
        board = random_board(rng, max_circles=20, max_side=7)
        rows = rng.randint(board.rows, 5000)
        cols = rng.randint(board.cols, 5000)
        moved = shifted(board, rows, cols, rng.randint(0, rows - board.rows),
                        rng.randint(0, cols - board.cols))
        assert_rules_match_listing(moved)


def test_constraints_cost_follows_circles_not_header():
    side, mid = 10 ** 6, 500_000
    row = [(mid, mid), (mid, mid + 1), (mid, mid + 2)]
    col = [(mid, mid), (mid + 1, mid), (mid + 2, mid)]
    board = build_board(side, side, dict.fromkeys(sorted(set(row + col))))
    tracemalloc.start()
    try:
        rules = board.rules
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert rules.runs == (("C", mid, 0, 1), ("D", mid, 1, 1))
    assert list(rules.cut(map(board.row_major.__getitem__, rules.cells))) \
        == [tuple(row), tuple(col)]
    assert (list(rules.lo), list(rules.hi)) == ([1, 1], [2, 2])

    start = time.perf_counter()
    coloring = coloring_of(board, [(mid, mid + 1), (mid + 2, mid)])
    assert check_coloring(board, coloring).ok
    assert solver.solve(board).solutions
    assert solver.propagate(board, {(mid, mid): BLACK}) is not None
    assert "tr500000_1" in ilp.export_lp(ilp.build_model(board))
    assert time.perf_counter() - start < 1.0


def random_coloring(rng, board):
    coords = board.row_major
    return coloring_of(board, [c for c in coords if rng.random() < 0.5])


def test_violations_match_an_independent_listing():
    rng = random.Random(61)
    for _ in range(150):
        board = random_board(rng)
        coloring = random_coloring(rng, board)
        assert check_coloring(board, coloring).violations \
            == listed_violations(board, coloring)


def test_violations_match_an_independent_listing_in_wide_headers():
    rng = random.Random(62)
    for _ in range(100):
        board = random_board(rng, max_circles=20, max_side=7)
        rows = rng.randint(board.rows, 5000)
        cols = rng.randint(board.cols, 5000)
        moved = shifted(board, rows, cols, rng.randint(0, rows - board.rows),
                        rng.randint(0, cols - board.cols))
        coloring = random_coloring(rng, moved)
        assert check_coloring(moved, coloring).violations \
            == listed_violations(moved, coloring)


@pytest.mark.parametrize("flips", [0, 1, 3, 12])
def test_violations_match_an_independent_listing_on_reduced_boards(flips):
    rng = random.Random(630 + flips)
    broken = 0
    for _ in range(6):
        nvars = rng.randint(3, 8)
        instance = sized_instance(rng, nvars, rng.randint(nvars // 2 + 1, 8),
                                  planted=True)
        reduced = reduction.reduce(instance)
        board = reduced.board
        planted = reduction.assignment_to_coloring(
            reduced, reduction.enumerate_assignments(instance)[0])
        flipped = set(rng.sample(board.row_major, flips))
        coloring = coloring_of(board, planted.blacks ^ flipped)
        report = check_coloring(board, coloring)
        assert report.violations == listed_violations(board, coloring)
        broken += len(report)
    assert (broken == 0) == (flips == 0)


def value_case(name):
    """The contract table's row for the type `name`: its fields as given,
    in order; one field changed (None for a type equal by identity); the
    fields as stored where they differ from those given; whether it
    hashes; and a refused construction as (fields, exception, message),
    or None."""
    board = build_board(2, 3, {(1, 1): None, (1, 2): 1, (2, 3): 0},
                        [[(1, 1), (1, 2)]])
    rules = board.rules
    cells = frozenset(board.circles)
    windows = ((((1, 1), (1, 2), (1, 3)),),)
    refused = None
    stored = {}
    hashable = True
    if name == "Board":
        fields = dict(rows=2, cols=3, circles=board.circles,
                      skewers=board.skewers)
        changed, hashable = {"rows": 3}, False
    elif name == "Rules":
        fields = dict(cells=rules.cells, starts=rules.starts, lo=rules.lo,
                      hi=rules.hi, runs=rules.runs)
        changed, hashable = {"runs": ()}, False
    elif name == "Coloring":
        fields = dict(cells=cells, blacks=frozenset({(1, 2)}))
        changed = {"blacks": frozenset()}
        refused = (dict(cells=frozenset(), blacks=frozenset({(1, 1)})),
                   ColoringError, "black cells outside the colored domain")
    elif name == "TripleIndex":
        fields = dict(row_triples=windows, col_triples=(), skewer_triples=())
        changed = {"col_triples": windows}
    elif name == "Violation":
        fields = dict(rule="C", index=1, window=1, cells=windows[0][0],
                      observed=3, lo=1, hi=2)
        changed = {"window": 2}
    elif name == "SolveOutcome":
        fields = dict(status=solver.SolveStatus.SAT,
                      solutions=(Coloring(cells, frozenset()),), nodes=4)
        changed = {"nodes": 5}
    elif name == "ParseDiagnostic":
        fields = dict(line=3, column=0, message="m", structural=False)
        changed = {"structural": True}
    elif name == "OneInThreeInstance":
        fields = dict(nvars=3, clauses=((-3, 1, 2), (2, -1, 3)))
        stored = {"clauses": ((1, 2, -3), (-1, 2, 3))}
        changed = {"nvars": 4}
        refused = (dict(nvars=3, clauses=((1, 2, 3), (1, -1, 2))),
                   reduction.ReductionError,
                   "clause 2: same variable twice, not three distinct "
                   "variables")
    elif name == "ReducedPuzzle":
        fields = dict(board=board, literal_cells={(1, 1): (1, 1)},
                      variable_readout={1: (1, 1)})
        changed, hashable = {"variable_readout": {}}, False
    elif name == "VerificationResult":
        fields = dict(assignments=1, puzzle_solutions=1, problems=(),
                      capped=False)
        changed = {"problems": ("x",)}
    else:   # LinearModel compares by identity
        fields = dict(variables=(("x_1_1", (1, 1)),), rules=rules)
        changed = None
    return fields, changed, stored, hashable, refused


VALUE_TYPES = {
    "Board": core.Board, "Rules": core.Rules, "Coloring": core.Coloring,
    "TripleIndex": core.TripleIndex, "Violation": core.Violation,
    "SolveOutcome": solver.SolveOutcome,
    "ParseDiagnostic": textio.ParseDiagnostic,
    "OneInThreeInstance": reduction.OneInThreeInstance,
    "ReducedPuzzle": reduction.ReducedPuzzle,
    "VerificationResult": reduction.VerificationResult,
    "LinearModel": ilp.LinearModel,
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_keep_their_contracts(name):
    cls = VALUE_TYPES[name]
    fields, changed, stored, hashable, refused = value_case(name)
    value = cls(*fields.values())
    again = cls(**fields)
    for field, given in fields.items():
        assert getattr(value, field) == stored.get(field, given)
        with pytest.raises(AttributeError):
            setattr(value, field, given)
    if changed is None:
        assert value == value and value != again
        assert hash(value) != hash(again)
    else:
        other = cls(**{**fields, **changed})
        assert value == again and not value != again
        assert value != other and not value == other
        if hashable:
            assert hash(value) == hash(again)
        else:
            with pytest.raises(TypeError):
                hash(value)
    if refused is not None:
        bad, error, message = refused
        with pytest.raises(error) as caught:
            cls(**bad)
        assert type(caught.value) is error and str(caught.value) == message
    if name == "ParseDiagnostic":
        assert cls(3, 0, "m") == value   # `structural` defaults to False
    if name == "VerificationResult":
        assert cls(1, 1, ()) == value    # `capped` defaults to False
    # an unrelated type is left to its own comparison, and is unequal
    assert value != object() and not value == object()
    if name == "Coloring":
        with pytest.raises(KeyError):
            value[(9, 9)]
