import random
import tracemalloc

import pytest

from conftest import fixture_text
from oredango import reduction, solver, textio
from oredango.core import Coloring, ColoringError, build_board
from oracles import random_board, random_instance


def diag_tuples(err):
    return [(d.line, d.column, d.structural) for d in err.value.diagnostics]


def test_parse_board_matches_direct_construction(sample_board):
    direct = build_board(4, 4, {
        (1, 1): 0, (1, 2): None, (1, 3): None, (1, 4): 4, (2, 1): 3,
        (2, 3): None, (3, 1): None, (3, 2): None, (3, 4): None, (4, 1): None,
        (4, 2): None, (4, 3): None, (4, 4): 1,
    }, [
        [(4, 1), (3, 2), (2, 1), (1, 2), (1, 3)],
        [(3, 1), (4, 2), (4, 3), (3, 4), (2, 3), (1, 4)],
    ])
    assert sample_board == direct


def test_parser_tolerates_noise(sample_board):
    messy = ("# leading comment\r\n\r\n  rows 4\r\ncols   4\n\n"
             + "\n".join(line for line in
                         fixture_text("sample4x4.odg").splitlines()[3:])
             + "\r\n# trailing\r\n")
    assert textio.parse_board(messy) == sample_board


def test_board_write_parse_round_trip(sample_board, pair_board):
    rng = random.Random(7311)
    boards = [sample_board, pair_board, build_board(1, 1, {})]
    boards += [random_board(rng) for _ in range(40)]
    for board in boards:
        text = textio.write_board(board)
        again = textio.parse_board(text)
        assert again == board
        assert textio.write_board(again) == text
        assert "\r" not in text


def test_write_board_canonical_shape():
    board = build_board(1, 1, {})
    assert textio.write_board(board) == "rows 1\ncols 1\n"


def test_board_grammar_diagnostics():
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board("cols 4\nrows 4\n")
    assert "expected `rows" in str(err.value)
    assert not err.value.structural

    bad = ("rows 2\ncols 2\ncircle 1 one\ncircle 9\nwidget 1\n"
           "circle 1 1\ncircle 1 1\nskewer 1 1\nskewer 1 1 2 2 3\n"
           "skewer 1 1 2 2\nrows 2\n")
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(bad)
    messages = [d.message for d in err.value.diagnostics]
    assert any("not an integer: `one`" in m for m in messages)
    assert any("takes `circle" in m for m in messages)
    assert any("unknown directive `widget`" in m for m in messages)
    assert any("already declared" in m for m in messages)
    assert any("two or more" in m for m in messages)
    assert any("undeclared circle (2, 2)" in m for m in messages)
    assert any("duplicate `rows`" in m for m in messages)
    assert not err.value.structural
    # positions point into the source
    lines = {d.message: d.line for d in err.value.diagnostics}
    assert lines["not an integer: `one`"] == 3
    by_line3 = [d for d in err.value.diagnostics if d.line == 3]
    assert by_line3[0].column == 10


def test_missing_headers_rejected():
    with pytest.raises(textio.ParseError, match="missing `rows` header"):
        textio.parse_board("# nothing\n")
    # at the last significant line, or at line 1 when there is none
    for text, line, header in [
            ("", 1, "rows"), ("# nothing\n\n", 1, "rows"),
            ("rows 2\n", 1, "cols"),
            ("# head\n\nrows 2\n# tail\n\n", 3, "cols")]:
        with pytest.raises(textio.ParseError) as err:
            textio.parse_board(text)
        assert [(d.line, d.message) for d in err.value.diagnostics] == [
            (line, f"missing `{header}` header")]


@pytest.mark.parametrize("text,line,column,header", [
    ("rows\ncols 2\n", 1, 1, "rows"),
    ("rows 2 3\ncols 2\n", 1, 1, "rows"),
    ("rows 2\n# c\n  cols x\n", 3, 3, "cols"),
])
def test_header_takes_exactly_one_integer(text, line, column, header):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(text)
    assert not err.value.structural
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (line, column, f"`{header}` header takes one integer")]


@pytest.mark.parametrize("text,fragment", [
    ("rows 2\ncols 2\ncircle 1 1 5\n", "exceeds"),
    ("rows 2\ncols 2\ncircle 1 3\n", "outside"),
    ("rows 3\ncols 3\ncircle 1 1\ncircle 3 3\nskewer 1 1 3 3\n", "jumps"),
    ("rows 2\ncols 2\ncircle 1 1 1\ncircle 2 2 1\nskewer 1 1 2 2\n",
     "two clues"),
])
def test_board_structural_diagnostics(text, fragment):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(text)
    assert err.value.structural
    assert fragment in str(err.value)
    assert err.value.diagnostics[0].line > 0


@pytest.mark.parametrize("text,line,message", [
    # a circle after the first, with comment lines before it
    ("# a board\nrows 2\ncols 2\ncircle 1 1\n# off the grid\n\n"
     "circle 3 1\n", 7, "circle (3, 1) outside 2x2 grid"),
    ("rows 2\ncols 2\ncircle 1 1\n\ncircle 2 2 -1\ncircle 1 2\n", 5,
     "negative clue at (2, 2)"),
    # a loner is numbered after the skewer lines, so its circle's line
    # is the one reported
    ("rows 2\ncols 3\ncircle 1 1\ncircle 2 2\n# a loner\ncircle 1 3 2\n"
     "skewer 1 1 2 2\n", 6, "clue 2 at (1, 3) exceeds skewer size 1"),
    ("rows 3\ncols 3\ncircle 1 1\ncircle 2 2\ncircle 1 3\ncircle 3 1\n"
     "skewer 1 1 2 2\n# the second skewer\nskewer 1 3 3 1\n", 9,
     "skewer 2 jumps from (1,3) to (3,1)"),
    ("rows 2\ncols 2\ncircle 1 1 1\ncircle 2 2\ncircle 1 2 1\n"
     "circle 2 1 1\nskewer 1 1 2 2\n\nskewer 1 2 2 1\n", 9,
     "skewer 2 carries two clues"),
])
def test_board_structural_fault_points_at_its_line(text, line, message):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(text)
    assert err.value.structural
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [(line, 0, message)]


@pytest.mark.parametrize("text,line,grid", [
    ("rows 0\ncols 3\n", 1, "0x3"),
    ("# header\nrows 2\n\ncols -1\ncircle 1 1\n", 4, "2x-1"),
])
def test_grid_size_fault_points_at_its_header(text, line, grid):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(text)
    assert err.value.structural
    assert [(d.line, d.message) for d in err.value.diagnostics] == [
        (line, f"grid must be at least 1x1, got {grid}")]


def test_skewer_must_follow_its_circles():
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board("rows 1\ncols 2\nskewer 1 1 1 2\n"
                           "circle 1 1\ncircle 1 2\n")
    assert not err.value.structural
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (3, 8, "skewer visits undeclared circle (1, 1)"),
        (3, 12, "skewer visits undeclared circle (1, 2)")]


def test_parse_coloring_reads_grid(sample_board):
    coloring = textio.parse_coloring(fixture_text("sample4x4.sol"),
                                     sample_board)
    assert coloring[(1, 1)] == "W"
    assert coloring[(4, 4)] == "B"
    assert len(coloring.blacks) == 8


def test_coloring_round_trip(sample_board):
    text = fixture_text("sample4x4.sol")
    coloring = textio.parse_coloring(text, sample_board)
    written = textio.write_coloring(coloring, sample_board)
    assert textio.parse_coloring(written, sample_board) == coloring
    assert written == "WBWB\nW.B.\nBB.W\nBWBB\n"


def test_write_coloring_refuses_grids_beyond_the_limit(sample_board,
                                                     monkeypatch):
    huge = build_board(200_000, 200_000, {(1, 1): None})
    lone = solver.solve(huge).solutions[0]
    with pytest.raises(ColoringError,
                       match="200000 x 200000 grid exceeds the .sol limit "
                             "of 10000000 cells"):
        textio.write_coloring(lone, huge)
    coloring = textio.parse_coloring(fixture_text("sample4x4.sol"),
                                     sample_board)
    monkeypatch.setattr(textio, "MAX_GRID_CELLS", 16)
    assert textio.write_coloring(coloring, sample_board) \
        == "WBWB\nW.B.\nBB.W\nBWBB\n"
    monkeypatch.setattr(textio, "MAX_GRID_CELLS", 15)
    with pytest.raises(ColoringError, match="4 x 4 grid"):
        textio.write_coloring(coloring, sample_board)


def test_write_coloring_refuses_a_coloring_over_other_circles(
        sample_board):
    short = Coloring(frozenset(sample_board.circles) - {(1, 1)}, frozenset())
    with pytest.raises(ColoringError,
                       match="coloring does not cover the board's circles"):
        textio.write_coloring(short, sample_board)


def test_parse_coloring_diagnostics(sample_board):
    with pytest.raises(textio.ParseError, match="expected 4 grid lines"):
        textio.parse_coloring("WBWB\nW.B.\n", sample_board)
    # a grid without a significant line is reported at line 1
    with pytest.raises(textio.ParseError) as err:
        textio.parse_coloring("# empty\n", sample_board)
    assert [(d.line, d.message) for d in err.value.diagnostics] == [
        (1, "expected 4 grid lines, found 0")]

    bad = "WBWB\nWXB.\nBB.W\n.WBB\n"  # X, B on empty, . on circle
    with pytest.raises(textio.ParseError) as err:
        textio.parse_coloring(bad, sample_board)
    messages = [d.message for d in err.value.diagnostics]
    assert any("bad cell character 'X'" in m for m in messages)
    assert all("no circle" not in m for m in messages)
    assert any("needs B or W" in m for m in messages)
    assert (2, 2) == (err.value.diagnostics[0].line,
                      err.value.diagnostics[0].column)

    with pytest.raises(textio.ParseError, match="holds 3 cells"):
        textio.parse_coloring("WBW\nW.B.\nBB.W\nBWBB\n", sample_board)


def test_parse_coloring_misplaced_marks(sample_board):
    wrong = "WBWB\nWBB.\nBB.W\nBWBB\n"  # B on the empty cell (2, 2)
    with pytest.raises(textio.ParseError) as err:
        textio.parse_coloring(wrong, sample_board)
    assert [d.message for d in err.value.diagnostics] == [
        "no circle at (2, 2)"]


def test_c13_parse_and_round_trip():
    instance = textio.parse_one_in_three(fixture_text("three-clauses.c13"))
    assert instance.nvars == 4
    assert instance.clauses == ((1, 2, 3), (-1, 3, 4), (2, -3, -4))
    text = textio.write_one_in_three(instance)
    assert text == "p 1in3 4 3\n1 2 3 0\n-1 3 4 0\n2 -3 -4 0\n"
    assert textio.parse_one_in_three(text) == instance


def test_c13_normalizes_literal_order():
    instance = textio.parse_one_in_three("p 1in3 3 1\n3 -1 2 0\n")
    assert instance.clauses[0] == (-1, 2, 3)


def test_c13_random_round_trip():
    rng = random.Random(3355)
    for _ in range(25):
        instance = random_instance(rng)
        text = textio.write_one_in_three(instance)
        assert textio.parse_one_in_three(text) == instance


@pytest.mark.parametrize("text,fragment", [
    ("", "missing `p 1in3"),
    ("p 3sat 2 1\n1 2 -1 0\n", "header must read"),
    ("p 1in3 2 one\n", "header must read"),
    ("p 1in3 3 2\n1 2 3 0\n", "promises 2 clauses, found 1"),
    ("p 1in3 3 1\n1 2 3 0\n1 -2 3 0\n", "promises 1 clauses, found 2"),
    ("p 1in3 3 1\n1 2 3\n", "closing 0"),
    ("p 1in3 3 1\n1 2 0 0\n", "zero literal"),
    ("p 1in3 3 1\n1 2 4 0\n", "exceeds the 3 declared"),
    ("p 1in3 3 1\n1 2 2 0\n", "distinct variables"),
    ("p 1in3 3 1\n1 -1 2 0\n", "distinct variables"),
    ("p 1in3 3 1\n1 2 x 0\n", "not an integer"),
])
def test_c13_diagnostics(text, fragment):
    with pytest.raises(textio.ParseError, match=fragment) as err:
        textio.parse_one_in_three(text)
    assert all(d.line >= 1 for d in err.value.diagnostics)


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("# only a comment\n\n", 1),
    ("\n# header\np 1in3 3 1\n", 3),
    ("p 1in3 3 1\n1 2 3 0\n\n1 -2 3 0\n", 4),
])
def test_c13_diagnostic_lines(text, line):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_one_in_three(text)
    assert [d.line for d in err.value.diagnostics] == [line]


def test_c13_short_header_line_position():
    with pytest.raises(textio.ParseError) as err:
        textio.parse_one_in_three("p 1in3 2\n")
    assert err.value.diagnostics[0].line == 1


def test_instance_equality_through_factory():
    a = reduction.one_in_three(3, [(3, 1, 2)])
    b = textio.parse_one_in_three("p 1in3 3 1\n1 2 3 0\n")
    assert a == b


@pytest.mark.parametrize("text,expected", [
    # tabs and runs of spaces before a bad token count one column each
    ("rows 3\ncols 3\ncircle\t1 \t  x\ncircle  \t 2\t\t2 \t y9\n",
     [(3, 13, "not an integer: `x`"), (4, 18, "not an integer: `y9`")]),
    # CRLF endings and leading indentation
    ("  rows 3\r\n\tcols 3\r\n   circle 1 1\r\n \t circle 2 q\r\n"
     "  skewer 1 1 2 z\r\n",
     [(4, 13, "not an integer: `q`"), (5, 16, "not an integer: `z`")]),
    # two bad tokens on one circle line, left to right
    ("rows 3\ncols 3\ncircle a 1 b\n",
     [(3, 8, "not an integer: `a`"), (3, 12, "not an integer: `b`")]),
    # a bad token inside a skewer pair names the first bad one of the pair
    ("rows 3\ncols 3\ncircle 1 1\ncircle 2 2\nskewer 1 1 2 w\n"
     "skewer 1 v 2 2\nskewer p q 2 2\n",
     [(5, 14, "not an integer: `w`"), (6, 10, "not an integer: `v`"),
      (7, 8, "not an integer: `p`")]),
    # undeclared skewer circles point at the pair's row token, in path order
    ("rows 3\ncols 3\ncircle 1 1\ncircle 2 2\nskewer 1 1 2 2 3 3\n"
     "skewer 3 2  2 2\nskewer 3 3 2 x 1 1\n",
     [(5, 16, "skewer visits undeclared circle (3, 3)"),
      (6, 8, "skewer visits undeclared circle (3, 2)"),
      (7, 8, "skewer visits undeclared circle (3, 3)"),
      (7, 14, "not an integer: `x`")]),
    # a duplicate circle points at its keyword
    ("rows 3\ncols 3\ncircle 1 1\n  circle 1 1 0\ncircle 2 2\n"
     "circle   2 2\n",
     [(4, 3, "circle (1, 1) already declared"),
      (6, 1, "circle (2, 2) already declared")]),
])
def test_board_diagnostics_pin_line_and_column(text, expected):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(text)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == expected
    assert not err.value.structural


@pytest.mark.parametrize("read", [
    lambda: textio.parse_board("rows 2\ncols 2\n" + "bogus 1\n" * 10_000),
    lambda: textio.parse_coloring("x" * 10_000 + "\n",
                                  build_board(1, 10_000, {})),
    lambda: textio.parse_one_in_three("p 1in3 3 10000\n"
                                      + "1 2 x 0\n" * 10_000),
], ids=["board", "coloring", "c13"])
def test_reader_holds_a_bounded_number_of_diagnostics(read):
    with pytest.raises(textio.ParseError) as err:
        read()
    assert len(err.value.diagnostics) == textio.MAX_DIAGNOSTICS == 20
    assert err.value.more == 9_980
    assert str(err.value).endswith("; (+9997 more)")


def test_a_faulty_skewer_line_is_scanned_once(monkeypatch):
    token = textio._TOKEN
    scans = []

    class Counted:
        def finditer(self, text):
            scans.append(len(text))
            return token.finditer(text)

    monkeypatch.setattr(textio, "_TOKEN", Counted())
    # five declared pairs, then 25 undeclared circles from column 28 on
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board("rows 1\ncols 1\ncircle 1 1\nskewer "
                           + "1 1 " * 5 + "9 9 " * 25 + "\n")
    found = err.value.diagnostics
    assert [(d.line, d.column) for d in found] \
        == [(4, 28 + 4 * k) for k in range(20)]
    assert err.value.more == 5
    assert len(scans) == 1


def test_board_reader_accepts_what_int_accepts():
    board = textio.parse_board(
        "rows 2\ncols 12\ncircle +1 1_0\ncircle 1 +1_1 +0\n")
    assert board == build_board(2, 12, {(1, 10): None, (1, 11): 0})


# 5 x 6 header: rows 3 and 5 and columns 3 and 6 hold no circle
SLACK_BOARD = "rows 5\ncols 6\n" + "".join(
    f"circle {r} {c}\n" for r, c in
    [(1, 1), (1, 2), (1, 5), (2, 4), (2, 5), (4, 1), (4, 2), (4, 4)])
# indented, CRLF and interleaved with comments, so lines and columns differ
# from grid rows and cells
SLACK_GRID = ["BW..B.", "...WB.", "......", "WB.B..", "......"]
SLACK_LEAD = ["", "  ", "\t", " ", ""]


def _slack_text(grid):
    return "# grid\r\n" + "".join(
        f"{lead}{row}\r\n\r\n" for lead, row in zip(SLACK_LEAD, grid))


def test_parse_coloring_slack_header_reads_the_grid():
    board = textio.parse_board(SLACK_BOARD)
    coloring = textio.parse_coloring(_slack_text(SLACK_GRID), board)
    assert coloring.cells == frozenset(board.circles)
    assert coloring.blacks == {(1, 1), (1, 5), (2, 5), (4, 2), (4, 4)}
    assert textio.write_coloring(coloring, board) \
        == "".join(row + "\n" for row in SLACK_GRID)


@pytest.mark.parametrize("char", [".", "B", "W", "x"])
def test_parse_coloring_pins_every_one_cell_change(char):
    board = textio.parse_board(SLACK_BOARD)
    for r, row in enumerate(SLACK_GRID, start=1):
        for c, old in enumerate(row, start=1):
            if old == char:
                continue
            grid = list(SLACK_GRID)
            grid[r - 1] = row[:c - 1] + char + row[c:]
            text = _slack_text(grid)
            line, column = 2 * r, len(SLACK_LEAD[r - 1]) + c
            circle = (r, c) in board.circles
            if char in "BW" and circle:
                coloring = textio.parse_coloring(text, board)
                assert ((r, c) in coloring.blacks) == (char == "B")
                continue
            if char == ".":
                message = f"circle at {(r, c)} needs B or W"
            elif char in "BW":
                message = f"no circle at {(r, c)}"
            else:
                message = f"bad cell character {char!r}"
            with pytest.raises(textio.ParseError) as err:
                textio.parse_coloring(text, board)
            assert [(d.line, d.column, d.message, d.structural)
                    for d in err.value.diagnostics] \
                == [(line, column, message, False)]


def test_parse_coloring_costs_the_file_not_the_header():
    # a one-cell row under a 10^7-column header is reported before any
    # row-wide template is built
    board = build_board(1, 10**7, {(1, 1): None})
    tracemalloc.start()
    try:
        with pytest.raises(textio.ParseError) as err:
            textio.parse_coloring("B\n", board)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (1, 1, "grid line holds 1 cells, board has 10000000")]
    assert peak < 1 << 20


def test_parse_coloring_pins_short_rows_and_double_faults():
    board = textio.parse_board(SLACK_BOARD)
    short = list(SLACK_GRID)
    short[1] = "...WB"
    short[3] = "WB.B..."
    with pytest.raises(textio.ParseError) as err:
        textio.parse_coloring(_slack_text(short), board)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (4, 3, "grid line holds 5 cells, board has 6"),
        (8, 2, "grid line holds 7 cells, board has 6")]

    double = list(SLACK_GRID)
    double[1] = "B..?B."        # B off a circle, then ? on one
    double[3] = "WB.B.W"        # a later row with a fault of its own
    with pytest.raises(textio.ParseError) as err:
        textio.parse_coloring(_slack_text(double), board)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (4, 3, "no circle at (2, 1)"),
        (4, 6, "bad cell character '?'"),
        (8, 7, "no circle at (4, 6)")]

    with pytest.raises(textio.ParseError) as err:
        textio.parse_coloring(_slack_text(SLACK_GRID[:4]), board)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (8, 0, "expected 5 grid lines, found 4")]


def test_parse_coloring_matches_a_cell_by_cell_check_under_swaps():
    # a swap keeps a row's counts of `.`, B and W, so it is the edit a
    # counting check is most likely to miss
    board = textio.parse_board(SLACK_BOARD)
    for r, row in enumerate(SLACK_GRID, start=1):
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                cells = list(row)
                cells[i], cells[j] = cells[j], cells[i]
                grid = list(SLACK_GRID)
                grid[r - 1] = "".join(cells)
                valid = all(
                    (char in "BW") == ((r, c) in board.circles)
                    and char in ".BW"
                    for c, char in enumerate(cells, start=1))
                text = _slack_text(grid)
                if not valid:
                    with pytest.raises(textio.ParseError):
                        textio.parse_coloring(text, board)
                    continue
                coloring = textio.parse_coloring(text, board)
                assert coloring.blacks == {
                    (k, c) for k, line in enumerate(grid, start=1)
                    for c, char in enumerate(line, start=1) if char == "B"}


# every character that `str.splitlines` ends a line at but `\n` and `\r`;
# each is whitespace to `str.split` and to the readers' token pattern
INLINE_SPACES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("space", INLINE_SPACES)
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_board_lines_end_only_at_newlines(space, end):
    text = end.join(["rows 2", "cols 2", f"# note{space}more",
                     "circle 1 x", ""])
    with pytest.raises(textio.ParseError) as err:
        textio.parse_board(text)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [(4, 10, "not an integer: `x`")]
    board = textio.parse_board(
        end.join(["rows 2", f"cols{space}2", f"circle 1{space}1", "#"]))
    assert board == build_board(2, 2, {(1, 1): None})


@pytest.mark.parametrize("space", INLINE_SPACES)
def test_grid_lines_end_only_at_newlines(space):
    board = build_board(2, 2, {(1, 1): None, (2, 2): None})
    coloring = textio.parse_coloring(f"# a{space}b\r\nB.{space}\r.W\n",
                                     board)
    assert coloring == Coloring(frozenset(board.circles),
                                frozenset({(1, 1)}))


@pytest.mark.parametrize("space", INLINE_SPACES)
def test_c13_lines_end_only_at_newlines(space):
    instance = textio.parse_one_in_three(
        f"p 1in3 3 1\r# a{space}b\r\n1{space}-2 3 0\n")
    assert instance == reduction.one_in_three(3, [(1, -2, 3)])


JUNK = "x" * 100_000
HUGE = "9" * 4_000


@pytest.mark.parametrize("read,start", [
    (lambda: textio.parse_board(f"rows 1\ncols 1\n{JUNK}\n"),
     "unknown directive `xxx"),
    (lambda: textio.parse_board(f"rows 1\ncols 1\ncircle 1 {JUNK}\n"),
     "not an integer: `xxx"),
    (lambda: textio.parse_board("rows 2\ncols 2\ncircle 1 1\ncircle 2 2\n"
                                f"skewer 1 1 2 {JUNK}\n"),
     "not an integer: `xxx"),
    (lambda: textio.parse_board("rows 2\ncols 2\n" + f"{JUNK}\n" * 30),
     "unknown directive `xxx"),
    (lambda: textio.parse_board(f"rows -{HUGE}\ncols 1\n"),
     "grid must be at least 1x1, got -999"),
    (lambda: textio.parse_board(f"rows 1\ncols 1\ncircle {HUGE} 1\n"),
     "circle (999"),
    (lambda: textio.parse_coloring(".\n", build_board(1, int(HUGE), {})),
     "grid line holds 1 cells, board has 999"),
    (lambda: textio.parse_coloring(".\n", build_board(int(HUGE), 1, {})),
     "expected 999"),
    (lambda: textio.parse_one_in_three(f"p 1in3 3 1\n1 2 {HUGE} 0\n"),
     "literal 999"),
    (lambda: textio.parse_one_in_three(f"p 1in3 3 1\n1 2 {JUNK} 0\n"),
     "not an integer: `xxx"),
    (lambda: textio.parse_one_in_three(f"p 1in3 3 {HUGE}\n"),
     "header promises 999"),
], ids=["directive", "circle", "skewer", "many", "header", "off-grid",
        "grid-width", "grid-lines", "literal", "c13-token", "clause-count"])
def test_reader_messages_are_cut_to_a_fixed_width(read, start):
    with pytest.raises(textio.ParseError) as err:
        read()
    messages = [d.message for d in err.value.diagnostics]
    assert messages[0].startswith(start)
    assert all(len(m) == 160 and m.endswith("…") for m in messages)
    assert len(str(err.value)) < 600
