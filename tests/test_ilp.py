import random
import tracemalloc

import pytest

from conftest import FIXTURES, fixture_text
from oredango import ilp, reduction, solver, textio
from oredango.core import Coloring, build_board, check_coloring
from oracles import (highs_point, listed_rules, random_board, reference_lp,
                     sized_instance)

PAIRBLOCK_LP = """\
Minimize
 obj: x_1_1 + x_1_2 + x_1_3 + x_2_1 + x_2_2 + x_2_3
Subject To
 sk1: x_1_2 + x_2_1 = 1
 sk2: x_1_1 + x_2_2 = 1
 sk3: x_1_3 = 1
 sk4: x_2_3 = 1
 tr1_1_lo: x_1_1 + x_1_2 + x_1_3 >= 1
 tr1_1_hi: x_1_1 + x_1_2 + x_1_3 <= 2
 tr2_1_lo: x_2_1 + x_2_2 + x_2_3 >= 1
 tr2_1_hi: x_2_1 + x_2_2 + x_2_3 <= 2
Binaries
 x_1_1 x_1_2 x_1_3 x_2_1 x_2_2 x_2_3
End
"""


def test_sample_model_census(sample_board):
    model = ilp.build_model(sample_board)
    assert len(model.variables) == 13
    assert model.variables[:2] == (("x_1_1", (1, 1)), ("x_1_2", (1, 2)))
    assert tuple(coord for _, coord in model.variables) \
        == sample_board.row_major
    assert model.objective == (1,) * 13

    equalities = [c for c in model.constraints if c.lower == c.upper]
    ranges = [c for c in model.constraints if c.lower != c.upper]
    assert len(equalities) == 4
    assert len(ranges) == 17
    assert all(c.lower == 1 and c.upper == 2 for c in ranges)
    assert [c.name for c in model.constraints] == [
        "sk1", "sk2", "sk3", "sk4",
        "tb1_1", "tb1_2", "tb1_3", "tb2_1", "tb2_2", "tb2_3", "tb2_4",
        "tr1_1", "tr1_2", "tr3_1", "tr4_1", "tr4_2",
        "tc1_1", "tc1_2", "tc2_1", "tc3_1", "tc4_1",
    ]
    assert equalities[0].terms == ("x_1_3", "x_1_2", "x_2_1", "x_3_2",
                                   "x_4_1")
    assert (equalities[0].lower, equalities[2].lower,
            equalities[3].lower) == (3, 0, 1)


def test_sample_lp_has_one_row_per_bound(sample_board):
    text = ilp.export_lp(ilp.build_model(sample_board))
    rows = [line for line in text.splitlines()
            if " = " in line or ">=" in line or "<=" in line]
    assert len(rows) == 38
    assert sum(" = " in r for r in rows) == 4
    assert text.endswith("End\n")
    assert "\r" not in text


def test_pairblock_lp_golden(pair_board):
    assert ilp.export_lp(ilp.build_model(pair_board)) == PAIRBLOCK_LP


def test_empty_board_lp_golden():
    model = ilp.build_model(build_board(3, 2, {}))
    assert ilp.export_lp(model) == "Minimize\n obj:\nSubject To\nBinaries\nEnd\n"


def test_binaries_section_wraps_every_eight_names(sample_board):
    text = ilp.export_lp(ilp.build_model(sample_board))
    body = text.split("Binaries\n", 1)[1].removesuffix("End\n")
    chunks = [line.split() for line in body.splitlines()]
    assert [len(c) for c in chunks] == [8, 5]
    assert [n for c in chunks for n in c] \
        == [name for name, _ in ilp.build_model(sample_board).variables]


def test_highs_reads_the_exported_lp_and_agrees_with_the_solver():
    pytest.importorskip("scipy")
    rng = random.Random(8158)
    boards = [random_board(rng) for _ in range(60)]
    boards += [reduction.reduce(sized_instance(rng, n, n, planted)).board
               for n in (5, 6, 8) for planted in (False, True)]
    feasible = 0
    for board in boards:
        model = ilp.build_model(board)
        point = highs_point(ilp.export_lp(model))
        outcome = solver.solve(board)
        assert (point is not None) == bool(outcome.solutions)
        if point is not None:
            feasible += 1
            blacks = frozenset(coord for name, coord in model.variables
                               if point[name])
            coloring = Coloring(frozenset(board.circles), blacks)
            assert check_coloring(board, coloring).ok
    assert 0 < feasible < len(boards)


def test_export_lp_equals_an_independent_writer(sample_board, pair_board,
                                               wide_reduced_board):
    rng = random.Random(5521)
    boards = [sample_board, pair_board, build_board(3, 2, {})]
    # an LP that spans more than two of `export_lp`'s blocks
    assert len(wide_reduced_board.rules.lo) > 2 * ilp._LP_BLOCK
    boards.append(wide_reduced_board)
    boards += [random_board(rng, max_circles=rng.choice((4, 16, 30)),
                            max_side=rng.choice((3, 5, 8)))
               for _ in range(150)]
    boards += [reduction.reduce(sized_instance(rng, n, n, planted)).board
               for n in range(3, 9) for planted in (False, True)]
    for board in boards:
        assert ilp.export_lp(ilp.build_model(board)) == reference_lp(board)


def test_export_lp_holds_its_text_about_twice(wide_reduced_board):
    # the blocks and the joined result; a list of every row, or a copy to
    # append the last newline, would each add about one text more
    model = ilp.build_model(wide_reduced_board)
    tracemalloc.start()
    try:
        text = ilp.export_lp(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


def test_sample_lp_matches_the_golden_file(sample_board):
    golden = (FIXTURES / "golden" / "sample4x4.lp").read_bytes()
    assert ilp.export_lp(ilp.build_model(sample_board)).encode() == golden


def test_reduced_lp_matches_the_golden_file():
    # a reduced board pins the equalities of clued pairs and loners and
    # the range windows of rules C and D
    board = textio.parse_board(fixture_text("golden/three-clauses.odg"))
    golden = (FIXTURES / "golden" / "three-clauses.lp").read_bytes()
    assert ilp.export_lp(ilp.build_model(board)).encode() == golden


ROW_PREFIX = {"A": "sk", "B": "tb", "C": "tr", "D": "tc"}


def test_model_rows_are_the_listed_rules(sample_board, pair_board,
                                         wide_reduced_board):
    rng = random.Random(7340)
    boards = [sample_board, pair_board, wide_reduced_board]
    boards += [random_board(rng) for _ in range(40)]
    for board in boards:
        listed = [ilp.LinearConstraint(
                      ROW_PREFIX[rule] + str(line)
                      + ("" if window is None else f"_{window}"),
                      tuple(map(ilp.variable_name, cells)), lo, hi)
                  for rule, line, window, cells, lo, hi in listed_rules(board)]
        rows = ilp.build_model(board).constraints
        assert type(rows) is list
        assert len(rows) == len(listed)
        assert list(rows) == listed


def test_build_model_holds_no_object_per_row(wide_reduced_board):
    # a LinearConstraint and a terms tuple per row came to 241 bytes per
    # store entry; the names of the circles alone come to about 55
    entries = len(wide_reduced_board.rules.lo)
    tracemalloc.start()
    try:
        model = ilp.build_model(wide_reduced_board)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(model.constraints) == entries
    assert held < 120 * entries
