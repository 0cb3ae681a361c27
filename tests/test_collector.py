"""The cyclic collector across the package's public calls.

Each public call that builds or walks per-circle data runs with the
collector paused and leaves it as it found it, and the package makes no
reference cycles, so the collections the pause skips would free nothing.
"""

import gc
import inspect
import sys
from random import Random

import pytest

from conftest import fixture_text
from oracles import sized_instance
from oredango import core, ilp, reduction, solver, textio
from oredango.core import BoardError
from oredango.reduction import ReductionError
from oredango.textio import ParseError


class Collections:
    """A `gc.callbacks` counter of the collections that fire while the
    body of one function runs, whatever decorator it sits under.

    The body, not the call: the decorator's argument tuple, and the lock
    `cached_property` takes, are allocated before the pause, so under a
    threshold of 1 a collection may fire on the way in.
    """

    def __init__(self):
        self.total = 0
        self.inside = 0
        self.body = None   # code object whose frames count as inside

    def __call__(self, phase, info):
        if phase != "start":
            return
        self.total += 1
        frame = sys._getframe()
        while frame is not None and frame.f_code is not self.body:
            frame = frame.f_back
        self.inside += frame is not None

    def during(self, function, call) -> int:
        """Collections that fire inside `function` while `call()` runs."""
        self.body = inspect.unwrap(function).__code__
        before = self.inside
        try:
            call()
        finally:
            self.body = None
        return self.inside - before


@pytest.fixture
def collections():
    """A counter under a gen0 threshold of 1: a collection fires on
    almost every container allocated while the collector is on."""
    counter = Collections()
    threshold = gc.get_threshold()
    gc.callbacks.append(counter)
    gc.set_threshold(1)
    try:
        yield counter
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(counter)


@pytest.fixture(scope="module")
def inputs():
    instance = sized_instance(Random(1), 8, 10, True)
    reduced = reduction.reduce(instance)
    board = reduced.board
    coloring = solver.solve(board).solutions[0]
    small = reduction.one_in_three(3, [(1, 2, 3)])
    return {
        "instance": instance, "reduced": reduced, "board": board,
        "coloring": coloring, "small": small,
        "assignment": reduction.coloring_to_assignment(reduced, coloring),
        "board_text": textio.write_board(board),
        "grid": textio.write_coloring(coloring, board),
        "c13": textio.write_one_in_three(instance),
        "model": ilp.build_model(board),
    }


def public_calls(x):
    """One call of each paused function: (function, call) by name."""
    board = x["board"]
    # built here, outside the counted calls, with its `rules` not yet built
    fresh = core.build_board(board.rows, board.cols, board.circles,
                             board.skewers)
    return {
        "core.build_board": (core.build_board, lambda: core.build_board(
            board.rows, board.cols, board.circles, board.skewers)),
        "core.Board.rules": (vars(core.Board)["rules"].func,
                             lambda: fresh.rules),
        "core.check_coloring": (core.check_coloring, lambda:
                                core.check_coloring(board, x["coloring"])),
        "textio.parse_board": (textio.parse_board, lambda:
                               textio.parse_board(x["board_text"])),
        "textio.parse_coloring": (textio.parse_coloring, lambda:
                                  textio.parse_coloring(x["grid"], board)),
        "textio.parse_one_in_three": (textio.parse_one_in_three, lambda:
                                      textio.parse_one_in_three(x["c13"])),
        "textio.write_board": (textio.write_board,
                               lambda: textio.write_board(board)),
        "textio.write_coloring": (textio.write_coloring, lambda:
                                  textio.write_coloring(x["coloring"], board)),
        "solver.board_engine": (solver.board_engine,
                                lambda: solver.board_engine(board)),
        "solver.propagate": (solver.propagate,
                             lambda: solver.propagate(board, {})),
        "solver.enumerate": (solver.enumerate,
                             lambda: solver.enumerate(board, 2)),
        "solver.solve": (solver.solve, lambda: solver.solve(board)),
        "solver.another_solution": (solver.another_solution, lambda:
                                    solver.another_solution(
                                        board, [x["coloring"]])),
        "ilp.build_model": (ilp.build_model, lambda: ilp.build_model(board)),
        "ilp.export_lp": (ilp.export_lp, lambda: ilp.export_lp(x["model"])),
        "reduction.reduce": (reduction.reduce,
                             lambda: reduction.reduce(x["instance"])),
        "reduction.assignment_to_coloring": (
            reduction.assignment_to_coloring, lambda:
            reduction.assignment_to_coloring(x["reduced"], x["assignment"])),
        "reduction.coloring_to_assignment": (
            reduction.coloring_to_assignment, lambda:
            reduction.coloring_to_assignment(x["reduced"], x["coloring"])),
        "reduction.verify_reduction": (
            reduction.verify_reduction,
            lambda: reduction.verify_reduction(x["small"])),
    }


def test_no_collection_fires_inside_a_public_call(inputs, collections):
    inside = {}
    for name, (function, call) in public_calls(inputs).items():
        inside[name] = collections.during(function, call)
        assert gc.isenabled(), name
        assert gc.get_threshold()[0] == 1, name
    # the collector is on between the calls, so the counter does count
    assert collections.total > 0
    assert {name: n for name, n in inside.items() if n} == {}


@pytest.mark.parametrize("refused, error", [
    (lambda x: textio.parse_board("rows 2\ncols x\n"), ParseError),
    (lambda x: textio.parse_coloring("B\n", x["board"]), ParseError),
    (lambda x: textio.parse_one_in_three("p 1in3 3 1\n1 2 0\n"), ParseError),
    (lambda x: core.build_board(2, 2, {(3, 1): None}), BoardError),
    (lambda x: solver.enumerate(x["board"], 0), ValueError),
    (lambda x: reduction.reduce(reduction.one_in_three(4, [(1, 2, 3)])),
     ReductionError),
    (lambda x: reduction.verify_reduction(x["instance"]), ReductionError),
])
def test_a_refused_call_restores_the_collector(inputs, collections, refused,
                                               error):
    with pytest.raises(error):
        refused(inputs)
    assert gc.isenabled()
    assert gc.get_threshold()[0] == 1


def test_a_caller_that_disabled_the_collector_finds_it_off(inputs):
    calls = public_calls(inputs)
    gc.disable()
    try:
        for name in ("core.build_board", "textio.parse_board",
                     "solver.solve", "reduction.reduce"):
            calls[name][1]()
            assert not gc.isenabled(), name
        with pytest.raises(ValueError):
            solver.enumerate(inputs["board"], 0)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_package_leaves_no_reference_cycles():
    """What makes the pause safe: a whole pipeline, refusals included,
    leaves nothing for the collector to find."""
    instance = sized_instance(Random(1), 12, 15, True)
    sample_text = fixture_text("sample4x4.odg")
    gc.collect()
    gc.disable()
    try:
        reduced = reduction.reduce(instance)
        board = textio.parse_board(textio.write_board(reduced.board))
        assert solver.propagate(board, {}) is not None
        coloring = solver.solve(board).solutions[0]
        back = textio.parse_coloring(textio.write_coloring(coloring, board),
                                     board)
        assert core.check_coloring(board, back).ok
        assert ilp.export_lp(ilp.build_model(board))
        assert reduction.verify_reduction(
            reduction.one_in_three(3, [(1, 2, 3)])).ok
        sample = textio.parse_board(sample_text)
        refusals = 0
        for read, args in ((textio.parse_board, ("rows 2\ncols x\n",)),
                           (textio.parse_coloring, ("B\n", sample)),
                           (textio.parse_one_in_three, ("p 1in3 x\n",))):
            try:
                read(*args)
            except ParseError:
                refusals += 1
        assert refusals == 3
        del reduced, board, coloring, back, sample
    finally:
        gc.enable()
    assert gc.collect() == 0
