import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oredango import reduction, solver, textio
from oredango.core import BLACK, WHITE, ColoringError, build_board, check_coloring
from oredango.solver import BoundedCounts, SolveStatus
from conftest import fixture_text
from oracles import (counts_oracle, mask_oracle, random_board,
                     random_counts, sized_instance)

SAMPLE_GRIDS = [
    "WBBW\nW.B.\nBW.B\nBBWB\n",
    "WBWB\nW.B.\nBB.W\nBWBB\n",
    "WWBB\nB.B.\nBB.W\nWBWB\n",
    "WWBB\nW.B.\nBB.W\nBBWB\n",
]


def grids(outcome, board):
    return [textio.write_coloring(s, board) for s in outcome.solutions]


def lex_key(board, coloring):
    return tuple(coloring[c] for c in board.row_major)


def test_sample_solution_set_is_frozen(sample_board):
    out = solver.enumerate(sample_board, cap=100)
    assert out.status is SolveStatus.SAT
    assert grids(out, sample_board) == SAMPLE_GRIDS
    assert out.nodes == 18
    for coloring in out.solutions:
        assert check_coloring(sample_board, coloring).ok


def test_sample_contains_published_coloring(sample_board):
    published = textio.parse_coloring(fixture_text("sample4x4.sol"),
                                      sample_board)
    out = solver.enumerate(sample_board, cap=100)
    assert published in out.solutions


def test_solve_returns_lexicographic_first(sample_board):
    out = solver.solve(sample_board)
    assert out.status is SolveStatus.SAT
    assert len(out.solutions) == 1
    assert textio.write_coloring(out.solutions[0], sample_board) \
        == SAMPLE_GRIDS[0]
    assert out.nodes == 3


def test_enumeration_order_is_lexicographic(sample_board):
    out = solver.enumerate(sample_board, cap=100)
    keys = [lex_key(sample_board, s) for s in out.solutions]
    assert keys == sorted(keys)


def test_pairblock_has_exactly_two_solutions(pair_board):
    out = solver.enumerate(pair_board, cap=100)
    assert out.status is SolveStatus.SAT
    assert grids(out, pair_board) == ["BWB\nBWB\n", "WBB\nWBB\n"]
    assert grids(out, pair_board) == [
        fixture_text("pairblock-first.sol"),
        fixture_text("pairblock-second.sol"),
    ]


def test_cap_semantics(pair_board):
    # the cap fires whenever it stops the search early, even if no
    # further solution existed
    assert solver.enumerate(pair_board, cap=1).status \
        is SolveStatus.CAP_REACHED
    assert solver.enumerate(pair_board, cap=2).status \
        is SolveStatus.CAP_REACHED
    assert solver.enumerate(pair_board, cap=3).status is SolveStatus.SAT
    assert len(solver.enumerate(pair_board, cap=1).solutions) == 1


@pytest.mark.parametrize("cap", [0, -3])
def test_board_and_model_enumeration_refuse_the_same_caps(pair_board, cap):
    with pytest.raises(ValueError, match="^cap must be at least 1$"):
        solver.enumerate(pair_board, cap=cap)
    with pytest.raises(ValueError, match="^cap must be at least 1$"):
        solver.board_engine(pair_board).run(cap=cap)


def test_unsat_three_forced_blacks_in_a_row():
    board = build_board(1, 3, {(1, 1): 1, (1, 2): 1, (1, 3): 1})
    out = solver.solve(board)
    assert out.status is SolveStatus.UNSAT
    assert out.solutions == ()


def test_board_without_circles_is_trivially_sat():
    out = solver.solve(build_board(2, 2, {}))
    assert out.status is SolveStatus.SAT
    assert len(out.solutions) == 1
    assert out.solutions[0].cells == frozenset()


def test_outcomes_are_reproducible(sample_board):
    assert solver.enumerate(sample_board, cap=100) \
        == solver.enumerate(sample_board, cap=100)


def test_propagate_forces_singleton_clues(pair_board):
    forced = solver.propagate(pair_board, {})
    assert forced == {(1, 3): BLACK, (2, 3): BLACK}


def test_propagate_completes_pairblock(pair_board):
    forced = solver.propagate(pair_board, {(1, 1): BLACK})
    assert forced == {(1, 1): BLACK, (1, 2): WHITE, (1, 3): BLACK,
                      (2, 1): BLACK, (2, 2): WHITE, (2, 3): BLACK}


def test_propagate_window_forcing():
    board = build_board(1, 3, dict.fromkeys([(1, 1), (1, 2), (1, 3)]))
    assert solver.propagate(board, {(1, 1): WHITE, (1, 2): WHITE}) \
        == {(1, 1): WHITE, (1, 2): WHITE, (1, 3): BLACK}
    assert solver.propagate(board, {(1, 1): BLACK, (1, 2): BLACK}) \
        == {(1, 1): BLACK, (1, 2): BLACK, (1, 3): WHITE}


def test_propagate_skewer_counting(sample_board):
    # clue 3 on a 5-circle skewer with two blacks placed and two ruled out
    seed = {(4, 1): BLACK, (3, 2): BLACK, (2, 1): WHITE, (1, 2): WHITE}
    forced = solver.propagate(sample_board, seed)
    assert forced is not None
    assert forced[(1, 3)] == BLACK


def test_propagate_detects_conflict(pair_board):
    assert solver.propagate(pair_board, {(1, 3): WHITE}) is None


def test_propagate_rejects_bad_seeds(pair_board):
    with pytest.raises(ColoringError, match="no circle"):
        solver.propagate(pair_board, {(9, 9): BLACK})
    with pytest.raises(ColoringError, match="bad color"):
        solver.propagate(pair_board, {(1, 1): "X"})


def test_propagate_is_sound_on_random_boards():
    rng = random.Random(90125)
    checked = 0
    for _ in range(60):
        board = random_board(rng)
        solutions = mask_oracle(board)
        forced = solver.propagate(board, {})
        if not solutions:
            continue
        assert forced is not None
        for coord, color in forced.items():
            assert all(sol[coord] == color for sol in solutions)
        checked += 1
    assert checked >= 20


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_propagate_is_sound_for_partial_seeds(data):
    board = random_board(random.Random(data.draw(st.integers(0, 10**9))))
    coords = board.row_major
    chosen = data.draw(st.lists(st.sampled_from(coords), unique=True)
                       if coords else st.just([]))
    partial = {c: data.draw(st.sampled_from((BLACK, WHITE))) for c in chosen}
    extending = [sol for sol in mask_oracle(board)
                 if all(sol[c] == color for c, color in partial.items())]
    forced = solver.propagate(board, partial)
    if forced is None:
        assert extending == []
        return
    assert forced.items() >= partial.items()
    for coord, color in forced.items():
        assert all(sol[coord] == color for sol in extending)


def test_enumerate_matches_brute_force():
    # Every cap must see the oracle's lexicographic prefix: conflicts after
    # an emitted solution are where a backjump could repeat or skip one.
    rng = random.Random(61917)
    for _ in range(220):
        board = random_board(rng)
        expected = sorted(mask_oracle(board), key=lambda s: lex_key(board, s))
        for cap in (1, 2, 5, 1 << 17):
            out = solver.enumerate(board, cap=cap)
            assert list(out.solutions) == expected[:cap]
            if cap <= len(expected):
                assert out.status is SolveStatus.CAP_REACHED
            else:
                assert out.status is (SolveStatus.SAT if expected
                                      else SolveStatus.UNSAT)


def test_another_solution_walks_the_solution_list(pair_board):
    first, second = solver.enumerate(pair_board, cap=10).solutions
    assert solver.another_solution(pair_board, []) == first
    assert solver.another_solution(pair_board, [first]) == second
    assert solver.another_solution(pair_board, [second]) == first
    assert solver.another_solution(pair_board, [first, second]) is None


def test_another_solution_on_sample(sample_board):
    published = textio.parse_coloring(fixture_text("sample4x4.sol"),
                                      sample_board)
    other = solver.another_solution(sample_board, [published])
    assert other is not None and other != published
    assert check_coloring(sample_board, other).ok


def test_another_solution_rejects_non_solutions(pair_board):
    bogus = textio.parse_coloring("BBB\nBBB\n", pair_board)
    with pytest.raises(ValueError, match="not a solution"):
        solver.another_solution(pair_board, [bogus])


def test_engine_enumerates_free_variables_in_order():
    engine = BoundedCounts(2, [], [], [])
    exhausted, found, _ = engine.run(cap=5)
    assert exhausted
    assert found == [(1, 1), (1, 0), (0, 1), (0, 0)]
    exhausted, found, _ = engine.run(cap=2)
    assert not exhausted
    assert found == [(1, 1), (1, 0)]


def test_engine_rejects_impossible_bounds():
    engine = BoundedCounts(2, [(0, 1)], [2], [1])
    assert engine.run(cap=1) == (True, [], 0)
    assert engine.deduce([]) is None


def reduced_n10_board():
    return reduction.reduce(sized_instance(random.Random(1), 10, 10,
                                           True)).board


def test_engine_keeps_the_rule_store_tuples(sample_board):
    for board in (sample_board, reduced_n10_board()):
        groups = board.rules.groups
        members = solver.board_engine(board)._members
        assert len(members) == len(groups)
        assert all(members[g] is groups[g] for g in range(len(groups)))


def test_rule_store_shares_one_int_per_circle():
    board = reduced_n10_board()
    assert len({id(v) for g in board.rules.groups for v in g}) \
        <= len(board.circles)


def test_engine_keeps_little_beyond_the_rule_store(wide_reduced_board):
    # the rule store is built first, so only what the engine adds is
    # counted: its counters and the groups touching each circle, about
    # 116 B an entry; a fresh tuple of fresh ints per entry costs 250 B
    board = wide_reduced_board
    entries = len(board.rules.lo)
    tracemalloc.start()
    try:
        engine = solver.board_engine(board)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.nvars == len(board.circles)
    assert held < 160 * entries


# Node total over the systems below.  It pins what the search does on
# general groups, so an engine change that alters it shows here; a presolve
# (ROADMAP item 2) is expected to move it, and must give the new total.
RANDOM_SYSTEM_NODES = 50_917


def test_engine_matches_brute_force_on_random_systems():
    # Count groups of any shape, not only board rules: overlapping groups
    # that one literal overspends together are where a backtrack that
    # reports only one of them lets a broken assignment through.
    rng = random.Random(2718)
    total = 0
    for _ in range(1000):
        system = random_counts(rng)
        expected = counts_oracle(*system)
        for cap in (1, 2, 5, len(expected) + 1):
            exhausted, found, nodes = BoundedCounts(*system).run(cap=cap)
            assert found == expected[:cap]
            assert exhausted == (len(expected) < cap)
            total += nodes
    assert total == RANDOM_SYSTEM_NODES


# A counter that reaches 0 makes the engine scan its group for open members
# only while some member has not been propagated; these systems pin the
# fixpoint and the solutions where that count is tight.
@pytest.mark.parametrize("system, seed, fixpoint", [
    # saturated from the start: the root forces the whole group
    ((2, [(0, 1)], [0], [0]), [], [0, 0]),
    # the counter reaches 0 on the group's last member: nothing is open
    ((2, [(0, 1)], [0], [2]), [(0, 1), (1, 1)], [1, 1]),
    ((2, [(0, 1)], [0], [2]), [(0, 0), (1, 0)], [0, 0]),
    # it reaches 0 while a member is set but not yet propagated
    ((2, [(0, 1), (0, 1)], [1, 0], [1, 1]), [(0, 1)], [1, 0]),
    ((3, [(0, 1), (0, 1, 2)], [1, 0], [1, 1]), [(0, 1)], [1, 0, 0]),
    # it reaches 0 with one open member, which is forced
    ((2, [(0, 1)], [0], [1]), [(0, 1)], [1, 0]),
    ((3, [(0, 1, 2)], [2], [3]), [(0, 0)], [0, 1, 1]),
])
def test_engine_at_zero_slack(system, seed, fixpoint):
    engine = BoundedCounts(*system)
    assert engine.deduce(seed) == fixpoint
    expected = counts_oracle(*system)
    exhausted, found, _ = engine.run(cap=len(expected) + 1)
    assert exhausted
    assert found == expected


def test_engine_deduce_contradicting_seed():
    engine = BoundedCounts(1, [], [], [])
    assert engine.deduce([(0, 1), (0, 0)]) is None
    assert engine.deduce([(0, 1), (0, 1)]) == [1]


@pytest.mark.parametrize("planted", [False, True])
def test_reduced_enumeration_follows_the_assignments(planted):
    rng = random.Random(5150 + planted)
    for _ in range(25):
        nvars = rng.randint(3, 6)
        instance = sized_instance(rng, nvars, rng.randint((nvars + 2) // 3, 6),
                                  planted)
        reduced = reduction.reduce(instance)
        board = reduced.board
        expected = sorted((reduction.assignment_to_coloring(reduced, a)
                           for a in reduction.enumerate_assignments(instance)),
                          key=lambda s: lex_key(board, s))
        assert list(solver.enumerate(board, cap=1 << 20).solutions) == expected


@pytest.mark.parametrize("seed, planted", [(1, False), (4, True)])
def test_learning_keeps_n14_search_small(seed, planted):
    # Chronological search took 114218 (seed 1) and 90765 (seed 4) nodes
    # on these boards, learning 2434 and 3666, learning with re-implication
    # 459 and 431, and learning on true decision levels 517 and 436.
    instance = sized_instance(random.Random(seed), 14, 14, planted)
    out = solver.solve(reduction.reduce(instance).board)
    sat = bool(reduction.enumerate_assignments(instance))
    assert out.status is (SolveStatus.SAT if sat else SolveStatus.UNSAT)
    assert sat == planted
    assert out.nodes <= 10_000


def accepted_colorings(reduced, instance):
    # encodings of the accepted assignments, in the board's lexicographic order
    return sorted((reduction.assignment_to_coloring(reduced, a)
                   for a in reduction.enumerate_assignments(instance)),
                  key=lambda s: lex_key(reduced.board, s))


# Node counts of the corpus below, 6,128 in all.  The search is deterministic and must not
# depend on the interpreter version, so every CI leg checks them.  A presolve
# ahead of the search (ROADMAP item 2) is expected to move them; a change
# that does must say so in CHANGES.md and give the new counts.
N10_CORPUS_NODES = [158, 110, 237, 162, 62, 307, 283, 217, 211, 231, 207, 290,
                    110, 255, 247, 235, 161, 298, 113, 178, 123, 190, 262, 177,
                    262, 257, 129, 268, 181, 207]


def test_reduced_n10_corpus_solves_to_the_least_encoding():
    rng = random.Random(8086)
    nodes = []
    for k in range(30):
        planted = bool(k % 2)
        instance = sized_instance(rng, 10, 10, planted)
        reduced = reduction.reduce(instance)
        board = reduced.board
        expected = accepted_colorings(reduced, instance)[:1]
        out = solver.solve(board)
        assert list(out.solutions) == expected
        assert out.status is (SolveStatus.SAT if expected
                              else SolveStatus.UNSAT)
        if planted:
            assert expected
        nodes.append(out.nodes)
    assert nodes == N10_CORPUS_NODES


# Node totals per cap over each corpus below.  Past the first solution
# only a search with cap 2 or more runs, so N10_CORPUS_NODES cannot see
# how the search steps back from a level whose subtree emitted one.
DEEPER_NODES = {False: {1: 550, 2: 699, 3: 803, 1 << 20: 899},
                True: {1: 577, 2: 994, 3: 1078, 1 << 20: 1209}}


@pytest.mark.parametrize("planted", [False, True])
def test_deeper_reduced_enumeration_keeps_every_cap(planted):
    # Conflicts after an emitted solution, and conflicts below the top
    # level, are where chronological backtracking could repeat or skip
    # one, so every cap is checked.
    rng = random.Random(6502 + planted)
    nodes = dict.fromkeys(DEEPER_NODES[planted], 0)
    for _ in range(8):
        nvars = rng.randint(7, 8)
        instance = sized_instance(rng, nvars, rng.randint(3, 8), planted)
        reduced = reduction.reduce(instance)
        expected = accepted_colorings(reduced, instance)
        for cap in (1, 2, 3, 1 << 20):
            out = solver.enumerate(reduced.board, cap=cap)
            nodes[cap] += out.nodes
            assert list(out.solutions) == expected[:cap]
            if cap <= len(expected):
                assert out.status is SolveStatus.CAP_REACHED
            else:
                assert out.status is (SolveStatus.SAT if expected
                                      else SolveStatus.UNSAT)
    assert nodes == DEEPER_NODES[planted]


def test_chronological_backtracking_keeps_n24_search_small():
    # Backjumping took 57925 nodes on the planted board; chronological
    # backtracking without re-implication 35597, with it 3282, and on true
    # decision levels 3024.  The uniform board is ROADMAP's n=24, m=30 row,
    # UNSAT by HiGHS; the planted board's first solution has the digest
    # recorded there (sha256 of the row-major 0/1 string, 12 hex digits).
    for planted in (False, True):
        instance = sized_instance(random.Random(1), 24, 30, planted)
        reduced = reduction.reduce(instance)
        board = reduced.board
        out = solver.solve(board)
        assert out.nodes <= 8_000
        if not planted:
            assert out.status is SolveStatus.UNSAT
            continue
        assert out.status is SolveStatus.SAT
        (coloring,) = out.solutions
        assert check_coloring(board, coloring).ok
        bits = "".join("01"[coord in coloring.blacks]
                       for coord in board.row_major)
        assert hashlib.sha256(bits.encode()).hexdigest()[:12] == "10abdb216609"
        values = reduction.coloring_to_assignment(reduced, coloring)
        assert all(sum(values[abs(lit) - 1] ^ (lit < 0) for lit in clause)
                   == 1 for clause in instance.clauses)
