"""Property tests (hypothesis): text round trips and the rule checker
against the exhaustive mask oracle.  Settings come from the profile that
`conftest.py` loads: derandomized, no example database, no deadline."""

from hypothesis import given, strategies as st

from oredango import reduction, textio
from oredango.core import Coloring, build_board
from oracles import literal_oracle, mask_oracle


@st.composite
def boards(draw, max_side=5, max_circles=12):
    """A valid board: random circles, paths walked between touching free
    circles (some written reversed) and at most one clue per skewer."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    cells = draw(st.lists(
        st.tuples(st.integers(1, rows), st.integers(1, cols)),
        unique=True, max_size=max_circles))
    free = set(cells)
    paths = []
    for start in cells:
        if start not in free or not draw(st.booleans()):
            continue
        path = [start]
        free.discard(start)
        while True:
            r, c = path[-1]
            steps = sorted((r + dr, c + dc) for dr in (-1, 0, 1)
                           for dc in (-1, 0, 1) if (r + dr, c + dc) in free)
            if not steps or not draw(st.booleans()):
                break
            path.append(draw(st.sampled_from(steps)))
            free.discard(path[-1])
        paths.append(path[::-1] if draw(st.booleans()) else path)
    clues = {}
    for path in paths + [[cell] for cell in sorted(free)]:
        if draw(st.booleans()):
            clues[draw(st.sampled_from(path))] = draw(
                st.integers(0, len(path)))
    return build_board(rows, cols, {cell: clues.get(cell) for cell in cells},
                       paths)


@st.composite
def instances(draw, max_vars=8, max_clauses=6):
    nvars = draw(st.integers(3, max_vars))
    clause = st.tuples(
        st.lists(st.integers(1, nvars), min_size=3, max_size=3, unique=True),
        st.lists(st.booleans(), min_size=3, max_size=3))
    drawn = draw(st.lists(clause, max_size=max_clauses))
    return reduction.one_in_three(
        nvars, [[-v if neg else v for v, neg in zip(vs, signs)]
                for vs, signs in drawn])


@given(boards())
def test_board_text_round_trips(board):
    assert textio.parse_board(textio.write_board(board)) == board


@given(instances())
def test_one_in_three_text_round_trips(instance):
    text = textio.write_one_in_three(instance)
    assert textio.parse_one_in_three(text) == instance


@given(boards(max_circles=8))
def test_checker_accepts_exactly_the_oracle_solutions(board):
    # literal_oracle runs check_coloring on every coloring of the board
    assert literal_oracle(board) == mask_oracle(board)


@given(boards(), st.integers(0, 3), st.integers(0, 3), st.data())
def test_coloring_text_round_trips_on_slack_headers(board, extra_rows,
                                                    extra_cols, data):
    # the same circles and skewers under a header with empty rows and
    # columns added below and to the right
    slack = build_board(board.rows + extra_rows, board.cols + extra_cols,
                        board.circles, board.skewers)
    blacks = data.draw(st.sets(st.sampled_from(sorted(slack.circles)))
                       if slack.circles else st.just(set()))
    coloring = Coloring(frozenset(slack.circles), frozenset(blacks))
    text = textio.write_coloring(coloring, slack)
    assert textio.parse_coloring(text, slack) == coloring
    assert len(text.splitlines()) == slack.rows
