"""Plain-text formats for boards, colorings, and 1-in-3 instances.

Board files (`.odg`) are keyword lines: `rows` and `cols` headers first,
then `circle <row> <col> [clue]` declarations and
`skewer <r1> <c1> <r2> <c2> ...` paths over circles declared on earlier
lines; a skewer that visits a circle declared later is a grammar error
at that pair.  Coloring
files (`.sol`) are character grids over `.` (no circle), `B`, and `W`.
Instance files (`.c13`) start with `p 1in3 <nvars> <nclauses>` and list
each clause as three nonzero integers closed by `0`.

All three readers skip blank lines and `#` comment lines, tolerate
surplus whitespace and CRLF endings, and report every diagnostic with a
1-based line and a column: the 1-based column of the token at fault, or
column 0 when the diagnostic is about a whole line or file, which holds
for a missing header, a grid-line or clause count that differs from the
header, and a board-rule (`BoardError`) fault.  A missing header or grid
line is reported at the last significant line, or at line 1 of a file
without one.  Writers emit canonical LF text that reparses to an equal
value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from .core import (BLACK, WHITE, Board, BoardError, Coloring, ColoringError,
                   Coord, build_board)

if TYPE_CHECKING:
    from .reduction import OneInThreeInstance

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class ParseDiagnostic:
    """One reader complaint; `structural` marks well-formed text that
    breaks a board rule rather than the grammar."""

    line: int
    column: int
    message: str
    structural: bool = False


class ParseError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        parts = [f"line {d.line}: {d.message}" for d in self.diagnostics[:3]]
        if len(self.diagnostics) > 3:
            parts.append(f"(+{len(self.diagnostics) - 3} more)")
        super().__init__("; ".join(parts))

    @property
    def structural(self) -> bool:
        return bool(self.diagnostics) and all(d.structural
                                              for d in self.diagnostics)


def _significant(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def _columns(raw: str) -> list[int]:
    """The 1-based column of each token of `raw.split()`, which splits
    where `_TOKEN` does.  Readers split every line and locate its tokens
    only on a line that a diagnostic names."""
    return [m.start() + 1 for m in _TOKEN.finditer(raw)]


def _as_int(token: str) -> int | None:
    try:
        return int(token)
    except ValueError:
        return None


def parse_board(text: str) -> Board:
    """Read a board file; raises ParseError carrying all diagnostics.

    One pass reads and checks every line, and makes one coordinate tuple
    per circle, which an unclued circle hands on to the board.
    """
    diags: list[ParseDiagnostic] = []
    headers: dict[str, int] = {}
    header_line: dict[str, int] = {}
    pending = ["rows", "cols"]
    circles: list[tuple[int, ...]] = []
    circle_line: dict[Coord, int] = {}
    skewers: list[list[Coord]] = []
    skewer_line: list[int] = []
    last = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        last = lineno
        keyword = tokens[0]
        if pending:
            want = pending[0]
            if keyword != want:
                diags.append(ParseDiagnostic(
                    lineno, _columns(raw)[0],
                    f"expected `{want} <count>` header"))
                raise ParseError(diags)
            count = _as_int(tokens[1]) if len(tokens) == 2 else None
            if count is None:
                diags.append(ParseDiagnostic(
                    lineno, _columns(raw)[0],
                    f"`{want}` header takes one integer"))
                raise ParseError(diags)
            headers[want] = count
            header_line[want] = lineno
            pending.pop(0)
            continue

        if keyword == "circle":
            if len(tokens) not in (3, 4):
                diags.append(ParseDiagnostic(
                    lineno, _columns(raw)[0],
                    "circle takes `circle <row> <col> [clue]`"))
                continue
            try:
                r, c = int(tokens[1]), int(tokens[2])
                clue = int(tokens[3]) if len(tokens) == 4 else None
            except ValueError:
                diags += [ParseDiagnostic(lineno, column,
                                          f"not an integer: `{token}`")
                          for token, column in zip(tokens[1:],
                                                   _columns(raw)[1:])
                          if _as_int(token) is None]
                continue
            coord = (r, c)
            if coord in circle_line:
                diags.append(ParseDiagnostic(
                    lineno, _columns(raw)[0],
                    f"circle {coord} already declared"))
                continue
            circle_line[coord] = lineno
            circles.append(coord if clue is None else (r, c, clue))
        elif keyword == "skewer":
            pairs = tokens[1:]
            if len(pairs) < 4 or len(pairs) % 2:
                diags.append(ParseDiagnostic(
                    lineno, _columns(raw)[0],
                    "skewer takes two or more `<row> <col>` pairs"))
                continue
            try:
                flat = list(map(int, pairs))
            except ValueError:
                flat = None
            if flat is not None:
                path = list(zip(flat[::2], flat[1::2]))
                if all(map(circle_line.__contains__, path)):
                    skewers.append(path)
                    skewer_line.append(lineno)
                    continue
            diags += _skewer_faults(lineno, raw, pairs, circle_line)
        elif keyword in ("rows", "cols"):
            diags.append(ParseDiagnostic(
                lineno, _columns(raw)[0], f"duplicate `{keyword}` header"))
        else:
            diags.append(ParseDiagnostic(
                lineno, _columns(raw)[0], f"unknown directive `{keyword}`"))

    if pending:
        diags.append(ParseDiagnostic(
            last, 0, f"missing `{pending[0]}` header"))
    if diags:
        raise ParseError(diags)

    try:
        return build_board(headers["rows"], headers["cols"], circles, skewers)
    except BoardError as err:
        line = 0
        # a grid below 1x1 is the first fault `build_board` checks
        if headers["rows"] < 1:
            line = header_line["rows"]
        elif headers["cols"] < 1:
            line = header_line["cols"]
        elif err.skewer is not None and 1 <= err.skewer <= len(skewer_line):
            line = skewer_line[err.skewer - 1]
        elif err.coord is not None and err.coord in circle_line:
            line = circle_line[err.coord]
        raise ParseError([ParseDiagnostic(line, 0, str(err),
                                          structural=True)]) from err


def _skewer_faults(lineno: int, raw: str, pairs: list[str],
                   declared: dict[Coord, int]) -> list[ParseDiagnostic]:
    """Diagnostics of a faulty skewer line, pair by pair: the first
    non-integer of a pair, else an undeclared circle at its row token."""
    columns = _columns(raw)
    found = []
    for k in range(0, len(pairs), 2):
        row, col = _as_int(pairs[k]), _as_int(pairs[k + 1])
        if row is None or col is None:
            bad = k if row is None else k + 1
            found.append(ParseDiagnostic(
                lineno, columns[bad + 1], f"not an integer: `{pairs[bad]}`"))
        elif (row, col) not in declared:
            found.append(ParseDiagnostic(
                lineno, columns[k + 1],
                f"skewer visits undeclared circle {(row, col)}"))
    return found


def write_board(board: Board) -> str:
    """Canonical board text: headers, circles row-major, then the
    multi-circle skewers in stored order."""
    lines = [f"rows {board.rows}", f"cols {board.cols}"]
    for coord in board.row_major:
        clue = board.circles[coord]
        suffix = "" if clue is None else f" {clue}"
        lines.append(f"circle {coord[0]} {coord[1]}{suffix}")
    for path in board.skewers:
        if len(path) >= 2:
            flat = " ".join(f"{r} {c}" for r, c in path)
            lines.append(f"skewer {flat}")
    lines.append("")   # the final newline, without copying the text
    return "\n".join(lines)


# With W read as B, a valid grid row equals its board row's shape: B at
# each circle, `.` elsewhere.
_SHAPE = str.maketrans(WHITE, BLACK)


def parse_coloring(text: str, board: Board) -> Coloring:
    """Read a coloring grid for `board`; `.` only off circles, B/W on them.

    A row is read whole when it has the board's shape; a row that does
    not is scanned cell by cell for its diagnostics.
    """
    diags: list[ParseDiagnostic] = []
    rows = list(_significant(text))
    if len(rows) != board.rows:
        last = rows[-1][0] if rows else 1
        raise ParseError([ParseDiagnostic(
            last, 0, f"expected {board.rows} grid lines, found {len(rows)}")])
    circle_cols = {r: [c for _, c in row]
                   for r, row in groupby(board.row_major, itemgetter(0))}
    blank = ""
    blacks: list[Coord] = []
    for r, (lineno, raw) in enumerate(rows, start=1):
        cells = raw.strip()
        lead = len(raw) - len(raw.lstrip())
        if len(cells) != board.cols:
            diags.append(ParseDiagnostic(
                lineno, lead + 1,
                f"grid line holds {len(cells)} cells, board has {board.cols}"))
            continue
        # built only once a row of the file has the header's width, so a
        # short file costs no more than its text whatever the header says
        blank = blank or "." * board.cols
        cols = circle_cols.get(r, ())
        shape = blank
        if cols:
            marks = list(blank)
            for c in cols:
                marks[c - 1] = BLACK
            shape = "".join(marks)
        if cells.translate(_SHAPE) == shape:
            blacks += [(r, c) for c in cols if cells[c - 1] == BLACK]
            continue
        for j, char in enumerate(cells, start=1):
            coord = (r, j)
            column = lead + j
            if char == ".":
                if coord in board.circles:
                    diags.append(ParseDiagnostic(
                        lineno, column, f"circle at {coord} needs B or W"))
            elif char in (BLACK, WHITE):
                if coord not in board.circles:
                    diags.append(ParseDiagnostic(
                        lineno, column, f"no circle at {coord}"))
            else:
                diags.append(ParseDiagnostic(
                    lineno, column, f"bad cell character {char!r}"))
    if diags:
        raise ParseError(diags)
    return Coloring(frozenset(board.circles), frozenset(blacks))


# Largest rows * cols grid `write_coloring` builds.  A `.sol` grid is as
# large as the board's header, which may declare far more cells than the
# circles need; `solve --count` and `lp` do not write grids.
MAX_GRID_CELLS = 10_000_000


def check_grid_size(board: Board) -> None:
    """Raise ColoringError when the board's `.sol` grid would exceed
    MAX_GRID_CELLS cells."""
    if board.rows * board.cols > MAX_GRID_CELLS:
        raise ColoringError(
            f"a {board.rows} x {board.cols} grid exceeds the .sol limit "
            f"of {MAX_GRID_CELLS} cells")


def write_coloring(coloring: Coloring, board: Board) -> str:
    """Grid text of a coloring over `board`; ColoringError beyond
    MAX_GRID_CELLS cells."""
    check_grid_size(board)
    if board.circles.keys() != coloring.cells:
        raise ColoringError("coloring does not cover the board's circles")
    blank = "." * board.cols
    # rows without circles share the blank template
    lines = [blank] * board.rows
    blacks = coloring.blacks
    for r, row in groupby(board.row_major, itemgetter(0)):
        line = list(blank)
        for coord in row:
            line[coord[1] - 1] = BLACK if coord in blacks else WHITE
        lines[r - 1] = "".join(line)
    lines.append("")
    return "\n".join(lines)


def parse_one_in_three(text: str) -> OneInThreeInstance:
    """Read a `.c13` instance file."""
    # imported here so that reading boards does not load `reduction`
    from .reduction import OneInThreeInstance, clause_findings

    lines = list(_significant(text))
    if not lines:
        raise ParseError([ParseDiagnostic(
            1, 0, "missing `p 1in3 <nvars> <nclauses>` header")])
    diags: list[ParseDiagnostic] = []
    lineno, raw = lines[0]
    tokens = raw.split()
    nvars = _as_int(tokens[2]) if len(tokens) > 2 else None
    nclauses = _as_int(tokens[3]) if len(tokens) > 3 else None
    if (len(tokens) != 4 or tokens[:2] != ["p", "1in3"]
            or nvars is None or nclauses is None or nvars < 0 or nclauses < 0):
        raise ParseError([ParseDiagnostic(
            lineno, _columns(raw)[0],
            "header must read `p 1in3 <nvars> <nclauses>`")])

    body = lines[1:]
    if len(body) != nclauses:
        where = body[-1][0] if body else lineno
        diags.append(ParseDiagnostic(
            where, 0,
            f"header promises {nclauses} clauses, found {len(body)}"))

    clauses: list[list[int]] = []
    for lineno, raw in body:
        tokens = raw.split()
        try:
            values = list(map(int, tokens))
        except ValueError:
            bad = next(k for k, token in enumerate(tokens)
                       if _as_int(token) is None)
            diags.append(ParseDiagnostic(
                lineno, _columns(raw)[bad],
                f"not an integer: `{tokens[bad]}`"))
            continue
        if len(values) != 4 or values[3] != 0:
            diags.append(ParseDiagnostic(
                lineno, _columns(raw)[0],
                "clause line is three literals and a closing 0"))
            continue
        findings = clause_findings(values[:3], nvars)
        if findings:
            columns = _columns(raw)
            diags += [ParseDiagnostic(lineno, columns[k], message)
                      for k, message in findings]
        clauses.append(values[:3])

    if diags:
        raise ParseError(diags)
    return OneInThreeInstance(nvars, tuple(clauses))


def write_one_in_three(instance: OneInThreeInstance) -> str:
    """Canonical `.c13` text, literals sorted by variable."""
    lines = [f"p 1in3 {instance.nvars} {len(instance.clauses)}"]
    for clause in instance.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    lines.append("")
    return "\n".join(lines)
