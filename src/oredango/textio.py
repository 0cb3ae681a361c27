"""Plain-text formats for boards, colorings, and 1-in-3 instances.

Board files (`.odg`) are keyword lines: `rows` and `cols` headers first,
then `circle <row> <col> [clue]` declarations and
`skewer <r1> <c1> <r2> <c2> ...` paths over circles declared on earlier
lines; a skewer that visits a circle declared later is a grammar error
at that pair.  Coloring
files (`.sol`) are character grids over `.` (no circle), `B`, and `W`.
Instance files (`.c13`) start with `p 1in3 <nvars> <nclauses>` and list
each clause as three nonzero integers closed by `0`.

A line ends at `\n`, `\r\n` or a lone `\r`; a form feed or any other
whitespace stays inside its line.  All three readers skip blank lines
and `#` comment lines, tolerate surplus whitespace, and read to the end
of the text: the ParseError they raise holds the first MAX_DIAGNOSTICS
diagnostics and counts the rest.  Each diagnostic has a
1-based line and a column: the 1-based column of the token at fault, or
column 0 when the diagnostic is about a whole line or file, which holds
for a missing header, a grid-line or clause count that differs from the
header, and a board-rule (`BoardError`) fault.  A missing header or grid
line is reported at the last significant line, or at line 1 of a file
without one.  A message is cut to 160 characters, the last one `…`.
Writers emit canonical LF text that reparses to an equal value.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .core import (BLACK, WHITE, Board, BoardError, Coloring, ColoringError,
                   Coord, _collector_paused, build_board)

if TYPE_CHECKING:
    from .reduction import OneInThreeInstance

_TOKEN = re.compile(r"\S+")


class ParseDiagnostic(NamedTuple):
    """One reader complaint; `structural` marks well-formed text that
    breaks a board rule rather than the grammar."""

    line: int
    column: int
    message: str
    structural: bool = False


# Diagnostics a ParseError holds, in reading order; a reader only counts
# those past them, and cuts each message to _MESSAGE_WIDTH characters, so
# hostile input fails in bounded memory with a bounded diagnostic.
MAX_DIAGNOSTICS = 20
_MESSAGE_WIDTH = 160


class ParseError(ValueError):
    """Unusable text: `diagnostics` holds the complaints a reader kept,
    the first MAX_DIAGNOSTICS at most, in reading order, and `more`
    counts the rest.  The message quotes the first three and counts the
    others as `(+N more)`."""

    def __init__(self, diagnostics, more: int = 0):
        self.diagnostics = tuple(diagnostics)
        self.more = more
        parts = [f"line {d.line}: {d.message}" for d in self.diagnostics[:3]]
        rest = len(self.diagnostics) + more - len(parts)
        if rest:
            parts.append(f"(+{rest} more)")
        super().__init__("; ".join(parts))

    @property
    def structural(self) -> bool:
        return bool(self.diagnostics) and all(d.structural
                                              for d in self.diagnostics)


class _Found:
    """A reader's diagnostics: the first MAX_DIAGNOSTICS kept, the rest
    only counted, so that `+K more` stays exact without holding them."""

    def __init__(self):
        self.kept: list[ParseDiagnostic] = []
        self.more = 0

    def add(self, line: int, column: int, message: str,
            raw: str | None = None) -> None:
        """Keep one diagnostic while there is room, else count it; `column`
        and `raw` are read as `_diagnostic` reads them."""
        if len(self.kept) == MAX_DIAGNOSTICS:
            self.more += 1
            return
        self.kept.append(_diagnostic(line, column, message, raw))


def _diagnostic(line: int, column: int, message: str, raw: str | None = None,
                structural: bool = False) -> ParseDiagnostic:
    """The one maker of a ParseDiagnostic.  Given the line's text `raw`,
    `column` is an index into `raw.split()`, which splits where `_TOKEN`
    does, and becomes that token's 1-based column: readers split every
    line and locate its tokens only for a diagnostic that they keep.  A
    message past _MESSAGE_WIDTH characters is cut to that width, its last
    character `…`."""
    if raw is not None:
        column = [m.start() + 1 for m in _TOKEN.finditer(raw)][column]
    if len(message) > _MESSAGE_WIDTH:
        message = message[:_MESSAGE_WIDTH - 1] + "…"
    return ParseDiagnostic(line, column, message, structural)


def _lines(text: str) -> list[str]:
    """The lines of `text`, each ended by `\\n`, `\\r\\n` or a lone `\\r`:
    the line ends `Path.read_text` normalises, and no others."""
    if "\r" in text:   # the replaces cost more than the split, even idle
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _significant(text: str) -> list[tuple[int, str]]:
    """Each line that is neither blank nor a `#` comment, numbered."""
    return [(lineno, raw) for lineno, raw in enumerate(_lines(text), start=1)
            if raw.strip()[:1] not in ("", "#")]


def _as_int(token: str) -> int | None:
    try:
        return int(token)
    except ValueError:
        return None


@_collector_paused
def parse_board(text: str) -> Board:
    """Read a board file; raises ParseError with its first
    MAX_DIAGNOSTICS diagnostics and a count of the rest.

    The `rows` and `cols` headers are read first; one pass then reads
    and checks every later line, and makes one coordinate tuple per
    circle, which keys its clue in the `{(row, col): clue}` mapping
    handed to `build_board`, and so in the board.
    """
    lines = enumerate(_lines(text), start=1)
    size: list[tuple[int, int]] = []   # (count, line) of `rows`, `cols`
    for want in ("rows", "cols"):
        for lineno, raw in lines:
            tokens = raw.split()
            if tokens and tokens[0][0] != "#":
                break
        else:
            last = size[-1][1] if size else 1
            raise ParseError([_diagnostic(last, 0,
                                          f"missing `{want}` header")])
        if tokens[0] != want:
            raise ParseError([_diagnostic(
                lineno, 0, f"expected `{want} <count>` header", raw)])
        count = _as_int(tokens[1]) if len(tokens) == 2 else None
        if count is None:
            raise ParseError([_diagnostic(
                lineno, 0, f"`{want}` header takes one integer", raw)])
        size.append((count, lineno))

    found = _Found()
    circles: dict[Coord, int | None] = {}
    circle_line: list[int] = []   # each circle's line, in declaration order
    skewers: list[list[Coord]] = []
    skewer_line: list[int] = []
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        keyword = tokens[0]
        if keyword == "circle":
            if len(tokens) not in (3, 4):
                found.add(lineno, 0,
                          "circle takes `circle <row> <col> [clue]`", raw)
                continue
            try:
                r, c = int(tokens[1]), int(tokens[2])
                clue = int(tokens[3]) if len(tokens) == 4 else None
            except ValueError:
                for k, token in enumerate(tokens[1:], start=1):
                    if _as_int(token) is None:
                        found.add(lineno, k, f"not an integer: `{token}`",
                                  raw)
                continue
            coord = (r, c)
            if coord in circles:
                found.add(lineno, 0, f"circle {coord} already declared", raw)
                continue
            circles[coord] = clue
            circle_line.append(lineno)
        elif keyword == "skewer":
            pairs = tokens[1:]
            if len(pairs) < 4 or len(pairs) % 2:
                found.add(lineno, 0,
                          "skewer takes two or more `<row> <col>` pairs", raw)
                continue
            try:
                flat = list(map(int, pairs))
            except ValueError:
                flat = None
            if flat is not None:
                path = list(zip(flat[::2], flat[1::2]))
                if all(map(circles.__contains__, path)):
                    skewers.append(path)
                    skewer_line.append(lineno)
                    continue
            _skewer_faults(found, lineno, raw, pairs, circles)
        elif keyword in ("rows", "cols"):
            found.add(lineno, 0, f"duplicate `{keyword}` header", raw)
        else:
            found.add(lineno, 0, f"unknown directive `{keyword}`", raw)

    if found.kept:
        raise ParseError(found.kept, found.more)

    (rows, rows_line), (cols, cols_line) = size
    try:
        return build_board(rows, cols, circles, skewers)
    except BoardError as err:
        line = 0
        # a grid below 1x1 is the first fault `build_board` checks
        if rows < 1:
            line = rows_line
        elif cols < 1:
            line = cols_line
        elif err.skewer is not None and 1 <= err.skewer <= len(skewer_line):
            line = skewer_line[err.skewer - 1]
        elif err.coord in circles:
            line = circle_line[list(circles).index(err.coord)]
        raise ParseError([_diagnostic(line, 0, str(err),
                                      structural=True)]) from err


def _skewer_faults(found: _Found, lineno: int, raw: str, pairs: list[str],
                   declared: dict[Coord, int | None]) -> None:
    """Diagnose a faulty skewer line pair by pair: the first non-integer
    of a pair, else an undeclared circle at its row token."""
    for k in range(0, len(pairs), 2):
        row, col = _as_int(pairs[k]), _as_int(pairs[k + 1])
        if row is None or col is None:
            bad = k if row is None else k + 1
            found.add(lineno, bad + 1, f"not an integer: `{pairs[bad]}`", raw)
        elif (row, col) not in declared:
            found.add(lineno, k + 1,
                      f"skewer visits undeclared circle {(row, col)}", raw)


@_collector_paused
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


@_collector_paused
def parse_coloring(text: str, board: Board) -> Coloring:
    """Read a coloring grid for `board`; `.` only off circles, B/W on them.

    A row of the board's width is read whole when each of its circles
    holds B or W and its `.` count is the number of cells off them; a
    row that is not is scanned cell by cell for its diagnostics.
    """
    found = _Found()
    rows = _significant(text)
    if len(rows) != board.rows:
        last = rows[-1][0] if rows else 1
        raise ParseError([_diagnostic(
            last, 0, f"expected {board.rows} grid lines, found {len(rows)}")])
    circle_cols = {r: [c for _, c in row]
                   for r, row in groupby(board.row_major, itemgetter(0))}
    blacks: list[Coord] = []
    for r, (lineno, raw) in enumerate(rows, start=1):
        cells = raw.strip()
        lead = len(raw) - len(raw.lstrip())
        if len(cells) != board.cols:
            found.add(lineno, lead + 1, f"grid line holds {len(cells)} "
                      f"cells, board has {board.cols}")
            continue
        cols = circle_cols.get(r, ())
        marks = [cells[c - 1] for c in cols]
        if (cells.count(".") == board.cols - len(cols)
                and marks.count(BLACK) + marks.count(WHITE) == len(cols)):
            blacks += [(r, c) for c, mark in zip(cols, marks) if mark == BLACK]
            continue
        for j, char in enumerate(cells, start=1):
            coord = (r, j)
            column = lead + j
            if char == ".":
                if coord in board.circles:
                    found.add(lineno, column,
                              f"circle at {coord} needs B or W")
            elif char in (BLACK, WHITE):
                if coord not in board.circles:
                    found.add(lineno, column, f"no circle at {coord}")
            else:
                found.add(lineno, column, f"bad cell character {char!r}")
    if found.kept:
        raise ParseError(found.kept, found.more)
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


@_collector_paused
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


@_collector_paused
def parse_one_in_three(text: str) -> OneInThreeInstance:
    """Read a `.c13` instance file."""
    # imported here so that reading boards does not load `reduction`
    from .reduction import OneInThreeInstance, clause_findings

    lines = _significant(text)
    if not lines:
        raise ParseError([_diagnostic(
            1, 0, "missing `p 1in3 <nvars> <nclauses>` header")])
    found = _Found()
    lineno, raw = lines[0]
    tokens = raw.split()
    nvars = _as_int(tokens[2]) if len(tokens) > 2 else None
    nclauses = _as_int(tokens[3]) if len(tokens) > 3 else None
    if (len(tokens) != 4 or tokens[:2] != ["p", "1in3"]
            or nvars is None or nclauses is None or nvars < 0 or nclauses < 0):
        raise ParseError([_diagnostic(
            lineno, 0, "header must read `p 1in3 <nvars> <nclauses>`", raw)])

    body = lines[1:]
    if len(body) != nclauses:
        where = body[-1][0] if body else lineno
        found.add(where, 0,
                  f"header promises {nclauses} clauses, found {len(body)}")

    clauses: list[list[int]] = []
    for lineno, raw in body:
        tokens = raw.split()
        try:
            values = list(map(int, tokens))
        except ValueError:
            bad = next(k for k, token in enumerate(tokens)
                       if _as_int(token) is None)
            found.add(lineno, bad, f"not an integer: `{tokens[bad]}`", raw)
            continue
        if len(values) != 4 or values[3] != 0:
            found.add(lineno, 0,
                      "clause line is three literals and a closing 0", raw)
            continue
        for k, message in clause_findings(values[:3], nvars):
            found.add(lineno, k, message, raw)
        clauses.append(values[:3])

    if found.kept:
        raise ParseError(found.kept, found.more)
    return OneInThreeInstance(nvars, tuple(clauses))


def write_one_in_three(instance: OneInThreeInstance) -> str:
    """Canonical `.c13` text, literals sorted by variable."""
    lines = [f"p 1in3 {instance.nvars} {len(instance.clauses)}"]
    for clause in instance.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    lines.append("")
    return "\n".join(lines)
