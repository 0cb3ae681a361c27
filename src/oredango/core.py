"""Board model and rule checker for the Oredango pencil puzzle.

An Oredango board is an m x n grid.  Some cells carry circles, each circle
is colored black or white by the solver.  Circles are threaded onto skewers:
paths of circles in which consecutive circles occupy touching cells
(horizontally, vertically, or diagonally).  Every circle belongs to exactly
one skewer; a circle not listed on any explicit skewer forms a skewer of its
own.  At most one circle per skewer carries a numeric clue.

A coloring solves the board when

  A. every clued skewer holds exactly `clue` black circles,
  B. no three consecutive circles along a skewer share one color,
  C. no three consecutive circles within a row share one color, and
  D. no three consecutive circles within a column share one color.

For rules C and D "consecutive" skips cells without circles: the circles of
a line are read in order and every window of three adjacent ones is checked.

Coordinates are 1-based (row, col) pairs counted from the top-left cell.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import cached_property, wraps
from gc import disable, enable, isenabled
from itertools import chain, compress, count, groupby, islice, repeat
from operator import eq, getitem, gt, itemgetter, or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

BLACK = "B"
WHITE = "W"

Coord = tuple[int, int]
Triple = tuple[Coord, Coord, Coord]
_T = TypeVar("_T")


def _collector_paused(fn):
    """Run `fn` with the cyclic garbage collector paused.

    The public calls that build or walk per-circle data carry this
    decorator: building a large board allocates enough containers to fire
    thousands of collections, and the package makes no reference cycles
    (`tests/test_collector.py` holds it to that), so every one of them
    would free nothing.  The collector is disabled for the whole span of
    the call, not only while a board is built: its allocation count keeps
    rising while it is off, so the first container allocated after a
    paused build returns would fire a sweep of everything the build kept.
    It is enabled again when the call returns or raises.  A caller that has
    disabled it finds it still off, and nested calls leave it as they
    found it.  Thresholds are never touched, and nothing is allocated per
    call but the argument tuple and keyword dict, before the pause.  The
    collector is process-global: a `gc.enable` or `gc.disable` that
    another thread makes during a call may be undone when the call
    returns.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not isenabled():
            return fn(*args, **kwargs)
        disable()
        try:
            return fn(*args, **kwargs)
        finally:
            enable()
    return paused


class BoardError(ValueError):
    """A structural rule of the board model is broken.

    `coord` and `skewer` locate the offending declaration when known, so
    that callers holding source positions can point at the right line.
    """

    def __init__(self, message: str, coord: Coord | None = None,
                 skewer: int | None = None):
        super().__init__(message)
        self.coord = coord
        self.skewer = skewer


class ColoringError(ValueError):
    """A coloring does not fit the board it is checked against."""


class Frozen:
    """Base of the package's immutable value classes: each sets its
    fields once, in `__init__`, and assigning to or deleting an
    attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: {name!r} cannot change")

    # takes the name alone, which `*value` lets the same method accept
    __delattr__ = __setattr__


class Rules(Frozen):
    """Rules A-D of one board as bounded black counts.  Read it through
    `Board.rules`; callers must not mutate its arrays.

    Entry e bounds the black count over the circles `groups[e]` to
    [`lo[e]`, `hi[e]`]; a circle is named by its index in
    `Board.row_major`, and the entry lists it in skewer, row or column
    order.  `groups` holds one tuple of indices per entry, and a circle's
    index is one int object wherever it appears, so the search engine
    keeps these tuples as they are.  `runs` tags the entries line by line
    as (rule, index, first entry, count): one run per clued skewer for
    rule A, one per skewer, row or column with a window for rules B, C
    and D, whose entry `first + w - 1` is window w.  `rule` and `index`
    read as in `Violation`.  Rules compare equal when their four fields
    do.
    """

    groups: tuple[tuple[int, ...], ...]
    lo: array
    hi: array
    runs: tuple[tuple[str, int, int, int], ...]

    def __init__(self, groups, lo, hi, runs):
        vars(self).update(groups=groups, lo=lo, hi=hi, runs=runs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.groups, self.lo, self.hi, self.runs)
                == (other.groups, other.lo, other.hi, other.runs))

    @cached_property
    def _shape(self) -> list[tuple[int, int]]:
        # (size, count) of each run of equal-sized entries
        return [(size, len(list(run)))
                for size, run in groupby(map(len, self.groups))]

    def cut(self, flat: Iterable[_T]) -> Iterator[tuple[_T, ...]]:
        """`flat`, one item per index of `chain.from_iterable(groups)`,
        cut lazily into one tuple per entry: the store's one cutter.  A
        caller that drops each tuple before taking the next lets `zip`
        refill it instead of making a new one; `list(rules.cut(...))`
        keeps them all."""
        flat = iter(flat)
        # zip over `size` references to one iterator takes `size` items at
        # a time (no entry is empty)
        return chain.from_iterable(islice(zip(*[flat] * size), run)
                                   for size, run in self._shape)

    def tag(self, e: int) -> tuple[str, int, int | None]:
        """Rule, line index and window of entry e, read as in
        `Violation` (the window is None for rule A)."""
        rule, index, first, _ = self.runs[
            bisect_right(self.runs, e, key=itemgetter(2)) - 1]
        return rule, index, None if rule == "A" else e - first + 1


class Board(Frozen):
    """Immutable puzzle instance.  Construct through `build_board`.

    `circles` maps each circle's coordinate to its clue, or None when it
    carries none.  `skewers` holds each skewer's path of coordinates,
    stored with the lexicographically smaller endpoint first
    (`build_board` flips reversed input, so equal skewers compare equal):
    the multi-circle skewers in input order, then the loners in row-major
    order.  Boards compare equal when their four fields do; a board is
    not hashable, as `circles` is a dict.
    """

    rows: int
    cols: int
    circles: Mapping[Coord, int | None]
    skewers: tuple[tuple[Coord, ...], ...]

    def __init__(self, rows, cols, circles, skewers):
        vars(self).update(rows=rows, cols=cols, circles=circles,
                          skewers=skewers)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rows, self.cols, self.circles, self.skewers)
                == (other.rows, other.cols, other.circles, other.skewers))

    @cached_property
    def row_major(self) -> tuple[Coord, ...]:
        """All circle coordinates in row-major order, sorted once per board
        (`build_board` hands over the order its loner pass sorted)."""
        return tuple(sorted(self.circles))

    def clue_of(self, path: Sequence[Coord]) -> int | None:
        """The clue carried by a skewer path, or None when unclued."""
        for coord in path:
            clue = self.circles[coord]
            if clue is not None:
                return clue
        return None

    @cached_property
    @_collector_paused
    def rules(self) -> Rules:
        """Rules A-D as bounded black counts, one tuple of circle indices
        per entry: rule A by clued skewer, then the windows of rule B by
        skewer, C by row and D by column.

        The board's one rule form, built once: the checker, the search
        engine and the 0-1 model all read it, and nothing else.  Lines are
        grouped from the circles themselves, so the cost grows with the
        circle count, not with the header.  Windows are found by one
        comparison per circle over each rule's lines laid end to end, and a
        loner's clue is read straight from its circle, so boards made
        mostly of loners and pairs, as reduced boards are, cost little
        beyond their windows.  Every index is taken from one list of ints,
        so each circle is one int object across the whole store.
        """
        coords = self.row_major
        circles = self.circles
        ids = list(range(len(coords)))
        index = dict(zip(coords, ids))
        runs: list[tuple[str, int, int, int]] = []
        groups: list[tuple[int, ...]] = []
        clues: list[int] = []
        for k, path in enumerate(self.skewers, start=1):
            clue = (circles[path[0]] if len(path) == 1
                    else self.clue_of(path))
            if clue is not None:
                runs.append(("A", k, len(clues), 1))
                groups.append(tuple(map(index.__getitem__, path)))
                clues.append(clue)
        # Each rule's lines, concatenated: circle indices in line order,
        # and beside each its line number.  Row-major order runs row by
        # row; a stable sort by column keeps each column top to bottom.
        long = [(k, path) for k, path in enumerate(self.skewers, start=1)
                if len(path) > 2]
        col_of = list(map(itemgetter(1), coords))
        by_col = sorted(ids, key=col_of.__getitem__)
        first = len(clues)
        for rule, line, line_of in (
                ("B", [index[c] for _, path in long for c in path],
                 [k for k, path in long for _ in path]),
                ("C", ids, list(map(itemgetter(0), coords))),
                ("D", by_col, list(map(col_of.__getitem__, by_col)))):
            # A window opens at position j when j and j + 2 share a line,
            # so lines of fewer than three circles open none.
            opens = list(map(eq, line_of, line_of[2:]))
            groups += zip(compress(line, opens), compress(line[1:], opens),
                          compress(line[2:], opens))
            for i, starting in groupby(compress(line_of, opens)):
                n = len(list(starting))
                runs.append((rule, i, first, n))
                first += n
        windows = first - len(clues)
        bounds = array("i", clues)
        return Rules(tuple(groups), bounds + array("i", [1]) * windows,
                     bounds + array("i", [2]) * windows, tuple(runs))


class Coloring(Frozen):
    """Total black/white assignment over a board's circles; colorings
    compare and hash on `(cells, blacks)`."""

    __slots__ = ("cells", "blacks")
    cells: frozenset[Coord]
    blacks: frozenset[Coord]

    def __init__(self, cells, blacks):
        if not blacks <= cells:
            raise ColoringError("black cells outside the colored domain")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "blacks", blacks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cells == other.cells and self.blacks == other.blacks

    def __hash__(self):
        return hash((self.cells, self.blacks))

    def __getitem__(self, coord: Coord) -> str:
        if coord not in self.cells:
            raise KeyError(coord)
        return BLACK if coord in self.blacks else WHITE


class TripleIndex(NamedTuple):
    """Every window of three consecutive circles, grouped by line.

    `row_triples[i-1]` lists the windows of row i left to right,
    `col_triples[j-1]` those of column j top to bottom, and
    `skewer_triples[r-1]` those of skewer r in path order.
    """

    row_triples: tuple[tuple[Triple, ...], ...]
    col_triples: tuple[tuple[Triple, ...], ...]
    skewer_triples: tuple[tuple[Triple, ...], ...]


class Violation(NamedTuple):
    """One broken rule instance.

    `rule` is A, B, C, or D.  `index` names the skewer (A, B), row (C), or
    column (D); `window` counts windows from 1 along the line (None for A).
    `observed` is the black count over `cells`, required to lie in
    [`lo`, `hi`].  The field `index` shadows `tuple.index`.
    """

    rule: str
    index: int
    window: int | None
    cells: tuple[Coord, ...]
    observed: int
    lo: int
    hi: int

    def describe(self) -> str:
        where = {"A": "skewer", "B": "skewer", "C": "row", "D": "col"}[self.rule]
        head = f"rule {self.rule} {where} {self.index}"
        if self.window is not None:
            head += f" window {self.window}"
        cells = "".join(f"({r},{c})" for r, c in self.cells)
        if self.rule == "A":
            return f"{head}: {self.observed} black, clue {self.lo} at {cells}"
        return f"{head}: {self.observed} black at {cells}"


class ViolationReport(tuple[Violation, ...]):
    """All rule violations of one coloring, in deterministic order: a
    tuple of its `Violation`s, empty when the coloring solves the board."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self

    @property
    def violations(self) -> ViolationReport:
        """The report itself, for callers that read it by this name; its
        last reader is `benchmarks/workloads.py`."""
        return self


def _canonical_path(path: Sequence[Coord]) -> tuple[Coord, ...]:
    coords = tuple(path)
    if coords and coords[-1] < coords[0]:
        coords = coords[::-1]
    return coords


@_collector_paused
def build_board(rows: int, cols: int,
                circles: Mapping[Coord, int | None],
                skewer_list: Iterable[Sequence[Coord]] = ()) -> Board:
    """Validate and assemble a board.

    `circles` maps each (row, col) tuple of ints to its int clue or
    None, the form `Board.circles` holds: the board keeps a dict copy
    keyed by the caller's tuples, and `build_board(b.rows, b.cols,
    b.circles, b.skewers) == b`.  The header's `rows` and `cols`, and
    each circle's row, column and clue, must be exactly an `int`; a
    `bool`, a float or a string is a fault.  Each entry of
    `skewer_list` is a path over declared circles; circles on no path
    become size-one skewers of their own, appended in row-major order.
    Raises BoardError when any structural rule fails.  The error names
    the first fault: the header, then circles in mapping order, then
    skewer paths in input order, then clues by skewer number.
    """
    if type(rows) is not int or type(cols) is not int:
        raise BoardError(f"grid must be int x int, got {rows!r}x{cols!r}")
    if rows < 1 or cols < 1:
        raise BoardError(f"grid must be at least 1x1, got {rows}x{cols}")

    circles = dict(circles)
    for coord, clue in circles.items():
        try:
            r, c = coord
            # exactly int, as a literal of a clause: not bool, not float
            if type(r) is not int or type(c) is not int:
                raise TypeError
        except (TypeError, ValueError):
            raise BoardError(
                f"circle key {coord!r} is not (row, col)") from None
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise BoardError(f"circle {coord} outside {rows}x{cols} grid",
                             coord=coord)
        if clue is not None:
            if type(clue) is not int:
                raise BoardError(f"clue {clue!r} at {coord} is not an int",
                                 coord=coord)
            if clue < 0:
                raise BoardError(f"negative clue at {coord}", coord=coord)

    skewers: list[tuple[Coord, ...]] = []
    threaded: set[Coord] = set()
    multi: set[Coord] = set()
    fault: BoardError | None = None
    for k, path in enumerate(skewer_list, start=1):
        coords = _canonical_path(path)
        if not coords:
            raise BoardError(f"skewer {k} has an empty path", skewer=k)
        if len(set(coords)) != len(coords):
            raise BoardError(f"skewer {k} repeats a circle", skewer=k)
        for coord in coords:
            if coord not in circles:
                raise BoardError(f"skewer {k} visits {coord}, not a circle",
                                 coord=coord, skewer=k)
            if coord in threaded:
                raise BoardError(f"circle {coord} on two skewers",
                                 coord=coord, skewer=k)
            threaded.add(coord)
        for (r1, c1), (r2, c2) in zip(coords, coords[1:]):
            if max(abs(r1 - r2), abs(c1 - c2)) != 1:
                raise BoardError(
                    f"skewer {k} jumps from ({r1},{c1}) to ({r2},{c2})",
                    coord=(r2, c2), skewer=k)
        # a one-circle path adds nothing; the loner joins the appendix below
        if len(coords) >= 2:
            skewers.append(coords)
            multi.update(coords)
            if fault is None:
                fault = _clue_fault(circles, coords, len(skewers))
    # clue faults wait until every path has passed its structural checks
    if fault is not None:
        raise fault

    row_major = tuple(sorted(circles))
    for coord in row_major:
        if coord not in multi:
            skewers.append((coord,))
            clue = circles[coord]
            if clue is not None and clue > 1:
                raise _clue_fault(circles, (coord,), len(skewers))

    board = Board(rows, cols, circles, tuple(skewers))
    # fill the `row_major` cache with the order sorted above
    board.__dict__["row_major"] = row_major
    return board


def _clue_fault(circles: Mapping[Coord, int | None],
                path: tuple[Coord, ...], k: int) -> BoardError | None:
    """The clue rule that `path`, as skewer k, breaks first, if any."""
    clued = [c for c in path if circles[c] is not None]
    if len(clued) > 1:
        return BoardError(f"skewer {k} carries two clues",
                          coord=clued[1], skewer=k)
    if clued and circles[clued[0]] > len(path):
        return BoardError(
            f"clue {circles[clued[0]]} at {clued[0]} exceeds "
            f"skewer size {len(path)}", coord=clued[0], skewer=k)
    return None


def _windows(line: Sequence[Coord]) -> tuple[Triple, ...]:
    return tuple((line[s], line[s + 1], line[s + 2])
                 for s in range(len(line) - 2))


def triple_index(board: Board) -> TripleIndex:
    """Collect the three-circle windows checked by rules B, C, and D.

    A reference listing, kept for callers that want windows by line
    number: by its shape it builds one list per header row and column, so
    it costs O(rows + cols) however few circles there are.  No library
    path calls it; `Board.rules` groups the same windows from the circles
    alone.
    """
    by_row: list[list[Coord]] = [[] for _ in range(board.rows)]
    by_col: list[list[Coord]] = [[] for _ in range(board.cols)]
    for r, c in board.row_major:
        by_row[r - 1].append((r, c))
        by_col[c - 1].append((r, c))
    for line in by_col:
        line.sort()
    return TripleIndex(
        row_triples=tuple(_windows(line) for line in by_row),
        col_triples=tuple(_windows(line) for line in by_col),
        skewer_triples=tuple(map(_windows, board.skewers)),
    )


def capped_list(items: Iterable, total: int) -> str:
    """The first ten of `items`, taken in order, then a count of the rest
    of their `total`: the one writer of a bounded listing.  Takes at most
    ten items, so a lazy `items` is scanned no further."""
    first = list(islice(items, 10))
    rest = total - len(first)
    return f"{first}" + (f" (+{rest} more)" if rest else "")


@_collector_paused
def check_coloring(board: Board, coloring: Coloring) -> ViolationReport:
    """Check a total coloring against rules A-D.

    The report lists the broken entries of `board.rules` in store order:
    rule A by clued skewer, then the windows of B, C and D line by line.
    Black counts are summed over one flag per circle as `Rules.cut`
    hands each entry over, with no tuple kept per entry; coordinates are
    decoded, from the entry's `rules.groups` tuple, only for the entries
    reported.  An empty report means the coloring solves the board.  A
    coloring over other circles raises ColoringError naming the first few
    missing and extra coordinates.
    """
    if board.circles.keys() != coloring.cells:
        missing = board.circles.keys() - coloring.cells
        extra = coloring.cells - board.circles.keys()
        raise ColoringError(
            f"coloring domain mismatch: missing "
            f"{capped_list(sorted(missing), len(missing))}, "
            f"extra {capped_list(sorted(extra), len(extra))}")

    coords = board.row_major
    rules = board.rules
    flags = bytes(map(coloring.blacks.__contains__, coords))
    flat = map(getitem, repeat(flags), chain.from_iterable(rules.groups))
    # `sum` drops each tuple before `cut` takes the next, so one is refilled
    counts = list(map(sum, rules.cut(flat)))
    lo, hi = rules.lo, rules.hi
    broken = list(compress(count(), map(or_, map(gt, lo, counts),
                                        map(gt, counts, hi))))
    found = []
    for e in broken:
        cells = tuple(map(coords.__getitem__, rules.groups[e]))
        found.append(Violation(*rules.tag(e), cells, counts[e], lo[e], hi[e]))
    return ViolationReport(found)
