"""Complete solver and propagation engine for Oredango boards.

`Board.constraints` lists every puzzle rule as a two-sided bound on a
black count, so the search below works on a single constraint shape,
`sum of 0-1 variables within [lo, hi]`, with counting propagation over
those bounds and depth-first search on the first unassigned circle in
row-major order, black before white.  Solutions come out in lexicographic
order (black sorts before white) and node counts are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .core import (BLACK, WHITE, Board, Coloring, ColoringError, Coord,
                   check_coloring)


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    CAP_REACHED = "cap_reached"


@dataclass(frozen=True)
class SolveOutcome:
    """Search result: found solutions plus the branch count `nodes`."""

    status: SolveStatus
    solutions: tuple[Coloring, ...]
    nodes: int


# Circles absent from the mapping are still open.
PartialColoring = dict[Coord, str]


class BoundedCounts:
    """Feasibility search for 0-1 variables under two-sided count bounds.

    Constraints are (members, lo, hi) groups over variable indices with
    unit weights.  A group whose black count already meets `hi` forces its
    open members to 0; one that needs every open member to reach `lo`
    forces them to 1; leaving the window entirely is a conflict.
    Branching always takes the lowest-index open variable, value 1 first,
    so enumeration order and node counts are deterministic.
    """

    def __init__(self, nvars: int,
                 groups: Iterable[tuple[Sequence[int], int, int]]):
        self.nvars = nvars
        self.groups = [(tuple(members), lo, hi) for members, lo, hi in groups]
        self.touching: list[list[int]] = [[] for _ in range(nvars)]
        for gi in range(len(self.groups)):
            for v in self.groups[gi][0]:
                self.touching[v].append(gi)

    def _start(self) -> None:
        self._value = [-1] * self.nvars
        self._ones = [0] * len(self.groups)
        self._open = [len(g[0]) for g in self.groups]
        self._trail: list[int] = []
        self._nodes = 0

    def _attach(self, v: int, val: int) -> None:
        self._value[v] = val
        self._trail.append(v)
        for gi in self.touching[v]:
            self._open[gi] -= 1
            self._ones[gi] += val

    def _rewind(self, mark: int) -> None:
        while len(self._trail) > mark:
            v = self._trail.pop()
            val = self._value[v]
            self._value[v] = -1
            for gi in self.touching[v]:
                self._open[gi] += 1
                self._ones[gi] -= val

    def _absorb(self, queue: list[tuple[int, int]]) -> bool:
        """Apply queued assignments plus whatever they force; False on conflict."""
        value = self._value
        qi = 0
        while qi < len(queue):
            v, val = queue[qi]
            qi += 1
            if value[v] != -1:
                if value[v] != val:
                    return False
                continue
            self._attach(v, val)
            for gi in self.touching[v]:
                members, lo, hi = self.groups[gi]
                ones = self._ones[gi]
                open_ = self._open[gi]
                if ones > hi or ones + open_ < lo:
                    return False
                if open_:
                    if ones == hi:
                        for w in members:
                            if value[w] == -1:
                                queue.append((w, 0))
                    elif ones + open_ == lo:
                        for w in members:
                            if value[w] == -1:
                                queue.append((w, 1))
        return True

    def _root(self, seed: Iterable[tuple[int, int]]) -> bool:
        queue: list[tuple[int, int]] = []
        for members, lo, hi in self.groups:
            if lo > hi or hi < 0 or len(members) < lo:
                return False
            if members and hi == 0:
                queue.extend((w, 0) for w in members)
            elif members and lo == len(members):
                queue.extend((w, 1) for w in members)
        queue.extend(seed)
        return self._absorb(queue)

    def _next_branch(self, frames: list[list]) -> int:
        # Rewind to the deepest decision whose 0 branch is untried and take
        # it; -1 once every frame is spent.
        while frames:
            v, mark, tried_zero = frames.pop()
            self._rewind(mark)
            if not tried_zero:
                frames.append([v, mark, True])
                self._nodes += 1
                if self._absorb([(v, 0)]):
                    return v
        return -1

    def run(self, cap: int | None = None,
            seed: Iterable[tuple[int, int]] = ()) -> tuple[bool, list[tuple[int, ...]], int]:
        """Enumerate satisfying assignments in lexicographic order.

        Returns (exhausted, assignments, nodes); `exhausted` is False when
        the cap stopped the search before the space was covered.
        """
        self._start()
        if not self._root(seed):
            return True, [], 0
        found: list[tuple[int, ...]] = []
        frames: list[list] = []
        value = self._value
        cur = 0
        while True:
            while cur < self.nvars and value[cur] != -1:
                cur += 1
            if cur == self.nvars:
                found.append(tuple(value))
                if cap is not None and len(found) >= cap:
                    return False, found, self._nodes
                cur = self._next_branch(frames)
                if cur < 0:
                    return True, found, self._nodes
                continue
            frames.append([cur, len(self._trail), False])
            self._nodes += 1
            if not self._absorb([(cur, 1)]):
                cur = self._next_branch(frames)
                if cur < 0:
                    return True, found, self._nodes

    def deduce(self, seed: Iterable[tuple[int, int]]) -> dict[int, int] | None:
        """Fixpoint of counting propagation from seeded values, or None."""
        self._start()
        if not self._root(seed):
            return None
        return {v: self._value[v] for v in range(self.nvars)
                if self._value[v] != -1}


def board_engine(board: Board) -> tuple[list[Coord], BoundedCounts]:
    """Index a board's circles row-major and wrap `board.constraints` as
    count groups over those indices."""
    coords = board.circle_coords()
    index = {coord: i for i, coord in zip(range(len(coords)), coords)}
    groups = (([index[c] for c in con.cells], con.lo, con.hi)
              for con in board.constraints)
    return coords, BoundedCounts(len(coords), groups)


def _as_coloring(coords: Sequence[Coord], values: Sequence[int]) -> Coloring:
    blacks = frozenset(coords[i] for i in range(len(coords)) if values[i])
    return Coloring(frozenset(coords), blacks)


def _seed_values(board: Board, partial: Mapping[Coord, str],
                 coords: Sequence[Coord]) -> list[tuple[int, int]]:
    # `coords` is sorted, so a circle's variable index is its bisection point
    seed = []
    for coord in sorted(partial):
        if coord not in board.circles:
            raise ColoringError(f"no circle at {coord}")
        color = partial[coord]
        if color not in (BLACK, WHITE):
            raise ColoringError(f"bad color {color!r} at {coord}")
        seed.append((bisect_left(coords, coord), 1 if color == BLACK else 0))
    return seed


def propagate(board: Board, partial: Mapping[Coord, str]) -> PartialColoring | None:
    """Grow a partial coloring by forced deductions.

    Returns the refined assignment (seed included, open circles absent) or
    None when the seed already contradicts the rules.  Propagation is
    sound: it never fixes a color that some completion consistent with the
    seed avoids.  It is not complete, so a non-None result is no
    guarantee that a solution exists.
    """
    coords, engine = board_engine(board)
    fixed = engine.deduce(_seed_values(board, partial, coords))
    if fixed is None:
        return None
    return {coords[v]: BLACK if val else WHITE
            for v, val in sorted(fixed.items())}


# Shadows the builtin within this module; internal code indexes with
# zip(range(...)) instead.
def enumerate(board: Board, cap: int) -> SolveOutcome:
    """Collect up to `cap` solutions in lexicographic order.

    Status is CAP_REACHED when the cap cut the search short, otherwise SAT
    or UNSAT; `nodes` counts decision attempts, reproducible run to run.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    coords, engine = board_engine(board)
    exhausted, found, nodes = engine.run(cap=cap)
    if not exhausted:
        status = SolveStatus.CAP_REACHED
    elif found:
        status = SolveStatus.SAT
    else:
        status = SolveStatus.UNSAT
    solutions = tuple(_as_coloring(coords, values) for values in found)
    return SolveOutcome(status, solutions, nodes)


def solve(board: Board) -> SolveOutcome:
    """Find the lexicographically first solution, or prove there is none."""
    outcome = enumerate(board, 1)
    if outcome.status is SolveStatus.CAP_REACHED:
        return SolveOutcome(SolveStatus.SAT, outcome.solutions, outcome.nodes)
    return outcome


def another_solution(board: Board, known: Iterable[Coloring]) -> Coloring | None:
    """First solution beyond the given ones, or None when they are all.

    Raises ValueError when a known coloring does not solve the board.
    """
    seen = set()
    for coloring in known:
        report = check_coloring(board, coloring)
        if not report.ok:
            raise ValueError("known coloring is not a solution: "
                             + report.violations[0].describe())
        seen.add(coloring)
    outcome = enumerate(board, len(seen) + 1)
    for coloring in outcome.solutions:
        if coloring not in seen:
            return coloring
    return None
