"""Complete solver and propagation engine for Oredango boards.

`Board.rules` stores every puzzle rule as a two-sided bound on a black
count over circle indices, so the search below works on a single
constraint shape, `sum of 0-1 variables within [lo, hi]`.
`BoundedCounts` propagates those bounds with slack counters and searches
depth-first on the first unassigned circle in row-major order, black
before white.  Each conflict teaches it a clause (a nogood implied by
the bounds).  Every set circle carries its true decision level, and the
search backtracks chronologically (Nadel & Ryvchin, "Chronological
Backtracking", SAT 2018): it undoes only the conflict level, keeps each
circle of a lower level as it stands and asserts the clause at the
clause's own level, but never undoes a decision whose subtree has
already produced a solution.  So solutions still come out in
lexicographic order (black sorts before white), each once, and node
counts are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import compress
from operator import le, mul, not_, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (BLACK, WHITE, Board, Coloring, ColoringError, Coord,
                   check_coloring)


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    CAP_REACHED = "cap_reached"


def count_text(count: int, capped: bool) -> str:
    """A solution count as reported: `>=N` when the cap stopped the
    enumeration (status CAP_REACHED), else the exact count."""
    return f">={count}" if capped else str(count)


class SolveOutcome(NamedTuple):
    """Search result: found solutions plus the branch count `nodes`."""

    status: SolveStatus
    solutions: tuple[Coloring, ...]
    nodes: int


# Circles absent from the mapping are still open.
PartialColoring = dict[Coord, str]


class BoundedCounts:
    """Feasibility search for 0-1 variables under two-sided count bounds.

    Constraints are groups over variable indices with unit weights, given
    as three parallel sequences: group g bounds the number of ones among
    `members[g]` to [`lows[g]`, `highs[g]`].  Each group keeps two slack
    counters: the zeros it can still take (`len(members[g]) - lows[g]`)
    and the ones it can still take (`highs[g]`).
    Setting a variable spends one unit of the matching counter in every
    group that holds it, when the variable is propagated; a counter at 0
    forces the group's open members to the other value, and one below 0 is
    a conflict.  Since the counters hold only propagated members, zeros +
    ones - (`highs[g]` - `lows[g]`) is the number of members not yet
    propagated, so a counter at 0 leaves a member open only while the
    opposite counter exceeds that span; otherwise the group is not scanned.

    Branching always takes the lowest-index open variable, value 1 first,
    so depth-first order is lexicographic order (1 before 0).  A conflict
    is analysed to its first unique implication point (1-UIP, as in GRASP,
    Marques-Silva & Sakallah 1999) and yields a learned clause with two
    watched literals.  Explanations are computed lazily, during analysis:
    a variable forced by a group is explained by the members holding the
    opposite value that sit earlier on the trail; one forced by a learned
    clause, by the clause's other literals.  Learned clauses follow from
    the groups, so they cut only subtrees without solutions, and solutions
    are still accepted by the groups alone: a clause propagation missed
    costs pruning, never correctness.

    Every set variable carries its true decision level: a decision takes
    the current level and the root is level 0; a variable forced by a group
    or a clause takes the highest level among the group's members holding
    the spent value or the clause's other literals; an asserted literal
    takes its clause's asserting level.  Undoing level k removes only the
    trail entries above k and refunds their counters; every other entry
    keeps its value, spend and trail order, and a group this leaves
    saturated forces nothing anew (the counters still refuse an overspend).
    A conflict's level is the highest among its literals, and 1-UIP runs
    over that level's literals only.  The search then undoes only the
    conflict level and asserts the clause's first literal at its asserting
    level, even when levels in between stand; this chronological
    backtracking (Nadel & Ryvchin, SAT 2018) keeps the decisions below,
    which lexicographic branching would otherwise make again one by one.

    The conflict level is undone only when its subtree has emitted no
    solution.  That subtree then covered only ground without solutions,
    so searching the level below again under the asserted literal repeats
    no solution, and since the clause holds in every solution it skips
    none.  Otherwise the level's branch is spent, and the search steps
    back as plain depth-first search does: it pops the level and
    propagates, then flips the popped decision to 0 if its variable is
    still open, takes the 0 as given if propagation set it, and pops on
    if propagation set it to 1 or the 0 branch was the one just spent.
    Every literal set without a decision is implied by the groups and the
    decisions at or below its level, so solutions, their order and the
    cap semantics are those of plain depth-first search.
    """

    def __init__(self, nvars: int, members: Iterable[Sequence[int]],
                 lows: Sequence[int], highs: Sequence[int]):
        self.nvars = nvars
        self._members: list[tuple[int, ...]] = list(map(tuple, members))
        # initial slack: zeros and ones each group can take
        self._zeros: list[int] = list(map(sub, map(len, self._members), lows))
        self._ones: list[int] = list(highs)
        # zeros + ones - span is the number of members not yet propagated
        self._span: list[int] = list(map(sub, highs, lows))
        self._feasible = (min(self._zeros, default=0) >= 0
                          and min(self._ones, default=0) >= 0
                          and all(map(le, lows, self._ones)))
        self.touching: list[list[int]] = [[] for _ in range(nvars)]
        touching = self.touching
        for g, group in zip(range(len(self._members)), self._members):
            for v in group:
                touching[v].append(g)

    # A literal is the int 2 * var + value; its negation is `lit ^ 1`.

    def _start(self) -> None:
        # Propagation state, shared by `deduce` and `run`: per variable the
        # group index or clause that forced it (`reason`, None for decisions
        # and seeds), its level and its trail position; `marks` holds each
        # level's decision position, so its length is the current level.
        self._value = [-1] * self.nvars
        self._reason: list = [None] * self.nvars
        self._level = [0] * self.nvars
        self._pos = [0] * self.nvars
        self._left = (self._zeros[:], self._ones[:])
        self._trail: list[int] = []
        self._qhead = 0   # trail entries before this have been propagated
        self._marks: list[int] = []
        # Per literal, the learned clauses to visit once it is true (they
        # watch its negation); None until the first one.
        self._watches: list[list[list[int]] | None] | None = None

    def _set(self, lit: int, why, level: int) -> None:
        v = lit >> 1
        self._value[v] = lit & 1
        self._reason[v] = why
        self._level[v] = level
        self._pos[v] = len(self._trail)
        self._trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Propagate the trail entries not yet propagated; None, or the
        true literals of a conflict."""
        value = self._value
        reason = self._reason
        level = self._level
        pos = self._pos
        trail = self._trail
        push = trail.append
        touching = self.touching
        members = self._members
        span = self._span
        left = self._left
        watches = self._watches
        here = len(self._marks)
        q = self._qhead
        end = len(trail)
        bad = False
        while q < end:
            lit = trail[q]
            q += 1
            val = lit & 1
            spend = left[val]
            other = left[val ^ 1]
            # Nothing stands above the current level, so only an entry of a
            # lower level needs the highest level among a reason's members.
            at = level[lit >> 1]
            for g in touching[lit >> 1]:
                c = spend[g] - 1
                spend[g] = c
                if c <= 0:
                    if c:
                        bad = True
                        continue
                    if other[g] <= span[g]:
                        # every member has been propagated, so none is open
                        continue
                    forced = val ^ 1
                    lv = here if at == here else -1
                    for w in members[g]:
                        if value[w] < 0:
                            if lv < 0:
                                lv = max([level[u] for u in members[g]
                                          if value[u] == val])
                            value[w] = forced
                            reason[w] = g
                            level[w] = lv
                            pos[w] = end
                            end += 1
                            push(w + w + forced)
            if bad:
                self._qhead = q
                return self._overspent(lit, q)
            if watches is None:
                continue
            ws = watches[lit]
            if ws is None:
                continue
            # Learned clauses watching the literal just made false.
            false = lit ^ 1
            i = j = 0
            nw = len(ws)
            while i < nw:
                clause = ws[i]
                i += 1
                first = clause[0]
                if first == false:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false
                fv = value[first >> 1]
                if fv == first & 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other >> 1] != other & 1 ^ 1:
                        clause[1] = other
                        clause[k] = false
                        self._watch(other ^ 1, clause)
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if fv >= 0:
                        ws[j:] = ws[i:]
                        self._qhead = q
                        return [other ^ 1 for other in clause]
                    w = first >> 1
                    value[w] = first & 1
                    reason[w] = clause
                    level[w] = here if at == here else max(
                        [level[other >> 1] for other in clause[1:]])
                    pos[w] = end
                    end += 1
                    push(first)
            del ws[j:]
        self._qhead = q
        return None

    def _overspent(self, lit: int, q: int) -> list[int]:
        """True literals of the lowest-level group that propagating `lit`,
        trail entry q - 1, overspent.  Every other group it overspent holds
        an entry at or above that level, so undoing it refunds them all."""
        val = lit & 1
        spend = self._left[val]
        level = self._level
        best = None
        top = len(self._marks) + 1   # above every level
        for g in self.touching[lit >> 1]:
            if spend[g] < 0:
                lits = self._holding(g, val, q)
                high = max([level[held >> 1] for held in lits])
                if high < top:
                    best = lits
                    top = high
        return best

    def _watch(self, lit: int, clause: list[int]) -> None:
        ws = self._watches[lit]
        if ws is None:
            self._watches[lit] = [clause]
        else:
            ws.append(clause)

    def _backtrack(self, keep: int) -> None:
        """Undo every level above `keep`: removed entries already propagated
        refund their counters, the rest keep value, spend and trail order.
        Precondition: the first undone decision has been propagated, and no
        entry before it is above `keep`; so the propagated entries, which
        refund, are the ones before `_qhead`."""
        marks = self._marks
        start = marks[keep]
        del marks[keep:]
        trail = self._trail
        value = self._value
        level = self._level
        pos = self._pos
        touching = self.touching
        left = self._left
        qhead = self._qhead
        assert qhead > start
        j = start
        for i in range(start, qhead):
            lit = trail[i]
            v = lit >> 1
            if level[v] <= keep:
                trail[j] = lit
                pos[v] = j
                j += 1
            else:
                value[v] = -1
                refund = left[lit & 1]
                for g in touching[v]:
                    refund[g] += 1
        self._qhead = j
        for i in range(qhead, len(trail)):
            lit = trail[i]
            v = lit >> 1
            if level[v] <= keep:
                trail[j] = lit
                pos[v] = j
                j += 1
            else:
                value[v] = -1
        del trail[j:]

    def _root(self, seed: Iterable[tuple[int, int]]) -> bool:
        if not self._feasible:
            return False
        value = self._value
        reason = self._reason
        pos = self._pos
        trail = self._trail
        members = self._members
        zeros, ones = self._left
        # Saturated groups; every level is already 0.
        for g in compress(range(len(zeros)), map(not_, map(mul, zeros, ones))):
            forced = 1 if ones[g] else 0
            for w in members[g]:
                if value[w] < 0:
                    value[w] = forced
                    reason[w] = g
                    pos[w] = len(trail)
                    trail.append(w + w + forced)
        for v, val in seed:
            if value[v] < 0:
                self._set(v + v + val, None, 0)
            elif value[v] != val:
                return False
        return self._propagate() is None

    def _holding(self, g: int, val: int, before: int) -> list[int]:
        """Members of group g set to `val` before trail position `before`,
        as literals."""
        value = self._value
        pos = self._pos
        return [w + w + val for w in self._members[g]
                if value[w] == val and pos[w] < before]

    def _explain(self, v: int) -> list[int]:
        """True literals, earlier on the trail, that forced variable v."""
        why = self._reason[v]
        if why.__class__ is list:
            return [lit ^ 1 for lit in why if lit >> 1 != v]
        return self._holding(why, self._value[v] ^ 1, self._pos[v])

    def _analyze(self, lits: list[int], high: int) -> tuple[list[int], int]:
        """1-UIP clause for the conflict's true literals, whose highest
        level is `high`, and the clause's asserting level.

        The clause's first literal is the one it asserts, its second one of
        the highest level among the rest.
        """
        level = self._level
        trail = self._trail
        seen = self._seen   # 1: at `high`, still to resolve; 2: lower
        lower: list[int] = []
        pending = 0
        i = len(trail) - 1
        while True:
            for lit in lits:
                v = lit >> 1
                if not seen[v]:
                    if level[v] == high:
                        seen[v] = 1
                        pending += 1
                    elif level[v]:
                        seen[v] = 2
                        lower.append(lit)
            while seen[trail[i] >> 1] != 1:
                i -= 1
            uip = trail[i]
            v = uip >> 1
            seen[v] = 0
            i -= 1
            pending -= 1
            if not pending:
                break
            lits = self._explain(v)
        clause = [uip ^ 1]
        asserting = 0
        for lit in lower:
            v = lit >> 1
            seen[v] = 0
            if level[v] > asserting:
                asserting = level[v]
                clause.insert(1, lit ^ 1)
            else:
                clause.append(lit ^ 1)
        return clause, asserting

    def run(self, cap: int | None = None) -> tuple[bool, list[tuple[int, ...]], int]:
        """Enumerate satisfying assignments in lexicographic order.

        Returns (exhausted, assignments, nodes); `exhausted` is False when
        the cap stopped the search before the space was covered, and
        `nodes` counts the decisions tried, flips to 0 included, but not a 0
        that propagation sets after a pop.  A cap below 1 raises ValueError.
        """
        if cap is not None and cap < 1:
            raise ValueError("cap must be at least 1")
        self._start()
        if not self._root(()):
            return True, [], 0
        nvars = self.nvars
        self._watches = [None] * (2 * nvars)
        self._seen = bytearray(nvars)
        value = self._value
        reason = self._reason
        level = self._level
        pos = self._pos
        trail = self._trail
        marks = self._marks
        sols: list[int] = []    # solutions found when each decision was made
        found: list[tuple[int, ...]] = []
        nodes = 0
        cur = 0
        conflict = None
        while True:
            if conflict is None:
                while cur < nvars and value[cur] >= 0:
                    cur += 1
                if cur < nvars:
                    nodes += 1
                    at = len(trail)
                    marks.append(at)
                    sols.append(len(found))
                    value[cur] = 1
                    reason[cur] = None
                    level[cur] = len(marks)
                    pos[cur] = at
                    trail.append(cur + cur + 1)
                    conflict = self._propagate()
                    continue
                found.append(tuple(value))
                if cap is not None and len(found) >= cap:
                    return False, found, nodes
            else:
                high = max([level[lit >> 1] for lit in conflict])
                if not high:
                    return True, found, nodes
                if high < len(marks):
                    # The conflict's literals follow from the decisions at
                    # or below `high`, which every solution found since the
                    # decision above them extends; such a solution would
                    # break the conflict, so the levels above hold none.
                    assert sols[high] == len(found)
                    self._backtrack(high)
                    del sols[high:]
                clause, asserting = self._analyze(conflict, high)
                if len(clause) > 1:
                    self._watch(clause[0] ^ 1, clause)
                    self._watch(clause[1] ^ 1, clause)
                # Undo only the conflict level, unless its subtree emitted
                # a solution, and assert the clause at its own level.
                if sols[-1] == len(found):
                    cur = trail[marks[-1]] >> 1
                    self._backtrack(high - 1)
                    sols.pop()
                    self._set(clause[0], clause, asserting)
                    conflict = self._propagate()
                    continue
            # Chronological step: the top level is exhausted.  Pop it and flip
            # its decision to 0 if that leaves the variable open; pop on when
            # the 0 branch is spent or refuted.
            while marks:
                top = len(marks) - 1
                lit = trail[marks[top]]
                tried = sols.pop()
                cur = lit >> 1
                self._backtrack(top)
                # Lower-level entries that a conflict left unpropagated may
                # survive the pop, but propagating them never conflicts.
                # The first pop follows a solution, with nothing pending,
                # or a conflict whose level's subtree emitted a solution;
                # later pops find nothing pending.  That solution extends
                # the decisions below the popped level, so it agrees with
                # every entry left (each is implied by the groups and the
                # decisions at or below its level), and it meets every
                # group and learned clause: none can be overspent or false.
                conflict = self._propagate()
                assert conflict is None
                if lit & 1 and value[cur] <= 0:
                    if value[cur] < 0:
                        nodes += 1
                        marks.append(len(trail))
                        sols.append(tried)
                        self._set(lit ^ 1, None, len(marks))
                        conflict = self._propagate()
                    break
            else:
                return True, found, nodes

    def deduce(self, seed: Iterable[tuple[int, int]]) -> list[int] | None:
        """Fixpoint of counting propagation from seeded values, as one
        value per variable (-1 where open), or None on a contradiction.

        Allocates no learning state: watches, learned clauses and decision
        frames exist only within `run`.
        """
        self._start()
        return self._value if self._root(seed) else None


def board_engine(board: Board) -> BoundedCounts:
    """The entries of `board.rules` as count groups, one variable per
    circle at its index in `board.row_major`."""
    rules = board.rules
    return BoundedCounts(len(board.circles), rules.cut(rules.cells),
                         rules.lo, rules.hi)


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

    Returns the refined assignment (seed included, open circles absent),
    read off the engine's root fixpoint in row-major order, or None when
    the seed already contradicts the rules.  Propagation is
    sound: it never fixes a color that some completion consistent with the
    seed avoids.  It is not complete, so a non-None result is no
    guarantee that a solution exists.
    """
    coords = board.row_major
    value = board_engine(board).deduce(_seed_values(board, partial, coords))
    if value is None:
        return None
    return {coord: BLACK if val else WHITE
            for coord, val in zip(coords, value) if val != -1}


# Shadows the builtin within this module; internal code indexes with
# zip(range(...)) instead.
def enumerate(board: Board, cap: int) -> SolveOutcome:
    """Collect up to `cap` solutions in lexicographic order.

    Status is CAP_REACHED when the cap cut the search short, otherwise SAT
    or UNSAT; `nodes` counts decision attempts, reproducible run to run.
    A cap below 1 raises ValueError.
    """
    coords = board.row_major
    exhausted, found, nodes = board_engine(board).run(cap=cap)
    if not exhausted:
        status = SolveStatus.CAP_REACHED
    elif found:
        status = SolveStatus.SAT
    else:
        status = SolveStatus.UNSAT
    solutions = ()
    if found:
        # one cells set serves every solution; frozensets are immutable
        cells = frozenset(coords)
        solutions = tuple(Coloring(cells, frozenset(compress(coords, values)))
                          for values in found)
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
                             + report[0].describe())
        seen.add(coloring)
    outcome = enumerate(board, len(seen) + 1)
    for coloring in outcome.solutions:
        if coloring not in seen:
            return coloring
    return None
