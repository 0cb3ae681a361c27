"""Seeded inputs, operations and engine-free output checks for each workload.

Every workload draws its inputs from `random.Random(f"{name}:{seed}")`, so
one seed always gives the same inputs.  An operation calls the program
through the package object it is handed (`pkg.textio.parse_board`, ...),
so that a traced run sees the wrapped functions.  `check` never calls the
search engine (`solver.BoundedCounts`): it uses `core.check_coloring`, a
bit-parallel scan of all 2^n assignments, and a reading of the LP text
written here.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

# --------------------------------------------------------------------------
# 1-in-3 instances


def one_in_three_clauses(rng: random.Random, nvars: int, nclauses: int,
                         hidden: list[int] | None = None) -> list[list[int]]:
    """Clauses of three distinct variables, every variable used at least once.

    Without `hidden` the signs are uniform.  With it, each clause gets
    exactly one literal true under `hidden`, so the instance is satisfiable.
    """
    while True:
        clauses = []
        for _ in range(nclauses):
            variables = rng.sample(range(1, nvars + 1), 3)
            if hidden is None:
                clause = [v if rng.random() < 0.5 else -v for v in variables]
            else:
                true_at = rng.randrange(3)
                clause = [v if hidden[v - 1] == (k == true_at) else -v
                          for k, v in enumerate(variables)]
            clauses.append(clause)
        if len({abs(lit) for clause in clauses for lit in clause}) == nvars:
            return clauses


def c13_text(nvars: int, clauses: list[list[int]]) -> str:
    lines = [f"p 1in3 {nvars} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def exactly_one(clauses: list[list[int]], bits: list[int]) -> bool:
    """True when every clause has exactly one true literal under `bits`."""
    return all(sum(bits[abs(lit) - 1] ^ (lit < 0) for lit in clause) == 1
               for clause in clauses)


def brute_force_sat(nvars: int, clauses: list[list[int]]) -> bool:
    """Scan all 2^nvars assignments at once, one bit per assignment."""
    if nvars > 22:
        raise ValueError("brute-force scan is limited to 22 variables")
    size = 1 << nvars
    full = (1 << size) - 1
    tables = []
    for j in range(nvars):
        half = 1 << j
        table = ((1 << half) - 1) << half
        width = 2 * half
        while width < size:
            table |= table << width
            width *= 2
        tables.append(table)
    alive = full
    for clause in clauses:
        a, b, c = (tables[lit - 1] if lit > 0 else full ^ tables[-lit - 1]
                   for lit in clause)
        alive &= (a & ~b & ~c) | (~a & b & ~c) | (~a & ~b & c)
    return alive != 0


def decode(reduced, coloring) -> list[int]:
    """Variable values read from the readout cells of a reduced board."""
    return [1 if coloring[reduced.variable_readout[v]] == "B" else 0
            for v in sorted(reduced.variable_readout)]


# --------------------------------------------------------------------------
# Planted puzzle boards


@dataclass(frozen=True)
class PlantedBoard:
    """Board text plus the coloring it was built around."""

    text: str
    circles: frozenset
    blacks: frozenset


def planted_board(rng: random.Random, min_side: int, max_side: int,
                  offset: tuple[int, int] = (0, 0)) -> PlantedBoard:
    """A random board whose planted coloring obeys every rule.

    Colors are drawn cell by cell in row-major order, never completing
    three equal colors in a row or column (a cell where the two would
    demand different colors gets no circle).  Skewers of 2..6 circles step
    between touching circles without three equal colors in a row, and
    clues are the planted black counts.  `offset` shifts every cell.
    """
    rows = rng.randint(min_side, max_side)
    cols = rng.randint(min_side, max_side)
    density = rng.uniform(0.45, 0.55)
    colors: dict[tuple[int, int], str] = {}
    row_seen: dict[int, list[str]] = {}
    col_seen: dict[int, list[str]] = {}
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if rng.random() >= density:
                continue
            banned = set()
            for seen in (row_seen.setdefault(r, []), col_seen.setdefault(c, [])):
                if len(seen) >= 2 and seen[-1] == seen[-2]:
                    banned.add(seen[-1])
            allowed = [x for x in "BW" if x not in banned]
            if not allowed:
                continue
            color = rng.choice(allowed)
            colors[(r, c)] = color
            row_seen[r].append(color)
            col_seen[c].append(color)

    free = set(colors)
    starts = sorted(colors)
    rng.shuffle(starts)
    paths = []
    for start in starts:
        if start not in free or rng.random() < 0.3:
            continue
        want = rng.randint(2, 6)
        path = [start]
        free.discard(start)
        while len(path) < want:
            r, c = path[-1]
            steps = [(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                     if (dr or dc) and (r + dr, c + dc) in free]
            if len(path) >= 2 and colors[path[-1]] == colors[path[-2]]:
                steps = [s for s in steps if colors[s] != colors[path[-1]]]
            if not steps:
                break
            path.append(rng.choice(steps))
            free.discard(path[-1])
        if len(path) >= 2:
            paths.append(path)
        else:
            free.add(start)

    clues: dict[tuple[int, int], int] = {}
    for path in paths:
        if rng.random() < 0.9:
            clues[rng.choice(path)] = sum(colors[p] == "B" for p in path)
    for coord in sorted(free):
        if rng.random() < 0.5:
            clues[coord] = 1 if colors[coord] == "B" else 0

    dr, dc = offset
    lines = [f"rows {rows + dr}", f"cols {cols + dc}"]
    for r, c in sorted(colors):
        clue = clues.get((r, c))
        lines.append(f"circle {r + dr} {c + dc}"
                     + ("" if clue is None else f" {clue}"))
    for path in paths:
        lines.append("skewer " + " ".join(f"{r + dr} {c + dc}" for r, c in path))
    shifted = {(r + dr, c + dc): color for (r, c), color in colors.items()}
    return PlantedBoard("\n".join(lines) + "\n", frozenset(shifted),
                        frozenset(k for k, v in shifted.items() if v == "B"))


def sparse_board(rng: random.Random, side: int, clusters: int) -> PlantedBoard:
    """A `side` x `side` header over a few small planted clusters.

    Clusters sit in disjoint row and column bands, so no rule window joins
    two of them and the union of their planted colorings is a solution.
    """
    text_lines: list[str] = []
    circles: set = set()
    blacks: set = set()
    band = side // clusters
    for k in range(clusters):
        part = planted_board(rng, 4, 8, offset=(k * band + rng.randrange(band - 8),
                                               k * band + rng.randrange(band - 8)))
        text_lines += part.text.splitlines()[2:]
        circles |= part.circles
        blacks |= part.blacks
    text = "\n".join([f"rows {side}", f"cols {side}"] + text_lines) + "\n"
    return PlantedBoard(text, frozenset(circles), frozenset(blacks))


# --------------------------------------------------------------------------
# LP text, read independently of ilp


def lp_problems(lp_text: str, circles: frozenset, blacks: frozenset) -> list[str]:
    """Rows of the LP text that the given coloring breaks, plus coverage gaps.

    Variables are `x_<row>_<col>`, 1 for black.  Every circle must be one
    binary variable.
    """
    value = {f"x_{r}_{c}": int((r, c) in blacks) for r, c in circles}
    problems = []
    binaries: list[str] = []
    section = None
    for line in io.StringIO(lp_text):
        text = line.strip()
        if text in ("Minimize", "Subject To", "Binaries", "End"):
            section = text
        elif section == "Subject To":
            name, expr = text.split(":", 1)
            lhs, op, rhs = expr.rsplit(None, 2)
            total = sum(value[term.strip()] for term in lhs.split("+"))
            bound = int(rhs)
            ok = {"=": total == bound, ">=": total >= bound,
                  "<=": total <= bound}[op]
            if not ok:
                problems.append(f"LP row {name} is {total} {op} {bound}: false")
        elif section == "Binaries":
            binaries += text.split()
    if sorted(binaries) != sorted(value):
        problems.append("LP binaries differ from the board's circles")
    return problems


def coloring_problems(pkg, board, coloring, what: str) -> list[str]:
    report = pkg.core.check_coloring(board, coloring)
    if report.ok:
        return []
    return [f"{what} breaks {report.violations[0].describe()}"]


# --------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Instance:
    """A 1-in-3 instance as clauses and .c13 text; `hidden` is the planted
    assignment, None for a uniform instance."""

    nvars: int
    clauses: list
    hidden: list | None
    text: str


def instance(rng: random.Random, nvars: int, nclauses: int,
             planted: bool) -> Instance:
    hidden = [rng.randint(0, 1) for _ in range(nvars)] if planted else None
    clauses = one_in_three_clauses(rng, nvars, nclauses, hidden)
    return Instance(nvars, clauses, hidden, c13_text(nvars, clauses))


class ReducedDecide:
    """Parse a .c13 text, reduce it to a board and decide it by search.

    Half the instances are uniform random with m = n (mostly UNSAT: the
    search covers the whole tree), half are planted around a hidden
    assignment (SAT: the search stops at the first solution), so a search
    change that helps one side and hurts the other shows.  n = 10 keeps an
    operation near 80 ms, so a run holds a few hundred instances and the
    mix differs little from seed to seed.
    """

    name = "reduced-decide"
    record_prefix = 16
    highs_reference = True   # traced runs time HiGHS on the same models
    tail_percentile = 95.0   # 230 to 280 operations in a 30 s run

    def items(self, rng: random.Random, smoke: bool) -> list[Instance]:
        n = 6 if smoke else 10
        return [instance(rng, n, n, planted=bool(k % 2)) for k in range(1024)]

    def warm_item(self) -> Instance:
        return instance(random.Random("warm"), 6, 6, planted=True)

    def run(self, pkg, item: Instance):
        instance = pkg.textio.parse_one_in_three(item.text)
        reduced = pkg.reduction.reduce(instance)
        return reduced, pkg.solver.solve(reduced.board)

    def check(self, pkg, item: Instance, result) -> list[str]:
        reduced, outcome = result
        sat = brute_force_sat(item.nvars, item.clauses)
        problems = []
        if item.hidden is not None and not sat:
            problems.append("planted instance is unsatisfiable")
        if outcome.status.value != ("sat" if sat else "unsat"):
            problems.append(f"solver says {outcome.status.value}, "
                            f"brute force says {'sat' if sat else 'unsat'}")
        for coloring in outcome.solutions:
            problems += coloring_problems(pkg, reduced.board, coloring,
                                          "solution")
            if not exactly_one(item.clauses, decode(reduced, coloring)):
                problems.append("decoded assignment breaks a clause")
        return problems

    def digest(self, result):
        _, outcome = result
        return outcome.status.value, outcome.nodes, hash(tuple(
            s.blacks for s in outcome.solutions))

    def record(self, result) -> tuple[int, str]:
        return result[1].nodes, result[1].status.value

    def board(self, result):
        return result[0].board


class PuzzleBatch:
    """Author's round on a puzzle-sized board held as .odg text.

    parse, uniqueness check (`enumerate` with cap 2), .sol write and read,
    rule check, 0-1 model and LP text.  Fixed per-board costs dominate and
    search is a minority, so a search-only change should not move it.
    """

    name = "puzzle-batch"
    record_prefix = 1024
    highs_reference = False
    # 5000 to 8000 operations in a run, but p99.9 would be a few samples
    # of collector and scheduler pauses, which differ run to run.
    tail_percentile = 99.0

    def planted(self, rng: random.Random, smoke: bool) -> PlantedBoard:
        return planted_board(rng, *((3, 5) if smoke else (8, 11)))

    def items(self, rng: random.Random, smoke: bool) -> list[PlantedBoard]:
        return [self.planted(rng, smoke) for _ in range(1024)]

    def warm_item(self) -> PlantedBoard:
        return self.planted(random.Random("warm"), False)

    def run(self, pkg, item: PlantedBoard):
        board = pkg.textio.parse_board(item.text)
        outcome = pkg.solver.enumerate(board, 2)
        grid = pkg.textio.write_coloring(outcome.solutions[0], board)
        back = pkg.textio.parse_coloring(grid, board)
        report = pkg.core.check_coloring(board, back)
        lp = pkg.ilp.export_lp(pkg.ilp.build_model(board))
        return board, outcome, back, report, lp

    def check(self, pkg, item: PlantedBoard, result) -> list[str]:
        board, outcome, back, report, lp = result
        problems = []
        planted = pkg.core.Coloring(item.circles, item.blacks)
        problems += coloring_problems(pkg, board, planted, "planted coloring")
        for coloring in outcome.solutions:
            problems += coloring_problems(pkg, board, coloring, "solution")
        if outcome.status.value == "sat" and outcome.solutions != (planted,):
            problems.append("sole solution differs from the planted one")
        if outcome.status.value not in ("sat", "cap_reached"):
            problems.append(f"planted board came back {outcome.status.value}")
        if back != outcome.solutions[0] or not report.ok:
            problems.append(".sol round trip changed the solution")
        return problems + lp_problems(lp, item.circles, item.blacks)

    def digest(self, result):
        _, outcome, back, report, lp = result
        return (outcome.status.value, outcome.nodes,
                hash(tuple(s.blacks for s in outcome.solutions)), report.ok,
                hash(lp))

    def record(self, result) -> tuple[int, str]:
        return result[1].nodes, result[1].status.value

    def board(self, result):
        return result[0]


class LargeBuild:
    """The linear layers at scale, with no search.

    Planted reduced boards up to n=40, m=50 go through reduce, board text
    out and back, root propagation, the planted coloring as .sol out and
    back, the rule check and the LP text.  Sparse boards (a huge header
    over a few small clusters; the .sol grid is skipped, its size is the
    header's by format) expose costs that grow with the header.
    """

    name = "large-build"
    record_prefix = 20
    highs_reference = False
    tail_percentile = 75.0   # 39 to 45 operations in a 30 s run
    # Per cycle of 20: 4 tiny, 4 small, 4 medium, 7 sparse and 1 large
    # item.  Their costs rise in that order (about 0.07, 0.15, 0.3, 0.45
    # and 1.3 s on a 2-core x86 VM, Python 3.11), so the median falls in
    # the middle of the medium block and the p75 inside the sparse block.
    tiny, small, medium, large = (12, 15), (16, 20), (20, 25), (40, 50)
    cycle = (tiny, small, medium, "sparse", large, "sparse", tiny, small,
             medium, "sparse", "sparse", tiny, small, medium, "sparse",
             "sparse", tiny, small, medium, "sparse")

    def items(self, rng: random.Random, smoke: bool) -> list:
        found = []
        for kind in self.cycle:
            if kind == "sparse":
                found.append(sparse_board(rng, 2000 if smoke else 70_000, 4))
            else:
                n, m = (4, 5) if smoke else kind
                found.append(instance(rng, n, m, planted=True))
        return found

    def warm_item(self) -> Instance:
        return instance(random.Random("warm"), 8, 10, planted=True)

    def run(self, pkg, item):
        if isinstance(item, PlantedBoard):
            board = pkg.textio.parse_board(item.text)
            fixed = pkg.solver.propagate(board, {})
            planted = pkg.core.Coloring(item.circles, item.blacks)
            report = pkg.core.check_coloring(board, planted)
            lp = pkg.ilp.export_lp(pkg.ilp.build_model(board))
            return None, board, fixed, planted, planted, report, lp
        reduced = pkg.reduction.reduce(
            pkg.reduction.one_in_three(item.nvars, item.clauses))
        text = pkg.textio.write_board(reduced.board)
        board = pkg.textio.parse_board(text)
        fixed = pkg.solver.propagate(board, {})
        planted = pkg.reduction.assignment_to_coloring(reduced, item.hidden)
        grid = pkg.textio.write_coloring(planted, board)
        back = pkg.textio.parse_coloring(grid, board)
        report = pkg.core.check_coloring(board, back)
        lp = pkg.ilp.export_lp(pkg.ilp.build_model(board))
        return reduced, board, fixed, planted, back, report, lp

    def check(self, pkg, item, result) -> list[str]:
        reduced, board, fixed, planted, back, report, lp = result
        problems = []
        if fixed is None:
            problems.append("root propagation refuted a planted board")
        elif any(planted[coord] != color for coord, color in fixed.items()):
            problems.append("root propagation fixed a circle against the "
                            "planted solution")
        if not report.ok or back != planted:
            problems.append("planted coloring does not check clean after "
                            "its .sol round trip")
        if reduced is not None:
            if board != reduced.board:
                problems.append("board text round trip changed the board")
            if decode(reduced, planted) != item.hidden:
                problems.append("planted coloring decodes to another assignment")
            if not exactly_one(item.clauses, item.hidden):
                problems.append("hidden assignment breaks a clause")
        return problems + lp_problems(lp, frozenset(planted.cells),
                                      planted.blacks)

    def digest(self, result):
        _, board, fixed, planted, back, report, lp = result
        return (len(board.circles),
                None if fixed is None else hash(frozenset(fixed.items())),
                report.ok, hash(lp))

    def record(self, result) -> tuple[int, str]:
        return 0, "sat" if result[2] is not None else "refuted"

    def board(self, result):
        return result[1]


WORKLOADS = {w.name: w for w in (ReducedDecide(), PuzzleBatch(), LargeBuild())}
