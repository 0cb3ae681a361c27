"""Shared test oracles: brute-force solution sets computed independently
of the solver, plus random board and instance generators."""

from __future__ import annotations

import itertools
import random

import numpy as np

from oredango import core, reduction

# 16-bit popcount table; boards here stay within 20 circles
_PC16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount(arr: np.ndarray) -> np.ndarray:
    return _PC16[arr & 0xFFFF] + _PC16[(arr >> 16) & 0xFFFF]


def listed_rules(board: core.Board) -> list[tuple]:
    """Rules A-D as (rule, index, window, cells, lo, hi) tuples in the
    checker's report order, listed from `Board.clue_of` and
    `core.triple_index` alone, never from `Board.rules`.

    Rule A gives one tuple per clued skewer k, (A, k, None, path, clue,
    clue); rules B, C and D give window w of skewer, row or column i as
    (rule, i, w, three coordinates, 1, 2).
    """
    found = []
    for k, path in enumerate(board.skewers, start=1):
        clue = board.clue_of(path)
        if clue is not None:
            found.append(("A", k, None, path, clue, clue))
    index = core.triple_index(board)
    for rule, lines in (("B", index.skewer_triples), ("C", index.row_triples),
                        ("D", index.col_triples)):
        for i, windows in enumerate(lines, start=1):
            found += [(rule, i, w, cells, 1, 2)
                      for w, cells in enumerate(windows, start=1)]
    return found


def listed_violations(board: core.Board,
                      coloring: core.Coloring) -> tuple[core.Violation, ...]:
    """The report `listed_rules` gives: every entry whose black count lies
    outside [lo, hi], in order."""
    found = []
    for rule, index, window, cells, lo, hi in listed_rules(board):
        blacks = sum(cell in coloring.blacks for cell in cells)
        if not lo <= blacks <= hi:
            found.append(core.Violation(rule, index, window, cells, blacks,
                                        lo, hi))
    return tuple(found)


def mask_oracle(board: core.Board) -> set[core.Coloring]:
    """Every solution of the board, by vectorized scan of all colorings."""
    coords = board.row_major
    k = len(coords)
    assert k <= 20, "mask oracle is exhaustive"
    index = {c: i for i, c in enumerate(coords)}
    universe = np.arange(1 << k, dtype=np.uint32)
    keep = np.ones(1 << k, dtype=bool)
    for _, _, _, cells, lo, hi in listed_rules(board):
        mask = np.uint32(sum(1 << index[c] for c in cells))
        blacks = _popcount(universe & mask)
        keep &= (blacks >= lo) & (blacks <= hi)
    domain = frozenset(coords)
    found = set()
    for packed in universe[keep]:
        value = int(packed)
        blacks = frozenset(coords[i] for i in range(k) if (value >> i) & 1)
        found.add(core.Coloring(domain, blacks))
    return found


def literal_oracle(board: core.Board) -> set[core.Coloring]:
    """Same set as mask_oracle, but through check_coloring one by one."""
    coords = board.row_major
    assert len(coords) <= 12
    domain = frozenset(coords)
    found = set()
    for bits in itertools.product((0, 1), repeat=len(coords)):
        blacks = frozenset(c for c, b in zip(coords, bits) if b)
        coloring = core.Coloring(domain, blacks)
        if core.check_coloring(board, coloring).ok:
            found.add(coloring)
    return found


def random_counts(rng: random.Random
                  ) -> tuple[int, list[list[int]], list[int], list[int]]:
    """Random `BoundedCounts` system (nvars, members, lows, highs) on at
    most ten variables.

    A third of the systems hold up to eight groups of 1-6 distinct members,
    with bounds anywhere in 0..len; one group in ten gets lo > hi, so
    infeasible systems occur.  The others put six groups of 3-6 members on
    ten variables around a shared core of two, mostly with exact bounds,
    so that one core literal saturates or overspends several groups at
    once, often groups whose other members sit at different decision
    levels.
    """
    if rng.random() < 1 / 3:
        nvars = rng.randint(1, 10)
        members = [rng.sample(range(nvars), rng.randint(1, min(6, nvars)))
                   for _ in range(rng.randint(0, 8))]
        exact = 0.0
    else:
        nvars = 10
        core = rng.sample(range(nvars), 2)
        rest = [v for v in range(nvars) if v not in core]
        members = []
        for _ in range(6):
            group = core + rng.sample(rest, rng.randint(3, 6) - len(core))
            rng.shuffle(group)
            members.append(group)
        exact = 0.7
    lows: list[int] = []
    highs: list[int] = []
    for group in members:
        size = len(group)
        lo, hi = sorted([rng.randint(0, size), rng.randint(0, size)])
        if rng.random() < exact:
            lo = hi = rng.randint(1, size - 1)
        elif rng.random() < 0.1:
            lo, hi = hi, lo
        lows.append(lo)
        highs.append(hi)
    return nvars, members, lows, highs


def counts_oracle(nvars: int, members: list[list[int]], lows: list[int],
                  highs: list[int]) -> list[tuple[int, ...]]:
    """Every 0-1 assignment within all bounds, scanned in lexicographic
    order with 1 before 0."""
    # bit nvars - 1 - v of a mask holds variable v, so counting down from
    # all ones visits the assignments in that order
    masks = range((1 << nvars) - 1, -1, -1)
    for group, lo, hi in zip(members, lows, highs):
        bits = sum(1 << (nvars - 1 - v) for v in group)
        masks = [a for a in masks if lo <= (a & bits).bit_count() <= hi]
    return [tuple(map(int, format(a, f"0{nvars}b"))) for a in masks]


def random_board(rng: random.Random, max_circles: int = 16,
                 max_side: int = 5) -> core.Board:
    """Structurally valid board with random circles, skewers, and clues."""
    rows = rng.randint(1, max_side)
    cols = rng.randint(1, max_side)
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    rng.shuffle(cells)
    chosen = sorted(cells[:rng.randint(0, min(max_circles, len(cells)))])
    free = set(chosen)
    paths: list[list[core.Coord]] = []
    starts = sorted(free)
    rng.shuffle(starts)
    for start in starts:
        if start not in free or rng.random() < 0.45:
            continue
        path = [start]
        free.discard(start)
        while rng.random() < 0.7:
            r, c = path[-1]
            steps = sorted((r + dr, c + dc)
                           for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                           if (dr or dc) and (r + dr, c + dc) in free)
            if not steps:
                break
            nxt = rng.choice(steps)
            path.append(nxt)
            free.discard(nxt)
        if len(path) >= 2:
            paths.append(path)
        else:
            free.add(start)
    on_path: dict[core.Coord, int] = {}
    for i, path in enumerate(paths):
        for coord in path:
            on_path[coord] = i
    clued_paths: set[int] = set()
    circles: dict[core.Coord, int | None] = {}
    for coord in chosen:
        clue = None
        i = on_path.get(coord)
        if i is not None:
            if i not in clued_paths and rng.random() < 0.6:
                clue = rng.randint(0, len(paths[i]))
                clued_paths.add(i)
        elif rng.random() < 0.6:
            clue = rng.randint(0, 1)
        circles[coord] = clue
    return core.build_board(rows, cols, circles, paths)


# Uniform draws of all clauses tried before the clauses are built to use
# every variable.  Rejection alone can run for minutes when 3 * nclauses
# is not well above nvars * ln(nvars); a call that returns within this
# many draws draws as plain rejection sampling would.
RESAMPLES = 64


def _covering_triples(rng: random.Random, nvars: int,
                      nclauses: int) -> list[list[int]]:
    """Variables of `nclauses` clauses that together use all `nvars`.

    A shuffled order deals the variables round-robin over the clauses,
    which needs `nvars <= 3 * nclauses`; the free places are drawn from
    the variables not already in the clause.
    """
    if not 3 <= nvars <= 3 * nclauses:
        raise ValueError(f"{nclauses} clauses cannot use {nvars} variables")
    order = rng.sample(range(1, nvars + 1), nvars)
    triples = []
    for k in range(nclauses):
        dealt = order[k::nclauses]
        rest = [v for v in range(1, nvars + 1) if v not in dealt]
        triple = dealt + rng.sample(rest, 3 - len(dealt))
        rng.shuffle(triple)
        triples.append(triple)
    return triples


def random_instance(rng: random.Random, max_vars: int = 4,
                    max_clauses: int = 4) -> reduction.OneInThreeInstance:
    """Random 1-in-3 instance with every variable used by some clause.

    m clauses use at most 3m variables, so m is drawn from ceil(n/3) up.
    """
    n = rng.randint(3, min(max_vars, 3 * max_clauses))
    m = rng.randint(max(2, -(-n // 3)), max_clauses)
    for attempt in itertools.count():
        triples = (_covering_triples(rng, n, m) if attempt >= RESAMPLES
                   else None)
        clauses = []
        for i in range(m):
            chosen = triples[i] if triples else rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in chosen))
        if {abs(l) for cl in clauses for l in cl} == set(range(1, n + 1)):
            return reduction.one_in_three(n, clauses)


def sized_instance(rng: random.Random, nvars: int, nclauses: int,
                   planted: bool = False) -> reduction.OneInThreeInstance:
    """1-in-3 instance with exactly `nvars` variables, all used.

    Uniform signs by default; with `planted`, every clause has exactly one
    literal true under a hidden random assignment, so it is satisfiable.
    """
    hidden = [rng.randint(0, 1) for _ in range(nvars)]
    for attempt in itertools.count():
        triples = (_covering_triples(rng, nvars, nclauses)
                   if attempt >= RESAMPLES else None)
        clauses = []
        for i in range(nclauses):
            chosen = (triples[i] if triples
                      else rng.sample(range(1, nvars + 1), 3))
            true_at = rng.randrange(3)
            clauses.append(tuple(
                (v if hidden[v - 1] == (k == true_at) else -v) if planted
                else (v if rng.random() < 0.5 else -v)
                for k, v in zip(range(3), chosen)))
        if {abs(l) for cl in clauses for l in cl} == set(range(1, nvars + 1)):
            return reduction.one_in_three(nvars, clauses)


def reference_lp(board: core.Board) -> str:
    """LP text of a board's 0-1 model, written from `listed_rules` by the
    rules `ilp` documents, without `ilp` or `Board.rules`.

    Variables are `x_<row>_<col>` in row-major order, each of weight 1 in
    the objective.  A rule-A entry of skewer k is row `sk<k>`; window w of
    rule B, C or D on line i is row `tb`, `tr` or `tc<i>_<w>`.  Equal
    bounds make one `=` row; others a `>=` row suffixed `_lo` and a `<=`
    row suffixed `_hi`.  Binaries list eight names to a line.
    """
    def name(coord: core.Coord) -> str:
        return "x_%d_%d" % coord

    names = [name(coord) for coord in sorted(board.circles)]
    objective = " obj: " + " + ".join(names) if names else " obj:"
    lines = ["Minimize", objective, "Subject To"]
    prefix = {"A": "sk", "B": "tb", "C": "tr", "D": "tc"}
    for rule, index, window, cells, lo, hi in listed_rules(board):
        row = prefix[rule] + str(index)
        if window is not None:
            row += "_" + str(window)
        body = " + ".join(name(coord) for coord in cells)
        if lo == hi:
            lines.append(" %s: %s = %d" % (row, body, lo))
        else:
            lines.append(" %s_lo: %s >= %d" % (row, body, lo))
            lines.append(" %s_hi: %s <= %d" % (row, body, hi))
    lines.append("Binaries")
    while names:
        lines.append(" " + " ".join(names[:8]))
        names = names[8:]
    lines.append("End")
    return "".join(line + "\n" for line in lines)


def _lp_terms(tokens: list[str]) -> dict[str, int]:
    """Coefficients of an LP-format sum such as `a + 2 b - c`."""
    coefs: dict[str, int] = {}
    sign, scale = 1, 1
    for token in tokens:
        if token in ("+", "-"):
            sign = -1 if token == "-" else 1
        elif token.isdigit():
            scale = int(token)
        else:
            coefs[token] = coefs.get(token, 0) + sign * scale
            sign, scale = 1, 1
    return coefs


def highs_point(lp_text: str) -> dict[str, int] | None:
    """Optimal 0-1 point of an LP text, or None when it is infeasible.

    Independent of the package: reads back the text `ilp.export_lp`
    writes (objective, `=`/`>=`/`<=` rows, Binaries section) and solves
    it with scipy's HiGHS `milp`, which the caller must have importable.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    section, objective, rows, names = None, {}, [], []
    for line in lp_text.splitlines():
        if not line.startswith(" "):
            section = line
            continue
        if section == "Binaries":
            names += line.split()
            continue
        _, body = line.split(":", 1)
        tokens = body.split()
        if section == "Minimize":
            objective = _lp_terms(tokens)
        else:
            *lhs, op, rhs = tokens
            low, high = {"=": (int(rhs), int(rhs)), ">=": (int(rhs), np.inf),
                         "<=": (-np.inf, int(rhs))}[op]
            rows.append((_lp_terms(lhs), low, high))
    if not names:   # milp needs a variable; the empty point is the only one
        return {} if all(lo <= 0 <= hi for _, lo, hi in rows) else None
    column = {name: j for j, name in enumerate(names)}
    entries = [(i, column[name], coef) for i, (terms, _, _) in enumerate(rows)
               for name, coef in terms.items()]
    r, c, v = zip(*entries) if entries else ((), (), ())
    matrix = coo_array((v, (r, c)), shape=(len(rows), len(names)))
    cost = np.zeros(len(names))
    for name, coef in objective.items():
        cost[column[name]] = coef
    constraints = [LinearConstraint(matrix.tocsr(), [lo for _, lo, _ in rows],
                                    [hi for _, _, hi in rows])] if rows else []
    res = milp(cost, constraints=constraints, integrality=np.ones(len(names)),
               bounds=Bounds(0, 1))
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return None
    return {name: int(round(res.x[j])) for name, j in column.items()}
