"""0-1 integer model of a board, LP-format export, and feasibility check.

One binary variable per circle, 1 meaning black, and one row per entry of
the board's flat rule store `Board.rules`, bounding the sum of its
variables.  The objective minimizes the total black count but carries no
meaning here: any feasible point is a puzzle solution and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple

from .core import BLACK, WHITE, Board, Coloring, Coord
from .solver import BoundedCounts


class LinearConstraint(NamedTuple):
    """Unit-coefficient sum over named variables, bounded two-sided.

    `lower` and `upper` may coincide (an equality) and either may be None
    for a one-sided row.
    """

    name: str
    terms: tuple[str, ...]
    lower: int | None
    upper: int | None


@dataclass(frozen=True)
class LinearModel:
    """Variables in row-major circle order with an all-ones objective."""

    variables: tuple[tuple[str, Coord], ...]
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[int, ...]


def variable_name(coord: Coord) -> str:
    return f"x_{coord[0]}_{coord[1]}"


_ROW_PREFIX = {"A": "sk", "B": "tb", "C": "tr", "D": "tc"}


def build_model(board: Board) -> LinearModel:
    """Assemble the 0-1 model of a board.

    One constraint per entry of `board.rules`, in order, named `sk<r>`
    for rule A on skewer r and `tb`, `tr` or `tc<i>_<w>` for window w of
    rule B, C or D on line i.  Row names are made once per run of
    entries, and terms are cut from one name per circle.
    """
    coords = board.row_major
    names = list(map(variable_name, coords))
    rules = board.rules
    # one "_<w>" string per window number, shared by every line
    longest = max(map(itemgetter(3), rules.runs), default=0)
    suffixes = [f"_{w}" for w in range(1, longest + 1)]
    rows: list[str] = []
    for rule, index, _, count in rules.runs:
        prefix = f"{_ROW_PREFIX[rule]}{index}"
        if rule == "A":
            rows.append(prefix)
        else:
            rows += [prefix + suffix for suffix in suffixes[:count]]
    terms = rules.entries(map(names.__getitem__, rules.cells))
    # LinearConstraint._make without its Python-level length check
    constraints = tuple(map(tuple.__new__, repeat(LinearConstraint),
                            zip(rows, terms, rules.lo, rules.hi)))
    variables = tuple(zip(names, coords))
    return LinearModel(variables, constraints, (1,) * len(variables))


def _objective(model: LinearModel) -> str:
    terms = []
    for (name, _), weight in zip(model.variables, model.objective):
        if weight:
            scale = "" if abs(weight) == 1 else f"{abs(weight)} "
            terms.append(f" {'-' if weight < 0 else '+'} {scale}{name}")
    return "".join(terms).removeprefix(" +")


# Constraints written per block of text: blocks bound the row strings held
# at once, and the text is copied only once more, when they are joined.
_LP_BLOCK = 4096


def export_lp(model: LinearModel) -> str:
    """Serialize a model as deterministic LP text, LF line endings.

    The objective lists each variable of nonzero weight, a weight of 1 as
    the bare name.  An equality becomes one `=` row under its own name; a
    two-sided range becomes a `>=` row suffixed `_lo` and a `<=` row
    suffixed `_hi`.  Rows are joined in blocks of `_LP_BLOCK` constraints,
    so the text is held about twice at most: its blocks and the result.
    """
    blocks = [f"Minimize\n obj:{_objective(model)}\nSubject To\n"]
    constraints = model.constraints
    for base in range(0, len(constraints), _LP_BLOCK):
        lines = []
        for name, terms, lower, upper in constraints[base:base + _LP_BLOCK]:
            body = " + ".join(terms)
            if lower is not None and lower == upper:
                lines.append(f" {name}: {body} = {lower}\n")
                continue
            if lower is not None:
                lines.append(f" {name}_lo: {body} >= {lower}\n")
            if upper is not None:
                lines.append(f" {name}_hi: {body} <= {upper}\n")
        blocks.append("".join(lines))
    names = [name for name, _ in model.variables]
    blocks.append("Binaries\n")
    blocks += [f" {' '.join(names[base:base + 8])}\n"
               for base in range(0, len(names), 8)]
    blocks.append("End\n")
    return "".join(blocks)


def _model_engine(model: LinearModel) -> tuple[list[str], BoundedCounts]:
    names = [name for name, _ in model.variables]
    index = {name: i for i, name in enumerate(names)}
    members, lows, highs = [], [], []
    for con in model.constraints:
        try:
            group = [index[t] for t in con.terms]
        except KeyError as err:
            raise ValueError(f"constraint {con.name} uses unknown variable "
                             f"{err.args[0]}") from None
        members.append(group)
        lows.append(con.lower if con.lower is not None else 0)
        highs.append(con.upper if con.upper is not None else len(group))
    return names, BoundedCounts(len(names), members, lows, highs)


def solve_model(model: LinearModel) -> dict[str, int] | None:
    """First feasible 0-1 point of the model, as `enumerate_model` orders
    them, or None when infeasible."""
    found = enumerate_model(model, 1)
    return found[0] if found else None


def enumerate_model(model: LinearModel, cap: int | None = None) -> list[dict[str, int]]:
    """All feasible points (up to `cap`) in the solver's enumeration order;
    a cap below 1 raises ValueError."""
    names, engine = _model_engine(model)
    _, found, _ = engine.run(cap=cap)
    return [{names[i]: values[i] for i in range(len(names))}
            for values in found]


def model_to_coloring(model: LinearModel, assignment: Mapping[str, int],
                      board: Board) -> Coloring:
    """Translate a feasible point back to a coloring of `board`."""
    cells = {coord for _, coord in model.variables}
    if cells != set(board.circles):
        raise ValueError("model was built for a different board")
    wanted = {name for name, _ in model.variables}
    if wanted != set(assignment):
        raise ValueError("assignment does not cover the model's variables")
    colors = {}
    for name, coord in model.variables:
        value = assignment[name]
        if value not in (0, 1):
            raise ValueError(f"variable {name} holds non-binary value {value!r}")
        colors[coord] = BLACK if value else WHITE
    return Coloring.from_colors(colors)
