"""0-1 integer model of a board, LP-format export, and feasibility check.

One binary variable per circle, 1 meaning black, and one row per entry of
the board's flat rule store `Board.rules`, bounding the sum of its
variables.  A model from `build_model` holds its variable names and
nothing per row: its rows are a view over the store, and each
`LinearConstraint` is made when it is read.  `export_lp` streams its text
from the store a row at a time and makes none of them.  The objective
minimizes the total black count but carries no meaning here: any
feasible point is a puzzle solution and vice versa.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import eq, itemgetter
from typing import Mapping, NamedTuple

from .core import BLACK, WHITE, Board, Coloring, Coord, Rules
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
    """Variables in row-major circle order with an all-ones objective.

    `constraints` may be any sequence of `LinearConstraint`, a tuple in a
    model built by hand.  `build_model` gives a `RuleRows` view, which
    makes each row when it is read.
    """

    variables: tuple[tuple[str, Coord], ...]
    constraints: Sequence[LinearConstraint]
    objective: tuple[int, ...]


def variable_name(coord: Coord) -> str:
    return f"x_{coord[0]}_{coord[1]}"


_ROW_PREFIX = {"A": "sk", "B": "tb", "C": "tr", "D": "tc"}


def _row_names(runs: Sequence[tuple[str, int, int, int]]) -> Iterator[str]:
    """One row name per store entry, in store order, made a run at a
    time."""
    # one "_<w>" string per window number, shared by every line
    longest = max(map(itemgetter(3), runs), default=0)
    suffixes = [f"_{w}" for w in range(1, longest + 1)]
    for rule, index, _, count in runs:
        prefix = f"{_ROW_PREFIX[rule]}{index}"
        if rule == "A":
            yield prefix
        else:
            yield from map(prefix.__add__, suffixes[:count])


class RuleRows(Sequence[LinearConstraint]):
    """The rows of a `build_model` model: a read-only view over a board's
    rule store, one `LinearConstraint` per entry in store order.

    It holds the store and one variable name per circle, nothing per row;
    a row is made when it is read, by index or by iteration.  Like a
    tuple, it equals a view or a tuple of the same rows and hashes alike.
    """

    def __init__(self, names: Sequence[str], rules: Rules):
        self._names = names
        self._rules = rules

    def __len__(self) -> int:
        return len(self._rules.lo)

    def __getitem__(self, e: int) -> LinearConstraint:
        rules = self._rules
        n = len(rules.lo)
        if e < 0:
            e += n
        if not 0 <= e < n:
            raise IndexError("row index out of range")
        rule, line, window = rules.tag(e)
        name = f"{_ROW_PREFIX[rule]}{line}"
        if window is not None:
            name += f"_{window}"
        terms = tuple(map(self._names.__getitem__,
                          rules.cells[rules.starts[e]:rules.starts[e + 1]]))
        return LinearConstraint(name, terms, rules.lo[e], rules.hi[e])

    def __iter__(self) -> Iterator[LinearConstraint]:
        return map(LinearConstraint._make, self._stream())

    def _stream(self) -> Iterator[tuple[str, tuple[str, ...], int, int]]:
        """The rows as plain (name, terms, lower, upper) tuples, made as
        they are consumed."""
        rules = self._rules
        return zip(_row_names(rules.runs),
                   rules.cut(map(self._names.__getitem__, rules.cells)),
                   rules.lo, rules.hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RuleRows, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


def build_model(board: Board) -> LinearModel:
    """Assemble the 0-1 model of a board.

    One constraint per entry of `board.rules`, in order, named `sk<r>`
    for rule A on skewer r and `tb`, `tr` or `tc<i>_<w>` for window w of
    rule B, C or D on line i.  The model keeps one name per circle; its
    rows are a `RuleRows` view over the store.
    """
    coords = board.row_major
    names = list(map(variable_name, coords))
    variables = tuple(zip(names, coords))
    return LinearModel(variables, RuleRows(names, board.rules),
                       (1,) * len(variables))


def _rows(model: LinearModel
          ) -> Iterable[tuple[str, Sequence[str], int | None, int | None]]:
    """The model's rows as (name, terms, lower, upper), in order: plain
    tuples streamed from the store for a `build_model` model, the
    constraints themselves otherwise."""
    constraints = model.constraints
    if isinstance(constraints, RuleRows):
        return constraints._stream()
    return constraints


def _objective(names: Sequence[str], weights: Sequence[int]) -> str:
    if len(weights) == len(names) and set(weights) <= {1}:
        return " " + " + ".join(names) if names else ""
    terms = []
    for name, weight in zip(names, weights):
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
    suffixed `_hi`.  Rows are read one at a time, straight from the rule
    store for a `build_model` model, and their lines joined in blocks of
    `_LP_BLOCK` constraints, so the text is held about twice at most: its
    blocks and the result.
    """
    names = [name for name, _ in model.variables]
    blocks = [f"Minimize\n obj:{_objective(names, model.objective)}\n"
              "Subject To\n"]
    rows = iter(_rows(model))
    for _ in range(0, len(model.constraints), _LP_BLOCK):
        lines = []
        for name, terms, lower, upper in islice(rows, _LP_BLOCK):
            body = " + ".join(terms)
            if lower is None:
                if upper is not None:
                    lines.append(f" {name}_hi: {body} <= {upper}\n")
            elif lower == upper:
                lines.append(f" {name}: {body} = {lower}\n")
            elif upper is None:
                lines.append(f" {name}_lo: {body} >= {lower}\n")
            else:
                lines.append(f" {name}_lo: {body} >= {lower}\n"
                             f" {name}_hi: {body} <= {upper}\n")
        blocks.append("".join(lines))
    blocks.append("Binaries\n")
    blocks += [f" {' '.join(names[base:base + 8])}\n"
               for base in range(0, len(names), 8)]
    blocks.append("End\n")
    return "".join(blocks)


def _model_engine(model: LinearModel) -> tuple[list[str], BoundedCounts]:
    names = [name for name, _ in model.variables]
    index = {name: i for i, name in enumerate(names)}
    members, lows, highs = [], [], []
    for name, terms, lower, upper in _rows(model):
        try:
            group = [index[t] for t in terms]
        except KeyError as err:
            raise ValueError(f"constraint {name} uses unknown variable "
                             f"{err.args[0]}") from None
        members.append(group)
        lows.append(lower if lower is not None else 0)
        highs.append(upper if upper is not None else len(group))
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
