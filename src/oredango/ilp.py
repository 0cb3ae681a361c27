"""0-1 integer model of a board and its LP-format export.

The model of one board has one binary variable per circle, 1 meaning
black, and one row per entry of the board's rule store `Board.rules`,
bounding the sum of its variables.  It holds its variable names and the
store, nothing per row: each read of its `constraints` lists one
`LinearConstraint` per entry, and `export_lp` streams its text from the
store's `groups` a row at a time and makes none of them.  The package does
not solve the model: any 0-1 solver that reads LP text does, and its
point maps back to a coloring through `variables`, whose (name, coord)
pairs say which circle each variable stands for.  The objective minimizes
the total black count but carries no meaning here: any feasible point is
a puzzle solution and vice versa.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

from .core import Board, Coord, Frozen, Rules, _collector_paused


class LinearConstraint(NamedTuple):
    """Unit-coefficient sum over named variables, bounded to [`lower`,
    `upper`]; the two coincide for an equality."""

    name: str
    terms: tuple[str, ...]
    lower: int
    upper: int


_ROW_PREFIX = {"A": "sk", "B": "tb", "C": "tr", "D": "tc"}


def variable_name(coord: Coord) -> str:
    return f"x_{coord[0]}_{coord[1]}"


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


def _stream(names: Sequence[str], rules: Rules
            ) -> Iterator[tuple[str, tuple[str, ...], int, int]]:
    """The rows as plain (name, terms, lower, upper) tuples, in store
    order, made as they are consumed: names are looked up over the
    store's groups laid end to end and cut back into one tuple per
    entry."""
    flat = map(names.__getitem__, chain.from_iterable(rules.groups))
    return zip(_row_names(rules.runs), rules.cut(flat), rules.lo, rules.hi)


class LinearModel(Frozen):
    """The 0-1 model of one board, as `build_model` makes it: its
    variables in row-major circle order and the board's rule store.
    Models compare by identity."""

    variables: tuple[tuple[str, Coord], ...]
    rules: Rules
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, variables, rules):
        vars(self).update(variables=variables, rules=rules)

    @property
    def objective(self) -> tuple[int, ...]:
        """One unit weight per variable: the total black count."""
        return (1,) * len(self.variables)

    @property
    def constraints(self) -> list[LinearConstraint]:
        """One row per entry of `rules`, in store order, made on each
        read."""
        return list(map(LinearConstraint._make,
                        _stream(_names(self), self.rules)))


def _names(model: LinearModel) -> list[str]:
    return [name for name, _ in model.variables]


@_collector_paused
def build_model(board: Board) -> LinearModel:
    """Assemble the 0-1 model of a board.

    One constraint per entry of `board.rules`, in order, named `sk<r>`
    for rule A on skewer r and `tb`, `tr` or `tc<i>_<w>` for window w of
    rule B, C or D on line i.  The model keeps one name per circle and
    the store.
    """
    coords = board.row_major
    return LinearModel(tuple(zip(map(variable_name, coords), coords)),
                       board.rules)


# Constraints written per block of text: blocks bound the row strings held
# at once, and the text is copied only once more, when they are joined.
_LP_BLOCK = 4096


@_collector_paused
def export_lp(model: LinearModel) -> str:
    """Serialize a model as deterministic LP text, LF line endings.

    The objective lists every variable by its bare name.  An equality
    becomes one `=` row under its own name; a range becomes a `>=` row
    suffixed `_lo` and a `<=` row suffixed `_hi`.  Rows are read one at a
    time, straight from the rule store, and their lines joined in blocks
    of `_LP_BLOCK` constraints, so the text is held about twice at most:
    its blocks and the result.
    """
    names = _names(model)
    objective = f" {' + '.join(names)}" if names else ""
    blocks = [f"Minimize\n obj:{objective}\nSubject To\n"]
    rows = _stream(names, model.rules)
    for _ in range(0, len(model.rules.lo), _LP_BLOCK):
        lines = []
        for name, terms, lower, upper in islice(rows, _LP_BLOCK):
            body = " + ".join(terms)
            if lower == upper:
                lines.append(f" {name}: {body} = {lower}\n")
            else:
                lines.append(f" {name}_lo: {body} >= {lower}\n"
                             f" {name}_hi: {body} <= {upper}\n")
        blocks.append("".join(lines))
    blocks.append("Binaries\n")
    blocks += [f" {' '.join(names[base:base + 8])}\n"
               for base in range(0, len(names), 8)]
    blocks.append("End\n")
    return "".join(blocks)
