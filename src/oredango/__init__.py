"""Toolkit for the Oredango circle-coloring puzzle.

Modules: `core` (board model and rule checker), `textio` (file formats),
`solver` (complete search), `ilp` (0-1 model and LP export), `reduction`
(1-in-3 satisfiability translation), and `cli` (command line).

`import oredango` loads `core`, `solver` and `textio`; `ilp`,
`reduction` and `cli` load on first access (PEP 562), so a board
command pays for neither of the other layers.  No module imports
`dataclasses`, which would load `inspect`, `ast` and `dis` on every
cold start: the value types are `typing.NamedTuple` records or plain
classes on `core.Frozen`.
"""

import importlib

from . import core, solver, textio
from .core import (BLACK, WHITE, Board, BoardError, Coloring, ColoringError,
                   Violation, ViolationReport, build_board, check_coloring)
from .solver import SolveOutcome, SolveStatus, another_solution, propagate, solve

__version__ = "0.1.0"

__all__ = [
    "BLACK", "WHITE", "Board", "BoardError", "Coloring", "ColoringError",
    "SolveOutcome", "SolveStatus", "Violation", "ViolationReport",
    "another_solution", "build_board", "check_coloring", "core", "ilp",
    "propagate", "reduction", "solve", "solver", "textio",
]

_LAZY = ("cli", "ilp", "reduction")


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
