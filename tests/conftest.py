import os
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from oredango import reduction, textio
from oredango.core import build_board
from oracles import sized_instance

# One profile for the property tests: the same examples on every run and
# no example database.  A test's own `@settings` overrides what it names.
settings.register_profile("repeatable", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repeatable")


def pytest_configure(config):
    # Even without a database, hypothesis caches the constants it reads
    # from the tested source in its home directory, `.hypothesis/` by
    # default; point it at a directory removed when the run ends.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run `args` in a new interpreter that imports the package from `src`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def reduce_without(monkeypatch, cell):
    """Make `reduction.reduce` leave the loner circle at `cell` off the
    boards it returns, as a layout fault would, keeping its cell maps."""
    honest = reduction.reduce

    def faulty(instance):
        reduced = honest(instance)
        board = reduced.board
        circles = {coord: clue for coord, clue in board.circles.items()
                   if coord != cell}
        skewers = [path for path in board.skewers if len(path) > 1]
        return reduced._replace(board=build_board(
            board.rows, board.cols, circles, skewers))

    monkeypatch.setattr(reduction, "reduce", faulty)


@pytest.fixture
def sample_board():
    return textio.parse_board(fixture_text("sample4x4.odg"))


@pytest.fixture
def pair_board():
    return textio.parse_board(fixture_text("pairblock.odg"))


@pytest.fixture(scope="session")
def wide_reduced_board():
    """A reduced board with 3,618 circles and 8,805 rule entries: its LP
    text spans several of `export_lp`'s blocks."""
    instance = sized_instance(random.Random(1), 16, 20, planted=True)
    return reduction.reduce(instance).board
