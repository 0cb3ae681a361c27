"""The package's public surface, seen from a fresh interpreter."""

import ast
import json
import sys

from conftest import FIXTURES, SRC, fresh_python
from oredango import textio

SURFACE_PROBE = """
import json, sys
import oredango
from oredango import core, solver

listed = set(dir(oredango))
namespace = {}
exec("from oredango import *", namespace)
mismatched = []
for name in oredango.__all__:
    module = sys.modules.get("oredango." + name)
    home = module or getattr(core if name in vars(core) else solver, name)
    if namespace.get(name) is not home:
        mismatched.append(name)
try:
    oredango.nope
    missing = None
except AttributeError as err:
    missing = [type(err).__name__, str(err)]
print(json.dumps({"unlisted": sorted(set(oredango.__all__) - listed),
                  "mismatched": mismatched, "missing": missing}))
"""


def test_star_import_dir_and_missing_names():
    proc = fresh_python("-c", SURFACE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unlisted": [], "mismatched": [],
        "missing": ["AttributeError",
                    "module 'oredango' has no attribute 'nope'"]}


def test_import_leaves_the_collector_alone():
    # only the public calls pause the collector, each for its own span
    probe = ("import gc; before = gc.get_threshold(); "
             "import oredango, oredango.cli; "
             "print(gc.isenabled(), gc.get_threshold() == before)")
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((SRC / "oredango").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_readme_library_snippet_runs():
    root = SRC.parent
    library = (root / "README.md").read_text().split("\n## Library\n", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    proc = fresh_python("-c", snippet, cwd=root)
    assert proc.returncode == 0, proc.stderr
    lp = (FIXTURES / "golden" / "sample4x4.lp").read_text()
    assert proc.stdout == f"4\n{lp}\nTrue\n"


def test_readme_board_example_parses():
    formats = (SRC.parent / "README.md").read_text().split(
        "\n## File formats\n", 1)[1]
    example = formats.split("```\n", 1)[1].split("```", 1)[0]
    board = textio.parse_board(example)
    assert (board.rows, board.cols) == (4, 4)
    assert board.circles == {(1, 1): 0, (1, 2): None, (2, 1): None,
                             (3, 2): None, (4, 1): None}
    # the path is stored in its canonical direction
    assert board.skewers == (((2, 1), (3, 2), (4, 1)), ((1, 1),), ((1, 2),))
