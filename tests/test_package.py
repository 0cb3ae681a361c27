"""The package's public surface, seen from a fresh interpreter."""

import json

from conftest import fresh_python

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
