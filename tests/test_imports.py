"""Every module imports on its own, in a fresh interpreter, and every test file
is named for the module it checks.

The package `__init__` files bind nothing but `__version__`, so a module
that leans on something another module imported first, or an import cycle
that only resolves in one order, shows up here rather than in a caller.
"""
import os
import subprocess
import sys
from pathlib import Path

import diracdelta

CHILD = """
import importlib, pkgutil, sys
import diracdelta

names = [m.name for m in pkgutil.walk_packages(diracdelta.__path__, "diracdelta.")
         if m.name != "diracdelta.__main__"]  # it calls sys.exit(main())
for name in names:
    for key in [k for k in sys.modules if k == "diracdelta" or k.startswith("diracdelta.")]:
        del sys.modules[key]
    importlib.import_module(name)
print("\\n".join(names))
"""


def test_every_module_imports_standalone():
    src = str(Path(diracdelta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    assert {"diracdelta.cli", "diracdelta.accel", "diracdelta.accel.perf"} <= names


# test files that check more than one module: the package as a whole, and
# `accel_units`, the simulator's pool and shift units (the stage generators
# of `accel.subgraph`) against the `ops` operators and pixel-serial oracles
CROSS_MODULE_SUITES = {"acceptance", "accel_units", "differential", "golden", "imports", "readme"}


def test_every_test_file_names_a_module_or_a_cross_module_suite():
    """`tests/test_<name>.py` checks `diracdelta/<name>.py`, with each `_` of the
    name read as `/`, so deleting a module cannot leave a test file named after it."""
    package = Path(diracdelta.__file__).resolve().parent
    names = [p.stem.removeprefix("test_") for p in Path(__file__).parent.glob("test_*.py")]
    stale = sorted(name for name in names if name not in CROSS_MODULE_SUITES
                   and not (package / f"{name.replace('_', '/')}.py").is_file())
    assert stale == []
