"""Importing the package, the CLI and every submodule in a fresh
interpreter loads no part of scipy.special."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import importlib, pkgutil, sys
import matrix_dirichlet, matrix_dirichlet.cli
names = [info.name for info in pkgutil.iter_modules(matrix_dirichlet.__path__)]
for name in names:
    importlib.import_module("matrix_dirichlet." + name)
assert "scipy.linalg" in sys.modules
assert "scipy.special" not in sys.modules, "scipy.special was imported"
print(len(names))
"""


def test_package_imports_no_scipy_special():
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    modules = list(Path(SRC, "matrix_dirichlet").glob("*.py"))
    assert int(res.stdout) == len(modules) - 1  # all but __init__
