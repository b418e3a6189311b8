"""Importing the package must not pull in scipy.optimize or scipy.linalg.

``import scipy.optimize`` alone raises a process's peak memory by about
40%, and ``import scipy.linalg`` by about 12% (53 to 59 MB), so the
library keeps to numpy (and light scipy modules) at import.
"""

import subprocess
import sys


def _loaded_by_import(module: str) -> bool:
    code = f"import sys, lavse; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "True"


def test_import_does_not_load_scipy_optimize():
    assert not _loaded_by_import("scipy.optimize")


def test_import_does_not_load_scipy_linalg():
    assert not _loaded_by_import("scipy.linalg")
