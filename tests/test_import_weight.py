"""Importing the package must not pull in scipy.optimize.

``import scipy.optimize`` alone raises a process's peak memory by about
40%, so the library keeps to numpy (and light scipy modules) at import.
"""

import subprocess
import sys


def test_import_does_not_load_scipy_optimize():
    code = "import sys, lavse; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
