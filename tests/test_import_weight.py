"""The library and its command line run on numpy alone: no scipy module loads.

``import scipy.optimize`` alone raises a process's peak memory by about
40%, and ``import scipy.linalg`` by about 12% (53 to 59 MB); even
``scipy.special`` roughly doubles the import time of ``lavse.cli``. So
the library imports nothing from scipy, which is a test dependency only.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lavse

SRC = str(Path(lavse.__file__).resolve().parents[1])


def _run(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports this checkout's lavse."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    return proc.stdout.strip()


def _loaded_by_import(module: str) -> bool:
    return _run(f"import sys, lavse; print({module!r} in sys.modules)") == "True"


def test_import_does_not_load_scipy_optimize():
    assert not _loaded_by_import("scipy.optimize")


def test_import_does_not_load_scipy_linalg():
    assert not _loaded_by_import("scipy.linalg")


def test_ps_and_reproduce_load_no_scipy(tmp_path):
    model = tmp_path / "ieee14.json"
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import lavse
        from lavse import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["build", "ieee14-dc", "--model", "dc", "--format", "json",
                               "--output", {str(model)!r}]),
                     cli.main(["ps", {str(model)!r}, "--format", "json"]),
                     cli.main(["reproduce", "table2"])]
        print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    assert _run(code) == "[0, 0, 0] []"
