"""The library and its command line run on numpy alone: no scipy module loads.

``import scipy.optimize`` alone raises a process's peak memory by about
40%, and ``import scipy.linalg`` by about 12% (53 to 59 MB); even
``scipy.special`` roughly doubles the import time of ``lavse.cli``. So
the library imports nothing from scipy, which is a test dependency only.
Nor does any command load ``numpy.ma``, which numpy 2 imports on first use:
that costs a bare numpy process about 11.5 ms and 2.0 MB of peak memory.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lavse
from lavse.experiments import ieee14_partitions

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


def test_no_command_loads_numpy_ma(tmp_path):
    if _run("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    model = tmp_path / "ieee14.json"
    lavse.save_model(lavse.fixture_model("ieee14-dc"), model)
    parts = tmp_path / "partitions.json"
    parts.write_text(json.dumps({"partitions": [
        {"name": p.name, "measurements": list(p.measurement_indices)}
        for p in ieee14_partitions(lavse.load_model(model))]}))
    commands = [["build", "ieee14-dc", "--model", "dc", "--format", "json",
                 "--output", str(tmp_path / "built.json")],
                ["estimate", str(model)],
                ["detect", str(model)],
                ["detect", str(model), "--partitions", str(parts)],
                ["ps", str(model)],
                ["reproduce", "table1"],
                ["reproduce", "table2"],
                ["reproduce", "table4"],
                ["reproduce", "mc", "--trials", "50"]]
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from lavse import cli
        with contextlib.redirect_stdout(io.StringIO()):
            runs = [(cli.main(argv), "numpy.ma" in sys.modules) for argv in {commands!r}]
        print(runs)
    """)
    # Each command's exit code, and whether numpy.ma is loaded after it.
    assert _run(code) == str([(0, False)] * len(commands))
