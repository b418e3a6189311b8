"""Generated model documents through the command line: every run ends in a documented exit.

Entries come from the whole float range, subnormals included, mixed with
booleans, strings, huge integers, nested and empty arrays.  Some matrices
are a small integer pattern times one scale, so that well-posed models
of every magnitude reach the fit and the leverage test.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lavse import cli

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# Magnitudes spread evenly over the binary exponents, subnormals included.
SCALES = st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 1023))
HUGE = st.integers(10**308, 10**400) | st.integers(-(10**400), -(10**308))
ODD = st.booleans() | st.text(max_size=2) | HUGE | st.lists(FLOATS, max_size=2)


@st.composite
def numbers(draw, size):
    """size floats: a pattern of small integers times one scale, or any floats."""
    if draw(st.booleans()):
        scale = draw(SCALES | FLOATS)
        return [k * scale for k in draw(st.lists(st.integers(-3, 3), min_size=size,
                                                 max_size=size))]
    return draw(st.lists(FLOATS, min_size=size, max_size=size))


@st.composite
def model_documents(draw):
    """Models of M >= N rows; half of them have one flaw: an odd value, a bad row,
    a short z or odd true_states."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 6))
    flat = draw(numbers(m * n))
    h = [flat[i * n:(i + 1) * n] for i in range(m)]
    doc = {"labels": [f"r{i}" for i in range(m)], "H": h, "z": draw(numbers(m))}
    if draw(st.booleans()):
        doc["true_states"] = draw(numbers(n))
    flaw = draw(st.sampled_from(["none"] * 5 + ["entry", "z", "row", "z-length", "states"]))
    i = draw(st.integers(0, m - 1))
    if flaw == "entry":
        h[i][draw(st.integers(0, n - 1))] = draw(ODD)
    elif flaw == "z":
        doc["z"][i] = draw(ODD)
    elif flaw == "row":  # a ragged, nested, empty or scalar row
        h[i] = draw(st.just([]) | st.lists(st.lists(FLOATS, max_size=2), max_size=2) | FLOATS)
    elif flaw == "z-length":
        doc["z"] = doc["z"][1:]
    elif flaw == "states":
        doc["true_states"] = draw(st.lists(ODD, max_size=3))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(model_documents(), st.sampled_from(["estimate", "detect", "ps"]),
       st.sampled_from(["json", "table"]))
def test_any_model_document_exits_with_a_documented_code(tmp_path_factory, doc, command, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(path), "--format", fmt])
    assert code in (0, 2, 3, 4, 5)
