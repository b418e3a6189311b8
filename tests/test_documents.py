"""Generated model documents through the command line: every run ends in a documented exit.

Entries come from the whole float range, subnormals included, mixed with
booleans, strings, huge integers, nested and empty arrays.  Some matrices
are a small integer pattern times one scale, so that well-posed models
of every magnitude reach the fit and the leverage test.  No run may end
in an internal error (exit 5) or print a RuntimeWarning.
"""

import contextlib
import io
import json
import math
import warnings
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lavse import cli
from lavse.leverage import _STRICT, _TIE, BOUNDARY, CLEAN, LEVERAGE

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


def _run(tmp_path_factory, doc, command, *options) -> tuple[int, str]:
    """Exit code and stdout of the command on doc; a RuntimeWarning raises."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([command, str(path), *options])
    return code, out.getvalue()


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(model_documents(), st.sampled_from(["estimate", "detect", "ps"]),
       st.sampled_from(["json", "table"]))
def test_any_model_document_exits_with_a_documented_code(tmp_path_factory, doc, command, fmt):
    code, _ = _run(tmp_path_factory, doc, command, "--format", fmt)
    assert code in (0, 2, 3, 4)


def _band(mu: Fraction) -> str:
    """The verdict ``classify`` gives a margin mu."""
    if mu >= Fraction(_STRICT):
        return LEVERAGE
    return BOUNDARY if mu >= -Fraction(_TIE) else CLEAN


@SETTINGS
@given(st.integers(1, 6).flatmap(numbers))
def test_one_column_verdicts_match_the_closed_form(tmp_path_factory, column):
    # With one column each row has one basis, the empty one, and v = 1, so
    # mu_j = (|h_j| - sum_{i != j} |h_i|) / |h_j|, computed here exactly.
    assume(all(map(math.isfinite, column)))  # k * scale can overflow
    size = [abs(Fraction(x)) for x in column]
    mus = [(2 * a - sum(size)) / a if a else None for a in size]  # a zero row is clean
    edges = (Fraction(_STRICT), -Fraction(_TIE))
    assume(all(abs(mu - e) > Fraction(1e-12) for mu in mus if mu is not None for e in edges))
    doc = {"labels": [f"r{i}" for i in range(len(column))], "H": [[x] for x in column],
           "z": [0.0] * len(column)}
    code, out = _run(tmp_path_factory, doc, "detect", "--format", "json")
    assert code == (0 if any(column) else 3)  # an all-zero column has no rank
    if code == 0:
        assert [r["verdict"] for r in json.loads(out)["rows"]] == [
            CLEAN if mu is None else _band(mu) for mu in mus]
