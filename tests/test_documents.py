"""Generated documents through the command line: every run ends in a documented exit.

Model entries come from the whole float range, subnormals included, mixed
with booleans, strings, huge integers, nested and empty arrays.  Some
matrices are a small integer pattern times one scale, so that well-posed
models of every magnitude reach the fit and the leverage test.  Network
and partition documents are mostly valid, so that most of them reach
``estimate``, ``detect`` and ``ps`` too.  No run may end in an internal
error (exit 5) or print a RuntimeWarning.
"""

import contextlib
import io
import json
import math
import warnings
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lavse
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


def _write(tmp_path_factory, doc) -> str:
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _main(*argv) -> tuple[int, str]:
    """Exit code and stdout of the command line on argv; a RuntimeWarning raises."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(list(argv))
    return code, out.getvalue()


def _run(tmp_path_factory, doc, command, *options) -> tuple[int, str]:
    """Exit code and stdout of the command on doc; a RuntimeWarning raises."""
    return _main(command, _write(tmp_path_factory, doc), *options)


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


KINDS = {"dc": ("pflow", "pinj", "qflow", "qinj", "vmag"),
         "pmu": ("iflow_re", "iinj_re", "vim", "iflow_im", "iinj_im", "vre")}


@st.composite
def network_documents(draw, kinds):
    """A path of lines over 2-5 buses, read by measurements of the given kinds; half
    of them have one flaw: an odd value, a subnormal or huge x, a self-loop, a bus
    without lines, a repeated label or a missing key.

    Each line carries a flow of every flow kind and each voltage kind reads one
    bus, so that a flawless network is observable; more readings follow at random.
    """
    k = draw(st.integers(2, 5))
    lines = [{"from": b, "to": b + 1, "x": draw(st.floats(0.01, 10.0)), "r": 0.0}
             for b in range(1, k)]
    places = [(kind, b) for kind in kinds if "flow" in kind for b in range(1, k)]
    places += [(kind, draw(st.integers(1, k))) for kind in kinds if kind.startswith("v")]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2 * k)):
        places.append((kind, draw(st.integers(1, k - 1 if "flow" in kind else k))))
    specs = []
    for i, (kind, b) in enumerate(places):
        spec = {"kind": kind, "label": f"m{i}"}
        if "flow" in kind:
            spec["from"], spec["to"] = draw(st.permutations([b, b + 1]))
        else:
            spec["bus"] = b
        specs.append(spec)
    doc = {"buses": list(range(1, k + 1)), "reference": draw(st.integers(1, k)),
           "lines": lines, "measurements": specs}
    flaw = draw(st.sampled_from(["none"] * 6 + ["odd", "x", "self-loop", "bus", "label",
                                                "key"]))
    line = draw(st.sampled_from(lines))
    entry = draw(st.sampled_from([doc, line, draw(st.sampled_from(specs))]))
    if flaw == "odd":
        entry[draw(st.sampled_from(sorted(entry)))] = draw(ODD)
    elif flaw == "x":
        line["x"] = draw(SCALES | st.sampled_from([5e-324, 1.7976931348623157e308]))
    elif flaw == "self-loop":
        line["to"] = line["from"]
    elif flaw == "bus":
        doc["buses"].append(k + 1)
    elif flaw == "label":
        specs[-1]["label"] = specs[0]["label"]
    elif flaw == "key":
        del entry[draw(st.sampled_from(sorted(entry)))]
    return doc


@SETTINGS
@given(st.sampled_from(sorted(KINDS)).flatmap(
    lambda model: st.tuples(st.just(model), network_documents(KINDS[model]))),
       st.sampled_from(["estimate", "detect", "ps"]))
def test_any_network_document_exits_with_a_documented_code(tmp_path_factory, case, command):
    model, doc = case
    built = str(tmp_path_factory.getbasetemp() / "built.json")
    code, _ = _run(tmp_path_factory, doc, "build", "--model", model, "--format", "json",
                   "--output", built)
    assert code in (0, 2, 3)
    if code == 0:  # the model the command line wrote, through the command line again
        code, _ = _main(command, built)
        assert code in (0, 3)


FIXTURE_LABELS = {name: lavse.fixture_model(name).labels for name in ("threebus-dc", "ieee14-dc")}


@st.composite
def partition_documents(draw, labels):
    """One to three partitions of row indices and labels; half of them have one flaw:
    a row out of range, a float, an odd value or an unknown label among the rows,
    or every partition under one name."""
    m = len(labels)
    row = st.integers(0, m - 1) | st.sampled_from(labels)
    parts = [{"name": f"p{k}", "measurements": draw(st.lists(row, min_size=1, max_size=m))}
             for k in range(draw(st.integers(1, 3)))]
    flaw = draw(st.sampled_from(["none"] * 5 + ["range", "float", "odd", "label", "name"]))
    bad = {"range": st.sampled_from([-1, m, 10**20]), "float": st.floats(), "odd": ODD,
           "label": st.text(max_size=3)}
    if flaw in bad:
        rows = draw(st.sampled_from(parts))["measurements"]
        rows.insert(draw(st.integers(0, len(rows))), draw(bad[flaw]))
    elif flaw == "name":
        for part in parts:
            part["name"] = "p"
    return {"partitions": parts}


@SETTINGS
@given(st.sampled_from(sorted(FIXTURE_LABELS)).flatmap(
    lambda name: st.tuples(st.just(name), partition_documents(FIXTURE_LABELS[name]))),
       st.sampled_from(["json", "table"]))
def test_any_partition_document_exits_with_a_documented_code(tmp_path_factory, case, fmt):
    name, doc = case
    model = tmp_path_factory.getbasetemp() / f"{name}.model.json"
    if not model.exists():
        lavse.save_model(lavse.fixture_model(name), model)
    code, _ = _main("detect", str(model), "--partitions", _write(tmp_path_factory, doc),
                    "--format", fmt)
    assert code in (0, 2, 3)
