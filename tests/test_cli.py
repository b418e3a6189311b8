"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lavse
from lavse import cli
from lavse.experiments import reproduce_table1
from lavse.model import load_matrix_csv, model_from_dict, model_to_dict

from test_model import THREE_BUS_H


@pytest.fixture()
def three_bus_file(tmp_path):
    model = lavse.fixture_model("threebus-dc", states=np.array([0.1, -0.2]))
    path = tmp_path / "threebus.json"
    lavse.save_model(model, path)
    return path


class TestBuild:
    def test_csv_matches_golden(self, tmp_path):
        out = tmp_path / "h.csv"
        assert cli.main(["build", "threebus-dc", "--model", "dc",
                         "--format", "csv", "--output", str(out)]) == 0
        assert np.array_equal(load_matrix_csv(out), THREE_BUS_H)

    def test_json_round_trips_through_module_parser(self, tmp_path):
        out = tmp_path / "m.json"
        assert cli.main(["build", "threebus-dc", "--model", "dc",
                         "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        again = model_to_dict(model_from_dict(doc))
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_pmu_fixture(self, capsys):
        assert cli.main(["build", "threebus-pmu", "--model", "pmu", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 20 and len(rows[0].split(",")) == 6

    def test_network_file_input(self, tmp_path, capsys):
        net = lavse.fixture_network("threebus-dc")
        path = tmp_path / "net.json"
        lavse.power.save_network(net, path)
        assert cli.main(["build", str(path), "--model", "dc", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "10,-10"


class TestEstimate:
    def test_consistent_measurements(self, three_bus_file, capsys):
        assert cli.main(["estimate", str(three_bus_file)]) == 0
        out = capsys.readouterr().out
        assert "objective: 0" in out

    def test_json_format(self, three_bus_file, capsys):
        assert cli.main(["estimate", str(three_bus_file), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta_hat"] == pytest.approx([0.1, -0.2], abs=1e-10)
        assert doc["objective"] == pytest.approx(0.0, abs=1e-10)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"labels": [')
        assert cli.main(["estimate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_rank_deficient_exit_3(self, tmp_path):
        path = tmp_path / "rankdef.json"
        path.write_text(json.dumps({
            "labels": ["a", "b"], "H": [[1, 1], [2, 2]], "z": [0, 0],
        }))
        assert cli.main(["estimate", str(path)]) == 3

    def test_singular_simplex_basis_exit_5(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        # A gross error leaves z inconsistent, so the fit inverts its start basis.
        model = lavse.fixture_model("threebus-dc", states=np.array([0.1, -0.2]))
        path = tmp_path / "gross.json"
        lavse.save_model(model.with_z(model.z + np.eye(model.m)[0]), path)
        monkeypatch.setattr(lavse.lav.np.linalg, "inv", singular)
        assert cli.main(["estimate", str(path)]) == 5
        assert "singular" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert cli.main(["estimate", "/nonexistent/model.json"]) == 2


class TestDetect:
    def test_three_bus_all_clean_exit_0(self, three_bus_file, capsys):
        assert cli.main(["detect", str(three_bus_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("clean") == 7

    def test_flags_are_data_not_errors(self, tmp_path, capsys):
        model = lavse.MeasurementModel(
            np.array([[1.0, 0.0], [0.0, 1.0], [100.0, 100.0]]), np.zeros(3),
            ("a", "b", "c"))
        path = tmp_path / "lev.json"
        lavse.save_model(model, path)
        assert cli.main(["detect", str(path)]) == 0
        assert "leverage" in capsys.readouterr().out

    def test_whole_ieee14_model(self, tmp_path, capsys):
        model = lavse.fixture_model("ieee14-dc")
        path = tmp_path / "ieee14.json"
        lavse.save_model(model, path)
        assert cli.main(["detect", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert sum(r["verdict"] != "clean" for r in rows) == 24

    def test_partition_file(self, tmp_path, capsys):
        model = lavse.fixture_model("ieee14-dc")
        mpath = tmp_path / "ieee14.json"
        lavse.save_model(model, mpath)
        from lavse.experiments import IEEE14_REFERENCE
        doc = {"partitions": [
            {"name": "blue", "measurements": [r[0] for r in IEEE14_REFERENCE if r[2] is not None]},
            {"name": "red", "measurements": [r[0] for r in IEEE14_REFERENCE if r[3] is not None]},
        ]}
        ppath = tmp_path / "parts.json"
        ppath.write_text(json.dumps(doc))
        assert cli.main(["detect", str(mpath), "--partitions", str(ppath)]) == 0
        out = capsys.readouterr().out
        assert "P_inj3" in out and "merged" in out
        assert cli.main(["detect", str(mpath), "--partitions", str(ppath),
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["merged_verdicts"] == {r.label: r.merged_ours for r in reproduce_table1().rows}
        assert doc["consistency_notes"] == [
            "partition 'red': re-referenced by dropping column(s) theta_6",
            "inconsistent classification for Q_inj8: blue: clean, red: boundary",
            "inconsistent classification for Q_flow7-8: blue: clean, red: boundary",
            "inconsistent classification for |V8|: blue: boundary, red: leverage",
        ]
        assert doc["unanalyzed"] == []

    def test_partition_rank_failure_exit_3(self, tmp_path, capsys):
        model = lavse.MeasurementModel(
            np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]), np.zeros(3), ("a", "b", "c"))
        path = tmp_path / "m.json"
        lavse.save_model(model, path)
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"partitions": [{"name": "bad", "measurements": ["a", "b"]}]}))
        assert cli.main(["detect", str(path), "--partitions", str(ppath)]) == 3


    def test_partition_row_out_of_range_exit_3(self, three_bus_file, tmp_path, capsys):
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"partitions": [{"name": "a", "measurements": [999]}]}))
        assert cli.main(["detect", str(three_bus_file), "--partitions", str(ppath)]) == 3
        assert "out of range" in capsys.readouterr().err


class TestPsAndMc:
    def test_ps_table(self, three_bus_file, capsys):
        assert cli.main(["ps", str(three_bus_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("yes") == 2

    def test_ps_json_round_trip(self, three_bus_file, capsys):
        assert cli.main(["ps", str(three_bus_file), "--format", "json"]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert json.dumps(json.loads(json.dumps(doc, indent=2, sort_keys=True)),
                          indent=2, sort_keys=True) == json.dumps(doc, indent=2, sort_keys=True)

    def test_ps_json_is_strict_on_degenerate_model(self, tmp_path, capsys):
        mpath = tmp_path / "ieee14.json"
        assert cli.main(["build", "ieee14-dc", "--model", "dc", "--format", "json",
                         "--output", str(mpath)]) == 0
        assert cli.main(["ps", str(mpath), "--format", "json"]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["degenerate"] is True
        assert doc["ps"] == [None] * len(doc["dof"])

    @pytest.mark.parametrize("flag", [["--trials", "0"], ["--seed", "-1"]])
    def test_mc_bad_config_exit_3(self, flag, capsys):
        assert cli.main(["reproduce", "mc", *flag]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_reproduce_mc_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        assert cli.main(["reproduce", "mc", "--trials", "3", "--seed", "7",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# trials=3 seed=7 ")
        assert lines[1] == "h81,h82,flagged,deviated,margin"
        assert len(lines) == 5


@pytest.mark.parametrize("argv", [["build", "threebus-dc", "--model", "dc"],
                                  ["estimate", "{model}"], ["detect", "{model}"],
                                  ["ps", "{model}"]])
def test_json_output_is_one_sorted_compact_line(argv, three_bus_file, capsys):
    assert cli.main([a.format(model=three_bus_file) for a in argv] + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_reused_parser_carries_no_option_over(three_bus_file, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    ppath = tmp_path / "p.json"
    labels = list(lavse.fixture_model("threebus-dc").labels)
    ppath.write_text(json.dumps({"partitions": [{"name": "all", "measurements": labels}]}))
    assert cli.main(["detect", str(three_bus_file), "--partitions", str(ppath),
                     "--format", "json"]) == 0
    assert "partitions" in json.loads(capsys.readouterr().out)
    assert cli.main(["detect", str(three_bus_file), "--format", "json"]) == 0
    assert "partitions" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [["detect"], ["build", "threebus-dc"],
                                  ["estimate", "m.json", "--format", "xml"], ["nope"],
                                  ["detect", "m.json", "--boundary-tol", "1e-9"],
                                  ["detect", "m.json", "--strict-margin", "1e-6"],
                                  ["estimate", "m.json", "--zero-tol", "1e-8"],
                                  ["mc", "--trials", "1", "--seed", "7"],
                                  ["reproduce", "mc", "--row-variance", "30"],
                                  ["estimate", "m.json", "--format", "csv"],
                                  ["detect", "m.json", "--format", "csv"],
                                  ["ps", "m.json", "--format", "csv"],
                                  ["reproduce", "table1", "--partitions", "p.json"],
                                  ["reproduce", "table2", "--partitions", "p.json"],
                                  ["reproduce", "mc", "--partitions", "p.json"]])
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


class TestReproduce:
    def test_table4_pass(self, capsys):
        assert cli.main(["reproduce", "table4"]) == 0
        assert "PASS: True" in capsys.readouterr().out

    def test_table2_pass(self, capsys):
        assert cli.main(["reproduce", "table2"]) == 0

    def test_mc_small(self, capsys):
        assert cli.main(["reproduce", "mc", "--trials", "200", "--seed", "3"]) == 0

    @pytest.mark.parametrize("target", ["table1", "table2", "table4", "mc"])
    def test_stdout_matches_golden_file(self, target, capsys):
        """The stdout of each reproduction is its file in tests/golden, byte for byte.

        Regenerate the files only for a deliberate change of output, and
        list the change in CHANGES.md:

            for t in table1 table2 table4 mc; do
              PYTHONPATH=src python -m lavse.cli reproduce $t > tests/golden/reproduce_$t.txt
            done
        """
        assert cli.main(["reproduce", target]) == 0
        golden = Path(__file__).resolve().parent / "golden" / f"reproduce_{target}.txt"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("target, flag", [
        ("table1", ["--trials", "0"]), ("table1", ["--out", "{out}"]),
        ("table2", ["--seed", "3"]), ("table2", ["--out", "{out}"]),
        ("table4", ["--trials", "0"]), ("table4", ["--out", "{out}"])])
    def test_option_the_target_ignores_exits_2(self, target, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", target] + [a.format(out=out) for a in flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"{flag[0]}: not used by reproduce {target}" in err
        assert not out.exists()


# Malformed inputs: each must end in a documented error exit, never a traceback.
BAD_DOCUMENTS = {
    "empty": "",
    "non-object": "[1, 2]",
    "scalar": "5",
    "no-fields": "{}",
    "nan": '{"labels": ["a", "b"], "H": [[1, 0], [0, NaN]], "z": [0, 0]}',
    "h-huge-int": '{"labels": ["a", "b"], "H": [[1, 0], [0, 1%s]], "z": [0, 0]}' % ("0" * 400),
    "z-huge-int": '{"labels": ["a", "b"], "H": [[1, 0], [0, 1]], "z": [0, -1%s]}' % ("0" * 400),
    "ragged": '{"labels": ["a", "b"], "H": [[1, 0], [1]], "z": [0, 0]}',
    "rank-deficient": '{"labels": ["a", "b"], "H": [[1, 1], [2, 2]], "z": [0, 0]}',
    "h-quoted": '{"labels": ["a", "b", "c"], "H": [["1", "0"], ["0", "1"], ["1", "1"]], "z": [1, 2, 3]}',
    "z-quoted": '{"labels": ["a", "b", "c"], "H": [[1, 0], [0, 1], [1, 1]], "z": [1, "2", 3]}',
    "true-states-quoted": '{"labels": ["a", "b", "c"], "H": [[1, 0], [0, 1], [1, 1]], "z": [1, 2, 3], '
                          '"true_states": ["1", 2]}',
    "labels-string": '{"labels": "abc", "H": [[1, 0], [0, 1], [1, 1]], "z": [1, 2, 3]}',
    "z-nested": '{"labels": ["a", "b", "c"], "H": [[1, 0], [0, 1], [1, 1]], "z": [[1, 2, 3]]}',
    "h-bool": '{"labels": ["a", "b", "c"], "H": [[true, 0], [0, 1], [1, 1]], "z": [1, 2, 3]}',
    "z-bool": '{"labels": ["a", "b", "c"], "H": [[1, 0], [0, 1], [1, 1]], "z": [true, 2, 3]}',
    "true-states-bool": '{"labels": ["a", "b", "c"], "H": [[1, 0], [0, 1], [1, 1]], "z": [1, 2, 3], '
                        '"true_states": [1, false]}',
}
BAD_PARTITIONS = {
    "empty": "",
    "non-object": "[1, 2]",
    "partitions-not-array": '{"partitions": 5}',
    "measurements-not-array": '{"partitions": [{"name": "a", "measurements": 5}]}',
    "row-out-of-range": '{"partitions": [{"name": "a", "measurements": [999]}]}',
    "unknown-label": '{"partitions": [{"name": "a", "measurements": ["nope"]}]}',
    "nan-row": '{"partitions": [{"name": "a", "measurements": [NaN]}]}',
    "name-number": '{"partitions": [{"name": 5, "measurements": [0]}]}',
    "duplicate-name": '{"partitions": [{"name": "a", "measurements": [0, 1, 2, 3, 4, 5, 6]}, '
                      '{"name": "a", "measurements": [0, 1, 2, 3, 4, 5]}]}',
}


_LINES = [{"from": 1, "to": 2, "x": 0.1}, {"from": 2, "to": 3, "x": 0.1}]
_MEASUREMENTS = [{"kind": "pflow", "label": "f12", "from": 1, "to": 2},
                 {"kind": "pinj", "label": "p2", "bus": 2},
                 {"kind": "pinj", "label": "p3", "bus": 3}]


def _network(add_lines=(), add_measurements=(), **fields) -> str:
    """A valid 3-bus DC network document with lines and measurements added
    and fields replaced."""
    doc = {"buses": [1, 2, 3], "reference": 1, "lines": _LINES + list(add_lines),
           "measurements": _MEASUREMENTS + list(add_measurements)}
    doc.update(fields)
    return json.dumps(doc)


BAD_NETWORKS = {
    "lines-not-array": _network(lines=5),
    "line-not-object": _network(lines=[5]),
    "x-string": _network(add_lines=[{"from": 1, "to": 3, "x": "abc"}]),
    "x-quoted": _network(add_lines=[{"from": 1, "to": 3, "x": "0.1"}]),
    "r-quoted": _network(add_lines=[{"from": 1, "to": 3, "x": 0.1, "r": "0"}]),
    "bus-quoted": _network(add_lines=[{"from": 1, "to": "3", "x": 0.1}]),
    "label-number": _network(add_measurements=[{"kind": "pinj", "label": 5, "bus": 1}]),
    "x-null": _network(add_lines=[{"from": 1, "to": 3, "x": None}]),
    "x-nan": _network(add_lines=[{"from": 1, "to": 3, "x": float("nan")}]),
    "x-zero": _network(add_lines=[{"from": 1, "to": 3, "x": 0.0}]),
    "x-inf": _network(add_lines=[{"from": 1, "to": 3, "x": float("inf")}]),
    "r-inf": _network(add_lines=[{"from": 1, "to": 3, "x": 0.1, "r": float("inf")}]),
    "x-huge-int": _network(add_lines=[{"from": 1, "to": 3, "x": 10 ** 400}]),
    "r-huge-int": _network(add_lines=[{"from": 1, "to": 3, "x": 0.1, "r": -10 ** 400}]),
    "line-fractional-bus": _network(add_lines=[{"from": 1.9, "to": 3, "x": 0.1}]),
    "line-infinite-bus": _network(add_lines=[{"from": 1, "to": float("inf"), "x": 0.1}]),
    "injection-fractional-bus": _network(
        add_measurements=[{"kind": "pinj", "label": "u", "bus": 2.5}]),
    "injection-boolean-bus": _network(
        add_measurements=[{"kind": "pinj", "label": "u", "bus": True}]),
    "line-to-unknown-bus": _network(add_lines=[{"from": 3, "to": 9, "x": 0.1}]),
    "line-to-itself": _network(add_lines=[{"from": 3, "to": 3, "x": 0.1}]),
    "duplicate-bus": _network(buses=[1, 2, 3, 3]),
    "unknown-kind": _network(add_measurements=[{"kind": "pmag", "label": "u", "bus": 1}]),
    "pmu-kind": _network(add_measurements=[{"kind": "vre", "label": "u", "bus": 1}]),
    "flow-without-line": _network(
        add_measurements=[{"kind": "pflow", "label": "u", "from": 1, "to": 3}]),
    "flow-on-doubled-line": _network(
        add_lines=[{"from": 2, "to": 1, "x": 0.2}],
        add_measurements=[{"kind": "pflow", "label": "u", "from": 2, "to": 1}]),
    "disconnected-bus": _network(buses=[1, 2, 3, 4]),
    "too-few-measurements": _network(measurements=_MEASUREMENTS[:1]),
}
FUZZ_CASES = (
    [pytest.param([cmd, "{doc}"], text, id=f"{cmd}-{name}")
     for cmd in ("estimate", "detect", "ps") for name, text in BAD_DOCUMENTS.items()
     if (cmd, name) != ("ps", "rank-deficient")]  # projection statistics need no column rank
    + [pytest.param(["build", "{doc}", "--model", "dc"], text, id=f"build-{name}")
       for name, text in BAD_DOCUMENTS.items()]
    + [pytest.param(["build", "{doc}", "--model", kind], text, id=f"build-{kind}-{name}")
       for kind in ("dc", "pmu") for name, text in BAD_NETWORKS.items()]
    + [pytest.param(["detect", "{model}", "--partitions", "{doc}"], text, id=f"detect-{name}")
       for name, text in BAD_PARTITIONS.items()]
)


# Bad mc settings are covered by TestPsAndMc.test_mc_bad_config_exit_3, and ps on
# a rank-deficient model by test_ps_on_rank_deficient_model_exits_0 below.
@pytest.mark.parametrize("argv,text", FUZZ_CASES)
def test_malformed_input_exits_with_documented_code(argv, text, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    model = tmp_path / "model.json"
    lavse.save_model(lavse.fixture_model("threebus-dc"), model)
    code = cli.main([a.format(doc=doc, model=model) for a in argv])
    # build runs no solver and no reproduction, so it fails only on its input.
    assert code in ({2, 3} if argv[0] == "build" else {2, 3, 4, 5})
    assert "Traceback" not in capsys.readouterr().err


NON_FINITE_CASES = (
    [pytest.param([cmd, "{doc}"], BAD_DOCUMENTS[name], id=f"{cmd}-{name}")
     for cmd in ("estimate", "detect", "ps") for name in ("nan", "h-huge-int", "z-huge-int")]
    + [pytest.param(["build", "{doc}", "--model", kind], BAD_NETWORKS[name],
                    id=f"build-{kind}-{name}")
       for kind in ("dc", "pmu")
       for name in ("x-nan", "x-inf", "r-inf", "x-huge-int", "r-huge-int")]
)


@pytest.mark.parametrize("argv,text", NON_FINITE_CASES)
def test_non_finite_number_exits_3(argv, text, tmp_path, capsys):
    # An integer beyond float range is rejected like NaN or 1e400: exit 3
    # with one error line.
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert cli.main([a.format(doc=doc) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("error: ")


QUOTED_CASES = (
    [pytest.param([cmd, "{doc}"], BAD_DOCUMENTS[name], id=f"{cmd}-{name}")
     for cmd in ("estimate", "detect", "ps")
     for name in ("h-quoted", "z-quoted", "true-states-quoted", "labels-string", "z-nested",
                  "h-bool", "z-bool", "true-states-bool")]
    + [pytest.param(["build", "{doc}", "--model", kind], BAD_NETWORKS[name],
                    id=f"build-{kind}-{name}")
       for kind in ("dc", "pmu") for name in ("x-quoted", "r-quoted", "bus-quoted", "label-number")]
)


@pytest.mark.parametrize("argv,text", QUOTED_CASES)
def test_wrong_json_type_exits_2(argv, text, tmp_path, capsys):
    # Numbers must be JSON numbers, labels an array of strings and z a flat
    # array: a quoted number, a boolean or a reshaped field is a parse error.
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert cli.main([a.format(doc=doc) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


PATH_CASES = [
    pytest.param(["estimate", "{dir}"], id="estimate-directory"),
    pytest.param(["build", "{dir}", "--model", "dc"], id="build-directory"),
    pytest.param(["detect", "{model}", "--partitions", "{dir}"], id="detect-partitions-directory"),
    pytest.param(["estimate", "{model}", "--output", "{dir}"], id="estimate-output-directory"),
    pytest.param(["build", "threebus-dc", "--model", "dc", "--output", "{dir}"],
                 id="build-output-directory"),
    pytest.param(["reproduce", "mc", "--trials", "3", "--out", "{dir}"], id="mc-out-directory"),
    pytest.param(["estimate", "{latin1}"], id="estimate-not-utf8"),
    pytest.param(["build", "{latin1}", "--model", "dc"], id="build-not-utf8"),
    pytest.param(["detect", "{model}", "--partitions", "{latin1}"], id="detect-partitions-not-utf8"),
    pytest.param(["estimate", "{deep}"], id="estimate-deep"),
    pytest.param(["detect", "{deep}"], id="detect-deep"),
    pytest.param(["build", "{deep}", "--model", "dc"], id="build-deep"),
    pytest.param(["detect", "{model}", "--partitions", "{deep}"], id="detect-partitions-deep"),
]


@pytest.mark.parametrize("argv", PATH_CASES)
def test_unusable_path_exits_2(argv, tmp_path, capsys):
    # A path that cannot be read or written, a file that is not UTF-8, or
    # JSON nested deeper than the decoder recurses, is a parse error like a
    # malformed document.
    model = tmp_path / "model.json"
    lavse.save_model(lavse.fixture_model("threebus-dc"), model)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"labels": ["\u00e9"]}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code = cli.main([a.format(dir=tmp_path, model=model, latin1=latin1, deep=deep) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: ") and "Traceback" not in err


def _probe(tmp_path, scale):
    """The 3-bus model [[1, 0], [0, 1], [1, 1]] times scale, with z = [1, 2, 3]."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "z": [1, 2, 3],
                                "H": [[scale, 0], [0, scale], [scale, scale]]}))
    return path


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300, 1e-308, 1e200])
def test_verdicts_do_not_depend_on_the_scale_of_h(scale, tmp_path, capsys):
    # Every row ties (s = q) at any scale, and no step under- or overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["detect", str(_probe(tmp_path, scale)), "--format", "json"]) == 0
    assert [r["verdict"] for r in json.loads(capsys.readouterr().out)["rows"]] == ["boundary"] * 3


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_estimate_beyond_float_range_exits_3(fmt, tmp_path, capsys):
    # At 1e-308, theta = [1e308, 2e308] overflows: one error line and no output.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["estimate", str(_probe(tmp_path, 1e-308)), "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("h,z", [([[1.7976931348623157e308], [1], [1]], [1e-20, 0, 0]),
                                 ([[1e300], [1], [-1]], [1e-30, 0, 0])])
def test_estimate_with_underflowing_state_exits_3(h, z, tmp_path, capsys):
    # The optimum fits row 0, at theta = z_0 / h_0 below the smallest subnormal;
    # theta = 0 would print a wrong objective.  detect needs no theta.
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "H": h, "z": z}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["estimate", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert cli.main(["detect", str(path)]) == 0


# Well-formed documents whose entries span the float range, with the exit
# of each command, which must print nothing to stderr.  The first two once
# exited 5; the last two once printed RuntimeWarnings from the simplex, on
# a row that underflows under its scaling and on a breakpoint past float range.
EDGE_DOCUMENTS = {
    "one-column-span": ({"labels": ["a", "b", "c", "d", "e"], "z": [0, 0, 0, 0, 0],
                         "H": [[4.948612551190319e+16], [5.0562961977149144e-213],
                               [3.619594960314317e-104], [1.0687246164638938e+16],
                               [-8.568588166909925e+120]]},
                        {"detect": 0, "estimate": 0}),
    "z-span": ({"labels": ["a", "b", "c", "d"],
                "H": [[-6.705555705265204e-105], [3.352777852632602e-105],
                      [-1.0058333557897806e-104], [-3.352777852632602e-105]],
                "z": [1.863772602532323e+16, 0.707, -1.7976931348623155e+308,
                      -2.1219476978462488e+63]},
               {"detect": 0, "estimate": 0}),
    "tiny-row": ({"labels": ["a", "b", "c", "d", "e", "f"], "z": [0, 0, 0, 0, 0, 0],
                  "H": [[0.0, 2.60750842793813e-310, -8.691694759794e-311], [-3, -2, 2],
                        [-3, -1, 0], [1, 1, 3], [1, -2, -3], [3, 2, -3]]},
                 {"detect": 0, "estimate": 0}),
    "one-column-subnormal": ({"labels": ["a", "b", "c", "d", "e", "f"],
                              "H": [[-2], [3], [4.345847379897e-311], [2], [0], [0]],
                              "z": [-7.555786372591432e+22, -7.555786372591432e+22,
                                    3.777893186295716e+22, 7.555786372591432e+22,
                                    -1.1333679558887149e+23, 7.555786372591432e+22]},
                             {"detect": 0, "estimate": 0}),
}


@pytest.mark.parametrize("name,command", [(name, command) for name, (_, codes) in
                                          EDGE_DOCUMENTS.items() for command in codes])
def test_edge_document_exits(name, command, tmp_path, capsys):
    doc, codes = EDGE_DOCUMENTS[name]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, str(path), "--format", "json"]) == codes[command]
    out, err = capsys.readouterr()
    assert err == ""
    if (name, command) == ("one-column-span", "detect"):
        # The closed form: the row of -8.6e120 outweighs the rest, and no other row does.
        rows = json.loads(out)["rows"]
        assert [r["verdict"] for r in rows] == ["clean"] * 4 + ["leverage"]
    if (name, command) == ("z-span", "estimate"):
        assert json.loads(out)["objective"] == 1.7976931348623155e+308


def test_ps_on_rank_deficient_model_exits_0(tmp_path, capsys):
    # Projection statistics need no column rank, unlike estimate and detect.
    mpath = tmp_path / "rank1.json"
    mpath.write_text(BAD_DOCUMENTS["rank-deficient"])
    assert cli.main(["ps", str(mpath), "--format", "json"]) == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert len(doc["ps"]) == 2


def run_cli(*argv, text=True, **env):
    """The command line in a child process, with env added to its environment.

    Its output is decoded in this process's locale, or left as bytes if text is false.
    """
    # The child does not inherit pytest's sys.path, so it gets the checkout's src first.
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "lavse.cli", *argv],
                          capture_output=True, text=text, env=env)


def test_console_script_installed():
    proc = run_cli("build", "threebus-dc", "--model", "dc", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10,-10"


def test_files_are_utf8_in_an_ascii_locale(tmp_path):
    # Neither locale coercion nor UTF-8 mode: open() without an encoding, and
    # stdout, would use ASCII.
    model = tmp_path / "m.json"
    model.write_bytes('{"labels": ["P_\u00fc1", "b", "c"], "H": [[1, 0], [0, 1], [1, 1]], '
                      '"z": [1, 2, 3]}'.encode())
    locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    for command in ("estimate", "detect", "ps"):
        out = tmp_path / f"{command}.txt"
        proc = run_cli(command, str(model), "--output", str(out), **locale)
        assert proc.returncode == 0, proc.stderr
        assert "P_\u00fc1" in out.read_text(encoding="utf-8")
        # A table on stdout names the rows by their labels too.
        proc = run_cli(command, str(model), text=False, **locale)
        assert proc.returncode == 0, proc.stderr
        assert b"P_\xc3\xbc1" in proc.stdout


def test_readme_command_block_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("lavse ")}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)
