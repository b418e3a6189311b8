"""Command-line interface: subcommands, formats, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import lavse
from lavse import cli
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

    def test_singular_simplex_basis_exit_5(self, three_bus_file, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(lavse.lav, "_REFACTOR_EVERY", 1)
        monkeypatch.setattr(lavse.lav.np.linalg, "inv", singular)
        assert cli.main(["estimate", str(three_bus_file)]) == 5
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

    def test_partition_rank_failure_exit_3(self, tmp_path, capsys):
        model = lavse.MeasurementModel(
            np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]), np.zeros(3), ("a", "b", "c"))
        path = tmp_path / "m.json"
        lavse.save_model(model, path)
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"partitions": [{"name": "bad", "measurements": ["a", "b"]}]}))
        assert cli.main(["detect", str(path), "--partitions", str(ppath)]) == 3


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

    @pytest.mark.parametrize("flag", [["--trials", "0"], ["--row-variance", "-1"]])
    def test_mc_bad_config_exit_3(self, flag, capsys):
        argv = ["mc", "--trials", "1", "--seed", "7", *flag]
        assert cli.main(argv) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_mc_single_trial_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        assert cli.main(["mc", "--trials", "1", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "h81,h82,flagged,deviated,margin"
        assert len(lines) == 3


class TestReproduce:
    def test_table4_pass(self, capsys):
        assert cli.main(["reproduce", "table4"]) == 0
        assert "PASS: True" in capsys.readouterr().out

    def test_table2_pass(self, capsys):
        assert cli.main(["reproduce", "table2"]) == 0

    def test_mc_small(self, capsys):
        assert cli.main(["reproduce", "mc", "--trials", "200", "--seed", "3"]) == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "lavse.cli", "build", "threebus-dc",
                           "--model", "dc", "--format", "csv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10,-10"
