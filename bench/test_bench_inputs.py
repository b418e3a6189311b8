"""The benchmark's input generator is seeded and follows the mesh spec."""

import json

import numpy as np

import inputs

SPECS = [(3, True), (3, False), (8, False), (10, True)]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_writes_byte_identical_files(tmp_path):
    inputs.write_instances(tmp_path / "a", 7, SPECS)
    inputs.write_instances(tmp_path / "b", 7, SPECS)
    inputs.write_instances(tmp_path / "c", 8, SPECS)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a").keys() == _files(tmp_path / "c").keys()
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_mesh_shapes_and_measurements(tmp_path):
    shapes = {3: (17, 8), 8: (144, 63), 10: (230, 99)}
    for inst in inputs.write_instances(tmp_path, 1, SPECS):
        net = json.loads(inst.network.read_text())
        model = json.loads(inst.model.read_text())
        h = np.array(model["H"])
        assert h.shape == shapes[inst.k]
        assert net["reference"] == 1
        assert all(0.05 <= ln["x"] <= 0.3 for ln in net["lines"])
        kinds = [m["kind"] for m in net["measurements"]]
        assert kinds.count("pflow") == len(net["lines"]) == 2 * inst.k * (inst.k - 1)
        assert kinds.count("pinj") == (inst.k * inst.k + 1) // 2
        exact = np.allclose(h @ np.array(model["true_states"]), model["z"], rtol=0, atol=1e-12)
        assert exact != inst.noisy
