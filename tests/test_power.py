"""Network model builders and bundled fixtures."""

import numpy as np
import pytest

from lavse import (
    DisconnectedBus,
    GrossErrorSpec,
    InvalidArgument,
    Line,
    MeasurementSpec,
    NetworkModel,
    UnknownLabel,
    UnsupportedKind,
    build_dc_model,
    build_pmu_model,
    detect_all,
    fixture_model,
    fixture_network,
    inject_gross_errors,
    matrix_rank,
    pmu_blocks,
)
from lavse.power import load_network, network_from_dict, network_to_dict, save_network

from test_model import THREE_BUS_H

PMU_H1 = np.array([
    [0, 0, 1], [0, 1, 0], [1, 0, 0],
    [0, 10, -10], [1, 0, -1], [-1, 0, 1], [-1, 1, 0], [1, -1, 0],
    [1, 10, -11], [-2, 1, 1],
], dtype=float)

PMU_H2 = np.array([
    [0, 0, 1], [0, 1, 0], [1, 0, 0],
    [0, -10, 10], [-1, 0, 1], [1, 0, -1], [1, -1, 0], [-1, 1, 0],
    [-1, -10, 11], [2, -1, -1],
], dtype=float)


class TestDcBuilder:
    def test_three_bus_golden(self):
        model = fixture_model("threebus-dc")
        assert np.array_equal(model.h, THREE_BUS_H)
        assert model.labels == ("P_flow1-2", "P_flow1-3", "P_flow3-1", "P_flow3-2",
                                "P_flow2-3", "P_inj1", "P_inj3")
        assert np.array_equal(model.z, np.zeros(7))

    def test_single_line_single_flow(self):
        net = NetworkModel(
            buses=[1, 2], reference_bus=2,
            lines=[Line(1, 2, 0.5)],
            measurements=[MeasurementSpec("pflow", "f", from_bus=1, to_bus=2)],
        )
        model = build_dc_model(net)
        assert model.h.shape == (1, 1)
        assert model.h[0, 0] == pytest.approx(2.0)

    def test_states_synthesize_z(self):
        theta = np.array([0.1, -0.2])
        model = fixture_model("threebus-dc", states=theta)
        assert np.allclose(model.z, THREE_BUS_H @ theta)
        assert np.allclose(model.true_states, theta)

    def test_injection_is_sum_of_outgoing_flows(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n_bus = int(rng.integers(3, 8))
            buses = list(range(1, n_bus + 1))
            lines = [Line(b, b + 1, float(rng.uniform(0.05, 1.0))) for b in buses[:-1]]
            extra = rng.integers(0, n_bus - 2) if n_bus > 3 else 0
            for _ in range(int(extra)):
                a, b = sorted(rng.choice(buses, size=2, replace=False).tolist())
                if not any({ln.from_bus, ln.to_bus} == {a, b} for ln in lines):
                    lines.append(Line(a, b, float(rng.uniform(0.05, 1.0))))
            net = NetworkModel(
                buses=buses, reference_bus=1, lines=lines,
                measurements=(
                    [MeasurementSpec("pflow", f"f{ln.from_bus}-{ln.to_bus}",
                                     from_bus=ln.from_bus, to_bus=ln.to_bus) for ln in lines]
                    + [MeasurementSpec("pinj", f"inj{b}", bus=b) for b in buses]
                ),
            )
            model = build_dc_model(net)
            k = len(lines)
            for bi, bus in enumerate(buses):
                inj_row = model.h[k + bi]
                total = np.zeros(model.n)
                for li, ln in enumerate(lines):
                    if ln.from_bus == bus:
                        total += model.h[li]
                    elif ln.to_bus == bus:
                        total -= model.h[li]
                assert np.array_equal(inj_row, total)

    def test_ieee14_dimensions_and_rank(self):
        model = fixture_model("ieee14-dc")
        assert model.h.shape == (44, 27)
        assert matrix_rank(model.h) == 27
        # Voltage-magnitude rows are unit rows on the magnitude block.
        v1 = model.h[model.labels.index("|V1|")]
        assert np.count_nonzero(v1) == 1 and v1[model.state_labels.index("vm_1")] == 1.0
        # Active-power rows never touch magnitude columns and vice versa.
        vm_cols = [i for i, s in enumerate(model.state_labels) if s.startswith("vm_")]
        for i, lab in enumerate(model.labels):
            if lab.startswith("P_"):
                assert not model.h[i, vm_cols].any()

    def test_pmu_kind_rejected(self):
        net = fixture_network("threebus-pmu")
        with pytest.raises(UnsupportedKind):
            build_dc_model(net)

    def test_disconnected_bus(self):
        with pytest.raises(DisconnectedBus):
            build_dc_model(NetworkModel(
                buses=[1, 2, 3], reference_bus=1,
                lines=[Line(1, 2, 0.1)],
                measurements=[MeasurementSpec("pflow", "f", from_bus=1, to_bus=2)],
            ))


class TestPmuBuilder:
    def test_golden_blocks(self):
        im, re = pmu_blocks(fixture_network("threebus-pmu"))
        assert np.array_equal(im.h, PMU_H1)
        assert np.array_equal(re.h, PMU_H2)
        assert im.state_labels == ("v3_im", "v2_im", "v1_im")
        assert re.state_labels == ("v3_re", "v2_re", "v1_re")

    def test_assembled_block_diagonal(self):
        model = fixture_model("threebus-pmu")
        assert model.h.shape == (20, 6)
        assert np.array_equal(model.h[:10, :3], PMU_H1)
        assert np.array_equal(model.h[10:, 3:], PMU_H2)
        assert not model.h[:10, 3:].any()
        assert not model.h[10:, :3].any()

    def test_blocks_detect_clean_and_identically(self):
        im, re = pmu_blocks(fixture_network("threebus-pmu"))
        rep_im = detect_all(im)
        rep_re = detect_all(re)
        assert set(rep_im.verdicts) == {"clean"}
        # Current rows differ between blocks only by sign, which the test
        # is invariant to, so the classifications coincide.
        assert rep_im.verdicts == rep_re.verdicts

    def test_voltage_only_is_identity(self):
        net = NetworkModel(
            buses=[1, 2], reference_bus=1, lines=[Line(1, 2, 0.1)],
            measurements=[MeasurementSpec("vre", "V1_re", bus=1),
                          MeasurementSpec("vre", "V2_re", bus=2)],
        )
        model = build_pmu_model(net)
        assert np.array_equal(model.h, np.eye(2))

    def test_dc_kind_rejected(self):
        net = fixture_network("threebus-dc")
        with pytest.raises(UnsupportedKind):
            build_pmu_model(net)


class TestGrossErrors:
    def test_empty_list_identical(self):
        model = fixture_model("threebus-dc")
        out = inject_gross_errors(model, [])
        assert np.array_equal(out.z, model.z)
        assert np.array_equal(out.h, model.h)

    def test_additive_on_named_row(self):
        model = fixture_model("threebus-dc")
        out = inject_gross_errors(model, [GrossErrorSpec("P_flow1-2", 10.0)])
        assert out.z[0] == pytest.approx(model.z[0] + 10.0)
        assert np.array_equal(out.z[1:], model.z[1:])
        assert np.array_equal(out.h, model.h)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            inject_gross_errors(fixture_model("threebus-dc"), [GrossErrorSpec("nope", 1.0)])

    def test_detector_unaffected(self):
        model = fixture_model("ieee14-dc")
        errors = [GrossErrorSpec(lab, 10.0) for lab in model.labels[:5]]
        before = detect_all(model)
        after = detect_all(inject_gross_errors(model, errors))
        assert before.verdicts == after.verdicts
        assert before.combos_examined == after.combos_examined


class TestNetworkFiles:
    def test_round_trip(self, tmp_path):
        net = fixture_network("threebus-dc")
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert network_to_dict(loaded) == network_to_dict(net)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            network_from_dict({
                "buses": [1, 2], "reference": 3,
                "lines": [{"from": 1, "to": 2, "x": 0.1}],
                "measurements": [],
            })
        with pytest.raises(InvalidArgument):
            network_from_dict({
                "buses": [1, 2], "reference": 1,
                "lines": [{"from": 1, "to": 2, "x": -0.1}],
                "measurements": [],
            })

    def test_unknown_fixture(self):
        with pytest.raises(InvalidArgument):
            fixture_network("fourbus")
