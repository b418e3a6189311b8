"""Network model builders and bundled fixtures."""

import json

import numpy as np
import pytest

from lavse import (
    DisconnectedBus,
    GrossErrorSpec,
    InvalidArgument,
    Line,
    MeasurementSpec,
    NetworkModel,
    ParseError,
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
        # Parallel lines are drawn too: an injection sums each incident
        # line's own 1/x, and flows are measured only on pairs with one line.
        rng = np.random.default_rng(2)
        drew_parallel = False
        for _ in range(20):
            n_bus = int(rng.integers(3, 8))
            buses = list(range(1, n_bus + 1))
            lines = [Line(b, b + 1, float(rng.uniform(0.05, 1.0))) for b in buses[:-1]]
            for _ in range(int(rng.integers(1, n_bus))):
                a, b = rng.choice(buses, size=2, replace=False).tolist()
                lines.append(Line(a, b, float(rng.uniform(0.05, 1.0))))
            pairs = [{ln.from_bus, ln.to_bus} for ln in lines]
            single = [ln for ln, pair in zip(lines, pairs) if pairs.count(pair) == 1]
            drew_parallel |= len(single) < len(lines)
            net = NetworkModel(
                buses=buses, reference_bus=1, lines=lines,
                measurements=(
                    [MeasurementSpec("pflow", f"f{ln.from_bus}-{ln.to_bus}",
                                     from_bus=ln.from_bus, to_bus=ln.to_bus) for ln in single]
                    + [MeasurementSpec("pinj", f"inj{b}", bus=b) for b in buses]
                ),
            )
            model = build_dc_model(net)

            def flow(f: int, t: int, x: float) -> np.ndarray:
                row = np.zeros(model.n)  # angle column of bus b is b - 2; bus 1 is the reference
                if f != 1:
                    row[f - 2] += 1.0 / x
                if t != 1:
                    row[t - 2] -= 1.0 / x
                return row

            for li, ln in enumerate(single):
                assert np.array_equal(model.h[li], flow(ln.from_bus, ln.to_bus, ln.x))
            for bi, bus in enumerate(buses):
                total = np.zeros(model.n)
                for ln in lines:
                    if ln.from_bus == bus:
                        total += flow(bus, ln.to_bus, ln.x)
                    elif ln.to_bus == bus:
                        total += flow(bus, ln.from_bus, ln.x)
                assert np.allclose(model.h[len(single) + bi], total, rtol=1e-12, atol=0.0)
        assert drew_parallel

    def test_flow_on_parallel_lines_is_ambiguous(self):
        with pytest.raises(InvalidArgument, match="between 2 and 1"):
            NetworkModel(
                buses=[1, 2, 3], reference_bus=1,
                lines=[Line(1, 2, 0.1), Line(2, 3, 0.1), Line(2, 1, 0.2)],
                measurements=[MeasurementSpec("pflow", "f", from_bus=2, to_bus=1)],
            )

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
        with pytest.raises(UnknownLabel, match="^unknown measurement label 'nope'$") as err:
            inject_gross_errors(fixture_model("threebus-dc"), [GrossErrorSpec("nope", 1.0)])
        assert err.value.label == "nope"

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
        text = path.read_text()  # one compact line with sorted keys
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

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
        with pytest.raises(InvalidArgument, match="itself"):
            network_from_dict({
                "buses": [1, 2], "reference": 1,
                "lines": [{"from": 1, "to": 2, "x": 0.1}, {"from": 2, "to": 2, "x": 0.1}],
                "measurements": [],
            })

    @pytest.mark.parametrize("bus", [1.9, True, float("inf")])
    def test_non_integral_bus_id_is_a_parse_error(self, bus):
        doc = network_to_dict(fixture_network("threebus-dc"))
        doc["measurements"].append({"kind": "pinj", "label": "u", "bus": bus})
        with pytest.raises(ParseError, match="bus"):
            network_from_dict(doc)
        doc["measurements"][-1]["bus"] = 2.0
        assert network_from_dict(doc).measurements[-1].bus == 2

    def test_unknown_fixture(self):
        with pytest.raises(InvalidArgument):
            fixture_network("fourbus")
