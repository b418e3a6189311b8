"""Reference-table reproduction and the randomized extra-row study."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lavse import MeasurementModel, experiments, fixture_model, leverage
from lavse.errors import DimensionMismatch, NonFinite
from lavse.experiments import (
    DEVIATION_TOL,
    GROSS_ERROR,
    ROW_VARIANCE,
    STATE_VARIANCE,
    _trials,
    SWEEP_DIRECTIONS,
    SWEEP_ERRATA,
    SWEEP_PRINTED,
    reproduce_mc,
    reproduce_table1,
    reproduce_table2,
    reproduce_table4,
    run_monte_carlo,
    single_trial,
    sweep_column_consistency,
    sweep_values,
)


class TestDirectionSweep:
    def test_spec_cells(self):
        model = fixture_model("threebus-dc")
        # second row against the (0, 1) direction
        s, q = sweep_values(model, SWEEP_DIRECTIONS[1])
        assert q[1] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(23.0, abs=1e-12)
        # first row is orthogonal to the (0.707, 0.707) direction by construction
        _, q0 = sweep_values(model, SWEEP_DIRECTIONS[0])
        assert q0[0] == pytest.approx(0.0, abs=1e-12)
        # last row against the (-0.707, 0.707) direction; the printed cell
        # 3.182 carries the documented decimal shift
        s4, q4 = sweep_values(model, SWEEP_DIRECTIONS[4])
        assert q4[6] == pytest.approx(0.0, abs=1e-12)
        assert s4[6] == pytest.approx(31.8198, abs=1e-3)

    def test_reproduction_passes(self):
        result = reproduce_table4()
        assert result.passed
        assert not result.mismatches()

    def test_errata_are_exactly_the_documented_set(self):
        result = reproduce_table4()
        assert sorted(result.errata_applied) == sorted(SWEEP_ERRATA.keys())
        assert len(SWEEP_ERRATA) == 9

    def test_misprint_demonstrated_by_sum_identity(self):
        # Within a column, q_j must equal the column's s-total minus s_j.
        # The first four printed columns satisfy it to rounding; the last
        # breaks it badly, and the errata-corrected values restore it.
        violations = [sweep_column_consistency(SWEEP_PRINTED[k]) for k in range(5)]
        assert max(violations[:4]) <= 0.05
        assert violations[4] > 1.0
        result = reproduce_table4()
        assert max(result.corrected_consistency) <= 0.05


class TestPsReproduction:
    def test_passes(self):
        result = reproduce_table2()
        assert result.passed
        assert result.computed_flagged == (0, 5)

    def test_reference_dof_pattern(self):
        result = reproduce_table2()
        assert list(result.computed_dof) == [2, 1, 1, 1, 1, 2, 2]


@pytest.fixture(scope="module")
def result():
    return reproduce_table1()


class TestIeee14Reproduction:
    def test_passes(self, result):
        assert result.passed

    def test_no_strict_disagreements(self, result):
        assert result.strict_false_positives == []
        assert result.strict_false_negatives == []
        assert result.non_tie_boundaries == []

    def test_agreement_levels(self, result):
        assert result.agreement_tie_aware >= 0.9
        assert result.agreement_strict >= 0.9
        # The conservative count (every tie flagged) is reported as well and
        # is expected to sit below the strict count on this model.
        assert 0.0 < result.agreement_conservative <= result.agreement_tie_aware

    def test_boundary_case_on_the_radial_line(self, result):
        by_label = {r.label: r for r in result.rows}
        assert by_label["P_flow7-8"].merged_ours in ("leverage", "boundary")
        assert by_label["P_flow7-8"].exact_tie or by_label["P_flow7-8"].merged_ours == "leverage"

    def test_radial_reactive_pair_not_leverage(self, result):
        by_label = {r.label: r for r in result.rows}
        for label in ("Q_inj8", "Q_flow7-8"):
            assert by_label[label].merged_ours != "leverage"

    def test_data_independence(self, result):
        assert result.data_independent

    def test_voltage_pair_consistency_note(self, result):
        assert any("|V8|" in note for note in result.report.consistency_notes)


class TestMonteCarlo:
    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_monte_carlo(50, 99, csv_path=a)
        run_monte_carlo(50, 99, csv_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_row_is_clean(self):
        # A zero extra row has q = 0 on every basis: no witness, margin -inf,
        # and the fit ignores its gross error.
        base = fixture_model("threebus-dc")
        for theta in (np.zeros(2), np.array([0.3, -1.2])):
            rec = single_trial(base, np.zeros(2), theta)
            assert not rec.detector_flagged
            assert not rec.lav_deviated
            assert rec.s_q_margin == -math.inf
            assert not rec.near_boundary

    def test_strong_in_distribution_row_flags_and_deviates(self):
        base = fixture_model("threebus-dc")
        rec = single_trial(base, np.array([30.0, -30.0]), np.zeros(2))
        assert rec.detector_flagged and rec.lav_deviated

    def test_huge_row_flags_but_state_shift_is_small(self):
        # A very large collinear row is a leverage point, yet satisfying its
        # 10 p.u. error needs only a ~10/|h.v| state move, which lands below
        # the 0.1 deviation threshold; the bias is still nonzero.
        base = fixture_model("threebus-dc")
        extra = np.array([1000.0, -1000.0])
        theta = np.zeros(2)
        rec = single_trial(base, extra, theta)
        assert rec.detector_flagged
        assert not rec.lav_deviated
        from lavse import solve_lav
        h_aug = np.vstack([base.h, extra])
        z = h_aug @ theta
        z[-1] += GROSS_ERROR
        aug = MeasurementModel(h_aug, z, base.labels + ("x",))
        sol = solve_lav(aug)
        assert 1e-4 < np.max(np.abs(sol.theta_hat - theta)) < DEVIATION_TOL

    def test_negation_symmetry(self):
        base = fixture_model("threebus-dc")
        rng = np.random.default_rng(123)
        for _ in range(50):
            extra = rng.normal(0, math.sqrt(30.0), size=2)
            theta = rng.normal(size=2)
            a = single_trial(base, extra, theta)
            b = single_trial(base, -extra, theta)
            assert a.detector_flagged == b.detector_flagged
            assert a.lav_deviated == b.lav_deviated
            assert a.s_q_margin == pytest.approx(b.s_q_margin, abs=1e-9)

    def test_batched_trials_equal_one_by_one(self, monkeypatch):
        # run_monte_carlo runs its trials' leverage fits as one stack and
        # their LAV fits as another; each record must be bitwise the one
        # single_trial gives.  A zero extra row gets margin -inf and no fit.
        base = fixture_model("threebus-dc")
        rng = np.random.default_rng(99)
        draws = [(rng.normal(0.0, math.sqrt(ROW_VARIANCE), size=base.n),
                  rng.normal(0.0, math.sqrt(STATE_VARIANCE), size=base.n)) for _ in range(50)]
        calls = []

        def counted(module):
            fit = module.simplex

            def run(h, z):
                calls.append((module.__name__, h.shape[0]))
                return fit(h, z)
            return run

        for module in (leverage, experiments):  # experiments runs the LAV fits itself
            monkeypatch.setattr(module, "simplex", counted(module))

        def bits(records):
            return [(r.extra_row.tobytes(), r.detector_flagged, r.lav_deviated,
                     float(r.s_q_margin).hex(), r.near_boundary) for r in records]

        alone = [single_trial(base, extra, theta) for extra, theta in draws]
        assert bits(run_monte_carlo(50, 99)) == bits(alone)
        calls.clear()
        monkeypatch.setattr(experiments, "_MC_STACK", 20)  # stacks of 20, 20 and 10 trials
        assert bits(run_monte_carlo(50, 99)) == bits(alone)
        assert calls == [(module, size) for size in (20, 20, 10)
                         for module in ("lavse.leverage", "lavse.experiments")]
        zero = (np.zeros(base.n), np.array([0.3, -1.2]))
        calls.clear()
        mixed = _trials(base, *zip(*draws[:7], zero, *draws[7:]))
        assert calls == [("lavse.leverage", 50), ("lavse.experiments", 51)]
        assert bits(mixed) == bits(alone[:7] + [single_trial(base, *zero)] + alone[7:])
        assert mixed[7].s_q_margin == -math.inf and not mixed[7].detector_flagged

    def test_trials_share_one_rank_check(self, monkeypatch):
        # Appending a row cannot lower the column rank, so only the base
        # matrix is checked: one SVD for the whole study, not one per trial.
        svds = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or real_svd(*a, **k))
        run_monte_carlo(50, 99)
        assert len(svds) == 1

    @pytest.mark.parametrize("extra_row, theta, error", [
        pytest.param(np.ones(3), np.zeros(2), DimensionMismatch, id="long-row"),
        pytest.param(np.ones(1), np.zeros(2), DimensionMismatch, id="short-row"),
        pytest.param(np.ones(2), np.zeros(3), DimensionMismatch, id="long-state"),
        pytest.param(np.array([np.nan, 1.0]), np.zeros(2), NonFinite, id="nan-row"),
        pytest.param(np.array([1.0, np.inf]), np.zeros(2), NonFinite, id="inf-row"),
        pytest.param(np.ones(2), np.array([0.0, np.nan]), NonFinite, id="nan-state"),
        pytest.param(np.zeros(2), np.array([np.inf, 0.0]), NonFinite, id="inf-state"),  # 0 * inf
    ])
    def test_bad_trial_inputs_rejected(self, extra_row, theta, error):
        with pytest.raises(error):
            single_trial(fixture_model("threebus-dc"), extra_row, theta)

    def test_agreement_smoke(self):
        result = reproduce_mc(trials=300, seed=7)
        assert result.passed
        assert result.agreement >= 0.95

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "mc.csv"
        run_monte_carlo(3, 1, csv_path=path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# trials=3 seed=1 ")
        assert lines[1] == "h81,h82,flagged,deviated,margin"
        assert len(lines) == 5

    def test_agreement_rate_ignores_band(self):
        result = reproduce_mc(trials=200, seed=5)
        eligible = [r for r in result.records if not r.near_boundary]
        manual = sum(r.detector_flagged == r.lav_deviated for r in eligible) / len(eligible)
        assert result.eligible == len(eligible) < 200
        assert result.agreement == pytest.approx(manual)


def test_traced_names_stay_importable():
    # bench/spans.py wraps each of these attributes where its caller looks it up.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for targets, _ in spans.LAYERS.values():
        for target in targets:
            module, attr = target.split(".")
            assert callable(getattr(importlib.import_module(f"lavse.{module}"), attr)), target
