"""Leverage detection: witnesses, reports, partitioning, combinatorics."""

import numpy as np
import pytest

from lavse import (
    BOUNDARY,
    CLEAN,
    EmptyPartition,
    IndexOutOfRange,
    InvalidArgument,
    LEVERAGE,
    MeasurementModel,
    Partition,
    RankDeficient,
    combination_count,
    detect_all,
    detect_partitioned,
    detect_row,
    leverage_margin,
    leverage_oracle,
    matrix_rank,
    partitions_from_dict,
    resolve_partition,
    save_model,
    solve_lav,
)
from lavse import cli
from lavse.leverage import classify

from test_model import three_bus_model


def model_of(h, labels=None):
    h = np.asarray(h, dtype=float)
    labels = labels or tuple(f"r{i}" for i in range(h.shape[0]))
    return MeasurementModel(h, np.zeros(h.shape[0]), labels)


def random_full_rank(rng, n_lo=2, n_hi=4):
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(n, 3 * n + 1))
    while True:
        h = rng.normal(size=(m, n))
        if matrix_rank(h) == n:
            return model_of(h)


class TestCombinationCount:
    def test_reference_case(self):
        assert f"{combination_count(43, 27):.4e}" == "1.6651e+11"

    def test_small(self):
        assert combination_count(7, 2) == 6

    def test_square(self):
        assert combination_count(5, 5) == 1

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            combination_count(3, 4)
        with pytest.raises(InvalidArgument):
            combination_count(3, 0)


class TestDetectRow:
    def test_dominant_row(self):
        model = model_of([[1, 0], [0, 1], [100, 100]])
        w = detect_row(model, 2)
        assert w is not None
        assert w.basis == (0,)
        assert np.allclose(w.v, [0.0, 1.0])
        assert w.s == pytest.approx(1.0, abs=1e-12)
        assert w.q == pytest.approx(100.0, abs=1e-12)
        assert classify(w) == LEVERAGE

    def test_three_bus_first_row_clean(self):
        model = three_bus_model()
        assert detect_row(model, 0) is None

    def test_three_bus_all_clean(self):
        model = three_bus_model()
        for j in range(model.m):
            assert detect_row(model, j) is None

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            detect_row(three_bus_model(), 7)

    def test_single_state_dominant_weight(self):
        # Scalar model: a row dominates when its coefficient outweighs the rest.
        model = model_of([[1.0], [1.0], [5.0]])
        w = detect_row(model, 2)
        assert w is not None and w.basis == () and w.q == pytest.approx(5.0)
        assert w.s == pytest.approx(2.0)
        assert detect_row(model, 0) is None

    def test_best_basis_decides_not_first_qualifying(self):
        # Basis (2,) is an exact tie (s = q) and comes first; basis (3,) has
        # margin 0.25.  Grading the best basis makes the row strict leverage.
        model = model_of([[2, 1], [0, -1], [-1, -2], [-2, -2], [-2, 2]])
        w = detect_row(model, 4)
        assert w is not None and w.basis == (3,)
        assert w.margin() == pytest.approx(0.25, abs=1e-12)
        assert detect_all(model).verdicts[4] == LEVERAGE


class TestDuplicatedRows:
    """Duplicated rows make ties; the unpaired row is a genuine leverage point."""

    def test_verdicts(self):
        model = model_of([[1, 0], [1, 0], [0, 1]])
        rep = detect_all(model)
        assert rep.verdicts == [BOUNDARY, BOUNDARY, LEVERAGE]

    def test_estimation_confirms_leverage(self):
        # The only row measuring the second state: a gross error on it passes
        # straight into the estimate, which is what the flag predicts.
        h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = MeasurementModel(h, [0.0, 0.0, 10.0], ("a", "b", "c"))
        sol = solve_lav(model)
        assert sol.theta_hat[1] == pytest.approx(10.0, abs=1e-10)

    def test_boundary_rows_are_exact_ties(self):
        model = model_of([[1, 0], [1, 0], [0, 1]])
        rep = detect_all(model)
        for j in (0, 1):
            w = rep.witnesses[j]
            assert abs(w.s - w.q) < 1e-12


class TestDetectAll:
    def test_three_bus_clean_and_exhaustive(self):
        # The exhaustive enumeration of all 42 bases agrees with the fits.
        model = three_bus_model()
        rep = detect_all(model)
        assert rep.verdicts == [CLEAN] * 7
        assert rep.verdicts == [classify(leverage_oracle(model, j)[1]) for j in range(7)]
        assert rep.combos_skipped_degenerate == 0

    def test_witness_validity(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(50):
            model = random_full_rank(rng)
            rep = detect_all(model)
            for j, w in rep.witnesses.items():
                proj = np.abs(model.h @ w.v)
                s = proj.sum() - proj[j]
                assert abs(np.linalg.norm(w.v) - 1.0) < 1e-12
                assert np.max(np.abs(model.h[list(w.basis)] @ w.v)) < 1e-10
                assert s == pytest.approx(w.s, abs=1e-12)
                assert proj[j] == pytest.approx(w.q, abs=1e-12)
                checked += 1
        assert checked > 0

    def test_data_independence(self):
        rng = np.random.default_rng(19)
        model = random_full_rank(rng)
        corrupted = model.with_z(model.z + rng.normal(size=model.m) * 100)
        r1 = detect_all(model)
        r2 = detect_all(corrupted)
        assert r1.verdicts == r2.verdicts
        assert r1.combos_examined == r2.combos_examined
        assert set(r1.witnesses) == set(r2.witnesses)
        for j in r1.witnesses:
            assert r1.witnesses[j].basis == r2.witnesses[j].basis
            assert r1.witnesses[j].v.tobytes() == r2.witnesses[j].v.tobytes()

    def test_decomposition_matches_whole_model_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            m1, m2 = int(rng.integers(n1, 3 * n1 + 1)), int(rng.integers(n2, 3 * n2 + 1))
            a = rng.normal(size=(m1, n1))
            b = rng.normal(size=(m2, n2))
            if matrix_rank(a) < n1 or matrix_rank(b) < n2:
                continue
            h = np.zeros((m1 + m2, n1 + n2))
            h[:m1, :n1] = a
            h[m1:, n1:] = b
            model = model_of(h)
            merged = detect_all(model).verdicts
            naive = [classify(leverage_margin(model, j)[1]) for j in range(model.m)]
            blocks = detect_all(model_of(a)).verdicts + detect_all(model_of(b)).verdicts
            assert merged == naive == blocks

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        # detect --threads is accepted for old callers and ignored.
        path = tmp_path / "m.json"
        save_model(model_of([[1, 0], [0, 1], [100, 100]]), path)
        outputs = []
        for extra in ([], ["--threads", "4"]):
            assert cli.main(["detect", str(path), "--format", "json", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_scaling_own_row_keeps_leverage(self):
        # Scaling row j up scales its q while leaving its s untouched, so a
        # leverage verdict on the scaled row itself can never revert to clean.
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(40):
            model = random_full_rank(rng)
            base = detect_all(model).verdicts
            for c in (1.0, 2.0, 10.0):
                for j in range(model.m):
                    if base[j] != LEVERAGE:
                        continue
                    h2 = np.array(model.h)
                    h2[j] *= c
                    after = detect_all(model_of(h2)).verdicts
                    assert after[j] != CLEAN
                    checked += 1
        assert checked > 0


class TestLeverageMargin:
    def test_sign_agrees_with_flag(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            model = random_full_rank(rng)
            for j in range(model.m):
                margin, witness = leverage_margin(model, j)
                if margin > 1e-6:
                    assert witness is not None
                elif margin < -1e-6:
                    assert witness is None

    def test_dominant_row_margin(self):
        margin, witness = leverage_margin(model_of([[1, 0], [0, 1], [100, 100]]), 2)
        assert margin == pytest.approx(0.99, abs=1e-9)  # (100 - 1) / 100
        assert witness is not None

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            leverage_margin(three_bus_model(), -1)

    def test_zero_row_has_no_witness(self):
        model = model_of([[1, 0], [0, 1], [0, 0], [1, 1]])
        assert leverage_margin(model, 2) == (-np.inf, None)
        assert leverage_oracle(model, 2) == (-np.inf, None)
        assert detect_all(model).verdicts[2] == CLEAN


class TestPartitions:
    def test_single_partition_matches_detect_all(self):
        model = three_bus_model()
        whole = Partition("all", tuple(range(7)))
        rep = detect_partitioned(model, [whole])
        assert rep.partition_reports[0][1].verdicts == detect_all(model).verdicts
        assert rep.merged_verdicts == {lab: CLEAN for lab in model.labels}
        assert rep.unanalyzed == ()

    def test_block_diagonal_two_partitions(self):
        # Disjoint-state partitions of a block-diagonal model reproduce the
        # union of the per-block results.
        h = np.zeros((6, 3))
        h[:3, :2] = [[1, 0], [0, 1], [100, 100]]
        h[3:, 2] = [1, 1, 1]
        model = model_of(h)
        rep = detect_partitioned(
            model, [Partition("left", (0, 1, 2)), Partition("right", (3, 4, 5))]
        )
        left = detect_all(model_of(h[:3, :2])).verdicts
        right = detect_all(model_of(h[3:, 2:])).verdicts
        assert [rep.merged_verdicts[f"r{i}"] for i in range(6)] == left + right
        assert rep.merged_verdicts["r2"] == LEVERAGE
        assert rep.merged_verdicts["r3"] == CLEAN

    def test_empty_partition(self):
        with pytest.raises(EmptyPartition):
            detect_partitioned(three_bus_model(), [Partition("none", ())])

    def test_rank_deficient_partition_reported_with_name(self):
        # Both rows collinear: support columns cannot reach full rank even
        # after reference drops.
        model = model_of([[1, 1], [2, 2], [0, 1]])
        with pytest.raises(RankDeficient) as err:
            resolve_partition(model, Partition("bad", (0, 1)))
        assert "bad" in str(err.value)

    def test_floating_block_re_referenced(self):
        # Pure difference rows have no anchored column; resolution drops the
        # lowest-indexed column of the floating direction and records it.
        h = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
        model = model_of(h)
        part = resolve_partition(model, Partition("float", (0, 1, 2)))
        assert part.dropped_columns == (0,)
        assert part.state_columns == (1, 2)

    def test_two_floating_groups_re_referenced_independently(self):
        h = np.zeros((5, 4))
        h[0, :2] = [1.0, -1.0]
        h[1, :2] = [2.0, -2.0]
        h[2, 2:] = [1.0, -1.0]
        h[3, 2:] = [3.0, -3.0]
        h[4, 2:] = [1.0, -1.0]
        model = model_of(h)
        part = resolve_partition(model, Partition("floats", (0, 1, 2, 3, 4)))
        assert part.dropped_columns == (0, 2)
        assert part.state_columns == (1, 3)

    def test_conservative_merge_and_notes(self):
        # Same rows analyzed in two partitions with different companions can
        # classify differently; the merge keeps the stronger verdict.
        h = np.array([[1.0, 0.0], [0.0, 1.0], [100.0, 100.0], [100.0, 100.0]])
        model = model_of(h)
        rep = detect_partitioned(
            model,
            [Partition("with_twin", (0, 1, 2, 3)), Partition("alone", (0, 1, 2))],
        )
        assert rep.merged_verdicts["r2"] in (LEVERAGE, BOUNDARY)
        assert any("inconsistent" in note for note in rep.consistency_notes)

    def test_partition_parsing_labels_and_indices(self):
        model = three_bus_model()
        doc = {"partitions": [{"name": "p", "measurements": ["m0", 3, "m6"]}]}
        (part,) = partitions_from_dict(doc, model)
        assert part.measurement_indices == (0, 3, 6)
