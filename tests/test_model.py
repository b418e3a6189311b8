"""Core model container, rank/null-space primitives, projection matrix, I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lavse
from lavse import (
    DimensionMismatch,
    InvalidArgument,
    MeasurementModel,
    NonFinite,
    ParseError,
    RankDeficient,
    matrix_rank,
    projection_matrix,
    validate_model,
)
from lavse.model import dump_model, model_to_dict

from oracles import DegenerateBasis, nullspace_unit_vector
from test_meshes import _bench_inputs

THREE_BUS_H = np.array(
    [[10, -10], [1, 0], [-1, 0], [0, -1], [0, 1], [11, -10], [-1, -1]], dtype=float
)


def three_bus_model():
    return MeasurementModel(THREE_BUS_H, np.zeros(7), tuple(f"m{i}" for i in range(7)))


def random_full_rank(rng, n_lo=1, n_hi=6):
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(n, 3 * n + 1))
    while True:
        h = rng.normal(size=(m, n))
        if matrix_rank(h) == n:
            return MeasurementModel(h, rng.normal(size=m), tuple(f"r{i}" for i in range(m)))


class TestMeasurementModel:
    def test_identity_is_valid(self):
        model = MeasurementModel(np.eye(2), [1.0, 2.0], ("a", "b"))
        assert validate_model(model) is model

    def test_collinear_rows_rank_deficient(self):
        model = MeasurementModel(
            np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), np.zeros(3), ("a", "b", "c")
        )
        with pytest.raises(RankDeficient) as err:
            validate_model(model)
        assert err.value.rank == 1

    def test_three_bus_valid(self):
        assert validate_model(three_bus_model()).n == 2

    def test_rank_is_computed_once_per_model(self, monkeypatch):
        # leverage_margin then solve_lav on one model validate it twice;
        # its h is read-only, so one SVD serves.
        svds = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or real_svd(*a, **k))
        model = three_bus_model()
        lavse.leverage_margin(model, 0)
        lavse.solve_lav(model)
        assert validate_model(model) is model
        assert model.rank == 2
        assert len(svds) == 1
        with pytest.raises(RankDeficient):
            validate_model(model.with_z(np.ones(7)).submodel(range(7), [0, 0]))
        assert len(svds) == 2

    def test_more_states_than_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            MeasurementModel(np.ones((1, 2)), [0.0], ("a",))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            MeasurementModel(np.array([[np.nan], [1.0]]), [0.0, 0.0], ("a", "b"))
        with pytest.raises(NonFinite):
            MeasurementModel(np.ones((2, 1)), [np.inf, 0.0], ("a", "b"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidArgument):
            MeasurementModel(np.ones((2, 1)), [0.0, 0.0], ("a", "a"))

    def test_z_length_checked(self):
        with pytest.raises(DimensionMismatch):
            MeasurementModel(np.eye(2), [1.0], ("a", "b"))

    def test_arrays_immutable(self):
        model = three_bus_model()
        with pytest.raises(ValueError):
            model.h[0, 0] = 99.0


class TestRank:
    def test_identity(self):
        assert matrix_rank(np.eye(3)) == 3

    def test_three_bus(self):
        assert matrix_rank(THREE_BUS_H) == 2

    def test_zero_matrix(self):
        assert matrix_rank(np.zeros((3, 2))) == 0


class TestProjectionMatrix:
    def test_square_full_rank_gives_identity(self):
        model = MeasurementModel(np.eye(3) * 2.5, np.zeros(3), ("a", "b", "c"))
        diag = projection_matrix(model)
        assert np.allclose(diag.p, np.eye(3), atol=1e-12)
        assert np.allclose(diag.diag, 1.0)

    def test_single_column_uniform(self):
        model = MeasurementModel(np.ones((4, 1)), np.zeros(4), tuple("abcd"))
        diag = projection_matrix(model)
        assert np.allclose(diag.diag, 0.25, atol=1e-12)

    def test_three_bus_matches_explicit_inverse(self):
        # Independent route: the textbook closed form with an explicit inverse.
        model = three_bus_model()
        diag = projection_matrix(model)
        h = model.h
        explicit = h @ np.linalg.inv(h.T @ h) @ h.T
        assert np.allclose(diag.p, explicit, atol=1e-10)
        assert abs(np.trace(diag.p) - 2.0) < 1e-10
        assert np.all(diag.diag >= -1e-10) and np.all(diag.diag <= 1 + 1e-10)

    def test_invariants_over_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            model = random_full_rank(rng)
            d = projection_matrix(model)
            assert np.max(np.abs(d.p - d.p.T)) < 1e-10
            assert np.max(np.abs(d.p @ d.p - d.p)) < 1e-8
            assert np.all(d.diag >= -1e-10) and np.all(d.diag <= 1 + 1e-10)
            assert abs(np.trace(d.p) - model.n) < 1e-8

    def test_rank_deficient_rejected(self):
        model = MeasurementModel(
            np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]), np.zeros(3), ("a", "b", "c")
        )
        with pytest.raises(RankDeficient):
            projection_matrix(model)


class TestNullspaceUnitVector:
    def test_axis_aligned(self):
        assert np.allclose(nullspace_unit_vector(np.array([[1.0, 0.0]])), [0.0, 1.0])

    def test_diagonal_row(self):
        v = nullspace_unit_vector(np.array([[10.0, -10.0]]))
        assert np.allclose(v, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_degenerate_basis(self):
        with pytest.raises(DegenerateBasis):
            nullspace_unit_vector(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            nullspace_unit_vector(np.array([[1.0, 0.0, 0.0]]))

    def test_deterministic(self):
        rows = np.random.default_rng(3).normal(size=(3, 4))
        v1 = nullspace_unit_vector(rows)
        v2 = nullspace_unit_vector(rows)
        assert v1.tobytes() == v2.tobytes()

    def test_orthogonality_over_random_subsets(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n, 2 * n + 1))
            h = rng.normal(size=(m, n))
            idx = rng.choice(m, size=n - 1, replace=False)
            rows = h[idx]
            if matrix_rank(rows) < n - 1:
                continue
            v = nullspace_unit_vector(rows)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert np.max(np.abs(rows @ v)) < 1e-10
            lead = np.flatnonzero(np.abs(v) > 1e-9)[0]
            assert v[lead] > 0


class TestFileFormats:
    def test_model_json_round_trip(self, tmp_path):
        model = three_bus_model()
        path = tmp_path / "model.json"
        lavse.save_model(model, path)
        loaded = lavse.load_model(path)
        assert np.array_equal(loaded.h, model.h)
        assert np.array_equal(loaded.z, model.z)
        assert loaded.labels == model.labels
        text = path.read_text()  # one compact line with sorted keys
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_model_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["a"], "z": [1.0]}))
        with pytest.raises(ParseError):
            lavse.load_model(path)

    def test_model_ragged_h(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "H": [[1, 0], [1]], "z": [0, 0]}))
        with pytest.raises(ParseError):
            lavse.load_model(path)

    def test_matrix_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        lavse.save_matrix_csv(THREE_BUS_H, path)
        assert np.array_equal(lavse.load_matrix_csv(path), THREE_BUS_H)

    def test_matrix_csv_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            lavse.load_matrix_csv(path)


def expected_document(model):
    return json.dumps(model_to_dict(model), sort_keys=True, allow_nan=False) + "\n"


# Finite floats from the whole range, and the values at its ends.
EDGE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  1.79e308, -1.79e308, 1.7976931348623157e308]))


@st.composite
def sparse_models(draw):
    """Models with a random zero mask on H, with and without the optional fields."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 8))
    entries = draw(st.lists(EDGE_FLOATS, min_size=m * n, max_size=m * n))
    zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=m * n, max_size=m * n))
    h = np.array([x if zero is None else zero for x, zero in zip(entries, zeros)]).reshape(m, n)
    labels = draw(st.lists(st.text(max_size=3), min_size=m, max_size=m, unique=True))
    states = draw(st.none() | st.lists(EDGE_FLOATS, min_size=n, max_size=n))
    state_labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n))
    z = draw(st.lists(EDGE_FLOATS, min_size=m, max_size=m))
    return MeasurementModel(h, z, labels, states, state_labels)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_models())
def test_model_writer_is_byte_identical_to_json_dumps(model):
    assert dump_model(model) == expected_document(model)


def test_model_writer_on_fixtures_and_bench_mesh(tmp_path):
    [mesh] = _bench_inputs().write_instances(tmp_path, 1, [(10, True)])
    models = [lavse.fixture_model(name) for name in lavse.power.FIXTURES]
    models += [lavse.load_model(mesh.model), lavse.build_dc_model(lavse.load_network(mesh.network)),
               MeasurementModel([[-0.0, 1.0], [0.0, -0.0]], [0.0, -0.0], ("P_\u00fc1", "\u03b8"))]
    for model in models:
        assert dump_model(model) == expected_document(model)
