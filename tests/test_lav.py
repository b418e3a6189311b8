"""Absolute-value estimation: simplex solver against the vertex oracle."""

import numpy as np
import pytest

from lavse import (
    DimensionMismatch,
    MaxIterations,
    MeasurementModel,
    RankDeficient,
    matrix_rank,
    objective_at,
    solve_lav,
)
from lavse import lav
from lavse.lav import simplex

from oracles import TooLarge, lav_vertex_oracle
from test_model import THREE_BUS_H, three_bus_model


def random_model(rng, n_hi, m_hi_factor=3):
    n = int(rng.integers(1, n_hi + 1))
    m = int(rng.integers(n, m_hi_factor * n + 1))
    while True:
        h = rng.normal(size=(m, n))
        if matrix_rank(h) == n:
            break
    z = rng.normal(size=m)
    return MeasurementModel(h, z, tuple(f"r{i}" for i in range(m)))


class TestSolveLav:
    def test_exactly_determined(self):
        model = MeasurementModel(np.eye(2), [3.0, 5.0], ("a", "b"))
        sol = solve_lav(model)
        assert np.allclose(sol.theta_hat, [3.0, 5.0], atol=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert sol.zero_set == (0, 1)

    def test_scalar_median(self):
        model = MeasurementModel(np.ones((3, 1)), [0.0, 0.0, 10.0], ("a", "b", "c"))
        sol = solve_lav(model)
        assert sol.theta_hat[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.objective == pytest.approx(10.0, abs=1e-12)
        assert sol.zero_set == (0, 1)

    @pytest.mark.parametrize("c", [1e-10, 1e10])
    def test_scaled_measurements_scale_the_fit(self, c):
        model = MeasurementModel(np.ones((3, 1)), [c * 1.0, c * 2.0, c * 9.0], ("a", "b", "c"))
        sol = solve_lav(model)
        assert sol.theta_hat[0] == pytest.approx(c * 2.0, rel=1e-12)
        assert sol.objective == pytest.approx(c * 8.0, rel=1e-12)
        assert sol.zero_set == (1,)

    def test_solution_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            model = random_model(rng, 5)
            sol = solve_lav(model)
            assert np.max(np.abs(sol.residuals - (model.z - model.h @ sol.theta_hat))) < 1e-10
            assert abs(sol.objective - np.abs(sol.residuals).sum()) < 1e-10
            assert len(sol.zero_set) >= model.n

    def test_degenerate_flag_set_on_flat_optimum(self):
        # Two identical rows, different z: any state between them is optimal.
        model = MeasurementModel(np.ones((2, 1)), [0.0, 1.0], ("a", "b"))
        assert solve_lav(model).degenerate

    def test_degenerate_flag_clear_on_unique_optimum(self):
        model = MeasurementModel(np.eye(2), [3.0, 5.0], ("a", "b"))
        assert not solve_lav(model).degenerate

    def test_max_iterations(self, monkeypatch):
        # The start basis fits one row; the median of z needs a pivot.
        model = MeasurementModel(np.ones((3, 1)), [10.0, 0.0, 0.0], ("a", "b", "c"))
        monkeypatch.setattr(lav, "_MAX_PIVOTS", 0)
        monkeypatch.setattr(lav, "_MAX_PIVOTS_PER_DIM", 0)
        with pytest.raises(MaxIterations):
            solve_lav(model)

    def test_rank_deficient_rejected(self):
        model = MeasurementModel(
            np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]), np.zeros(3), ("a", "b", "c")
        )
        with pytest.raises(RankDeficient):
            solve_lav(model)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = random_model(rng, 4)
            delta = rng.normal(size=model.n)
            base = solve_lav(model)
            shifted = solve_lav(model.with_z(model.z + model.h @ delta))
            assert np.max(np.abs(shifted.theta_hat - (base.theta_hat + delta))) < 1e-8
            assert np.max(np.abs(shifted.residuals - base.residuals)) < 1e-8


class TestVertexOracle:
    def test_matches_exactly_determined(self):
        model = MeasurementModel(np.eye(2), [3.0, 5.0], ("a", "b"))
        sol = lav_vertex_oracle(model)
        assert np.allclose(sol.theta_hat, [3.0, 5.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_consistent_measurements_recovered(self):
        theta = np.array([0.1, -0.2])
        model = MeasurementModel(THREE_BUS_H, THREE_BUS_H @ theta,
                                 tuple(f"m{i}" for i in range(7)))
        sol = lav_vertex_oracle(model)
        assert np.allclose(sol.theta_hat, theta, atol=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-10)

    def test_tie_detection(self):
        model = MeasurementModel(np.ones((2, 1)), [0.0, 1.0], ("a", "b"))
        sol = lav_vertex_oracle(model)
        assert sol.degenerate
        assert sol.theta_hat[0] == pytest.approx(0.0)  # lexicographically first subset

    def test_ties_scale_with_z(self):
        # Objectives 8e-10 and 9e-10 differ by less than 1e-9: only a tolerance
        # relative to |z| keeps them apart.
        model = MeasurementModel(np.ones((3, 1)), 1e-10 * np.array([1.0, 2.0, 9.0]),
                                 ("a", "b", "c"))
        sol = lav_vertex_oracle(model)
        assert sol.theta_hat[0] == pytest.approx(2e-10, rel=1e-12)
        assert sol.objective == pytest.approx(8e-10, rel=1e-12)
        assert not sol.degenerate

    def test_guard(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(21, 2))
        model = MeasurementModel(h, np.zeros(21), tuple(f"r{i}" for i in range(21)))
        with pytest.raises(TooLarge):
            lav_vertex_oracle(model)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 11))
            while True:
                h = rng.normal(size=(m, n))
                if matrix_rank(h) == n:
                    break
            model = MeasurementModel(h, rng.normal(size=m), tuple(f"r{i}" for i in range(m)))
            a = solve_lav(model)
            b = lav_vertex_oracle(model)
            assert abs(a.objective - b.objective) < 1e-9


class TestObjectiveAt:
    def test_consistency_with_solver(self):
        model = three_bus_model().with_z(np.arange(7.0))
        sol = solve_lav(model)
        assert objective_at(model, sol.theta_hat) == pytest.approx(sol.objective, abs=1e-12)

    def test_zero_everything(self):
        assert objective_at(three_bus_model(), np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            objective_at(three_bus_model(), np.zeros(3))

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            model = random_model(rng, 5)
            t1 = rng.normal(size=model.n)
            t2 = rng.normal(size=model.n)
            mid = objective_at(model, 0.5 * (t1 + t2))
            assert mid <= 0.5 * (objective_at(model, t1) + objective_at(model, t2)) + 1e-12


def test_theorem_zero_set_property():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 3 * n + 1))
        while True:
            h = rng.normal(size=(m, n))
            if matrix_rank(h) == n:
                break
        model = MeasurementModel(h, rng.normal(size=m), tuple(f"r{i}" for i in range(m)))
        sol = solve_lav(model)
        assert len(sol.zero_set) >= n


def test_stack_gives_each_fit_its_solo_result(monkeypatch):
    # The fits of a stack leave it at different pivots, some at the start
    # (a consistent z); each must end exactly as it does alone.  At a bound
    # of 1e-16 some fits drift past it and re-invert their basis while
    # others of their stack do not: a fit's inverses must not depend on its
    # stack either.
    inverted = []  # the matrices of each np.linalg.inv call
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a))
    default = lav._CONSISTENT_TOL
    for tol in (default, 1e-16):
        monkeypatch.setattr(lav, "_CONSISTENT_TOL", tol)
        rng = np.random.default_rng(8)
        mixed = 0  # stacks in which some fits re-invert and others do not
        degenerate = 0  # fits whose solve_lav flags an alternative optimum
        for _ in range(60):
            fits = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 4 * n + 2))
            h = rng.integers(-3, 4, size=(fits, m, n)).astype(float)
            h[:, :n] += 5 * np.eye(n)  # full column rank
            z = rng.normal(size=(fits, m))
            consistent = rng.random(fits) < 0.3
            z[consistent] = (h[consistent] @ rng.normal(size=(n, 1)))[..., 0]
            inverted.clear()
            fit = simplex(h, z)
            together, alone_inverted = sum(inverted), []
            for f in range(fits):
                inverted.clear()
                alone = simplex(h[f:f + 1], z[f:f + 1])
                alone_inverted.append(sum(inverted))
                for name in ("theta", "basis", "pivots", "duals"):
                    assert getattr(fit, name)[f].tobytes() == getattr(alone, name)[0].tobytes(), name
                if consistent[f] and tol == default:
                    assert fit.pivots[f] == 0
                    assert not fit.duals[f].any()
                if tol == default:  # solve_lav fits a stack of one and reads its flag off the duals
                    sol = solve_lav(MeasurementModel(h[f], z[f], tuple(map(str, range(m)))))
                    assert sol.theta_hat.tobytes() == fit.theta[f].tobytes()
                    assert sol.degenerate == (np.abs(fit.duals[f]) >= 1 - lav._OPT_TOL).any()
                    degenerate += sol.degenerate
            assert together == sum(alone_inverted)
            mixed += max(alone_inverted) > 1 and 1 in alone_inverted
        # At the default bound no fit here ever needs a second inverse.
        assert mixed > 0 if tol < default else mixed == 0
        if tol == default:  # some of these fits have alternative optima
            assert degenerate > 0
