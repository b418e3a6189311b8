"""Projection statistics and the chi-square quantile."""

import math

import numpy as np
import pytest

from lavse import InvalidArgument, MeasurementModel, chi2_quantile, compute_ps

from test_meshes import mesh_model
from test_model import three_bus_model


def model_of(h):
    h = np.asarray(h, dtype=float)
    return MeasurementModel(h, np.zeros(h.shape[0]), tuple(f"r{i}" for i in range(h.shape[0])))


def ps_reference(h):
    """compute_ps as one direction at a time: (ps, cutoff, used, skipped)."""
    m = h.shape[0]
    center = np.median(h, axis=0)
    directions = h - center
    norms = np.linalg.norm(directions, axis=1)
    scale = norms.max()
    best = np.zeros(m)
    used = 0
    skipped = 0
    for k in range(m):
        if scale == 0.0 or norms[k] <= scale * 1e-12:
            skipped += 1
            continue
        u = directions[k] / norms[k]
        proj = h @ u
        med = np.median(proj)
        dev = np.abs(proj - med)
        mad = np.median(dev)
        if mad <= np.abs(proj).max() * 1e-12:
            skipped += 1
            continue
        used += 1
        np.maximum(best, dev / (1.4826 * mad), out=best)
    cutoff = np.array([chi2_quantile(int(d)) for d in np.count_nonzero(h, axis=1)])
    return best**2, cutoff, used, skipped


def random_models(seed, count):
    """Gaussian, small-integer and sparse matrices, each row with a nonzero entry."""
    rng = np.random.default_rng(seed)
    for kind in ("gaussian", "integer", "sparse"):
        for _ in range(count):
            m = int(rng.integers(2, 80))
            n = int(rng.integers(1, min(m, 10) + 1))
            if kind == "gaussian":
                h = rng.normal(size=(m, n))
            elif kind == "integer":
                h = rng.integers(-3, 4, size=(m, n)).astype(float)
            else:
                h = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.25)
            zero = ~h.any(axis=1)
            h[zero, rng.integers(0, n, zero.sum())] = 1.0
            yield h


class TestChi2Quantile:
    def test_two_dof_closed_form(self):
        # d = 2 has the closed form -2 ln(1 - 0.975): an independent cross-check.
        assert chi2_quantile(2) == pytest.approx(-2.0 * math.log(1.0 - 0.975), abs=1e-10)

    def test_reference_values(self):
        # Standard table values.
        assert chi2_quantile(1) == pytest.approx(5.02389, abs=1e-3)
        assert chi2_quantile(2) == pytest.approx(7.37776, abs=1e-3)
        assert chi2_quantile(3) == pytest.approx(9.34840, abs=1e-3)
        assert chi2_quantile(5) == pytest.approx(12.8325, abs=1e-3)
        assert chi2_quantile(10) == pytest.approx(20.4832, abs=1e-3)

    def test_monotone_in_d(self):
        values = [chi2_quantile(d) for d in range(1, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_scipy_inverse_gamma(self):
        # scipy.special.gammaincinv, which this implementation replaced: on
        # this grid both are within 25 ulps of 40-digit mpmath values.
        from scipy import special

        dofs = np.arange(1, 201)
        expect = 2.0 * special.gammaincinv(dofs / 2.0, 0.975)
        got = np.array([chi2_quantile(int(d)) for d in dofs])
        assert np.max(np.abs(got - expect) / expect) <= 1e-13

    def test_invalid_arguments(self):
        for d in (0, -1, 2.0, True):
            with pytest.raises(InvalidArgument):
                chi2_quantile(d)


class TestComputePs:
    def test_hand_computed_three_row_case(self):
        # Hand evaluation: center = (1, 1); usable directions (0,-1), (-1,0)
        # (the third has zero MAD).  Worst standardized deviations are
        # 1/1.4826 for the small rows and 99/1.4826 for the big one.
        report = compute_ps(model_of([[1, 0], [0, 1], [100, 100]]))
        expect = np.array([(1 / 1.4826) ** 2, (1 / 1.4826) ** 2, (99 / 1.4826) ** 2])
        assert np.allclose(report.ps, expect, rtol=1e-10)
        assert list(report.dof) == [1, 1, 2]
        assert list(report.flagged) == [False, False, True]
        assert report.directions_skipped == 1

    def test_three_bus_classification(self):
        report = compute_ps(three_bus_model())
        assert list(np.flatnonzero(report.flagged)) == [0, 5]
        assert list(report.dof) == [2, 1, 1, 1, 1, 2, 2]
        assert np.allclose(np.round(report.cutoff, 3),
                           [7.378, 5.024, 5.024, 5.024, 5.024, 7.378, 7.378])

    def test_three_bus_hand_values(self):
        # Worst direction for the two heavy rows is row6 - center = (11, -9):
        # projections onto it have median 9 and MAD 18.
        report = compute_ps(three_bus_model())
        assert report.ps[0] == pytest.approx((191 / (18 * 1.4826)) ** 2, rel=1e-10)
        assert report.ps[5] == pytest.approx((202 / (18 * 1.4826)) ** 2, rel=1e-10)

    def test_scaling_h_keeps_flags_and_directions(self):
        # The MAD guard is relative to the projections, so tiny units of H
        # skip no direction that unit-scale H uses.
        a = compute_ps(three_bus_model())
        b = compute_ps(model_of(1e-12 * three_bus_model().h))
        assert np.array_equal(a.flagged, b.flagged)
        assert a.directions_used == b.directions_used == 6

    def test_identical_rows_degenerate(self):
        report = compute_ps(model_of([[1, 1]] * 5))
        assert report.degenerate
        assert np.all(np.isnan(report.ps))
        assert not report.flagged.any()
        assert report.directions_used == 0

    def test_flag_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m, n = int(rng.integers(3, 9)), int(rng.integers(1, 4))
            report = compute_ps(model_of(rng.normal(size=(m, n))))
            if report.degenerate:
                continue
            assert np.array_equal(report.flagged, report.ps > report.cutoff)
            assert np.all(report.ps >= 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        a = compute_ps(model_of(h))
        b = compute_ps(model_of(h[perm]))
        assert np.allclose(b.ps, a.ps[perm], rtol=1e-12)

    def test_signed_permutation_invariance(self):
        # The coordinatewise-median centering is equivariant under signed
        # coordinate permutations (not general rotations), and the
        # standardization is scale-free, so ps survives both transforms.
        rng = np.random.default_rng(9)
        h = rng.normal(size=(9, 3))
        perm = rng.permutation(3)
        signs = np.diag([1.0, -1.0, 1.0])
        q = np.eye(3)[:, perm] @ signs
        a = compute_ps(model_of(h))
        b = compute_ps(model_of(h @ q))
        c = compute_ps(model_of(3.7 * h))
        assert np.allclose(a.ps, b.ps, atol=1e-9)
        assert np.allclose(a.ps, c.ps, atol=1e-9)

    def test_blocked_directions_match_one_at_a_time(self):
        # The block's matrix product rounds differently from one
        # matrix-vector product per direction; the counts, flags and
        # degeneracy must still agree exactly.
        degenerate = 0
        for h in [*random_models(11, 120), mesh_model(10, 1).h]:
            report = compute_ps(model_of(h))
            ps, cutoff, used, skipped = ps_reference(h)
            assert (report.directions_used, report.directions_skipped) == (used, skipped)
            assert report.degenerate == (used == 0)
            assert np.array_equal(report.cutoff, cutoff)
            if used == 0:
                degenerate += 1
                continue
            assert np.array_equal(report.flagged, ps > cutoff)
            assert np.allclose(report.ps, ps, rtol=1e-12, atol=0.0)
        assert 0 < degenerate < 60  # both outcomes are exercised

    def test_all_zero_row_is_named(self):
        with pytest.raises(InvalidArgument, match="'r1'"):
            compute_ps(model_of([[1, 0], [0, 0], [0, 1]]))

    def test_needs_two_rows(self):
        with pytest.raises(InvalidArgument):
            compute_ps(MeasurementModel(np.ones((1, 1)), [0.0], ("a",)))
