"""Brute-force references for the LAV fit, the leverage test and projection statistics.

Two enumerate candidate bases: ``lav_vertex_oracle`` solves every square
subsystem of the fit, and ``leverage_oracle`` grades all C(M-1, N-1) bases
of a row's inequality test.  That count is what the package avoids, so
these live with the tests, guarded to small sizes, as the exact answers
the simplex fits are checked against.  ``ps_reference`` takes both medians
of every projection direction, which ``compute_ps`` skips where they are 0.
"""

import itertools
from typing import Optional, Sequence

import numpy as np

from lavse import (
    DimensionMismatch,
    InvalidArgument,
    LavseError,
    LeverageWitness,
    LavSolution,
    MeasurementModel,
    PSReport,
    RankDeficient,
    chi2_quantile,
    matrix_rank,
    objective_at,
    validate_model,
)
from lavse.lav import _finish
from lavse.leverage import _checked_row, _graded
from lavse.model import RANK_TOL_FACTOR, oriented, pow2_scaled
from lavse.projstats import _BLOCK, _MAD_FLOOR, _MAD_SCALE

ORACLE_MAX_M = 20
ORACLE_MAX_N = 4


class DegenerateBasis(LavseError):
    """A candidate basis has rank below N-1, so its null space is not a line."""


class TooLarge(LavseError):
    """Problem size exceeds a combinatorial guard."""


def _guard(model: MeasurementModel) -> None:
    if model.m > ORACLE_MAX_M or model.n > ORACLE_MAX_N:
        raise TooLarge(f"oracle guard: need M <= {ORACLE_MAX_M} and N <= {ORACLE_MAX_N}")


def nullspace_unit_vector(rows: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to N-1 stacked rows of length N.

    The rows must have rank exactly N-1 so the null space is a line; the
    returned vector has its first nonzero component positive, which makes
    the result deterministic even though the line itself is sign-ambiguous.

    Raises DegenerateBasis when the rank falls short.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    k, n = rows.shape
    if k != n - 1:
        raise DimensionMismatch(f"expected {n - 1} rows of length {n}, got {k}")
    if k == 0:
        return np.ones(1)
    _, s, vt = np.linalg.svd(rows)
    tol = max(k, n) * s[0] * RANK_TOL_FACTOR if s[0] > 0 else 0.0
    if s[0] == 0.0 or np.count_nonzero(s > tol) < k:
        raise DegenerateBasis(f"basis rank {np.count_nonzero(s > tol)} < {k}")
    return oriented(vt[-1])


def lav_vertex_oracle(model: MeasurementModel) -> LavSolution:
    """Reference for ``solve_lav``: try every square subsystem.

    Any minimizer of the piecewise-linear objective lies at an intersection
    of N zero-residual loci, so evaluating the objective at the solution of
    every nonsingular N-row subsystem and keeping the best is exact.  Ties
    within 1e-9 * |z|_inf keep the lexicographically first subset and mark
    the solution degenerate.
    """
    _guard(model)
    validate_model(model)
    m, n = model.m, model.n
    tol = 1e-9 * np.abs(model.z).max(initial=0.0)
    best_theta = None
    best_obj = np.inf
    degenerate = False
    evaluated = 0
    for subset in itertools.combinations(range(m), n):
        sub = model.h[list(subset)]
        if matrix_rank(sub) < n:
            continue
        theta = np.linalg.solve(sub, model.z[list(subset)])
        obj = objective_at(model, theta)
        evaluated += 1
        if obj < best_obj - tol:
            best_theta, best_obj = theta, obj
            degenerate = False
        elif abs(obj - best_obj) <= tol and not np.allclose(theta, best_theta, atol=tol):
            degenerate = True
    if best_theta is None:
        raise RankDeficient(matrix_rank(model.h), n, "no nonsingular subsystem")
    return _finish(model, best_theta, evaluated, degenerate)


def _witness(h: np.ndarray, j: int, basis: Sequence[int], v: np.ndarray) -> LeverageWitness:
    """Both sides of the inequality for the basis rows and their unit null vector v."""
    proj = np.abs(h @ v)
    q = float(proj[j])
    return LeverageWitness(row_index=j, basis=tuple(int(b) for b in basis), v=v,
                           s=float(proj.sum() - q), q=q)


def leverage_oracle(model: MeasurementModel, j: int) -> tuple[float, Optional[LeverageWitness]]:
    """Reference for ``leverage_margin``: grade every basis.

    Enumerates all C(M-1, N-1) subsets of the other rows, skips those of
    rank below N-1, and grades the best-margin basis (ties keep the
    lexicographically first subset).  Guarded to the sizes of
    ``lav_vertex_oracle``.
    """
    _guard(model)
    _checked_row(model, j)
    best = None
    if model.h[j].any():
        others = [i for i in range(model.m) if i != j]
        for basis in itertools.combinations(others, model.n - 1):
            try:
                w = _witness(model.h, j, basis, nullspace_unit_vector(model.h[list(basis)]))
            except DegenerateBasis:
                continue
            if best is None or w.margin() > best.margin():
                best = w
    return _graded(best)


def ps_reference(model: MeasurementModel) -> PSReport:
    """Reference for ``compute_ps``: the same statistics, with both medians of every direction.

    Candidate directions are the rows recentred at the coordinatewise
    median; projections along each direction are standardized by the
    scaled median absolute deviation, and each row keeps the square of its
    worst standardized projection.  These ratios do not depend on the scale
    of h, so they are computed on h scaled by a power of two, on which no
    norm overflows.
    """
    m = model.m
    if m < 2:
        raise InvalidArgument("projection statistics need at least two rows")

    dof = np.count_nonzero(model.h, axis=1)
    zero_rows = np.flatnonzero(dof == 0)
    if zero_rows.size:
        raise InvalidArgument(f"row {model.labels[zero_rows[0]]!r} is all zero: "
                              "projection statistics need a nonzero coefficient in every row")

    h = pow2_scaled(model.h, None)[0]
    center = np.median(h, axis=0)
    directions = h - center
    norms = np.linalg.norm(directions, axis=1)
    scale = norms.max()
    live = np.flatnonzero(norms > scale * 1e-12)

    best = np.zeros(m)
    used = 0
    for start in range(0, live.size, _BLOCK):
        k = live[start:start + _BLOCK]
        proj = h @ (directions[k] / norms[k, None]).T
        dev = np.abs(proj - np.median(proj, axis=0))
        mad = np.median(dev, axis=0)
        ok = mad > _MAD_FLOOR * np.abs(proj).max(axis=0)
        used += int(np.count_nonzero(ok))
        np.maximum(best, (dev[:, ok] / (_MAD_SCALE * mad[ok])).max(axis=1, initial=0.0),
                   out=best)
    skipped = m - used

    levels, level_of_row = np.unique(dof, return_inverse=True)
    cutoff = np.array([chi2_quantile(int(d)) for d in levels])[level_of_row]
    degenerate = used == 0
    ps = np.full(m, np.nan) if degenerate else best**2
    flagged = np.zeros(m, dtype=bool) if degenerate else ps > cutoff
    return PSReport(
        ps=ps,
        dof=dof,
        cutoff=cutoff,
        flagged=flagged,
        directions_used=used,
        directions_skipped=skipped,
        degenerate=degenerate,
    )
