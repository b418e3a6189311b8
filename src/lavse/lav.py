"""Least-absolute-value estimation for linear measurement models.

``solve_lav`` minimizes the residual L1 norm through ``simplex``.  The
objective is convex (a sum of absolute values of affine functions) and,
for a full-column-rank H, has a minimizer at a vertex: N linearly
independent rows fitted exactly.  ``simplex`` walks from vertex to vertex
with those N rows as its basis (the LAV simplex of Barrodale and Roberts,
SIAM J. Numer. Anal. 10(5), 1973), so its pivots work on an N x N inverse
however many rows there are.  A fixed tiny shift of z keeps every other
residual away from zero, the classical cure for cycling on degenerate
vertices (Charnes, Econometrica 20(2), 1952).  The leverage test
(``leverage.py``) runs its per-row fits through the same ``simplex``.
``lav_vertex_oracle`` solves the problem by brute-force enumeration of
the square subsystems whose solutions are the candidate vertices; it
exists to cross-check the simplex and is guarded to small sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LavseError,
    MaxIterations,
    RankDeficient,
    TooLarge,
    UnboundedProblem,
)
from .model import MeasurementModel, matrix_rank, validate_model

# Optimality allows |y_k| up to 1 + _OPT_TOL; |y_k| within _OPT_TOL of 1 at
# the optimum marks an alternative optimum.
_OPT_TOL = 1e-9
# Breakpoints with |h_i . d| below _PIVOT_TOL * max |h . d| never enter the
# basis, which keeps it well conditioned.
_PIVOT_TOL = 1e-11
# The start basis fitting every row to within _CONSISTENT_TOL * |z|_inf ends
# the fit at once.
_CONSISTENT_TOL = 1e-12
# Largest shift of z per row, relative to |z|_inf, so the fit scales with z.
# It is drawn from a fixed seed, so every fit is reproducible.
_SHIFT = 1e-9
# Pivots between recomputations of the basis inverse.  Rank-one updates in
# between cost O(N^2) per pivot instead of a fresh O(N^3) factorization;
# recomputing bounds their drift.
_REFACTOR_EVERY = 20
# Rows with |r_i| <= _ZERO * |z|_inf form the zero set, so it scales with z.
_ZERO = 1e-8

ORACLE_MAX_M = 20
ORACLE_MAX_N = 4


@dataclass(frozen=True)
class LavSolution:
    """Result of an absolute-value fit.

    zero_set collects the rows whose residual magnitude is at most
    1e-8 * |z|_inf; the fit is a vertex, which satisfies N linearly
    independent rows exactly, so len(zero_set) >= N and those rows have
    rank N, up to that tolerance.
    degenerate indicates the optimum is not unique (a flat face of the
    objective), which happens mostly with too few measurements.
    """

    theta_hat: np.ndarray
    residuals: np.ndarray
    objective: float
    zero_set: tuple[int, ...]
    iterations: int
    degenerate: bool


def objective_at(model: MeasurementModel, theta: np.ndarray) -> float:
    """Sum of absolute residuals of the model at the given state vector."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape != (model.n,):
        raise DimensionMismatch(f"theta has length {theta.shape[0]}, expected {model.n}")
    return float(np.abs(model.z - model.h @ theta).sum())


def _finish(model: MeasurementModel, theta: np.ndarray, iterations: int,
            degenerate: bool) -> LavSolution:
    residuals = model.z - model.h @ theta
    zero_tol = _ZERO * np.abs(model.z).max(initial=0.0)
    zero_set = tuple(int(i) for i in np.flatnonzero(np.abs(residuals) <= zero_tol))
    return LavSolution(
        theta_hat=theta,
        residuals=residuals,
        objective=float(np.abs(residuals).sum()),
        zero_set=zero_set,
        iterations=iterations,
        degenerate=degenerate,
    )


def solve_lav(model: MeasurementModel, max_iter: int | None = None) -> LavSolution:
    """Globally minimize the sum of absolute residuals."""
    validate_model(model)
    theta, _, iterations, degenerate = simplex(model.h, model.z, max_iter)
    return _finish(model, theta, iterations, degenerate)


def _start_rows(h: np.ndarray) -> np.ndarray:
    """N independent rows, each the largest after projecting out the earlier ones."""
    n = h.shape[1]
    q = np.zeros((n, n))  # orthonormal rows spanning the rows chosen so far
    norms = np.einsum("ij,ij->i", h, h)  # squared norms left after the projection
    rows = np.zeros(n, dtype=int)
    for k in range(n):
        rows[k] = i = int(np.argmax(norms))
        u = h[i] - (q @ h[i]) @ q
        u -= (q @ u) @ q  # a second pass restores the orthogonality lost to rounding
        q[k] = u / np.linalg.norm(u)
        norms -= (h @ q[k]) ** 2
        norms[i] = -np.inf
    return rows


def simplex(h: np.ndarray, z: np.ndarray, max_iter: int | None = None
            ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Vertex minimizer of sum |z - h theta| for a full-column-rank h.

    Returns theta, the N rows the vertex fits exactly (sorted; their rows
    of h are linearly independent), the pivot count and the degeneracy flag.

    The basis is the N fitted rows H_B, and theta = H_B^-1 z_B.  With s_i
    the sign of the residual of each other row, the duals y solve
    H_B' y = -sum_{i not in B} s_i h_i, and the basis is optimal when every
    |y_k| <= 1.  Otherwise the row with the largest |y_k| is released:
    theta moves along d = -sign(y_k) H_B^-1 e_k, on which the objective
    starts with slope 1 - |y_k| < 0 and gains 2|h_i . d| each time another
    row's residual crosses zero; the row at which the slope turns
    non-negative enters the basis.  The iteration runs on z shifted by a
    fixed pseudo-random amount of at most _SHIFT * |z|_inf per row,
    so no residual outside the basis is ever zero, every pivot lowers the
    objective and the method cannot cycle.  Theta is then recomputed from
    the unshifted z on the final basis.  The basis inverse takes a rank-one
    update per pivot and is recomputed every _REFACTOR_EVERY pivots.
    """
    m, n = h.shape
    if max_iter is None:
        max_iter = 1000 + 50 * (m + n)
    basis = _start_rows(h)
    iterations = 0
    try:
        b_inv = np.linalg.inv(h[basis])
        # solve, unlike b_inv @ z, is backward stable: a consistent z fits to 0.
        theta = np.linalg.solve(h[basis], z[basis])
        scale = float(np.abs(z).max(initial=0.0))
        if np.abs(z - h @ theta).max(initial=0.0) <= _CONSISTENT_TOL * scale:
            # Consistent z: the unique fit with objective zero.
            return theta, np.sort(basis), 0, False
        shifted = z + np.random.default_rng(0).uniform(-_SHIFT, _SHIFT, m) * scale
        while True:
            if iterations and iterations % _REFACTOR_EVERY == 0:
                b_inv = np.linalg.inv(h[basis])
            residual = shifted - h @ (b_inv @ shifted[basis])
            sign = np.sign(residual)
            sign[basis] = 0.0
            y = -(sign @ h) @ b_inv
            if np.abs(y).max(initial=0.0) <= 1.0 + _OPT_TOL:
                break
            if iterations >= max_iter:
                raise MaxIterations(f"simplex exceeded {max_iter} iterations")
            k = int(np.argmax(np.abs(y)))
            column = b_inv[:, k]
            a = h @ (-np.sign(y[k]) * column)
            # Rows whose residual crosses zero along d, at t = residual / a.
            crossing = np.flatnonzero(sign * a > _PIVOT_TOL * np.abs(a).max())
            if crossing.size == 0:
                raise UnboundedProblem("no breakpoint; should not happen for a full-rank h")
            crossing = crossing[np.argsort(residual[crossing] / a[crossing])]
            slope = 1.0 - abs(y[k]) + 2.0 * np.cumsum(np.abs(a[crossing]))
            entering = int(crossing[min(np.searchsorted(slope, 0.0), crossing.size - 1)])
            w = h[entering] @ b_inv
            pivot = column / w[k]
            b_inv -= np.outer(pivot, w)
            b_inv[:, k] = pivot
            basis[k] = entering
            iterations += 1
        theta = np.linalg.solve(h[basis], z[basis])
    except np.linalg.LinAlgError as err:
        raise LavseError(f"simplex basis became singular after {iterations} pivots: {err}") from None
    # Alternative optimum: releasing some basis row leaves the objective flat.
    degenerate = bool((np.abs(y) >= 1.0 - _OPT_TOL).any())
    return theta, np.sort(basis), iterations, degenerate


def lav_vertex_oracle(model: MeasurementModel) -> LavSolution:
    """Brute-force reference solver: try every square subsystem.

    Any minimizer of the piecewise-linear objective lies at an intersection
    of N zero-residual loci, so evaluating the objective at the solution of
    every nonsingular N-row subsystem and keeping the best is exact.  Ties
    within 1e-9 * |z|_inf keep the lexicographically first subset and mark
    the solution degenerate.
    """
    m, n = model.m, model.n
    if m > ORACLE_MAX_M or n > ORACLE_MAX_N:
        raise TooLarge(f"oracle guard: need M <= {ORACLE_MAX_M} and N <= {ORACLE_MAX_N}")
    validate_model(model)

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
