"""Least-absolute-value estimation for linear measurement models.

``solve_lav`` minimizes the residual L1 norm through ``simplex``, a small
dense primal simplex on the equivalent linear program

    min 1'(u + w)   s.t.   H theta + u - w = z,   u, w >= 0,  theta free,

with theta as N free columns that enter the basis once and never leave, so
every fit ends at a vertex: N linearly independent rows fitted exactly.
The objective is convex (a sum of absolute values of affine functions), so
the simplex optimum is global.  The leverage test (``leverage.py``) runs
its per-row fits through the same ``simplex``.  ``lav_vertex_oracle``
solves the problem by brute-force enumeration of the square subsystems
whose solutions are the candidate vertices; it exists to cross-check the
simplex and is guarded to small sizes.
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

# Reduced costs below -_OPT_TOL trigger a pivot; values within _OPT_TOL of
# zero at optimality mark alternative optima.
_OPT_TOL = 1e-9
_PIVOT_TOL = 1e-11
# Consecutive zero-step pivots before switching to Bland's rule.
_STALL_LIMIT = 40
# Pivots between recomputations of the basis inverse.  Rank-one updates in
# between cost O(M^2) per pivot instead of a fresh O(M^3) factorization;
# recomputing bounds their drift, which otherwise can turn a degenerate
# basis numerically singular.
_REFACTOR_EVERY = 20

ORACLE_MAX_M = 20
ORACLE_MAX_N = 4


@dataclass(frozen=True)
class LavSolution:
    """Result of an absolute-value fit.

    zero_set collects the rows whose residual magnitude falls below the
    zero tolerance; the fit is a vertex, which satisfies N linearly
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
            degenerate: bool, zero_tol: float) -> LavSolution:
    residuals = model.z - model.h @ theta
    zero_set = tuple(int(i) for i in np.flatnonzero(np.abs(residuals) < zero_tol))
    return LavSolution(
        theta_hat=theta,
        residuals=residuals,
        objective=float(np.abs(residuals).sum()),
        zero_set=zero_set,
        iterations=iterations,
        degenerate=degenerate,
    )


def solve_lav(model: MeasurementModel, zero_tol: float = 1e-8,
              max_iter: int | None = None) -> LavSolution:
    """Globally minimize the sum of absolute residuals."""
    validate_model(model)
    theta, _, iterations, degenerate = simplex(model.h, model.z, max_iter)
    return _finish(model, theta, iterations, degenerate, zero_tol)


def simplex(h: np.ndarray, z: np.ndarray, max_iter: int | None = None
            ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Vertex minimizer of sum |z - h theta| for a full-column-rank h.

    Returns theta, the N rows the vertex satisfies exactly (the rows whose
    residual columns are both nonbasic; their rows of h are linearly
    independent), the pivot count and the degeneracy flag.

    The starting basis is the residual slack itself (u or w per row), so no
    phase one is needed.  Each theta column is pivoted in first, in the
    direction its reduced cost favours; a free column never blocks a ratio
    test, so it never leaves again and the final basis is a vertex.  The
    residual columns then follow Dantzig pricing with a permanent fall-back
    to Bland's rule after a run of degenerate pivots, which guarantees
    termination.  The basis inverse takes a rank-one update per pivot and is
    recomputed, with the basic values, every _REFACTOR_EVERY pivots.
    """
    m, n = h.shape
    if max_iter is None:
        max_iter = 1000 + 50 * (m + n)

    # Column layout: [theta (n, free), u (m), w (m)], where u_i is e_i and
    # w_i is -e_i; the identity blocks are never stored.
    def a_col(k: int) -> np.ndarray:
        if k < n:
            return h[:, k]
        e = np.zeros(m)
        e[(k - n) % m] = 1.0 if k < n + m else -1.0
        return e

    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    basis = np.array([n + i if z[i] >= 0 else n + m + i for i in range(m)], dtype=int)
    free = np.zeros(m, dtype=bool)  # basis positions holding a theta column
    b_inv = np.diag(np.where(z >= 0, 1.0, -1.0))  # the starting basis is its own inverse
    x_b = np.abs(z)

    iterations = 0
    stalled = 0
    use_bland = False
    try:
        while True:
            if iterations >= max_iter:
                raise MaxIterations(f"simplex exceeded {max_iter} iterations")
            if iterations and iterations % _REFACTOR_EVERY == 0:
                b_inv = np.linalg.inv(np.array([a_col(k) for k in basis]).T)
                x_b = b_inv @ z
                np.maximum(x_b, 0.0, out=x_b, where=~free)
            y = c[basis] @ b_inv
            reduced = np.concatenate([-(y @ h), 1.0 - y, 1.0 + y])  # c - [h, I, -I]' y
            reduced[basis] = 0.0

            theta_phase = iterations < n  # the first n pivots bring each theta in once
            if theta_phase:
                price = np.abs(reduced[:n])
                price[basis[free]] = -1.0
                entering = int(np.argmax(price))
            else:
                candidates = np.flatnonzero(reduced < -_OPT_TOL)
                if candidates.size == 0:
                    break
                if use_bland:
                    entering = int(candidates[0])
                else:
                    entering = int(candidates[np.argmin(reduced[candidates])])

            column = b_inv @ a_col(entering)
            if theta_phase:
                # Move theta downhill; on a flat reduced cost, towards a blocking row.
                if abs(reduced[entering]) > _OPT_TOL:
                    sign = -np.sign(reduced[entering])
                else:
                    sign = 1.0 if ((column > _PIVOT_TOL) & ~free).any() else -1.0
            else:
                sign = 1.0
            direction = sign * column
            movable = (direction > _PIVOT_TOL) & ~free
            ratios = np.divide(x_b, direction, out=np.full(m, np.inf), where=movable)
            step = ratios.min(initial=np.inf)
            if step == np.inf:
                raise UnboundedProblem("no blocking variable; should not happen for finite objectives")
            # Tie-break on the smallest basis column index (Bland-compatible).
            leaving = int(np.argmin(np.where(ratios <= step + 1e-12, basis, c.size)))

            x_b = x_b - step * direction
            x_b[leaving] = sign * step
            basis[leaving] = entering
            free[leaving] = entering < n
            np.maximum(x_b, 0.0, out=x_b, where=~free)
            pivot_row = b_inv[leaving] / column[leaving]
            b_inv -= column[:, None] * pivot_row
            b_inv[leaving] = pivot_row
            iterations += 1
            if step <= 1e-12:
                stalled += 1
                if stalled >= _STALL_LIMIT:
                    use_bland = True
            else:
                stalled = 0
    except np.linalg.LinAlgError as err:
        raise LavseError(f"simplex basis became singular after {iterations} pivots: {err}") from None

    theta = np.zeros(n)
    theta[basis[free]] = x_b[free]
    residual_basic = np.zeros(m, dtype=bool)
    residual_basic[(basis[~free] - n) % m] = True
    # Alternative optimum: a nonbasic column prices out to zero.
    nonbasic = np.ones(c.size, dtype=bool)
    nonbasic[basis] = False
    degenerate = bool((reduced[nonbasic] <= _OPT_TOL).any())
    return theta, np.flatnonzero(~residual_basic), iterations, degenerate


def lav_vertex_oracle(model: MeasurementModel, zero_tol: float = 1e-8) -> LavSolution:
    """Brute-force reference solver: try every square subsystem.

    Any minimizer of the piecewise-linear objective lies at an intersection
    of N zero-residual loci, so evaluating the objective at the solution of
    every nonsingular N-row subsystem and keeping the best is exact.  Ties
    within 1e-9 keep the lexicographically first subset and mark the
    solution degenerate.
    """
    m, n = model.m, model.n
    if m > ORACLE_MAX_M or n > ORACLE_MAX_N:
        raise TooLarge(f"oracle guard: need M <= {ORACLE_MAX_M} and N <= {ORACLE_MAX_N}")
    validate_model(model)

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
        if obj < best_obj - 1e-9:
            best_theta, best_obj = theta, obj
            degenerate = False
        elif abs(obj - best_obj) <= 1e-9 and not np.allclose(theta, best_theta, atol=1e-9):
            degenerate = True
    if best_theta is None:
        raise RankDeficient(matrix_rank(model.h), n, "no nonsingular subsystem")
    return _finish(model, best_theta, evaluated, degenerate, zero_tol)
