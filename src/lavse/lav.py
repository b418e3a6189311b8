"""Least-absolute-value estimation for linear measurement models.

``solve_lav`` minimizes the residual L1 norm through ``simplex``.  The
objective is convex (a sum of absolute values of affine functions) and,
for a full-column-rank H, has a minimizer at a vertex: N linearly
independent rows fitted exactly.  ``simplex`` walks from vertex to vertex
with those N rows as its basis (the LAV simplex of Barrodale and Roberts,
SIAM J. Numer. Anal. 10(5), 1973), so its pivots work on an N x N inverse
however many rows there are.  A fixed tiny shift of z keeps every other
residual away from zero, the classical cure for cycling on degenerate
vertices (Charnes, Econometrica 20(2), 1952).  ``simplex`` takes a stack
of fits of one shape and pivots them in lockstep, so the leverage test
(``leverage.py``) solves the per-row fits of many blocks in one call and
the extra-row study (``experiments.py``) fits all its trials in one call;
``solve_lav`` is a stack of one.
``lav_vertex_oracle`` solves the problem by brute-force enumeration of
the square subsystems whose solutions are the candidate vertices; it
exists to cross-check the simplex and is guarded to small sizes.
"""

from __future__ import annotations

import functools
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
# A fit of M rows and N columns raises MaxIterations after
# _MAX_PIVOTS + _MAX_PIVOTS_PER_DIM * (M + N) pivots.
_MAX_PIVOTS = 1000
_MAX_PIVOTS_PER_DIM = 50

ORACLE_MAX_M = 20
ORACLE_MAX_N = 4


@dataclass(frozen=True)
class LavSolution:
    """Result of an absolute-value fit.

    zero_set collects the rows whose residual magnitude is at most
    1e-8 * |z|_inf; the fit is a vertex, which satisfies N linearly
    independent rows exactly, so len(zero_set) >= N and those rows have
    rank N, up to that tolerance.
    degenerate is set when some basis row has a dual |y_k| >= 1 - 1e-9 at
    the optimum: releasing that row leaves the objective flat to first
    order, so the optimum may not be unique.  It is a test on the final
    basis, not on the objective values of other vertices, so it can
    disagree with the flag of ``lav_vertex_oracle``: at a degenerate vertex
    a row can price out although the step along it is zero.
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


def solve_lav(model: MeasurementModel) -> LavSolution:
    """Globally minimize the sum of absolute residuals: ``simplex`` of one fit."""
    validate_model(model)
    theta, _, iterations, degenerate = simplex(model.h[None], model.z[None])
    return _finish(model, theta[0], int(iterations[0]), bool(degenerate[0]))


@functools.lru_cache(maxsize=64)
def _shift(m: int) -> np.ndarray:
    """The fixed shift of z per row, relative to |z|_inf: the same for every fit of m rows."""
    shift = np.random.default_rng(0).uniform(-_SHIFT, _SHIFT, m)
    shift.flags.writeable = False
    return shift


def _start_rows(h: np.ndarray) -> np.ndarray:
    """N independent rows of each fit, each the largest after projecting out the earlier ones."""
    fits, m, n = h.shape
    q = np.zeros((fits, n, n))  # orthonormal rows spanning the rows chosen so far
    q_t = q.transpose(0, 2, 1)
    norms = np.einsum("fij,fij->fi", h, h)  # squared norms left after the projection
    rows = np.empty((fits, n), dtype=np.intp)
    first = np.arange(fits) * m  # each fit's first row in the stacked rows
    stacked, left = h.reshape(fits * m, n), norms.reshape(-1)
    for k in range(n):
        rows[:, k] = i = norms.argmax(axis=1)
        if k == n - 1:  # the rest of a step only serves the next one
            break
        i += first
        u = stacked[i][:, None]  # one row vector per fit: u @ q_t is q u
        u -= (u @ q_t) @ q
        u -= (u @ q_t) @ q  # a second pass restores the orthogonality lost to rounding
        u_t = u.transpose(0, 2, 1)
        u /= np.sqrt(u @ u_t)
        q[:, k] = u[:, 0]
        norms -= (h @ u_t)[..., 0] ** 2
        left[i] = -np.inf
    return rows


def simplex(h: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vertex minimizers of sum |z_f - h_f theta| for a stack of full-column-rank h_f.

    h is (F, M, N) and z is (F, M).  Returns theta (F, N), the N rows each
    vertex fits exactly (F, N, sorted; their rows of h_f are linearly
    independent), the pivot count of each fit and its degeneracy flag.

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
    update per pivot and is recomputed every _REFACTOR_EVERY pivots; the
    residuals move by the step of each pivot and are recomputed with the
    inverse.

    The fits pivot in lockstep, each on its own basis and with the
    arithmetic it would have alone, so a fit takes the same pivots in any
    stack.  Their products run as stacked matrix products, and a fit leaves
    the stack once it is optimal.
    """
    fits, m, n = h.shape
    max_iter = _MAX_PIVOTS + _MAX_PIVOTS_PER_DIM * (m + n)
    first = (np.arange(fits) * m)[:, None]  # each fit's first row in the stacked rows
    final = _start_rows(h)  # each fit's basis once it stops pivoting
    pivots = np.zeros(fits, dtype=np.intp)
    degenerate = np.zeros(fits, dtype=bool)
    rows, zs = h.reshape(fits * m, n), z.reshape(-1)
    iterations = 0
    try:
        # solve, unlike b_inv @ z, is backward stable: a consistent z fits to 0.
        at = final + first
        theta = np.linalg.solve(rows[at], zs[at][..., None])
        scale = np.abs(z).max(axis=1, initial=0.0)
        # A consistent z has one fit, with objective zero: its start.
        misfit = np.abs(z - (h @ theta)[..., 0]).max(axis=1, initial=0.0)
        live = np.flatnonzero(misfit > _CONSISTENT_TOL * scale)  # the fit in each slot
        # The fits still pivoting, stacked; their bases index the stacked rows.
        slot, lead = np.arange(live.size), first[:live.size]
        stack, basis = (h, at) if live.size == fits else (h[live], final[live] + lead)
        stacked = stack.reshape(live.size * m, n)
        b_inv = np.linalg.inv(stacked[basis])
        shifted = z[live] + _shift(m) * scale[live, None]
        # Rows off the line search divide by a zero a; their ratio is discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.size:
                if iterations % _REFACTOR_EVERY == 0:
                    if iterations:
                        b_inv = np.linalg.inv(stacked[basis])
                    vertex = b_inv @ shifted.reshape(-1)[basis][..., None]
                    residual = shifted - (stack @ vertex)[..., 0]
                sign = np.sign(residual)
                sign.reshape(-1)[basis] = 0.0
                y = ((sign[:, None] @ stack) @ b_inv)[:, 0]  # the duals, negated
                size = np.abs(y)
                top = np.maximum.reduce(size, axis=1, keepdims=True, initial=0.0)
                done = (top <= 1.0 + _OPT_TOL).nonzero()[0]
                if done.size:
                    final[live[done]] = basis[done] - lead[done]
                    pivots[live[done]] = iterations
                    # Alternative optimum: releasing some basis row leaves the objective flat.
                    degenerate[live[done]] = (size[done] >= 1.0 - _OPT_TOL).any(axis=1)
                    if done.size == live.size:
                        break
                    keep = top[:, 0] > 1.0 + _OPT_TOL
                    live, basis = live[keep], basis[keep] - lead[keep]
                    stack, b_inv, shifted, residual, sign, y, size, top = (
                        x[keep] for x in (stack, b_inv, shifted, residual, sign, y, size, top))
                    slot, lead = slot[:live.size], first[:live.size]
                    stacked = stack.reshape(live.size * m, n)
                    basis += lead
                if iterations >= max_iter:
                    raise MaxIterations(f"simplex exceeded {max_iter} iterations")
                k = size.argmax(axis=1)
                column = b_inv[slot, :, k]
                # a2 = 2 h d exactly, so every test below is the one on h d,
                # and the 2 of the slope is folded in.
                a2 = (stack @ (column * np.copysign(2.0, y[slot, k])[:, None])[..., None])[..., 0]
                size_a = np.abs(a2)
                # Rows whose residual crosses zero along d, at t = residual / a.
                floor = np.maximum.reduce(size_a, axis=1, keepdims=True) * _PIVOT_TOL
                crossing = sign * a2 > floor
                count = np.add.reduce(crossing, axis=1)
                if not count.all():
                    raise UnboundedProblem("no breakpoint; should not happen for a full-rank h")
                ratio = np.where(crossing, residual / a2, np.inf)
                order = ratio.argsort(axis=1)
                order += lead
                # The slope 1 - |y_k| + 2 sum |a| is negative while the sum is
                # below |y_k| - 1 (fl(x - c) < 0 exactly when x < c).  The first
                # row at which it turns non-negative enters, else the last crossing.
                gain = np.add.accumulate(size_a.reshape(-1)[order], axis=1)
                gain[slot, count - 1] = np.inf
                entering = order[slot, (gain < top - 1.0).argmin(axis=1)]
                basis[slot, k] = entering
                iterations += 1
                if iterations % _REFACTOR_EVERY:  # else the next pass recomputes both
                    residual -= ratio.reshape(-1)[entering][:, None] * a2
                    w = (stacked[entering][:, None] @ b_inv)[:, 0]
                    pivot = column / w[slot, k][:, None]
                    b_inv -= np.einsum("fi,fj->fij", pivot, w)  # the outer product, in one pass
                    b_inv[slot, :, k] = pivot
        at = final + first
        theta = np.linalg.solve(rows[at], zs[at][..., None])
    except np.linalg.LinAlgError as err:
        raise LavseError(f"simplex basis became singular after {iterations} pivots: {err}") from None
    return theta[..., 0], np.sort(final, axis=1), pivots, degenerate


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
