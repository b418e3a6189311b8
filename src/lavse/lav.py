"""Least-absolute-value estimation for linear measurement models.

``solve_lav`` minimizes the residual L1 norm through ``simplex``.  The
objective is convex (a sum of absolute values of affine functions) and,
for a full-column-rank H, has a minimizer at a vertex: N linearly
independent rows fitted exactly.  ``simplex`` walks from vertex to vertex
with those N rows as its basis (the LAV simplex of Barrodale and Roberts,
SIAM J. Numer. Anal. 10(5), 1973), so its pivots work on an N x N inverse
however many rows there are.  Each pivot updates that inverse by rank one,
and a fit inverts afresh only when its basis rows, which a vertex fits
exactly, show a residual past rounding.  A fixed tiny shift of z keeps
every other residual away from zero, the classical cure for cycling on
degenerate vertices (Charnes, Econometrica 20(2), 1952).  ``simplex``
takes a stack of fits of one shape and pivots them in lockstep, so the
leverage test (``leverage.py``) fits the rows of many blocks, and the
extra-row study (``experiments.py``) all its trials, in one call;
``solve_lav`` is a stack of one.  Its ``Fit`` record holds each fit's final
duals: with u_i = sign(r_i) off the basis and u_B the duals, H'u = 0 and
|u| <= 1, so z'u bounds the objective from below (LP duality; Charnes,
Cooper and Ferguson, Management Sci. 1(2), 1955) and the optimum attains it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LavseError,
    MaxIterations,
    NonFinite,
    UnboundedProblem,
)
from .model import MeasurementModel, pow2_scaled, validate_model

# Optimality allows |y_k| up to 1 + _OPT_TOL; |y_k| within _OPT_TOL of 1 at
# the optimum marks an alternative optimum.
_OPT_TOL = 1e-9
# Breakpoints with |h_i . d| below _PIVOT_TOL * max |h . d| never enter the
# basis, which keeps it well conditioned.
_PIVOT_TOL = 1e-11
# A residual within _CONSISTENT_TOL * |z|_inf fits its row.  A start basis that
# fits every row ends the fit; a basis row it does not fit re-inverts the basis.
_CONSISTENT_TOL = 1e-12
# Largest shift of z per row, relative to |z|_inf, so the fit scales with z.
# It is drawn from a fixed seed, so every fit is reproducible.
_SHIFT = 1e-9
# Rows with |r_i| <= _ZERO * |z|_inf form the zero set, so it scales with z.
_ZERO = 1e-8
# A fit of M rows and N columns raises MaxIterations after
# _MAX_PIVOTS + _MAX_PIVOTS_PER_DIM * (M + N) pivots.
_MAX_PIVOTS = 1000
_MAX_PIVOTS_PER_DIM = 50


@dataclass(frozen=True)
class LavSolution:
    """Result of an absolute-value fit.

    zero_set collects the rows whose residual magnitude is at most
    1e-8 * |z|_inf; the fit is a vertex, which satisfies N linearly
    independent rows exactly, so len(zero_set) >= N and those rows have
    rank N, up to that tolerance.
    degenerate is derived from ``Fit.duals``: some basis row's dual has
    |u_k| >= 1 - 1e-9, so releasing that row leaves the objective flat to
    first order and the optimum may not be unique.  It is a test on the
    final basis, not on the objective values of other vertices, so it can
    disagree with a comparison of every vertex's objective: at a degenerate
    vertex a row can price out although the step along it is zero.
    """

    theta_hat: np.ndarray
    residuals: np.ndarray
    objective: float
    zero_set: tuple[int, ...]
    iterations: int
    degenerate: bool


@dataclass(frozen=True)
class Fit:
    """A stack of F vertex fits from ``simplex``; see its Returns paragraph."""

    theta: np.ndarray  # (F, N)
    basis: np.ndarray  # (F, N), sorted
    pivots: np.ndarray  # (F,)
    duals: np.ndarray  # (F, N): duals[f, k] is the multiplier of row basis[f, k]


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
    """Globally minimize the sum of absolute residuals: ``simplex`` of one fit.

    Raises NonFinite when theta or the objective lies beyond float range:
    when either overflows, or when a state underflows, which leaves some
    basis row of the vertex unfitted.
    """
    validate_model(model)
    fit = simplex(model.h[None], model.z[None])
    degenerate = bool((np.abs(fit.duals) >= 1.0 - _OPT_TOL).any())
    with np.errstate(over="ignore", invalid="ignore"):
        sol = _finish(model, fit.theta[0], int(fit.pivots[0]), degenerate)
    if not (np.isfinite(sol.theta_hat).all() and np.isfinite(sol.objective)):
        raise NonFinite(f"the fit lies beyond float range: objective {sol.objective}")
    if (np.abs(sol.theta_hat) < np.finfo(float).tiny).any() and not np.isin(fit.basis, sol.zero_set).all():
        raise NonFinite("the fit lies beyond float range: a state underflows")
    return sol


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


def simplex(h: np.ndarray, z: np.ndarray) -> Fit:
    """Vertex minimizers of sum |z_f - h_f theta| for a stack of full-column-rank h_f.

    h is (F, M, N) and z is (F, M).  Returns a ``Fit``: theta (F, N), the
    basis (F, N, sorted), the N independent rows each vertex fits exactly,
    the pivots (F,) and the duals (F, N), the final y below in the basis's
    order: u_i = sign(r_i) off the basis and u_B = duals give h_f'u = 0 and
    |u| <= 1 + _OPT_TOL.  A consistent z stops at its start, with duals 0.

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
    the unshifted z on the final basis.  Each pivot takes a rank-one update
    of the basis inverse and moves the residuals by its step.  A fit
    recomputes both before its first pivot and whenever a basis row shows
    a residual above _CONSISTENT_TOL * |z|_inf: the drift of those updates.

    The fits pivot in lockstep, each on its own basis and with the
    arithmetic it would have alone, so a fit takes the same pivots in any
    stack.  Their products run as stacked matrix products, and a fit leaves
    the stack once it is optimal.

    Each fit runs on its h and its z scaled by powers of two
    (``pow2_scaled``), which changes no pivot, and theta is scaled back at
    the end.
    """
    fits, m, n = h.shape
    h, exponent = pow2_scaled(h, (1, 2))
    z, z_exponent = pow2_scaled(z, 1)
    max_iter = _MAX_PIVOTS + _MAX_PIVOTS_PER_DIM * (m + n)
    first = (np.arange(fits) * m)[:, None]  # each fit's first row in the stacked rows
    final = _start_rows(h)  # each fit's basis once it stops pivoting
    pivots = np.zeros(fits, dtype=np.intp)
    duals = np.zeros((fits, n))
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
        shifted = z[live] + _shift(m) * scale[live, None]
        bound = _CONSISTENT_TOL * scale[live, None]
        # No fit has an inverse yet: an infinite residual on each basis row asks for one.
        b_inv, residual = np.empty((live.size, n, n)), np.full_like(shifted, np.inf)
        # Rows off the line search divide by a zero a; their ratio is discarded.
        # A ratio past float range is inf: a breakpoint that no step reaches.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while live.size:
                drift = np.abs(residual.take(basis)) > bound  # the vertex fits its basis rows
                stale = np.logical_or.reduce(drift, axis=1).nonzero()[0]
                if stale.size:
                    b_inv[stale] = np.linalg.inv(stacked[basis[stale]])
                    vertex = b_inv[stale] @ shifted.reshape(-1)[basis[stale]][..., None]
                    residual[stale] = shifted[stale] - (stack[stale] @ vertex)[..., 0]
                sign = np.sign(residual)
                sign.reshape(-1)[basis] = 0.0
                y = ((sign[:, None] @ stack) @ b_inv)[:, 0]  # the duals, negated
                size = np.abs(y)
                top = np.maximum.reduce(size, axis=1, keepdims=True, initial=0.0)
                done = (top <= 1.0 + _OPT_TOL).nonzero()[0]
                if done.size:
                    final[live[done]] = basis[done] - lead[done]
                    pivots[live[done]] = iterations
                    duals[live[done]] = -y[done]
                    if done.size == live.size:
                        break
                    keep = top[:, 0] > 1.0 + _OPT_TOL
                    live, basis = live[keep], basis[keep] - lead[keep]
                    stack, b_inv, shifted, bound, residual, sign, y, size, top = (x[keep] for x in (
                        stack, b_inv, shifted, bound, residual, sign, y, size, top))
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
                residual -= ratio.reshape(-1)[entering][:, None] * a2
                w = (stacked[entering][:, None] @ b_inv)[:, 0]
                pivot = column / w[slot, k][:, None]
                b_inv -= np.einsum("fi,fj->fij", pivot, w)  # the outer product, in one pass
                b_inv[slot, :, k] = pivot
        at = final + first
        theta = np.linalg.solve(rows[at], zs[at][..., None])
    except np.linalg.LinAlgError as err:
        raise LavseError(f"simplex basis became singular after {iterations} pivots: {err}") from None
    with np.errstate(over="ignore"):  # theta beyond float range: the caller checks
        theta = np.ldexp(theta[..., 0], z_exponent - exponent[:, 0])
    order, each = final.argsort(axis=1), np.arange(fits)[:, None]
    return Fit(theta, final[each, order], pivots, duals[each, order])

