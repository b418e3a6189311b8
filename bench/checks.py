"""Output checks for the benchmark, run outside the timed region.

Each check returns a list of problems; an empty list accepts the output.
The references are independent of ``lavse``: both LPs below are solved
with ``scipy.optimize.linprog(method="highs")``.
"""

from __future__ import annotations

import json

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Relative tolerance of the estimate's objective against the reference LP.
LP_OBJ_TOL = 1e-6
# Relative tolerance of values recomputed from the program's own output.
RECOMPUTE_TOL = 1e-9
# A row is flagged when its leverage LP optimum is at most 1 + FLAG_TOL.
FLAG_TOL = 1e-9


def lav_fit(h: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal sum of absolute residuals and a minimizer theta.

    Solves min 1'(u + w) s.t. H theta + u - w = z, u, w >= 0.
    """
    m, n = h.shape
    eye = sparse.identity(m, format="csr")
    a_eq = sparse.hstack([sparse.csr_matrix(h), eye, -eye], format="csr")
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    bounds = [(None, None)] * n + [(0, None)] * (2 * m)
    res = linprog(c, A_eq=a_eq, b_eq=z, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LAV LP failed: {res.message}")
    return float(res.fun), res.x[:n]


def leverage_lp(h: np.ndarray, j: int) -> tuple[float, np.ndarray | None]:
    """min sum_{i != j} |h_i . v| subject to h_j . v = 1, and the optimal v.

    The optimum is inf, with no v, when h_j is zero.
    """
    m, n = h.shape
    others = np.delete(h, j, axis=0)
    k = m - 1
    eye = np.eye(k)
    a_ub = np.vstack([np.hstack([others, -eye]), np.hstack([-others, -eye])])
    a_eq = np.concatenate([h[j], np.zeros(k)])[None, :]
    c = np.concatenate([np.zeros(n), np.ones(k)])
    bounds = [(None, None)] * n + [(0, None)] * k
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * k), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if res.status == 2:
        return float("inf"), None
    if res.status != 0:
        raise RuntimeError(f"reference leverage LP for row {j} failed: {res.message}")
    return float(res.fun), res.x[:n]


def reference_flags(h: np.ndarray) -> list[bool]:
    """Per row: can one bad measurement on it drag the fit (LP optimum <= 1)?"""
    return [leverage_lp(h, j)[0] <= 1.0 + FLAG_TOL for j in range(h.shape[0])]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_build(h: np.ndarray, labels: list[str], text: str) -> list[str]:
    """``lavse build --format json`` must reproduce the generator's matrix."""
    doc = json.loads(text)
    if doc.get("labels") != labels:
        return ["build: labels differ from the network's measurements"]
    got = np.array(doc.get("H"), dtype=float)
    if got.shape != h.shape:
        return [f"build: H has shape {got.shape}, expected {h.shape}"]
    err = float(np.max(np.abs(got - h)))
    if err > RECOMPUTE_TOL * max(1.0, float(np.max(np.abs(h)))):
        return [f"build: H differs from the generator's by {err:.3g}"]
    return []


def check_estimate(h: np.ndarray, z: np.ndarray, text: str, reference: float) -> list[str]:
    """The objective matches the output's own theta and the reference LP."""
    doc = json.loads(text)
    theta = np.array(doc.get("theta_hat"), dtype=float)
    if theta.shape != (h.shape[1],):
        return [f"estimate: theta_hat has shape {theta.shape}, expected ({h.shape[1]},)"]
    objective = float(doc["objective"])
    recomputed = float(np.abs(z - h @ theta).sum())
    problems = []
    if not _close(objective, recomputed, RECOMPUTE_TOL):
        problems.append(f"estimate: objective {objective!r} but sum |z - H theta| = {recomputed!r}")
    if not _close(objective, reference, LP_OBJ_TOL):
        problems.append(f"estimate: objective {objective!r} but reference LP finds {reference!r}")
    return problems


def check_ps(h: np.ndarray, text: str) -> list[str]:
    """One PS entry per row, with dof equal to the row's nonzero count."""
    doc = json.loads(text)
    dof = doc.get("dof", [])
    if len(doc.get("ps", [])) != h.shape[0] or len(dof) != h.shape[0]:
        return [f"ps: expected {h.shape[0]} rows"]
    want = np.count_nonzero(h, axis=1)
    bad = [i for i, (d, w) in enumerate(zip(dof, want)) if d != w]
    return [f"ps: dof differs from the nonzero count on rows {bad}"] if bad else []


def check_detect(h: np.ndarray, text: str, flags: list[bool]) -> list[str]:
    """Flagged set equals the LP reference; every witness recomputes from H."""
    doc = json.loads(text)
    rows = doc.get("rows", [])
    if len(rows) != h.shape[0]:
        return [f"detect: {len(rows)} rows, expected {h.shape[0]}"]
    problems = []
    for j, (row, want) in enumerate(zip(rows, flags)):
        got = row.get("verdict") in ("leverage", "boundary")
        if got != want:
            problems.append(f"detect: row {j} is {row.get('verdict')}, reference says "
                            f"{'flagged' if want else 'clean'}")
        w = row.get("witness")
        if w is None:
            if got:
                problems.append(f"detect: row {j} is flagged without a witness")
            continue
        proj = np.abs(h @ np.array(w["v"], dtype=float))
        q = float(proj[j])
        s = float(proj.sum() - q)
        if not (_close(w["q"], q, RECOMPUTE_TOL) and _close(w["s"], s, RECOMPUTE_TOL)):
            problems.append(f"detect: row {j} witness (s, q) = ({w['s']!r}, {w['q']!r}), "
                            f"recomputed ({s!r}, {q!r})")
    return problems


def check_passed(text: str) -> list[str]:
    """``lavse reproduce`` reports its own verdict on its last line."""
    lines = text.strip().splitlines()
    return [] if lines and lines[-1] == "PASS: True" else ["reproduce: no 'PASS: True' line"]
