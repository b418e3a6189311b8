"""Noiseless DC meshes: the most degenerate fits and leverage tests.

With z = H theta exactly, every row is fitted at the optimum and each
per-row leverage fit has many tied vertices, which is where a simplex
without an anti-cycling rule stalls or reaches a singular basis.
"""

import numpy as np
import pytest

from lavse import detect_all, matrix_rank, solve_lav
from lavse.power import Line, MeasurementSpec, NetworkModel, build_dc_model


def mesh_model(k, seed, injection_step=2):
    """k x k mesh: a flow on every line, an injection on every injection_step-th bus."""
    rng = np.random.default_rng(seed)
    buses = list(range(1, k * k + 1))
    pairs = [(b, b + 1) for b in buses if b % k] + [(b, b + k) for b in buses[:-k]]
    lines = [Line(f, t, float(x)) for (f, t), x in zip(pairs, rng.uniform(0.05, 0.3, len(pairs)))]
    meas = [MeasurementSpec("pflow", f"P{f}-{t}", from_bus=f, to_bus=t) for f, t in pairs]
    meas += [MeasurementSpec("pinj", f"P{b}", bus=b) for b in buses[::injection_step]]
    net = NetworkModel(buses, 1, lines, meas)
    return build_dc_model(net, states=rng.normal(0.0, 0.1, size=k * k - 1))


@pytest.mark.parametrize("seed", range(4))
def test_noiseless_fit_is_exact_vertex(seed):
    model = mesh_model(8, seed)
    sol = solve_lav(model)
    assert sol.objective <= 1e-9
    assert matrix_rank(model.h[list(sol.zero_set)]) == model.n


def test_whole_model_detection_matches_lp_reference():
    from scipy.optimize import linprog

    model = mesh_model(5, 53, injection_step=1)
    m, n = model.h.shape
    flags = []
    for j in range(m):
        # min sum t  s.t.  -t <= h_i . v <= t (i != j),  h_j . v = 1.
        others = np.delete(model.h, j, axis=0)
        eye = np.eye(m - 1)
        res = linprog(np.concatenate([np.zeros(n), np.ones(m - 1)]),
                      A_ub=np.block([[others, -eye], [-others, -eye]]), b_ub=np.zeros(2 * m - 2),
                      A_eq=np.concatenate([model.h[j], np.zeros(m - 1)])[None, :], b_eq=[1.0],
                      bounds=[(None, None)] * n + [(0, None)] * (m - 1), method="highs")
        assert res.status == 0
        flags.append(res.fun <= 1.0 + 1e-9)
    assert [v != "clean" for v in detect_all(model).verdicts] == flags
