"""DC meshes: the most degenerate fits and leverage tests.

With z = H theta exactly, every row is fitted at the optimum and each
per-row leverage fit has many tied vertices, which is where a simplex
without an anti-cycling rule stalls or reaches a singular basis.  Other
tests check that a stack of fits ends as each fit does alone and, on
noisy meshes, that the verdicts tell which gross errors drag the fit.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lavse import detect_all, leverage, leverage_margin, load_model, matrix_rank, solve_lav
from lavse.lav import simplex
from lavse.leverage import classify
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


def noisy_mesh_model(k, seed):
    """mesh_model with seeded measurement noise N(0, 0.01^2) on z."""
    model = mesh_model(k, seed)
    return model.with_z(model.z + np.random.default_rng(seed).normal(0.0, 0.01, model.m))


def _lp_objective(model):
    """Optimal sum |z - H theta| from HiGHS: min sum t subject to -t <= z - H theta <= t."""
    from scipy.optimize import linprog

    m, n = model.h.shape
    eye = np.eye(m)
    res = linprog(np.concatenate([np.zeros(n), np.ones(m)]),
                  A_ub=np.block([[model.h, -eye], [-model.h, -eye]]),
                  b_ub=np.concatenate([model.z, -model.z]),
                  bounds=[(None, None)] * n + [(0, None)] * m, method="highs")
    assert res.status == 0
    return res.fun


def _bench_inputs():
    """bench/inputs.py, which writes the benchmark's seeded meshes."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# Pivots of each fit on the benchmark's twelve noisy 10x10 meshes of seed 1,
# as the simplex took them before it solved stacks of fits (805 in all).
GRID_PIVOTS = [98, 71, 56, 45, 70, 74, 82, 40, 54, 57, 93, 65]


def test_batch_of_one_keeps_basis_and_pivots(tmp_path):
    instances = _bench_inputs().write_instances(tmp_path, 1, [(10, True)] * len(GRID_PIVOTS))
    for inst, pivots in zip(instances, GRID_PIVOTS):
        model = load_model(inst.model)
        sol = solve_lav(model)
        assert sol.iterations == pivots, inst.name
        # The optimum is unique, so it has one basis: the N rows fitted exactly.
        assert not sol.degenerate and len(sol.zero_set) == model.n
        assert sol.objective == pytest.approx(_lp_objective(model), rel=1e-7)


@pytest.mark.parametrize("k, seed", [(3, 0), (5, 3)])
def test_block_rows_equal_batch_of_one(k, seed):
    # detect_all solves every row of a block in one stack; leverage_margin
    # solves its row alone.  On a one-block model both fit the same system.
    model = mesh_model(k, seed)
    report = detect_all(model)
    stacked, _ = leverage._row_tests(model.h, np.arange(model.m))
    assert sum(v != "clean" for v in report.verdicts) > 0
    for j in range(model.m):
        margin, witness = leverage_margin(model, j)
        alone = leverage._row_tests(model.h, np.array([j]))[0][0]
        for w in (stacked[j], report.witnesses.get(j)):
            if w is None:
                assert witness is None and report.verdicts[j] == "clean"
                continue
            assert w.basis == alone.basis
            assert abs(w.margin() - alone.margin()) <= 1e-12
            assert np.abs(w.v - alone.v).max() <= 1e-12
            assert abs(w.s - alone.s) <= 1e-12 * alone.q and abs(w.q - alone.q) <= 1e-12 * alone.q
        assert report.verdicts[j] == classify(witness) == classify(alone)
        assert margin == alone.margin()


def test_block_split_across_stacks_gives_same_report(monkeypatch):
    # Only the rows that their dual bound leaves uncertified are fitted.
    model = mesh_model(5, 3)
    whole = detect_all(model)
    fitted = model.m - whole.rows_certified
    assert (model.m, fitted) == (53, 13)
    calls = []

    def counted(h, z):
        calls.append(h.shape[0])
        return simplex(h, z)

    monkeypatch.setattr(leverage, "simplex", counted)
    per_row = model.h.itemsize * model.m * model.n
    for cap, rows in [(1, 1), (3 * per_row, 3), (per_row * model.m, model.m)]:
        monkeypatch.setattr(leverage, "_BATCH_BYTES", cap)
        calls.clear()
        split = detect_all(model)
        assert calls == [rows] * (fitted // rows) + ([fitted % rows] if fitted % rows else [])
        assert split.verdicts == whole.verdicts
        assert split.combos_examined == whole.combos_examined
        assert split.rows_certified == whole.rows_certified
        assert split.witnesses.keys() == whole.witnesses.keys()
        for j, w in whole.witnesses.items():
            assert split.witnesses[j].basis == w.basis
            assert np.array_equal(split.witnesses[j].v, w.v)
            assert (split.witnesses[j].s, split.witnesses[j].q) == (w.s, w.q)


@pytest.mark.parametrize("k, seed", [(5, 0), (5, 1), (5, 2), (5, 3), (8, 0), (8, 1)])
def test_gross_error_moves_fit_only_on_flagged_rows(k, seed):
    # The operational meaning of a verdict: a gross error on a leverage row
    # drags the LAV fit, one on a clean row is rejected; a boundary row may
    # do either.
    model = noisy_mesh_model(k, seed)
    verdicts = detect_all(model).verdicts
    base = solve_lav(model).theta_hat
    for j, verdict in enumerate(verdicts):
        z = model.z.copy()
        z[j] += 1e3
        moved = np.abs(solve_lav(model.with_z(z)).theta_hat - base).max() > 1.0
        if verdict == "leverage":
            assert moved, model.labels[j]
        elif verdict == "clean":
            assert not moved, model.labels[j]
