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

from lavse import (
    MeasurementModel,
    detect_all,
    fixture_model,
    leverage,
    leverage_margin,
    load_model,
    matrix_rank,
    resolve_partition,
    solve_lav,
)
from lavse.experiments import ieee14_partitions
from lavse.lav import simplex
from lavse.leverage import LeverageWitness, _support_components, classify, detect_many
from lavse.model import model_from_dict
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


def row_witnesses(h, rows):
    """The witness of each given nonzero row of the matrix h, from ``_row_tests``."""
    rows = np.asarray(rows, dtype=np.intp)
    v, s, q, basis, _ = leverage._row_tests(h[None], np.zeros(rows.size, dtype=np.intp), rows)
    return [LeverageWitness(row_index=j, basis=tuple(b), v=vj, s=sj, q=qj)
            for j, b, vj, sj, qj in zip(rows.tolist(), basis.tolist(), v, s.tolist(), q.tolist())]


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


def test_batch_of_one_keeps_basis_and_pivots(tmp_path, monkeypatch):
    inverted = []  # the matrices of each np.linalg.inv call
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a))
    instances = _bench_inputs().write_instances(tmp_path, 1, [(10, True)] * len(GRID_PIVOTS))
    for inst, pivots in zip(instances, GRID_PIVOTS):
        model = load_model(inst.model)
        inverted.clear()
        sol = solve_lav(model)
        assert sol.iterations == pivots, inst.name
        # The basis rows never drift past the bound: one factorization per fit.
        assert inverted == [1], inst.name
        # The optimum is unique, so it has one basis: the N rows fitted exactly.
        assert not sol.degenerate and len(sol.zero_set) == model.n
        assert sol.objective == pytest.approx(_lp_objective(model), rel=1e-7)


def test_duals_are_a_dual_certificate(tmp_path):
    # u = sign(r) off the basis and the duals on it is feasible for the LP
    # dual (|u| <= 1, H'u = 0) and attains the fit's objective, z'u.  On
    # fits whose zero set is exactly the basis the signs of r are the
    # shifted ones the simplex priced, so u is its final dual.
    instances = _bench_inputs().write_instances(tmp_path, 1, [(10, True)] * len(GRID_PIVOTS))
    models = [load_model(inst.model) for inst in instances]
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n + 1, 5 * n + 2))
        models.append(MeasurementModel(rng.normal(size=(m, n)), rng.normal(size=m),
                                       tuple(f"r{i}" for i in range(m))))
    for model in models:
        fit = simplex(model.h[None], model.z[None])
        basis = fit.basis[0]
        assert solve_lav(model).zero_set == tuple(basis.tolist())
        r = model.z - model.h @ fit.theta[0]
        u = np.sign(r)
        u[basis] = fit.duals[0]
        objective = np.abs(r).sum()
        assert np.abs(u).max() <= 1 + 1e-9
        assert np.abs(model.h.T @ u).max() <= 1e-12 * np.linalg.norm(model.h, np.inf)
        assert objective - model.z @ u <= 1e-12 * objective
    # A consistent z ends the fit at its start, whose exact optimal dual is 0.
    for model in (mesh_model(5, 3), *models[len(instances):]):
        consistent = model.h @ rng.normal(size=model.n)
        assert not simplex(model.h[None], consistent[None]).duals.any()


def test_long_fit_matches_lp_reference():
    # 960 x 399 and 441 pivots: the basis inverse goes through hundreds of
    # rank-one updates on one factorization.
    inputs = _bench_inputs()
    rng = np.random.default_rng(1)
    model = model_from_dict(inputs.mesh_model(inputs.mesh_network(20, rng), rng, True))
    assert solve_lav(model).objective == pytest.approx(_lp_objective(model), rel=1e-7)


@pytest.mark.parametrize("k, seed", [(3, 0), (5, 3)])
def test_block_rows_equal_batch_of_one(k, seed):
    # detect_all solves every row of a block in one stack; leverage_margin
    # solves its row alone.  On a one-block model both fit the same system.
    model = mesh_model(k, seed)
    report = detect_all(model)
    stacked = row_witnesses(model.h, np.arange(model.m))
    assert sum(v != "clean" for v in report.verdicts) > 0
    for j in range(model.m):
        margin, witness = leverage_margin(model, j)
        alone = row_witnesses(model.h, [j])[0]
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
        monkeypatch.setattr("lavse.model._STACK_BYTES", cap)
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


def _block_diagonal(a, b):
    h = np.zeros((a.m + b.m, a.n + b.n))
    h[:a.m, :a.n] = a.h
    h[a.m:, a.n:] = b.h
    return MeasurementModel(h, np.concatenate([a.z, b.z]),
                            tuple(f"a.{x}" for x in a.labels) + tuple(f"b.{x}" for x in b.labels))


def _shared_shape_models():
    """Models whose support blocks share a shape, within and across models."""
    ieee14 = fixture_model("ieee14-dc")
    parts = [resolve_partition(ieee14, p) for p in ieee14_partitions(ieee14)]
    mesh = mesh_model(5, 3)
    return {
        "pmu": [fixture_model("threebus-pmu")],  # two 10 x 3 blocks
        "ieee14": [ieee14.submodel(p.measurement_indices, p.state_columns) for p in parts],
        "mesh": [_block_diagonal(mesh, mesh)],  # two 53 x 24 blocks
    }


def _per_block(model):
    """Each support block detected as a model of its own, in the model's indices.

    Returns the report's fields (witnesses as bytes) and, per block, its
    shape and the number of rows it fits.
    """
    verdicts, witnesses, pivots, certified, fitted = ["clean"] * model.m, {}, 0, 0, []
    for rows, cols in _support_components(model.h):
        rep = detect_all(model.submodel(rows, cols))
        pivots += rep.combos_examined
        certified += rep.rows_certified
        fitted.append(((len(rows), len(cols)), len(rows) - rep.rows_certified))
        for i, verdict in enumerate(rep.verdicts):
            verdicts[rows[i]] = verdict
        for i, w in rep.witnesses.items():
            v = np.zeros(model.n)
            v[cols] = w.v
            witnesses[rows[i]] = (tuple(rows[b] for b in w.basis), v.tobytes(), w.s, w.q)
    return (verdicts, witnesses, pivots, certified), fitted


def _fields(report):
    return (report.verdicts,
            {j: (w.basis, w.v.tobytes(), w.s, w.q) for j, w in report.witnesses.items()},
            report.combos_examined, report.rows_certified)


@pytest.mark.parametrize("case", ["pmu", "ieee14", "mesh", "all"])
@pytest.mark.parametrize("rows_per_stack", [1, 3])
def test_grouped_detection_equals_per_block(monkeypatch, case, rows_per_stack):
    # detect_many screens and fits the blocks of one shape together, across
    # blocks and models; each model's report must be bitwise the one its
    # blocks get alone, whichever stacks the fits share.
    cases = _shared_shape_models()
    models = sum(cases.values(), []) if case == "all" else cases[case]
    expected, fitted = zip(*(_per_block(model) for model in models))
    per_shape = {}
    for shape, rows in sum(fitted, []):
        per_shape[shape] = per_shape.get(shape, 0) + rows
    assert len(per_shape) < sum(map(len, fitted))  # some blocks share a shape
    shared = {"pmu": (10, 3), "ieee14": (13, 8), "mesh": (53, 24), "all": (13, 8)}[case]
    cap = 1 if rows_per_stack == 1 else rows_per_stack * 8 * shared[0] * shared[1]
    calls = []

    def counted(h, z):
        calls.append(h.shape[0])
        return simplex(h, z)

    monkeypatch.setattr(leverage, "simplex", counted)
    monkeypatch.setattr("lavse.model._STACK_BYTES", cap)
    reports = detect_many(models)
    assert [_fields(r) for r in reports] == list(expected)

    # The fits of each shape fill their stacks across the blocks.
    def stacks(rows_by_shape):
        sizes = []
        for (m, n), rows in rows_by_shape:
            k = max(1, cap // (8 * m * n))
            sizes += [k] * (rows // k) + ([rows % k] if rows % k else [])
        return sorted(sizes)

    assert sorted(calls) == stacks(per_shape.items())
    if rows_per_stack > 1:  # and not as each block on its own would
        assert sorted(calls) != stacks(sum(fitted, []))
    # The screen of a stack gives each block bitwise its bounds alone.
    subs = {}
    for model in models:
        for rows, cols in _support_components(model.h):
            subs.setdefault((len(rows), len(cols)), []).append(model.h[np.ix_(rows, cols)])
    for group in subs.values():
        lam = leverage._dual_bounds(np.stack(group))
        for b, sub in enumerate(group):
            assert lam[b].tobytes() == leverage._dual_bounds(sub).tobytes()


@pytest.mark.parametrize("together", [False, True], ids=["alone", "with-mesh"])
def test_witnesses_iterate_by_row_index(together):
    # The whole 14-bus model has two support blocks.  Its witnesses come in
    # increasing row index whatever shares its stacks, and each is bitwise
    # the one the model gets alone and the one its block gets on its own.
    ieee14 = fixture_model("ieee14-dc")
    assert len(_support_components(ieee14.h)) == 2
    alone = detect_all(ieee14)
    report = detect_many([ieee14, mesh_model(5, 3)])[0] if together else alone
    assert list(report.witnesses) == sorted(report.witnesses)
    assert _fields(report) == _fields(alone) == _per_block(ieee14)[0]


@pytest.mark.parametrize("source", [
    *(pytest.param((k, seed), id=f"{k}-{seed}")
      for k, seed in [(5, 0), (5, 1), (5, 2), (5, 3), (8, 0), (8, 1)]),
    pytest.param("ieee14-dc", id="ieee14-dc"),  # the whole 14-bus model
])
def test_gross_error_moves_fit_only_on_flagged_rows(source):
    # The operational meaning of a verdict: a gross error on a leverage row
    # drags the LAV fit, one on a clean row is rejected; a boundary row may
    # do either.
    model = fixture_model(source) if isinstance(source, str) else noisy_mesh_model(*source)
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
