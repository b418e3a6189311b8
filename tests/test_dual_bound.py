"""The dual bound that proves a row clean before any leverage fit.

``detect_all`` fits only the rows whose hat-matrix dual bound lam falls
short of ``_CERTIFY``.  Every row it certifies must be clean under the exact
fit, and every bound it reports must hold: the best basis's margin is at
most 1 - lam.
"""

import numpy as np
from hypothesis import given

from lavse import (
    MeasurementModel,
    detect_all,
    fixture_model,
    leverage_oracle,
    load_model,
    resolve_partition,
)
from lavse.experiments import ieee14_partitions
from lavse.leverage import (
    BOUNDARY,
    CLEAN,
    LEVERAGE,
    _CERTIFY,
    _dual_bounds,
    _row_tests,
    _support_components,
    classify,
)

from test_meshes import _bench_inputs, mesh_model
from test_model import THREE_BUS_H
from test_properties import SETTINGS, integer_models

STACK = 32  # rows per exact fit, to bound memory on the 10x10 mesh


def _slack(lam):
    # The bound holds up to its residual correction (at most 1e-9 relative)
    # and the fit's rounding.
    return 1e-9 * (1.0 + lam) + 1e-12


def assert_sound(model):
    """Check the bound against the exact fit of every row, block by block.

    Returns the number of certified rows, which must be what ``detect_all``
    reports.
    """
    certified = 0
    for rows, cols in _support_components(model.h):
        sub = model.h[np.ix_(rows, cols)]
        lam = _dual_bounds(sub)
        exact = []
        for start in range(0, len(rows), STACK):
            part = np.arange(start, min(start + STACK, len(rows)))
            exact += _row_tests(np.broadcast_to(sub, (part.size,) + sub.shape), part)[0]
        for j, w in enumerate(exact):
            if lam[j] >= _CERTIFY:
                assert classify(w) == CLEAN, model.labels[rows[j]]
            if np.isfinite(lam[j]):
                assert w.margin() <= 1.0 - lam[j] + _slack(lam[j]), model.labels[rows[j]]
        certified += int(np.sum(lam >= _CERTIFY))
    assert detect_all(model).rows_certified == certified
    return certified


def test_ieee14_whole_and_partitions():
    model = fixture_model("ieee14-dc")
    assert assert_sound(model) == 18
    for part in ieee14_partitions(model):
        part = resolve_partition(model, part)
        assert_sound(model.submodel(part.measurement_indices, part.state_columns))


def test_three_bus_exact_tie_is_not_certified():
    # Row [7, 0] meets its best basis with s = q exactly: the dual optimum
    # is 1, so no multipliers reach _CERTIFY.
    h = np.vstack([THREE_BUS_H, [7.0, 0.0]])
    model = MeasurementModel(h, np.zeros(8), tuple(f"m{i}" for i in range(8)))
    assert assert_sound(model) == 7
    assert not _dual_bounds(h)[7] >= _CERTIFY
    assert detect_all(model).verdicts[7] == BOUNDARY
    assert assert_sound(fixture_model("threebus-dc")) == 6


def test_duplicated_rows_tie_is_not_certified():
    # Each copy of [1, 0] ties with the other (s = q), so its dual optimum
    # is 1; [0, 1] alone sees the second state (P_jj = 1).
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lam = _dual_bounds(h)
    assert np.abs(lam[:2] - 1.0).max() <= 1e-12 and np.isnan(lam[2])


def test_bench_detect_meshes(tmp_path):
    for seed in (1, 2, 3):
        for inst in _bench_inputs().write_instances(tmp_path / str(seed), seed, [(3, False)] * 4):
            assert assert_sound(load_model(inst.model)) > 0


def test_test_meshes():
    for k, seed in [(5, 0), (5, 3), (8, 0), (10, 0)]:
        assert assert_sound(mesh_model(k, seed)) > 0


def test_critical_row_is_never_certified():
    # A flow to a pendant bus is the only row that sees the bus's angle:
    # P_jj = 1, so 1 - P_jj and every P_ji are rounding noise, and their
    # ratio alone would certify some of these rows.  The residual check
    # refuses them all; each is a leverage row (s = 0).
    raw = 0
    for seed in range(20):
        h = mesh_model(3, seed).h
        rng = np.random.default_rng(seed)
        b, a = rng.uniform(3.0, 20.0), int(rng.integers(h.shape[1]))
        row = np.zeros(h.shape[1] + 1)
        row[[a, -1]] = b, -b
        h = np.vstack([np.hstack([h, np.zeros((h.shape[0], 1))]), row])
        q = np.linalg.qr(h)[0]
        p = q[-1] @ q.T
        assert abs(1.0 - p[-1]) <= 1e-15
        raw += (1.0 - p[-1]) / np.abs(p[:-1]).max() >= _CERTIFY
        assert not _dual_bounds(h)[-1] >= _CERTIFY
        model = MeasurementModel(h, np.zeros(h.shape[0]), tuple(f"r{i}" for i in range(h.shape[0])))
        assert detect_all(model).verdicts[-1] == LEVERAGE
    assert raw > 0


@SETTINGS
@given(integer_models())
def test_bound_holds_against_oracle(model):
    lam = _dual_bounds(model.h)
    for j in range(model.m):
        if np.isfinite(lam[j]):
            margin, witness = leverage_oracle(model, j)
            assert margin <= 1.0 - lam[j] + _slack(lam[j])
            if lam[j] >= _CERTIFY:
                assert classify(witness) == CLEAN
