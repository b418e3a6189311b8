"""Property tests of the fit and the leverage test against their oracles.

Small integer matrices produce many exact ties (s = q, flat optima,
degenerate vertices), which is where an order-dependent or non-vertex
answer would show.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lavse import (
    MeasurementModel,
    detect_all,
    leverage_margin,
    leverage_oracle,
    matrix_rank,
    nullspace_unit_vector,
    leverage,
    solve_lav,
)
from lavse.leverage import _row_tests, _support_components, classify

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def integer_models(draw, max_n=3, max_m=7):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(n, max_m))
    entries = st.integers(-3, 3)
    h = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    assume(matrix_rank(h) == n)
    z = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=float)
    return MeasurementModel(h, z, tuple(f"r{i}" for i in range(m)))


@SETTINGS
@given(integer_models())
def test_verdicts_equal_oracle(model):
    report = detect_all(model)
    for j in range(model.m):
        margin, witness = leverage_margin(model, j)
        oracle_margin, oracle_witness = leverage_oracle(model, j)
        assert classify(witness) == classify(oracle_witness) == report.verdicts[j]
        if np.isfinite(oracle_margin):
            assert abs(margin - oracle_margin) < 1e-9
        else:
            assert margin == oracle_margin
        if witness is not None:  # v comes from the fit; it is the basis's null vector
            basis_v = nullspace_unit_vector(model.h[list(witness.basis)])
            assert np.abs(witness.v - basis_v).max() < 1e-12


@SETTINGS
@given(integer_models(), st.randoms(use_true_random=False))
def test_row_permutation_permutes_verdicts(model, rnd):
    perm = list(range(model.m))
    rnd.shuffle(perm)
    shuffled = MeasurementModel(model.h[perm], model.z[perm], model.labels)
    verdicts = detect_all(model).verdicts
    assert detect_all(shuffled).verdicts == [verdicts[p] for p in perm]


@SETTINGS
@given(integer_models(), st.data())
def test_verdicts_invariant_under_column_change(model, data):
    # h_i . v = (h_i A) . (A^-1 v), so every ratio s/q is unchanged.
    n = model.n
    a = np.array(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                    min_size=n, max_size=n)), dtype=float)
    assume(abs(np.linalg.det(a)) >= 0.5)
    mixed = MeasurementModel(model.h @ a, model.z, model.labels)
    assert detect_all(mixed).verdicts == detect_all(model).verdicts


@SETTINGS
@given(integer_models(), st.data())
def test_verdicts_ignore_z(model, data):
    z = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=model.m,
                                    max_size=model.m)))
    before = detect_all(model)
    after = detect_all(model.with_z(z))
    assert after.verdicts == before.verdicts
    assert {j: w.basis for j, w in after.witnesses.items()} == \
        {j: w.basis for j, w in before.witnesses.items()}


@SETTINGS
@given(integer_models(max_n=4, max_m=10))
def test_fit_is_a_vertex(model):
    # The zero set of an optimal vertex holds N linearly independent rows.
    sol = solve_lav(model)
    assert matrix_rank(model.h[list(sol.zero_set)]) == model.n


def _same_witness(a, b):
    return (a.basis == b.basis and np.abs(a.v - b.v).max() <= 1e-12
            and abs(a.s - b.s) <= 1e-12 * b.q and abs(a.q - b.q) <= 1e-12 * b.q)


@SETTINGS
@given(integer_models())
def test_stacked_rows_equal_batch_of_one(model):
    # detect_all fits every row of a support block in one stack of the
    # simplex; leverage_margin fits its row alone.
    report = detect_all(model)
    one_block = len(_support_components(model.h)) == 1 and model.h.any(axis=1).all()
    stacked = _row_tests(np.broadcast_to(model.h, (model.m,) + model.h.shape),
                         np.arange(model.m))[0] if one_block else []
    for j in range(model.m):
        margin, witness = leverage_margin(model, j)
        assert report.verdicts[j] == classify(witness)
        batched = report.witnesses.get(j)
        assert (batched is None) == (witness is None)
        if witness is not None:
            assert abs(batched.margin() - margin) <= 1e-12
        if one_block:  # then both fit the same system for row j
            alone = _row_tests(model.h[None], np.array([j]))[0][0]
            assert _same_witness(stacked[j], alone)
            assert batched is None or _same_witness(batched, alone)


@SETTINGS
@given(integer_models(), st.integers(0, 3))
def test_stack_split_keeps_report(model, rows_per_stack):
    whole = detect_all(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(leverage, "_BATCH_BYTES", rows_per_stack * model.h.itemsize * model.m * model.n)
        split = detect_all(model)
    assert split.verdicts == whole.verdicts
    assert split.combos_examined == whole.combos_examined
    assert {j: (w.basis, w.v.tolist(), w.s, w.q) for j, w in split.witnesses.items()} == \
        {j: (w.basis, w.v.tolist(), w.s, w.q) for j, w in whole.witnesses.items()}
