"""Property tests of the fit and the leverage test against their oracles.

Small integer matrices produce many exact ties (s = q, flat optima,
degenerate vertices), which is where an order-dependent or non-vertex
answer would show.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lavse import (
    MeasurementModel,
    detect_all,
    leverage_margin,
    leverage_oracle,
    matrix_rank,
    nullspace_unit_vector,
    solve_lav,
)
from lavse.leverage import classify

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
