"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single [ACCEPTANCE] pass/fail line (run with ``-s`` or
read the captured output).  Tolerances and time bounds are pinned here and
nowhere else.
"""

import time

import numpy as np

import lavse
from lavse import cli
from lavse.experiments import (
    SWEEP_ERRATA,
    reproduce_mc,
    reproduce_table1,
    reproduce_table2,
    reproduce_table4,
)
from lavse.leverage import classify
from lavse.model import load_matrix_csv

from oracles import lav_vertex_oracle, leverage_oracle

THREE_BUS_H = np.array(
    [[10, -10], [1, 0], [-1, 0], [0, -1], [0, 1], [11, -10], [-1, -1]], dtype=float
)

PMU_H1 = np.array([
    [0, 0, 1], [0, 1, 0], [1, 0, 0],
    [0, 10, -10], [1, 0, -1], [-1, 0, 1], [-1, 1, 0], [1, -1, 0],
    [1, 10, -11], [-2, 1, 1],
], dtype=float)

PMU_H2 = np.array([
    [0, 0, 1], [0, 1, 0], [1, 0, 0],
    [0, -10, 10], [-1, 0, 1], [1, 0, -1], [1, -1, 0], [-1, 1, 0],
    [-1, -10, 11], [2, -1, -1],
], dtype=float)


class _Criterion:
    def __init__(self, number: int, title: str, limit_s: float):
        self.number = number
        self.title = title
        self.limit_s = limit_s
        self.t0 = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"[ACCEPTANCE] criterion {self.number:2d} [{status}] "
              f"{self.title}{extra} [{elapsed:.2f}s < {self.limit_s:g}s]")
        assert ok, f"criterion {self.number}: {self.title}{extra}"
        assert elapsed < self.limit_s, f"criterion {self.number} exceeded {self.limit_s}s"


def _random_full_rank(rng, n, m):
    while True:
        h = rng.normal(size=(m, n))
        if lavse.matrix_rank(h) == n:
            return h


def test_criterion_01_three_bus_golden_build(tmp_path):
    c = _Criterion(1, "3-bus DC build emits the exact 7x2 integer matrix", 1.0)
    out = tmp_path / "h.csv"
    code = cli.main(["build", "threebus-dc", "--model", "dc",
                     "--format", "csv", "--output", str(out)])
    built = load_matrix_csv(out)
    c.finish(code == 0 and np.array_equal(built, THREE_BUS_H))


def test_criterion_02_direction_sweep_reproduction():
    c = _Criterion(2, "direction-sweep table matches all 35 entries within 1e-2", 1.0)
    result = reproduce_table4()
    ok = (
        result.passed
        and not result.mismatches()
        and sorted(result.errata_applied) == sorted(SWEEP_ERRATA)
    )
    c.finish(ok, f"{len(SWEEP_ERRATA)} entries matched via documented misprint corrections")


def test_criterion_03_three_bus_no_leverage():
    c = _Criterion(3, "3-bus model: zero leverage/boundary rows", 1.0)
    model = lavse.fixture_model("threebus-dc")
    report = lavse.detect_all(model)
    oracle = [classify(leverage_oracle(model, j)[1]) for j in range(model.m)]
    c.finish(report.flagged_rows() == [] and report.verdicts == oracle)


def test_criterion_04_pmu_blocks_exact_and_clean():
    c = _Criterion(4, "PMU blocks match entry-for-entry and detect clean", 1.0)
    im, re = lavse.pmu_blocks(lavse.fixture_network("threebus-pmu"))
    ok = np.array_equal(im.h, PMU_H1) and np.array_equal(re.h, PMU_H2)
    for block in (im, re):
        report = lavse.detect_all(block)
        ok = ok and report.flagged_rows() == []
    c.finish(ok)


def test_criterion_05_zero_residual_count_property():
    c = _Criterion(5, "1000 random models: >= N residuals below 1e-8", 30.0)
    rng = np.random.default_rng(20260501)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 3 * n + 1))
        h = _random_full_rank(rng, n, m)
        model = lavse.MeasurementModel(h, rng.normal(size=m),
                                       tuple(f"r{i}" for i in range(m)))
        sol = lavse.solve_lav(model)
        if np.count_nonzero(np.abs(sol.residuals) < 1e-8) < n:
            failures += 1
    c.finish(failures == 0, f"{failures} failures")


def test_criterion_06_oracle_equivalence():
    c = _Criterion(6, "simplex vs vertex oracle within 1e-9 on 200 instances", 10.0)
    rng = np.random.default_rng(20260502)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 11))
        h = _random_full_rank(rng, n, m)
        model = lavse.MeasurementModel(h, rng.normal(size=m),
                                       tuple(f"r{i}" for i in range(m)))
        gap = abs(lavse.solve_lav(model).objective - lav_vertex_oracle(model).objective)
        worst = max(worst, gap)
    c.finish(worst < 1e-9, f"worst gap {worst:.2e}")


def test_criterion_07_midpoint_convexity():
    c = _Criterion(7, "midpoint convexity over 10^4 random triples", 5.0)
    rng = np.random.default_rng(20260503)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n, 3 * n + 1))
        h = rng.normal(size=(m, n))
        z = rng.normal(size=m)
        t1 = rng.normal(size=n)
        t2 = rng.normal(size=n)
        f = lambda t: float(np.abs(z - h @ t).sum())
        slack = 0.5 * (f(t1) + f(t2)) - f(0.5 * (t1 + t2))
        worst = min(worst, slack)
    c.finish(worst >= -1e-12, f"worst slack {worst:.2e}")


def test_criterion_08_combination_count():
    c = _Criterion(8, "candidate-basis count reproduces 1.6651e11", 0.5)
    value = lavse.combination_count(43, 27)
    c.finish(f"{value:.4e}" == "1.6651e+11", f"exact value {value}")


def test_criterion_09_projection_matrix_suite():
    c = _Criterion(9, "projection invariants over 500 random models", 10.0)
    rng = np.random.default_rng(20260504)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 3 * n + 1))
        h = _random_full_rank(rng, n, m)
        model = lavse.MeasurementModel(h, np.zeros(m), tuple(f"r{i}" for i in range(m)))
        d = lavse.projection_matrix(model)
        ok = ok and np.max(np.abs(d.p - d.p.T)) < 1e-10
        ok = ok and np.max(np.abs(d.p @ d.p - d.p)) < 1e-8
        ok = ok and np.all(d.diag >= -1e-10) and np.all(d.diag <= 1 + 1e-10)
        ok = ok and abs(np.trace(d.p) - n) < 1e-8
        if not ok:
            break
    c.finish(ok)


def test_criterion_10_ps_classification():
    c = _Criterion(10, "projection statistics flag exactly measurements 1 and 6", 1.0)
    result = reproduce_table2()
    report_cutoffs = np.round(result.computed_cutoff, 3)
    ok = (
        result.computed_flagged == (0, 5)
        and np.array_equal(report_cutoffs,
                           [7.378, 5.024, 5.024, 5.024, 5.024, 7.378, 7.378])
        and list(result.computed_dof) == [2, 1, 1, 1, 1, 2, 2]
    )
    c.finish(ok, "PS values variant-dependent by design; classification exact")


def test_criterion_11_monte_carlo_agreement():
    c = _Criterion(11, "detector vs estimate deviation agree >= 95% (2000 trials)", 120.0)
    result = reproduce_mc(trials=2000, seed=20260809)
    c.finish(result.passed, f"agreement {result.agreement:.4f} over {result.eligible} trials")


def test_criterion_12_ieee14_partitioned_reproduction():
    c = _Criterion(12, "14-bus partitioned classification vs reference", 600.0)
    result = reproduce_table1()
    ok = (
        result.passed
        and result.data_independent
        and result.agreement_tie_aware >= 0.9
        and result.strict_false_positives == []
        and result.strict_false_negatives == []
        and result.non_tie_boundaries == []
    )
    by_label = {r.label: r for r in result.rows}
    ok = ok and by_label["P_flow7-8"].merged_ours in ("leverage", "boundary")
    c.finish(ok, f"tie-aware {result.agreement_tie_aware:.3f}, "
                 f"strict {result.agreement_strict:.3f}, "
                 f"conservative {result.agreement_conservative:.3f}; "
                 f"every residual disagreement is an exact s=q tie")
