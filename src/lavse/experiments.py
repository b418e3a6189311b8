"""Experiment runners that check the package against bundled reference results.

The reference data reproduced here comes with the two benchmark systems:

* a direction sweep of the inequality test over the 3-bus model (five null
  directions, both sides of the inequality for every row),
* projection-statistics results for the same model,
* the partitioned leverage classification of the 14-bus system,
* a randomized extra-row study that cross-validates the detector verdict
  against actual estimate deviation under a gross error.

Known misprints in the bundled direction-sweep table are handled through an
explicit errata list, and the comparison harness demonstrates the misprint
from the table's own internal sum identity rather than assuming it.

Both studies run their fits in stacks.  Table 1 detects the clean and the
corrupted 14-bus model, each from its own matrix, in one call of
``detect_partitioned_many``.  The extra-row study draws all its trials
first and stacks their augmented matrices as (T, M+1, N) arrays of
``model.stack_slices``; it then solves each stack's leverage fits as one
stack and its LAV fits as another, straight from the arrays, with no
per-trial model or solution object.  ``single_trial`` is a batch of one of
the same code.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonFinite
# Imports marked "traced" are not called here; bench/spans.py wraps them as
# experiments.<name>, so they stay importable from this module.
from .lav import simplex
from .lav import solve_lav  # traced
from .leverage import (
    BOUNDARY,
    CLEAN,
    LEVERAGE,
    Partition,
    PartitionedReport,
    detect_partitioned,  # traced
    detect_partitioned_many,
    detect_row,  # traced
    leverage_margin,  # traced
    leverage_margins,
)
from .model import MeasurementModel, stack_slices, validate_model
from .power import GrossErrorSpec, fixture_model, inject_gross_errors
from .projstats import compute_ps

# ---------------------------------------------------------------------------
# Reference data for the 3-bus direction sweep.
#
# The published table labels its columns (s, q) in the opposite order to the
# inequality's definition: the printed "s" column holds |h_j . v| and the
# printed "q" column holds sum_{i != j} |h_i . v|.  The comparison below
# maps the columns accordingly and keeps the inequality-side naming.
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT221 = math.sqrt(221.0)

SWEEP_DIRECTIONS: tuple[tuple[float, float], ...] = (
    (1 / _SQRT2, 1 / _SQRT2),
    (0.0, 1.0),
    (1.0, 0.0),
    (10 / _SQRT221, 11 / _SQRT221),   # printed rounded as (0.673; 0.74)
    (-1 / _SQRT2, 1 / _SQRT2),
)

# Printed (s-column, q-column) pairs, row-major over the 7 rows, one tuple
# of 7 pairs per direction.
SWEEP_PRINTED: tuple[tuple[tuple[float, float], ...], ...] = (
    ((0.0, 4.95), (0.707, 4.24), (0.707, 4.24), (0.707, 4.24),
     (0.707, 4.24), (0.707, 4.24), (1.414, 3.536)),
    ((10.0, 13.0), (0.0, 23.0), (0.0, 23.0), (1.0, 22.0),
     (1.0, 22.0), (10.0, 13.0), (1.0, 22.0)),
    ((10.0, 14.0), (1.0, 23.0), (1.0, 23.0), (0.0, 24.0),
     (0.0, 24.0), (11.0, 13.0), (1.0, 23.0)),
    ((0.672, 4.24), (0.672, 4.24), (0.672, 4.24), (0.74, 4.17),
     (0.74, 4.17), (0.0, 4.911), (1.413, 3.498)),
    ((1.141, 1.768), (0.707, 3.111), (0.707, 3.111), (0.707, 3.111),
     (0.707, 3.111), (1.485, 1.697), (0.0, 3.182)),
)

# Misprints in the last printed direction: every value >= 10 was printed
# with the decimal point shifted one place left, and the first row's s-cell
# additionally transposes 1.414 into 1.141.  Corrected values below are the
# printed digits un-shifted (and un-transposed); the sum-identity check in
# ``sweep_column_consistency`` substantiates the correction.
SWEEP_ERRATA: dict[tuple[int, int, str], tuple[float, str]] = {
    (0, 4, "s"): (14.14, "printed 1.141: transposed digits of 1.414, decimal shifted"),
    (0, 4, "q"): (17.68, "printed 1.768: decimal shifted"),
    (1, 4, "q"): (31.11, "printed 3.111: decimal shifted"),
    (2, 4, "q"): (31.11, "printed 3.111: decimal shifted"),
    (3, 4, "q"): (31.11, "printed 3.111: decimal shifted"),
    (4, 4, "q"): (31.11, "printed 3.111: decimal shifted"),
    (5, 4, "s"): (14.85, "printed 1.485: decimal shifted"),
    (5, 4, "q"): (16.97, "printed 1.697: decimal shifted"),
    (6, 4, "q"): (31.82, "printed 3.182: decimal shifted"),
}

SWEEP_TOL = 1e-2

# ---------------------------------------------------------------------------
# Reference projection-statistics results (3-bus): PS value, cutoff, dof.
# The PS values are reproduced for display only; the variant behind them is
# not derivable, so the check is classification-level.
# ---------------------------------------------------------------------------

PS_REFERENCE: tuple[tuple[float, float, int], ...] = (
    (16.77, 7.378, 2),
    (0.839, 5.024, 1),
    (0.839, 5.024, 1),
    (0.839, 5.024, 1),
    (0.839, 5.024, 1),
    (17.609, 7.378, 2),
    (1.677, 7.378, 2),
)
PS_REFERENCE_FLAGGED = (0, 5)

# ---------------------------------------------------------------------------
# Reference 14-bus partitioned classification: per measurement, whether its
# reference run was biased by a gross error, and the verdict in each
# partition ("LP" = leverage point, "clean" = analyzed and unflagged,
# None = not a member of that partition).
# ---------------------------------------------------------------------------

IEEE14_REFERENCE: tuple[tuple[str, bool, Optional[str], Optional[str]], ...] = (
    ("|V1|", False, "clean", None),
    ("P_inj3", True, "LP", None),
    ("Q_inj3", True, "LP", None),
    ("P_inj2", True, "LP", None),
    ("Q_inj2", True, "LP", None),
    ("P_inj1", False, "clean", None),
    ("Q_inj1", False, "clean", None),
    ("P_inj4", True, "LP", None),
    ("Q_inj4", True, "LP", None),
    ("P_flow5-4", True, "LP", None),
    ("Q_flow5-4", True, "LP", None),
    ("P_flow2-3", False, "clean", None),
    ("Q_flow2-3", False, "clean", None),
    ("P_flow1-2", False, "clean", None),
    ("Q_flow1-2", False, "clean", None),
    ("P_flow2-5", False, "clean", None),
    ("Q_flow2-5", False, "clean", None),
    ("P_inj14", True, None, "LP"),
    ("Q_inj14", True, None, "LP"),
    ("P_inj10", False, None, "clean"),
    ("Q_inj10", False, None, "clean"),
    ("P_inj8", True, "LP", "LP"),
    ("Q_inj8", False, "clean", "clean"),
    ("P_inj12", True, None, "LP"),
    ("Q_inj12", True, None, "LP"),
    ("P_inj13", False, None, "clean"),
    ("Q_inj13", False, None, "clean"),
    ("P_flow12-13", False, None, "clean"),
    ("Q_flow12-13", False, None, "clean"),
    ("P_flow13-14", False, None, "clean"),
    ("Q_flow13-14", False, None, "clean"),
    ("P_flow6-13", False, None, "clean"),
    ("Q_flow6-13", False, None, "clean"),
    ("P_flow10-9", False, None, "clean"),
    ("Q_flow10-9", False, None, "clean"),
    ("P_flow11-10", False, None, "clean"),
    ("Q_flow11-10", False, None, "clean"),
    ("P_flow6-11", True, None, "LP"),
    ("Q_flow6-11", True, None, "LP"),
    ("P_flow9-7", True, "LP", "LP"),
    ("Q_flow9-7", True, "LP", "LP"),
    ("P_flow7-8", False, "LP", "LP"),
    ("Q_flow7-8", False, "clean", "clean"),
    ("|V8|", False, "clean", "LP"),
)

# Gross error injected on every reference-biased row by the
# data-independence check of ``reproduce_table1``.
_TABLE1_GROSS_ERROR = 10.0


# ---------------------------------------------------------------------------
# Direction sweep.
# ---------------------------------------------------------------------------


@dataclass
class SweepCell:
    row: int
    direction: int
    lemma_s: float                # sum_{i != j} |h_i . v|
    lemma_q: float                # |h_j . v|
    printed_s: float              # printed cell feeding lemma_q (column swap)
    printed_q: float              # printed cell feeding lemma_s
    erratum: Optional[str]
    match: bool


@dataclass
class SweepResult:
    cells: list[SweepCell]
    printed_consistency: list[float]     # per direction, max sum-identity violation
    corrected_consistency: list[float]
    errata_applied: list[tuple[int, int, str]]
    passed: bool

    def mismatches(self) -> list[SweepCell]:
        return [c for c in self.cells if not c.match]

    def render(self) -> str:
        lines = ["row  direction                lemma_s    lemma_q   printed(s,q)    match"]
        for c in self.cells:
            d = SWEEP_DIRECTIONS[c.direction]
            note = f"  [{c.erratum}]" if c.erratum else ""
            lines.append(
                f"h{c.row + 1}   ({d[0]: .3f},{d[1]: .3f})   {c.lemma_s:8.4g}   {c.lemma_q:8.4g}"
                f"   ({c.printed_s:.4g}, {c.printed_q:.4g})   {'ok' if c.match else 'MISMATCH'}{note}"
            )
        lines.append(f"printed sum-identity violation per direction: "
                     f"{[round(x, 3) for x in self.printed_consistency]}")
        lines.append(f"after errata correction:                      "
                     f"{[round(x, 3) for x in self.corrected_consistency]}")
        lines.append(f"PASS: {self.passed}")
        return "\n".join(lines)


def sweep_values(model: MeasurementModel, direction) -> tuple[np.ndarray, np.ndarray]:
    """(lemma_s, lemma_q) per row for one direction.

    Row j's s sums the other rows' terms, its own zeroed, so no q can
    cancel them away.
    """
    v = np.asarray(direction, dtype=float)
    proj = np.abs(model.h @ v)
    return np.where(np.eye(proj.size, dtype=bool), 0.0, proj).sum(axis=1), proj


def sweep_column_consistency(pairs: Sequence[tuple[float, float]]) -> float:
    """Max violation of the identity q_j = sum_k(s_k) - s_j within a column.

    Each column of the printed table must satisfy it up to rounding; the
    misprinted column violates it by more than a factor-of-rounding amount,
    which is how the errata are substantiated without external data.
    """
    s_col = [p[0] for p in pairs]
    total = sum(s_col)
    return max(abs(q - (total - s)) for s, q in pairs)


def reproduce_table4() -> SweepResult:
    """Compare the 3-bus direction sweep against the printed reference."""
    model = fixture_model("threebus-dc")
    # The printed table with SWEEP_ERRATA applied, cell by cell.
    corrected = [[list(pair) for pair in column] for column in SWEEP_PRINTED]
    for (j, k, side), (value, _) in SWEEP_ERRATA.items():
        corrected[k][j][{"s": 0, "q": 1}[side]] = value
    cells: list[SweepCell] = []
    errata_applied = []
    for k, direction in enumerate(SWEEP_DIRECTIONS):
        lemma_s, lemma_q = sweep_values(model, direction)
        for j in range(model.m):
            printed_s, printed_q = SWEEP_PRINTED[k][j]
            target_s, target_q = corrected[k][j]
            applied = [(j, k, side) for side in "sq" if (j, k, side) in SWEEP_ERRATA]
            errata_applied.extend(applied)
            notes = [SWEEP_ERRATA[key][1] for key in applied]
            match = (abs(lemma_q[j] - target_s) <= SWEEP_TOL + 1e-12
                     and abs(lemma_s[j] - target_q) <= SWEEP_TOL + 1e-12)
            cells.append(SweepCell(
                row=j, direction=k,
                lemma_s=float(lemma_s[j]), lemma_q=float(lemma_q[j]),
                printed_s=printed_s, printed_q=printed_q,
                erratum="; ".join(notes) or None, match=match,
            ))

    printed_consistency = [sweep_column_consistency(column) for column in SWEEP_PRINTED]
    corrected_consistency = [sweep_column_consistency(column) for column in corrected]

    # The correction is legitimate only if the printed misprinted column
    # really breaks the sum identity while the corrected one restores it.
    errata_justified = (
        max(printed_consistency[:4]) <= 0.05
        and printed_consistency[4] >= 1.0
        and max(corrected_consistency) <= 0.05
    )
    passed = errata_justified and all(c.match for c in cells)
    return SweepResult(cells, printed_consistency, corrected_consistency,
                       errata_applied, passed)


# ---------------------------------------------------------------------------
# Projection statistics comparison.
# ---------------------------------------------------------------------------


@dataclass
class PSComparison:
    labels: tuple[str, ...]
    computed_ps: np.ndarray
    computed_cutoff: np.ndarray
    computed_dof: np.ndarray
    computed_flagged: tuple[int, ...]
    reference_ps: tuple[float, ...]
    reference_flagged: tuple[int, ...]
    passed: bool

    def render(self) -> str:
        lines = ["measurement   ours_PS   ref_PS   cutoff  d  flagged(ours/ref)"]
        for i, lab in enumerate(self.labels):
            lines.append(
                f"{lab:<12} {self.computed_ps[i]:9.4g} {self.reference_ps[i]:8.4g}"
                f" {self.computed_cutoff[i]:8.4g} {self.computed_dof[i]:2d}"
                f"  {'yes' if i in self.computed_flagged else 'no'}/"
                f"{'yes' if i in self.reference_flagged else 'no'}"
            )
        lines.append("note: PS values are variant-dependent and compared at the "
                     "classification level only; cutoffs and dof are exact")
        lines.append(f"PASS: {self.passed}")
        return "\n".join(lines)


def reproduce_table2() -> PSComparison:
    """Classification-level check of projection statistics on the 3-bus model."""
    model = fixture_model("threebus-dc")
    report = compute_ps(model)
    flagged = tuple(int(i) for i in np.flatnonzero(report.flagged))
    ref_ps = tuple(row[0] for row in PS_REFERENCE)
    ref_cutoff = np.array([row[1] for row in PS_REFERENCE])
    ref_dof = np.array([row[2] for row in PS_REFERENCE])
    passed = (
        flagged == PS_REFERENCE_FLAGGED
        and np.array_equal(report.dof, ref_dof)
        and np.all(np.abs(np.round(report.cutoff, 3) - ref_cutoff) <= 5e-4)
    )
    return PSComparison(
        labels=model.labels,
        computed_ps=report.ps,
        computed_cutoff=report.cutoff,
        computed_dof=report.dof,
        computed_flagged=flagged,
        reference_ps=ref_ps,
        reference_flagged=PS_REFERENCE_FLAGGED,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# 14-bus partitioned classification comparison.
# ---------------------------------------------------------------------------


@dataclass
class Ieee14Row:
    label: str
    reference: dict[str, Optional[str]]     # partition -> "LP"/"clean"/None
    ours: dict[str, Optional[str]]          # partition -> verdict/None
    merged_reference_flagged: bool
    merged_ours: str
    exact_tie: bool
    outcome: str                            # "match" / "tie" / "mismatch"


@dataclass
class Ieee14Result:
    rows: list[Ieee14Row]
    report: PartitionedReport
    agreement_conservative: float    # boundary counted as flagged
    agreement_strict: float          # only leverage counted as flagged
    agreement_tie_aware: float       # exact-tie boundary rows match either verdict
    strict_false_positives: list[str]
    strict_false_negatives: list[str]
    non_tie_boundaries: list[str]
    data_independent: bool
    passed: bool

    def render(self) -> str:
        lines = ["measurement   ref(blue/red)        ours(blue/red)           outcome"]
        for r in self.rows:
            ref = f"{r.reference.get('blue') or '.':<6}/{r.reference.get('red') or '.':<6}"
            got = f"{r.ours.get('blue') or '.':<9}/{r.ours.get('red') or '.':<9}"
            lines.append(f"{r.label:<13} {ref:<20} {got:<24} {r.outcome}")
        lines.append(f"agreement: conservative={self.agreement_conservative:.3f} "
                     f"strict={self.agreement_strict:.3f} tie-aware={self.agreement_tie_aware:.3f}")
        lines.append(f"strict false positives: {self.strict_false_positives or 'none'}")
        lines.append(f"strict false negatives: {self.strict_false_negatives or 'none'}")
        lines.append(f"flags invariant under injected gross errors: {self.data_independent}")
        lines.extend(self.report.consistency_notes)
        lines.append(f"PASS: {self.passed}")
        return "\n".join(lines)


def ieee14_partitions(model: MeasurementModel) -> list[Partition]:
    """Blue/red membership derived from the bundled reference classification."""
    blue = tuple(i for i, row in enumerate(IEEE14_REFERENCE) if row[2] is not None)
    red = tuple(i for i, row in enumerate(IEEE14_REFERENCE) if row[3] is not None)
    assert tuple(r[0] for r in IEEE14_REFERENCE) == model.labels
    return [Partition("blue", blue), Partition("red", red)]


def reproduce_table1() -> Ieee14Result:
    """Blue/red partitioned detection on the 14-bus model against its reference verdicts.

    Agreement is reported under three mappings of the three-way verdict to
    the reference's binary one.  Exact-tie boundary rows (s equals q to
    machine precision) are knife-edge cases: the strict form of the
    inequality rejects them and the non-strict form accepts them, so under
    the tie-aware count they are compatible with either reference verdict.
    The data-independence check re-runs detection after injecting gross
    errors on every reference-biased row and requires identical verdicts.
    """
    model = fixture_model("ieee14-dc")
    partitions = ieee14_partitions(model)
    corrupted = inject_gross_errors(
        model, [GrossErrorSpec(label, _TABLE1_GROSS_ERROR)
                for label, biased, _, _ in IEEE14_REFERENCE if biased])
    # Both models are detected, each from its own matrix, in one call.
    report, report2 = detect_partitioned_many([model, corrupted], partitions)

    # Labels with a boundary verdict that is not an exact tie in some partition.
    non_tie_boundary = {model.labels[part.measurement_indices[local]]
                        for part, rep in report.partition_reports
                        for local, w in rep.witnesses.items()
                        if rep.verdicts[local] == BOUNDARY and not w.is_tie()}

    rows: list[Ieee14Row] = []
    for label, _, ref_blue, ref_red in IEEE14_REFERENCE:
        ref_flag = "LP" in (ref_blue, ref_red)
        merged = report.merged_verdicts.get(label, CLEAN)
        exact_tie = merged == BOUNDARY and label not in non_tie_boundary
        # A boundary row is flagged conservatively and clean strictly, so it
        # always disagrees with the reference under one of the two mappings.
        if merged == BOUNDARY:
            outcome = "tie" if exact_tie else "mismatch"
        else:
            outcome = "match" if (merged == LEVERAGE) == ref_flag else "mismatch"
        rows.append(Ieee14Row(
            label=label, reference={"blue": ref_blue, "red": ref_red},
            ours=report.label_verdicts.get(label, {}), merged_reference_flagged=ref_flag,
            merged_ours=merged, exact_tie=exact_tie, outcome=outcome,
        ))

    n = len(IEEE14_REFERENCE)
    data_independent = report2.label_verdicts == report.label_verdicts

    strict_fp = [r.label for r in rows if r.merged_ours == LEVERAGE and not r.merged_reference_flagged]
    strict_fn = [r.label for r in rows if r.merged_ours == CLEAN and r.merged_reference_flagged]
    non_tie = [r.label for r in rows if r.merged_ours == BOUNDARY and not r.exact_tie]
    agreement_tie_aware = sum(r.outcome != "mismatch" for r in rows) / n
    passed = (
        data_independent
        and agreement_tie_aware >= 0.9
        and not strict_fp
        and not strict_fn
        and not non_tie
    )
    return Ieee14Result(
        rows=rows,
        report=report,
        agreement_conservative=sum(
            (r.merged_ours != CLEAN) == r.merged_reference_flagged for r in rows) / n,
        agreement_strict=sum(
            (r.merged_ours == LEVERAGE) == r.merged_reference_flagged for r in rows) / n,
        agreement_tie_aware=agreement_tie_aware,
        strict_false_positives=strict_fp,
        strict_false_negatives=strict_fn,
        non_tie_boundaries=non_tie,
        data_independent=data_independent,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Randomized extra-row study.
#
# A zero-mean Gaussian row is appended to the
# 3-bus matrix, measurements are synthesized from random states, a gross
# error is added to the extra row's measurement, and the detector's verdict
# on that row is compared with whether the estimate actually deviates from
# the generating states.
# ---------------------------------------------------------------------------

# Trials and seed of ``reproduce_mc`` when none are given.
MC_TRIALS = 2000
MC_SEED = 20260809
ROW_VARIANCE = 30.0
STATE_VARIANCE = 1.0
GROSS_ERROR = 10.0
# Trials with |margin| below BOUNDARY_BAND are left out of the agreement.
BOUNDARY_BAND = 0.05
# The estimate deviates when some state moves by more than DEVIATION_TOL.
DEVIATION_TOL = 0.1


@dataclass
class MCTrialRecord:
    extra_row: np.ndarray
    detector_flagged: bool
    lav_deviated: bool
    s_q_margin: float
    near_boundary: bool


def single_trial(base: MeasurementModel, extra_row, theta_true) -> MCTrialRecord:
    """Run one augmented-model trial; pure given its inputs."""
    return _trials(base, [extra_row], [theta_true])[0]


def _trials(base: MeasurementModel, extra_rows, thetas_true) -> list[MCTrialRecord]:
    """One record per (extra row, true state) pair.

    Trial k's matrix is the base with extra_rows[k] appended, and its
    measurements are that matrix times thetas_true[k], with GROSS_ERROR
    added to the extra row's.  All the matrices have one shape, so they
    stack as one array; the leverage fits of all the trials run as one
    stack, and their LAV fits as another, and a fit's result does not
    depend on its stack.  Appending a row cannot lower the column rank, so
    the base is the only matrix that needs a rank check.
    """
    validate_model(base)
    m, n = base.h.shape
    extra_rows = [np.asarray(row, dtype=float).reshape(-1) for row in extra_rows]
    thetas_true = [np.asarray(theta, dtype=float).reshape(-1) for theta in thetas_true]
    if len(extra_rows) != len(thetas_true) or any(x.shape != (n,) for x in extra_rows + thetas_true):
        raise DimensionMismatch(f"need one true state per extra row, each of length {n}")
    h = np.empty((len(extra_rows), m + 1, n))
    h[:, :m] = base.h
    h[:, m] = np.reshape(extra_rows, (-1, n))
    # Each trial's measurements are its own matrix-vector product; a
    # non-finite one is rejected below, so it needs no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        z = np.array([h_k @ theta for h_k, theta in zip(h, thetas_true)]).reshape(-1, m + 1)
    z[:, m] += GROSS_ERROR
    if not (np.isfinite(h).all() and np.isfinite(z).all()):
        raise NonFinite("extra rows and their measurements must be finite")

    margins = leverage_margins(h, [m] * len(h))
    theta_hat = simplex(h, z)[0]
    deviated = np.abs(theta_hat - np.reshape(thetas_true, (-1, n))).max(axis=1)
    return [MCTrialRecord(extra_row=row, detector_flagged=witness is not None,
                          lav_deviated=dev > DEVIATION_TOL, s_q_margin=margin,
                          near_boundary=abs(margin) < BOUNDARY_BAND)
            for row, (margin, witness), dev in zip(extra_rows, margins, deviated.tolist())]


def run_monte_carlo(trials: int, seed: int, csv_path=None) -> list[MCTrialRecord]:
    """Seeded trials of ``single_trial`` on the 3-bus model; optionally emits a CSV.

    All the trials are drawn first and then run together (``_trials``),
    in stacks of ``stack_slices``, a trial being its (M+1) x N floats.  CSV
    columns: h81, h82, flagged, deviated, margin.
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    if seed < 0:
        raise InvalidArgument("seed must be >= 0")
    base = fixture_model("threebus-dc")
    # Trial k draws its extra row, then its state: the stream of one
    # rng.normal call of each per trial, bit for bit.
    draws = np.random.default_rng(seed).standard_normal((trials, 2, base.n))
    extras = math.sqrt(ROW_VARIANCE) * draws[:, 0]
    thetas = math.sqrt(STATE_VARIANCE) * draws[:, 1]
    records = []
    for part in stack_slices(trials, draws.itemsize * (base.m + 1) * base.n):
        records += _trials(base, extras[part], thetas[part])
    if csv_path is not None:
        write_mc_csv(records, seed, csv_path)
    return records


def write_mc_csv(records: Sequence[MCTrialRecord], seed: int, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# trials={len(records)} seed={seed} row_variance={ROW_VARIANCE} "
                 f"state_variance={STATE_VARIANCE} gross_error={GROSS_ERROR} "
                 f"deviation_tol={DEVIATION_TOL} boundary_band={BOUNDARY_BAND}\n")
        writer = csv.writer(fh)
        writer.writerow(["h81", "h82", "flagged", "deviated", "margin"])
        for rec in records:
            writer.writerow([
                f"{rec.extra_row[0]:.17g}", f"{rec.extra_row[1]:.17g}",
                int(rec.detector_flagged), int(rec.lav_deviated),
                f"{rec.s_q_margin:.17g}",
            ])


@dataclass
class MCResult:
    records: list[MCTrialRecord]
    agreement: float
    eligible: int
    passed: bool

    def render(self) -> str:
        flagged = sum(r.detector_flagged for r in self.records)
        deviated = sum(r.lav_deviated for r in self.records)
        return "\n".join([
            f"trials: {len(self.records)} (flagged {flagged}, deviated {deviated})",
            f"agreement outside boundary band: {self.agreement:.4f} over {self.eligible} trials",
            f"PASS: {self.passed}",
        ])


def reproduce_mc(trials: int = MC_TRIALS, seed: int = MC_SEED, csv_path=None) -> MCResult:
    """Detector-vs-deviation agreement >= 95% outside a 5% boundary band."""
    records = run_monte_carlo(trials, seed, csv_path=csv_path)
    eligible = [r for r in records if not r.near_boundary]
    hits = sum(r.detector_flagged == r.lav_deviated for r in eligible)
    agreement = hits / len(eligible) if eligible else float("nan")
    return MCResult(records, agreement, len(eligible), passed=agreement >= 0.95)
