"""Leverage-point identification for absolute-value state estimation.

A row h_j is flagged when some N-1 other rows admit a unit null vector v
with

    s = sum_{i != j} |h_i . v|   <=   |h_j . v| = q,

meaning a single bad measurement on row j can drag the whole fit.  The test
reads only the model matrix, never the measurements, so its output is
independent of any gross errors in z.

Each candidate basis of N-1 rows is a vertex of the LAV problem

    min sum_{i != j} |h_i . v|   subject to   h_j . v = 1,

whose optimum is the smallest s/q over all bases (the LP view of Giloni and
Padberg, SIAM J. Optim. 14(4), 2004).  Eliminating the coordinate of v with
the largest |h_jc| turns it into an (M-1) x (N-1) LAV fit, which runs
through the same simplex as ``solve_lav`` (``_row_tests``).  The fit's N-1
exactly fitted rows are the witness basis and the fit itself gives v; s
and q are recomputed over every row and graded by ``classify`` on the
relative margin (q - s)/q, which does not change when H is multiplied by
a constant.  The verdict thus comes from the best basis, so it is canonical,
and the cost is polynomial rather than C(M-1, N-1) bases per row.
``detect_many`` first splits each model into connected blocks of the
row-support graph: rows in one block are orthogonal to null directions of
another, so per-block detection yields the same verdicts on smaller fits.

Most rows need no fit at all.  Row j's LP has the dual

    max lam   subject to   sum_{i != j} u_i h_i = lam h_j,   |u_i| <= 1,

and any feasible (u, lam) proves s/q >= lam for every basis, so the
margin (q - s)/q is at most 1 - lam.  The hat matrix P = Q Q^T of a block
(h = QR) fixes h, P h = h, which gives every row such multipliers at once:
u_i = P_ji / max_{i != j} |P_ji| and lam = (1 - P_jj) / max_{i != j} |P_ji|.
A row whose lam is at least 1 + 1e-6, and whose multipliers meet the
equality up to rounding, is certified clean (``_dual_bounds``).  Only the
other rows go to the simplex, in the stacks of ``model.stack_slices``.

Blocks of one shape are screened and fitted together, across the blocks
of a model, the partitions of ``detect_partitioned`` and all the models
given to ``detect_many``: at these sizes a simplex call costs its numpy
dispatch more than its arithmetic.  ``detect_many`` builds each fitted
row's witness once, in its model's indices, from the arrays that
``_row_tests`` returns.  A block's bounds and a fit's pivots and result do
not depend on their stack, so every report, witnesses included, is the
one its model gets alone; ``detect_all`` is ``detect_many`` of one model.
``leverage_margins`` fits one given row of each matrix of a stack, without
blocks or dual bounds, as the extra-row study does for all its trials;
``leverage_margin`` is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import EmptyPartition, IndexOutOfRange, InvalidArgument, NonFinite, RankDeficient
from .lav import simplex
from .model import (
    MeasurementModel,
    array,
    fields,
    integral,
    matrix_rank,
    oriented,
    pow2_scaled,
    read_json,
    stack_slices,
    string,
    validate_model,
)

LEVERAGE = "leverage"
BOUNDARY = "boundary"
CLEAN = "clean"

# Verdict thresholds on the relative margin mu = (q - s)/q of the best
# basis: leverage when mu >= _STRICT, boundary (an exact tie up to rounding
# or a near miss) when -_TIE <= mu < _STRICT, clean below.
_STRICT = 1e-6
_TIE = 1e-9

# A row is proven clean, without a fit, when its dual bound lam on s/q is
# at least _CERTIFY: then mu <= 1 - lam <= -1e-6, three orders of magnitude
# below -_TIE.  The bound counts only when its multipliers meet the
# equality up to a correction of size at most _RESIDUAL (see
# ``_dual_bounds``).
_CERTIFY = 1.0 + 1e-6
_RESIDUAL = 1e-9


def combination_count(m: int, n: int) -> int:
    """Exact number of candidate bases per row: C(m-1, n-1).

    Arbitrary-precision; this is the quantity that explodes for large
    systems and that the per-row LAV fit avoids enumerating.
    """
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (m, n)):
        raise InvalidArgument("m and n must be integers")
    if not m >= n >= 1:
        raise InvalidArgument(f"need m >= n >= 1, got m={m}, n={n}")
    return math.comb(int(m) - 1, int(n) - 1)


@dataclass(frozen=True)
class LeverageWitness:
    """Certificate that a row passes the inequality test.

    basis holds the row indices whose null vector is v; s and q are the two
    sides of the inequality recomputed over every other row of the model
    the detection ran on.  From ``detect_all``, basis is the N_b - 1 tight
    rows of the row's support block, N_b the block's column count: their
    null space within the block's columns is the line through v, and v is
    zero on every other column.  From ``leverage_margin``, basis is N - 1
    rows of the whole model.
    """

    row_index: int
    basis: tuple[int, ...]
    v: np.ndarray
    s: float
    q: float

    def margin(self) -> float:
        """(q - s)/q, or -inf unless q > 0 (q is NaN for a row that vanishes under scaling)."""
        return (self.q - self.s) / self.q if self.q > 0 else -np.inf

    def is_tie(self) -> bool:
        """s equals q up to rounding: |margin| <= _TIE."""
        return abs(self.margin()) <= _TIE


@dataclass
class LeverageReport:
    """Per-row classification plus solver bookkeeping.

    rows_certified counts the rows proven clean by their dual bound, which
    get no fit; combos_examined counts the simplex pivots summed over the
    fits of the other rows, and the class constant combos_skipped_degenerate
    is 0.  The last two keep the names of the basis-scan counters they
    replace.
    witnesses holds the flagged rows' witnesses, by increasing row index.
    """

    labels: tuple[str, ...]
    verdicts: list[str]
    witnesses: dict[int, LeverageWitness]
    combos_examined: int
    rows_certified: int = 0
    combos_skipped_degenerate: ClassVar[int] = 0

    def flagged_rows(self) -> list[int]:
        return [i for i, v in enumerate(self.verdicts) if v in (LEVERAGE, BOUNDARY)]

    def to_dict(self) -> dict:
        rows = []
        for i, verdict in enumerate(self.verdicts):
            entry = {"index": i, "label": self.labels[i], "verdict": verdict}
            w = self.witnesses.get(i)
            if w is not None:
                entry["witness"] = {
                    "basis": list(w.basis),
                    "v": w.v.tolist(),
                    "s": w.s,
                    "q": w.q,
                }
            rows.append(entry)
        return {"rows": rows, "combos_examined": self.combos_examined,
                "rows_certified": self.rows_certified}

    def render_table(self) -> str:
        width = max(len(s) for s in self.labels + ("measurement",))
        lines = [f"{'measurement':<{width}}  {'verdict':<9}  {'s':>10}  {'q':>10}"]
        for i, verdict in enumerate(self.verdicts):
            w = self.witnesses.get(i)
            s = f"{w.s:.4g}" if w else "-"
            q = f"{w.q:.4g}" if w else "-"
            lines.append(f"{self.labels[i]:<{width}}  {verdict:<9}  {s:>10}  {q:>10}")
        lines.append(f"{self.combos_examined} simplex pivots over the per-row fits; "
                     f"{self.rows_certified} rows certified by their dual bound")
        return "\n".join(lines)


def classify(witness: Optional[LeverageWitness]) -> str:
    """Verdict of a row from the witness of its best basis (None: clean).

    The margin grades it: -inf, as when s alone overflowed, is clean, and
    an undefined (NaN) margin, as when q overflowed, raises NonFinite.
    """
    mu = -np.inf if witness is None else witness.margin()
    if mu >= _STRICT:
        return LEVERAGE
    if mu >= -_TIE:
        return BOUNDARY
    if math.isnan(mu):
        raise NonFinite(f"row {witness.row_index}: s = {witness.s} and q = {witness.q} "
                        "give no margin")
    return CLEAN


def _graded(witness: Optional[LeverageWitness]) -> tuple[float, Optional[LeverageWitness]]:
    """Margin of the best basis, and its witness unless the row is clean."""
    if witness is None:
        return -np.inf, None
    return witness.margin(), None if classify(witness) == CLEAN else witness


def _row_tests(h: np.ndarray, fit: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fit row rows[i] of h[fit[i]] for every i, in stacks of ``stack_slices``.

    Returns each fit's unit null vector v, both sides s and q of the
    inequality, its N-1 basis rows (indices into h's rows) and its pivots.
    h is (K, M, N) and each row must be nonzero.  The best basis of row j
    is the vertex of min sum_{i != j} |h_i . v| subject to h_j . v = 1.
    With c the largest |h_jc| (partial pivoting), v_c = (1 - sum_{k != c}
    h_jk v_k) / h_jc, so h_i . v = r_i - g_i . w with r_i = h_ic / h_jc,
    g_i = r_i h_j,-c - h_i,-c and w = v_-c: a LAV fit of r on g.  g has
    full column rank whenever h does, since g w = 0 forces h v = 0.  The
    fit's w, completed by v_c and scaled to unit length, is v.  Every fit's
    g is (M-1) x (N-1), so the fits run as stacks of ``simplex``.

    A row that underflows under its stack's power-of-two scaling divides by
    a zero or subnormal h_jc and gets a NaN q, hence a margin of -inf.  It
    is clean: a leverage row j has |h v|_1 <= 2|h_j . v|, which full column
    rank allows only if |h_j| is at least about 1e-12 of the largest entry.
    """
    fits, m, n = rows.size, h.shape[1], h.shape[2]
    v, s, q = np.empty((fits, n)), np.empty(fits), np.empty(fits)
    basis = np.empty((fits, n - 1), dtype=np.intp)
    pivots = np.empty(fits, dtype=np.intp)
    for part in stack_slices(fits, h.itemsize * m * n):  # a fit is its block's M x N floats
        # This stack's matrices, scaled so that neither the fit nor v depends
        # on the scale of h, and its rows.
        hs, exponent = pow2_scaled(h[fit[part]], (1, 2))
        j = rows[part]
        f = np.arange(j.size)
        hj = hs[f, j]
        c = np.argmax(np.abs(hj), axis=1)
        others = np.arange(m - 1) + (np.arange(m - 1) >= j[:, None])  # every row but j
        rest = np.arange(n - 1) + (np.arange(n - 1) >= c[:, None])  # every column but c
        lead = hj[f, c]
        hj_rest = hj[f[:, None], rest]
        # A lead that is zero or subnormal leaves NaN or inf in the fit and
        # in q, and s overflows to inf past float range: classify grades both.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = hs[f[:, None], others, c[:, None]] / lead[:, None]
            g = r[..., None] * hj_rest[:, None] - hs[f[:, None, None], others[..., None],
                                                    rest[:, None]]
            lp = simplex(g, r)
            vp = np.empty((j.size, n))
            vp[f[:, None], rest] = lp.theta
            vp[f, c] = (1.0 - (hj_rest[:, None] @ lp.theta[..., None])[:, 0, 0]) / lead
            vp = pow2_scaled(vp, 1)[0]  # so that vp . vp neither under- nor overflows
            v[part] = vp = oriented(vp / np.sqrt(vp[:, None] @ vp[..., None])[:, 0])
            proj = np.abs(hs @ vp[..., None])[..., 0]
            q[part] = np.ldexp(proj[f, j], exponent[:, 0, 0])
            proj[f, j] = 0.0  # s sums the other rows, so no q can cancel them away
            s[part] = np.ldexp(proj.sum(axis=1), exponent[:, 0, 0])
        basis[part], pivots[part] = others[f[:, None], lp.basis], lp.pivots
    return v, s, q, basis, pivots


def _dual_bounds(h: np.ndarray) -> np.ndarray:
    """Proven lower bound lam on s/q over every basis, per row of each full-rank matrix.

    h is (..., M, N) and lam is (..., M).  lam is the value of the dual
    multipliers u_i = P_ji / a, a = max_{i != j} |P_ji|, that the hat
    matrix P gives row j (see the module docstring): for every v,
    lam q = |sum_{i != j} u_i h_i . v| <= s.

    In floating point, sum_{i != j} u_i h_i = lam h_j holds up to a
    residual e.  As h has full
    column rank, e = h^T y with |y|_inf <= d = |R^-T e|_2, and scaling
    (u - y_-j, lam + y_j) by 1 / (1 + d) makes it exactly feasible, so
    s/q >= (lam - d) / (1 + d).  A bound counts only when d <= _RESIDUAL;
    then lam >= _CERTIFY still proves s/q > 1 + 0.99e-6.  Rounding alone
    leaves d far below _RESIDUAL (under 4e-14 on the 14-bus model and a
    10x10 mesh).  A larger d means the multipliers are noise, as for a row
    with P_jj = 1 (no other row reaches its direction), whose 1 - P_jj and
    P_ji are all rounding; there d is near 1.  Such rows, and rows whose lam
    is NaN or infinite, get NaN.

    Each product takes whole P side by side (``stack_slices``), or rows of
    one P that alone exceeds the budget: the rows it takes alone, so a
    matrix's bounds do not depend on the others in its stack.
    """
    m, n = h.shape[-2:]
    stack = pow2_scaled(h.reshape(-1, m, n), (1, 2))[0]  # lam does not depend on the scale
    q, r = np.linalg.qr(stack)
    r_inv = np.linalg.inv(r)
    lam = np.empty(stack.shape[:2])
    for b in stack_slices(stack.shape[0], h.itemsize * m * m):  # whole hat matrices
        q_t = q[b].transpose(0, 2, 1)
        for rows in stack_slices(m, h.itemsize * m):  # all rows, unless one P is too large
            # A copy: numpy sends the product of an array with its own
            # transpose to a symmetric kernel, which rounds otherwise.
            p = q[b, rows].copy() @ q_t
            diag = np.einsum("bii->bi", p[:, :, rows])  # a writable view of each P_jj
            slack = 1.0 - diag
            diag[...] = 0.0
            a = np.abs(p).max(axis=2, initial=0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                bound = slack / a
                e = (p @ stack[b] - slack[..., None] * stack[b, rows]) / a[..., None]
                d = np.linalg.norm(e @ r_inv[b], axis=2)
            lam[b, rows] = np.where(np.isfinite(bound) & (d <= _RESIDUAL), bound, np.nan)
    return lam.reshape(h.shape[:-1])


def _checked_row(model: MeasurementModel, j: int) -> None:
    validate_model(model)
    if not 0 <= j < model.m:
        raise IndexOutOfRange(f"row {j} outside 0..{model.m - 1}")


def detect_row(model: MeasurementModel, j: int) -> Optional[LeverageWitness]:
    """Witness from the best basis that row j is flagged, or None when clean."""
    return leverage_margin(model, j)[1]


def leverage_margin(model: MeasurementModel, j: int) -> tuple[float, Optional[LeverageWitness]]:
    """Best (q - s)/q over all valid bases, with the witness if flagged.

    Positive margins mean the inequality holds strictly for some basis;
    values near zero sit on the boundary between the two classes.  A zero
    row has margin -inf and no witness.  This is ``leverage_margins`` of
    one matrix.
    """
    _checked_row(model, j)
    return leverage_margins(model.h[None], [j])[0]


def leverage_margins(h: np.ndarray,
                     rows: Sequence[int]) -> list[tuple[float, Optional[LeverageWitness]]]:
    """``leverage_margin`` of row rows[k] of h[k], for a (T, M, N) stack of matrices.

    Each matrix must have full column rank and each row must be one of its
    rows; the caller checks both.  The fits of all the nonzero rows run as
    stacks of the simplex, and a fit's result does not depend on its stack.
    """
    rows = np.asarray(rows, dtype=np.intp)
    graded: list[tuple[float, Optional[LeverageWitness]]] = [(-np.inf, None)] * rows.size
    # A zero row has no support and cannot dominate any direction: it gets no fit.
    fit = np.flatnonzero(h[np.arange(rows.size), rows].any(axis=1))
    v, s, q, basis, _ = _row_tests(h, fit, rows[fit])
    for k, j, b, vk, sk, qk in zip(fit.tolist(), rows[fit].tolist(), basis.tolist(), v,
                                   s.tolist(), q.tolist()):
        graded[k] = _graded(LeverageWitness(row_index=j, basis=tuple(b), v=vk, s=sk, q=qk))
    return graded


def _support_components(h: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected blocks of the bipartite row/column support graph."""
    m, n = h.shape
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(h)  # row-major: each row's columns in ascending order
    lead = np.ones(rows.size, dtype=bool)
    lead[1:] = rows[1:] != rows[:-1]
    first = np.full(m, -1)  # first nonzero column of each row, -1 for a zero row
    first[rows[lead]] = cols[lead]
    for a, c in zip(first[rows].tolist(), cols.tolist()):  # join each column to its row's first
        ra, rb = find(a), find(c)
        if ra != rb:
            parent[rb] = ra
    # Filled in column order, so the blocks come sorted by their first column.
    comps: dict[int, tuple[list[int], list[int]]] = {}
    for c in range(n):
        comps.setdefault(find(c), ([], []))[1].append(c)
    for i, c in enumerate(first.tolist()):
        if c >= 0:
            comps[find(c)][0].append(i)
    return list(comps.values())


def detect_all(model: MeasurementModel) -> LeverageReport:
    """Classify every row of the model: ``detect_many`` of one model."""
    return detect_many([model])[0]


def detect_many(models: Sequence[MeasurementModel]) -> list[LeverageReport]:
    """Classify every row of each model.

    Detection runs per connected block of the support graph; witnesses
    carry global row indices, and null vectors are re-embedded with zeros
    on the other blocks, so the inequality values are those of the whole
    model.  Rows with empty support belong to no block and are reported
    clean.  The blocks of one shape, across all the models, are screened
    together: a row whose dual bound (``_dual_bounds``) proves it clean
    gets no fit, and the others are fitted in stacks.  A block's bounds and
    a fit's result do not depend on their stack, so each model's report is
    the one it gets alone.
    """
    for model in models:
        validate_model(model)
    blocks = [(k, rows, cols) for k, model in enumerate(models)
              for rows, cols in _support_components(model.h)]
    groups: dict[tuple[int, int], list[int]] = {}  # block shape -> its blocks
    for b, (_, rows, cols) in enumerate(blocks):
        groups.setdefault((len(rows), len(cols)), []).append(b)
    fitted: list[list[Optional[LeverageWitness]]] = [[None] * model.m for model in models]
    pivots = [0] * len(models)
    certified = [0] * len(models)
    for group in groups.values():
        subs = np.array([models[k].h[np.ix_(rows, cols)]
                         for k, rows, cols in (blocks[b] for b in group)])
        fit, local = np.nonzero(~(_dual_bounds(subs) >= _CERTIFY))  # rows left to fit
        for b, left in zip(group, np.bincount(fit, minlength=len(group)).tolist()):
            certified[blocks[b][0]] += subs.shape[1] - left
        v, s, q, basis, spent = _row_tests(subs, fit, local)
        for f, j, tight, vf, sf, qf, p in zip(fit.tolist(), local.tolist(), basis.tolist(), v,
                                              s.tolist(), q.tolist(), spent.tolist()):
            k, rows, cols = blocks[group[f]]
            pivots[k] += p
            v_full = np.zeros(models[k].n)
            v_full[cols] = vf
            fitted[k][rows[j]] = LeverageWitness(row_index=rows[j],
                                                 basis=tuple(rows[i] for i in tight),
                                                 v=v_full, s=sf, q=qf)
    return [LeverageReport(labels=model.labels, verdicts=[classify(w) for w in fitted[k]],
                           witnesses={w.row_index: w for w in fitted[k] if classify(w) != CLEAN},
                           combos_examined=pivots[k], rows_certified=certified[k])
            for k, model in enumerate(models)]


# ---------------------------------------------------------------------------
# Partitioned detection.
# ---------------------------------------------------------------------------


@dataclass
class Partition:
    """A named subset of measurements analyzed as its own submodel.

    state_columns is derived from the selected rows' support.  When the
    induced submatrix is column-rank deficient through a pure translation
    gauge (typically an angle block whose reference bus lies outside the
    partition), the lowest-indexed column of each unseen group is dropped,
    which installs a local reference; every drop is recorded.  Any other
    deficiency rejects the partition.
    """

    name: str
    measurement_indices: tuple[int, ...]
    state_columns: Optional[tuple[int, ...]] = None
    dropped_columns: tuple[int, ...] = ()


def resolve_partition(model: MeasurementModel, partition: Partition) -> Partition:
    rows = tuple(dict.fromkeys(int(i) for i in partition.measurement_indices))
    if len(rows) == 0:
        raise EmptyPartition(f"partition {partition.name!r} selects no measurements")
    for i in rows:
        if not 0 <= i < model.m:
            raise IndexOutOfRange(f"partition {partition.name!r}: row {i} out of range")
    cols = np.flatnonzero(np.any(model.h[list(rows)] != 0, axis=0))
    if not cols.size:
        raise RankDeficient(0, 1, f"partition {partition.name!r} has no usable state columns")
    sub = model.h[np.ix_(list(rows), cols)]
    drop: list[int] = []
    if matrix_rank(sub) < cols.size:
        # A deficiency is repairable only when it is a pure translation
        # gauge: a support-graph column group whose common shift no selected
        # row can see (every row sums to zero over the group), meaning the
        # partition lost its reference for that group.  Dropping each such
        # group's lowest-indexed column installs a local reference; no new
        # gauge group appears, since every row that touched the dropped
        # column now has a nonzero sum over the rest of its group.
        atol = 1e-9 * float(np.abs(sub).max())
        drop = [group[0] for _, group in _support_components(sub)
                if np.max(np.abs(sub[:, group].sum(axis=1))) <= atol]
        keep = np.delete(np.arange(cols.size), drop)
        rank = matrix_rank(sub[:, keep])
        if rank < keep.size:
            raise RankDeficient(rank, keep.size,
                                f"partition {partition.name!r}: not a gauge deficiency")
    return Partition(
        name=partition.name,
        measurement_indices=rows,
        state_columns=tuple(np.delete(cols, drop).tolist()),
        dropped_columns=tuple(cols[drop].tolist()),
    )


@dataclass
class PartitionedReport:
    """Per-partition reports plus the conservative merge across them.

    label_verdicts maps each analyzed label to its verdict in every
    partition that contains it, labels in the order they were first
    analyzed; merged_verdicts holds the strongest of those verdicts.
    """

    labels: tuple[str, ...]
    partition_reports: list[tuple[Partition, LeverageReport]]
    label_verdicts: dict[str, dict[str, str]]
    merged_verdicts: dict[str, str]
    consistency_notes: list[str]

    @property
    def unanalyzed(self) -> tuple[str, ...]:
        return tuple(lab for lab in self.labels if lab not in self.label_verdicts)

    def to_dict(self) -> dict:
        return {
            "partitions": [
                {
                    "name": part.name,
                    "measurements": [self.labels[i] for i in part.measurement_indices],
                    "state_columns": list(part.state_columns or ()),
                    "dropped_columns": list(part.dropped_columns),
                    "report": rep.to_dict(),
                }
                for part, rep in self.partition_reports
            ],
            "merged_verdicts": dict(self.merged_verdicts),
            "consistency_notes": list(self.consistency_notes),
            "unanalyzed": list(self.unanalyzed),
        }

    def render_table(self) -> str:
        width = max(len(s) for s in self.labels + ("measurement",))
        names = [part.name for part, _ in self.partition_reports]
        head = f"{'measurement':<{width}}  " + "  ".join(f"{nm:<9}" for nm in names) + "  merged"
        lines = [head]
        for lab in self.labels:
            cells = [self.label_verdicts.get(lab, {}).get(nm, "-") for nm in names]
            merged = self.merged_verdicts.get(lab, "unanalyzed")
            lines.append(f"{lab:<{width}}  " + "  ".join(f"{c:<9}" for c in cells) + f"  {merged}")
        lines.extend(self.consistency_notes)
        return "\n".join(lines)


_RANKING = {LEVERAGE: 2, BOUNDARY: 1, CLEAN: 0}


def detect_partitioned(model: MeasurementModel,
                       partitions: Sequence[Partition]) -> PartitionedReport:
    """Run detection per partition and merge conservatively.

    A row flagged in any partition containing it stays flagged in the
    merge; rows classified differently across partitions are listed in the
    consistency notes for manual comparison.  Partition names must be
    distinct, since the per-label record is keyed on them.  This is
    ``detect_partitioned_many`` of one model.
    """
    return detect_partitioned_many([model], partitions)[0]


def detect_partitioned_many(models: Sequence[MeasurementModel],
                            partitions: Sequence[Partition]) -> list[PartitionedReport]:
    """``detect_partitioned`` of each model under the same partitions.

    Each model resolves the partitions on its own matrix, and the
    submodels of every model and partition go through one ``detect_many``.
    """
    if not partitions:
        raise EmptyPartition("no partitions supplied")
    names = [p.name for p in partitions]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidArgument(f"duplicate partition name {name!r}")
    resolved = [[resolve_partition(model, p) for p in partitions] for model in models]
    reports = iter(detect_many([model.submodel(part.measurement_indices, part.state_columns)
                                for model, parts in zip(models, resolved) for part in parts]))
    return [_merged(model, [(part, next(reports)) for part in parts])
            for model, parts in zip(models, resolved)]


def _merged(model: MeasurementModel,
            reports: list[tuple[Partition, LeverageReport]]) -> PartitionedReport:
    """The per-label record, merge and notes of one model's partition reports."""
    label_verdicts: dict[str, dict[str, str]] = {}
    notes: list[str] = []
    for part, rep in reports:
        if part.dropped_columns:
            dropped = [
                model.state_labels[c] if model.state_labels else str(c)
                for c in part.dropped_columns
            ]
            notes.append(
                f"partition {part.name!r}: re-referenced by dropping column(s) {', '.join(dropped)}"
            )
        for global_i, verdict in zip(part.measurement_indices, rep.verdicts):
            label_verdicts.setdefault(model.labels[global_i], {})[part.name] = verdict

    for lab, by_part in label_verdicts.items():
        if len(set(by_part.values())) > 1:
            detail = ", ".join(f"{nm}: {v}" for nm, v in by_part.items())
            notes.append(f"inconsistent classification for {lab}: {detail}")
    return PartitionedReport(
        labels=model.labels,
        partition_reports=reports,
        label_verdicts=label_verdicts,
        merged_verdicts={lab: max(by_part.values(), key=_RANKING.__getitem__)
                         for lab, by_part in label_verdicts.items()},
        consistency_notes=notes,
    )


def partitions_from_dict(doc: dict, model: MeasurementModel) -> list[Partition]:
    """Parse ``{"partitions": [{"name", "measurements": [label-or-index]}]}``."""
    doc = fields(doc, "partition document", "partitions")
    out = []
    for entry in array(doc["partitions"], "field 'partitions'"):
        entry = fields(entry, "partition", "name", "measurements")
        rows = tuple(model.row_index(x) if isinstance(x, str) else integral(x, "measurement row")
                     for x in array(entry["measurements"], "field 'measurements'"))
        out.append(Partition(string(entry["name"], "partition name"), rows))
    return out


def load_partitions(path, model: MeasurementModel) -> list[Partition]:
    return partitions_from_dict(read_json(path), model)
