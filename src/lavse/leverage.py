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
through the same simplex as ``solve_lav``; the fits of all rows have that
one shape, so they run as one stack of the simplex.  The fit's N-1
exactly fitted rows are the witness basis and the fit itself gives v; s
and q are recomputed over every row and graded by ``classify`` on the
relative margin (q - s)/q, which does not change when H is multiplied by
a constant.  The verdict thus comes from the best basis, so it is canonical,
and the cost is polynomial rather than C(M-1, N-1) bases per row.
``leverage_oracle`` keeps that enumeration, guarded to small sizes, as a
reference for tests.  ``detect_all`` first splits the model into connected
blocks of the row-support graph: rows in one block are orthogonal to null
directions of another, so per-block detection yields the same verdicts on
smaller fits.

Most rows need no fit at all.  Row j's LP has the dual

    max lam   subject to   sum_{i != j} u_i h_i = lam h_j,   |u_i| <= 1,

and any feasible (u, lam) proves s/q >= lam for every basis, so the
margin (q - s)/q is at most 1 - lam.  The hat matrix P = Q Q^T of a block
(h = QR) fixes h, P h = h, which gives every row such multipliers at once:
u_i = P_ji / max_{i != j} |P_ji| and lam = (1 - P_jj) / max_{i != j} |P_ji|.
A row whose lam is at least 1 + 1e-6, and whose multipliers meet the
equality up to rounding, is certified clean (``_dual_bounds``).  Only the
other rows go to the simplex, in stacks of at most _BATCH_BYTES; a fit's
pivots and result do not depend on its stack, so every flagged row's
witness is the one its fit gives alone.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateBasis,
    EmptyPartition,
    IndexOutOfRange,
    InvalidArgument,
    ParseError,
    RankDeficient,
    TooLarge,
)
from .lav import ORACLE_MAX_M, ORACLE_MAX_N, simplex
from .model import (
    MeasurementModel,
    matrix_rank,
    nullspace_unit_vector,
    oriented,
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

# Bytes of per-row systems that ``detect_all`` stacks into one simplex call,
# each counted as its block's M x N floats; a larger block is solved in
# several stacks, which bounds the memory of whole-model detection.  The
# same budget bounds the rows of the hat matrix held at once by
# ``_dual_bounds``, each M floats.
_BATCH_BYTES = 1 << 20

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
    if not (isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer))):
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
        """(q - s)/q, or -inf when q = 0."""
        return (self.q - self.s) / self.q if self.q > 0 else -np.inf

    def is_tie(self) -> bool:
        """s equals q up to rounding: |margin| <= _TIE."""
        return abs(self.margin()) <= _TIE


@dataclass
class LeverageReport:
    """Per-row classification plus solver bookkeeping.

    rows_certified counts the rows proven clean by their dual bound, which
    get no fit; combos_examined counts the simplex pivots summed over the
    fits of the other rows, and combos_skipped_degenerate is always 0.  The
    last two keep the names of the basis-scan counters they replace.
    """

    labels: tuple[str, ...]
    verdicts: list[str]
    witnesses: dict[int, LeverageWitness]
    combos_examined: int
    combos_skipped_degenerate: int = 0
    rows_certified: int = 0

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


def _witness(h: np.ndarray, j: int, basis: Sequence[int], v: np.ndarray) -> LeverageWitness:
    """Both sides of the inequality for the basis rows and their unit null vector v."""
    proj = np.abs(h @ v)
    q = float(proj[j])
    return LeverageWitness(row_index=j, basis=tuple(int(b) for b in basis), v=v,
                           s=float(proj.sum() - q), q=q)


def classify(witness: Optional[LeverageWitness]) -> str:
    """Verdict of a row from the witness of its best basis (None: clean)."""
    mu = -np.inf if witness is None else witness.margin()
    if mu >= _STRICT:
        return LEVERAGE
    return BOUNDARY if mu >= -_TIE else CLEAN


def _graded(witness: Optional[LeverageWitness]) -> tuple[float, Optional[LeverageWitness]]:
    """Margin of the best basis, and its witness unless the row is clean."""
    if witness is None:
        return -np.inf, None
    return witness.margin(), None if classify(witness) == CLEAN else witness


def _row_tests(h: np.ndarray, rows: np.ndarray) -> tuple[list[LeverageWitness], int]:
    """Witness of the best basis of each given nonzero row of h, and the simplex pivots.

    The best basis of row j is the vertex of min sum_{i != j} |h_i . v|
    subject to h_j . v = 1.  With c the largest |h_jc| (partial pivoting),
    v_c = (1 - sum_{k != c} h_jk v_k) / h_jc, so h_i . v = r_i - g_i . w with
    r_i = h_ic / h_jc, g_i = r_i h_j,-c - h_i,-c and w = v_-c: a LAV fit of
    r on g.  g has full column rank whenever h does, since g w = 0 forces
    h v = 0.  The fit's w, completed by v_c and scaled to unit length, is
    the null vector of the witness basis.  Every row's g is (M-1) x (N-1),
    so the fits of all the rows run as one stack through ``simplex``.
    """
    m, n = h.shape
    fits = np.arange(rows.size)
    hj = h[rows]
    c = np.argmax(np.abs(hj), axis=1)
    others = np.arange(m - 1) + (np.arange(m - 1) >= rows[:, None])  # every row but j
    rest = np.arange(n - 1) + (np.arange(n - 1) >= c[:, None])  # every column but c
    lead = hj[fits, c]
    r = h[others, c[:, None]] / lead[:, None]
    hj_rest = hj[fits[:, None], rest]
    g = r[:, :, None] * hj_rest[:, None] - h[others[:, :, None], rest[:, None]]
    w, tight, pivots, _ = simplex(g, r)
    v = np.empty((rows.size, n))
    v[fits[:, None], rest] = w
    v[fits, c] = (1.0 - (hj_rest[:, None] @ w[..., None])[:, 0, 0]) / lead
    v = oriented(v / np.sqrt(v[:, None] @ v[..., None])[:, 0])
    proj = np.abs(h @ v[..., None])[..., 0]
    q = proj[fits, rows]
    s = proj.sum(axis=1) - q
    bases = others[fits[:, None], tight].tolist()
    witnesses = [LeverageWitness(row_index=j, basis=tuple(b), v=vj, s=sj, q=qj)
                 for j, b, vj, sj, qj in zip(rows.tolist(), bases, v, s.tolist(), q.tolist())]
    return witnesses, int(pivots.sum())


def _dual_bounds(h: np.ndarray) -> np.ndarray:
    """Proven lower bound lam on s/q over every basis, per row of a full-rank h.

    lam is the value of the dual multipliers u_i = P_ji / a, a = max_{i != j}
    |P_ji|, that the hat matrix P gives row j (see the module docstring):
    for every v, lam q = |sum_{i != j} u_i h_i . v| <= s.

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
    """
    m = h.shape[0]
    q, r = np.linalg.qr(h)
    r_inv = np.linalg.inv(r)
    lam = np.full(m, np.nan)
    chunk = max(1, _BATCH_BYTES // (h.itemsize * m))  # rows of P per product
    for start in range(0, m, chunk):
        rows = np.arange(start, min(start + chunk, m))
        p = q[rows] @ q.T
        diag = (np.arange(rows.size), rows)
        slack = 1.0 - p[diag]
        p[diag] = 0.0
        a = np.abs(p).max(axis=1, initial=0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = slack / a
            e = (p @ h - slack[:, None] * h[rows]) / a[:, None]
            d = np.linalg.norm(e @ r_inv, axis=1)
        lam[rows] = np.where(np.isfinite(bound) & (d <= _RESIDUAL), bound, np.nan)
    return lam


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
    row has margin -inf and no witness.
    """
    _checked_row(model, j)
    if not model.h[j].any():  # zero row: no support, cannot dominate any direction
        return -np.inf, None
    return _graded(_row_tests(model.h, np.array([j]))[0][0])


def leverage_oracle(model: MeasurementModel, j: int) -> tuple[float, Optional[LeverageWitness]]:
    """Brute-force reference for ``leverage_margin``: grade every basis.

    Enumerates all C(M-1, N-1) subsets of the other rows, skips those of
    rank below N-1, and grades the best-margin basis (ties keep the
    lexicographically first subset).  Guarded to the sizes of
    ``lav_vertex_oracle``.
    """
    if model.m > ORACLE_MAX_M or model.n > ORACLE_MAX_N:
        raise TooLarge(f"oracle guard: need M <= {ORACLE_MAX_M} and N <= {ORACLE_MAX_N}")
    _checked_row(model, j)
    best = None
    if model.h[j].any():
        others = [i for i in range(model.m) if i != j]
        for basis in itertools.combinations(others, model.n - 1):
            try:
                w = _witness(model.h, j, basis, nullspace_unit_vector(model.h[list(basis)]))
            except DegenerateBasis:
                continue
            if best is None or w.margin() > best.margin():
                best = w
    return _graded(best)


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
    """Classify every row of the model.

    Detection runs per connected block of the support graph; witnesses
    carry global row indices, and null vectors are re-embedded with zeros
    on the other blocks, so the inequality values are those of the whole
    model.  Rows with empty support belong to no block and are reported
    clean.  A row whose dual bound (``_dual_bounds``) proves it clean gets
    no fit; the others are fitted in stacks, and a fit's result does not
    depend on its stack.
    """
    validate_model(model)
    verdicts = [CLEAN] * model.m
    witnesses: dict[int, LeverageWitness] = {}
    pivots = certified = 0
    for rows, cols in _support_components(model.h):
        sub = model.h[np.ix_(rows, cols)]
        fit = np.flatnonzero(~(_dual_bounds(sub) >= _CERTIFY))  # rows left to fit
        certified += len(rows) - fit.size
        batch = max(1, _BATCH_BYTES // (sub.itemsize * sub.size))  # rows per stack
        for start in range(0, fit.size, batch):
            tested, spent = _row_tests(sub, fit[start:start + batch])
            pivots += spent
            for w in tested:
                j = rows[w.row_index]
                verdicts[j] = classify(w)
                if verdicts[j] != CLEAN:
                    v_full = np.zeros(model.n)
                    v_full[cols] = w.v
                    witnesses[j] = LeverageWitness(row_index=j,
                                                   basis=tuple(rows[b] for b in w.basis),
                                                   v=v_full, s=w.s, q=w.q)
    return LeverageReport(
        labels=model.labels,
        verdicts=verdicts,
        witnesses=witnesses,
        combos_examined=pivots,
        rows_certified=certified,
    )


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
    distinct, since the per-label record is keyed on them.
    """
    if not partitions:
        raise EmptyPartition("no partitions supplied")
    names = [p.name for p in partitions]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidArgument(f"duplicate partition name {name!r}")
    reports: list[tuple[Partition, LeverageReport]] = []
    label_verdicts: dict[str, dict[str, str]] = {}
    notes: list[str] = []
    for part in [resolve_partition(model, p) for p in partitions]:
        if part.dropped_columns:
            dropped = [
                model.state_labels[c] if model.state_labels else str(c)
                for c in part.dropped_columns
            ]
            notes.append(
                f"partition {part.name!r}: re-referenced by dropping column(s) {', '.join(dropped)}"
            )
        rep = detect_all(model.submodel(part.measurement_indices, part.state_columns))
        reports.append((part, rep))
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
    if not isinstance(doc, dict) or not isinstance(doc.get("partitions"), list):
        raise ParseError("partition document must contain a 'partitions' array")
    out = []
    for entry in doc["partitions"]:
        if not isinstance(entry, dict) or "name" not in entry \
                or not isinstance(entry.get("measurements"), list):
            raise ParseError("each partition needs 'name' and a 'measurements' array")
        indices = []
        for item in entry["measurements"]:
            if isinstance(item, bool):
                raise ParseError(f"bad measurement reference {item!r}")
            if isinstance(item, int):
                indices.append(item)
            elif isinstance(item, str):
                indices.append(model.row_index(item))
            else:
                raise ParseError(f"bad measurement reference {item!r}")
        out.append(Partition(name=str(entry["name"]), measurement_indices=tuple(indices)))
    return out


def load_partitions(path, model: MeasurementModel) -> list[Partition]:
    with open(path) as fh:
        doc = json.load(fh)
    return partitions_from_dict(doc, model)
