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
through the same simplex as ``solve_lav``.  The fit's N-1 exactly fitted
rows are the witness basis; v, s and q are recomputed from them and graded
by ``classify``.  The verdict thus comes from the best basis, so it is
canonical, and the cost is polynomial rather than C(M-1, N-1) bases per row.
``leverage_oracle`` keeps that enumeration, guarded to small sizes, as a
reference for tests.  ``detect_all`` first splits the model into connected
blocks of the row-support graph: rows in one block are orthogonal to null
directions of another, so per-block detection yields the same verdicts on
smaller fits.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
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
from .model import MeasurementModel, RANK_TOL_FACTOR, nullspace_unit_vector, validate_model

LEVERAGE = "leverage"
BOUNDARY = "boundary"
CLEAN = "clean"

_MARGIN_EPS = 1e-12

DEFAULT_BOUNDARY_TOL = 1e-9
DEFAULT_STRICT_MARGIN = 1e-6


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
    the detection ran on.
    """

    row_index: int
    basis: tuple[int, ...]
    v: np.ndarray
    s: float
    q: float

    def margin(self) -> float:
        return (self.q - self.s) / max(self.q, _MARGIN_EPS)


@dataclass
class LeverageReport:
    """Per-row classification plus solver bookkeeping.

    combos_examined counts the simplex pivots summed over the per-row fits;
    combos_skipped_degenerate is always 0.  Both keep the names of the
    basis-scan counters they replace.
    """

    labels: tuple[str, ...]
    verdicts: list[str]
    witnesses: dict[int, LeverageWitness]
    combos_examined: int
    combos_skipped_degenerate: int = 0
    notes: list[str] = field(default_factory=list)

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
                    "v": [float(x) for x in w.v],
                    "s": w.s,
                    "q": w.q,
                }
            rows.append(entry)
        return {
            "rows": rows,
            "combos_examined": self.combos_examined,
            "notes": list(self.notes),
        }

    def render_table(self) -> str:
        width = max(len(s) for s in self.labels + ("measurement",))
        lines = [f"{'measurement':<{width}}  {'verdict':<9}  {'s':>10}  {'q':>10}"]
        for i, verdict in enumerate(self.verdicts):
            w = self.witnesses.get(i)
            s = f"{w.s:.4g}" if w else "-"
            q = f"{w.q:.4g}" if w else "-"
            lines.append(f"{self.labels[i]:<{width}}  {verdict:<9}  {s:>10}  {q:>10}")
        lines.append(f"{self.combos_examined} simplex pivots over the per-row fits")
        lines.extend(self.notes)
        return "\n".join(lines)


def _witness(h: np.ndarray, j: int, basis: Sequence[int]) -> LeverageWitness:
    """Unit null vector of the basis rows and both sides of the inequality."""
    v = nullspace_unit_vector(h[list(basis)])
    proj = np.abs(h @ v)
    q = float(proj[j])
    return LeverageWitness(row_index=j, basis=tuple(int(b) for b in basis), v=v,
                           s=float(proj.sum() - q), q=q)


def _grade(witness: Optional[LeverageWitness],
           boundary_tol: float) -> tuple[float, Optional[LeverageWitness]]:
    """Margin of the best basis, and its witness when it qualifies."""
    if witness is None:
        return -np.inf, None
    qualifies = witness.s <= witness.q + boundary_tol
    return witness.margin(), witness if qualifies else None


def _row_test(h: np.ndarray, j: int, boundary_tol: float
              ) -> tuple[float, Optional[LeverageWitness], int]:
    """Margin, witness (None when clean) and simplex pivots for row j.

    The best basis is the vertex of min sum_{i != j} |h_i . v| subject to
    h_j . v = 1.  With c the largest |h_jc| (partial pivoting), v_c = (1 -
    sum_{k != c} h_jk v_k) / h_jc, so h_i . v = r_i - g_i . w with r_i =
    h_ic / h_jc, g_i = r_i h_j,-c - h_i,-c and w = v_-c: a LAV fit of r on
    g.  g has full column rank whenever h does, since g w = 0 forces h v = 0.
    """
    if not h[j].any():  # zero row: no support, cannot dominate any direction
        return -np.inf, None, 0
    c = int(np.argmax(np.abs(h[j])))
    others = np.delete(np.arange(h.shape[0]), j)
    r = h[others, c] / h[j, c]
    g = np.outer(r, np.delete(h[j], c)) - np.delete(h[others], c, axis=1)
    _, tight, pivots, _ = simplex(g, r)
    return (*_grade(_witness(h, j, others[tight]), boundary_tol), pivots)


def classify(witness: Optional[LeverageWitness],
             strict_margin: float = DEFAULT_STRICT_MARGIN) -> str:
    if witness is None:
        return CLEAN
    if witness.s <= witness.q - strict_margin * max(1.0, witness.q):
        return LEVERAGE
    return BOUNDARY


def _checked_row(model: MeasurementModel, j: int) -> None:
    validate_model(model)
    if not 0 <= j < model.m:
        raise IndexOutOfRange(f"row {j} outside 0..{model.m - 1}")


def detect_row(model: MeasurementModel, j: int,
               boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Optional[LeverageWitness]:
    """Witness from the best basis that row j is flagged, or None when clean."""
    _checked_row(model, j)
    return _row_test(model.h, j, boundary_tol)[1]


def leverage_margin(model: MeasurementModel, j: int) -> tuple[float, Optional[LeverageWitness]]:
    """Best (q - s)/max(q, eps) over all valid bases, with the witness if flagged.

    Positive margins mean the inequality holds strictly for some basis;
    values near zero sit on the boundary between the two classes.  A zero
    row has margin -inf and no witness.
    """
    _checked_row(model, j)
    return _row_test(model.h, j, DEFAULT_BOUNDARY_TOL)[:2]


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
                w = _witness(model.h, j, basis)
            except DegenerateBasis:
                continue
            if best is None or w.margin() > best.margin():
                best = w
    return _grade(best, DEFAULT_BOUNDARY_TOL)


def _support_components(h: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected blocks of the bipartite row/column support graph."""
    m, n = h.shape
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        cols = np.flatnonzero(h[i])
        for c in cols[1:]:
            ra, rb = find(int(cols[0])), find(int(c))
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for c in range(n):
        groups.setdefault(find(c), []).append(c)
    comps = []
    for cols in groups.values():
        col_set = set(cols)
        rows = [i for i in range(m) if any(int(c) in col_set for c in np.flatnonzero(h[i]))]
        comps.append((rows, sorted(cols)))
    comps.sort(key=lambda rc: rc[1][0])
    return comps


def detect_all(model: MeasurementModel,
               boundary_tol: float = DEFAULT_BOUNDARY_TOL,
               strict_margin: float = DEFAULT_STRICT_MARGIN) -> LeverageReport:
    """Classify every row of the model.

    Detection runs per connected block of the support graph; witnesses
    carry global row indices, and null vectors are re-embedded with zeros
    on the other blocks, so the inequality values are those of the whole
    model.  Rows with empty support belong to no block and are reported
    clean.
    """
    validate_model(model)
    verdicts = [CLEAN] * model.m
    witnesses: dict[int, LeverageWitness] = {}
    pivots = 0
    for rows, cols in _support_components(model.h):
        sub = model.h[np.ix_(rows, cols)]
        for local_j, j in enumerate(rows):
            _, w, spent = _row_test(sub, local_j, boundary_tol)
            pivots += spent
            if w is not None:
                v_full = np.zeros(model.n)
                v_full[cols] = w.v
                w = LeverageWitness(row_index=j, basis=tuple(rows[b] for b in w.basis),
                                    v=v_full, s=w.s, q=w.q)
                witnesses[j] = w
            verdicts[j] = classify(w, strict_margin)
    return LeverageReport(
        labels=model.labels,
        verdicts=verdicts,
        witnesses=witnesses,
        combos_examined=pivots,
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
    support = np.flatnonzero(np.any(model.h[list(rows)] != 0, axis=0))
    cols = [int(c) for c in support]
    dropped: list[int] = []
    while True:
        if not cols:
            raise RankDeficient(0, 1, f"partition {partition.name!r} has no usable state columns")
        sub = model.h[np.ix_(list(rows), cols)]
        s = np.linalg.svd(sub, compute_uv=False)
        tol = max(sub.shape) * s[0] * RANK_TOL_FACTOR if s[0] > 0 else 0.0
        rank = int(np.count_nonzero(s > tol))
        if rank == len(cols):
            break
        # A deficiency is repairable only when it is a pure translation
        # gauge: a support-graph column group whose common shift no selected
        # row can see (every row sums to zero over the group), meaning the
        # partition lost its reference for that group.  Dropping the
        # group's lowest-indexed column installs a local reference.
        cand = None
        atol = 1e-9 * max(1.0, float(np.abs(sub).max()))
        for _, comp_cols in _support_components(sub):
            group_sums = sub[:, comp_cols].sum(axis=1)
            if np.max(np.abs(group_sums)) <= atol:
                cand = int(comp_cols[0])
                break
        if cand is None:
            raise RankDeficient(rank, len(cols),
                                f"partition {partition.name!r}: not a gauge deficiency")
        dropped.append(cols[cand])
        del cols[cand]
    return Partition(
        name=partition.name,
        measurement_indices=rows,
        state_columns=tuple(cols),
        dropped_columns=tuple(dropped),
    )


@dataclass
class PartitionedReport:
    """Per-partition reports plus the conservative merge across them."""

    labels: tuple[str, ...]
    partition_reports: list[tuple[Partition, LeverageReport]]
    merged_verdicts: dict[str, str]
    consistency_notes: list[str]
    unanalyzed: tuple[str, ...]

    def merged_flagged(self) -> list[str]:
        return [lab for lab, v in self.merged_verdicts.items() if v in (LEVERAGE, BOUNDARY)]

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
        per_label = {}
        for part, rep in self.partition_reports:
            for local, global_i in enumerate(part.measurement_indices):
                per_label.setdefault(self.labels[global_i], {})[part.name] = rep.verdicts[local]
        for lab in self.labels:
            cells = [per_label.get(lab, {}).get(nm, "-") for nm in names]
            merged = self.merged_verdicts.get(lab, "unanalyzed")
            lines.append(f"{lab:<{width}}  " + "  ".join(f"{c:<9}" for c in cells) + f"  {merged}")
        lines.extend(self.consistency_notes)
        return "\n".join(lines)


_RANKING = {LEVERAGE: 2, BOUNDARY: 1, CLEAN: 0}


def detect_partitioned(model: MeasurementModel, partitions: Sequence[Partition],
                       boundary_tol: float = DEFAULT_BOUNDARY_TOL,
                       strict_margin: float = DEFAULT_STRICT_MARGIN) -> PartitionedReport:
    """Run detection per partition and merge conservatively.

    A row flagged in any partition containing it stays flagged in the
    merge; rows classified differently across partitions are listed in the
    consistency notes for manual comparison.
    """
    if not partitions:
        raise EmptyPartition("no partitions supplied")
    resolved = [resolve_partition(model, p) for p in partitions]
    reports: list[tuple[Partition, LeverageReport]] = []
    notes: list[str] = []
    for part in resolved:
        sub = model.submodel(part.measurement_indices, part.state_columns)
        if part.dropped_columns:
            names = [
                model.state_labels[c] if model.state_labels else str(c)
                for c in part.dropped_columns
            ]
            notes.append(
                f"partition {part.name!r}: re-referenced by dropping column(s) {', '.join(names)}"
            )
        try:
            rep = detect_all(sub, boundary_tol=boundary_tol, strict_margin=strict_margin)
        except RankDeficient as err:
            raise RankDeficient(err.rank, err.needed, f"partition {part.name!r}") from None
        reports.append((part, rep))

    merged: dict[str, str] = {}
    seen: dict[str, dict[str, str]] = {}
    for part, rep in reports:
        for local, global_i in enumerate(part.measurement_indices):
            lab = model.labels[global_i]
            verdict = rep.verdicts[local]
            seen.setdefault(lab, {})[part.name] = verdict
            if lab not in merged or _RANKING[verdict] > _RANKING[merged[lab]]:
                merged[lab] = verdict
    for lab, by_part in seen.items():
        if len(set(by_part.values())) > 1:
            detail = ", ".join(f"{nm}: {v}" for nm, v in by_part.items())
            notes.append(f"inconsistent classification for {lab}: {detail}")
    unanalyzed = tuple(lab for lab in model.labels if lab not in merged)
    return PartitionedReport(
        labels=model.labels,
        partition_reports=reports,
        merged_verdicts=merged,
        consistency_notes=notes,
        unanalyzed=unanalyzed,
    )


def partitions_from_dict(doc: dict, model: MeasurementModel) -> list[Partition]:
    """Parse ``{"partitions": [{"name", "measurements": [label-or-index]}]}``."""
    if not isinstance(doc, dict) or "partitions" not in doc:
        raise ParseError("partition document must contain a 'partitions' array")
    out = []
    for entry in doc["partitions"]:
        if not isinstance(entry, dict) or "name" not in entry or "measurements" not in entry:
            raise ParseError("each partition needs 'name' and 'measurements'")
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
