"""Measurement-model core: the linear model container and dense primitives.

Everything downstream (estimation, leverage diagnostics, projection
statistics) consumes the ``MeasurementModel`` defined here.  All types are
immutable after construction and all functions are pure, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidArgument,
    NonFinite,
    ParseError,
    RankDeficient,
    UnknownLabel,
)

# Singular values below max(M, N) * sigma_max * RANK_TOL_FACTOR are treated
# as zero when counting numerical rank.
RANK_TOL_FACTOR = 1e-12

# Components smaller than this are treated as zero when fixing the sign of a
# null vector; a unit vector always has a component >= 1/sqrt(N) >> this.
_SIGN_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MeasurementModel:
    """A linear measurement model: ``h @ theta + noise = z``.

    h            -- M x N coefficient matrix (dimensionless)
    z            -- length-M measurement vector (per-unit)
    labels       -- M unique human-readable row names
    true_states  -- optional length-N generating states, for experiments
    state_labels -- optional length-N column names, for reporting only
    """

    h: np.ndarray
    z: np.ndarray
    labels: tuple[str, ...]
    true_states: Optional[np.ndarray] = None
    state_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        z = np.asarray(self.z, dtype=float).reshape(-1)
        labels = tuple(str(s) for s in self.labels)
        m, n = h.shape
        if m < n or n < 1:
            raise DimensionMismatch(f"need M >= N >= 1, got M={m}, N={n}")
        if z.shape != (m,):
            raise DimensionMismatch(f"z has length {z.shape[0]}, expected {m}")
        if len(labels) != m:
            raise DimensionMismatch(f"{len(labels)} labels for {m} rows")
        if len(set(labels)) != m:
            raise InvalidArgument("measurement labels must be unique")
        if not (np.isfinite(h).all() and np.isfinite(z).all()):
            raise NonFinite("h and z entries must be finite")
        object.__setattr__(self, "h", _freeze(h))
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "labels", labels)
        if self.true_states is not None:
            ts = np.asarray(self.true_states, dtype=float).reshape(-1)
            if ts.shape != (n,):
                raise DimensionMismatch(f"true_states has length {ts.shape[0]}, expected {n}")
            if not np.isfinite(ts).all():
                raise NonFinite("true_states entries must be finite")
            object.__setattr__(self, "true_states", _freeze(ts))
        if self.state_labels is not None:
            sl = tuple(str(s) for s in self.state_labels)
            if len(sl) != n:
                raise DimensionMismatch(f"{len(sl)} state labels for {n} columns")
            object.__setattr__(self, "state_labels", sl)

    @property
    def m(self) -> int:
        return self.h.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @functools.cached_property
    def rank(self) -> int:
        """Numerical rank of h (see ``matrix_rank``), computed once: h is read-only."""
        return matrix_rank(self.h)

    def row_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def with_z(self, z: np.ndarray) -> "MeasurementModel":
        return MeasurementModel(self.h, z, self.labels, self.true_states, self.state_labels)

    def submodel(self, rows: Sequence[int], cols: Sequence[int]) -> "MeasurementModel":
        rows = list(rows)
        cols = list(cols)
        sub_labels = tuple(self.labels[i] for i in rows)
        sub_states = None if self.state_labels is None else tuple(self.state_labels[j] for j in cols)
        return MeasurementModel(
            self.h[np.ix_(rows, cols)], self.z[rows], sub_labels, None, sub_states
        )


def matrix_rank(a: np.ndarray) -> int:
    """Numerical rank with threshold max(M, N) * sigma_max * 1e-12."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        raise NonFinite("matrix entries must be finite")
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(a.shape) * s[0] * RANK_TOL_FACTOR
    return int(np.count_nonzero(s > tol))


def validate_model(model: MeasurementModel) -> MeasurementModel:
    """Check the full-column-rank assumption and return the model unchanged.

    Shape, finiteness and label invariants are already enforced by the
    constructor; this adds the rank check and reports the computed rank
    when it falls short.  The rank is the model's cached ``rank``, so each
    model pays for one SVD however often it is validated.
    """
    r = model.rank
    if r < model.n:
        raise RankDeficient(r, model.n, "model matrix")
    return model


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Projection matrix P = H (H^T H)^-1 H^T and its diagonal influences."""

    p: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(self.p))
        object.__setattr__(self, "diag", _freeze(self.diag))


def projection_matrix(model: MeasurementModel) -> ProjectionDiagnostics:
    """Projection onto the column space of h, via orthogonal factorization.

    Computed as Q Q^T from a reduced QR of h rather than through an explicit
    (H^T H)^-1, which loses accuracy for ill-conditioned h.
    """
    validate_model(model)
    q, _ = np.linalg.qr(model.h)
    p = q @ q.T
    return ProjectionDiagnostics(p=p, diag=np.diag(p).copy())


def nullspace_unit_vector(rows: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to N-1 stacked rows of length N.

    The rows must have rank exactly N-1 so the null space is a line; the
    returned vector has its first nonzero component positive, which makes
    the result deterministic even though the line itself is sign-ambiguous.

    Raises DegenerateBasis when the rank falls short.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    k, n = rows.shape
    if k != n - 1:
        raise DimensionMismatch(f"expected {n - 1} rows of length {n}, got {k}")
    if k == 0:
        return np.ones(1)
    _, s, vt = np.linalg.svd(rows)
    tol = max(k, n) * s[0] * RANK_TOL_FACTOR if s[0] > 0 else 0.0
    if s[0] == 0.0 or np.count_nonzero(s > tol) < k:
        raise DegenerateBasis(f"basis rank {np.count_nonzero(s > tol)} < {k}")
    return oriented(vt[-1])


def oriented(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its first nonzero component positive; each row of a 2-D v."""
    rows = np.atleast_2d(v)
    lead = np.argmax(np.abs(rows) > _SIGN_TOL, axis=1)
    flip = rows[np.arange(rows.shape[0]), lead] < 0
    return np.where(flip[:, None], -rows, rows).reshape(v.shape)


# ---------------------------------------------------------------------------
# File formats.
#
# Matrix exchange: plain-text CSV, one matrix row per line, no header.
# Model file: JSON with fields "labels", "H", "z" and optional "true_states".
# ---------------------------------------------------------------------------


def format_matrix_csv(a: np.ndarray) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return "\n".join(",".join(f"{x:.12g}" for x in row) for row in a) + "\n"


def save_matrix_csv(a: np.ndarray, path) -> None:
    Path(path).write_text(format_matrix_csv(a))


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as err:
            raise ParseError(f"line {lineno}: {err}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"line {lineno}: ragged row ({len(row)} values, expected {width})")
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix file")
    return np.array(rows, dtype=float)


def model_to_dict(model: MeasurementModel) -> dict:
    doc = {
        "labels": list(model.labels),
        "H": model.h.tolist(),
        "z": model.z.tolist(),
    }
    if model.true_states is not None:
        doc["true_states"] = model.true_states.tolist()
    if model.state_labels is not None:
        doc["state_labels"] = list(model.state_labels)
    return doc


def _numbers(doc: dict, key: str, flat: bool = True) -> np.ndarray:
    """A field of JSON numbers: a flat array, or any array when not flat.

    numpy infers the dtype, so a quoted number stays a string and fails the
    check.  An integer beyond int64 makes an object array; converting it
    raises OverflowError when the integer is beyond float range too.
    """
    a = np.array(doc[key])
    if a.dtype == object and all(isinstance(x, (int, float)) for x in a.flat):
        a = a.astype(float)
    if a.dtype.kind not in "iuf" or (flat and a.ndim != 1):
        shape = "a flat array" if flat else "an array of arrays"
        raise ParseError(f"field {key!r} must be {shape} of numbers")
    return a


def _strings(doc: dict, key: str) -> tuple[str, ...]:
    """A field that must be an array of JSON strings."""
    names = doc[key]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ParseError(f"field {key!r} must be an array of strings")
    return tuple(names)


def model_from_dict(doc: dict) -> MeasurementModel:
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    for key in ("labels", "H", "z"):
        if key not in doc:
            raise ParseError(f"model document missing field {key!r}")
    h_rows = doc["H"]
    if not isinstance(h_rows, list) or not all(isinstance(r, list) for r in h_rows):
        raise ParseError("field 'H' must be an array of arrays")
    widths = {len(r) for r in h_rows}
    if len(widths) > 1:
        raise ParseError("field 'H' has ragged rows")
    try:
        return MeasurementModel(
            h=_numbers(doc, "H", flat=False),
            z=_numbers(doc, "z"),
            labels=_strings(doc, "labels"),
            true_states=None if doc.get("true_states") is None else _numbers(doc, "true_states"),
            state_labels=None if doc.get("state_labels") is None else _strings(doc, "state_labels"),
        )
    except OverflowError as err:  # an integer beyond float range
        raise NonFinite(f"model entries must be finite: {err}") from None
    except (TypeError, ValueError) as err:
        if isinstance(err, (DimensionMismatch, InvalidArgument, NonFinite, ParseError)):
            raise
        raise ParseError(f"bad model document: {err}") from None


def load_model(path) -> MeasurementModel:
    with open(path) as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def save_model(model: MeasurementModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
