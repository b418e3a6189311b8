"""Measurement-model core: the linear model container, dense primitives and documents.

Everything downstream (estimation, leverage diagnostics, projection
statistics) consumes the ``MeasurementModel`` defined here.  All types are
immutable after construction and all functions are pure, so concurrent use
needs no synchronization.

This module is also the package's one document layer.  ``read_json`` reads
every JSON file (model, network and partition documents, and the bundled
networks) and ``dump_json`` writes every one, as the same bytes as
``json.dumps(doc, sort_keys=True)``.  ``dump_model`` writes a model
document with those bytes too, but pays a ``repr`` for the nonzero entries
of H alone, which in a power grid's H are a few per row.  Every file is
read and written as UTF-8, whatever the locale.  The model, network
(``power``) and partition (``leverage``) readers take their value checks
from the same helpers: ``fields``, ``array``, ``string``, ``number``,
``numbers`` and ``integral``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
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
    # Scaled, a keeps its rank, and its singular values cannot overflow.
    s = np.linalg.svd(pow2_scaled(a, None)[0], compute_uv=False)
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


def pow2_scaled(a: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """a over the power of two that brings its largest |entry| along axis into [0.5, 1).

    Returns the scaled array and that exponent, which keeps a's dimensions;
    a slice of zeros is left as it is.  The scaling is exact while the
    entries stay normal floats, so arithmetic on the result rounds as it
    does on a, but no step under- or overflows for the scale of a alone.
    """
    exponent = np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))[1]
    return np.ldexp(a, -exponent), exponent


# Bytes that one stacked numpy call holds at once: of per-row leverage
# fits, of hat matrices or rows of one, of extra-row trials.
_STACK_BYTES = 1 << 20


def stack_slices(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), of max(1, _STACK_BYTES // item_bytes) items each."""
    size = max(1, _STACK_BYTES // item_bytes)
    return [slice(start, start + size) for start in range(0, count, size)]


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
# Model file: JSON with fields "labels", "H", "z" and optional "true_states"
# and "state_labels".
# ---------------------------------------------------------------------------


def format_matrix_csv(a: np.ndarray) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return "\n".join(",".join(f"{x:.12g}" for x in row) for row in a) + "\n"


def save_matrix_csv(a: np.ndarray, path) -> None:
    Path(path).write_text(format_matrix_csv(a), encoding="utf-8")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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


def read_json(path):
    """The JSON value in the file at path.

    Malformed JSON, undecodable bytes or nesting deeper than the decoder's
    recursion limit raise ParseError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except (UnicodeDecodeError, RecursionError) as err:
        raise ParseError(str(err)) from None


def dump_json(doc) -> str:
    """doc as one compact line with sorted keys: json's C encoder only runs when indent is None.

    allow_nan=False keeps the output strict JSON: a NaN must become null first.
    """
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def fields(doc, what: str, *keys: str) -> dict:
    """doc, which must be a JSON object holding each of keys."""
    if not isinstance(doc, dict) or not all(key in doc for key in keys):
        raise ParseError(f"{what} must be a JSON object with fields {', '.join(keys)}")
    return doc


def array(value, what: str) -> list:
    """value, which must be a JSON array."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array")
    return value


def string(value, what: str) -> str:
    """value, which must be a JSON string."""
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string, got {value!r}")
    return value


def number(value, what: str) -> float:
    """A JSON number, not a string or a boolean, as a float."""
    if type(value) not in (int, float):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:  # an integer beyond float range
        raise NonFinite(f"{what} must be finite: {err}") from None


def numbers(value, what: str, nested: bool = False) -> np.ndarray:
    """A flat array of JSON numbers, or when nested an array of such arrays of one length.

    Each entry's type is checked, since numpy reads true as 1 and "1" as 1.0.
    """
    rows = array(value, what) if nested else [array(value, what)]
    if not (all(type(row) is list for row in rows)
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        shape = "an array of arrays" if nested else "a flat array"
        raise ParseError(f"{what} must be {shape} of numbers")
    if len(set(map(len, rows))) > 1:
        raise ParseError(f"{what} has ragged rows")
    try:
        return np.array(value, dtype=float)
    except OverflowError as err:  # an integer beyond float range
        raise NonFinite(f"{what} must be finite: {err}") from None


def integral(value, what: str) -> int:
    """An integral JSON number (3 or 3.0), not a string or a boolean, as an int."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _fields_besides_h(model: MeasurementModel) -> dict:
    """The fields of model's document other than "H"."""
    doc = {"labels": list(model.labels), "z": model.z.tolist()}
    if model.true_states is not None:
        doc["true_states"] = model.true_states.tolist()
    if model.state_labels is not None:
        doc["state_labels"] = list(model.state_labels)
    return doc


def model_to_dict(model: MeasurementModel) -> dict:
    return {"H": model.h.tolist(), **_fields_besides_h(model)}


def _json_rows(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) for a 2-D float array, with repr called on its nonzero entries only.

    json.dumps writes a float as its repr, so a zero is "0.0", or "-0.0"
    when its sign bit is set.
    """
    m, n = a.shape
    lines = [["0.0"] * n for _ in range(m)]
    rows, cols = np.nonzero((a != 0) | np.signbit(a))
    for i, j, x in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
        lines[i][j] = repr(x)
    return "[" + ", ".join(["[" + ", ".join(line) + "]" for line in lines]) + "]"


def dump_model(model: MeasurementModel) -> str:
    """dump_json(model_to_dict(model)) byte for byte, for the cost of H's nonzero entries.

    "H" sorts before every lowercase key, so H's array opens the object and
    the other fields follow as dump_json writes them.
    """
    return '{"H": ' + _json_rows(model.h) + ", " + dump_json(_fields_besides_h(model))[1:]


def model_from_dict(doc: dict) -> MeasurementModel:
    doc = fields(doc, "model document", "labels", "H", "z")
    return MeasurementModel(
        h=numbers(doc["H"], "field 'H'", nested=True),
        z=numbers(doc["z"], "field 'z'"),
        labels=tuple(string(s, "a label") for s in array(doc["labels"], "field 'labels'")),
        true_states=None if doc.get("true_states") is None else numbers(
            doc["true_states"], "field 'true_states'"),
        state_labels=None if doc.get("state_labels") is None else tuple(
            string(s, "a state label") for s in array(doc["state_labels"], "field 'state_labels'")),
    )


def load_model(path) -> MeasurementModel:
    return model_from_dict(read_json(path))


def save_model(model: MeasurementModel, path) -> None:
    Path(path).write_text(dump_model(model), encoding="utf-8")
