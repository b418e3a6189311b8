"""Power-network descriptions and measurement-model builders.

Two builders are provided.  The DC builder produces the classical
decoupled linearization: active-power rows couple bus angles through line
susceptances 1/x, reactive/voltage rows mirror that structure on the
magnitude block, and the reference bus angle column is removed.  The PMU
builder expresses current phasor measurements in rectangular coordinates,
where the relation to the voltage phasors is exactly linear for lossless
lines, and yields a block-diagonal matrix (real currents against imaginary
voltages, and vice versa); ``pmu_blocks`` slices that matrix into its two
blocks.

Both builders share one row builder, ``_build``, driven by the ``_KINDS``
table: a flow row is +-1/x at its two buses, an injection row sums the
flows on every line incident to its bus, each with that line's own 1/x,
and a voltage row is a unit row.  A flow measurement needs exactly one
line between its buses, since the network format has no branch id to
tell parallel lines apart.

Bundled fixtures: ``threebus-dc``, ``threebus-pmu`` and ``ieee14-dc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedBus,
    InvalidArgument,
    UnsupportedKind,
)
from .model import MeasurementModel, array, dump_json, fields, integral, number, read_json, string

# kind -> (state block, row shape, sign of a flow's entry at its from-bus).
# PMU currents are received currents: flow f->t reads (V_t - V_f)/x on the
# imaginary-voltage block and (V_f - V_t)/x on the real one.
_KINDS = {
    "pflow": ("theta", "flow", 1.0),
    "pinj": ("theta", "inj", 1.0),
    "qflow": ("vm", "flow", 1.0),
    "qinj": ("vm", "inj", 1.0),
    "vmag": ("vm", "bus", 1.0),
    "iflow_re": ("im", "flow", -1.0),
    "iinj_re": ("im", "inj", -1.0),
    "vim": ("im", "bus", 1.0),
    "iflow_im": ("re", "flow", 1.0),
    "iinj_im": ("re", "inj", 1.0),
    "vre": ("re", "bus", 1.0),
}
_STATE_LABELS = {"theta": "theta_{}", "vm": "vm_{}", "im": "v{}_im", "re": "v{}_re"}

FIXTURES = ("threebus-dc", "threebus-pmu", "ieee14-dc")


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    x: float
    r: float = 0.0


@dataclass(frozen=True)
class MeasurementSpec:
    kind: str
    label: str
    bus: Optional[int] = None
    from_bus: Optional[int] = None
    to_bus: Optional[int] = None


@dataclass(frozen=True)
class GrossErrorSpec:
    label: str
    magnitude: float


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass
class NetworkModel:
    """Buses, lines and measurement points of a study network."""

    buses: list[int]
    reference_bus: int
    lines: list[Line]
    measurements: list[MeasurementSpec]

    def __post_init__(self):
        bus_set = set(self.buses)
        if len(bus_set) != len(self.buses):
            raise InvalidArgument("bus ids must be unique")
        if self.reference_bus not in bus_set:
            raise InvalidArgument(f"reference bus {self.reference_bus} not in bus list")
        lines_per_pair: dict[tuple[int, int], int] = {}
        for ln in self.lines:
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise InvalidArgument(f"line {ln.from_bus}-{ln.to_bus} references unknown bus")
            if ln.from_bus == ln.to_bus:
                raise InvalidArgument(f"line {ln.from_bus}-{ln.to_bus} joins a bus to itself")
            if not (math.isfinite(ln.x) and ln.x > 0):
                raise InvalidArgument(f"line {ln.from_bus}-{ln.to_bus} needs a finite x > 0")
            if not math.isfinite(ln.r):
                raise InvalidArgument(f"line {ln.from_bus}-{ln.to_bus} needs a finite r")
            pair = _pair(ln.from_bus, ln.to_bus)
            lines_per_pair[pair] = lines_per_pair.get(pair, 0) + 1
        labels = [spec.label for spec in self.measurements]
        if len(set(labels)) != len(labels):
            raise InvalidArgument("measurement labels must be unique")
        for spec in self.measurements:
            if spec.kind not in _KINDS:
                raise InvalidArgument(f"{spec.label}: unknown measurement kind {spec.kind!r}")
            if _KINDS[spec.kind][1] != "flow":
                if spec.bus is None or spec.bus not in bus_set:
                    raise InvalidArgument(f"{spec.label}: unknown bus {spec.bus}")
                continue
            if spec.from_bus is None or spec.to_bus is None:
                raise InvalidArgument(f"{spec.label}: flow measurements need from/to buses")
            count = lines_per_pair.get(_pair(spec.from_bus, spec.to_bus), 0)
            if count == 0:
                raise InvalidArgument(f"{spec.label}: no line between "
                                      f"{spec.from_bus} and {spec.to_bus}")
            if count > 1:
                raise InvalidArgument(f"{spec.label}: {count} parallel lines between "
                                      f"{spec.from_bus} and {spec.to_bus}; a flow "
                                      "measurement needs exactly one")


def _synthesize_z(h: np.ndarray, states) -> np.ndarray:
    if states is None:
        return np.zeros(h.shape[0])
    states = np.asarray(states, dtype=float).reshape(-1)
    if states.shape != (h.shape[1],):
        raise DimensionMismatch(
            f"states vector has length {states.shape[0]}, expected {h.shape[1]}")
    return h @ states


def _build(net: NetworkModel, name: str, blocks: dict[str, list[int]], states,
           order=None) -> MeasurementModel:
    """Measurement model of ``net`` over the column blocks ``blocks``.

    ``blocks`` maps each state block to the buses that get a column in it;
    a block no measurement reads gets no columns.  Rows follow the input
    order, stably sorted by ``order`` when given.  A flow f->t is
    sign/x at f and -sign/x at t, where sign comes from ``_KINDS``; an
    injection at a bus is the sum of the flows from it along each incident
    line; a bus without a column in the block (the DC reference angle)
    gets no entry.  z is H @ states when states are supplied, else zeros.
    """
    bad = [s.label for s in net.measurements if _KINDS[s.kind][0] not in blocks]
    if bad:
        raise UnsupportedKind(f"not a {name} measurement kind: {', '.join(bad)}")
    # One pass over the lines: the susceptance of each bus pair, and the
    # lines incident to each bus as (other bus, susceptance).
    susceptance: dict[tuple[int, int], float] = {}
    incident: dict[int, list[tuple[int, float]]] = {b: [] for b in net.buses}
    for ln in net.lines:
        b = 1.0 / ln.x
        susceptance[_pair(ln.from_bus, ln.to_bus)] = b
        incident[ln.from_bus].append((ln.to_bus, b))
        incident[ln.to_bus].append((ln.from_bus, b))
    for bus, lines in incident.items():
        if not lines:
            raise DisconnectedBus(f"bus {bus} has no incident line")

    specs = net.measurements if order is None else sorted(net.measurements, key=order)
    used = {_KINDS[s.kind][0] for s in specs}
    col: dict[str, dict[int, int]] = {}
    state_labels: list[str] = []
    for block, buses in blocks.items():
        if block in used:
            col[block] = {b: len(state_labels) + i for i, b in enumerate(buses)}
            state_labels += [_STATE_LABELS[block].format(b) for b in buses]

    h = np.zeros((len(specs), len(state_labels)))
    for i, spec in enumerate(specs):
        block, shape, sign = _KINDS[spec.kind]
        cols = col[block]
        if shape == "bus":
            h[i, cols[spec.bus]] = 1.0
            continue
        if shape == "flow":
            flows = [(spec.from_bus, spec.to_bus,
                      susceptance[_pair(spec.from_bus, spec.to_bus)])]
        else:
            flows = [(spec.bus, other, b) for other, b in incident[spec.bus]]
        for f, t, b in flows:
            if f in cols:
                h[i, cols[f]] += sign * b
            if t in cols:
                h[i, cols[t]] -= sign * b
    return MeasurementModel(h, _synthesize_z(h, states), tuple(s.label for s in specs),
                            true_states=states, state_labels=tuple(state_labels))


def build_dc_model(net: NetworkModel, states=None) -> MeasurementModel:
    """Decoupled linear model for P/Q/voltage-magnitude measurements.

    Flow i->j contributes +1/x at the sending bus column and -1/x at the
    receiving one; an injection row is the sum of the flow rows leaving
    its bus.  Angle columns omit the reference bus, magnitude columns keep
    every bus (voltage measurements pin the level).  z is synthesized as
    H @ states when states are supplied, else zeros.
    """
    theta_buses = [b for b in net.buses if b != net.reference_bus]
    return _build(net, "DC", {"theta": theta_buses, "vm": net.buses}, states)


def build_pmu_model(net: NetworkModel, states=None) -> MeasurementModel:
    """Exactly linear phasor model in rectangular coordinates.

    For lossless lines a current flow received at bus i from bus j is
    (V_j - V_i) / (j x); its real part therefore reads imaginary voltage
    differences and its imaginary part real voltage differences, so the
    model splits into two decoupled blocks.  Injections sum the incident
    flows; voltage component measurements are identity rows.  Rows are
    ordered imaginary-voltage block first, preserving input order inside
    each block.
    """
    return _build(net, "PMU", {"im": net.buses, "re": net.buses}, states,
                  order=lambda spec: _KINDS[spec.kind][0] != "im")


def pmu_blocks(net: NetworkModel) -> tuple[Optional[MeasurementModel], Optional[MeasurementModel]]:
    """The two decoupled submodels of ``build_pmu_model``.

    Returns (imaginary-voltage block, real-voltage block), sliced from the
    assembled model; a block with no measurements is returned as None.
    """
    model = build_pmu_model(net)
    m_im = sum(_KINDS[s.kind][0] == "im" for s in net.measurements)
    n_im = len(net.buses) if m_im else 0
    im = model.submodel(range(m_im), range(n_im)) if m_im else None
    re = model.submodel(range(m_im, model.m), range(n_im, model.n)) if m_im < model.m else None
    return im, re


def inject_gross_errors(model: MeasurementModel,
                        errors: Sequence[GrossErrorSpec]) -> MeasurementModel:
    """Copy of the model with additive errors applied to z; H is untouched."""
    z = model.z.copy()
    for err in errors:
        z[model.row_index(err.label)] += err.magnitude
    return model.with_z(z)


# ---------------------------------------------------------------------------
# Network file format and bundled fixtures.
# ---------------------------------------------------------------------------


def network_to_dict(net: NetworkModel) -> dict:
    meas = []
    for s in net.measurements:
        entry = {"kind": s.kind, "label": s.label}
        if s.bus is not None:
            entry["bus"] = s.bus
        if s.from_bus is not None:
            entry["from"] = s.from_bus
            entry["to"] = s.to_bus
        meas.append(entry)
    return {
        "buses": list(net.buses),
        "reference": net.reference_bus,
        "lines": [{"from": ln.from_bus, "to": ln.to_bus, "x": ln.x, "r": ln.r}
                  for ln in net.lines],
        "measurements": meas,
    }


def network_from_dict(doc: dict) -> NetworkModel:
    doc = fields(doc, "network document", "buses", "reference", "lines", "measurements")
    lines = [fields(d, "line", "from", "to", "x") for d in array(doc["lines"], "field 'lines'")]
    specs = [fields(d, "measurement", "kind", "label")
             for d in array(doc["measurements"], "field 'measurements'")]
    return NetworkModel(
        buses=[integral(b, "bus id") for b in array(doc["buses"], "field 'buses'")],
        reference_bus=integral(doc["reference"], "bus id"),
        lines=[Line(integral(d["from"], "bus id"), integral(d["to"], "bus id"),
                    number(d["x"], "line x"), number(d.get("r", 0.0), "line r"))
               for d in lines],
        measurements=[
            MeasurementSpec(
                kind=string(d["kind"], "measurement kind"),
                label=string(d["label"], "measurement label"),
                bus=None if d.get("bus") is None else integral(d["bus"], "bus id"),
                from_bus=None if d.get("from") is None else integral(d["from"], "bus id"),
                to_bus=None if d.get("to") is None else integral(d["to"], "bus id"),
            )
            for d in specs
        ],
    )


def load_network(path) -> NetworkModel:
    return network_from_dict(read_json(path))


def save_network(net: NetworkModel, path) -> None:
    Path(path).write_text(dump_json(network_to_dict(net)), encoding="utf-8")


def fixture_network(name: str) -> NetworkModel:
    """Load a bundled network by name (see FIXTURES)."""
    if name not in FIXTURES:
        raise InvalidArgument(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    fname = name.replace("-", "_") + ".json"
    return load_network(Path(__file__).with_name("data") / fname)


def fixture_model(name: str, states=None) -> MeasurementModel:
    """Build the measurement model of a bundled fixture."""
    net = fixture_network(name)
    if name.endswith("-pmu"):
        return build_pmu_model(net, states)
    return build_dc_model(net, states)
