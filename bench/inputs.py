"""Seeded input files for the benchmark.

Every network is a k x k DC mesh: buses 1..k*k numbered row-major, a line
between each pair of horizontal and vertical neighbours with reactance
x ~ U(0.05, 0.3), a ``pflow`` on every line, a ``pinj`` on every other bus
(the odd-numbered ones) and bus 1 as the angle reference.  For k = 10
this gives a 230 x 99 model, for k = 8 a 144 x 63 one and for k = 3 a
17 x 8 one.

The model matrix is built here, independently of ``lavse.power``, so that
the benchmark can check ``lavse build`` against it.  Files depend only on
the seed: the same seed writes byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE_SIGMA = 0.01
GROSS_FRACTION = 0.02
GROSS_RANGE = (0.5, 1.0)
THETA_SIGMA = 0.1


@dataclass(frozen=True)
class Instance:
    """One generated mesh: its size k, whether z is noisy, and its two files."""

    name: str
    k: int
    noisy: bool
    network: Path
    model: Path


def mesh_network(k: int, rng: np.random.Generator) -> dict:
    """Network document of a k x k mesh in the ``lavse`` network format."""
    buses = list(range(1, k * k + 1))
    lines = []
    for r in range(k):
        for c in range(k):
            b = r * k + c + 1
            if c + 1 < k:
                lines.append((b, b + 1))
            if r + 1 < k:
                lines.append((b, b + k))
    xs = rng.uniform(0.05, 0.3, size=len(lines))
    meas = [{"kind": "pflow", "label": f"P_flow{f}-{t}", "from": f, "to": t}
            for f, t in lines]
    meas += [{"kind": "pinj", "label": f"P_inj{b}", "bus": b} for b in buses[::2]]
    return {
        "buses": buses,
        "reference": 1,
        "lines": [{"from": f, "to": t, "x": float(x), "r": 0.0}
                  for (f, t), x in zip(lines, xs)],
        "measurements": meas,
    }


def mesh_matrix(net: dict) -> np.ndarray:
    """DC model matrix of a mesh network: angle columns without the reference."""
    cols = {b: i for i, b in enumerate(b for b in net["buses"] if b != net["reference"])}
    susceptance = {}
    for ln in net["lines"]:
        susceptance[(ln["from"], ln["to"])] = 1.0 / ln["x"]
        susceptance[(ln["to"], ln["from"])] = 1.0 / ln["x"]

    def flow(f: int, t: int) -> np.ndarray:
        row = np.zeros(len(cols))
        if f in cols:
            row[cols[f]] += susceptance[(f, t)]
        if t in cols:
            row[cols[t]] -= susceptance[(f, t)]
        return row

    rows = []
    for spec in net["measurements"]:
        if spec["kind"] == "pflow":
            rows.append(flow(spec["from"], spec["to"]))
        else:
            bus = spec["bus"]
            row = np.zeros(len(cols))
            for f, t in susceptance:
                if f == bus:
                    row += flow(bus, t)
            rows.append(row)
    return np.array(rows)


def mesh_model(net: dict, rng: np.random.Generator, noisy: bool) -> dict:
    """Model document: z = H theta, plus noise and gross errors when noisy."""
    h = mesh_matrix(net)
    m, n = h.shape
    theta = rng.normal(0.0, THETA_SIGMA, size=n)
    z = h @ theta
    if noisy:
        z = z + rng.normal(0.0, NOISE_SIGMA, size=m)
        bad = rng.choice(m, size=max(1, round(GROSS_FRACTION * m)), replace=False)
        z[bad] += rng.choice([-1.0, 1.0], size=bad.size) * rng.uniform(*GROSS_RANGE, size=bad.size)
    return {
        "labels": [spec["label"] for spec in net["measurements"]],
        "H": h.tolist(),
        "z": z.tolist(),
        "true_states": theta.tolist(),
        "state_labels": [f"theta_{b}" for b in net["buses"] if b != net["reference"]],
    }


def write_instances(out: Path, seed: int, specs) -> list[Instance]:
    """Write one network and one model file per (k, noisy) spec, in order.

    Instance i draws from its own stream, spawned from the seed, so adding
    instances never changes the earlier ones.
    """
    out.mkdir(parents=True, exist_ok=True)
    streams = np.random.SeedSequence(seed).spawn(len(specs))
    instances = []
    for i, ((k, noisy), stream) in enumerate(zip(specs, streams)):
        rng = np.random.default_rng(stream)
        name = f"mesh{k}-{'noisy' if noisy else 'exact'}-{i}"
        net = mesh_network(k, rng)
        model = mesh_model(net, rng, noisy)
        inst = Instance(name, k, noisy, out / f"{name}.net.json", out / f"{name}.model.json")
        inst.network.write_text(json.dumps(net, indent=1) + "\n")
        inst.model.write_text(json.dumps(model) + "\n")
        instances.append(inst)
    return instances
