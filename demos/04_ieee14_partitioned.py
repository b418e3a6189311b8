#!/usr/bin/env python3
"""Partitioned leverage identification on the 14-bus benchmark.

Scanning all 27-state bases of the 44-row model would take about 1.7e11
null-vector computations per measurement; the detector's per-row LAV fit
avoids that scan.  As in the reference study, the system is split into two
overlapping subsystems and each is analyzed on its own states.  The merged
verdicts are compared against the reference classification bundled with
the fixture; gross errors injected afterwards change nothing, because the
test never reads the measurement values.
"""

from lavse import combination_count, fixture_model
from lavse.experiments import ieee14_partitions, reproduce_table1

model = fixture_model("ieee14-dc")
print(f"model: {model.m} measurements, {model.n} states")
print(f"bases per measurement without partitioning: {combination_count(43, 27):.4g}")

parts = ieee14_partitions(model)
for part in parts:
    print(f"partition {part.name}: {len(part.measurement_indices)} measurements")

result = reproduce_table1()
print()
print(result.render())
