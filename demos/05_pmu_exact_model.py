#!/usr/bin/env python3
"""Phasor measurements: a model that is exactly linear, not a linearization.

With voltage and current phasors in rectangular coordinates and lossless
lines, real current parts respond only to imaginary voltage parts and vice
versa, so the model splits into two decoupled blocks.  The current rows of
the two blocks agree up to sign, which the leverage test is blind to, so
both blocks classify identically -- and, like the flow-based model of the
same network, entirely clean.
"""

import numpy as np

from lavse import detect_all, fixture_network, build_pmu_model, pmu_blocks

net = fixture_network("threebus-pmu")
im_block, re_block = pmu_blocks(net)

print("imaginary-voltage block (rows: measurements, columns:", im_block.state_labels, ")")
print(im_block.h)
print("\nreal-voltage block (columns:", re_block.state_labels, ")")
print(re_block.h)

assembled = build_pmu_model(net)
print(f"\nassembled model: {assembled.m} x {assembled.n}, block-diagonal:",
      not assembled.h[:10, 3:].any() and not assembled.h[10:, :3].any())

for name, block in (("imaginary", im_block), ("real", re_block)):
    report = detect_all(block)
    print(f"{name} block verdicts: {sorted(set(report.verdicts))} "
          f"({report.combos_examined} simplex pivots)")

sign_flip = np.abs(im_block.h[3:]) - np.abs(re_block.h[3:])
print("current rows agree up to sign between blocks:", not sign_flip.any())
