#!/usr/bin/env python3
"""Random extra-row study: where does a row start to hurt the estimator?

An eighth row with Gaussian entries (variance 30) joins the 3-bus matrix;
its measurement carries a 10 p.u. gross error.  Per trial we record the
inequality-test verdict on that row and whether the absolute-value fit
actually left the generating states.  The two classifications coincide
almost everywhere: the plane splits into a clean region and a leverage
region with a sharp geometric border.

Writes random_rows.csv next to this script; renders random_rows.png when
matplotlib is importable.
"""

from pathlib import Path

import numpy as np

from lavse.experiments import BOUNDARY_BAND, MC_SEED, MC_TRIALS, run_monte_carlo

here = Path(__file__).resolve().parent
records = run_monte_carlo(MC_TRIALS, MC_SEED, csv_path=here / "random_rows.csv")

flagged = np.array([r.detector_flagged for r in records])
deviated = np.array([r.lav_deviated for r in records])
rows = np.array([r.extra_row for r in records])
near = np.array([r.near_boundary for r in records])

print(f"trials: {len(rows)}")
print(f"detector flagged: {flagged.sum()}  estimate deviated: {deviated.sum()}")
print(f"agreement outside the {BOUNDARY_BAND:.0%} boundary band: "
      f"{np.mean(flagged[~near] == deviated[~near]):.4f}")
print(f"wrote {here / 'random_rows.csv'}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the scatter plot")
else:
    fig, ax = plt.subplots(figsize=(6, 6))
    ok = ~deviated
    ax.scatter(rows[ok, 0], rows[ok, 1], s=6, c="tab:blue", label="estimation holds")
    ax.scatter(rows[~ok, 0], rows[~ok, 1], s=6, c="tab:red", label="estimation deviates")
    ax.set_xlabel("extra-row first coefficient")
    ax.set_ylabel("extra-row second coefficient")
    ax.set_title("Deviation region of the random extra row")
    ax.legend(loc="upper right")
    ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig(here / "random_rows.png", dpi=130)
    print(f"wrote {here / 'random_rows.png'}")
