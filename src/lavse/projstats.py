"""Projection-statistics baseline for leverage identification.

Each row is scored by the largest standardized projection of the row cloud
onto a set of candidate directions, then compared against a chi-square
cutoff whose degrees of freedom come from the row's sparsity.  This is the
classical robust-statistics screen the inequality-based detector is
benchmarked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidArgument
from .model import MeasurementModel

# Consistency factor making the MAD estimate the Gaussian sigma.
_MAD_SCALE = 1.4826

# Directions projected per matrix product; bounds temporaries to M x _BLOCK.
_BLOCK = 64

# A direction whose MAD is at most _MAD_FLOOR times its largest |projection|
# has no spread and is skipped.
_MAD_FLOOR = 1e-12

PS_VARIANT = (
    "directions h_k - coordinatewise-median; |proj - median| / (1.4826 * MAD); "
    "statistic squared for chi-square comparability; cutoff chi2(dof, 0.975)"
)


@dataclass(frozen=True)
class PSReport:
    """Projection statistics per row with chi-square classification.

    ps holds the squared maximal standardized projection so that it lives
    on the same scale as the chi-square cutoff;  flagged is exactly
    ps > cutoff.  Directions whose projection spread (MAD) vanishes carry
    no information and are skipped; if every direction degenerates the
    statistics are undefined (NaN, written as null by ``to_dict``) and
    ``degenerate`` is set.
    """

    ps: np.ndarray
    dof: np.ndarray
    cutoff: np.ndarray
    flagged: np.ndarray
    variant: str
    directions_used: int
    directions_skipped: int
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "ps": [None if math.isnan(x) else x for x in self.ps.tolist()],
            "dof": self.dof.tolist(),
            "cutoff": self.cutoff.tolist(),
            "flagged": self.flagged.tolist(),
            "variant": self.variant,
            "directions_used": self.directions_used,
            "directions_skipped": self.directions_skipped,
            "degenerate": self.degenerate,
        }

    def render_table(self, labels=None) -> str:
        m = len(self.ps)
        labels = labels or [f"m{i + 1}" for i in range(m)]
        width = max(len(str(s)) for s in list(labels) + ["measurement"])
        lines = [f"{'measurement':<{width}}  {'PS':>10}  {'chi2':>8}  {'d':>2}  flagged"]
        for i in range(m):
            lines.append(
                f"{labels[i]:<{width}}  {self.ps[i]:>10.4g}  {self.cutoff[i]:>8.4g}"
                f"  {self.dof[i]:>2d}  {'yes' if self.flagged[i] else 'no'}"
            )
        if self.degenerate:
            lines.append("all projection directions degenerate: statistics undefined")
        return "\n".join(lines)


def chi2_quantile(d: int, p: float = 0.975) -> float:
    """p-quantile of the chi-square distribution with d degrees of freedom.

    Computed through the inverse of the regularized incomplete gamma
    function.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidArgument(f"degrees of freedom must be a positive integer, got {d!r}")
    if not 0.0 < p < 1.0:
        raise InvalidArgument(f"quantile level must lie in (0, 1), got {p!r}")
    return float(2.0 * special.gammaincinv(d / 2.0, p))


def compute_ps(model: MeasurementModel) -> PSReport:
    """Projection statistics of the model rows.

    Candidate directions are the rows recentred at the coordinatewise
    median; projections along each direction are standardized by the
    scaled median absolute deviation, and each row keeps the square of its
    worst standardized projection.
    """
    h = model.h
    m = model.m
    if m < 2:
        raise InvalidArgument("projection statistics need at least two rows")

    dof = np.count_nonzero(h, axis=1)
    zero_rows = np.flatnonzero(dof == 0)
    if zero_rows.size:
        raise InvalidArgument(f"row {model.labels[zero_rows[0]]!r} is all zero: "
                              "projection statistics need a nonzero coefficient in every row")

    center = np.median(h, axis=0)
    directions = h - center
    norms = np.linalg.norm(directions, axis=1)
    scale = norms.max()
    live = np.flatnonzero(norms > scale * 1e-12)

    best = np.zeros(m)
    used = 0
    for start in range(0, live.size, _BLOCK):
        k = live[start:start + _BLOCK]
        proj = h @ (directions[k] / norms[k, None]).T
        dev = np.abs(proj - np.median(proj, axis=0))
        mad = np.median(dev, axis=0)
        ok = mad > _MAD_FLOOR * np.abs(proj).max(axis=0)
        used += int(np.count_nonzero(ok))
        np.maximum(best, (dev[:, ok] / (_MAD_SCALE * mad[ok])).max(axis=1, initial=0.0),
                   out=best)
    skipped = m - used

    levels, level_of_row = np.unique(dof, return_inverse=True)
    cutoff = np.array([chi2_quantile(int(d)) for d in levels])[level_of_row]
    degenerate = used == 0
    ps = np.full(m, np.nan) if degenerate else best**2
    flagged = np.zeros(m, dtype=bool) if degenerate else ps > cutoff
    return PSReport(
        ps=ps,
        dof=dof,
        cutoff=cutoff,
        flagged=flagged,
        variant=PS_VARIANT,
        directions_used=used,
        directions_skipped=skipped,
        degenerate=degenerate,
    )
