"""Projection-statistics baseline for leverage identification.

Each row is scored by the largest standardized projection of the row cloud
onto a set of candidate directions, then compared against a chi-square
cutoff whose degrees of freedom come from the row's sparsity.  This is the
classical robust-statistics screen the inequality-based detector is
benchmarked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgument
from .model import MeasurementModel, pow2_scaled

# Consistency factor making the MAD estimate the Gaussian sigma.
_MAD_SCALE = 1.4826

# Directions projected per matrix product.  A speed tile, not a memory
# bound, so not a ``stack_slices`` budget: on the seed-1 noisy 10x10 bench
# meshes (230 x 99, 2 vCPU) 64-direction tiles took a median 1.71 ms per
# ``compute_ps``, against 1.76 ms for all 230 directions in one product,
# as a 1 MiB stack would take them.
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
    directions_used: int
    directions_skipped: int
    degenerate: bool
    variant: ClassVar[str] = PS_VARIANT

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

    def render_table(self, labels) -> str:
        width = max(len(str(s)) for s in list(labels) + ["measurement"])
        lines = [f"{'measurement':<{width}}  {'PS':>10}  {'chi2':>8}  {'d':>2}  flagged"]
        for i in range(len(self.ps)):
            lines.append(
                f"{labels[i]:<{width}}  {self.ps[i]:>10.4g}  {self.cutoff[i]:>8.4g}"
                f"  {self.dof[i]:>2d}  {'yes' if self.flagged[i] else 'no'}"
            )
        if self.degenerate:
            lines.append("all projection directions degenerate: statistics undefined")
        return "\n".join(lines)


def chi2_quantile(d: int) -> float:
    """0.975-quantile of the chi-square distribution with d degrees of freedom.

    The cutoff level of projection statistics (``PS_VARIANT``), computed as
    twice the inverse of the regularized incomplete gamma function at
    a = d/2, with scalar ``math`` arithmetic (see ``_gamma_quantile``).
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidArgument(f"degrees of freedom must be a positive integer, got {d!r}")
    return 2.0 * _gamma_quantile(int(d))


# The upper tail 1 - 0.975 of the cutoff level.
_TAIL = 1.0 - 0.975

# ln Gamma(a + 1) = a ln a - a + ln(2 pi a) / 2 + sum_k B_2k / (2k (2k - 1) a^(2k - 1)):
# the Stirling coefficients for k = 1..7.  For a >= _STIRLING_MIN the first
# omitted term is below 3e-17; smaller a uses math.lgamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN = 10.0

# A sum ends at a term below _SUM_EPS times its partial sum.  The root
# search ends at a Halley step below _STEP_TOL times the iterate: the error
# left after that step is of the order of the step cubed.
_SUM_EPS = 1e-17
_STEP_TOL = 1e-8
_MAX_STEPS = 200


@functools.lru_cache(maxsize=256)
def _gamma_quantile(d: int) -> float:
    """The y with Q(d/2, y) = 1 - 0.975, Q the regularized upper incomplete gamma function.

    Q is in closed form: a = d/2 is an integer or a half-integer, so Q is a
    finite sum plus, for half-integer a, erfc(sqrt(y)).  So the tail loses
    no digits to cancellation.  Halley steps start from the Wilson-Hilferty
    value, keep a bracket of the root and bisect it when a step leaves it.

    Cached, since a caller asks for a few dof levels over and over.
    """
    a = 0.5 * d
    if a < _STIRLING_MIN:
        log_scale = a * math.log(a) - a - math.lgamma(a + 1.0)
    else:
        log_scale = -0.5 * math.log(2.0 * math.pi * a) - sum(
            c / a ** (2 * k + 1) for k, c in enumerate(_STIRLING))

    def residual(y: float, pre: float) -> float:
        """1 - 0.975 - Q(a, y): increasing in y."""
        # Q(a, y) = Q(a - k, y) + pre * sum_{i=1..k} prod_{m<i} (a - m) / y,
        # with k the integer part of a, Q(0, y) = 0 and Q(1/2, y) = erfc(sqrt(y)).
        total, term = 0.0, 1.0
        m = a
        while m >= 1.0:
            term *= m / y
            total += term
            if m < y and term < _SUM_EPS * total:
                break
            m -= 1.0
        base = math.erfc(math.sqrt(y)) if d % 2 else 0.0
        return _TAIL - base - pre * total

    # z from Abramowitz & Stegun 26.2.23, to 4.5e-4.
    t = math.sqrt(-2.0 * math.log(_TAIL))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t * t * t)
    w = 2.0 / (9.0 * d)
    y = 0.5 * d * (1.0 - w + z * math.sqrt(w))**3

    lo, hi = 0.0, math.inf
    for _ in range(_MAX_STEPS):
        # y^a e^-y / Gamma(a + 1); in this form no large logarithms cancel.
        pre = math.exp(a * math.log(y / a) + (a - y) + log_scale)
        g = residual(y, pre)
        if g > 0.0:
            hi = y
        elif g < 0.0:
            lo = y
        else:
            return y
        density = pre * a / y
        new = -1.0
        if density > 0.0:
            step = g / density
            # Halley's correction, with g''/g' = (a - 1)/y - 1 for the gamma density.
            step /= max(1.0 - 0.5 * step * ((a - 1.0) / y - 1.0), 0.5)
            if abs(step) <= _STEP_TOL * y:
                return y - step
            new = y - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * y
        y = new
        if hi - lo <= 4.0 * math.ulp(y):
            break
    return y


def compute_ps(model: MeasurementModel) -> PSReport:
    """Projection statistics of the model rows.

    Candidate directions are the rows recentred at the coordinatewise
    median; projections along each direction are standardized by the
    scaled median absolute deviation, and each row keeps the square of its
    worst standardized projection.  These ratios do not depend on the scale
    of h, so they are computed on h scaled by a power of two, on which no
    norm overflows.
    """
    m = model.m
    if m < 2:
        raise InvalidArgument("projection statistics need at least two rows")

    dof = np.count_nonzero(model.h, axis=1)
    zero_rows = np.flatnonzero(dof == 0)
    if zero_rows.size:
        raise InvalidArgument(f"row {model.labels[zero_rows[0]]!r} is all zero: "
                              "projection statistics need a nonzero coefficient in every row")

    h = pow2_scaled(model.h, None)[0]
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
        directions_used=used,
        directions_skipped=skipped,
        degenerate=degenerate,
    )
