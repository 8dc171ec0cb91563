"""Gaussian rate-distortion via reverse water-filling over the spectrum.

The rate (nats per time step) at total mean-square distortion D per time step
follows from filling distortion up to a common water level w across the
spectral eigenvalues mu_j.  The distortion sum_j min(w, mu_j) is piecewise
linear in w with breakpoints at the sorted eigenvalues, so the level comes in
closed form from one sort and one cumulative sum.  There is one sort per
eigenvalue set: a rank-integral result keeps its sorted eigenvalues and their
prefix sums (`RankProfile.sorted_eigenvalues_and_sums`), so the rd slope and
the rd curve of one result share them however many distortions they fill.
The low-distortion slope of the rate against -(1/2) log D recovers the
information dimension rate, giving an independent semi-analytic cross-check
of the spectral rank integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import DimensionEstimate, _ls_slope
from .spectral import RankIntegralResult

D_LADDER = (1e-2, 1e-4, 1e-6)  # distortions of the rd slope and curve, decreasing


@dataclass(frozen=True)
class WaterfillPoint:
    distortion: float
    rate: float
    water_level: float


@dataclass(frozen=True)
class RDCurve:
    points: tuple  # WaterfillPoints, decreasing distortion

    def as_rows(self):
        return [(p.distortion, p.rate, p.water_level) for p in self.points]


def _waterfill(sorted_eigenvalues: tuple, weight: float, distortion: float) -> WaterfillPoint:
    """Reverse water-filling of eigenvalues mu, each carrying `weight`, at total
    distortion D: the level w with weight * sum_j min(w, mu_j) = D and the rate
    weight * sum_j max(0, (1/2) log(mu_j / w)).

    `sorted_eigenvalues` is (mu, c) as `spectral._ascending_prefix_sums`
    returns it: mu sorted ascending and c_i the sum of the i smallest.  The
    level sum at w in [mu_{i-1}, mu_i] is c_i + w (n - i).  Its values at the
    breakpoints, g_i = c_i + mu_i (n - i), do not decrease, so the first i with
    g_i >= D/weight gives w = (D/weight - c_i) / (n - i) exactly.
    """
    if distortion <= 0:
        raise ValueError(f"distortion must be > 0, got {distortion}")
    mu, csum = sorted_eigenvalues
    n = mu.size
    target = distortion / weight
    # g_{n-1} == csum[n] bit for bit, so below this check the index is < n.
    if target >= csum[-1]:
        return WaterfillPoint(float(distortion), 0.0, float(mu.max(initial=0.0)))
    g = csum[:-1] + mu * np.arange(n, 0, -1)
    i = int(np.searchsorted(g, target))
    w = (target - csum[i]) / (n - i)
    rate = float(0.5 * np.log(mu[i:] / w).sum() * weight)
    return WaterfillPoint(float(distortion), rate, float(w))


def rd_curve(ri: RankIntegralResult, d_ladder=D_LADDER) -> RDCurve:
    """Rate-distortion curve at the given distortion ladder (descending),
    water-filled over the grid eigenvalues of one rank-integral evaluation."""
    levels = ri.profile.sorted_eigenvalues_and_sums
    return RDCurve(tuple(_waterfill(levels, 1.0 / ri.grid_n, d) for d in d_ladder))


def rd_dimension_estimate(ri: RankIntegralResult, d_ladder=D_LADDER) -> DimensionEstimate:
    """Dimension from the low-distortion rate slope.

    R(D) ~ -(d/2) log D + const once the water level sits below the smallest
    supported eigenvalue, so the least-squares slope of R against
    -(1/2) log D is the dimension.  Distortions must be decreasing and small
    relative to the total power (a zero-power model short-circuits to 0).
    Every rate is water-filled over the grid eigenvalues of `ri`.
    """
    ladder = tuple(float(d) for d in d_ladder)
    if len(ladder) < 2 or any(d <= 0 for d in ladder) or sorted(ladder, reverse=True) != list(ladder):
        raise ValueError(f"d_ladder must be >= 2 strictly decreasing positive values, got {d_ladder}")
    weight = 1.0 / ri.grid_n
    total = float(ri.profile.eigenvalues.sum() * weight)
    if total <= 0:
        return DimensionEstimate(
            0.0, "rate-distortion", ladder, 0, 0, 0.0,
            notes="zero total power: rate is identically 0",
        )
    if max(ladder) > total / 4.0:
        raise ValueError(f"d_ladder must stay below total power / 4 = {total / 4.0:.3e}")
    levels = ri.profile.sorted_eigenvalues_and_sums
    rates = [_waterfill(levels, weight, d).rate for d in ladder]
    x = -0.5 * np.log(np.asarray(ladder))
    slope, se, pairwise = _ls_slope(x, rates)
    return DimensionEstimate(float(slope), "rate-distortion", ladder, 0, 0, se, pairwise_slopes=pairwise)
