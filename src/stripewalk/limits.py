"""Closed-form limit profiles and weak-convergence diagnostics.

Three limit shapes matter:

* the M = 1 walk satisfies a central limit theorem with variance
  sigma^2 = |a|^2 / (1 - |a|^2) under the diffusive scaling x / sqrt(n);
* the untruncated walk converges ballistically (x / n) to the arcsine-like
  density K(x) = 1 / (pi (1 - x^2) sqrt(1 - 2 x^2)) on |x| < 1/sqrt2;
* the M = 2 walk splits into three modes: a diffusive Gaussian N(0, 1/2)
  at the origin with weight 1/2 and two ballistic Gaussians N(0, 4/9)
  travelling at speeds +-1/sqrt3 with weights

      c_pm = [(2 -+ sqrt3) |g1|^2 + (1 -+ sqrt3) g1 conj(g2) + |g2|^2]
             / (2 (3 -+ sqrt3)),

  where (g1, g2) is the spinor whose tensor square seeds the walk.

Empirical comparisons use the Kolmogorov (sup) metric between the lattice
measure's cumulative sums and the continuous limit CDF, evaluated at the
lattice jump points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .walker import ComplexMeasure, unit_spinor

__all__ = [
    "LimitProfile",
    "limit_coefficients",
    "limit_profiles",
    "konno_density",
    "gaussian_cdf",
    "mode_windows",
    "mode_masses",
    "scaled_cdf_distance",
    "kolmogorov_distance",
    "SPEED",
    "CENTER_VARIANCE",
    "SIDE_VARIANCE",
    "SIDE_VARIANCE_CUMULANT",
]

#: Ballistic speed of the two side modes at M = 2.
SPEED = 1.0 / math.sqrt(3.0)
#: Variance of the central mode in the (x / sqrt n) coordinate.
CENTER_VARIANCE = 0.5
#: Published variance of each side mode in ((x -+ n/sqrt3) / sqrt n).
SIDE_VARIANCE = 4.0 / 9.0
#: Second-order cumulant of the side eigenvalue 1 + i d/sqrt3 - (2/9) d^2:
#: |lambda|^n = exp(-n d^2 (2/9 - 1/6)) = exp(-n d^2 / 18), i.e. width 1/9.
#: Simulated side modes match this value, not SIDE_VARIANCE.
SIDE_VARIANCE_CUMULANT = 1.0 / 9.0


@dataclass(frozen=True)
class LimitProfile:
    """One of the three M = 2 limit modes."""

    mode: str  # "left", "center", or "right"
    weight: complex
    speed: float
    variance: float


def limit_coefficients(g: Sequence[complex]) -> tuple[complex, complex, complex]:
    """Mode weights (c_minus, c_zero, c_plus) for initial cell spinor g.

    ``g`` is the unit 2-vector whose tensor square g (x) conj(g) sits at the
    origin at time zero.  c_zero is exactly 1/2; the side weights are
    complex in general (real whenever g1 conj(g2) is real) and are returned
    verbatim.  The cross term g1 conj(g2) is the LR entry of g (x) conj(g).
    """
    g = unit_spinor(g)
    s3 = math.sqrt(3.0)
    cross = g[0] * np.conj(g[1])
    a1, a2 = abs(g[0]) ** 2, abs(g[1]) ** 2
    c_plus = ((2 - s3) * a1 + (1 - s3) * cross + a2) / (2 * (3 - s3))
    c_minus = ((2 + s3) * a1 + (1 + s3) * cross + a2) / (2 * (3 + s3))
    return complex(c_minus), 0.5 + 0j, complex(c_plus)


def limit_profiles(g: Sequence[complex]) -> tuple[LimitProfile, LimitProfile, LimitProfile]:
    """The three mode profiles (left, center, right) for cell spinor g."""
    c_minus, c_zero, c_plus = limit_coefficients(g)
    return (
        LimitProfile("left", c_minus, -SPEED, SIDE_VARIANCE),
        LimitProfile("center", c_zero, 0.0, CENTER_VARIANCE),
        LimitProfile("right", c_plus, SPEED, SIDE_VARIANCE),
    )


def konno_density(x: float) -> float:
    """Ballistic weak-limit density of the untruncated Hadamard walk."""
    if abs(x) >= 1.0 / math.sqrt(2.0):
        return 0.0
    return 1.0 / (math.pi * (1.0 - x * x) * math.sqrt(1.0 - 2.0 * x * x))


def gaussian_cdf(y: float, variance: float) -> float:
    """CDF of N(0, variance) at y."""
    return 0.5 * (1.0 + math.erf(y / math.sqrt(2.0 * variance)))


def kolmogorov_distance(
    xs: np.ndarray, weights: np.ndarray, cdf: Callable[[float], float]
) -> float:
    """Sup distance between a lattice CDF and a continuous CDF.

    The lattice CDF jumps at each x; both the pre- and post-jump values are
    compared against ``cdf`` there, which is the exact sup over the real
    line for a monotone continuous limit.
    """
    order = np.argsort(xs)
    xs = np.asarray(xs, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    cum = np.cumsum(w) / total
    ref = np.array([cdf(x) for x in xs])
    pre = np.concatenate([[0.0], cum[:-1]])
    return float(np.max(np.maximum(np.abs(cum - ref), np.abs(pre - ref))))


def mode_windows(
    n: int, w: float = 4.0
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Lattice windows (left, center, right) of half-width w sqrt(n).

    The side windows are centered at -+ n/sqrt3.  Raises when the windows
    overlap (n too small for the requested w).
    """
    half = w * math.sqrt(n)
    c = n * SPEED
    left = (int(math.ceil(-c - half)), int(math.floor(-c + half)))
    center = (int(math.ceil(-half)), int(math.floor(half)))
    right = (int(math.ceil(c - half)), int(math.floor(c + half)))
    if left[1] >= center[0] or center[1] >= right[0]:
        raise ValueError(
            f"mode windows overlap at n={n}, w={w}: {left}, {center}, {right}"
        )
    return left, center, right


def _window_sum(measure: ComplexMeasure, lo: int, hi: int) -> float:
    xs = measure.positions()
    sel = (xs >= lo) & (xs <= hi)
    return float(measure.values[sel].real.sum())


def mode_masses(measure: ComplexMeasure, w: float = 4.0) -> tuple[float, float, float]:
    """Real mass captured by the three mode windows at the measure's time."""
    left, center, right = mode_windows(measure.n, w)
    return (
        _window_sum(measure, *left),
        _window_sum(measure, *center),
        _window_sum(measure, *right),
    )


def scaled_cdf_distance(
    measure: ComplexMeasure, profile: LimitProfile, w: float = 4.0
) -> float:
    """Kolmogorov distance of one mode's scaled empirical CDF from its Gaussian.

    The empirical CDF is built from Re mu inside the mode's window,
    normalized by the window mass, in the coordinate
    y = (x - speed n) / sqrt(n).
    """
    n = measure.n
    windows = dict(zip(("left", "center", "right"), mode_windows(n, w)))
    lo, hi = windows[profile.mode]
    xs = measure.positions()
    sel = (xs >= lo) & (xs <= hi)
    if not np.any(sel):
        raise ValueError(f"empty {profile.mode} window [{lo}, {hi}] at n={n}")
    ys = (xs[sel] - profile.speed * n) / math.sqrt(n)
    weights = measure.values[sel].real
    return kolmogorov_distance(
        ys, weights, lambda y: gaussian_cdf(y, profile.variance)
    )
