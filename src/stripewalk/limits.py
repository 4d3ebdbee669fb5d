"""Limit profiles and weak-convergence diagnostics.

Two limits have closed forms:

* the M = 1 walk satisfies a central limit theorem with variance
  sigma^2 = |a|^2 / (1 - |a|^2) under the diffusive scaling x / sqrt(n);
* the untruncated walk converges ballistically (x / n) to the arcsine-like
  density K(x) = 1 / (pi (1 - x^2) sqrt(1 - 2 x^2)) on |x| < 1/sqrt2.

At every width M the late measure splits into the 2M - 1 modes of the
mode table (``spectral.kato_reduction``): mode j is a Gaussian of width
sigma_j^2 n about mu_j n with mass c_j.  Each mode is read in its window
of half-width ``WINDOW_W`` sqrt(n) about mu_j n (``mode_windows``), through
its mass there (``mode_masses``) and the distance of its scaled CDF from
N(0, sigma_j^2) (``scaled_cdf_distance``).

Empirical comparisons use the Kolmogorov (sup) metric between the lattice
measure's cumulative sums and the continuous limit CDF, evaluated at the
lattice jump points.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .walker import ComplexMeasure

__all__ = [
    "WINDOW_W",
    "konno_density",
    "gaussian_cdf",
    "mode_windows",
    "mode_masses",
    "scaled_cdf_distance",
    "kolmogorov_distance",
]

#: Half-width of every mode window, in units of sqrt(n).
WINDOW_W = 4.0


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


def mode_windows(n: int, speeds: Sequence[float]) -> list[tuple[int, int]]:
    """Lattice windows of half-width ``WINDOW_W`` sqrt(n) about speed times n, one per speed of the ascending ``speeds``.

    Raises when two neighbouring windows overlap: n is too small for the
    spacing of the speeds.
    """
    half = WINDOW_W * math.sqrt(n)
    # A bound within 1e-9 of a site is that site: the centre speed is 0 only
    # up to rounding, and the half-width is a whole number at n = 100, 400, ...
    windows = [(math.ceil(round(c * n - half, 9)), math.floor(round(c * n + half, 9))) for c in speeds]
    for below, above in zip(windows, windows[1:]):
        if below[1] >= above[0]:
            raise ValueError(f"mode windows overlap at n={n}, w={WINDOW_W}: {below} and {above}")
    return windows


def _window(measure: ComplexMeasure, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of the measure in the window [lo, hi], a slice of its support [-n, n]."""
    n, (lo, hi) = measure.n, window
    start, stop = max(lo + n, 0), max(hi + n + 1, 0)  # clipped: a window left of -n is empty, not wrapped
    values = measure.values[start:stop]
    return np.arange(start - n, start - n + len(values)), values


def mode_masses(measure: ComplexMeasure, windows: Sequence[tuple[int, int]]) -> list[float]:
    """Real mass of the measure in each window (``mode_windows``)."""
    return [float(_window(measure, window)[1].real.sum()) for window in windows]


def scaled_cdf_distance(measure: ComplexMeasure, window: tuple[int, int], speed: float, variance: float) -> float:
    """Kolmogorov distance of one mode's scaled empirical CDF from N(0, variance).

    The empirical CDF is built from Re mu inside the mode's window (one of
    ``mode_windows``), normalized by the window mass, in the coordinate
    y = (x - speed n) / sqrt(n).  An empty window, or one with no positive
    mass, raises.
    """
    n = measure.n
    xs, values = _window(measure, window)
    if not len(xs):
        raise ValueError(f"empty window {list(window)} at n={n}")
    ys = (xs - speed * n) / math.sqrt(n)
    return kolmogorov_distance(ys, values.real, lambda y: gaussian_cdf(y, variance))
