"""Quantitative observables of the crossover: critical time, peaks, exponents.

All observables are read off the per-step traces of one ``run_series``
run of n steps, at values this module owns: the fit window [n // 2, n]
(``RunSeries.fit_window``) and the onset horizon 4M + 40 and depth
``NCRIT_TOL`` (``onset_horizon``), which no caller passes.

* ``n_crit_of_series``: the last time before any lattice site first
  carries a negative real measure value (the onset of boundary
  interference), read off the recorded min Re mu trace;
* ``peak_xbar`` of a ``RunSeries``: the normalized argmax of Re mu over
  x/n in [PEAK_DELTA, 1], excluding the diffusive central bump, and
  ``mean_peak_position`` its mean over the fit window;
* ``height_ratio``: the time-averaged ratio mu_n(0) / mu_n(peak); the
  average over all n is half the even-n ratio because parity forces
  mu_n(0) = 0 at odd n;
* ``tail_exponent``: the log-log slope gamma of d_n = a_n - n xbar_max,
  where a_n is the furthest site whose |Re mu| exceeds a relative support
  threshold;
* ``decay_exponent``: the log-log slope of mu_n(0) (even n) or of the
  running side-peak value.

Slopes come from unweighted least squares on (log n, log y).  When the
local slope oscillates across the fit window the longest sub-window with
slope variation below SLOPE_TOL is selected automatically and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .coin import Coin
from .walker import diagonal, init_product, measure, trajectory

__all__ = [
    "RunSeries",
    "ExponentFit",
    "SUPPORT_THRESHOLDS",
    "onset_horizon",
    "run_series",
    "n_crit_of_series",
    "mean_peak_position",
    "height_ratio",
    "tail_exponent",
    "decay_exponent",
    "loglog_fit",
    "stable_subwindow",
]

#: Relative support thresholds recorded per run: the middle one is the
#: one fitted, the outer two feed the sensitivity report.
SUPPORT_THRESHOLDS = (1e-10, 1e-12, 1e-14)
_THRESHOLD_COLUMN = np.array(SUPPORT_THRESHOLDS)[:, None]

#: The side peak is searched over x/n in [PEAK_DELTA, 1].
PEAK_DELTA = 0.3

#: The onset of negativity is the first min Re mu below -NCRIT_TOL.
NCRIT_TOL = 1e-12

#: ``stable_subwindow`` cuts a fit window into SLOPE_CHUNKS chunks and keeps
#: the longest run whose local slopes agree within SLOPE_TOL.
SLOPE_CHUNKS = 8
SLOPE_TOL = 0.05


@dataclass
class RunSeries:
    """Per-step records of one deterministic run.

    Arrays are indexed by step number minus one (entry i is time n = i+1);
    they run past ``n``, the steps asked for, where the onset horizon does.
    ``edges`` maps each recorded support threshold to the a_n trace.
    ``peak_xbar`` is nan when the maximum over the window [PEAK_DELTA, 1] is
    NaN.  ``sum_re0`` is the real total of mu_0 and ``engine`` is
    ``BandState.engine()`` of the last state (NaN and empty for a series
    that ``run_series`` did not make).
    """

    m: int
    n: int
    ns: np.ndarray
    sum_re: np.ndarray
    max_abs_im: np.ndarray
    min_re: np.ndarray
    mu_center: np.ndarray
    peak_xbar: np.ndarray
    peak_val: np.ndarray
    edges: dict[float, np.ndarray]
    sum_re0: float = math.nan
    engine: dict = field(default_factory=dict)

    @classmethod
    def allocate(cls, m: int, n: int) -> RunSeries:
        """A series of n steps whose entries read NaN until written."""

        def nans() -> np.ndarray:
            return np.full(n, math.nan)

        return cls(
            m=m, n=n, ns=np.arange(1, n + 1), sum_re=nans(),
            max_abs_im=nans(), min_re=nans(), mu_center=nans(), peak_xbar=nans(),
            peak_val=nans(), edges={thr: nans() for thr in SUPPORT_THRESHOLDS},
        )

    @property
    def fit_window(self) -> tuple[int, int]:
        """The times [n // 2, n] that the averages and fits read."""
        return self.n // 2, self.n


def _fit_mask(series: RunSeries) -> np.ndarray:
    """Boolean mask selecting the times of ``series.fit_window``."""
    lo, hi = series.fit_window
    return (series.ns >= lo) & (series.ns <= hi)


def onset_horizon(m: int) -> int:
    """The last time the onset of negativity is looked for at width m."""
    return 4 * m + 40


def _peak_in_window(re: np.ndarray, n: int) -> tuple[float, float]:
    """Rightmost maximum of Re mu_n (index x + n) over x/n in [PEAK_DELTA, 1], as (x/n, value).

    x/n is NaN when that maximum is NaN.  n >= 1 and 0 < PEAK_DELTA < 1
    keep x = n inside the window.
    """
    window = re[n + math.ceil(PEAK_DELTA * n) :][::-1]
    j = int(np.argmax(window))  # first max from the right = largest-x tie
    value = float(window[j])
    return (math.nan if math.isnan(value) else (n - j) / n), value


def _stats_from_values(series: RunSeries, n: int, values: np.ndarray) -> None:
    """Write entry n-1 of ``series`` from mu_n, real or complex, over x in [-n, n] (index x + n).

    The support edge a_n at each threshold is the largest |x| whose |Re mu|
    exceeds threshold times max |Re mu|: 0 for a zero measure, NaN when a
    value is not finite, as is max |Im mu|.
    """
    i = n - 1
    re = values.real
    a = np.abs(re)
    amax = a.max()
    finite = math.isfinite(amax)
    im = np.abs(values.imag).max() if np.iscomplexobj(values) else 0.0
    series.sum_re[i] = re.sum()
    series.max_abs_im[i] = im if finite and math.isfinite(im) else math.nan
    series.min_re[i] = re.min()
    series.mu_center[i] = re[n]
    series.peak_xbar[i], series.peak_val[i] = _peak_in_window(re, n)
    if finite and amax > 0.0:
        # One comparison for all thresholds; a_n is n minus the distance
        # from the nearer end of the array to the first value above.
        above = a > _THRESHOLD_COLUMN * amax
        inner = np.minimum(above.argmax(axis=1), above[:, ::-1].argmax(axis=1))
        edges = (n - inner).tolist()
    else:
        edges = [0.0 if finite else math.nan] * len(SUPPORT_THRESHOLDS)
    for thr, edge in zip(SUPPORT_THRESHOLDS, edges):
        series.edges[thr][i] = edge


def run_series(coin: Coin, m: int, n: int, g: Sequence[complex] = (1.0, 0.0)) -> RunSeries:
    """Evolve the width-m product start for n steps recording all per-step observables.

    One evolution serves both the fits and the onset: it runs on to
    ``onset_horizon(m)`` where that lies beyond n.
    """
    steps = max(n, onset_horizon(m))
    state = init_product(coin, g, m, steps)
    series = replace(RunSeries.allocate(m, steps), n=n, sum_re0=measure(state).total().real)
    final = state
    for final in trajectory(state, steps):
        _stats_from_values(series, final.n, diagonal(final))
    series.engine = final.engine()
    return series


def n_crit_of_series(series: RunSeries) -> int:
    """Last time before min Re mu first dips below -NCRIT_TOL; the onset horizon if it never does by then."""
    horizon = onset_horizon(series.m)
    dips = np.flatnonzero(series.min_re[:horizon] < -NCRIT_TOL)
    return int(dips[0]) if dips.size else horizon


def mean_peak_position(series: RunSeries) -> float:
    """Mean of the side-peak position x/n over the fit window, NaN entries skipped."""
    return float(np.nanmean(series.peak_xbar[_fit_mask(series)]))


def height_ratio(series: RunSeries) -> float:
    """Mean of Re mu_n(0) / Re mu_n(peak) over the fit window.

    Odd-n terms contribute zero to the numerator by parity, so the all-n
    average is half the even-n-only average.
    """
    sel = _fit_mask(series)
    peaks = series.peak_val[sel]
    if np.any(~np.isfinite(peaks)) or np.any(np.abs(peaks) < 1e-300):
        raise ValueError("vanishing side peak inside the averaging window")
    return float(np.mean(series.mu_center[sel] / peaks))


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log y against log n plus diagnostics."""

    slope: float
    used_window: tuple[int, int]
    rms_residual: float
    oscillating: bool
    sensitivity: dict[str, float] = field(default_factory=dict)


def loglog_fit(ns: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept, rms residual of log ys vs log ns."""
    lx, ly = np.log(ns), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def stable_subwindow(ns: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, bool]:
    """Longest run of consecutive chunks whose local slopes agree within ``SLOPE_TOL``.

    Returns a boolean mask over the input and whether the full window was
    judged oscillating (i.e. a proper sub-window was selected).
    """
    npts = len(ns)
    if npts < 4 * SLOPE_CHUNKS:
        return np.ones(npts, dtype=bool), False
    bounds = np.linspace(0, npts, SLOPE_CHUNKS + 1).astype(int)
    slopes = []
    for i in range(SLOPE_CHUNKS):
        lo, hi = bounds[i], bounds[i + 1]
        s, _, _ = loglog_fit(ns[lo:hi], ys[lo:hi])
        slopes.append(s)
    best = (0, 0)
    for i in range(SLOPE_CHUNKS):
        for j in range(i, SLOPE_CHUNKS):
            window = slopes[i : j + 1]
            if max(window) - min(window) <= SLOPE_TOL and (j + 1 - i) > best[1] - best[0]:
                best = (i, j + 1)
    if best == (0, SLOPE_CHUNKS) or best[1] - best[0] == 0:
        return np.ones(npts, dtype=bool), False
    mask = np.zeros(npts, dtype=bool)
    mask[bounds[best[0]] : bounds[best[1]]] = True
    return mask, True


def _stable_fit(ns: np.ndarray, ys: np.ndarray) -> ExponentFit:
    """Log-log fit of ys against ns over their stable sub-window (``stable_subwindow``)."""
    mask, oscillating = stable_subwindow(ns, ys)
    slope, _, rms = loglog_fit(ns[mask], ys[mask])
    return ExponentFit(
        slope=slope,
        used_window=(int(ns[mask][0]), int(ns[mask][-1])),
        rms_residual=rms,
        oscillating=oscillating,
    )


def tail_exponent(series: RunSeries) -> ExponentFit:
    """Growth exponent gamma of the tail width d_n = a_n - n xbar_max over the fit window.

    a_n is read at the middle support threshold.  Non-positive d_n values
    are excluded; fewer than 10 usable points is an error.  The sensitivity
    entries report the slope at the other two recorded thresholds.
    """
    sel = _fit_mask(series)

    def fit_for(thr: float) -> ExponentFit:
        d = series.edges[thr][sel] - series.ns[sel] * series.peak_xbar[sel]
        ok = np.isfinite(d) & (d > 0)
        ns, ds = series.ns[sel][ok], d[ok]
        if len(ns) < 10:
            raise ValueError(f"only {len(ns)} positive tail widths in window {series.fit_window}")
        return _stable_fit(ns, ds)

    fit = fit_for(SUPPORT_THRESHOLDS[1])
    sensitivity = {}
    for thr in SUPPORT_THRESHOLDS[::2]:
        try:
            sensitivity[f"{thr:g}"] = fit_for(thr).slope
        except ValueError:
            sensitivity[f"{thr:g}"] = math.nan
    return replace(fit, sensitivity=sensitivity)


def decay_exponent(series: RunSeries, location: str) -> ExponentFit:
    """Decay exponent of mu_n(0) (center, even n only) or the side peak over the fit window."""
    sel = _fit_mask(series)
    if location == "center":
        sel &= series.ns % 2 == 0
        ys = series.mu_center[sel]
    elif location == "side":
        ys = series.peak_val[sel]
    else:
        raise ValueError("location must be 'center' or 'side'")
    ns = series.ns[sel]
    finite = np.isfinite(ys)
    ns, ys = ns[finite], ys[finite]
    if len(ns) < 10:
        raise ValueError(f"fewer than 10 usable points in window {series.fit_window}")
    if np.any(ys <= 0) and np.any(ys > 0):
        raise ValueError(f"tracked {location} value changes sign inside window {series.fit_window}; fit rejected")
    if np.all(ys < 0):
        ys = -ys
    return _stable_fit(ns, ys)
