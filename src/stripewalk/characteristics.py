"""Quantitative observables of the crossover: critical time, peaks, exponents.

All observables are read off per-step traces of the diagonal measure:

* ``n_crit``: the last time before any lattice site first carries a
  negative real measure value (the onset of boundary interference);
* ``peak_position``: the normalized argmax of Re mu over x/n in
  [delta, 1], excluding the diffusive central bump;
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
slope variation below 0.05 is selected automatically and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .coin import Coin
from .walker import (
    ComplexMeasure,
    init_band_vector,
    init_product,
    measure,
    qw1d_trajectory,
    stripe_for_width,
    trajectory,
)

__all__ = [
    "RunSeries",
    "ExponentFit",
    "SUPPORT_THRESHOLDS",
    "run_series",
    "oracle_series",
    "n_crit",
    "n_crit_of_trace",
    "peak_position",
    "height_ratio",
    "tail_exponent",
    "decay_exponent",
    "loglog_fit",
    "stable_subwindow",
]

#: Relative support thresholds recorded per run: the middle one is the
#: default for fits, the outer two feed the sensitivity report.
SUPPORT_THRESHOLDS = (1e-10, 1e-12, 1e-14)

DEFAULT_DELTA = 0.3


@dataclass
class RunSeries:
    """Per-step records of one deterministic run.

    Arrays are indexed by step number minus one (entry i is time n = i+1).
    ``edges`` maps each recorded support threshold to the a_n trace.
    ``peak_xbar`` is nan whenever the window [delta, 1] holds no positive
    real value.  ``engine`` is ``BandState.engine()`` of the last state
    (empty for the one-dimensional oracle).
    """

    label: str
    m: int
    n: int
    delta: float
    ns: np.ndarray
    sum_re: np.ndarray
    max_abs_im: np.ndarray
    min_re: np.ndarray
    mu_center: np.ndarray
    peak_xbar: np.ndarray
    peak_val: np.ndarray
    edges: dict[float, np.ndarray]
    engine: dict = field(default_factory=dict)

    @property
    def edge(self) -> np.ndarray:
        return self.edges[SUPPORT_THRESHOLDS[1]]

    def slice_window(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Boolean mask selecting times n_lo <= n <= n_hi."""
        return (self.ns >= n_lo) & (self.ns <= n_hi)


def _peak_in_window(vals: np.ndarray, xs: np.ndarray, n: int, delta: float) -> tuple[float, float]:
    """Normalized argmax of Re over x/n in [delta, 1], ties toward larger x."""
    sel = (xs >= delta * n) & (xs <= n)
    if not np.any(sel):
        return math.nan, math.nan
    window = vals[sel]
    xw = xs[sel]
    rev = np.argmax(window[::-1])  # first max from the right = largest-x tie
    i = len(window) - 1 - rev
    return float(xw[i]) / n, float(window[i])


def _stats_from_values(
    vals_re: np.ndarray,
    vals_im_max: float,
    xs: np.ndarray,
    n: int,
    delta: float,
    out: dict[str, list],
) -> None:
    out["sum_re"].append(float(vals_re.sum()))
    out["max_abs_im"].append(vals_im_max)
    out["min_re"].append(float(vals_re.min()))
    i0 = np.searchsorted(xs, 0)
    mu0 = float(vals_re[i0]) if i0 < len(xs) and xs[i0] == 0 else 0.0
    out["mu_center"].append(mu0)
    xbar, pval = _peak_in_window(vals_re, xs, n, delta)
    out["peak_xbar"].append(xbar)
    out["peak_val"].append(pval)
    amax = float(np.max(np.abs(vals_re)))
    for thr in SUPPORT_THRESHOLDS:
        if amax == 0.0:
            out[f"edge_{thr:g}"].append(0.0)
            continue
        above = np.abs(vals_re) > thr * amax
        out[f"edge_{thr:g}"].append(float(np.max(np.abs(xs[above]))))


def _assemble_series(
    label: str,
    m: int,
    delta: float,
    samples: Iterable[tuple[np.ndarray, float, np.ndarray, int]],
) -> RunSeries:
    """Reduce per-step samples (Re mu, max |Im mu|, positions, n) to a RunSeries.

    Samples are consumed one at a time, so no per-step measure is kept.
    """
    keys = ["sum_re", "max_abs_im", "min_re", "mu_center", "peak_xbar", "peak_val"]
    keys += [f"edge_{thr:g}" for thr in SUPPORT_THRESHOLDS]
    acc: dict[str, list] = {k: [] for k in keys}
    for vals_re, vals_im_max, xs, n in samples:
        _stats_from_values(vals_re, vals_im_max, xs, n, delta, acc)
    n = len(acc["sum_re"])
    return RunSeries(
        label=label,
        m=m,
        n=n,
        delta=delta,
        ns=np.arange(1, n + 1),
        sum_re=np.array(acc["sum_re"]),
        max_abs_im=np.array(acc["max_abs_im"]),
        min_re=np.array(acc["min_re"]),
        mu_center=np.array(acc["mu_center"]),
        peak_xbar=np.array(acc["peak_xbar"]),
        peak_val=np.array(acc["peak_val"]),
        edges={thr: np.array(acc[f"edge_{thr:g}"]) for thr in SUPPORT_THRESHOLDS},
    )


def run_series(
    coin: Coin,
    m: int,
    n: int,
    g: Sequence[complex] = (1.0, 0.0),
    delta: float = DEFAULT_DELTA,
    band: np.ndarray | None = None,
    stripe: tuple[int, int] | None = None,
) -> RunSeries:
    """Evolve the band walk for n steps recording all per-step observables.

    ``band`` overrides the product start with an explicit (M, 4) band
    vector; ``stripe`` overrides the standard width-m placement.
    """
    s, t = stripe if stripe is not None else stripe_for_width(m)
    if band is not None:
        state = init_band_vector(coin, band, s, t, n)
        label = f"band:M={m}"
    else:
        state = init_product(coin, g, s, t, n)
        label = f"product:M={m}"
    final = state

    def samples():
        nonlocal final
        for final in trajectory(state, n):
            mu = measure(final)
            yield mu.values.real, mu.max_abs_imag(), mu.positions(), mu.n

    series = _assemble_series(label, m, delta, samples())
    series.engine = final.engine()
    return series


def oracle_series(
    coin: Coin,
    phi0: Sequence[complex],
    n: int,
    delta: float = DEFAULT_DELTA,
) -> RunSeries:
    """Per-step observables of the untruncated one-dimensional walk."""
    samples = (
        (probs, 0.0, np.arange(-j, j + 1), j)
        for j, probs in enumerate(qw1d_trajectory(coin, phi0, n), start=1)
    )
    return _assemble_series("oracle:1d", 2 * n + 1, delta, samples)


def n_crit_of_trace(min_re: Iterable[float], m: int, n_max: int, tol: float) -> int:
    """Last time before a min Re mu trace (entry i is n = i+1) first dips below -tol.

    Only the first n_max entries count; n_max if none of them dips.  The
    trace is read lazily, so a generator stops at the onset.
    """
    if n_max < 4 * m:
        raise ValueError(f"n_max={n_max} too small to observe the onset (need >= 4M)")
    for j, value in enumerate(min_re, start=1):
        if j > n_max:
            break
        if value < -tol:
            return j - 1
    return n_max


def n_crit(
    coin: Coin,
    m: int,
    n_max: int,
    tol: float = 1e-12,
    g: Sequence[complex] = (1.0, 0.0),
) -> int:
    """Last time before Re mu first dips below -tol anywhere; n_max if never."""
    s, t = stripe_for_width(m)
    state = init_product(coin, g, s, t, n_max)
    min_re = (float(measure(st).values.real.min()) for st in trajectory(state, n_max))
    return n_crit_of_trace(min_re, m, n_max, tol)


def peak_position(mu: ComplexMeasure, delta: float = DEFAULT_DELTA) -> float:
    """Normalized off-center peak position of one measure snapshot."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    xbar, _ = _peak_in_window(mu.values.real, mu.positions(), mu.n, delta)
    if math.isnan(xbar):
        raise ValueError(f"no lattice sites in the window [{delta}, 1] at n={mu.n}")
    return xbar


def height_ratio(
    series: RunSeries, n_lo: int, n_hi: int, even_only: bool = False
) -> float:
    """Mean of Re mu_n(0) / Re mu_n(peak) over the time window.

    Odd-n terms contribute zero to the numerator by parity, so the all-n
    average is half the even-n-only average.
    """
    if not n_lo < n_hi <= series.n:
        raise ValueError(f"window [{n_lo}, {n_hi}] outside series of length {series.n}")
    sel = series.slice_window(n_lo, n_hi)
    if even_only:
        sel &= series.ns % 2 == 0
    peaks = series.peak_val[sel]
    if np.any(~np.isfinite(peaks)) or np.any(np.abs(peaks) < 1e-300):
        raise ValueError("vanishing side peak inside the averaging window")
    return float(np.mean(series.mu_center[sel] / peaks))


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log y against log n plus diagnostics."""

    slope: float
    intercept: float
    window: tuple[int, int]
    used_window: tuple[int, int]
    n_points: int
    rms_residual: float
    oscillating: bool
    sensitivity: dict[str, float] = field(default_factory=dict)


def loglog_fit(ns: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept, rms residual of log ys vs log ns."""
    lx, ly = np.log(ns), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def stable_subwindow(
    ns: np.ndarray, ys: np.ndarray, tol: float = 0.05, chunks: int = 8
) -> tuple[np.ndarray, bool]:
    """Longest run of consecutive chunks whose local slopes agree within tol.

    Returns a boolean mask over the input and whether the full window was
    judged oscillating (i.e. a proper sub-window was selected).
    """
    npts = len(ns)
    if npts < 4 * chunks:
        return np.ones(npts, dtype=bool), False
    bounds = np.linspace(0, npts, chunks + 1).astype(int)
    slopes = []
    for i in range(chunks):
        lo, hi = bounds[i], bounds[i + 1]
        s, _, _ = loglog_fit(ns[lo:hi], ys[lo:hi])
        slopes.append(s)
    best = (0, 0)
    start = 0
    for i in range(chunks):
        for j in range(i, chunks):
            window = slopes[i : j + 1]
            if max(window) - min(window) <= tol and (j + 1 - i) > best[1] - best[0]:
                best = (i, j + 1)
    if best == (0, chunks) or best[1] - best[0] == 0:
        return np.ones(npts, dtype=bool), False
    mask = np.zeros(npts, dtype=bool)
    mask[bounds[best[0]] : bounds[best[1]]] = True
    return mask, True


def tail_exponent(
    series: RunSeries,
    window: tuple[int, int],
    threshold: float = SUPPORT_THRESHOLDS[1],
) -> ExponentFit:
    """Growth exponent gamma of the tail width d_n = a_n - n xbar_max.

    Non-positive d_n values are excluded; fewer than 10 usable points is an
    error.  The sensitivity entries report the slope at the other recorded
    support thresholds.
    """
    n_lo, n_hi = window
    sel = series.slice_window(n_lo, n_hi)

    def fit_for(thr: float):
        d = series.edges[thr][sel] - series.ns[sel] * series.peak_xbar[sel]
        ok = np.isfinite(d) & (d > 0)
        ns, ds = series.ns[sel][ok], d[ok]
        if len(ns) < 10:
            raise ValueError(
                f"only {len(ns)} positive tail widths in window {window}"
            )
        mask, oscillating = stable_subwindow(ns, ds)
        slope, intercept, rms = loglog_fit(ns[mask], ds[mask])
        used = (int(ns[mask][0]), int(ns[mask][-1]))
        return slope, intercept, rms, oscillating, used, len(ns[mask])

    slope, intercept, rms, oscillating, used, npts = fit_for(threshold)
    sensitivity = {}
    for thr in SUPPORT_THRESHOLDS:
        if thr == threshold:
            continue
        try:
            s_thr, *_ = fit_for(thr)
            sensitivity[f"{thr:g}"] = s_thr
        except ValueError:
            sensitivity[f"{thr:g}"] = math.nan
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        window=window,
        used_window=used,
        n_points=npts,
        rms_residual=rms,
        oscillating=oscillating,
        sensitivity=sensitivity,
    )


def decay_exponent(
    series: RunSeries, location: str, window: tuple[int, int]
) -> ExponentFit:
    """Decay exponent of mu_n(0) (center, even n only) or the side peak."""
    n_lo, n_hi = window
    sel = series.slice_window(n_lo, n_hi)
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
        raise ValueError(f"fewer than 10 usable points in window {window}")
    if np.any(ys <= 0) and np.any(ys > 0):
        raise ValueError(
            f"tracked {location} value changes sign inside window {window}; "
            "fit rejected"
        )
    if np.all(ys < 0):
        ys = -ys
    mask, oscillating = stable_subwindow(ns, ys)
    slope, intercept, rms = loglog_fit(ns[mask], ys[mask])
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        window=window,
        used_window=(int(ns[mask][0]), int(ns[mask][-1])),
        n_points=int(mask.sum()),
        rms_residual=rms,
        oscillating=oscillating,
    )
