import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripewalk import (
    characteristics,
    evolve,
    init_product,
    measure,
    qw1d_trajectory,
    trajectory,
)
from stripewalk.characteristics import (
    PEAK_DELTA,
    SUPPORT_THRESHOLDS,
    RunSeries,
    decay_exponent,
    height_ratio,
    loglog_fit,
    mean_peak_position,
    n_crit_of_series,
    onset_horizon,
    run_series,
    stable_subwindow,
    tail_exponent,
)

from oracles import n_crit, oracle_series, pack, peak_position

LEFT = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
CIRCULAR = np.array([1.0, 1.0j]) / math.sqrt(2.0)


def _synthetic_series(ns, mu_center, peak_val, peak_xbar=0.6, edge_slope=0.5):
    ns = np.asarray(ns, dtype=int)
    edge = ns * peak_xbar + ns.astype(float) ** edge_slope
    return RunSeries(
        m=2,
        n=int(ns[-1]),
        ns=ns,
        sum_re=np.ones_like(ns, dtype=float),
        max_abs_im=np.zeros_like(ns, dtype=float),
        min_re=np.zeros_like(ns, dtype=float),
        mu_center=np.asarray(mu_center, dtype=float),
        peak_xbar=np.full(len(ns), peak_xbar),
        peak_val=np.asarray(peak_val, dtype=float),
        edges={thr: edge for thr in SUPPORT_THRESHOLDS},
    )


def test_n_crit_width_one_never_negative(hadamard):
    assert n_crit(hadamard, 1, 30, tol=0.0) == 30
    assert n_crit(hadamard, 1, 60, tol=0.0) == 60


def test_n_crit_requires_horizon(hadamard):
    with pytest.raises(ValueError, match="n_max"):
        n_crit(hadamard, 3, 10)


def test_n_crit_known_values(hadamard):
    # Frozen onsets of the exact dynamics (tolerance 1e-12, left spinor).
    assert n_crit(hadamard, 3, 40, g=LEFT) == 6
    assert n_crit(hadamard, 5, 40, g=LEFT) == 10
    assert n_crit(hadamard, 4, 40, g=LEFT) == 11


def test_peak_position_definition(hadamard):
    state = evolve(init_product(hadamard, LEFT, 2, 402), 400)
    mu = measure(state)
    xbar = peak_position(mu)
    assert 0.3 <= xbar <= 1.0
    assert abs(xbar - 1 / math.sqrt(3)) < 0.05


def test_peak_position_validation(hadamard):
    # A NaN in the peak window leaves no finite peak to report.
    mu = measure(evolve(init_product(hadamard, LEFT, 2, 12), 10))
    mu.values[-2] = math.nan
    with pytest.raises(ValueError, match="no finite peak"):
        peak_position(mu)


def test_peak_position_tie_breaks_right():
    from stripewalk.walker import ComplexMeasure

    values = np.zeros(21, dtype=complex)
    values[14] = 0.3  # x = 4
    values[16] = 0.3  # x = 6: tie resolves toward larger x
    mu = ComplexMeasure(n=10, values=values)
    assert peak_position(mu) == 0.6


def test_peak_position_scale_invariant(hadamard):
    from stripewalk.walker import ComplexMeasure

    state = evolve(init_product(hadamard, LEFT, 2, 202), 200)
    mu = measure(state)
    scaled = ComplexMeasure(n=mu.n, values=3.7 * mu.values)
    assert peak_position(mu) == peak_position(scaled)


def test_height_ratio_parity_factor(hadamard):
    series = run_series(hadamard, 2, 401, g=LEFT)
    all_n = height_ratio(series)
    assert series.fit_window == (200, 401)
    sel = (series.ns >= 200) & (series.ns % 2 == 0)
    even = np.mean(series.mu_center[sel] / series.peak_val[sel])
    # The window holds equally many even and odd times and odd times
    # contribute exactly zero, so the factor is exactly two.
    assert abs(even / all_n - 2.0) < 1e-12


def test_height_ratio_rejects_vanishing_peak():
    ns = np.arange(1, 101)
    series = _synthetic_series(ns, np.ones(100), np.zeros(100))
    with pytest.raises(ValueError, match="vanishing"):
        height_ratio(series)


def test_loglog_fit_exact_power_law():
    ns = np.arange(100, 200)
    slope, intercept, rms = loglog_fit(ns, 3.0 * ns ** (-0.5))
    assert abs(slope + 0.5) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12
    assert rms < 1e-13


def test_decay_exponent_synthetic_power_law():
    ns = np.arange(1, 401)
    series = _synthetic_series(ns, ns ** (-0.5), 2.0 * ns ** (-0.7))
    center = decay_exponent(series, "center")
    side = decay_exponent(series, "side")
    assert abs(center.slope + 0.5) < 1e-10
    assert abs(side.slope + 0.7) < 1e-10
    # A power law is stable over the whole window [n // 2, n]: the fit uses all of it.
    assert center.used_window == side.used_window == (200, 400)
    with pytest.raises(ValueError):
        decay_exponent(series, "elsewhere")


def test_decay_exponent_rejects_sign_change():
    ns = np.arange(1, 201)
    vals = np.ones(200)
    vals[151] = -1.0  # n = 152, an even time inside the window
    series = _synthetic_series(ns, vals, np.ones(200))
    with pytest.raises(ValueError, match="sign"):
        decay_exponent(series, "center")


def test_decay_exponent_scale_invariant():
    ns = np.arange(1, 401)
    base = _synthetic_series(ns, ns ** (-0.5), ns ** (-0.5))
    scaled = _synthetic_series(ns, 17.0 * ns ** (-0.5), 17.0 * ns ** (-0.5))
    a = decay_exponent(base, "center").slope
    b = decay_exponent(scaled, "center").slope
    assert abs(a - b) < 1e-12


def test_tail_exponent_synthetic():
    ns = np.arange(1, 801)
    series = _synthetic_series(ns, np.ones(800), np.ones(800), edge_slope=0.4)
    fit = tail_exponent(series)
    assert abs(fit.slope - 0.4) < 1e-6
    assert not fit.oscillating and fit.used_window == (400, 800)
    assert set(fit.sensitivity) == {"1e-10", "1e-14"}


def test_tail_exponent_needs_points():
    # The window [7, 15] holds nine times.
    ns = np.arange(1, 16)
    series = _synthetic_series(ns, np.ones(15), np.ones(15))
    with pytest.raises(ValueError, match=r"only 9 positive tail widths in window \(7, 15\)"):
        tail_exponent(series)


def test_stable_subwindow_selects_clean_region():
    ns = np.arange(100, 900)
    ys = ns ** 0.5
    mask, oscillating = stable_subwindow(ns, ys)
    assert mask.all() and not oscillating
    wobble = ys.copy()
    wobble[:400] *= np.exp(np.sin(np.linspace(0, 20, 400)))
    mask, oscillating = stable_subwindow(ns, wobble)
    assert oscillating
    assert mask.sum() < len(ns)
    assert mask[-1]  # the clean upper region survives


def test_run_series_runs_on_to_the_onset_horizon(hadamard):
    # n = 20 lies below the horizon 52 of width 3: the traces cover the
    # horizon, while the window and the mean peak position stay at n.
    series = run_series(hadamard, 3, 20, g=LEFT)
    assert series.n == 20 and onset_horizon(3) == 52
    assert np.array_equal(series.ns, np.arange(1, 53)) and not np.any(np.isnan(series.min_re))
    assert series.fit_window == (10, 20)
    assert mean_peak_position(series) == np.nanmean(series.peak_xbar[9:20])
    assert n_crit_of_series(series) == n_crit(hadamard, 3, 52, g=LEFT) == 6
    assert series.sum_re0 == pytest.approx(1.0, abs=1e-15)  # mu_0 of a unit spinor


def test_run_series_determinism(hadamard):
    a = run_series(hadamard, 3, 60, g=PLUS)
    b = run_series(hadamard, 3, 60, g=PLUS)
    assert np.array_equal(a.sum_re, b.sum_re)
    assert np.array_equal(a.peak_val, b.peak_val)
    assert np.array_equal(a.mu_center, b.mu_center)
    assert a.edges.keys() == b.edges.keys()
    for thr in a.edges:
        assert np.array_equal(a.edges[thr], b.edges[thr])


def test_run_series_conservation_trace(hadamard):
    series = run_series(hadamard, 3, 150, g=LEFT)
    assert np.max(np.abs(series.sum_re - 1.0)) < 1e-10
    assert np.max(series.max_abs_im) <= 1e-12  # odd width: exactly real
    for edge in series.edges.values():
        assert np.all(edge <= series.ns)  # support edge inside the cone


def test_oracle_series_matches_wide_stripe(hadamard):
    # The wide run goes on to its onset horizon; its first n steps are compared.
    n = 24
    wide = run_series(hadamard, 2 * n + 1, n, g=PLUS)
    oracle = oracle_series(hadamard, PLUS, n)
    assert np.allclose(wide.mu_center[:n], oracle.mu_center, atol=1e-12)
    assert np.allclose(wide.sum_re[:n], oracle.sum_re, atol=1e-12)
    mask = ~np.isnan(wide.peak_xbar[:n])
    assert np.array_equal(mask, ~np.isnan(oracle.peak_xbar))
    assert np.allclose(wide.peak_xbar[:n][mask], oracle.peak_xbar[mask], atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0))
def test_exponent_fits_scale_invariant_hypothesis(c):
    ns = np.arange(1, 301)
    series = _synthetic_series(ns, c * ns ** (-0.5), c * ns ** (-0.5))
    assert abs(decay_exponent(series, "center").slope + 0.5) < 1e-9


# ---------------------------------------------------------------------------
# The per-step reducer against the mask-based formulas it replaced
# ---------------------------------------------------------------------------


def _oracle_peak(vals, xs, n, delta):
    sel = (xs >= delta * n) & (xs <= n)
    if not np.any(sel):
        return math.nan, math.nan
    window = vals[sel]
    xw = xs[sel]
    rev = np.argmax(window[::-1])
    i = len(window) - 1 - rev
    return float(xw[i]) / n, float(window[i])


def _oracle_sample(vals_re, vals_im_max, xs, n, delta):
    """One step's observables as masks over the positions array."""
    row = {"sum_re": float(vals_re.sum()), "max_abs_im": vals_im_max, "min_re": float(vals_re.min())}
    i0 = np.searchsorted(xs, 0)
    row["mu_center"] = float(vals_re[i0]) if i0 < len(xs) and xs[i0] == 0 else 0.0
    row["peak_xbar"], row["peak_val"] = _oracle_peak(vals_re, xs, n, delta)
    amax = float(np.max(np.abs(vals_re)))
    for thr in SUPPORT_THRESHOLDS:
        if amax == 0.0:
            row[thr] = 0.0
        else:
            row[thr] = float(np.max(np.abs(xs[np.abs(vals_re) > thr * amax])))
    return row


def _assert_series_equal(series, rows):
    assert series.n == len(rows)
    assert np.array_equal(series.ns, np.arange(1, len(rows) + 1))
    for key in ("sum_re", "max_abs_im", "min_re", "mu_center", "peak_xbar", "peak_val"):
        assert np.array_equal(getattr(series, key), [r[key] for r in rows], equal_nan=True), key
    for thr in SUPPORT_THRESHOLDS:
        assert np.array_equal(series.edges[thr], [r[thr] for r in rows], equal_nan=True), thr


@pytest.mark.parametrize("m", [1, 2, 3, 10])
@pytest.mark.parametrize("g", [PLUS, CIRCULAR], ids=["real", "complex"])
def test_run_series_matches_mask_oracle(hadamard, m, g):
    n = 240
    rows = [
        _oracle_sample(mu.values.real, mu.max_abs_imag(), mu.positions(), mu.n, PEAK_DELTA)
        for mu in map(measure, trajectory(init_product(hadamard, g, m, n), n))
    ]
    series = run_series(hadamard, m, n, g=g)
    assert series.m == m
    _assert_series_equal(series, rows)


def test_oracle_series_matches_mask_oracle(hadamard):
    n = 120
    rows = [
        _oracle_sample(probs, 0.0, np.arange(-j, j + 1), j, PEAK_DELTA)
        for j, probs in enumerate(qw1d_trajectory(hadamard, CIRCULAR, n), start=1)
    ]
    _assert_series_equal(oracle_series(hadamard, CIRCULAR, n), rows)


def test_run_series_nan_cell_never_reads_finite(hadamard, monkeypatch):
    n, bad = 60, 40
    clean = run_series(hadamard, 2, n, g=PLUS)
    stepping = characteristics.trajectory

    def poisoned(state, steps):
        for later in stepping(state, steps):
            if later.n == bad:
                lo, hi = later.engine()["live_u"]
                assert lo <= bad - 2 <= hi
                field = later.dense()
                field[0, later.m // 2, later.center + bad - 2] = math.nan  # LL at x = n - 2, v = 0
                pack(later, field)
            yield later

    monkeypatch.setattr(characteristics, "trajectory", poisoned)
    series = run_series(hadamard, 2, n, g=PLUS)
    before = series.ns < bad
    for key in ("sum_re", "max_abs_im", "min_re", "peak_xbar", "peak_val"):
        assert np.array_equal(getattr(series, key)[before], getattr(clean, key)[before]), key
        assert np.all(np.isnan(getattr(series, key)[~before])), key
    for thr in SUPPORT_THRESHOLDS:
        assert np.array_equal(series.edges[thr][before], clean.edges[thr][before])
        assert np.all(np.isnan(series.edges[thr][~before])), thr
