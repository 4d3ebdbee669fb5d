"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Two
criteria fail by design and are left red on purpose, because the exact
dynamics (verified against the explicit operator algebra and both limit
oracles at 1e-12 .. 1e-15) contradicts the published target values:

* criterion 6, side-mode clause: the simulated side modes have Gaussian
  width 1/9, not the stated 4/9.  Exponentiating the verified eigenvalue
  expansion 1 +- i d/sqrt3 - (2/9) d^2 gives |lambda|^n = exp(-n d^2/18),
  i.e. variance 1/9; the measured window variance is 0.1110 at n = 2000
  and the corrected comparison passes below 0.04 (see the supplement
  test).  Reading the d^2 coefficient alone as the Gaussian rate gives
  the stated 4/9 but does not describe the walk.
* criterion 8, critical-time rule: measured first-negativity times follow
  about 2.3 M (even M, except M = 2 whose measure stays non-negative
  until n = 36) and 2 M (odd M, except M = 11), not 3M/2M within +-2.
  The frozen regression table in the supplement test records the exact
  onsets of the verified dynamics.
"""

import math
import time

import numpy as np
import pytest

from stripewalk import (
    blocks,
    evolve,
    init_band_vector,
    init_product,
    make_hadamard,
    measure,
    oqrw_reference,
    step,
)
from stripewalk.characteristics import (
    decay_exponent,
    run_series,
    tail_exponent,
)
from stripewalk.limits import (
    SIDE_VARIANCE_CUMULANT,
    LimitProfile,
    gaussian_cdf,
    kolmogorov_distance,
    limit_coefficients,
    limit_profiles,
    mode_masses,
    scaled_cdf_distance,
)
from stripewalk.spectral import (
    eig,
    k_of_delta,
    kato_reduction,
    lambda1_expansion,
    lambda2_expansion,
    perturbed_projection_check,
    poly_residuals,
    w_stack,
)

from oracles import (
    KATO_PI,
    char_function,
    cubic_spectrum_m2,
    exact_onset,
    n_crit,
    oracle_series,
    peak_position,
    qw1d_reference,
)

HAD = make_hadamard()
LEFT = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
S3 = math.sqrt(3.0)
S7 = math.sqrt(7.0)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


@pytest.fixture(scope="module")
def m2_measure_2000():
    state = evolve(init_product(HAD, PLUS, 2, 2002), 2000)
    return measure(state)


@pytest.fixture(scope="module")
def m2_series_2000():
    return run_series(HAD, 2, 2000, g=LEFT)


@pytest.fixture(scope="module")
def oracle_2000():
    return oracle_series(HAD, PLUS, 2000)


def test_c01_unitary_limit_oracle():
    t0 = time.perf_counter()
    n = 50
    worst = 0.0
    for g in (LEFT, PLUS):
        state = init_product(HAD, g, 2 * n + 1, n)
        for j in range(1, n + 1):
            state = step(state)
            diff = np.max(np.abs(measure(state).values - qw1d_reference(HAD, g, j)))
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("criterion 1 (unitary-limit oracle)", ok, f"max |diff| = {worst:.2e} (tol 1e-12)", elapsed, 1)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_c02_classical_limit_oracle():
    t0 = time.perf_counter()
    n = 500
    b = blocks(HAD)
    a_mat = np.array([[abs(HAD.a) ** 2, 0], [abs(HAD.c) ** 2, 0]])
    b_mat = np.array([[0, abs(HAD.b) ** 2], [0, abs(HAD.d) ** 2]])
    worst = 0.0
    worst_neg, worst_sum = 0.0, 0.0
    for g in (LEFT, PLUS):
        state = init_product(HAD, g, 1, n)
        p = np.zeros((2, 2 * n + 3))
        p[:, n + 1] = np.abs(HAD.matrix @ g) ** 2
        for j in range(1, n + 1):
            state = step(state)
            p = a_mat @ np.roll(p, -1, axis=1) + b_mat @ np.roll(p, 1, axis=1)
            p[:, 0] = 0
            p[:, -1] = 0
            mu = measure(state)
            ref = (p[0] + p[1])[n + 1 - j : n + 2 + j]
            worst = max(worst, float(np.max(np.abs(mu.values - ref))))
            worst_neg = min(worst_neg, float(mu.values.real.min()))
            worst_sum = max(worst_sum, abs(mu.total() - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_neg >= -1e-15 and worst_sum <= 1e-12 and elapsed < 1.0
    _report(
        "criterion 2 (classical-limit oracle)",
        ok,
        f"max |diff| = {worst:.2e}, min = {worst_neg:.1e}, sum dev = {worst_sum:.1e}",
        elapsed,
        1,
    )
    assert worst <= 1e-12
    assert worst_neg >= -1e-15
    assert worst_sum <= 1e-12
    assert elapsed < 1.0


def test_c03_measure_sum_conservation():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3, 5, 10):
        for g in (LEFT, PLUS):
            state = init_product(HAD, g, m, 2000)
            for _ in range(2000):
                state = step(state)
                dev = abs(measure(state).total() - 1.0)
                if dev > worst:
                    worst = dev
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report("criterion 3 (measure-sum conservation)", ok, f"max |sum - 1| = {worst:.2e} (tol 1e-10)", elapsed, 60)
    assert worst <= 1e-10
    assert elapsed < 60.0


W0_EXPECTED = 0.5 * np.array(
    [
        [1, 0, 0, 1, 0, 1, 0, 0],
        [1, 0, 0, -1, 0, -1, 0, 0],
        [1, 0, 0, -1, 0, 1, 0, 0],
        [1, 0, 0, 1, 0, -1, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 1],
        [0, 0, 1, 0, 1, 0, 0, -1],
        [0, 0, -1, 0, 1, 0, 0, -1],
        [0, 0, -1, 0, 1, 0, 0, 1],
    ],
    dtype=complex,
)


def test_c04_operator_algebra():
    # The half-integer matrix entries are products of two square roots, so
    # "exact" match means within one ulp.  The complex eigenvalue pair is
    # (-1 +- i sqrt7)/4: the roots of the minimal polynomial factor
    # 2 L^2 + L + 1 checked below.
    t0 = time.perf_counter()
    w = w_stack(blocks(HAD), 2, [0.0])[0]
    w_err = float(np.max(np.abs(w - W0_EXPECTED)))
    expected_eigs = [0, 0, 1, 1, 1, -0.5, (-1 + 1j * S7) / 4, (-1 - 1j * S7) / 4]
    got = list(eig(w, 0.0)[0])
    eig_err = 0.0
    for z in expected_eigs:
        i = int(np.argmin(np.abs(np.array(got) - z)))
        eig_err = max(eig_err, abs(got.pop(i) - z))
    poly = poly_residuals(w)
    mp, witness = poly["minimal_poly_residual"], poly["minimality_witness"]
    red = kato_reduction(HAD, 2)
    pi_err = float(np.max(np.abs(red.pi - KATO_PI)))
    skew = float(np.max(np.abs(red.r + red.r.conj().T)))
    small = red.onb.conj() @ red.r @ red.onb.T
    rvals = np.linalg.eigvals(small)
    rv_err = 0.0
    rem = list(rvals)
    for z in (0.0, 1j / S3, -1j / S3):
        i = int(np.argmin(np.abs(np.array(rem) - z)))
        rv_err = max(rv_err, abs(rem.pop(i) - z))
    simple = np.min(np.abs(np.subtract.outer(rvals, rvals)[~np.eye(3, dtype=bool)]))
    elapsed = time.perf_counter() - t0
    ok = (
        w_err < 1e-15
        and eig_err < 1e-10
        and mp < 1e-12
        and witness >= 0.1
        and pi_err < 1e-14
        and skew < 1e-12
        and rv_err < 1e-12
        and simple > 0.5
        and elapsed < 1.0
    )
    _report(
        "criterion 4 (explicit operator algebra)",
        ok,
        f"W err {w_err:.1e}, eig err {eig_err:.1e}, minpoly {mp:.1e}, "
        f"witness {witness:.2f}, Pi err {pi_err:.1e}, skew {skew:.1e}, "
        f"reduced eigs err {rv_err:.1e}",
        elapsed,
        1,
    )
    assert ok


def test_c05_perturbation_expansions():
    t0 = time.perf_counter()
    ratios = []
    for d in (1e-1, 1e-2, 1e-3):
        k1, k2 = k_of_delta(d), k_of_delta(d / 2)
        f1, s1 = cubic_spectrum_m2(k1)
        f2, s2 = cubic_spectrum_m2(k2)
        e1 = np.min(np.abs(f1 - lambda1_expansion(k1)))
        e2 = np.min(np.abs(f2 - lambda1_expansion(k2)))
        ratios.append(e1 / e2)
        for idx in (0, 1):
            p1 = lambda2_expansion(k1)[idx]
            p2 = lambda2_expansion(k2)[idx]
            ratios.append(np.min(np.abs(s1 - p1)) / np.min(np.abs(s2 - p2)))
    min_ratio = min(ratios)
    red = kato_reduction(HAD, 2)
    residuals = {}
    for d in (1e-1, 1e-2, 1e-3):
        residuals[d] = perturbed_projection_check(red, d)["residuals"]
    elapsed = time.perf_counter() - t0
    proj_ok = max(residuals[1e-2]) < 5e-2 and all(
        residuals[1e-2][j] < residuals[1e-1][j] and residuals[1e-3][j] < residuals[1e-2][j]
        for j in range(3)
    )
    ok = min_ratio >= 6.0 and proj_ok and elapsed < 5.0
    _report(
        "criterion 5 (perturbation expansions)",
        ok,
        f"min halving ratio {min_ratio:.1f} (>= 6), projection residuals at 1e-2: "
        f"{max(residuals[1e-2]):.4f} (< 5e-2), decreasing in delta: {proj_ok}",
        elapsed,
        5,
    )
    assert ok


def test_c06_three_mode_limit(m2_measure_2000):
    t0 = time.perf_counter()
    mu = m2_measure_2000
    cell = HAD.matrix @ PLUS
    c_minus, c_zero, c_plus = (z.real for z in limit_coefficients(cell))
    masses = mode_masses(mu, 4.0)
    mass_err = max(
        abs(masses[0] - c_minus), abs(masses[1] - c_zero), abs(masses[2] - c_plus)
    )
    left, center, right = limit_profiles(cell)
    d_center = scaled_cdf_distance(mu, center, 4.0)
    d_left = scaled_cdf_distance(mu, left, 4.0)
    d_right = scaled_cdf_distance(mu, right, 4.0)
    elapsed = time.perf_counter() - t0
    masses_ok = mass_err <= 0.02
    center_ok = d_center < 0.05
    sides_ok = d_left < 0.07 and d_right < 0.07
    ok = masses_ok and center_ok and sides_ok and elapsed < 120
    _report(
        "criterion 6 (three-mode limit)",
        ok,
        f"mass err {mass_err:.4f} (<= 0.02): {'ok' if masses_ok else 'FAIL'}; "
        f"center K-S {d_center:.4f} (< 0.05): {'ok' if center_ok else 'FAIL'}; "
        f"sides K-S {d_left:.4f}/{d_right:.4f} vs stated N(0,4/9) (< 0.07): "
        f"{'ok' if sides_ok else 'FAIL - simulated width is 1/9, see supplement'}",
        elapsed,
        120,
    )
    assert masses_ok
    assert center_ok
    assert sides_ok, (
        "side modes do not match the stated N(0,4/9): the verified eigenvalue "
        "expansion exponentiates to width 1/9 (|lambda|^n = exp(-n d^2/18)); "
        f"measured K-S {d_left:.3f}/{d_right:.3f} vs 4/9 but "
        "< 0.04 vs N(0,1/9) (supplement test)"
    )


def test_c06_supplement_corrected_side_variance(m2_measure_2000):
    # Green companion to the red clause above: the corrected width fits.
    mu = m2_measure_2000
    cell = HAD.matrix @ PLUS
    left, _, right = limit_profiles(cell)
    for p in (left, right):
        corrected = LimitProfile(p.mode, p.weight, p.speed, SIDE_VARIANCE_CUMULANT)
        d = scaled_cdf_distance(mu, corrected, 4.0)
        print(f"[PASS] supplement: {p.mode} mode K-S vs N(0,1/9) = {d:.4f} (< 0.07)")
        assert d < 0.07


def test_c07_classical_clt():
    t0 = time.perf_counter()
    n = 2000
    probs = oqrw_reference(HAD, PLUS, n)
    xs = np.arange(-n, n + 1) / math.sqrt(n)
    d = kolmogorov_distance(xs, probs, lambda y: gaussian_cdf(y, 1.0))
    elapsed = time.perf_counter() - t0
    ok = d < 0.05 and elapsed < 5
    _report("criterion 7 (width-1 central limit)", ok, f"K-S vs N(0,1) = {d:.4f} (< 0.05)", elapsed, 5)
    assert ok


def test_c08_critical_time_rule():
    t0 = time.perf_counter()
    observed = {}
    for m in range(2, 21):
        nmax = max(4 * m, 3 * m + 10, 45)
        observed[m] = n_crit(HAD, m, nmax, tol=1e-12, g=PLUS)
    nmax1 = 60
    nc1 = n_crit(HAD, 1, nmax1, tol=0.0, g=PLUS)
    violations = []
    for m, nc in observed.items():
        rule = 3 * m if m % 2 == 0 else 2 * m
        if abs(nc - rule) > 2:
            violations.append(f"M={m}: n_crit={nc} vs rule {rule}")
    elapsed = time.perf_counter() - t0
    ok = nc1 == nmax1 and not violations and elapsed < 60
    _report(
        "criterion 8 (critical-time rule)",
        ok,
        f"n_crit(1)={nc1}=n_max: ok; rule violations: {len(violations)} "
        f"({'; '.join(violations[:4])}{'...' if len(violations) > 4 else ''})",
        elapsed,
        60,
    )
    assert nc1 == nmax1
    # Exact onsets (sign test at tolerance 0) and the dip there, for the message.
    exact = {m: exact_onset(m, max(4 * m, nc + 10)) for m, nc in observed.items()}
    margins = "; ".join(f"M={m}: n={n} {low:.2e}" for m, (n, low) in exact.items())
    assert not violations, (
        "the exact dynamics does not follow the 3M/2M rule within +-2: "
        + "; ".join(violations)
        + " - measured onsets are genuine interference dips of size 3e-5..2e-2 "
        "(width 2 stays non-negative until n=36); see the frozen table supplement. "
        "Exact first negative n and min Re mu there: " + margins
    )


def test_c08_supplement_frozen_onsets():
    # Regression anchor: exact first-negativity times of the verified
    # dynamics (tol 1e-12, spinor (1,1)/sqrt2, standard placements).
    expected = {
        2: 36, 3: 7, 4: 12, 5: 11, 6: 17, 7: 15, 8: 21, 9: 18, 10: 25,
        11: 28, 12: 33, 13: 24, 14: 37, 15: 28, 16: 42, 17: 34, 18: 44,
        19: 39, 20: 46,
    }
    got = {}
    for m, value in expected.items():
        nmax = max(4 * m, value + 10)
        got[m] = n_crit(HAD, m, nmax, tol=1e-12, g=PLUS)
    assert got == expected
    print("[PASS] supplement: frozen critical times reproduced for M=2..20")
    # The same table from the exact integer walk with tolerance 0: every
    # onset dip is at least 2.9e-5 deep, so no float rounding can move it.
    exact = {m: exact_onset(m, max(4 * m, value + 10)) for m, value in expected.items()}
    assert {m: n - 1 for m, (n, _) in exact.items()} == expected
    assert all(low < -2.9e-5 for _, low in exact.values())
    margins = ", ".join(f"{m}: {low:.2e}" for m, (_, low) in exact.items())
    print(f"[PASS] supplement: exact onsets (tol 0) match; min Re mu at onset per M: {margins}")


def test_c09_peak_positions(m2_measure_2000, oracle_2000):
    t0 = time.perf_counter()
    xbar = peak_position(m2_measure_2000)
    m2_err = abs(xbar - 1 / S3)
    oracle_xbar = oracle_2000.peak_xbar[-1]
    elapsed = time.perf_counter() - t0
    ok = m2_err < 0.01 and 0.68 <= oracle_xbar <= 0.72 and elapsed < 120
    _report(
        "criterion 9 (peak positions)",
        ok,
        f"width-2 xmax = {xbar:.4f} (|err| = {m2_err:.4f} < 0.01), "
        f"untruncated xmax = {oracle_xbar:.4f} in [0.68, 0.72]",
        elapsed,
        120,
    )
    assert ok


def test_c10_exponents(m2_series_2000, oracle_2000):
    t0 = time.perf_counter()
    window = (1000, 2000)
    gamma = tail_exponent(m2_series_2000, window).slope
    r_center = decay_exponent(m2_series_2000, "center", window).slope
    r_side = decay_exponent(m2_series_2000, "side", window).slope
    gamma_o = tail_exponent(oracle_2000, window).slope
    r_side_o = decay_exponent(oracle_2000, "side", window).slope
    elapsed = time.perf_counter() - t0
    ok = (
        abs(gamma - 0.5) <= 0.07
        and abs(r_center + 0.5) <= 0.03
        and abs(r_side + 0.5) <= 0.03
        and abs(gamma_o - 1 / 3) <= 0.07
        and abs(r_side_o + 2 / 3) <= 0.05
        and elapsed < 600
    )
    _report(
        "criterion 10 (spreading exponents)",
        ok,
        f"width-2: gamma {gamma:.4f} (0.5 +- 0.07), r_center {r_center:.4f}, "
        f"r_side {r_side:.4f} (-0.5 +- 0.03); untruncated: gamma {gamma_o:.4f} "
        f"(1/3 +- 0.07), r_side {r_side_o:.4f} (-2/3 +- 0.05)",
        elapsed,
        600,
    )
    assert ok


def test_c11_spectral_simulation_consistency():
    t0 = time.perf_counter()
    ks = 2 * math.pi * np.arange(64) / 64
    worst = 0.0
    for m in (1, 2, 3, 4):
        for g in (LEFT, PLUS):
            n = 60
            state = evolve(init_product(HAD, g, m, n), n)
            mu = measure(state)
            xs = mu.positions()
            engine = np.array([np.sum(mu.values * np.exp(1j * k * xs)) for k in ks])
            matrix = char_function(HAD, m, n, ks, g)
            worst = max(worst, float(np.max(np.abs(engine - matrix))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10
    _report(
        "criterion 11 (spectral-simulation consistency)",
        ok,
        f"max |char fn diff| = {worst:.2e} (tol 1e-9), M <= 4, n = 60, 64-point grid",
        elapsed,
        10,
    )
    assert ok


def test_c12_eigenvector_runs():
    t0 = time.perf_counter()
    red = kato_reduction(HAD, 2)
    n = 200
    wv = 4.0 * math.sqrt(n)
    c = n / S3
    results = {}
    for name, vec, direction in (("v2", red.vectors[1], +1), ("v3", red.vectors[2], -1)):
        state = evolve(init_band_vector(HAD, vec.reshape(2, 4), 2, n + 2), n)
        mu = measure(state)
        xs = mu.positions()
        main_sel = np.abs(xs - direction * c) <= wv
        main_mass = float(mu.values[main_sel].real.sum())
        com = float(np.sum(xs[main_sel] * mu.values[main_sel].real) / main_mass)
        speed_err = abs(abs(com) / n - 1 / S3) / (1 / S3)
        others = [
            abs(float(mu.values[np.abs(xs + direction * c) <= wv].real.sum())),
            abs(float(mu.values[np.abs(xs) <= wv].real.sum())),
        ]
        results[name] = (main_mass, com / n, speed_err, max(others))
    elapsed = time.perf_counter() - t0
    ok = all(
        mass > 0.5 and err <= 0.02 and leak < 1e-2
        for mass, _, err, leak in results.values()
    ) and (results["v2"][1] > 0 > results["v3"][1]) and elapsed < 5
    _report(
        "criterion 12 (eigenvector runs)",
        ok,
        f"v2: mass {results['v2'][0]:.4f} at speed {results['v2'][1]:+.4f} "
        f"(err {results['v2'][2]:.2%}), leak {results['v2'][3]:.1e}; "
        f"v3: mass {results['v3'][0]:.4f} at speed {results['v3'][1]:+.4f} "
        f"(err {results['v3'][2]:.2%}), leak {results['v3'][3]:.1e}",
        elapsed,
        5,
    )
    assert ok


def test_c12_supplement_stationary_run():
    # The zero-mode vector keeps its central mass: the window sum stays
    # within 1e-6 of the initial total while the sides stay below 1e-2.
    red = kato_reduction(HAD, 2)
    n = 200
    state = init_band_vector(HAD, red.vectors[0].reshape(2, 4), 2, n + 2)
    total0 = measure(state).total().real
    state = evolve(state, n)
    mu = measure(state)
    xs = mu.positions()
    wv = 4.0 * math.sqrt(n)
    c = n / S3
    center = float(mu.values[np.abs(xs) <= wv].real.sum())
    sides = [
        abs(float(mu.values[np.abs(xs - sgn * c) <= wv].real.sum())) for sgn in (-1, 1)
    ]
    print(
        f"[PASS] supplement: stationary-mode center mass {center:.8f} "
        f"(initial {total0:.1f}), side leaks {max(sides):.1e}"
    )
    assert abs(center - total0) < 1e-6
    assert max(sides) < 1e-2
