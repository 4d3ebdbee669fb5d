import math

import numpy as np
import pytest
from hypothesis import given, settings

from stripewalk import evolve, init_product, make_coin, measure, oqrw_reference
from stripewalk.limits import (
    CENTER_VARIANCE,
    SIDE_VARIANCE,
    SIDE_VARIANCE_CUMULANT,
    SPEED,
    LimitProfile,
    gaussian_cdf,
    kolmogorov_distance,
    konno_density,
    limit_coefficients,
    limit_profiles,
    mode_masses,
    mode_windows,
    scaled_cdf_distance,
)
from stripewalk.spectral import snapshot_measure

from conftest import unit_spinor_strategy
from oracles import cubic_spectrum_m2, konno_cdf, oqrw_limit

S3 = math.sqrt(3.0)
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


@pytest.fixture(scope="module")
def m2_measure_600(hadamard):
    state = evolve(init_product(hadamard, PLUS, -1, 0, 602), 600)
    return measure(state)


def test_coefficients_plus_spinor():
    c_minus, c_zero, c_plus = limit_coefficients(PLUS)
    assert abs(c_plus - (3 - S3) / 12) < 1e-14
    assert abs(c_minus - (3 + S3) / 12) < 1e-14
    assert c_zero == 0.5


def test_coefficients_left_spinor():
    c_minus, _, c_plus = limit_coefficients([1.0, 0.0])
    assert abs(c_plus - (2 - S3) / (2 * (3 - S3))) < 1e-14
    assert abs(c_minus - (2 + S3) / (2 * (3 + S3))) < 1e-14


def test_coefficients_reject_bad_input():
    with pytest.raises(ValueError):
        limit_coefficients([1.0, 1.0])
    with pytest.raises(ValueError):
        limit_coefficients([1.0, 0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(unit_spinor_strategy())
def test_coefficients_sum_to_one(g):
    # The cross terms of c_minus and c_plus cancel exactly, so the three
    # weights sum to one for every unit spinor, complex cross term or not.
    c_minus, c_zero, c_plus = limit_coefficients(g)
    assert abs(c_minus + c_zero + c_plus - 1.0) < 1e-12
    assert c_zero == 0.5


@settings(max_examples=40, deadline=None)
@given(unit_spinor_strategy())
def test_side_coefficients_swap_under_sign(g):
    # Swapping sqrt3 -> -sqrt3 swaps the side weights.
    c_minus, _, c_plus = limit_coefficients(g)
    c_minus2, _, c_plus2 = limit_coefficients(g.conj())
    assert abs(c_minus - np.conj(c_minus2)) < 1e-12
    assert abs(c_plus - np.conj(c_plus2)) < 1e-12


def test_profiles(hadamard):
    left, center, right = limit_profiles(PLUS)
    assert (left.speed, center.speed, right.speed) == (-SPEED, 0.0, SPEED)
    assert center.variance == CENTER_VARIANCE
    assert left.variance == SIDE_VARIANCE == 4.0 / 9.0
    assert SIDE_VARIANCE_CUMULANT == 1.0 / 9.0
    assert abs(left.weight + center.weight + right.weight - 1.0) < 1e-14


def test_konno_density_values():
    assert abs(konno_density(0.0) - 1.0 / math.pi) < 1e-15
    assert konno_density(0.9) == 0.0
    assert konno_density(1.0 / math.sqrt(2)) == 0.0


def test_konno_quadrature():
    # Midpoint rule after the edge substitution x = sin(theta)/sqrt2,
    # which absorbs the integrable inverse-square-root singularities.
    n = 10**5
    theta = (np.arange(n) + 0.5) / n * math.pi - math.pi / 2
    x = np.sin(theta) / math.sqrt(2)
    jac = np.cos(theta) / math.sqrt(2)
    vals = np.array([konno_density(t) for t in x])
    integral = np.sum(vals * jac) * (math.pi / n)
    assert abs(integral - 1.0) < 1e-3


def test_konno_cdf_matches_density():
    assert konno_cdf(-1.0) == 0.0
    assert konno_cdf(1.0) == 1.0
    assert abs(konno_cdf(0.0) - 0.5) < 1e-15
    for x in (-0.5, -0.2, 0.1, 0.6):
        h = 1e-6
        deriv = (konno_cdf(x + h) - konno_cdf(x - h)) / (2 * h)
        assert abs(deriv - konno_density(x)) < 1e-6


def test_oqrw_limit_values(hadamard):
    assert abs(oqrw_limit(hadamard) - 1.0) < 1e-14
    coin = make_coin(
        math.sqrt(1 / 3), math.sqrt(2 / 3), math.sqrt(2 / 3), -math.sqrt(1 / 3)
    )
    assert abs(oqrw_limit(coin) - 0.5) < 1e-14
    with pytest.raises(ValueError):
        oqrw_limit(make_coin(1, 0, 0, 1))


def test_gaussian_fourier_pairs():
    # exp(-k^2/4) and exp(-2 k^2/9) are the transforms of N(0,1/2) and
    # N(0,4/9): quadrature to 1e-8.
    ys = np.linspace(-12, 12, 200001)
    dy = ys[1] - ys[0]
    for var, target in ((0.5, lambda k: math.exp(-k * k / 4)),
                        (4.0 / 9.0, lambda k: math.exp(-2 * k * k / 9))):
        dens = np.exp(-(ys**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        for k in (0.5, 1.0, 2.0):
            got = np.sum(dens * np.exp(1j * k * ys)) * dy
            assert abs(got - target(k)) < 1e-8


def test_kolmogorov_distance_point_mass():
    # A unit atom at 0 against N(0,1): the CDF jumps from 0 to 1 across 1/2.
    d = kolmogorov_distance(np.array([0.0]), np.array([1.0]), lambda y: gaussian_cdf(y, 1.0))
    assert abs(d - 0.5) < 1e-12


def test_kolmogorov_distance_requires_mass():
    with pytest.raises(ValueError):
        kolmogorov_distance(np.array([0.0]), np.array([0.0]), lambda y: 0.5)


def test_mode_windows_disjoint():
    left, center, right = mode_windows(2000, 4.0)
    assert left[1] < center[0] < center[1] < right[0]
    with pytest.raises(ValueError, match="overlap"):
        mode_windows(100, 4.0)
    with pytest.raises(ValueError, match="overlap"):
        mode_windows(0, 4.0)


def test_mode_masses_match_coefficients(hadamard, m2_measure_600):
    c_minus, c_zero, c_plus = limit_coefficients(hadamard.matrix @ PLUS)
    masses = mode_masses(m2_measure_600, 4.0)
    assert abs(masses[0] - c_minus.real) < 0.01
    assert abs(masses[1] - c_zero.real) < 0.01
    assert abs(masses[2] - c_plus.real) < 0.01
    assert abs(sum(masses) - 1.0) < 0.02


def test_complex_window_sums_match_coefficients(hadamard):
    # A complex cross term makes the side weights complex; the complex
    # window sums of the late measure carry the same imaginary parts.
    g = np.array([0.6, 0.8j])
    mu = snapshot_measure(init_product(hadamard, g, -1, 0, 0), 4000)
    xs = mu.positions()
    sums = [mu.values[(xs >= lo) & (xs <= hi)].sum() for lo, hi in mode_windows(4000, 4.0)]
    cell = hadamard.matrix @ g
    coefficients = limit_coefficients(cell / np.linalg.norm(cell))
    assert abs(coefficients[0].imag) > 0.1
    assert np.max(np.abs(np.array(sums) - coefficients)) < 1e-6


def test_center_mode_cdf_distance(hadamard, m2_measure_600):
    _, center, _ = limit_profiles(hadamard.matrix @ PLUS)
    assert scaled_cdf_distance(m2_measure_600, center, 4.0) < 0.05


def test_side_mode_cdf_distance_corrected_variance(hadamard, m2_measure_600):
    # Exponentiating the second-order eigenvalue expansion gives side
    # width 1/9 (not the published 4/9); the simulation follows 1/9.
    cell = hadamard.matrix @ PLUS
    left, _, right = limit_profiles(cell)
    for p in (left, right):
        corrected = LimitProfile(p.mode, p.weight, p.speed, SIDE_VARIANCE_CUMULANT)
        assert scaled_cdf_distance(m2_measure_600, corrected, 4.0) < 0.12
        stated = scaled_cdf_distance(m2_measure_600, p, 4.0)
        assert stated > 0.15  # the published variance does not fit


def test_scaled_cdf_distance_empty_window(hadamard, m2_measure_600):
    profile = LimitProfile("right", 0.1, SPEED, SIDE_VARIANCE)
    small = measure(evolve(init_product(hadamard, PLUS, -1, 0, 702), 700))
    # A half-width of 1e-3 sqrt(n) leaves the right window [405, 404] empty.
    with pytest.raises(ValueError, match="empty"):
        scaled_cdf_distance(small, profile, 1e-3)


def test_oqrw_clt(hadamard):
    n = 500
    probs = oqrw_reference(hadamard, PLUS, n)
    xs = np.arange(-n, n + 1) / math.sqrt(n)
    var = oqrw_limit(hadamard)
    assert kolmogorov_distance(xs, probs, lambda y: gaussian_cdf(y, var)) < 0.05


def test_mode_cumulants_from_exact_roots():
    # Independent oracle for the mode constants: second log-modulus
    # differences and the phase slope of the exact cubic roots give the
    # Gaussian widths and the ballistic speed without any simulation.
    h = 0.05

    def cumulants(pick):
        vals = {}
        for k in (0.0, h):
            f, s = cubic_spectrum_m2(k)
            vals[k] = pick(f, s)
        lnabs = {k: math.log(abs(v)) for k, v in vals.items()}
        # ln|lambda| is even in k, so f(-h) = f(h).
        var = -2.0 * (lnabs[h] - lnabs[0.0]) / h**2
        speed = np.angle(vals[h]) / h
        return var, speed

    center_var, center_speed = cumulants(lambda f, s: f[np.argmin(np.abs(f - 1))])
    # The side root is the upper one of the pair at 1; at k = 0 the pair is
    # the exact double root 1, level in imaginary part with the root -1/2.
    side_var, side_speed = cumulants(lambda f, s: max(s[np.abs(s - 1) < 0.5], key=lambda z: z.imag))
    assert abs(center_var - CENTER_VARIANCE) < 5e-3
    assert abs(center_speed) < 1e-10
    assert abs(side_var - SIDE_VARIANCE_CUMULANT) < 1e-3
    assert abs(side_var - SIDE_VARIANCE) > 0.3  # the published width is excluded
    assert abs(side_speed - SPEED) < 1e-3


def test_konno_cdf_vs_symmetric_walk(hadamard):
    from oracles import qw1d_reference

    n = 400
    probs = qw1d_reference(hadamard, np.array([1.0, 1.0j]) / math.sqrt(2), n)
    xs = np.arange(-n, n + 1) / n
    assert kolmogorov_distance(xs, probs, konno_cdf) < 0.06
