import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripewalk import (
    band_field,
    evolve,
    init_band_vector,
    init_product,
    make_hadamard,
    measure,
    oqrw_reference,
    qw1d_reference,
    qw1d_trajectory,
    step,
    stripe_for_width,
    trajectory,
)
from stripewalk.coin import LL
from stripewalk.limits import gaussian_cdf, kolmogorov_distance, konno_cdf

from conftest import unit_spinor_strategy, unitary_coin_strategy

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
LEFT = np.array([1.0, 0.0])


def test_stripe_for_width():
    assert stripe_for_width(1) == (0, 0)
    assert stripe_for_width(2) == (-1, 0)
    assert stripe_for_width(3) == (-1, 1)
    assert stripe_for_width(10) == (-5, 4)
    with pytest.raises(ValueError):
        stripe_for_width(0)


def test_init_product_left_spinor(hadamard):
    state = init_product(hadamard, LEFT, -1, 0, 4)
    assert np.allclose(state.cell(0, 0), [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert abs(state.norm() - 1.0) < 1e-14


def test_init_product_plus_spinor(hadamard):
    state = init_product(hadamard, PLUS, -1, 0, 4)
    assert np.allclose(state.cell(0, 0), [1, 0, 0, 0], atol=1e-15)


def test_init_product_rejects_non_unit(hadamard):
    with pytest.raises(ValueError, match="unit"):
        init_product(hadamard, [1.0, 1.0], -1, 0, 4)
    with pytest.raises(ValueError):
        init_product(hadamard, LEFT, 1, 2, 4)  # stripe must contain 0


def test_init_band_vector_zero_data(hadamard):
    state = init_band_vector(hadamard, np.zeros((2, 4)), -1, 0, 10)
    state = evolve(state, 8)
    assert np.max(np.abs(measure(state).values)) == 0.0


def test_init_band_vector_shape_mismatch(hadamard):
    with pytest.raises(ValueError, match="shape"):
        init_band_vector(hadamard, np.zeros((3, 4)), -1, 0, 4)


def test_one_step_measure_is_half_half(hadamard):
    for m in (1, 2, 3):
        s, t = stripe_for_width(m)
        state = step(init_product(hadamard, LEFT, s, t, 2))
        mu = measure(state)
        assert abs(mu.at(-1) - 0.5) < 1e-15
        assert abs(mu.at(1) - 0.5) < 1e-15
        assert abs(mu.at(0)) == 0.0


def test_horizon_exhaustion(hadamard):
    state = init_product(hadamard, LEFT, -1, 0, 2)
    state = evolve(state, 2)
    with pytest.raises(RuntimeError, match="horizon"):
        step(state)


def test_evolve_zero_is_identity(hadamard):
    state = init_product(hadamard, LEFT, -1, 0, 5)
    same = evolve(state, 0)
    assert np.array_equal(same.amps, state.amps)
    assert same.n == 0


def test_evolve_composition_bitwise(hadamard):
    state = init_product(hadamard, PLUS, -2, 1, 8)
    a = evolve(evolve(state, 3), 2)
    b = evolve(state, 5)
    assert np.array_equal(a.amps, b.amps)


def _dense_step(state):
    """Oracle step: the four 4x4 tensor blocks applied as dense complex
    matrices over the whole light cone, with no window and no parity."""
    b, src = state.blocks, state.amps.astype(complex)
    dst = np.zeros_like(src)
    r = state.n + 1
    lo, hi = state.center - r, state.center + r + 1
    out = dst[:, :, lo:hi]
    np.einsum("ij,jvu->ivu", b.pp, src[:, :, lo + 1 : hi + 1], out=out)
    out += np.einsum("ij,jvu->ivu", b.qq, src[:, :, lo - 1 : hi - 1])
    out[:, :-1, :] += np.einsum("ij,jvu->ivu", b.pq, src[:, 1:, lo:hi])
    out[:, 1:, :] += np.einsum("ij,jvu->ivu", b.qp, src[:, :-1, lo:hi])
    return dataclasses.replace(state, n=r, amps=dst)


def test_dense_and_rank1_paths_agree(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        state = init_product(coin, PLUS, -2, 1, 12)
        dense = state
        for _ in range(12):
            dense = _dense_step(dense)
        assert np.max(np.abs(evolve(state, 12).amps - dense.amps)) < 1e-14


def _band_starts(coin, m):
    """Product (real and complex spinor), mixed and two-sublattice band starts."""
    s, t = stripe_for_width(m)
    rng = np.random.default_rng(m)
    mixed = np.zeros((m, 4))
    mixed[-s] = [0.5, 0.0, 0.0, 0.5]
    band = rng.normal(size=(m, 4))
    return {
        "product": init_product(coin, PLUS, s, t, 40),
        "product complex spinor": init_product(coin, np.array([1.0, 1.0j]) / math.sqrt(2), s, t, 40),
        "mixed": init_band_vector(coin, mixed, s, t, 40),
        "band": init_band_vector(coin, band, s, t, 40),
        "band complex": init_band_vector(coin, band + 1j * rng.normal(size=(m, 4)), s, t, 40),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_step_matches_dense_oracle(hadamard, complex_coin, m):
    for coin in (hadamard, complex_coin):
        for name, state in _band_starts(coin, m).items():
            dense = state
            for got in trajectory(state, 40):
                dense = _dense_step(dense)
                assert got.n == dense.n
                assert np.max(np.abs(got.amps - dense.amps)) <= 1e-14, (name, got.n)


def test_dtype_and_sublattices_follow_the_inputs(hadamard, complex_coin):
    starts = _band_starts(hadamard, 3)
    assert starts["product"].amps.dtype == np.float64
    assert starts["mixed"].amps.dtype == np.float64
    assert starts["band"].amps.dtype == np.float64
    assert starts["product complex spinor"].amps.dtype == np.complex128
    assert starts["band complex"].amps.dtype == np.complex128
    assert all(st.amps.dtype == np.complex128 for st in _band_starts(complex_coin, 3).values())
    assert starts["product"].sublattices == (0,)
    assert starts["mixed"].sublattices == (0,)
    assert starts["band"].sublattices == (0, 1)
    odd_rows = np.zeros((3, 4))
    odd_rows[0] = [1.0, 0.0, 0.0, 0.0]  # v = -1 only
    assert init_band_vector(hadamard, odd_rows, -1, 1, 4).sublattices == (1,)
    state = evolve(starts["product"], 5)
    # The accessors stay complex whatever the engine's dtype.
    assert measure(state).values.dtype == np.complex128
    assert state.row(0).dtype == np.complex128
    assert state.cell(1, 0).dtype == np.complex128
    assert band_field(state)["value"].dtype == np.complex128
    # Exact zeros are dropped too: with Hg = (1, 0) the right edge stays empty.
    nonzero_u = np.flatnonzero(np.any(state.amps != 0, axis=(0, 1))) - state.center
    assert state.engine() == {
        "dtype": "float64",
        "sublattices": [0],
        "live_u": [int(nonzero_u[0]), int(nonzero_u[-1])],
    }


def test_trajectory_swaps_two_buffers(hadamard):
    state = init_product(hadamard, PLUS, -1, 0, 30)
    buffers = {id(st.amps) for st in trajectory(state, 30)}
    assert len(buffers) == 2 and id(state.amps) not in buffers


def test_step_into_spent_buffer_clears_stale_columns(hadamard):
    # A spent state whose live window is wider than the new one: the
    # columns it alone covers must read zero after the step.
    x = init_product(hadamard, PLUS, -2, 1, 30)
    spent = evolve(x, 9)
    src = evolve(x, 10)
    c = src.center
    amps = np.zeros_like(src.amps)
    amps[:, :, c - 3 : c + 4] = src.amps[:, :, c - 3 : c + 4]
    narrow = dataclasses.replace(src, amps=amps, live=(c - 3, c + 4))
    fresh = step(narrow)
    reused = step(narrow, out=spent)
    assert reused.amps is spent.amps
    assert reused.live == fresh.live == (c - 4, c + 5)
    assert np.array_equal(reused.amps, fresh.amps)


def test_step_rejects_a_wrong_spent_state(hadamard, complex_coin):
    # Only the state one step back, on its own buffer of the same dtype and
    # shape, has its live cells where the kernel writes.
    x = init_product(hadamard, PLUS, -2, 1, 30)
    state = evolve(x, 10)
    wrong = {
        "same parity": evolve(x, 8),
        "newer": evolve(x, 11),
        "itself": state,
        "complex": evolve(init_product(complex_coin, PLUS, -2, 1, 30), 9),
        "narrower": evolve(init_product(hadamard, PLUS, -2, 1, 20), 9),
    }
    for name, out in wrong.items():
        with pytest.raises(ValueError, match="one step before"):
            step(state, out=out)
    assert step(state, out=evolve(x, 9)).n == 11


def test_non_finite_edge_column_survives_trajectory(hadamard):
    # A column of sub-tiny values that also holds a NaN (or an inf) must
    # not be dropped as if it were an underflowed tail.
    for bad in (math.nan, math.inf):
        state = evolve(init_product(hadamard, PLUS, -1, 0, 80), 20)
        lo, hi = state.live
        state.amps[:, :, lo] = 1e-310
        state.amps[LL, :, lo] = bad
        with np.errstate(invalid="ignore"):
            final = evolve(state, 40)
        assert not np.all(np.isfinite(final.amps))
        assert not np.all(np.isfinite(measure(final).values))
        assert final.live[0] <= lo - 40


def test_window_drop_bound_against_dense_oracle(hadamard):
    # At M = 2 the lone edge path carries 2^-n, which is subnormal from
    # n = 1022 on; the window drops those columns, the oracle keeps them.
    n = 1600
    state = init_product(hadamard, PLUS, -1, 0, n)
    dense = state
    for _ in range(n):
        dense = _dense_step(dense)
    for got in trajectory(state, n):
        lo, hi = got.live  # everything outside the live window reads zero
        assert not np.any(got.amps[:, :, :lo]) and not np.any(got.amps[:, :, hi:])
    assert got.center - n < lo and hi < got.center + n + 1
    subnormal = (dense.amps != 0) & (np.abs(dense.amps) < np.finfo(float).tiny)
    assert np.count_nonzero(subnormal) > 100
    diff = np.max(np.abs(measure(got).values - measure(dense).values))
    assert diff <= 1e-300


def test_trajectory_yields_each_step(hadamard):
    state = init_product(hadamard, PLUS, -2, 1, 9)
    items = [(s.n, s.amps.copy()) for s in trajectory(state, 9)]
    assert [n for n, _ in items] == list(range(1, 10))
    assert np.array_equal(items[-1][1], evolve(state, 9).amps)
    assert np.array_equal(items[3][1], evolve(state, 4).amps)
    assert list(trajectory(state, 0)) == []
    with pytest.raises(ValueError, match="non-negative"):
        next(trajectory(state, -1))


def test_qw1d_trajectory_items_match_reference(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        for g in (LEFT, np.array([1.0, 1.0j]) / math.sqrt(2)):
            j = 0
            for j, probs in enumerate(qw1d_trajectory(coin, g, 30), start=1):
                assert probs.shape == (2 * j + 1,)
                assert np.max(np.abs(probs - qw1d_reference(coin, g, j))) <= 1e-15
            assert j == 30


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (1.0, 1.0)])
def test_spinor_checks_reject_non_finite_and_non_unit(hadamard, bad):
    from stripewalk.characteristics import oracle_series
    from stripewalk.limits import limit_coefficients

    calls = (
        lambda: init_product(hadamard, bad, -1, 0, 4),
        lambda: qw1d_reference(hadamard, bad, 3),
        lambda: oqrw_reference(hadamard, bad, 3),
        lambda: oracle_series(hadamard, bad, 3),
        lambda: limit_coefficients(bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unit"):
            call()


def test_measure_initial_point_mass(hadamard):
    mu = measure(init_product(hadamard, PLUS, -1, 0, 3))
    assert mu.at(0) == 1.0
    assert abs(mu.total() - 1.0) < 1e-15


def test_measure_sum_conserved_small(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        for m in (1, 2, 3, 5):
            s, t = stripe_for_width(m)
            state = init_product(coin, PLUS, s, t, 120)
            for _ in range(120):
                state = step(state)
                assert abs(measure(state).total() - 1.0) < 1e-10


def test_measure_goes_negative_past_onset(hadamard):
    state = evolve(init_product(hadamard, PLUS, -1, 0, 100), 100)
    assert measure(state).values.real.min() < 0.0


def test_support_confined_to_light_cone(hadamard):
    state = init_product(hadamard, PLUS, -2, 2, 20)
    for _ in range(12):
        state = step(state)
        c, n = state.center, state.n
        assert np.max(np.abs(state.amps[:, :, : c - n])) == 0.0
        assert np.max(np.abs(state.amps[:, :, c + n + 1 :])) == 0.0


def test_parity_zeros(hadamard):
    state = init_product(hadamard, LEFT, -1, 1, 30)
    for _ in range(30):
        state = step(state)
        mu = measure(state)
        odd = (mu.positions() + state.n) % 2 == 1
        assert np.max(np.abs(mu.values[odd])) == 0.0


def test_norm_monotone_and_flat_before_boundary(hadamard):
    state = init_product(hadamard, LEFT, -3, 3, 20)
    norms = [state.norm()]
    for _ in range(20):
        state = step(state)
        norms.append(state.norm())
    norms = np.array(norms)
    assert np.all(norms[1:] <= norms[:-1] + 1e-14)
    # Rows v = +-3 are first reached at n = 3; loss starts the step after.
    assert np.allclose(norms[:4], 1.0, atol=1e-13)
    assert norms[6] < 1.0 - 1e-6


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)
def test_evolution_linear_in_band_vector(seed, alpha, beta):
    coin = make_hadamard()
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    s, t = stripe_for_width(3)
    ea = evolve(init_band_vector(coin, a, s, t, 6), 6)
    eb = evolve(init_band_vector(coin, b, s, t, 6), 6)
    eab = evolve(init_band_vector(coin, alpha * a + beta * b, s, t, 6), 6)
    assert np.max(np.abs(eab.amps - (alpha * ea.amps + beta * eb.amps))) < 1e-12


def test_band_field_matches_measure_on_diagonal(hadamard):
    state = evolve(init_product(hadamard, LEFT, -1, 1, 8), 7)
    field = band_field(state)
    diagonal = field[field["x"] == field["y"]]
    mu = measure(state)
    assert diagonal["x"].tolist() == mu.positions().tolist()
    for x, value in zip(diagonal["x"].tolist(), diagonal["value"].tolist()):
        assert value == mu.at(x)


def test_band_field_m1_diagonal_only(hadamard):
    state = evolve(init_product(hadamard, PLUS, 0, 0, 10), 9)
    field = band_field(state)
    assert np.array_equal(field["x"], field["y"])


def test_band_field_vanishes_at_far_boundary(hadamard):
    # Light cone reaches rows +-100 at n = 100 with one lone path of
    # weight 2^-100; everything on the boundary rows is below 1e-12.
    state = evolve(init_product(hadamard, PLUS, -100, 100, 102), 100)
    for v in (-100, 100):
        assert np.max(np.abs(state.row(v))) < 1e-12


def test_odd_width_measure_exactly_real(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        state = init_product(coin, PLUS, -2, 2, 60)
        for _ in range(60):
            state = step(state)
            assert measure(state).max_abs_imag() <= 1e-12


def test_even_width_imag_reported_not_asserted(complex_coin):
    # Asymmetric stripes may carry imaginary residue; it is recorded.
    state = evolve(init_product(complex_coin, PLUS, -1, 0, 40), 40)
    imag = measure(state).max_abs_imag()
    assert np.isfinite(imag)


def test_m1_measure_probability(hadamard):
    state = init_product(hadamard, PLUS, 0, 0, 200)
    for _ in range(200):
        state = step(state)
        mu = measure(state)
        assert mu.max_abs_imag() == 0.0
        assert mu.values.real.min() >= 0.0


def test_qw1d_first_step(hadamard):
    probs = qw1d_reference(hadamard, LEFT, 1)
    assert np.allclose(probs, [0.5, 0.0, 0.5], atol=1e-15)


def test_qw1d_time_zero(hadamard):
    assert np.allclose(qw1d_reference(hadamard, PLUS, 0), [1.0])


def test_qw1d_weak_limit_konno(hadamard):
    # The symmetric spinor (1, i)/sqrt2 converges to the arcsine-like
    # limit; product spinors with real cross term acquire a linear tilt.
    n = 600
    probs = qw1d_reference(hadamard, np.array([1.0, 1.0j]) / math.sqrt(2), n)
    xs = np.arange(-n, n + 1) / n
    assert kolmogorov_distance(xs, probs, konno_cdf) < 0.05


def test_oqrw_hand_values(hadamard):
    assert np.allclose(oqrw_reference(hadamard, PLUS, 0), [1.0])
    # Cell spinor Hg = (1, 0): the first step moves everything left.
    probs = oqrw_reference(hadamard, PLUS, 1)
    assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-15)
    # Mixed start splits evenly.
    probs = oqrw_reference(hadamard, LEFT, 1)
    assert np.allclose(probs, [0.5, 0.0, 0.5], atol=1e-15)


def test_oqrw_gaussian_limit_small(hadamard):
    n = 500
    probs = oqrw_reference(hadamard, PLUS, n)
    xs = np.arange(-n, n + 1) / math.sqrt(n)
    assert kolmogorov_distance(xs, probs, lambda y: gaussian_cdf(y, 1.0)) < 0.05


def test_untruncated_stripe_matches_qw1d(hadamard):
    n = 20
    state = init_product(hadamard, LEFT, -n, n, n)
    for j in range(1, n + 1):
        state = step(state)
        got = measure(state).values
        assert np.max(np.abs(got - qw1d_reference(hadamard, LEFT, j))) < 1e-12


def test_width_one_matches_oqrw(hadamard):
    n = 100
    state = init_product(hadamard, PLUS, 0, 0, n)
    for j in range(1, n + 1):
        state = step(state)
        got = measure(state).values
        assert np.max(np.abs(got - oqrw_reference(hadamard, PLUS, j))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(unit_spinor_strategy())
def test_measure_sum_one_random_spinors(g):
    coin = make_hadamard()
    state = evolve(init_product(coin, g, -1, 0, 40), 40)
    assert abs(measure(state).total() - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    unitary_coin_strategy(),
    unit_spinor_strategy(),
    st.integers(min_value=-3, max_value=0),
    st.integers(min_value=0, max_value=3),
)
def test_measure_sum_one_any_coin_stripe(coin, g, s, t):
    state = evolve(init_product(coin, g, s, t, 25), 25)
    assert abs(measure(state).total() - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(unitary_coin_strategy(), unit_spinor_strategy())
def test_qw1d_normalized_any_coin(coin, g):
    probs = qw1d_reference(coin, g, 30)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs.min() >= 0.0
