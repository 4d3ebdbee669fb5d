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
    qw1d_trajectory,
    step,
    stripe_for_width,
    trajectory,
)
from stripewalk import walker
from stripewalk.coin import LL
from stripewalk.limits import gaussian_cdf, kolmogorov_distance

from conftest import unit_spinor_strategy, unitary_coin_strategy
from oracles import (
    dense_trajectory,
    konno_cdf,
    live_mask,
    oracle_series,
    pack,
    qw1d_reference,
)

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
LEFT = np.array([1.0, 0.0])


def test_stripe_for_width():
    assert stripe_for_width(1) == (0, 0)
    assert stripe_for_width(2) == (-1, 0)
    assert stripe_for_width(3) == (-1, 1)
    assert stripe_for_width(4) == (-2, 1)
    assert stripe_for_width(10) == (-5, 4)
    with pytest.raises(ValueError):
        stripe_for_width(0)


def test_init_product_left_spinor(hadamard):
    state = init_product(hadamard, LEFT, 2, 4)
    assert np.allclose(state.dense()[:, 1, state.center], [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert abs(state.norm() - 1.0) < 1e-14


def test_init_product_plus_spinor(hadamard):
    state = init_product(hadamard, PLUS, 2, 4)
    assert np.allclose(state.dense()[:, 1, state.center], [1, 0, 0, 0], atol=1e-15)


def test_init_product_rejects_non_unit(hadamard):
    with pytest.raises(ValueError, match="unit"):
        init_product(hadamard, [1.0, 1.0], 2, 4)
    with pytest.raises(ValueError, match="stripe width must be >= 1"):
        init_product(hadamard, LEFT, 0, 4)


def test_init_band_vector_zero_data(hadamard):
    state = init_band_vector(hadamard, np.zeros((2, 4)), 2, 10)
    state = evolve(state, 8)
    assert np.max(np.abs(measure(state).values)) == 0.0


def test_init_band_vector_shape_mismatch(hadamard):
    with pytest.raises(ValueError, match="shape"):
        init_band_vector(hadamard, np.zeros((3, 4)), 2, 4)


def test_one_step_measure_is_half_half(hadamard):
    for m in (1, 2, 3):
        state = step(init_product(hadamard, LEFT, m, 2))
        mu = measure(state)
        assert abs(mu.values[-1 + mu.n] - 0.5) < 1e-15
        assert abs(mu.values[1 + mu.n] - 0.5) < 1e-15
        assert abs(mu.values[mu.n]) == 0.0


def test_horizon_exhaustion(hadamard):
    state = init_product(hadamard, LEFT, 2, 2)
    state = evolve(state, 2)
    with pytest.raises(RuntimeError, match="horizon"):
        step(state)


def test_evolve_zero_is_identity(hadamard):
    state = init_product(hadamard, LEFT, 2, 5)
    same = evolve(state, 0)
    assert np.array_equal(same.dense(), state.dense())
    assert same.n == 0


def test_evolve_composition_bitwise(hadamard):
    state = init_product(hadamard, PLUS, 4, 8)
    a = evolve(evolve(state, 3), 2)
    b = evolve(state, 5)
    assert np.array_equal(a.dense(), b.dense())


def test_dense_and_rank1_paths_agree(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        state = init_product(coin, PLUS, 4, 12)
        *_, dense = dense_trajectory(state, 12)
        assert np.max(np.abs(evolve(state, 12).dense() - dense)) < 1e-14


def _band_starts(coin, m, n_max=40):
    """Product (real and complex spinor), mixed, two-sublattice band and edge-row starts.

    The edge-row start fills only the first and the last stripe row, which
    read zero beyond the cut (through QP and PQ); it occupies two
    sublattices at even widths and one at odd widths.
    """
    rng = np.random.default_rng(m)
    mixed = np.zeros((m, 4))
    mixed[m // 2] = [0.5, 0.0, 0.0, 0.5]
    band = rng.normal(size=(m, 4))
    complex_band = band + 1j * rng.normal(size=(m, 4))
    edges = np.zeros((m, 4))
    edges[[0, -1]] = rng.normal(size=(2, 4))
    return {
        "product": init_product(coin, PLUS, m, n_max),
        "product complex spinor": init_product(coin, np.array([1.0, 1.0j]) / math.sqrt(2), m, n_max),
        "mixed": init_band_vector(coin, mixed, m, n_max),
        "band": init_band_vector(coin, band, m, n_max),
        "band complex": init_band_vector(coin, complex_band, m, n_max),
        "edge rows": init_band_vector(coin, edges, m, n_max),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4, 10])
def test_step_matches_dense_oracle(hadamard, complex_coin, m):
    for coin in (hadamard, complex_coin):
        for name, state in _band_starts(coin, m).items():
            for n, (got, dense) in enumerate(zip(trajectory(state, 40), dense_trajectory(state, 40)), start=1):
                assert got.n == n
                assert np.max(np.abs(got.dense() - dense)) <= 1e-14, (name, got.n)
            assert got.n == 40


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_packed_field_is_the_stated_layout(hadamard, complex_coin, m):
    # The packed array equals the dense oracle's field packed by
    # oracles.pack, which states the layout apart from the walker: even
    # rows first, j = (u + center) // 2, one field per sublattice.  At odd
    # widths the even block has one row more than the odd block.  The two
    # guard rows after the blocks stay exactly zero.
    ne = (m + 1) // 2
    for coin in (hadamard, complex_coin):
        for name, state in _band_starts(coin, m).items():
            for got, dense in zip(trajectory(state, 12), dense_trajectory(state, 12)):
                assert got.packed.shape[2] == m + 2 and not np.any(got.packed[:, :, [ne, m + 1]])
                want = pack(dataclasses.replace(got, packed=np.empty(got.packed.shape, dtype=complex)), dense)
                assert np.max(np.abs(got.packed - want.packed)) <= 1e-14, (name, got.n)
                assert np.array_equal(pack(dataclasses.replace(got, packed=np.empty_like(got.packed)), got.dense()).packed, got.packed)


#: BandState.engine() of the Hadamard starts of ``_band_starts`` (n_max = 1200)
#: at n = 0, 1, 40 and 1200: (dtype, kernel, sublattices, live_u per n).  The
#: provenance records of ``simulate`` and ``characteristics`` carry it, and
#: the perfbench output gate compares the keys its references hold (all but
#: ``kernel``, which they predate).
FROZEN_ENGINES = {
    (2, "product"): ("float64", "real", [0], [[0, 0], [-1, -1], [-40, 38], [-1173, 1171]]),
    (2, "product complex spinor"): ("complex128", "real", [0], [[0, 0], [-1, 1], [-40, 40], [-1173, 1173]]),
    (2, "mixed"): ("float64", "real", [0], [[0, 0], [-1, 1], [-40, 40], [-1173, 1173]]),
    (2, "band"): ("float64", "real", [0, 1], [[0, 0], [-1, 1], [-40, 40], [-1174, 1174]]),
    (3, "product"): ("float64", "real", [0], [[0, 0], [-1, -1], [-40, 38], [-1175, 1173]]),
    (3, "product complex spinor"): ("complex128", "real", [0], [[0, 0], [-1, 1], [-40, 40], [-1175, 1175]]),
    (3, "mixed"): ("float64", "real", [0], [[0, 0], [-1, 1], [-40, 40], [-1175, 1175]]),
    (3, "band"): ("float64", "real", [0, 1], [[0, 0], [-1, 1], [-40, 40], [-1175, 1175]]),
}


@pytest.mark.parametrize("m", [2, 3])
def test_engine_records_are_frozen(hadamard, m):
    for name, state in _band_starts(hadamard, m, n_max=1200).items():
        if (m, name) not in FROZEN_ENGINES:
            continue
        dtype, kernel, sublattices, live_u = FROZEN_ENGINES[m, name]
        got = [state.engine()] + [st.engine() for st in trajectory(state, 1200) if st.n in (1, 40, 1200)]
        want = [{"dtype": dtype, "kernel": kernel, "sublattices": sublattices, "live_u": u} for u in live_u]
        assert got == want, name


@pytest.mark.parametrize("m", [1, 2, 3])
def test_float_and_complex_paths_agree(hadamard, complex_coin, m):
    # The same real state stepped as float64 and as complex128: the real
    # coin steps both through real products, the complex field through its
    # float64 view, whose imaginary parts stay exact zeros; the real parts
    # may round differently only in the last digits.
    for name, state in _band_starts(hadamard, m).items():
        if state.engine()["dtype"] != "float64":
            continue
        blank = dataclasses.replace(state, packed=np.zeros(state.packed.shape, dtype=complex))
        as_complex = pack(blank, state.dense())
        for real, cplx in zip(trajectory(state, 40), trajectory(as_complex, 40)):
            assert real.engine()["kernel"] == cplx.engine()["kernel"] == "real"
            field = cplx.dense()
            assert field.dtype == np.complex128
            assert not np.any(field.imag), (name, real.n)
            assert np.max(np.abs(field.real - real.dense())) <= 1e-15, (name, real.n)
    # A complex coin runs the complex product.
    for name, state in _band_starts(complex_coin, m).items():
        assert state.engine()["kernel"] == step(state).engine()["kernel"] == "complex", name


@pytest.mark.parametrize("m", [1, 2, 3, 10, 50])
def test_view_and_complex_products_agree(hadamard, m):
    # A complex field under the real Hadamard coin steps through its
    # float64 view; the same field stepped by the complex product of the
    # coin's weights (whose imaginary parts are zero) agrees within 1e-15
    # per cell, the two products rounding apart only in the last digits.
    for name in ("product complex spinor", "band complex"):
        state = _band_starts(hadamard, m)[name]
        blocks = dataclasses.replace(state.blocks, real_weights=None)
        as_complex_product = dataclasses.replace(state, blocks=blocks)
        for view, cplx in zip(trajectory(state, 40), trajectory(as_complex_product, 40)):
            assert (view.engine()["kernel"], cplx.engine()["kernel"]) == ("real", "complex")
            assert np.max(np.abs(view.dense() - cplx.dense())) <= 1e-15, (name, view.n)


def test_dtype_and_sublattices_follow_the_inputs(hadamard, complex_coin):
    starts = _band_starts(hadamard, 3)
    assert starts["product"].dense().dtype == np.float64
    assert starts["mixed"].dense().dtype == np.float64
    assert starts["band"].dense().dtype == np.float64
    assert starts["product complex spinor"].dense().dtype == np.complex128
    assert starts["band complex"].dense().dtype == np.complex128
    assert all(st.dense().dtype == np.complex128 for st in _band_starts(complex_coin, 3).values())
    assert starts["product"].sublattices == (0,)
    assert starts["mixed"].sublattices == (0,)
    assert starts["band"].sublattices == (0, 1)
    odd_rows = np.zeros((3, 4))
    odd_rows[0] = [1.0, 0.0, 0.0, 0.0]  # v = -1 only
    assert init_band_vector(hadamard, odd_rows, 3, 4).sublattices == (1,)
    state = evolve(starts["product"], 5)
    # The accessors stay complex whatever the engine's dtype.
    assert measure(state).values.dtype == np.complex128
    assert band_field(state)["value"].dtype == np.complex128
    # Exact zeros are dropped too: with Hg = (1, 0) the right edge stays empty.
    nonzero_u = np.flatnonzero(np.any(state.dense() != 0, axis=(0, 1))) - state.center
    assert state.engine() == {
        "dtype": "float64",
        "kernel": "real",
        "sublattices": [0],
        "live_u": [int(nonzero_u[0]), int(nonzero_u[-1])],
    }


def test_trajectory_swaps_two_buffers(hadamard):
    state = init_product(hadamard, PLUS, 2, 30)
    buffers = {id(st.packed) for st in trajectory(state, 30)}
    assert len(buffers) == 2 and id(state.packed) not in buffers


def test_step_into_spent_buffer_clears_stale_columns(hadamard):
    # A spent state whose live window is wider than the new one: the
    # columns it alone covers must read zero after the step.
    x = init_product(hadamard, PLUS, 4, 30)
    spent = evolve(x, 9)
    src = evolve(x, 10)
    c = src.center
    field = np.zeros_like(src.dense())
    field[:, :, c - 3 : c + 4] = src.dense()[:, :, c - 3 : c + 4]
    narrow = pack(dataclasses.replace(src, packed=np.empty_like(src.packed), live=(c - 3, c + 4)), field)
    fresh = step(narrow)
    reused = step(narrow, out=spent)
    assert reused.packed is spent.packed
    assert reused.live == fresh.live == (c - 4, c + 5)
    assert np.array_equal(reused.packed, fresh.packed)
    assert np.array_equal(reused.dense(), fresh.dense())


def test_step_rejects_a_wrong_spent_state(hadamard, complex_coin):
    # Only the state one step back, on its own buffer of the same dtype and
    # shape, has its live cells where the kernel writes.
    x = init_product(hadamard, PLUS, 4, 30)
    state = evolve(x, 10)
    wrong = {
        "same parity": evolve(x, 8),
        "newer": evolve(x, 11),
        "itself": state,
        "complex": evolve(init_product(complex_coin, PLUS, 4, 30), 9),
        "narrower": evolve(init_product(hadamard, PLUS, 4, 20), 9),
    }
    for name, out in wrong.items():
        with pytest.raises(ValueError, match="one step before"):
            step(state, out=out)
    assert step(state, out=evolve(x, 9)).n == 11


def test_non_finite_edge_column_survives_trajectory(hadamard):
    # A column of sub-tiny values that also holds a NaN (or an inf) must
    # not be dropped as if it were an underflowed tail.
    for bad in (math.nan, math.inf):
        state = evolve(init_product(hadamard, PLUS, 2, 80), 20)
        lo, hi = state.live
        field = state.dense()
        live = live_mask(state)[:, lo]  # the rows live in column lo
        field[:, live, lo] = 1e-310
        field[LL, live, lo] = bad
        pack(state, field)
        with np.errstate(invalid="ignore"):
            final = evolve(state, 40)
        assert not np.all(np.isfinite(final.dense()))
        assert not np.all(np.isfinite(measure(final).values))
        assert final.live[0] <= lo - 40


def test_window_drop_bound_against_dense_oracle(hadamard, monkeypatch):
    # At M = 2 the lone edge path carries 2^-n, which is subnormal from
    # n = 1022 on; the window drops those columns, the reference keeps
    # them.  The reference is the same kernel with the drop switched off,
    # so the bound measures the drop alone and not the kernel's rounding,
    # which the dense oracle bounds at 1e-14 in the tests above.
    n = 1600
    state = init_product(hadamard, PLUS, 2, n)
    for got in trajectory(state, n):
        lo, hi = got.live  # everything outside the live window reads zero
        field = got.dense()
        assert not np.any(field[:, :, :lo]) and not np.any(field[:, :, hi:])
    assert got.center - n < lo and hi < got.center + n + 1
    monkeypatch.setattr(walker, "_droppable", lambda column, tiny: False)
    kept = evolve(state, n)
    assert kept.live == (kept.center - n, kept.center + n + 1)
    field = kept.dense()
    subnormal = (field != 0) & (np.abs(field) < np.finfo(float).tiny)
    assert np.count_nonzero(subnormal) > 100
    diff = np.max(np.abs(measure(got).values - measure(kept).values))
    assert diff <= 1e-300


def test_trajectory_yields_each_step(hadamard):
    state = init_product(hadamard, PLUS, 4, 9)
    items = [(s.n, s.dense()) for s in trajectory(state, 9)]
    assert [n for n, _ in items] == list(range(1, 10))
    assert np.array_equal(items[-1][1], evolve(state, 9).dense())
    assert np.array_equal(items[3][1], evolve(state, 4).dense())
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
    from stripewalk.limits import limit_coefficients

    calls = (
        lambda: init_product(hadamard, bad, 2, 4),
        lambda: qw1d_reference(hadamard, bad, 3),
        lambda: oqrw_reference(hadamard, bad, 3),
        lambda: oracle_series(hadamard, bad, 3),
        lambda: limit_coefficients(bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unit"):
            call()


def test_measure_initial_point_mass(hadamard):
    mu = measure(init_product(hadamard, PLUS, 2, 3))
    assert mu.values[mu.n] == 1.0
    assert abs(mu.total() - 1.0) < 1e-15


def test_measure_sum_conserved_small(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        for m in (1, 2, 3, 5):
            state = init_product(coin, PLUS, m, 120)
            for _ in range(120):
                state = step(state)
                assert abs(measure(state).total() - 1.0) < 1e-10


def test_measure_goes_negative_past_onset(hadamard):
    state = evolve(init_product(hadamard, PLUS, 2, 100), 100)
    assert measure(state).values.real.min() < 0.0


def test_support_confined_to_light_cone(hadamard):
    state = init_product(hadamard, PLUS, 5, 20)
    for _ in range(12):
        state = step(state)
        c, n, field = state.center, state.n, state.dense()
        assert np.max(np.abs(field[:, :, : c - n])) == 0.0
        assert np.max(np.abs(field[:, :, c + n + 1 :])) == 0.0


def test_parity_zeros(hadamard):
    state = init_product(hadamard, LEFT, 3, 30)
    for _ in range(30):
        state = step(state)
        mu = measure(state)
        odd = (mu.positions() + state.n) % 2 == 1
        assert np.max(np.abs(mu.values[odd])) == 0.0


def test_norm_monotone_and_flat_before_boundary(hadamard):
    state = init_product(hadamard, LEFT, 7, 20)
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
    ea = evolve(init_band_vector(coin, a, 3, 6), 6)
    eb = evolve(init_band_vector(coin, b, 3, 6), 6)
    eab = evolve(init_band_vector(coin, alpha * a + beta * b, 3, 6), 6)
    assert np.max(np.abs(eab.dense() - (alpha * ea.dense() + beta * eb.dense()))) < 1e-12


def test_band_field_matches_measure_on_diagonal(hadamard):
    state = evolve(init_product(hadamard, LEFT, 3, 8), 7)
    field = band_field(state)
    diagonal = field[field["x"] == field["y"]]
    mu = measure(state)
    assert diagonal["x"].tolist() == mu.positions().tolist()
    for x, value in zip(diagonal["x"].tolist(), diagonal["value"].tolist()):
        assert value == mu.values[x + mu.n]


def test_band_field_m1_diagonal_only(hadamard):
    state = evolve(init_product(hadamard, PLUS, 1, 10), 9)
    field = band_field(state)
    assert np.array_equal(field["x"], field["y"])


def test_band_field_vanishes_at_far_boundary(hadamard):
    # Light cone reaches rows +-100 at n = 100 with one lone path of
    # weight 2^-100; everything on the boundary rows is below 1e-12.
    state = evolve(init_product(hadamard, PLUS, 201, 102), 100)
    field = state.dense()
    assert np.max(np.abs(field[:, [0, -1]])) < 1e-12  # rows v = -100 and 100


def test_odd_width_measure_exactly_real(hadamard, complex_coin):
    for coin in (hadamard, complex_coin):
        state = init_product(coin, PLUS, 5, 60)
        for _ in range(60):
            state = step(state)
            assert measure(state).max_abs_imag() <= 1e-12


def test_even_width_imag_reported_not_asserted(complex_coin):
    # Asymmetric stripes may carry imaginary residue; it is recorded.
    state = evolve(init_product(complex_coin, PLUS, 2, 40), 40)
    imag = measure(state).max_abs_imag()
    assert np.isfinite(imag)


def test_m1_measure_probability(hadamard):
    state = init_product(hadamard, PLUS, 1, 200)
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
    state = init_product(hadamard, LEFT, 2 * n + 1, n)
    for j in range(1, n + 1):
        state = step(state)
        got = measure(state).values
        assert np.max(np.abs(got - qw1d_reference(hadamard, LEFT, j))) < 1e-12


def test_width_one_matches_oqrw(hadamard):
    n = 100
    state = init_product(hadamard, PLUS, 1, n)
    for j in range(1, n + 1):
        state = step(state)
        got = measure(state).values
        assert np.max(np.abs(got - oqrw_reference(hadamard, PLUS, j))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(unit_spinor_strategy())
def test_measure_sum_one_random_spinors(g):
    coin = make_hadamard()
    state = evolve(init_product(coin, g, 2, 40), 40)
    assert abs(measure(state).total() - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    unitary_coin_strategy(),
    unit_spinor_strategy(),
    st.integers(min_value=1, max_value=7),
)
def test_measure_sum_one_any_coin_stripe(coin, g, m):
    state = evolve(init_product(coin, g, m, 25), 25)
    assert abs(measure(state).total() - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(unitary_coin_strategy(), unit_spinor_strategy())
def test_qw1d_normalized_any_coin(coin, g):
    probs = qw1d_reference(coin, g, 30)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs.min() >= 0.0
