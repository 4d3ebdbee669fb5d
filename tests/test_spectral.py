import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unitary_coin_strategy
from stripewalk import evolve, init_band_vector, init_product, make_coin, measure, stripe_for_width
from stripewalk import spectral
from stripewalk.spectral import (
    apply_power,
    build_w,
    cardano_lambda1_j0,
    cardano_lambda2_j0,
    char_function,
    char_poly_residual,
    cubic_roots,
    cubic_spectrum_m2,
    delta_of_k,
    eig,
    eig_multiplicities,
    k_of_delta,
    kato_reduction,
    lambda1_expansion,
    lambda2_expansion,
    minimal_poly_residual,
    minimality_witness,
    perturbed_projection_check,
    reflection,
    snapshot_measure,
    spectral_projections,
    spectrum_grid,
    t1_matrix,
    v_block,
    w_stack,
)

S2, S3, S7 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(7.0)

# The explicit half-integer operator at zero momentum, width 2.
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

# Its eigenvalue multiset.  The quadratic factor 2 L^2 + L + 1 of the
# minimal polynomial has roots (-1 +- i sqrt7)/4.
W0_EIGENVALUES = np.array(
    [0, 0, 1, 1, 1, -0.5, (-1 + 1j * S7) / 4, (-1 - 1j * S7) / 4]
)

PI_EXPECTED = (1.0 / 12.0) * np.array(
    [
        [7, 0, 2, 5, 1, 2, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [2, 0, 4, -2, 2, 4, 0, -2],
        [5, 0, -2, 7, -1, -2, 0, 1],
        [1, 0, 2, -1, 7, 2, 0, 5],
        [2, 0, 4, -2, 2, 4, 0, -2],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 0, -2, 1, 5, -2, 0, 7],
    ],
    dtype=complex,
)

R_EXPECTED = (-1j / 6.0) * np.array(
    [
        [1, 0, 1, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [0, 0, 1, -1, 0, 1, 0, -1],
        [1, 0, 1, 0, 1, 1, 0, 0],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 1, 0, -1],
    ],
    dtype=complex,
)


def _multiset_distance(got, expected):
    """Greedy nearest-matching distance between equal-size multisets."""
    got = list(np.asarray(got, dtype=complex))
    worst = 0.0
    for z in expected:
        i = int(np.argmin(np.abs(np.array(got) - z)))
        worst = max(worst, abs(got[i] - z))
        got.pop(i)
    return worst


def test_w_matches_explicit_matrix(hadamard):
    w = build_w(hadamard, -1, 0, 0.0)
    assert np.max(np.abs(w.matrix - W0_EXPECTED)) < 1e-15
    # Width-2 stripes share the matrix regardless of placement.
    w2 = build_w(hadamard, 0, 1, 0.0)
    assert np.array_equal(w.matrix, w2.matrix)


def test_w_width_one_is_v_block(hadamard):
    from stripewalk.coin import blocks

    for k in (0.0, 0.7, 2.5):
        w = build_w(hadamard, 0, 0, k)
        assert np.allclose(w.matrix, v_block(blocks(hadamard), k), atol=1e-15)


def test_w_contraction_norm(hadamard):
    for k in np.linspace(0, 2 * math.pi, 9):
        assert np.linalg.norm(build_w(hadamard, -1, 0, k).matrix, 2) <= 1 + 1e-12
        assert np.linalg.norm(build_w(hadamard, -2, 1, k).matrix, 2) <= 1 + 1e-12


def test_w_conjugation_symmetry(hadamard):
    for k in (0.3, 1.1, 2.0):
        a = build_w(hadamard, -1, 0, k).matrix
        b = build_w(hadamard, -1, 0, 2 * math.pi - k).matrix
        assert np.max(np.abs(b - a.conj())) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_reflection_conjugates_w_for_any_coin(phased_coin, m):
    # W(-k) = Pi conj(W(k)) Pi^T, Pi reversing the blocks and swapping
    # LR <-> RL inside each; conj alone does not do it for this coin.
    s, t = stripe_for_width(m)
    ks = np.array([0.0, 0.3, 1.1, 2.0, math.pi, 4.4])
    w, w_neg = w_stack(phased_coin, s, t, ks), w_stack(phased_coin, s, t, -ks)
    p = reflection(m)
    assert sorted(p) == list(range(4 * m))
    assert np.max(np.abs(w.conj()[:, p][:, :, p] - w_neg)) < 1e-15
    if m > 1:
        assert np.max(np.abs(w.conj() - w_neg)) > 0.1


def test_w_stack_rows_are_build_w(phased_coin):
    ks = [0.0, 0.7, 2.5, 5.9]
    stack = w_stack(phased_coin, -1, 1, ks)
    assert stack.shape == (4, 12, 12)
    for k, w in zip(ks, stack):
        assert np.array_equal(w, build_w(phased_coin, -1, 1, k).matrix)


def _corrupt_eig(monkeypatch, index, value):
    """Make np.linalg.eig return a wrong first eigenvector for stack entry ``index``."""
    solve = np.linalg.eig

    def corrupted(mats):
        values, vectors = solve(mats)
        vectors[index, :, 0] = value
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", corrupted)


def test_residual_check_covers_mirrored_rows(phased_coin, monkeypatch):
    # A bad eigenvector at k_1 fails at k_1 and at its mirror k_{K-1},
    # whose pair is derived from it and checked against W(k_{K-1}).
    kgrid = 16
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    _corrupt_eig(monkeypatch, 1, 0.5)
    with pytest.raises(RuntimeError, match="eigenpair residual") as exc:
        spectrum_grid(phased_coin, -1, 1, kgrid)
    assert str(exc.value).endswith(f"k = {ks[[1, kgrid - 1]].tolist()}")


def test_residual_check_catches_a_wrong_mirror(phased_coin, monkeypatch):
    # With the reflection replaced by the identity, every solved pair is
    # right and every mirrored one is wrong: only k > pi may fail.
    kgrid = 8
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    monkeypatch.setattr(spectral, "reflection", lambda m: np.arange(4 * m))
    with pytest.raises(RuntimeError, match="eigenpair residual") as exc:
        spectrum_grid(phased_coin, -1, 1, kgrid)
    assert str(exc.value).endswith(f"k = {ks[kgrid // 2 + 1:][::-1].tolist()}")


def test_residual_check_catches_nan(phased_coin, monkeypatch):
    _corrupt_eig(monkeypatch, 0, np.nan)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        eig(build_w(phased_coin, -1, 1, 0.4))


def test_spectrum_grid_size_limit_before_allocation(hadamard, monkeypatch):
    def no_stack(*args):
        raise AssertionError("a W stack was built")

    monkeypatch.setattr(spectral, "_w_stack", no_stack)
    with pytest.raises(ValueError, match="matrix size 280 exceeds limit 256"):
        spectrum_grid(hadamard, -35, 34, 1024)


def test_eigenvalues_at_zero_momentum(hadamard):
    res = eig(build_w(hadamard, -1, 0, 0.0))
    assert _multiset_distance(res.values, W0_EIGENVALUES) < 1e-10


def test_eig_width_one(hadamard):
    for k in (0.0, 0.9, 2.2):
        res = eig(build_w(hadamard, 0, 0, k))
        assert _multiset_distance(res.values, [0, 0, 0, math.cos(k)]) < 1e-12


def test_eig_size_limit(hadamard):
    with pytest.raises(ValueError, match="limit"):
        eig(build_w(hadamard, -70, 70, 0.0))


def test_eig_multiplicity_clusters(hadamard):
    res = eig(build_w(hadamard, -1, 0, 0.0))
    clusters = dict()
    for center, mult in eig_multiplicities(res.values, tol=1e-8):
        clusters[complex(np.round(center, 6))] = mult
    assert clusters[1.0 + 0j] == 3
    assert clusters[0j] == 2
    assert clusters[-0.5 + 0j] == 1


def test_eig_reconstruction(hadamard):
    w = build_w(hadamard, -1, 0, 0.7)
    res = eig(w)
    recon = res.vectors @ np.diag(res.values) @ np.linalg.inv(res.vectors)
    assert np.max(np.abs(recon - w.matrix)) < 1e-8


def test_cubic_solver_residuals():
    coeffs = [2.0, 1.0 - 2.0, 0.0, -1.0]
    for root in cubic_roots(coeffs):
        assert abs(np.polyval(coeffs, root)) < 1e-10


def test_cubic_factorizations_at_zero():
    first, second = cubic_spectrum_m2(0.0)
    assert _multiset_distance(first, [1, (-1 + 1j * S7) / 4, (-1 - 1j * S7) / 4]) < 1e-10
    # Double root at 1 limits attainable accuracy to ~sqrt(eps).
    assert _multiset_distance(second, [1, 1, -0.5]) < 1e-7


def test_cubic_union_matches_spectrum(hadamard):
    for k in np.linspace(0, 2 * math.pi, 17):
        first, second = cubic_spectrum_m2(k)
        expected = np.concatenate([first, second, [0, 0]])
        res = eig(build_w(hadamard, -1, 0, k))
        assert _multiset_distance(res.values, expected) < 1e-8


def test_expansions_at_zero():
    assert lambda1_expansion(0.0) == 1.0
    assert lambda2_expansion(0.0) == (1.0, 1.0)


def test_delta_parametrization():
    for d in (0.05, 0.2):
        assert abs(delta_of_k(k_of_delta(d)) - d) < 1e-14


def test_expansion_errors_decay_cubically():
    # Halving k must shrink the prediction error by >= 6 (cubic or better).
    for k in (1e-1, 1e-2):
        f1, s1 = cubic_spectrum_m2(k)
        f2, s2 = cubic_spectrum_m2(k / 2)
        e1 = np.min(np.abs(f1 - lambda1_expansion(k)))
        e2 = np.min(np.abs(f2 - lambda1_expansion(k / 2)))
        assert e1 / e2 >= 6.0
        for idx in (0, 1):
            p1 = lambda2_expansion(k)[idx]
            p2 = lambda2_expansion(k / 2)[idx]
            assert np.min(np.abs(s1 - p1)) / np.min(np.abs(s2 - p2)) >= 6.0


def test_dominant_root_power_limit():
    # (lambda_1(k / sqrt n))^n approaches exp(-k^2 / 4).
    n, k = 10**4, 1.0
    first, _ = cubic_spectrum_m2(k / math.sqrt(n))
    lam1 = first[np.argmin(np.abs(first - 1.0))]
    assert abs(lam1**n - math.exp(-0.25)) < 5e-3


def test_cardano_branch_cross_check():
    for k in np.linspace(0.0, 1.5, 7):
        first, second = cubic_spectrum_m2(k)
        c1 = cardano_lambda1_j0(k)
        c2 = cardano_lambda2_j0(k)
        assert np.min(np.abs(first - c1)) < 1e-8
        assert np.min(np.abs(second - c2)) < 1e-8


def test_kato_projection_matches_explicit(hadamard):
    red = kato_reduction(hadamard, -1, 0)
    assert np.max(np.abs(red.pi - PI_EXPECTED)) < 1e-14
    assert np.max(np.abs(red.pi @ red.pi - red.pi)) < 1e-14
    assert np.max(np.abs(red.pi - red.pi.conj().T)) < 1e-14
    assert abs(np.trace(red.pi).real - 3.0) < 1e-12


def test_kato_reduced_generator(hadamard):
    red = kato_reduction(hadamard, -1, 0)
    assert np.max(np.abs(red.r - R_EXPECTED)) < 1e-14
    assert np.max(np.abs(red.r + red.r.conj().T)) < 1e-14


def test_kato_eigenpairs(hadamard):
    red = kato_reduction(hadamard, -1, 0)
    expected = [0.0, 1j / S3, -1j / S3]
    for lam, v in zip(expected, red.vectors):
        assert np.linalg.norm(red.r @ v - lam * v) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        assert np.linalg.norm(red.pi @ v - v) < 1e-12
    gram = red.vectors.conj() @ red.vectors.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    # On the range of the projection the three eigenvalues are simple.
    small = red.onb.conj() @ red.r @ red.onb.T
    vals = np.linalg.eigvals(small)
    assert _multiset_distance(vals, expected) < 1e-12


def test_kato_vector_normalizations(hadamard):
    # 12 (2 - sqrt3) = 2 (3 - sqrt3)^2, so both published normalizations
    # of the right-moving eigenvector agree.
    assert abs(12 * (2 - S3) - 2 * (3 - S3) ** 2) < 1e-12
    red = kato_reduction(hadamard, -1, 0)
    alt = np.array([2 - S3, 0, 1 - S3, 1, 2 - S3, 1 - S3, 0, 1]) / math.sqrt(
        12 * (2 - S3)
    )
    assert np.max(np.abs(red.v2 - alt)) < 1e-14
    v1_expected = 0.5 * np.array([1, 0, 0, 1, -1, 0, 0, -1])
    assert np.max(np.abs(red.v1 - v1_expected)) < 1e-15


def test_kato_commutes_with_w(hadamard):
    red = kato_reduction(hadamard, -1, 0)
    w = build_w(hadamard, -1, 0, 0.0).matrix
    assert np.max(np.abs(red.pi @ w - w @ red.pi)) < 1e-14
    assert np.max(np.abs(red.t1 - t1_matrix(hadamard, 2))) == 0.0


def test_initial_state_decomposition(hadamard):
    # The uniform half cell decomposes against the orthonormal basis with
    # inner products (0, 1/(2 sqrt3), 1/sqrt2) and the displayed remainder.
    red = kato_reduction(hadamard, -1, 0)
    phi0 = np.array([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0], dtype=complex)
    dots = [np.vdot(p, phi0) for p in red.onb]
    assert abs(dots[0] - 0.0) < 1e-15
    assert abs(dots[1] - 1 / (2 * S3)) < 1e-15
    assert abs(dots[2] - 1 / S2) < 1e-15
    remainder = phi0 - dots[1] * red.onb[1] - dots[2] * red.onb[2]
    expected = np.array(
        [-1 / 12, 1 / 2, 1 / 3, 1 / 12, -1 / 12, -1 / 6, 0, 1 / 12]
    )
    assert np.max(np.abs(remainder - expected)) < 1e-14


def test_minimal_polynomial(hadamard):
    assert minimal_poly_residual(hadamard, -1, 0) < 1e-12
    assert char_poly_residual(hadamard, -1, 0) < 1e-12
    assert minimality_witness(hadamard, -1, 0) >= 0.1


def test_derivative_consistency(hadamard):
    t1 = t1_matrix(hadamard, 2)
    for h in (1e-3, 1e-4):
        fd = (
            build_w(hadamard, -1, 0, h).matrix
            - build_w(hadamard, -1, 0, -h).matrix
        ) / (2 * h)
        assert np.max(np.abs(t1 - fd)) < 0.2 * h * h


def test_perturbed_projections_decay(hadamard):
    residuals = {}
    for d in (1e-1, 1e-2, 1e-3):
        rep = perturbed_projection_check(d, hadamard, -1, 0)
        residuals[d] = rep["residuals"]
        assert len(rep["residuals"]) == 3
    assert max(residuals[1e-2]) < 5e-2
    for j in range(3):
        assert residuals[1e-2][j] < residuals[1e-1][j]
        assert residuals[1e-3][j] < residuals[1e-2][j]


def test_perturbed_projection_zero_delta(hadamard):
    rep = perturbed_projection_check(0.0, hadamard, -1, 0)
    assert rep["residuals"] == [0.0, 0.0, 0.0]


def test_perturbed_projection_range_validation(hadamard):
    with pytest.raises(ValueError):
        perturbed_projection_check(0.5, hadamard, -1, 0)


def test_perturbed_projection_ambiguity_reported(hadamard):
    # At tiny delta the three near-unit eigenvalues crowd within the
    # matching tolerance of each prediction.
    with pytest.raises(RuntimeError, match="ambiguous"):
        perturbed_projection_check(1e-7, hadamard, -1, 0)


def test_spectral_projections_resolution(hadamard):
    w = build_w(hadamard, -1, 0, 0.7)
    values, projections = spectral_projections(w)
    total = sum(projections)
    assert np.max(np.abs(total - np.eye(8))) < 1e-10
    for i, p in enumerate(projections):
        assert np.max(np.abs(p @ p - p)) < 1e-9
        recon = sum(v * q for v, q in zip(values, projections))
    assert np.max(np.abs(recon - w.matrix)) < 1e-9


def test_char_function_matches_engine(hadamard):
    ks = 2 * math.pi * np.arange(16) / 16
    for m, (s, t) in ((1, (0, 0)), (2, (-1, 0)), (3, (-1, 1))):
        for g in (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / S2):
            n = 30
            state = evolve(init_product(hadamard, g, s, t, n), n)
            mu = measure(state)
            xs = mu.positions()
            engine = np.array(
                [np.sum(mu.values * np.exp(1j * k * xs)) for k in ks]
            )
            matrix = char_function(hadamard, s, t, n, ks, g)
            assert np.max(np.abs(engine - matrix)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(unitary_coin_strategy(), st.floats(min_value=0.0, max_value=2 * math.pi))
def test_w_contraction_any_coin(coin, k):
    # Compressions of a unitary stay contractions for every coin.
    assert np.linalg.norm(build_w(coin, -1, 1, k).matrix, 2) <= 1 + 1e-12


def test_general_coin_reduction_fallback():
    coin = make_coin(0.6, 0.8, 0.8, -0.6)
    red = kato_reduction(coin, -1, 0)
    assert abs(np.trace(red.pi).real - 3.0) < 1e-8
    assert np.max(np.abs(red.r + red.r.conj().T)) < 1e-10
    vals = sorted(red.eigenvalues, key=lambda z: z.imag)
    assert abs(vals[1]) < 1e-8
    assert abs(vals[0] + vals[2]) < 1e-8  # conjugate imaginary pair
    assert vals[2].imag > 0.1


def test_apply_power_is_matrix_power(phased_coin):
    w = w_stack(phased_coin, -1, 1, [0.0, 0.4, 3.0])
    x = np.arange(24.0).reshape(12, 2) + 1j
    for n in (0, 1, 2, 5, 64, 77):
        want = np.linalg.matrix_power(w, n) @ x
        assert np.max(np.abs(apply_power(w, n, x) - want)) < 1e-13
    with pytest.raises(ValueError, match="non-negative"):
        apply_power(w, -1, x)


#: Largest cross-checked time per width; the real-space runs take about 2 s in all.
SNAPSHOT_N = {1: 2000, 2: 1200, 3: 600, 10: 250}


def _snapshot_starts(coin, m):
    """Initial states covering both dtypes, one and two sublattices."""
    s, t = stripe_for_width(m)
    mixed = np.zeros((m, 4))
    mixed[-s] = [0.5, 0.0, 0.0, 0.5]
    rng = np.random.default_rng(m)
    band = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
    band /= np.linalg.norm(band)
    return {
        "real spinor": init_product(coin, np.array([0.6, 0.8]), s, t, SNAPSHOT_N[m]),
        "complex spinor": init_product(coin, np.array([1.0, 1j]) / S2, s, t, SNAPSHOT_N[m]),
        "mixed": init_band_vector(coin, mixed, s, t, SNAPSHOT_N[m]),
        "band": init_band_vector(coin, band, s, t, SNAPSHOT_N[m]),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 10])
@pytest.mark.parametrize("coin_name", ["hadamard", "phased_coin"])
def test_snapshot_measure_matches_real_space_engine(request, coin_name, m):
    coin = request.getfixturevalue(coin_name)
    for name, state in _snapshot_starts(coin, m).items():
        if name == "band" and m > 1:
            assert state.sublattices == (0, 1)
        for n in (0, 1, SNAPSHOT_N[m]):
            want = measure(evolve(state, n))
            got = snapshot_measure(state, n)
            assert got.n == n and got.values.shape == want.values.shape
            assert np.max(np.abs(got.values - want.values)) <= 1e-12, (name, n)
            if len(state.sublattices) == 1:
                # Cells with x + n off the state's sublattice are exactly 0.
                off = got.values[(state.sublattices[0] + 1) % 2 :: 2]
                assert not np.any(off), (name, n)
            if state.amps.dtype.kind == "f":
                assert got.max_abs_imag() == 0.0, (name, n)
            elif m % 2 == 1 and name != "band":
                assert got.max_abs_imag() <= 1e-12, (name, n)


def test_snapshot_measure_needs_the_initial_state(hadamard):
    state = init_product(hadamard, np.array([1.0, 0.0]), -1, 0, 4)
    with pytest.raises(ValueError, match="initial state"):
        snapshot_measure(evolve(state, 1), 3)
    with pytest.raises(ValueError, match="non-negative"):
        snapshot_measure(state, -1)


@pytest.mark.parametrize("sublattices, columns, needle", [(1, [0, 1], "off-sublattice"), (2, [0], "Im mu")])
def test_snapshot_measure_rejects_a_wrong_chi_off_k0(hadamard, monkeypatch, sublattices, columns, needle):
    # A chi that is wrong only at k_1 leaves sum mu_n = chi(0) alone; the
    # off-sublattice cells or, with the mirror half untouched, the
    # imaginary part of a real start show it.
    power = spectral.apply_power

    def corrupted(w, n, x):
        y = power(w, n, x).copy()
        y[1, :, columns] *= 1.0 + 1e-6
        return y

    if sublattices == 1:
        state = init_product(hadamard, np.array([0.6, 0.8]), -1, 0, 200)
    else:
        band = np.random.default_rng(2).normal(size=(2, 4))
        state = init_band_vector(hadamard, band / np.linalg.norm(band), -1, 0, 200)
    assert len(state.sublattices) == sublattices and state.amps.dtype.kind == "f"
    assert np.max(np.abs(snapshot_measure(state, 200).values - measure(evolve(state, 200)).values)) <= 1e-12
    monkeypatch.setattr(spectral, "apply_power", corrupted)
    with pytest.raises(RuntimeError, match=needle):
        snapshot_measure(state, 200)
