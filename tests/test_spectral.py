import ast
import functools
import importlib
import inspect
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unitary_coin_strategy
from stripewalk import blocks, evolve, init_band_vector, init_product, make_coin, measure
from stripewalk import spectral
from stripewalk.cli import EIG_RESIDUAL_TOL, MATCH_AMBIGUITY_TOL, SNAPSHOT_RESIDUE_TOL
from stripewalk.spectral import (
    apply_power,
    eig,
    first_order_match,
    kato_reduction,
    real_gauge,
    reflection,
    shift_signs,
    snapshot_measure,
    spectrum_grid,
    split_basis,
    start_vector,
    t1_matrix,
    v_block,
    w_stack,
)

from conftest import unit_spinor_strategy
from oracles import (
    CENTER_VARIANCE,
    KATO_BASIS,
    KATO_PI,
    KATO_R,
    KATO_VECTORS,
    SIDE_VARIANCE,
    SIDE_VARIANCE_CUMULANT,
    SPEED,
    cardano_lambda1_j0,
    cardano_lambda2_j0,
    char_function,
    cubic_roots,
    cubic_spectrum_m2,
    delta_of_k,
    eig_multiplicities,
    k_of_delta,
    lambda1_expansion,
    lambda2_expansion,
    limit_coefficients,
    oqrw_limit,
    perturbed_projection_check,
    poly_residuals,
)

S2, S3, S7 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(7.0)
#: The 0.6/0.8i coin, whose entries are all nonzero and not all real.
COIN_68 = make_coin(0.6, 0.8j, 0.8j, 0.6)

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

def _multiset_distance(got, expected):
    """Greedy nearest-matching distance between equal-size multisets."""
    got = list(np.asarray(got, dtype=complex))
    worst = 0.0
    for z in expected:
        i = int(np.argmin(np.abs(np.array(got) - z)))
        worst = max(worst, abs(got[i] - z))
        got.pop(i)
    return worst


def _w(coin, m, k):
    """W(k) alone: the one-k stack."""
    return w_stack(blocks(coin), m, [k])[0]


def test_w_matches_explicit_matrix(hadamard):
    w = _w(hadamard, 2, 0.0)
    assert np.max(np.abs(w - W0_EXPECTED)) < 1e-15


def test_w_width_one_is_v_block(hadamard):
    for k in (0.0, 0.7, 2.5):
        assert np.allclose(_w(hadamard, 1, k), v_block(blocks(hadamard), k), atol=1e-15)


def test_w_contraction_norm(hadamard):
    for k in np.linspace(0, 2 * math.pi, 9):
        assert np.linalg.norm(_w(hadamard, 2, k), 2) <= 1 + 1e-12
        assert np.linalg.norm(_w(hadamard, 4, k), 2) <= 1 + 1e-12


def test_w_conjugation_symmetry(hadamard):
    for k in (0.3, 1.1, 2.0):
        a = _w(hadamard, 2, k)
        b = _w(hadamard, 2, 2 * math.pi - k)
        assert np.max(np.abs(b - a.conj())) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_reflection_conjugates_w_for_any_coin(phased_coin, m):
    # W(-k) = Pi conj(W(k)) Pi^T, Pi reversing the blocks and swapping
    # LR <-> RL inside each; conj alone does not do it for this coin.
    b = blocks(phased_coin)
    ks = np.array([0.0, 0.3, 1.1, 2.0, math.pi, 4.4])
    w, w_neg = w_stack(b, m, ks), w_stack(b, m, -ks)
    p = reflection(m)
    assert sorted(p) == list(range(4 * m))
    assert np.max(np.abs(w.conj()[:, p][:, :, p] - w_neg)) < 1e-15
    if m > 1:
        assert np.max(np.abs(w.conj() - w_neg)) > 0.1


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_shift_by_pi_negates_w_for_any_coin(phased_coin, m):
    # W(k + pi) = -D W(k) D, D = diag((-1)^v) per block; -W(k) alone
    # differs in the off-diagonal blocks whenever there are any.
    b = blocks(phased_coin)
    ks = np.array([0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.4])
    w, w_shift = w_stack(b, m, ks), w_stack(b, m, ks + math.pi)
    d = shift_signs(m)
    assert d.shape == (4 * m,) and np.array_equal(np.abs(d), np.ones(4 * m))
    assert np.max(np.abs(-d[:, None] * w * d - w_shift)) < 1e-15
    if m > 1:
        assert np.max(np.abs(-w - w_shift)) > 0.1


def test_shift_by_pi_maps_the_m2_cubics_onto_each_other():
    # k -> k + pi, lambda -> -lambda turns 2L^3 + (1 - 2 cos k) L^2 - 1
    # into 2L^3 - (1 + 2 cos k) L^2 + 1: the first cubic onto the second.
    for k in (0.0, 0.4, math.pi / 2, 2.3, math.pi, 5.1):
        first_shifted, _ = cubic_spectrum_m2(k + math.pi)
        _, second = cubic_spectrum_m2(k)
        assert _multiset_distance(first_shifted, -second) < 1e-12


def test_w_stack_rows_are_one_k_stacks(phased_coin):
    ks = [0.0, 0.7, 2.5, 5.9]
    stack = w_stack(blocks(phased_coin), 3, ks)
    assert stack.shape == (4, 12, 12)
    for k, w in zip(ks, stack):
        assert np.array_equal(w, _w(phased_coin, 3, k))


def _corrupt_eig(monkeypatch, index, value):
    """Make np.linalg.eig return a wrong first eigenvector for stack entry ``index``."""
    solve = np.linalg.eig

    def corrupted(mats):
        values, vectors = solve(mats)
        vectors[index, :, 0] = value
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", corrupted)


def _residual_rows(coin):
    """The grid rows of ``spectrum_grid(coin, 3, 16)`` whose eigenpair residual exceeds the bound."""
    _, _, residuals, _ = spectrum_grid(coin, 3, 16)
    return np.flatnonzero(~(residuals <= EIG_RESIDUAL_TOL)).tolist()


def test_residual_check_covers_mirrored_rows(phased_coin, monkeypatch):
    # A bad eigenvector at k_1 fails at k_1 and at its three images
    # k_{K-1}, k_{1+K/2} and k_{K/2-1}, whose pairs are derived from it
    # and measured against W at their own k.
    assert _residual_rows(phased_coin) == []
    _corrupt_eig(monkeypatch, 1, 0.5)
    assert _residual_rows(phased_coin) == [1, 7, 9, 15]


def test_residual_check_catches_a_wrong_mirror(phased_coin, monkeypatch):
    # With the reflection replaced by the identity, every solved pair and
    # every pure shift image is right, and every pair that went through
    # the reflection is wrong: the reflected rows 12..15 (of k_4..k_1) and
    # the shifted-and-reflected rows 5..7 (of k_3..k_1) fail.
    monkeypatch.setattr(spectral, "reflection", lambda m: np.arange(4 * m))
    assert _residual_rows(phased_coin) == [5, 6, 7, 12, 13, 14, 15]


def test_residual_check_catches_a_wrong_shift(phased_coin, monkeypatch):
    # With D replaced by the identity, exactly the rows whose pair went
    # through the shift fail: k_8 from k_0, and k_{i+8}, k_{8-i} from the
    # solved k_1..k_3 (k_4's shift image k_12 is its reflection).
    monkeypatch.setattr(spectral, "shift_signs", lambda m: np.ones(4 * m))
    assert _residual_rows(phased_coin) == list(range(5, 12))


def _orbit_count(kgrid):
    """Orbits of i -> -i and, for even kgrid, i -> i + kgrid/2 on Z_kgrid, by brute force."""
    shifts = {0, kgrid // 2} if kgrid % 2 == 0 else {0}
    return len({frozenset((sign * i + d) % kgrid for sign in (1, -1) for d in shifts) for i in range(kgrid)})


@pytest.mark.parametrize("kgrid", [2, 4, 6, 7, 16, 1024])
def test_spectrum_grid_solves_one_k_per_orbit(phased_coin, monkeypatch, kgrid):
    # Each solved momentum reaches LAPACK as two float64 blocks, of sizes
    # (2M, 2M) at even M and (2M + 1, 2M - 1) at odd M, one call per block.
    solve = np.linalg.eig
    calls = []

    def counting(mats):
        calls.append((mats.dtype, mats.shape))
        return solve(mats)

    monkeypatch.setattr(np.linalg, "eig", counting)
    for m in (10, 3):
        calls.clear()
        _, values, residuals, _ = spectrum_grid(phased_coin, m, kgrid)
        assert values.shape == (kgrid, 4 * m) and residuals.shape == (kgrid,)
        sizes = (2 * m, 2 * m) if m % 2 == 0 else (2 * m + 1, 2 * m - 1)
        plus, minus = calls[0::2], calls[1::2]
        assert len(plus) == len(minus)
        for (dtype_p, shape_p), (dtype_m, shape_m) in zip(plus, minus):
            assert dtype_p == dtype_m == np.float64
            assert shape_p == (shape_m[0], sizes[0], sizes[0])
            assert shape_m[1:] == (sizes[1], sizes[1])
        solved = sum(shape[0] for _, shape in plus)
        assert solved == _orbit_count(kgrid)
        if kgrid == 1024:
            assert solved == 257


def _haar_coin(variant):
    """The Haar coin of the benchmark's spectrum-grid variant, in the closed form of its draw."""
    rng = random.Random(f"stripewalk-bench:spectrum-grid:{variant}")
    cos_t = math.sqrt(rng.random())
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    alpha, psi, chi = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))

    def e(phi):
        return complex(math.cos(phi), math.sin(phi))

    return make_coin(
        e(alpha + psi) * cos_t, e(alpha + chi) * sin_t, -e(alpha - chi) * sin_t, e(alpha - psi) * cos_t
    )


def _gauge_coins(hadamard, phased_coin):
    """Hadamard, the phased coin, the 8 benchmark Haar coins, and a = 0 and b = 0 coins with phases."""
    anti = make_coin(0, np.exp(0.4j), np.exp(-1.3j), 0)
    diagonal = make_coin(np.exp(2.2j), 0, 0, np.exp(-0.7j))
    return [hadamard, phased_coin, *(_haar_coin(v) for v in range(8)), anti, diagonal]


#: The flip F of every row: LL <-> RR, and LR and RL negated.
FLIP = np.array([[0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]])


@pytest.mark.parametrize("m", [1, 2, 3, 10, 20])
def test_real_gauge_maps_every_coin_onto_its_real_coin(hadamard, phased_coin, m):
    # W_H(k) = T W_R(k) T^H, and the reflection Pi and the antiunitary
    # K = F conj commute with W_R(k) and with each other.
    ks = np.array([0.0, 0.3, 1.1, math.pi / 2, 2.0, math.pi, 4.4])
    p = reflection(m)
    flip = np.kron(np.eye(m), FLIP)
    assert np.array_equal(flip[p][:, p], flip)
    for coin in _gauge_coins(hadamard, phased_coin):
        gauge = real_gauge(coin)
        assert gauge.real.a == abs(coin.a) and gauge.real.matrix.imag.tolist() == [[0, 0], [0, 0]]
        w = w_stack(blocks(coin), m, ks)
        w_real = w_stack(blocks(gauge.real), m, ks)
        t = gauge.phases(m)
        assert np.max(np.abs(w - t[:, None] * w_real * t.conj())) <= 1e-13
        assert np.max(np.abs(w_real[:, p][:, :, p] - w_real)) <= 1e-15
        assert np.max(np.abs(flip @ w_real.conj() @ flip.T - w_real)) <= 1e-15
        # W(k) = W(0) diag(e^{-ik}, 1, 1, e^{ik}) per row, so ||W(k)||_2 is constant.
        cols = np.exp(1j * ks[:, None, None] * np.tile([-1, 0, 0, 1], m))
        assert np.max(np.abs(w - w[0] * cols)) <= 1e-15
    assert np.array_equal(real_gauge(hadamard).phases(m), np.ones(4 * m))


@pytest.mark.parametrize("m", [1, 2, 3, 10, 20])
def test_split_blocks_are_real(hadamard, phased_coin, m):
    # S+ and S- are orthonormal, together unitary, fixed by K and by +-Pi,
    # and the blocks S^H W_R(k) S are real.
    ks = np.array([0.0, 0.3, 1.1, 2.0, math.pi, 4.4])
    p = reflection(m)
    plus, minus = split_basis(m)
    sizes = (2 * m, 2 * m) if m % 2 == 0 else (2 * m + 1, 2 * m - 1)
    assert (plus.shape, minus.shape) == ((4 * m, sizes[0]), (4 * m, sizes[1]))
    both = np.concatenate([plus, minus], axis=1)
    assert np.max(np.abs(both.conj().T @ both - np.eye(4 * m))) <= 1e-15
    flip = np.kron(np.eye(m), FLIP)
    for s, sign in ((plus, 1), (minus, -1)):
        assert np.array_equal(s[p], sign * s)
        assert np.array_equal(flip @ s.conj(), s)
        entries = np.abs(s[s != 0])
        assert np.all(np.minimum(np.abs(entries - 0.5), np.abs(entries - math.sqrt(0.5))) <= 2e-16)
    for coin in _gauge_coins(hadamard, phased_coin):
        w_real = w_stack(blocks(real_gauge(coin).real), m, ks)
        for s in (plus, minus):
            assert np.max(np.abs((s.conj().T @ w_real @ s).imag)) <= 1e-15


def _eigvals_per_k(coin, m, kgrid):
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    return np.linalg.eigvals(w_stack(blocks(coin), m, ks))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 10])
def test_spectrum_grid_matches_brute_force(hadamard, phased_coin, m):
    # Every row, solved or derived, against eigvals of W(k) of the coin
    # itself, degenerate coins included.  Both grids leave k = pi/2 out: at
    # width 1 the Hadamard W(pi/2) is nilpotent with a Jordan block, where
    # eigvals scatters by about sqrt(eps) (6e-9); the next test pins it.
    for coin in _gauge_coins(hadamard, phased_coin):
        for kgrid in (7, 18):
            _, values, residuals, _ = spectrum_grid(coin, m, kgrid)
            assert np.max(residuals) <= EIG_RESIDUAL_TOL
            for got, want in zip(values, _eigvals_per_k(coin, m, kgrid)):
                assert _multiset_distance(got, want) <= 1e-12


def test_spectrum_grid_width_one_closed_form(hadamard):
    # At width 1 the Hadamard W(k) has eigenvalues 0, 0, 0 and cos k, all
    # four 0 at k = pi/2.
    ks, values, _, _ = spectrum_grid(hadamard, 1, 16)
    for k, got in zip(ks, values):
        assert _multiset_distance(got, [0, 0, 0, math.cos(k)]) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 10])
def test_spectrum_depends_on_the_modulus_of_a_only(phased_coin, m):
    # A coin with the same |a| and other phases, and the real coin itself,
    # give W(k) the same eigenvalues.
    c, s = 0.6, 0.8
    other = make_coin(c * np.exp(2.5j), s * np.exp(-0.2j), -s * np.exp(1.9j), c * np.exp(-0.8j))
    real = real_gauge(phased_coin).real
    assert abs(other.a) == pytest.approx(abs(phased_coin.a), abs=1e-15)
    base = _eigvals_per_k(phased_coin, m, 16)
    for coin in (other, real):
        for got, want in zip(_eigvals_per_k(coin, m, 16), base):
            assert _multiset_distance(got, want) <= 1e-12
        for got, want in zip(spectrum_grid(coin, m, 16)[1], base):
            assert _multiset_distance(got, want) <= 1e-12


def test_residual_check_catches_nan(phased_coin, monkeypatch):
    assert eig(_w(phased_coin, 3, 0.4))[2] <= EIG_RESIDUAL_TOL
    _corrupt_eig(monkeypatch, 0, np.nan)
    assert math.isnan(eig(_w(phased_coin, 3, 0.4))[2])


def test_spectrum_grid_size_limit_before_allocation(hadamard, monkeypatch):
    def no_stack(*args):
        raise AssertionError("a W stack was built")

    monkeypatch.setattr(spectral, "w_stack", no_stack)
    with pytest.raises(ValueError, match="matrix size 280 exceeds limit 256"):
        spectrum_grid(hadamard, 70, 1024)


def test_eigenvalues_at_zero_momentum(hadamard):
    values, _, _ = eig(_w(hadamard, 2, 0.0))
    assert _multiset_distance(values, W0_EIGENVALUES) < 1e-10


def test_eig_width_one(hadamard):
    for k in (0.0, 0.9, 2.2):
        values, _, _ = eig(_w(hadamard, 1, k))
        assert _multiset_distance(values, [0, 0, 0, math.cos(k)]) < 1e-12


def test_eig_size_limit(hadamard):
    with pytest.raises(ValueError, match="limit"):
        eig(_w(hadamard, 141, 0.0))


def test_eig_multiplicity_clusters(hadamard):
    values, _, _ = eig(_w(hadamard, 2, 0.0))
    clusters = dict()
    for center, mult in eig_multiplicities(values, tol=1e-8):
        clusters[complex(np.round(center, 6))] = mult
    assert clusters[1.0 + 0j] == 3
    assert clusters[0j] == 2
    assert clusters[-0.5 + 0j] == 1


def test_eig_reconstruction(hadamard):
    w = _w(hadamard, 2, 0.7)
    values, vectors, _ = eig(w)
    recon = vectors @ np.diag(values) @ np.linalg.inv(vectors)
    assert np.max(np.abs(recon - w)) < 1e-8


def test_cubic_solver_residuals():
    coeffs = [2.0, 1.0 - 2.0, 0.0, -1.0]
    for root in cubic_roots(coeffs):
        assert abs(np.polyval(coeffs, root)) < 1e-10


def test_cubic_factorizations_at_zero():
    first, second = cubic_spectrum_m2(0.0)
    assert _multiset_distance(first, [1, (-1 + 1j * S7) / 4, (-1 - 1j * S7) / 4]) < 1e-10
    # The double roots, 1 at k = 0 and -1 at k = pi, are polished on the
    # derivative; plain Newton leaves them about sqrt(eps) off.
    assert _multiset_distance(second, [1, 1, -0.5]) < 1e-12
    first, _ = cubic_spectrum_m2(math.pi)
    assert _multiset_distance(first, [-1, -1, 0.5]) < 1e-12


def test_cubic_union_matches_spectrum(hadamard):
    for k in np.linspace(0, 2 * math.pi, 17):
        first, second = cubic_spectrum_m2(k)
        expected = np.concatenate([first, second, [0, 0]])
        values, _, _ = eig(_w(hadamard, 2, k))
        assert _multiset_distance(values, expected) < 1e-8


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
    red = kato_reduction(hadamard, 2)
    assert np.max(np.abs(red.pi - KATO_PI)) < 1e-14
    assert np.max(np.abs(red.pi @ red.pi - red.pi)) < 1e-14
    assert np.max(np.abs(red.pi - red.pi.conj().T)) < 1e-14
    assert abs(np.trace(red.pi).real - 3.0) < 1e-12


def test_kato_reduced_generator(hadamard):
    red = kato_reduction(hadamard, 2)
    assert np.max(np.abs(red.r - KATO_R)) < 1e-14
    assert np.max(np.abs(red.r + red.r.conj().T)) < 1e-14


def test_kato_eigenpairs(hadamard):
    red = kato_reduction(hadamard, 2)
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
    red = kato_reduction(hadamard, 2)
    alt = np.array([2 - S3, 0, 1 - S3, 1, 2 - S3, 1 - S3, 0, 1]) / math.sqrt(
        12 * (2 - S3)
    )
    assert np.max(np.abs(red.vectors[1] - alt)) < 1e-14
    v1_expected = 0.5 * np.array([1, 0, 0, 1, -1, 0, 0, -1])
    assert np.max(np.abs(red.vectors[0] - v1_expected)) < 1e-15


def test_kato_commutes_with_w(hadamard):
    red = kato_reduction(hadamard, 2)
    w = red.w0
    assert np.array_equal(w, _w(hadamard, 2, 0.0))
    assert np.max(np.abs(red.pi @ w - w @ red.pi)) < 1e-14
    assert np.max(np.abs(red.t1 - t1_matrix(hadamard, 2))) == 0.0


def test_initial_state_decomposition():
    # The uniform half cell decomposes against the paper's orthonormal basis
    # with inner products (0, 1/(2 sqrt3), 1/sqrt2) and the displayed remainder.
    phi0 = np.array([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0], dtype=complex)
    dots = [np.vdot(p, phi0) for p in KATO_BASIS]
    assert abs(dots[0] - 0.0) < 1e-15
    assert abs(dots[1] - 1 / (2 * S3)) < 1e-15
    assert abs(dots[2] - 1 / S2) < 1e-15
    remainder = phi0 - dots[1] * KATO_BASIS[1] - dots[2] * KATO_BASIS[2]
    expected = np.array(
        [-1 / 12, 1 / 2, 1 / 3, 1 / 12, -1 / 12, -1 / 6, 0, 1 / 12]
    )
    assert np.max(np.abs(remainder - expected)) < 1e-14


def test_kato_reduction_matches_the_paper_oracle(hadamard):
    # The numerical path reproduces the paper's literal objects: its basis
    # spans the printed projection, and the eigenvectors agree entry by
    # entry once each has its first nonzero entry real and positive.
    # red.pi and red.r meet KATO_PI and KATO_R in the two projection tests.
    assert np.max(np.abs(KATO_BASIS.T @ KATO_BASIS.conj() - KATO_PI)) < 1e-15
    assert np.max(np.abs(KATO_PI @ t1_matrix(hadamard, 2) @ KATO_PI - KATO_R)) < 1e-15
    red = kato_reduction(hadamard, 2)
    for got, want in zip(red.vectors, KATO_VECTORS):
        assert np.max(np.abs(got - want)) < 1e-15


def test_kato_speeds_are_the_side_mode_speeds(hadamard):
    red = kato_reduction(hadamard, 2)
    assert np.max(np.abs(red.speeds - np.array([0.0, SPEED, -SPEED]))) < 1e-15


def test_table_widths_at_width_two_are_the_oracle_widths(hadamard):
    # The centre's width is 1/2, each side's 1/9; the stated 4/9 is
    # -2 Re tau alone, without the -mu^2 of the side speed.
    red = kato_reduction(hadamard, 2)
    assert np.max(np.abs(red.widths - [CENTER_VARIANCE, *[SIDE_VARIANCE_CUMULANT] * 2])) < 1e-12
    assert np.max(np.abs(-2.0 * red.tau.real - [CENTER_VARIANCE, *[SIDE_VARIANCE] * 2])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(unit_spinor_strategy())
def test_kato_mode_masses_are_the_limit_coefficients(hadamard, g):
    # The table's masses of the cell g (x) conj(g) at v = 0 are the paper's
    # weights: (c0, c+, c-) in the reduction's order (v1, v2, v3).
    red = kato_reduction(hadamard, 2)
    phi = np.zeros(8, dtype=complex)
    phi[4:] = np.kron(g, g.conj())
    c_minus, c_zero, c_plus = limit_coefficients(g)
    assert np.max(np.abs(red.masses(phi) - [c_zero, c_plus, c_minus])) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 30])
def test_table_speeds_are_the_hadamard_speeds(hadamard, m):
    # 0 and +-cos(theta_j) / sqrt(1 + cos^2 theta_j), theta_j = j pi / (2M), j = 1..M-1.
    c = np.cos(np.arange(1, m) * np.pi / (2 * m))
    side = c / np.sqrt(1.0 + c**2)
    want = np.sort(np.concatenate([[0.0], side, -side]))
    assert np.max(np.abs(np.sort(kato_reduction(hadamard, m).speeds) - want)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
def test_table_masses_sum_to_one_with_centre_one_over_m(hadamard, m):
    # For every product start the masses sum to the initial measure's sum
    # 1, and the centre mode takes 1/M of it.
    for coin in (hadamard, COIN_68):
        red = kato_reduction(coin, m)
        for g in ((1.0, 0.0), (0.6, 0.8), (S2 / 2, 1j * S2 / 2)):
            c = red.masses(start_vector(init_product(coin, np.array(g), m, 0)))
            assert abs(c.sum() - 1.0) < 1e-12 and abs(c[0] - 1.0 / m) < 1e-12, (coin, g)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 30])
@pytest.mark.parametrize("coin", ["hadamard", "coin_68", "haar_0"])
def test_table_centre_width_is_the_width_one_variance_over_m(hadamard, coin, m):
    # sigma_1^2 / M, sigma_1^2 = |a|^2 / (1 - |a|^2) the variance of the M = 1 walk.
    coin = {"hadamard": hadamard, "coin_68": COIN_68, "haar_0": _haar_coin(0)}[coin]
    assert abs(kato_reduction(coin, m).widths[0] - oqrw_limit(coin) / m) < 1e-12


@pytest.mark.parametrize("variant", [None, *range(8)])
def test_table_widths_are_positive_and_below_the_centre_at_m50(hadamard, variant):
    # Every width at M = 50 lies in (0, sigma_1^2 / M], the centre's.  The
    # reduced resolvent taken as pinv(W(0) - I) breaks four of these nine
    # coins here: the zero singular values sit at pinv's cutoff.
    coin = hadamard if variant is None else _haar_coin(variant)
    widths = kato_reduction(coin, 50).widths
    centre = oqrw_limit(coin) / 50
    assert abs(widths[0] - centre) < 1e-12
    assert np.all(widths > 0) and np.all(widths <= centre + 1e-12)


@pytest.mark.parametrize("m, k", [(2, 1e-2), (3, 1e-2), (10, 1e-2), (30, 2e-3)])
@pytest.mark.parametrize("coin", ["hadamard", "coin_68"])
def test_second_order_error_falls_8x_per_halving(hadamard, coin, m, k):
    # 1 + k rho_j + k^2 tau_j meets the eigenvalues of W(k) within c k^3:
    # each halving of k divides the largest error by 8 (at least 6 here),
    # and each mode keeps its own eigenvalue.
    coin = {"hadamard": hadamard, "coin_68": COIN_68}[coin]
    red = kato_reduction(coin, m)
    errors = []
    for kk in k / 2.0 ** np.arange(4):
        values = eig(w_stack(blocks(coin), m, [kk])[0])[0]
        dist = np.abs(values - (1.0 + kk * red.eigenvalues + kk**2 * red.tau)[:, None])
        assert len(set(np.argmin(dist, axis=1))) == 2 * m - 1
        errors.append(np.max(np.min(dist, axis=1)))
    assert np.min(np.array(errors[:-1]) / errors[1:]) >= 6.0, errors


def test_every_public_name_serves_the_library():
    # Each name in the __all__ of every module is used by the package or
    # its scripts other than in its own definition, and each public method
    # or property of the package's classes is read as an attribute there
    # or by the benchmark harness, whose files change only with the
    # benchmark; helpers and closed forms that only tests use live in
    # oracles.py.
    package = Path(spectral.__file__).parent
    library = [*package.glob("*.py"), *(package.parents[1] / "scripts").glob("*.py")]
    used, read = set(), set()
    for path in library:
        used |= _names_used(ast.parse(path.read_text()))
    for path in [*library, *(package.parents[1] / "perfbench").rglob("*.py")]:
        read |= _names_used(ast.parse(path.read_text()), attributes_only=True)
    unused = {}
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"stripewalk.{path.stem}" if path.stem != "__init__" else "stripewalk")
        if hasattr(module, "__all__"):
            unused[path.stem] = sorted(set(module.__all__) - used)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and not cls.__name__.startswith("_"):
                for name, member in vars(cls).items():
                    if _is_public_member(name, member) and name not in read:
                        unused.setdefault(path.stem, []).append(f"{cls.__name__}.{name}")
    assert "spectral" in unused and "walker" in unused
    assert {name: names for name, names in unused.items() if names} == {}


def _is_public_member(name, member):
    """A public method, property or class/static method defined in a class body."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    return not name.startswith("_") and (inspect.isfunction(member) or isinstance(member, kinds))


def _names_used(node, enclosing=frozenset(), attributes_only=False):
    """Names loaded (unless ``attributes_only``) and attributes read under
    ``node``, each outside the definitions of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name) and not attributes_only:
        name = node.id
    else:
        name = None
    used = {name} - enclosing - {None}
    for child in ast.iter_child_nodes(node):
        used |= _names_used(child, enclosing, attributes_only)
    return used


def test_minimal_polynomial(hadamard):
    res = poly_residuals(_w(hadamard, 2, 0.0))
    assert res["minimal_poly_residual"] < 1e-12
    assert res["char_poly_residual"] < 1e-12
    assert res["minimality_witness"] >= 0.1


def test_derivative_consistency(hadamard):
    t1 = t1_matrix(hadamard, 2)
    for h in (1e-3, 1e-4):
        fd = (
            _w(hadamard, 2, h)
            - _w(hadamard, 2, -h)
        ) / (2 * h)
        assert np.max(np.abs(t1 - fd)) < 0.2 * h * h


def test_perturbed_projections_decay(hadamard):
    red = kato_reduction(hadamard, 2)
    residuals = {}
    for d in (1e-1, 1e-2, 1e-3):
        rep = perturbed_projection_check(red, d)
        residuals[d] = rep["residuals"]
        assert len(rep["residuals"]) == 3
    assert max(residuals[1e-2]) < 5e-2
    for j in range(3):
        assert residuals[1e-2][j] < residuals[1e-1][j]
        assert residuals[1e-3][j] < residuals[1e-2][j]


def test_perturbed_projection_range_validation(hadamard):
    red = kato_reduction(hadamard, 2)
    for delta in (0.0, 0.5):
        with pytest.raises(ValueError, match="delta must lie"):
            perturbed_projection_check(red, delta)


def test_perturbed_projection_ambiguity_reported(hadamard):
    # At tiny delta the three near-unit eigenvalues crowd within the
    # matching tolerance of each prediction.
    with pytest.raises(RuntimeError, match="ambiguous"):
        perturbed_projection_check(kato_reduction(hadamard, 2), 1e-7)


def test_first_order_match_is_the_width2_hadamard_oracle(hadamard):
    # At M = 2 the generic match pairs each mode with the eigenvalue the
    # delta expansions pick, and measures the same projection distance.
    red = kato_reduction(hadamard, 2)
    for d in (1e-1, 1e-2, 1e-3):
        k = k_of_delta(d)
        rep = perturbed_projection_check(red, d)
        got = first_order_match(red, k)
        assert np.array_equal(got["eigenvalues"], rep["eigenvalues"])
        assert np.max(np.abs(got["distances"] - rep["residuals"])) < 1e-15
        # The first-order error is what the second-order terms of the
        # expansions predict: -delta^2 / 4 and -(2/9) delta^2.
        assert np.max(np.abs(got["errors"] / d**2 - [0.25, 2 / 9, 2 / 9])) < 0.1 * d


def test_first_order_match_ambiguity_reported(phased_coin):
    # At tiny k the 2M - 1 eigenvalues near 1 crowd within the matching
    # tolerance of each prediction.
    red = kato_reduction(phased_coin, 3)
    assert first_order_match(red, 1e-3)["margin"] >= MATCH_AMBIGUITY_TOL
    assert first_order_match(red, 1e-7)["margin"] < MATCH_AMBIGUITY_TOL
    # The margin is the least over the modes, whose own margins differ by
    # nearly 2x here.
    for k in (1e-3, 1e-7):
        values = np.linalg.eigvals(_w(phased_coin, 3, k))
        dist = np.sort(np.abs(values - (1.0 + k * red.eigenvalues)[:, None]), axis=1)
        assert first_order_match(red, k)["margin"] == pytest.approx(np.min(dist[:, 1] - dist[:, 0]), rel=1e-6)


def test_char_function_matches_engine(hadamard):
    ks = 2 * math.pi * np.arange(16) / 16
    for m in (1, 2, 3):
        for g in (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / S2):
            n = 30
            state = evolve(init_product(hadamard, g, m, n), n)
            mu = measure(state)
            xs = mu.positions()
            engine = np.array(
                [np.sum(mu.values * np.exp(1j * k * xs)) for k in ks]
            )
            matrix = char_function(hadamard, m, n, ks, g)
            assert np.max(np.abs(engine - matrix)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(unitary_coin_strategy(), st.floats(min_value=0.0, max_value=2 * math.pi))
def test_w_contraction_any_coin(coin, k):
    # Compressions of a unitary stay contractions for every coin.
    assert np.linalg.norm(_w(coin, 3, k), 2) <= 1 + 1e-12


def test_general_coin_reduction_fallback():
    coin = make_coin(0.6, 0.8, 0.8, -0.6)
    red = kato_reduction(coin, 2)
    assert abs(np.trace(red.pi).real - 3.0) < 1e-8
    assert np.max(np.abs(red.r + red.r.conj().T)) < 1e-10
    vals = sorted(red.eigenvalues, key=lambda z: z.imag)
    assert abs(vals[1]) < 1e-8
    assert abs(vals[0] + vals[2]) < 1e-8  # conjugate imaginary pair
    assert vals[2].imag > 0.1


def test_apply_power_is_matrix_power(phased_coin):
    w = w_stack(blocks(phased_coin), 3, [0.0, 0.4, 3.0])
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
    mixed = np.zeros((m, 4))
    mixed[m // 2] = [0.5, 0.0, 0.0, 0.5]
    rng = np.random.default_rng(m)
    band = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
    band /= np.linalg.norm(band)
    return {
        "real spinor": init_product(coin, np.array([0.6, 0.8]), m, SNAPSHOT_N[m]),
        "complex spinor": init_product(coin, np.array([1.0, 1j]) / S2, m, SNAPSHOT_N[m]),
        "mixed": init_band_vector(coin, mixed, m, SNAPSHOT_N[m]),
        "band": init_band_vector(coin, band, m, SNAPSHOT_N[m]),
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
            got, residues, total = snapshot_measure(state, n)
            assert max(residues.values()) <= SNAPSHOT_RESIDUE_TOL, (name, n)
            assert abs(total - want.total()) <= 1e-12, (name, n)
            assert got.n == n and got.values.shape == want.values.shape
            assert np.max(np.abs(got.values - want.values)) <= 1e-12, (name, n)
            if len(state.sublattices) == 1:
                # Cells with x + n off the state's sublattice are exactly 0.
                off = got.values[(state.sublattices[0] + 1) % 2 :: 2]
                assert not np.any(off), (name, n)
            if state.engine()["dtype"] == "float64":
                assert got.max_abs_imag() == 0.0, (name, n)
            elif m % 2 == 1 and name != "band":
                assert got.max_abs_imag() <= 1e-12, (name, n)


def test_snapshot_measure_needs_the_initial_state(hadamard):
    state = init_product(hadamard, np.array([1.0, 0.0]), 2, 4)
    with pytest.raises(ValueError, match="initial state"):
        snapshot_measure(evolve(state, 1), 3)
    with pytest.raises(ValueError, match="non-negative"):
        snapshot_measure(state, -1)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 500])
def test_snapshot_measure_powers_one_k_per_orbit(phased_coin, monkeypatch, n):
    # On the odd grid of 2n + 1 momenta the orbits are the reflection
    # pairs, so n + 1 momenta are powered, each once.
    power = spectral.apply_power
    powered = []

    def counting(w, n, x):
        powered.append(len(w))
        return power(w, n, x)

    monkeypatch.setattr(spectral, "apply_power", counting)
    state = init_product(phased_coin, np.array([0.6, 0.8j]), 10, 0)
    snapshot_measure(state, n)
    assert sum(powered) == _orbit_count(2 * n + 1) == n + 1


@pytest.mark.parametrize("sublattices, columns, needle", [(1, [0, 1], "off-sublattice"), (2, [0], "Im mu")])
def test_snapshot_measure_rejects_a_wrong_chi_off_k0(hadamard, monkeypatch, sublattices, columns, needle):
    # A chi that is wrong only at k_1 leaves sum mu_n = chi(0) alone; the
    # residue of the off-sublattice cells or, with the mirror half
    # untouched, of the imaginary part of a real start shows it.
    name = {"off-sublattice": "off_sublattice", "Im mu": "imag"}[needle]
    power = spectral.apply_power

    def corrupted(w, n, x):
        y = power(w, n, x).copy()
        y[1, :, columns] *= 1.0 + 1e-6
        return y

    if sublattices == 1:
        state = init_product(hadamard, np.array([0.6, 0.8]), 2, 200)
    else:
        band = np.random.default_rng(2).normal(size=(2, 4))
        state = init_band_vector(hadamard, band / np.linalg.norm(band), 2, 200)
    assert len(state.sublattices) == sublattices and state.engine()["dtype"] == "float64"
    mu, residues, total = snapshot_measure(state, 200)
    assert np.max(np.abs(mu.values - measure(evolve(state, 200)).values)) <= 1e-12
    assert residues[name] <= SNAPSHOT_RESIDUE_TOL
    monkeypatch.setattr(spectral, "apply_power", corrupted)
    _, residues, corrupted_total = snapshot_measure(state, 200)
    assert residues[name] > SNAPSHOT_RESIDUE_TOL and corrupted_total == total
