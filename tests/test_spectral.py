import ast
import functools
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unitary_coin_strategy
from stripewalk import evolve, init_band_vector, init_product, make_coin, measure, stripe_for_width
from stripewalk import spectral
from stripewalk.limits import SPEED, limit_coefficients
from stripewalk.spectral import (
    apply_power,
    delta_of_k,
    eig,
    k_of_delta,
    kato_reduction,
    lambda1_expansion,
    lambda2_expansion,
    perturbed_projection_check,
    poly_residuals,
    reflection,
    shift_signs,
    snapshot_measure,
    spectrum_grid,
    t1_matrix,
    v_block,
    w_stack,
)

from conftest import unit_spinor_strategy
from oracles import (
    KATO_BASIS,
    KATO_PI,
    KATO_R,
    KATO_VECTORS,
    cardano_lambda1_j0,
    cardano_lambda2_j0,
    char_function,
    cubic_roots,
    cubic_spectrum_m2,
    eig_multiplicities,
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

def _multiset_distance(got, expected):
    """Greedy nearest-matching distance between equal-size multisets."""
    got = list(np.asarray(got, dtype=complex))
    worst = 0.0
    for z in expected:
        i = int(np.argmin(np.abs(np.array(got) - z)))
        worst = max(worst, abs(got[i] - z))
        got.pop(i)
    return worst


def _w(coin, s, t, k):
    """W(k) alone: the one-k stack."""
    return w_stack(coin, s, t, [k])[0]


def test_w_matches_explicit_matrix(hadamard):
    w = _w(hadamard, -1, 0, 0.0)
    assert np.max(np.abs(w - W0_EXPECTED)) < 1e-15
    # Width-2 stripes share the matrix regardless of placement.
    assert np.array_equal(w, _w(hadamard, 0, 1, 0.0))


def test_w_width_one_is_v_block(hadamard):
    from stripewalk.coin import blocks

    for k in (0.0, 0.7, 2.5):
        assert np.allclose(_w(hadamard, 0, 0, k), v_block(blocks(hadamard), k), atol=1e-15)


def test_w_contraction_norm(hadamard):
    for k in np.linspace(0, 2 * math.pi, 9):
        assert np.linalg.norm(_w(hadamard, -1, 0, k), 2) <= 1 + 1e-12
        assert np.linalg.norm(_w(hadamard, -2, 1, k), 2) <= 1 + 1e-12


def test_w_conjugation_symmetry(hadamard):
    for k in (0.3, 1.1, 2.0):
        a = _w(hadamard, -1, 0, k)
        b = _w(hadamard, -1, 0, 2 * math.pi - k)
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


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_shift_by_pi_negates_w_for_any_coin(phased_coin, m):
    # W(k + pi) = -D W(k) D, D = diag((-1)^v) per block; -W(k) alone
    # differs in the off-diagonal blocks whenever there are any.
    s, t = stripe_for_width(m)
    ks = np.array([0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.4])
    w, w_shift = w_stack(phased_coin, s, t, ks), w_stack(phased_coin, s, t, ks + math.pi)
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


def test_w_stack_rows_are_build_w(phased_coin):
    ks = [0.0, 0.7, 2.5, 5.9]
    stack = w_stack(phased_coin, -1, 1, ks)
    assert stack.shape == (4, 12, 12)
    for k, w in zip(ks, stack):
        assert np.array_equal(w, _w(phased_coin, -1, 1, k))


def _corrupt_eig(monkeypatch, index, value):
    """Make np.linalg.eig return a wrong first eigenvector for stack entry ``index``."""
    solve = np.linalg.eig

    def corrupted(mats):
        values, vectors = solve(mats)
        vectors[index, :, 0] = value
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", corrupted)


def test_residual_check_covers_mirrored_rows(phased_coin, monkeypatch):
    # A bad eigenvector at k_1 fails at k_1 and at its three images
    # k_{K-1}, k_{1+K/2} and k_{K/2-1}, whose pairs are derived from it
    # and checked against W at their own k.
    kgrid = 16
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    _corrupt_eig(monkeypatch, 1, 0.5)
    with pytest.raises(RuntimeError, match="eigenpair residual") as exc:
        spectrum_grid(phased_coin, -1, 1, kgrid)
    assert str(exc.value).endswith(f"k = {ks[[1, 7, 9, 15]].tolist()}")


def test_residual_check_catches_a_wrong_mirror(phased_coin, monkeypatch):
    # With the reflection replaced by the identity, every solved pair and
    # every pure shift image is right, and every pair that went through
    # the reflection is wrong: the reflected rows 12..15 (of k_4..k_1) and
    # the shifted-and-reflected rows 5..7 (of k_3..k_1) fail.
    kgrid = 16
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    monkeypatch.setattr(spectral, "reflection", lambda m: np.arange(4 * m))
    with pytest.raises(RuntimeError, match="eigenpair residual") as exc:
        spectrum_grid(phased_coin, -1, 1, kgrid)
    assert str(exc.value).endswith(f"k = {ks[[5, 6, 7, 12, 13, 14, 15]].tolist()}")


def test_residual_check_catches_a_wrong_shift(phased_coin, monkeypatch):
    # With D replaced by the identity, exactly the rows whose pair went
    # through the shift fail: k_8 from k_0, and k_{i+8}, k_{8-i} from the
    # solved k_1..k_3 (k_4's shift image k_12 is its reflection).
    kgrid = 16
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    monkeypatch.setattr(spectral, "shift_signs", lambda m: np.ones(4 * m))
    with pytest.raises(RuntimeError, match="eigenpair residual") as exc:
        spectrum_grid(phased_coin, -1, 1, kgrid)
    assert str(exc.value).endswith(f"k = {ks[5:12].tolist()}")


def _orbit_count(kgrid):
    """Orbits of i -> -i and, for even kgrid, i -> i + kgrid/2 on Z_kgrid, by brute force."""
    shifts = {0, kgrid // 2} if kgrid % 2 == 0 else {0}
    return len({frozenset((sign * i + d) % kgrid for sign in (1, -1) for d in shifts) for i in range(kgrid)})


@pytest.mark.parametrize("kgrid", [2, 4, 6, 7, 16, 1024])
def test_spectrum_grid_solves_one_k_per_orbit(phased_coin, monkeypatch, kgrid):
    solve = np.linalg.eig
    solved = []

    def counting(mats):
        solved.append(len(mats))
        return solve(mats)

    monkeypatch.setattr(np.linalg, "eig", counting)
    s, t = stripe_for_width(10)
    _, values = spectrum_grid(phased_coin, s, t, kgrid)
    assert values.shape == (kgrid, 40)
    assert sum(solved) == _orbit_count(kgrid)
    if kgrid == 1024:
        assert sum(solved) == 257


def test_residual_check_catches_nan(phased_coin, monkeypatch):
    _corrupt_eig(monkeypatch, 0, np.nan)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        eig(_w(phased_coin, -1, 1, 0.4), 0.4)


def test_spectrum_grid_size_limit_before_allocation(hadamard, monkeypatch):
    def no_stack(*args):
        raise AssertionError("a W stack was built")

    monkeypatch.setattr(spectral, "_w_stack", no_stack)
    with pytest.raises(ValueError, match="matrix size 280 exceeds limit 256"):
        spectrum_grid(hadamard, -35, 34, 1024)


def test_eigenvalues_at_zero_momentum(hadamard):
    values, _ = eig(_w(hadamard, -1, 0, 0.0), 0.0)
    assert _multiset_distance(values, W0_EIGENVALUES) < 1e-10


def test_eig_width_one(hadamard):
    for k in (0.0, 0.9, 2.2):
        values, _ = eig(_w(hadamard, 0, 0, k), k)
        assert _multiset_distance(values, [0, 0, 0, math.cos(k)]) < 1e-12


def test_eig_size_limit(hadamard):
    with pytest.raises(ValueError, match="limit"):
        eig(_w(hadamard, -70, 70, 0.0), 0.0)


def test_eig_multiplicity_clusters(hadamard):
    values, _ = eig(_w(hadamard, -1, 0, 0.0), 0.0)
    clusters = dict()
    for center, mult in eig_multiplicities(values, tol=1e-8):
        clusters[complex(np.round(center, 6))] = mult
    assert clusters[1.0 + 0j] == 3
    assert clusters[0j] == 2
    assert clusters[-0.5 + 0j] == 1


def test_eig_reconstruction(hadamard):
    w = _w(hadamard, -1, 0, 0.7)
    values, vectors = eig(w, 0.7)
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
        values, _ = eig(_w(hadamard, -1, 0, k), k)
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
    red = kato_reduction(hadamard, -1, 0)
    assert np.max(np.abs(red.pi - KATO_PI)) < 1e-14
    assert np.max(np.abs(red.pi @ red.pi - red.pi)) < 1e-14
    assert np.max(np.abs(red.pi - red.pi.conj().T)) < 1e-14
    assert abs(np.trace(red.pi).real - 3.0) < 1e-12


def test_kato_reduced_generator(hadamard):
    red = kato_reduction(hadamard, -1, 0)
    assert np.max(np.abs(red.r - KATO_R)) < 1e-14
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
    w = red.w0
    assert np.array_equal(w, _w(hadamard, -1, 0, 0.0))
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
    red = kato_reduction(hadamard, -1, 0)
    for got, want in zip(red.vectors, KATO_VECTORS):
        assert np.max(np.abs(got - want)) < 1e-15


def test_kato_speeds_are_the_side_mode_speeds(hadamard):
    red = kato_reduction(hadamard, -1, 0)
    assert np.max(np.abs(-1j * red.eigenvalues - np.array([0.0, SPEED, -SPEED]))) < 1e-15


@settings(max_examples=40, deadline=None)
@given(unit_spinor_strategy())
def test_kato_mode_masses_are_the_limit_coefficients(hadamard, g):
    # The mass of mode j from the cell g (x) conj(g) at v = 0 is
    # q^T v_j v_j^* phi, with q = LL + RR at v = 0: (c0, c+, c-) in the
    # order (v1, v2, v3).
    red = kato_reduction(hadamard, -1, 0)
    phi = np.zeros(8, dtype=complex)
    phi[4:] = np.kron(g, g.conj())
    masses = [(v[4] + v[7]) * np.vdot(v, phi) for v in red.vectors]
    c_minus, c_zero, c_plus = limit_coefficients(g)
    assert np.max(np.abs(np.array(masses) - [c_zero, c_plus, c_minus])) < 1e-14


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
    res = poly_residuals(_w(hadamard, -1, 0, 0.0))
    assert res["minimal_poly_residual"] < 1e-12
    assert res["char_poly_residual"] < 1e-12
    assert res["minimality_witness"] >= 0.1


def test_derivative_consistency(hadamard):
    t1 = t1_matrix(hadamard, 2)
    for h in (1e-3, 1e-4):
        fd = (
            _w(hadamard, -1, 0, h)
            - _w(hadamard, -1, 0, -h)
        ) / (2 * h)
        assert np.max(np.abs(t1 - fd)) < 0.2 * h * h


def test_perturbed_projections_decay(hadamard):
    red = kato_reduction(hadamard, -1, 0)
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
    red = kato_reduction(hadamard, -1, 0)
    for delta in (0.0, 0.5):
        with pytest.raises(ValueError, match="delta must lie"):
            perturbed_projection_check(red, delta)


def test_perturbed_projection_ambiguity_reported(hadamard):
    # At tiny delta the three near-unit eigenvalues crowd within the
    # matching tolerance of each prediction.
    with pytest.raises(RuntimeError, match="ambiguous"):
        perturbed_projection_check(kato_reduction(hadamard, -1, 0), 1e-7)


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
    assert np.linalg.norm(_w(coin, -1, 1, k), 2) <= 1 + 1e-12


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
            if state.engine()["dtype"] == "float64":
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
    assert len(state.sublattices) == sublattices and state.engine()["dtype"] == "float64"
    assert np.max(np.abs(snapshot_measure(state, 200).values - measure(evolve(state, 200)).values)) <= 1e-12
    monkeypatch.setattr(spectral, "apply_power", corrupted)
    with pytest.raises(RuntimeError, match=needle):
        snapshot_measure(state, 200)
