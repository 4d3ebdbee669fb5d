"""Momentum-space operator of the stripe walk and its spectral analysis.

For momentum k the walk restricted to stripe rows v in {s..t} is the
4M x 4M block-tridiagonal compression

    W(k) = [ V(k)  PQ              ]        V(k) = e^{-ik} PP + e^{ik} QQ,
           [ QP    V(k)  PQ        ]
           [       QP    V(k) ...  ]

with one 4x4 block per row v, blocks ordered v ascending from s to t: the
superdiagonal PQ couples row v to v+1, the subdiagonal QP to v-1.  W(k) is
a non-normal contraction; its spectrum near the unit circle controls the
long-time measure.

Near k = 0 the eigenvalue 1 of W(0) (triple for the Hadamard coin at
M = 2) splits according to the reduced generator R = Pi T1 Pi on the
unperturbed eigenspace, where Pi is the (orthogonal) eigenprojection of 1
and T1 = dW/dk(0).  ``kato_reduction`` computes both numerically, by one
path for every coin and width; the width-2 polynomial and perturbation
checks of ``kato`` build on it.  The closed forms of the Hadamard M = 2
case (its two cubics and the paper's basis) are test oracles, not
library code.

Two exact symmetries hold for every coin: the reflection
W(-k) = Pi conj(W(k)) Pi^T (``reflection``) and the pi-shift
W(k + pi) = -D W(k) D with D = diag((-1)^v) (``shift_signs``).
``spectrum_grid`` solves one momentum per orbit of the two, about a
quarter of its grid, and derives the other rows' eigenpairs.

It also holds the spectral snapshot engine: ``snapshot_measure`` reads
one late measure mu_n off W(k)^n on 2n + 1 momenta and one FFT, with no
stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coin import LL, LR, RL, RR, Coin, CoinBlocks, blocks, make_hadamard
from .walker import BandState, ComplexMeasure, _validate_stripe

__all__ = [
    "KatoReduction",
    "w_stack",
    "reflection",
    "shift_signs",
    "v_block",
    "t1_block",
    "t1_matrix",
    "eig",
    "spectrum_grid",
    "lambda1_expansion",
    "lambda2_expansion",
    "delta_of_k",
    "k_of_delta",
    "kato_reduction",
    "poly_residuals",
    "perturbed_projection_check",
    "apply_power",
    "snapshot_measure",
]

EIG_SIZE_LIMIT = 256
#: Bytes of W(k) matrices that ``spectrum_grid`` holds per chunk of momenta,
#: images included: 2 solved k and their 6 images at M = 10.  Larger chunks
#: raised peak memory (41 MB at 512 KiB, 82 MB at 8 MiB for M = 10, kgrid
#: 1024, against 39 MB) and ran no faster.
GRID_CHUNK_BYTES = 1 << 18
EIG_RESIDUAL_TOL = 1e-10
MATCH_AMBIGUITY_TOL = 1e-6
#: Distance from 1 within which a W(0) eigenvalue joins the group that
#: ``kato_reduction`` projects onto, for every coin and width.
UNIT_GROUP_TOL = 1e-6
#: A reduced eigenvector's phase is fixed by its first entry of modulus
#: above this value.  The first entry of largest modulus would not do:
#: the Hadamard v1 has entries +-1/2 that tie.
PHASE_ENTRY_TOL = 1e-8
#: Largest off-sublattice |mu| and, for a float64 start, largest |Im mu|
#: that ``snapshot_measure`` may round to exactly 0, times max(1, |phi|).
#: Measured residues stay below 1e-14 (M <= 10, n <= 5e4).
SNAPSHOT_RESIDUE_TOL = 1e-12


def v_block(b: CoinBlocks, k: float) -> np.ndarray:
    """Diagonal block V(k) = e^{-ik} PP + e^{ik} QQ; an array k of shape (K, 1, 1) gives K blocks."""
    return np.exp(-1j * k) * b.pp + np.exp(1j * k) * b.qq


def t1_block(b: CoinBlocks) -> np.ndarray:
    """dV/dk at k = 0: the 4x4 block -i PP + i QQ."""
    return -1j * b.pp + 1j * b.qq


def t1_matrix(coin: Coin, m: int) -> np.ndarray:
    """dW/dk at k = 0: block-diagonal with m copies of the t1 block."""
    b = blocks(coin)
    return np.kron(np.eye(m), t1_block(b))


def w_stack(coin: Coin, s: int, t: int, ks: Sequence[float]) -> np.ndarray:
    """W(k) for every momentum of ``ks`` as one (K, 4M, 4M) array."""
    _validate_stripe(s, t)
    return _w_stack(blocks(coin), t - s + 1, ks)


def _w_stack(b: CoinBlocks, m: int, ks: Sequence[float]) -> np.ndarray:
    ks = np.asarray(ks, dtype=float)[:, None, None]
    w = np.zeros((len(ks), m, 4, m, 4), dtype=complex)
    i = np.arange(m)
    # Advanced indices on axes 1 and 3 put the block axis first: (m, K, 4, 4).
    w[:, i, :, i, :] = v_block(b, ks)
    w[:, i[:-1], :, i[1:], :] = b.pq
    w[:, i[1:], :, i[:-1], :] = b.qp
    return w.reshape(len(ks), 4 * m, 4 * m)


def reflection(m: int) -> np.ndarray:
    """Index form of the permutation Pi with W(2 pi - k) = Pi conj(W(k)) Pi^T.

    Pi reverses the block order (block i <-> m-1-i) and swaps LR <-> RL
    inside each block, so ``(Pi x)[j] == x[reflection(m)[j]]``.  The
    identity holds for every coin: the swap maps conj(A (x) conj(B)) to
    B (x) conj(A), which keeps PP and QQ, exchanges PQ with QP and turns
    conj V(k) into V(-k), while the block reversal exchanges the super-
    and subdiagonal.
    """
    return (4 * np.arange(m)[::-1, None] + np.array([LL, RL, LR, RR])).ravel()


def shift_signs(m: int) -> np.ndarray:
    """Diagonal of D, one sign (-1)^v per 4x4 block, with W(k + pi) = -D W(k) D.

    V(k + pi) = -V(k), while D flips the sign of the off-diagonal blocks
    PQ and QP, which couple rows of opposite parity; so the identity holds
    for every coin.  The signs run from +1 at v = s: the overall sign of D
    drops out of D W D.
    """
    return np.repeat((-1.0) ** np.arange(m), 4)


def _check_size(n: int) -> None:
    if n > EIG_SIZE_LIMIT:
        raise ValueError(f"matrix size {n} exceeds limit {EIG_SIZE_LIMIT}")


def _solve(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eig(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc


def _check_pairs(
    mats: np.ndarray, values: np.ndarray, vectors: np.ndarray, ks, scale: np.ndarray
) -> None:
    """Check the max residual ||W x - lambda x|| of each matrix in a stack.

    Raises if a residual exceeds ``EIG_RESIDUAL_TOL`` times max(||W||_2, 1)
    of its own matrix, with ||W||_2 given as ``scale``, or is NaN; the
    message names the failing momenta in ascending order.
    """
    residual = np.max(np.linalg.norm(mats @ vectors - vectors * values[:, None, :], axis=-2), axis=-1)
    bad = ~(residual <= EIG_RESIDUAL_TOL * np.maximum(scale, 1.0))
    if np.any(bad):
        raise RuntimeError(
            f"eigenpair residual {np.max(residual[bad]):.3e} exceeds "
            f"{EIG_RESIDUAL_TOL:.1e} * ||W|| at k = {sorted(np.asarray(ks)[bad].tolist())}"
        )


def eig(w: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit right eigenvectors (columns) of one matrix W(k), checked.

    Raises if the matrix exceeds ``EIG_SIZE_LIMIT``, if LAPACK fails to
    converge, or if any residual ||W x - lambda x|| exceeds
    ``EIG_RESIDUAL_TOL`` times max(||W||_2, 1); ``k`` names the momentum
    in the message.
    """
    _check_size(w.shape[0])
    mats = w[None]
    values, vectors = _solve(mats)
    _check_pairs(mats, values, vectors, [k], np.linalg.norm(mats, 2, axis=(-2, -1)))
    return values[0], vectors[0]


def spectrum_grid(coin: Coin, s: int, t: int, kgrid: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of W(k) at k_i = 2 pi i / kgrid, i = 0..kgrid-1.

    Returns the momenta (kgrid,) and the eigenvalues (kgrid, 4M) in LAPACK
    order.  The reflection k -> -k (``reflection``) and the shift
    k -> k + pi (``shift_signs``) split the grid into orbits of 1, 2 or 4
    momenta (the shift only where kgrid is even), and only the first k_i of
    each orbit, about kgrid/4 of them, goes to the eigensolver.  A solved
    pair (lambda, x) gives row kgrid - i the pair (conj lambda, Pi conj x),
    row i + kgrid/2 the pair (-lambda, D x) and row kgrid/2 - i the pair
    (-conj lambda, D Pi conj x); each row is filled once.  Every pair,
    solved or derived, passes the residual check of ``eig`` against W built
    at its own k, with the ||W||_2 of its orbit: Pi, D and conjugation are
    isometries.  The grid is built in chunks of at most ``GRID_CHUNK_BYTES``
    of matrices.
    """
    _validate_stripe(s, t)
    m = t - s + 1
    _check_size(4 * m)
    b = blocks(coin)
    perm, signs = reflection(m), shift_signs(m)[:, None]
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    values = np.empty((kgrid, 4 * m), dtype=complex)
    # Twice the grid index of k_i, -k_i, k_i + pi and pi - k_i; an odd one
    # falls between the momenta of an odd grid and is marked kgrid.
    doubled = 2 * np.arange(kgrid)
    images = np.stack([doubled, -doubled, doubled + kgrid, kgrid - doubled]) % (2 * kgrid)
    images = np.where(images % 2 == 0, images // 2, kgrid)
    # Solve the smallest k_i of each orbit; each row of the grid takes its
    # pair from the first of that k_i's four images that lands on it.
    orbits = images[:, images.min(axis=0) == images[0]]
    fills = np.zeros(orbits.size, dtype=bool)
    fills[np.unique(orbits, return_index=True)[1]] = True
    fills = fills.reshape(orbits.shape) & (orbits < kgrid)
    # Each solved k brings at most three images into the chunk.
    step = max(1, GRID_CHUNK_BYTES // (4 * 16 * (4 * m) ** 2))
    for lo in range(0, orbits.shape[1], step):
        fill = fills[:, lo : lo + step]
        rows = orbits[:, lo : lo + step][fill]  # the solved k first
        w = _w_stack(b, m, ks[rows])
        solved = w[: fill.shape[1]]
        vals, vecs = _solve(solved)
        scale = np.broadcast_to(np.linalg.norm(solved, 2, axis=(-2, -1)), fill.shape)[fill]
        vals = np.stack([vals, vals.conj()])
        vecs = np.stack([vecs, vecs.conj()[:, perm, :]])
        vals = np.concatenate([vals, -vals])[fill]
        vecs = np.concatenate([vecs, signs * vecs])[fill]
        _check_pairs(w, vals, vecs, ks[rows], scale)
        values[rows] = vals
    return ks, values


def delta_of_k(k: float) -> float:
    """Expansion parameter delta with delta^2 / 2 = 1 - cos k."""
    return float(np.sqrt(2.0 * (1.0 - np.cos(k))))


def k_of_delta(delta: float) -> float:
    """Inverse of ``delta_of_k`` on [0, pi]."""
    if not 0.0 <= delta <= 2.0:
        raise ValueError("delta must lie in [0, 2]")
    return float(np.arccos(1.0 - delta * delta / 2.0))


def lambda1_expansion(k: float) -> complex:
    """Diffusive-mode eigenvalue prediction 1 - delta^2/4 (valid |k| <~ 0.3)."""
    d = delta_of_k(k)
    return complex(1.0 - d * d / 4.0)


def lambda2_expansion(k: float) -> tuple[complex, complex]:
    """Ballistic-mode predictions 1 +- (i/sqrt3) delta - (2/9) delta^2."""
    d = delta_of_k(k)
    base = 1.0 - 2.0 * d * d / 9.0
    shift = 1j * d / np.sqrt(3.0)
    return complex(base + shift), complex(base - shift)


@dataclass(frozen=True)
class KatoReduction:
    """Reduction of the perturbed eigenproblem at the eigenvalue 1 of W(0).

    ``w0`` is W(0), ``pi`` its orthogonal eigenprojection at 1, ``t1`` the
    momentum derivative of W at 0, ``r`` the reduced generator pi t1 pi.
    ``eigenvalues`` and ``vectors`` hold the eigenpairs of r on range(pi),
    the one nearest 0 first and the rest by decreasing imaginary part: for
    the Hadamard coin at M = 2, (0, v1), (i/sqrt3, v2), (-i/sqrt3, v3).
    Each vector has unit norm, and its first entry of modulus above
    ``PHASE_ENTRY_TOL`` is real and positive.  ``onb`` is an orthonormal
    basis of range(pi), from QR.
    """

    coin: Coin
    s: int
    t: int
    w0: np.ndarray
    onb: np.ndarray  # shape (rank, 4M)
    pi: np.ndarray
    t1: np.ndarray
    r: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray  # shape (rank, 4M), rows v1, v2, v3, ...

    @property
    def v1(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def v2(self) -> np.ndarray:
        return self.vectors[1]

    @property
    def v3(self) -> np.ndarray:
        return self.vectors[2]


def kato_reduction(coin: Coin | None = None, s: int = -1, t: int = 0) -> KatoReduction:
    """Projection, derivative, and reduced eigensystem at k = 0.

    One numerical path for every coin and width: the orthogonal projection
    onto the eigenvalue group of W(0) at 1 (``UNIT_GROUP_TOL``), and the
    eigenpairs of t1 represented on an orthonormal basis of its range.
    """
    if coin is None:
        coin = make_hadamard()
    w0 = w_stack(coin, s, t, [0.0])[0]
    values, vectors = eig(w0, 0.0)
    sel = np.abs(values - 1.0) <= UNIT_GROUP_TOL
    if not np.any(sel):
        raise ValueError("W(0) has no eigenvalue group at 1 for this coin")
    q, _ = np.linalg.qr(vectors[:, sel])
    pi = q @ q.conj().T
    onb = q.T.copy()
    t1 = t1_matrix(coin, t - s + 1)
    eigenvalues, vectors = _reduced_eigensystem(t1, onb)
    return KatoReduction(
        coin=coin, s=s, t=t, w0=w0, onb=onb, pi=pi, t1=t1, r=pi @ t1 @ pi,
        eigenvalues=eigenvalues, vectors=vectors,
    )


def _reduced_eigensystem(t1: np.ndarray, onb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of pi t1 pi restricted to range(pi), via its orthonormal basis."""
    small = onb.conj() @ t1 @ onb.T  # representation on the orthonormal basis
    vals, vecs = np.linalg.eig(small)
    zero = int(np.argmin(np.abs(vals)))
    order = [zero] + sorted((i for i in range(len(vals)) if i != zero), key=lambda i: -vals[i].imag)
    vals = vals[order]
    full = (onb.T @ vecs[:, order]).T
    full /= np.linalg.norm(full, axis=1)[:, None]
    lead = full[np.arange(len(full)), np.argmax(np.abs(full) > PHASE_ENTRY_TOL, axis=1)]
    full *= (np.abs(lead) / lead)[:, None]
    return vals, full


def poly_residuals(w0: np.ndarray) -> dict[str, float]:
    """Frobenius norms of the width-2 Hadamard polynomials at W(0).

    ``minimal_poly_residual`` is that of the minimal polynomial
    W(W - I)(2W^2 + W + I)(2W + I), ``minimality_witness`` that of the same
    product without (2W + I) (large when the polynomial is minimal), and
    ``char_poly_residual`` that of the characteristic polynomial
    W^2 (W - I)^3 (2W^2 + W + I)(2W + I).
    """
    eye = np.eye(w0.shape[0])
    witness = w0 @ (w0 - eye) @ (2.0 * w0 @ w0 + w0 + eye)
    char = w0 @ w0 @ np.linalg.matrix_power(w0 - eye, 3) @ (2.0 * w0 @ w0 + w0 + eye) @ (2.0 * w0 + eye)
    return {
        "minimal_poly_residual": float(np.linalg.norm(witness @ (2.0 * w0 + eye), "fro")),
        "char_poly_residual": float(np.linalg.norm(char, "fro")),
        "minimality_witness": float(np.linalg.norm(witness, "fro")),
    }


def perturbed_projection_check(red: KatoReduction, delta: float) -> dict:
    """Distance of the three perturbed eigenprojections from v_j v_j*.

    For each prediction (1 - delta^2/4, 1 +- (i/sqrt3) delta - (2/9) delta^2)
    the nearest eigenvalue of W(k(delta)) is matched and the 2-norm
    ||P_j(delta) - v_j v_j*|| reported, v_j the vectors of ``red``.  P_j is
    the outer product of the right eigenvector with row j of the inverse
    eigenvector matrix, which bakes in the biorthogonal normalization
    <l_j, r_j> = 1.  Raises when two eigenvalues are within the matching
    ambiguity tolerance of one prediction.  delta = 0 is out of range: the
    triple eigenvalue 1 of W(0) makes every match there ambiguous.
    """
    if not 0.0 < delta <= 0.3:
        raise ValueError("delta must lie in (0, 0.3]")
    k = k_of_delta(delta)
    values, vectors = eig(w_stack(red.coin, red.s, red.t, [k])[0], k)
    left = np.linalg.inv(vectors)
    matched = []
    residuals = []
    for pred, v in zip((lambda1_expansion(k), *lambda2_expansion(k)), red.vectors):
        dist = np.abs(values - pred)
        order = np.argsort(dist)
        if dist[order[1]] - dist[order[0]] < MATCH_AMBIGUITY_TOL:
            raise RuntimeError(
                f"eigenvalue matching ambiguous at delta={delta}: "
                f"{values[order[0]]} vs {values[order[1]]} for prediction {pred}"
            )
        j = int(order[0])
        matched.append(complex(values[j]))
        residuals.append(float(np.linalg.norm(np.outer(vectors[:, j], left[j]) - np.outer(v, v.conj()), 2)))
    return {"delta": float(delta), "eigenvalues": matched, "residuals": residuals}


def apply_power(w: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """W^n x for a stack of matrices w (K, d, d) and vectors x (K, d, r).

    Binary powering: x takes the factor W^(2^j) of each set bit j of n, and
    W^(2^j) comes from squaring, so there are log2(n) squarings and
    popcount(n) products with x; the matrix W^n itself is never formed.
    """
    if n < 0:
        raise ValueError(f"power must be non-negative, got {n}")
    while n:
        if n & 1:
            x = w @ x
        n >>= 1
        if n:
            w = w @ w
    return x


def snapshot_measure(state: BandState, n: int) -> ComplexMeasure:
    """mu_n of an initial state (n = 0, data at u = 0) without stepping.

    With K = 2n + 1 momenta k_i = 2 pi i / K, the characteristic function
    chi(k) = sum_x mu_n(x) e^{ikx} = q^T W(k)^n phi, where phi is the
    state's 4M vector and q puts LL + RR on the v = 0 block; K exceeds
    the support [-n, n], so mu_n(x) = fft(chi)[x mod K] / K exactly.
    W(k) is built and powered (``apply_power``) only for i <= n, in chunks
    of ``GRID_CHUNK_BYTES``; the reflection W(2 pi - k) = Pi conj(W(k)) Pi^T
    gives chi(k_{K-i}) = conj((Pi^T q)^T W(k_i)^n conj(Pi^T phi)) for every
    coin and start.  As in the real-space engine, the cells off the
    state's one sublattice are exactly 0 and a float64 state gives a
    measure with zero imaginary part.  The rounding residue set to 0 there
    is checked first: above ``SNAPSHOT_RESIDUE_TOL`` times max(1, |phi|)
    it raises RuntimeError, since chi is then wrong at some k != 0.
    """
    if state.n != 0:
        raise ValueError(f"snapshot_measure needs the initial state, got n = {state.n}")
    if n < 0:
        raise ValueError(f"snapshot time must be non-negative, got {n}")
    m = state.m
    perm = reflection(m)
    phi = state.dense()[:, :, state.center].T.reshape(4 * m).astype(complex)
    real = state.packed.dtype.kind == "f"
    vecs = np.stack([phi, phi[perm].conj()], axis=-1)  # phi and conj(Pi^T phi)
    q = 4 * -state.s + np.array([LL, RR])
    q_mirror = perm[q]  # (Pi^T q)^T y = y[perm[q]].sum()
    size = 2 * n + 1
    ks = 2.0 * np.pi * np.arange(n + 1) / size
    chi = np.empty(size, dtype=complex)
    step = max(1, GRID_CHUNK_BYTES // (16 * (4 * m) ** 2))
    for lo in range(0, n + 1, step):
        own = np.arange(lo, min(lo + step, n + 1))
        x = np.broadcast_to(vecs, (len(own), 4 * m, 2))
        y = apply_power(_w_stack(state.blocks, m, ks[own]), n, x)
        chi[own] = y[:, q, 0].sum(axis=1)
        mirrored = own > 0
        chi[size - own[mirrored]] = y[mirrored][:, q_mirror, 1].sum(axis=1).conj()
    values = np.roll(np.fft.fft(chi) / size, n)  # index x + n holds mu(x mod K)
    tol = SNAPSHOT_RESIDUE_TOL * max(1.0, float(np.linalg.norm(phi)))  # |chi| <= sqrt(2) |phi|
    if len(state.sublattices) == 1:
        off = values[(state.sublattices[0] + 1) % 2 :: 2]
        _check_residue("off-sublattice |mu|", np.abs(off), tol, n)
        off[:] = 0
    if real:
        _check_residue("|Im mu| of a real start", np.abs(values.imag), tol, n)
        values = values.real.astype(complex)
    return ComplexMeasure(n=n, values=values)


def _check_residue(what: str, residue: np.ndarray, tol: float, n: int) -> None:
    worst = float(np.max(residue, initial=0.0))
    if not worst <= tol:
        raise RuntimeError(f"snapshot {what} {worst:.3e} > tol {tol:.1e} at n={n}")
