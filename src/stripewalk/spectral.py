"""Momentum-space operator of the stripe walk and its spectral analysis.

For momentum k the walk restricted to the M stripe rows is the
4M x 4M block-tridiagonal compression

    W(k) = [ V(k)  PQ              ]        V(k) = e^{-ik} PP + e^{ik} QQ,
           [ QP    V(k)  PQ        ]
           [       QP    V(k) ...  ]

with one 4x4 block per row v, blocks ordered v ascending (block v + M // 2): the
superdiagonal PQ couples row v to v+1, the subdiagonal QP to v-1.  W(k) is
a non-normal contraction; its spectrum near the unit circle controls the
long-time measure.

Near k = 0 the eigenvalue 1 of W(0), of multiplicity 2M - 1 for a
coin with no zero entry, splits according to the reduced generator
R = Pi T1 Pi on the unperturbed eigenspace, where Pi is the (orthogonal)
eigenprojection of 1 and T1 = dW/dk(0) (Kato, *Perturbation Theory for
Linear Operators*, 1966).  ``kato_reduction`` computes both numerically,
by one path for every coin and width, together with the second-order
coefficients tau_j of the eigenvalues 1 + k rho_j + k^2 tau_j, and
``first_order_match`` measures the first-order prediction against the
eigenvalues of W(k).  The reduction is the mode table of the weak limit
(Grimmett-Janson-Scudo 2004): mode j travels at speed mu_j = -i rho_j
with width sigma_j^2 = -2 Re tau_j - mu_j^2 and carries the mass
c_j = (q^T v_j)(v_j^H phi) of a start vector phi.  The closed forms of
the Hadamard M = 2 case (its two cubics, its delta expansions and
polynomials, the paper's basis and its three limit modes) are test
oracles, not library code.

Two exact symmetries hold for every coin: the reflection
W(-k) = Pi conj(W(k)) Pi^T (``reflection``) and the pi-shift
W(k + pi) = -D W(k) D with D = diag((-1)^v) (``shift_signs``).
``spectrum_grid`` solves one momentum per orbit of the two, about a
quarter of its grid, and derives the other rows' eigenpairs.

Every coin H = [[a, b], [c, d]] is gauge-equivalent to the real coin
R = [[|a|, |b|], [|b|, -|a|]]: W_H(k) = T W_R(k) T^H with a diagonal T of
closed-form phases (``real_gauge``), so the spectrum of W(k) depends on
the coin only through |a|.  W_R(k) commutes with Pi and with the
antiunitary K = F conj, F swapping LL <-> RR and negating LR and RL on
every row.  A fixed basis of Pi-eigenvectors that K fixes (``split_basis``)
turns W_R(k) into two real blocks, of sizes 2M and 2M at even M and
2M + 1 and 2M - 1 at odd M, and those are what ``spectrum_grid`` hands to
LAPACK.

It also holds the spectral snapshot engine: ``snapshot_measure`` reads
one late measure mu_n off W(k)^n on 2n + 1 momenta and one FFT, with no
stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coin import LL, LR, RL, RR, Coin, CoinBlocks, blocks, make_coin
from .walker import BandState, ComplexMeasure, stripe_for_width

__all__ = [
    "KatoReduction",
    "start_vector",
    "w_stack",
    "reflection",
    "shift_signs",
    "v_block",
    "t1_block",
    "t1_matrix",
    "eig",
    "RealGauge",
    "real_gauge",
    "split_basis",
    "spectrum_grid",
    "kato_reduction",
    "first_order_match",
    "apply_power",
    "snapshot_measure",
]

EIG_SIZE_LIMIT = 256
#: Bytes of W(k) matrices that ``spectrum_grid`` holds per chunk of momenta,
#: images included: 2 solved k and their 6 images at M = 10.  Larger chunks
#: raised peak memory (41 MB at 512 KiB, 82 MB at 8 MiB for M = 10, kgrid
#: 1024, against 39 MB) and ran no faster.
GRID_CHUNK_BYTES = 1 << 18
#: Distance from 1 within which a W(0) eigenvalue joins the group that
#: ``kato_reduction`` projects onto, for every coin and width.
UNIT_GROUP_TOL = 1e-6
#: A reduced eigenvector's phase is fixed by its first entry of modulus
#: above this value.  The first entry of largest modulus would not do:
#: the Hadamard zero mode at M = 2 has entries +-1/2 that tie.
PHASE_ENTRY_TOL = 1e-8
_R2 = float(np.sqrt(0.5))  # 1/sqrt2, correctly rounded


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


def w_stack(b: CoinBlocks, m: int, ks: Sequence[float]) -> np.ndarray:
    """W(k) of the width-m stripe for every momentum of ``ks`` as one (K, 4M, 4M) array."""
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
    for every coin.  The signs run from +1 at the first row: the overall
    sign of D drops out of D W D.
    """
    return np.repeat((-1.0) ** np.arange(m), 4)


def _check_size(n: int) -> None:
    if n > EIG_SIZE_LIMIT:
        raise ValueError(f"matrix size {n} exceeds limit {EIG_SIZE_LIMIT}")


def _solve(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eig(mats)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc


def _residuals(mats: np.ndarray, values: np.ndarray, vectors: np.ndarray, scale) -> np.ndarray:
    """The largest ||W x - lambda x|| of each matrix in a stack, over max(||W||_2, 1), ||W||_2 given as ``scale``."""
    residual = np.max(np.linalg.norm(mats @ vectors - vectors * values[:, None, :], axis=-2), axis=-1)
    return residual / np.maximum(scale, 1.0)


def eig(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, unit right eigenvectors (columns) and eigenpair residual of one matrix W.

    The residual is the largest ||W x - lambda x|| over max(||W||_2, 1).
    A matrix larger than ``EIG_SIZE_LIMIT`` is rejected.
    """
    _check_size(w.shape[0])
    mats = w[None]
    values, vectors = _solve(mats)
    residual = _residuals(mats, values, vectors, np.linalg.norm(mats, 2, axis=(-2, -1)))
    return values[0], vectors[0], float(residual[0])


#: One row's orthonormal basis of C^4 whose columns x all satisfy
#: F conj(x) = x, F the flip that swaps LL <-> RR and negates LR and RL:
#: (LL + RR)/sqrt2, i LR, i RL and i (LL - RR)/sqrt2.  Column j sits at
#: basis index j, so the reflection maps column j of row v onto column
#: ``reflection(m)[j]`` of row m - 1 - v, as it maps the unit vectors.
FLIP_BASIS = np.array(
    [
        [_R2, 0, 0, 1j * _R2],
        [0, 1j, 0, 0],
        [0, 0, 1j, 0],
        [_R2, 0, 0, -1j * _R2],
    ]
)


@dataclass(frozen=True)
class RealGauge:
    """The real coin R = [[|a|, |b|], [|b|, -|a|]] of a coin H and its gauge.

    W_H(k) = T W_R(k) T^H for every k and width, with T diagonal:
    e^{-i phi v} (1, e^{i chi}, e^{-i chi}, 1) on row v over (LL, LR, RL,
    RR), the diagonal that ``phases`` returns.  So the spectrum of W(k)
    depends on the coin only through |a|.
    """

    chi: float
    phi: float
    real: Coin

    def phases(self, m: int) -> np.ndarray:
        """Diagonal of T for the width-m stripe, one entry per basis index."""
        rows = np.exp(-1j * self.phi * np.arange(m))[:, None]
        return (rows * np.exp(1j * self.chi * np.array([0, 1, -1, 0]))).ravel()


def real_gauge(coin: Coin) -> RealGauge:
    """The gauge of ``RealGauge`` for a coin H = [[a, b], [c, d]], in closed form.

    chi = arg a - arg c and phi = 2 arg a - arg b - arg c; the entries of
    W_H and W_R then agree up to T, given the unitarity of H.  A zero entry
    has no phase: with a = 0 (so d = 0), chi = phi = arg b - arg c, and
    with b = 0 (so c = 0), chi = phi = arg a - arg(-d).
    """
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    if a == 0:
        chi = phi = float(np.angle(b) - np.angle(c))
    elif b == 0:
        chi = phi = float(np.angle(a) - np.angle(-d))
    else:
        chi = float(np.angle(a) - np.angle(c))
        phi = float(2 * np.angle(a) - np.angle(b) - np.angle(c))
    return RealGauge(chi=chi, phi=phi, real=make_coin(abs(a), abs(b), abs(b), -abs(a)))


def split_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases S+ and S- of the eigenspaces +1 and -1 of Pi, as (4M, n) columns.

    Both Pi (``reflection``) and the antiunitary K = F conj, F the flip of
    ``FLIP_BASIS`` on every row, commute with W_R(k) of a real coin and
    with each other.  Each column is (e_j +- Pi e_j)/sqrt2 over the flip
    basis e, or e_j itself where Pi fixes it, so K fixes it too and the
    blocks S+^H W_R(k) S+ and S-^H W_R(k) S- are real.  Their sizes are
    (2M, 2M) for even M and (2M + 1, 2M - 1) for odd M.
    """
    perm = reflection(m)
    e = np.kron(np.eye(m), FLIP_BASIS)
    j = np.arange(4 * m)
    pair, fixed = j < perm, j == perm
    plus = np.concatenate([(e[:, pair] + e[:, perm[pair]]) * _R2, e[:, fixed]], axis=1)
    return plus, (e[:, pair] - e[:, perm[pair]]) * _R2


def _orbits(kgrid: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's orbits under k -> -k and k -> k + pi, one column each.

    Row 0 holds the solved index i of each orbit, rows 1-3 the indices of
    -k_i, k_i + pi and pi - k_i (kgrid where one falls between the momenta
    of an odd grid).  The second array marks the one entry of each grid
    row that fills it.
    """
    # Twice the grid index of each image; an odd one is off the grid.
    doubled = 2 * np.arange(kgrid)
    images = np.stack([doubled, -doubled, doubled + kgrid, kgrid - doubled]) % (2 * kgrid)
    images = np.where(images % 2 == 0, images // 2, kgrid)
    # Solve the smallest k_i of each orbit; each row of the grid takes its
    # pair from the first of that k_i's four images that lands on it.
    orbits = images[:, images.min(axis=0) == images[0]]
    fills = np.zeros(orbits.size, dtype=bool)
    fills[np.unique(orbits, return_index=True)[1]] = True
    return orbits, fills.reshape(orbits.shape) & (orbits < kgrid)


def spectrum_grid(coin: Coin, m: int, kgrid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Eigenvalues of W(k) of the width-m stripe at k_i = 2 pi i / kgrid, i = 0..kgrid-1.

    Returns the momenta (kgrid,), the eigenvalues (kgrid, 4M), those of
    the block S+ first, the eigenpair residual of ``eig`` per momentum
    (kgrid,), and the engine record: the solver, the sizes of the two real
    blocks, the counts of solved and derived momenta, and the gauge (|a|,
    chi and phi of ``real_gauge``).  The reflection k -> -k (``reflection``) and the
    shift k -> k + pi (``shift_signs``) split the grid into orbits of 1, 2
    or 4 momenta (the shift only where kgrid is even), and only the first
    k_i of each orbit, about kgrid/4 of them, is solved.  It is solved in
    the real gauge (``real_gauge``): W(k) = T W_R(k) T^H, and W_R(k) splits
    into the two real blocks of ``split_basis``, which go to the eigensolver
    as float64 matrices; an eigenvector y of a block gives x = T S y.  A
    solved pair (lambda, x) gives row kgrid - i the pair (conj lambda,
    Pi conj x), row i + kgrid/2 the pair (-lambda, D x) and row kgrid/2 - i
    the pair (-conj lambda, D Pi conj x); each row is filled once.  Every
    pair, solved or derived, is measured against W of the given coin built
    at its own k, so the residual tests the gauge and the split as well as
    the symmetries; ||W(k)||_2 is the same at every k.
    The grid is built in chunks of at most ``GRID_CHUNK_BYTES`` of
    matrices.
    """
    stripe_for_width(m)  # rejects m < 1
    _check_size(4 * m)
    b = blocks(coin)
    gauge = real_gauge(coin)
    real = blocks(gauge.real)
    perm, signs = reflection(m), shift_signs(m)[:, None]
    bases = split_basis(m)
    lifts = [gauge.phases(m)[:, None] * s for s in bases]  # T S+ and T S-
    # W(k) = W(0) diag(e^{-ik}, 1, 1, e^{ik}) on every row: PP and QQ act
    # only on LL and RR, so ||W(k)||_2 = ||W(0)||_2 on the whole grid.
    scale = np.linalg.norm(w_stack(b, m, [0.0])[0], 2)
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    values = np.empty((kgrid, 4 * m), dtype=complex)
    residuals = np.empty(kgrid)
    orbits, fills = _orbits(kgrid)
    # Each solved k brings at most three images into the chunk.
    step = max(1, GRID_CHUNK_BYTES // (4 * 16 * (4 * m) ** 2))
    for lo in range(0, orbits.shape[1], step):
        fill = fills[:, lo : lo + step]
        rows = orbits[:, lo : lo + step][fill]  # the solved k first
        w = w_stack(b, m, ks[rows])
        w_real = w_stack(real, m, ks[rows[: fill.shape[1]]])
        parts = [(s.conj().T @ w_real @ s).real for s in bases]
        pairs = [_solve(p) for p in parts]
        vals = np.concatenate([v for v, _ in pairs], axis=-1)
        vecs = np.concatenate([lift @ y for lift, (_, y) in zip(lifts, pairs)], axis=-1)
        vals = np.stack([vals, vals.conj()])
        vecs = np.stack([vecs, vecs.conj()[:, perm, :]])
        vals = np.concatenate([vals, -vals])[fill]
        vecs = np.concatenate([vecs, signs * vecs])[fill]
        residuals[rows] = _residuals(w, vals, vecs, scale)
        values[rows] = vals
    return ks, values, residuals, {
        "solver": "dgeev",
        "blocks": [s.shape[1] for s in bases],
        "solved_k": orbits.shape[1],
        "derived_k": kgrid - orbits.shape[1],
        "gauge": {"abs_a": abs(coin.a), "chi": gauge.chi, "phi": gauge.phi},
    }


@dataclass(frozen=True)
class KatoReduction:
    """Reduction of the perturbed eigenproblem at the eigenvalue 1 of W(0): the mode table.

    ``w0`` is W(0), ``w0_residual`` the eigenpair residual of its solve
    (``eig``), ``pi`` its orthogonal eigenprojection at 1, ``t1`` the
    momentum derivative of W at 0, ``r`` the reduced generator pi t1 pi.
    ``eigenvalues`` and ``vectors`` hold the eigenpairs of r on range(pi),
    the one nearest 0 first and the rest by decreasing imaginary part, so
    by decreasing speed.  Each vector has unit norm, and its first entry
    of modulus above ``PHASE_ENTRY_TOL`` is real and positive.  ``onb`` is
    an orthonormal basis of range(pi), from QR.  ``tau`` holds the
    second-order coefficient of each mode: W(k) has the eigenvalues
    1 + k rho_j + k^2 tau_j + O(k^3).
    """

    coin: Coin
    m: int
    w0: np.ndarray
    w0_residual: float
    onb: np.ndarray  # shape (rank, 4M)
    pi: np.ndarray
    t1: np.ndarray
    r: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray  # shape (rank, 4M)
    tau: np.ndarray

    @property
    def speeds(self) -> np.ndarray:
        """The ballistic speed mu_j = -i rho_j of each mode."""
        return (-1j * self.eigenvalues).real

    @property
    def widths(self) -> np.ndarray:
        """The Gaussian width sigma_j^2 = -2 Re tau_j - mu_j^2 of each mode in (x - mu_j n) / sqrt(n).

        The eigenvalue 1 + i mu k + tau k^2 has the logarithm
        i mu k + (tau + mu^2 / 2) k^2, whose real part gives the width.
        """
        return -2.0 * self.tau.real - self.speeds**2

    def masses(self, phi: np.ndarray) -> np.ndarray:
        """The mass c_j = (q^T v_j)(v_j^H phi) of each mode for the start vector phi (``start_vector``).

        q puts LL + RR on the v = 0 row; the masses sum to q^T phi, the initial measure's sum.
        """
        return self.vectors[:, _origin_rows(self.m)].sum(axis=1) * (self.vectors.conj() @ phi)


def _origin_rows(m: int) -> np.ndarray:
    """Indices of LL and RR on the v = 0 row of the width-m stripe."""
    return 4 * (m // 2) + np.array([LL, RR])


def kato_reduction(coin: Coin, m: int) -> KatoReduction:
    """Projection, derivative, reduced eigensystem and second-order coefficients at k = 0.

    One numerical path for every coin and width: the orthogonal projection
    onto the eigenvalue group of W(0) at 1 (``UNIT_GROUP_TOL``), and the
    eigenpairs of t1 represented on an orthonormal basis of its range.
    The second-order coefficient of mode j is

        tau_j = v_j^H (T2 / 2 - T1 S T1) v_j,

    T2 = d^2 W / dk^2 (0), block-diagonal with -(PP + QQ) per row, and S
    the reduced resolvent of W(0) at 1.  The unit-modulus eigenvectors of
    the contraction W(0) are eigenvectors of W(0)^H too, so range(pi)'s
    orthogonal complement is invariant, and S = C (C^H (W(0) - I) C)^{-1}
    C^H on an orthonormal basis C of it.  ``pinv(W(0) - I)`` breaks for
    some coins from M = 30 on: the zero singular values reach its cutoff.
    """
    stripe_for_width(m)  # rejects m < 1
    b = blocks(coin)
    w0 = w_stack(b, m, [0.0])[0]
    values, vectors, residual = eig(w0)
    sel = np.abs(values - 1.0) <= UNIT_GROUP_TOL
    if not np.any(sel):
        raise ValueError("W(0) has no eigenvalue group at 1 for this coin")
    q, _ = np.linalg.qr(vectors[:, sel])
    pi = q @ q.conj().T
    onb = q.T.copy()
    t1 = t1_matrix(coin, m)
    eigenvalues, vectors = _reduced_eigensystem(t1, onb)
    c = np.linalg.qr(onb.T, mode="complete")[0][:, len(onb) :]
    s = c @ np.linalg.solve(c.conj().T @ (w0 - np.eye(4 * m)) @ c, c.conj().T)
    t2 = np.kron(np.eye(m), -v_block(b, 0.0))
    tau = np.einsum("ji,ik,jk->j", vectors.conj(), t2 / 2 - t1 @ s @ t1, vectors)
    return KatoReduction(
        coin=coin, m=m, w0=w0, w0_residual=residual, onb=onb, pi=pi, t1=t1, r=pi @ t1 @ pi,
        eigenvalues=eigenvalues, vectors=vectors, tau=tau,
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


def first_order_match(red: KatoReduction, k: float) -> dict:
    """Each reduced mode j against the eigenvalue of W(k) nearest 1 + k rho_j, rho_j = ``red.eigenvalues``.

    Returns ``eigenvalues`` (the matched ones), ``errors`` (|lambda_j - 1 -
    k rho_j|, O(k^2)), ``distances`` (the 2-norm ||P_j(k) - v_j v_j*||,
    O(k), v_j the vectors of ``red``), ``margin``, the least gap between
    the distances of a mode's nearest and second-nearest eigenvalue, and
    ``residual``, the eigenpair residual of W(k) (``eig``).  A small margin
    (at tiny k, or when two rho_j coincide) means the predictions cannot
    tell the eigenvalues apart.  P_j is the outer product of the right
    eigenvector with its row of the inverse eigenvector matrix, which
    bakes in the biorthogonal normalization <l_j, r_j> = 1.  W(k) is
    solved once.
    """
    values, vectors, residual = eig(w_stack(blocks(red.coin), red.m, [k])[0])
    dist = np.abs(values - (1.0 + k * red.eigenvalues)[:, None])  # (modes, 4M)
    order = np.argsort(dist, axis=1)
    nearest = np.take_along_axis(dist, order[:, :2], axis=1)
    j = order[:, 0]
    projections = vectors.T[j][:, :, None] * np.linalg.inv(vectors)[j][:, None, :]
    modes = red.vectors[:, :, None] * red.vectors.conj()[:, None, :]
    return {
        "eigenvalues": values[j],
        "errors": nearest[:, 0],
        "distances": np.linalg.norm(projections - modes, 2, axis=(1, 2)),
        "margin": float(np.min(nearest[:, 1] - nearest[:, 0])),
        "residual": residual,
    }


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


def start_vector(state: BandState) -> np.ndarray:
    """The 4M vector phi of an initial state: each row's four components at u = 0, rows v ascending."""
    return state.dense()[:, :, state.center].T.reshape(4 * state.m).astype(complex)


def snapshot_measure(state: BandState, n: int) -> tuple[ComplexMeasure, dict, complex]:
    """mu_n of an initial state (n = 0, data at u = 0) without stepping, its rounding residues, and chi(0).

    With K = 2n + 1 momenta k_i = 2 pi i / K, the characteristic function
    chi(k) = sum_x mu_n(x) e^{ikx} = q^T W(k)^n phi, where phi is the
    state's 4M vector (``start_vector``) and q puts LL + RR on the v = 0
    block; K exceeds
    the support [-n, n], so mu_n(x) = fft(chi)[x mod K] / K exactly.
    W(k) is built and powered (``apply_power``) only for i <= n, in chunks
    of ``GRID_CHUNK_BYTES``; the reflection W(2 pi - k) = Pi conj(W(k)) Pi^T
    gives chi(k_{K-i}) = conj((Pi^T q)^T W(k_i)^n conj(Pi^T phi)) for every
    coin and start.  As in the real-space engine, the cells off the
    state's one sublattice are exactly 0 and a float64 state gives a
    measure with zero imaginary part.  The residues set to 0 there are
    returned, each as its largest modulus over max(1, |phi|):
    ``off_sublattice`` and ``imag`` (0 where the state has two sublattices
    or complex data).  A residue well above rounding means chi is wrong at
    some k != 0.  chi(0) is the sum of mu_n before that zeroing, so the
    measure's conservation is read at k = 0 alone.
    """
    if state.n != 0:
        raise ValueError(f"snapshot_measure needs the initial state, got n = {state.n}")
    if n < 0:
        raise ValueError(f"snapshot time must be non-negative, got {n}")
    m = state.m
    perm = reflection(m)
    phi = start_vector(state)
    real = state.packed.dtype.kind == "f"
    vecs = np.stack([phi, phi[perm].conj()], axis=-1)  # phi and conj(Pi^T phi)
    q = _origin_rows(m)
    size = 2 * n + 1
    ks = 2.0 * np.pi * np.arange(size) / size
    chi = np.empty(size, dtype=complex)
    # On the odd grid the orbits are the reflection pairs: row 0 holds
    # i = 0..n, row 1 the index K - i that each i > 0 fills.
    orbits, fills = _orbits(size)
    step = max(1, GRID_CHUNK_BYTES // (16 * (4 * m) ** 2))
    for lo in range(0, n + 1, step):
        own, mirror = orbits[:2, lo : lo + step]
        mirrored = fills[1, lo : lo + step]
        x = np.broadcast_to(vecs, (len(own), 4 * m, 2))
        y = apply_power(w_stack(state.blocks, m, ks[own]), n, x)
        chi[own] = y[:, q, 0].sum(axis=1)
        chi[mirror[mirrored]] = y[mirrored][:, perm[q], 1].sum(axis=1).conj()  # (Pi^T q)^T y
    values = np.roll(np.fft.fft(chi) / size, n)  # index x + n holds mu(x mod K)
    scale = max(1.0, float(np.linalg.norm(phi)))  # |chi| <= sqrt(2) |phi|
    residues = {"off_sublattice": 0.0, "imag": 0.0}
    if len(state.sublattices) == 1:
        off = values[(state.sublattices[0] + 1) % 2 :: 2]
        residues["off_sublattice"] = float(np.max(np.abs(off), initial=0.0)) / scale
        off[:] = 0
    if real:
        residues["imag"] = float(np.max(np.abs(values.imag), initial=0.0)) / scale
        values = values.real.astype(complex)
    return ComplexMeasure(n=n, values=values), residues, complex(chi[0])
