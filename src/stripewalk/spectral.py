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

For the Hadamard coin at M = 2 the nonzero spectrum is carried by two
cubics in closed form; near k = 0 the triple eigenvalue 1 splits according
to the reduced generator R = Pi T1 Pi on the unperturbed eigenspace, where
Pi is the (orthogonal) eigenprojection of 1 and T1 = dW/dk(0).  This module
implements both the exact objects and the numerical checks tying them to
the evolution engine.

It also holds the spectral snapshot engine: ``snapshot_measure`` reads
one late measure mu_n off W(k)^n on 2n + 1 momenta and one FFT, with no
stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coin import LL, LR, RL, RR, Coin, CoinBlocks, blocks, make_hadamard
from .walker import BandState, ComplexMeasure

__all__ = [
    "WOperator",
    "EigResult",
    "KatoReduction",
    "w_stack",
    "build_w",
    "reflection",
    "v_block",
    "t1_block",
    "t1_matrix",
    "eig",
    "spectrum_grid",
    "eig_multiplicities",
    "cubic_roots",
    "cubic_spectrum_m2",
    "lambda1_expansion",
    "lambda2_expansion",
    "delta_of_k",
    "k_of_delta",
    "cardano_lambda1_j0",
    "cardano_lambda2_j0",
    "kato_reduction",
    "minimal_poly_residual",
    "char_poly_residual",
    "minimality_witness",
    "perturbed_projection_check",
    "spectral_projections",
    "char_function",
    "apply_power",
    "snapshot_measure",
]

EIG_SIZE_LIMIT = 256
#: Bytes of W(k) matrices that ``spectrum_grid`` holds per chunk of momenta:
#: 5 solved and 5 mirrored k at M = 10.  Larger chunks raised peak memory
#: (41 MB at 512 KiB, 75 MB at 8 MiB for M = 10, kgrid 1024) and ran no faster.
GRID_CHUNK_BYTES = 1 << 18
EIG_RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-8
MATCH_AMBIGUITY_TOL = 1e-6
#: Distance from 1 within which a W(0) eigenvalue joins the group that a
#: non-Hadamard coin's Kato projection spans.
UNIT_GROUP_TOL = 1e-6
#: Largest off-sublattice |mu| and, for a float64 start, largest |Im mu|
#: that ``snapshot_measure`` may round to exactly 0, times max(1, |phi|).
#: Measured residues stay below 1e-14 (M <= 10, n <= 5e4).
SNAPSHOT_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class WOperator:
    """The 4M x 4M momentum-space matrix at one value of k."""

    coin: Coin
    s: int
    t: int
    k: float
    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.t - self.s + 1


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
    if not s <= 0 <= t:
        raise ValueError(f"stripe must satisfy s <= 0 <= t, got ({s}, {t})")
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


def build_w(coin: Coin, s: int, t: int, k: float) -> WOperator:
    """Assemble W(k) for stripe rows v in {s..t}: the one-k case of ``w_stack``."""
    return WOperator(coin=coin, s=s, t=t, k=float(k), matrix=w_stack(coin, s, t, [k])[0])


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


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition of one W(k): values, right vectors, max residual."""

    values: np.ndarray
    vectors: np.ndarray  # columns are right eigenvectors, unit norm
    residual: float


def _check_size(n: int) -> None:
    if n > EIG_SIZE_LIMIT:
        raise ValueError(f"matrix size {n} exceeds limit {EIG_SIZE_LIMIT}")


def _solve(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eig(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc


def _check_pairs(mats: np.ndarray, values: np.ndarray, vectors: np.ndarray, ks) -> np.ndarray:
    """Max residual ||W x - lambda x|| of each matrix in a stack, checked.

    Raises if a residual exceeds ``EIG_RESIDUAL_TOL`` times max(||W||_2, 1)
    of its own matrix, or is NaN; the message names the failing momenta.
    """
    scale = np.linalg.norm(mats, 2, axis=(-2, -1))
    residual = np.max(np.linalg.norm(mats @ vectors - vectors * values[:, None, :], axis=-2), axis=-1)
    bad = ~(residual <= EIG_RESIDUAL_TOL * np.maximum(scale, 1.0))
    if np.any(bad):
        raise RuntimeError(
            f"eigenpair residual {np.max(residual[bad]):.3e} exceeds "
            f"{EIG_RESIDUAL_TOL:.1e} * ||W|| at k = {np.asarray(ks)[bad].tolist()}"
        )
    return residual


def eig(w: WOperator) -> EigResult:
    """Dense eigendecomposition of W(k) with a residual check.

    Raises if the matrix exceeds ``EIG_SIZE_LIMIT``, if LAPACK fails to
    converge, or if any residual ||W x - lambda x|| exceeds
    ``EIG_RESIDUAL_TOL`` times max(||W||_2, 1).
    """
    _check_size(w.matrix.shape[0])
    mats = w.matrix[None]
    values, vectors = _solve(mats)
    residual = _check_pairs(mats, values, vectors, [w.k])
    return EigResult(values=values[0], vectors=vectors[0], residual=float(residual[0]))


def spectrum_grid(coin: Coin, s: int, t: int, kgrid: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of W(k) at k_i = 2 pi i / kgrid, i = 0..kgrid-1.

    Returns the momenta (kgrid,) and the eigenvalues (kgrid, 4M) in LAPACK
    order.  Only k_i with i <= kgrid/2 go to the eigensolver: row kgrid-i
    takes conj(lambda) with eigenvectors Pi conj(x) (see ``reflection``).
    Every pair, solved or mirrored, passes the residual check of ``eig``
    against W built at its own k.  The grid is built in chunks of at most
    ``GRID_CHUNK_BYTES`` of matrices.
    """
    if not s <= 0 <= t:
        raise ValueError(f"stripe must satisfy s <= 0 <= t, got ({s}, {t})")
    m = t - s + 1
    _check_size(4 * m)
    b = blocks(coin)
    perm = reflection(m)
    ks = 2.0 * np.pi * np.arange(kgrid) / kgrid
    values = np.empty((kgrid, 4 * m), dtype=complex)
    solved = np.arange(kgrid // 2 + 1)
    # Each solved k brings at most one mirrored W into the chunk.
    step = max(1, GRID_CHUNK_BYTES // (2 * 16 * (4 * m) ** 2))
    for lo in range(0, len(solved), step):
        own = solved[lo : lo + step]
        mirrored = (own > 0) & (2 * own < kgrid)
        rows = np.concatenate([own, kgrid - own[mirrored]])
        w = _w_stack(b, m, ks[rows])
        vals, vecs = _solve(w[: len(own)])
        vals = np.concatenate([vals, vals[mirrored].conj()])
        vecs = np.concatenate([vecs, vecs[mirrored].conj()[:, perm, :]])
        _check_pairs(w, vals, vecs, ks[rows])
        values[rows] = vals
    return ks, values


def eig_multiplicities(
    values: np.ndarray, tol: float = CLUSTER_TOL
) -> list[tuple[complex, int]]:
    """Cluster eigenvalues within ``tol``; returns (center, multiplicity) pairs."""
    remaining = list(np.asarray(values, dtype=complex))
    clusters: list[tuple[complex, int]] = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        rest = []
        for z in remaining:
            if abs(z - seed) <= tol:
                members.append(z)
            else:
                rest.append(z)
        remaining = rest
        clusters.append((complex(np.mean(members)), len(members)))
    return clusters


def cubic_roots(coeffs: Sequence[complex]) -> np.ndarray:
    """Roots of a cubic: companion-matrix eigenvalues, Newton-polished."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (4,) or c[0] == 0:
        raise ValueError("expected four coefficients with nonzero leading term")
    roots = np.roots(c)
    dc = np.polyder(c)
    for _ in range(2):
        f = np.polyval(c, roots)
        fp = np.polyval(dc, roots)
        ok = np.abs(fp) > 1e-30
        roots = np.where(ok, roots - f / np.where(ok, fp, 1.0), roots)
    return roots


def cubic_spectrum_m2(k: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the two Hadamard M = 2 cubics at momentum k.

    The nonzero spectrum of W(k) is the union of the root sets of

        2 L^3 + (1 - 2 cos k) L^2 - 1 = 0,
        2 L^3 - (1 + 2 cos k) L^2 + 1 = 0,

    together with the double eigenvalue 0.
    """
    c = np.cos(k)
    first = cubic_roots([2.0, 1.0 - 2.0 * c, 0.0, -1.0])
    second = cubic_roots([2.0, -(1.0 + 2.0 * c), 0.0, 1.0])
    return first, second


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


def cardano_lambda1_j0(k: float) -> float:
    """Radical form of the dominant root of the first cubic (real branch).

    Cross-check only: root finding goes through ``cubic_spectrum_m2``
    because the cube roots are multivalued away from the real branch.
    """
    r = float(np.cos(k))
    eta = 53.0 + 6.0 * r - 12.0 * r * r + 8.0 * r**3 + 6.0 * np.sqrt(6.0) * np.sqrt(
        13.0 + 3.0 * r - 6.0 * r * r + 4.0 * r**3
    )
    cr = np.cbrt(eta)
    s = 2.0 * r - 1.0
    return float((s + s * s / cr + cr) / 6.0)


def cardano_lambda2_j0(k: float) -> float:
    """Radical form of the real root of the second cubic (real branch)."""
    r = float(np.cos(k))
    zeta = -53.0 + 6.0 * r + 12.0 * r * r + 8.0 * r**3 + 6.0 * np.sqrt(6.0) * np.sqrt(
        13.0 - 3.0 * r - 6.0 * r * r - 4.0 * r**3
    )
    cr = np.cbrt(zeta)
    s = 2.0 * r + 1.0
    return float((s + s * s / cr + cr) / 6.0)


@dataclass(frozen=True)
class KatoReduction:
    """Reduction of the perturbed eigenproblem at the triple eigenvalue 1.

    ``pi`` is the orthogonal eigenprojection, ``t1`` the momentum derivative
    of W at 0, ``r`` the reduced generator pi t1 pi.  ``eigenvalues`` and
    ``vectors`` hold the eigenpairs of r on range(pi): (0, v1),
    (i/sqrt3, v2), (-i/sqrt3, v3).  ``onb`` is an orthonormal basis
    (phi1, phi2, phi3) of the unperturbed eigenspace.
    """

    coin: Coin
    s: int
    t: int
    onb: np.ndarray  # shape (3, 4M), rows phi1, phi2, phi3
    pi: np.ndarray
    t1: np.ndarray
    r: np.ndarray
    eigenvalues: np.ndarray  # (0, +i/sqrt3, -i/sqrt3)
    vectors: np.ndarray  # shape (3, 4M), rows v1, v2, v3

    @property
    def v1(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def v2(self) -> np.ndarray:
        return self.vectors[1]

    @property
    def v3(self) -> np.ndarray:
        return self.vectors[2]


def _is_hadamard(coin: Coin) -> bool:
    h = make_hadamard()
    return bool(np.allclose(coin.matrix, h.matrix, atol=1e-14))


def kato_reduction(coin: Coin | None = None, s: int = -1, t: int = 0) -> KatoReduction:
    """Projection, derivative, and reduced eigensystem at k = 0.

    For the Hadamard coin at M = 2 all objects are built in closed form
    (square roots of 2 and 3); other coins fall back to a numerical total
    projection onto the eigenvalue group of W(0) nearest 1.
    """
    if coin is None:
        coin = make_hadamard()
    m = t - s + 1
    t1 = t1_matrix(coin, m)
    if _is_hadamard(coin) and m == 2:
        s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
        phi1 = np.array([0, 0, 0, 0, 1 / s2, 0, 0, 1 / s2], dtype=complex)
        phi2 = np.array(
            [
                1 / (2 * s3), 0, 1 / s3, -1 / (2 * s3),
                1 / (2 * s3), 1 / s3, 0, -1 / (2 * s3),
            ],
            dtype=complex,
        )
        phi3 = np.array([1 / s2, 0, 0, 1 / s2, 0, 0, 0, 0], dtype=complex)
        onb = np.vstack([phi1, phi2, phi3])
        pi = sum(np.outer(p, p.conj()) for p in onb)
        v1 = 0.5 * np.array([1, 0, 0, 1, -1, 0, 0, -1], dtype=complex)
        n2 = 1.0 / (s2 * (3.0 - s3))
        v2 = n2 * np.array(
            [2 - s3, 0, 1 - s3, 1, 2 - s3, 1 - s3, 0, 1], dtype=complex
        )
        n3 = 1.0 / (s2 * (3.0 + s3))
        v3 = n3 * np.array(
            [2 + s3, 0, 1 + s3, 1, 2 + s3, 1 + s3, 0, 1], dtype=complex
        )
        vectors = np.vstack([v1, v2, v3])
        eigenvalues = np.array([0.0, 1j / s3, -1j / s3])
    else:
        onb, pi = _numerical_unit_group_projection(coin, s, t)
        eigenvalues, vectors = _reduced_eigensystem(pi, t1, onb)
    r = pi @ t1 @ pi
    return KatoReduction(
        coin=coin, s=s, t=t, onb=onb, pi=pi, t1=t1, r=r,
        eigenvalues=eigenvalues, vectors=vectors,
    )


def _numerical_unit_group_projection(
    coin: Coin, s: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis and orthogonal projection for the eigenvalue group at 1."""
    w = build_w(coin, s, t, 0.0)
    res = eig(w)
    sel = np.abs(res.values - 1.0) <= UNIT_GROUP_TOL
    if not np.any(sel):
        raise ValueError("W(0) has no eigenvalue group at 1 for this coin")
    basis = res.vectors[:, sel]
    q, _ = np.linalg.qr(basis)
    pi = q @ q.conj().T
    return q.T.copy(), pi


def _reduced_eigensystem(
    pi: np.ndarray, t1: np.ndarray, onb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of pi t1 pi restricted to range(pi), via the given basis."""
    small = onb.conj() @ t1 @ onb.T  # representation on the orthonormal basis
    vals, vecs = np.linalg.eig(small)
    # Order as (closest to 0, positive imag, negative imag) when the usual
    # three modes exist; otherwise by imaginary part.
    if len(vals) == 3:
        order = [int(np.argmin(np.abs(vals)))]
        rest = [i for i in range(3) if i != order[0]]
        rest.sort(key=lambda i: -vals[i].imag)
        order += rest
    else:
        order = list(np.argsort(vals.imag))
    vals = vals[order]
    vecs = vecs[:, order]
    full = (onb.T @ vecs).T
    full /= np.linalg.norm(full, axis=1)[:, None]
    return vals, full


def _poly_at_matrix(w: np.ndarray, include_half_factor: bool = True) -> np.ndarray:
    eye = np.eye(w.shape[0])
    out = w @ (w - eye) @ (2.0 * w @ w + w + eye)
    if include_half_factor:
        out = out @ (2.0 * w + eye)
    return out


def minimal_poly_residual(coin: Coin, s: int, t: int) -> float:
    """Frobenius norm of W(0)(W(0)-I)(2W(0)^2+W(0)+I)(2W(0)+I)."""
    w = build_w(coin, s, t, 0.0).matrix
    return float(np.linalg.norm(_poly_at_matrix(w), "fro"))


def char_poly_residual(coin: Coin, s: int, t: int) -> float:
    """Frobenius norm of the characteristic polynomial at W(0)."""
    w = build_w(coin, s, t, 0.0).matrix
    eye = np.eye(w.shape[0])
    out = (
        w @ w
        @ np.linalg.matrix_power(w - eye, 3)
        @ (2.0 * w @ w + w + eye)
        @ (2.0 * w + eye)
    )
    return float(np.linalg.norm(out, "fro"))


def minimality_witness(coin: Coin, s: int, t: int) -> float:
    """Residual with the (2 lambda + 1) factor dropped; large when minimal."""
    w = build_w(coin, s, t, 0.0).matrix
    return float(np.linalg.norm(_poly_at_matrix(w, include_half_factor=False), "fro"))


def spectral_projections(w: WOperator) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvalues and rank-1 spectral projections of a diagonalizable W.

    Left eigenvectors come from the inverse of the right-eigenvector matrix,
    which bakes in the biorthogonal normalization <l_j, r_j> = 1.
    """
    res = eig(w)
    vr = res.vectors
    vl_rows = np.linalg.inv(vr)
    projections = [np.outer(vr[:, j], vl_rows[j, :]) for j in range(vr.shape[1])]
    return res.values, projections


def perturbed_projection_check(
    delta: float, coin: Coin | None = None, s: int = -1, t: int = 0
) -> dict:
    """Distance of the three perturbed eigenprojections from v_j v_j*.

    For each prediction (1 - delta^2/4, 1 +- (i/sqrt3) delta - (2/9) delta^2)
    the nearest eigenvalue of W(k(delta)) is matched and the 2-norm
    ||P_j(delta) - v_j v_j*|| reported.  Raises when two eigenvalues are
    within the matching ambiguity tolerance of one prediction.
    """
    if not 0.0 <= delta <= 0.3:
        raise ValueError("delta must lie in [0, 0.3]")
    red = kato_reduction(coin, s, t)
    targets = [np.outer(v, v.conj()) for v in red.vectors]
    if delta == 0.0:
        # Unperturbed case: the reduced problem's own projections, exactly.
        return {
            "delta": 0.0,
            "eigenvalues": [1.0, 1.0, 1.0],
            "residuals": [0.0, 0.0, 0.0],
        }
    k = k_of_delta(delta)
    w = build_w(red.coin, s, t, k)
    values, projections = spectral_projections(w)
    lam1 = lambda1_expansion(k)
    lam2p, lam2m = lambda2_expansion(k)
    matched = []
    residuals = []
    for pred, target in zip((lam1, lam2p, lam2m), targets):
        dist = np.abs(values - pred)
        order = np.argsort(dist)
        if len(order) > 1 and dist[order[1]] - dist[order[0]] < MATCH_AMBIGUITY_TOL:
            raise RuntimeError(
                f"eigenvalue matching ambiguous at delta={delta}: "
                f"{values[order[0]]} vs {values[order[1]]} for prediction {pred}"
            )
        j = int(order[0])
        matched.append(complex(values[j]))
        residuals.append(float(np.linalg.norm(projections[j] - target, 2)))
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


def char_function(
    coin: Coin,
    s: int,
    t: int,
    n: int,
    ks: Sequence[float],
    g: Sequence[complex],
) -> np.ndarray:
    """Characteristic function <q0, W(k)^n phi0(k)> over a momentum grid.

    q0 places |LL> + |RR> at the v = 0 block; phi0 is the product cell
    (Hg) (x) conj(Hg) at the same block (k-independent for a point start).
    Agrees with the Fourier sum of the simulated measure.
    """
    hg = coin.matrix @ np.asarray(g, dtype=complex)
    m = t - s + 1
    i0 = -s  # block index of v = 0
    w = w_stack(coin, s, t, ks)
    vec = np.zeros((len(w), 4 * m, 1), dtype=complex)
    vec[:, 4 * i0 : 4 * i0 + 4, 0] = np.kron(hg, hg.conj())
    vec = apply_power(w, n, vec)
    return vec[:, 4 * i0 + LL, 0] + vec[:, 4 * i0 + RR, 0]


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
    phi = state.amps[:, :, state.center].T.reshape(4 * m).astype(complex)
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
    if state.amps.dtype.kind == "f":
        _check_residue("|Im mu| of a real start", np.abs(values.imag), tol, n)
        values = values.real.astype(complex)
    return ComplexMeasure(n=n, values=values)


def _check_residue(what: str, residue: np.ndarray, tol: float, n: int) -> None:
    worst = float(np.max(residue, initial=0.0))
    if not worst <= tol:
        raise RuntimeError(f"snapshot {what} {worst:.3e} > tol {tol:.1e} at n={n}")
