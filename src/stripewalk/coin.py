"""Coin matrices and the 2x2 / 4x4 building blocks of the stripe walk.

A coin is a 2x2 unitary H = [[a, b], [c, d]].  Everything else in the
package is assembled from the split pieces

    P  = H|L><L| = [[a, 0], [c, 0]],     Q  = H|R><R| = [[0, b], [0, d]],
    P' = |L><L|H = [[a, b], [0, 0]],     Q' = |R><R|H = [[0, 0], [c, d]],

and the four 4x4 tensor blocks A (x) conj(B) for (A, B) in
{(P,P), (Q,Q), (P,Q), (Q,P)}.  The C^4 basis order is LL, LR, RL, RR
throughout, so the tensor blocks are literally ``np.kron(A, B.conj())``.

Each tensor block has a single nonzero column and therefore factors as an
outer product ``w e_j^T``; ``CoinBlocks.weights`` holds the four weight
vectors w as columns, so the evolution kernel can use the cheaper rank-1
form.  ``blocks`` builds every matrix of a coin in one pass.

Coins and their blocks are frozen and never written after construction,
so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Coin",
    "CoinBlocks",
    "make_coin",
    "make_hadamard",
    "blocks",
    "tensor_conj",
    "unitarity_residual",
]

#: Index of each spinor pair in the fixed C^4 basis order.
LL, LR, RL, RR = 0, 1, 2, 3

#: Max entrywise residual of H*H - I accepted by the constructor.
UNITARITY_TOL = 1e-10


def unitarity_residual(h: np.ndarray) -> float:
    """Max-abs entry of H*H - I."""
    h = np.asarray(h, dtype=complex)
    return float(np.max(np.abs(h.conj().T @ h - np.eye(2))))


@dataclass(frozen=True)
class Coin:
    """A validated 2x2 unitary coin with entries row-major a, b, c, d."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @property
    def is_generic(self) -> bool:
        """True when abcd != 0 (no entry vanishes)."""
        return bool(self.a * self.b * self.c * self.d != 0)

    def __post_init__(self) -> None:
        res = unitarity_residual(self.matrix)
        if not res <= UNITARITY_TOL:  # a NaN entry must not pass
            raise ValueError(
                f"coin entries are not unitary: residual {res:.3e} "
                f"exceeds {UNITARITY_TOL:.1e}"
            )


def make_coin(a: complex, b: complex, c: complex, d: complex) -> Coin:
    """Build a coin from its four entries, validating unitarity."""
    return Coin(complex(a), complex(b), complex(c), complex(d))


def make_hadamard() -> Coin:
    """The Hadamard coin (1/sqrt2) [[1, 1], [1, -1]]."""
    r = float(np.sqrt(0.5))  # correctly rounded 1/sqrt2
    return Coin(r, r, r, -r)


def tensor_conj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A (x) conj(B) with index order (i1 i2), (j1 j2) over {L,R}^2."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex).conj())


@dataclass(frozen=True, eq=False)
class CoinBlocks:
    """All matrices derived from one coin, built once by ``blocks``.

    Attributes
    ----------
    coin : the coin H they come from.
    p_row, q_row : 2x2 row splits |L><L|H, |R><R|H.
    pp, qq, pq, qp : the 4x4 blocks P(x)conj(P), Q(x)conj(Q), P(x)conj(Q),
        Q(x)conj(P) driving the two-coordinate evolution, P and Q being the
        column splits H|L><L|, H|R><R|.
    weights : the (4, 4) matrix whose columns are the nonzero columns of
        pp, qq, pq and qp (at LL, RR, LR and RL), so that e.g.
        ``pp == outer(weights[:, 0], e_LL)``: the rank-1 factors of the
        blocks.  The step kernel applies it to the four gathered neighbor
        components (LL at u+1, RR at u-1, LR at v+1, RL at v-1).
    real_weights : the real part of ``weights``, contiguous so that the
        product of a float64 field goes through BLAS.
    """

    coin: Coin
    p_row: np.ndarray = field(repr=False)
    q_row: np.ndarray = field(repr=False)
    pp: np.ndarray = field(repr=False)
    qq: np.ndarray = field(repr=False)
    pq: np.ndarray = field(repr=False)
    qp: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    real_weights: np.ndarray = field(repr=False)


def blocks(coin: Coin) -> CoinBlocks:
    """All split and tensor blocks of a coin, computed once per run."""
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    p = np.array([[a, 0], [c, 0]], dtype=complex)
    q = np.array([[0, b], [0, d]], dtype=complex)
    pp, qq, pq, qp = tensor_conj(p, p), tensor_conj(q, q), tensor_conj(p, q), tensor_conj(q, p)
    weights = np.stack([pp[:, LL], qq[:, RR], pq[:, LR], qp[:, RL]], axis=1)
    return CoinBlocks(
        coin=coin,
        p_row=np.array([[a, b], [0, 0]], dtype=complex),
        q_row=np.array([[0, 0], [c, d]], dtype=complex),
        pp=pp, qq=qq, pq=pq, qp=qp,
        weights=weights,
        real_weights=np.ascontiguousarray(weights.real),
    )
