"""Coin matrices and the 2x2 / 4x4 building blocks of the stripe walk.

A coin is a 2x2 unitary H = [[a, b], [c, d]].  Everything else in the
package is assembled from the split pieces

    P  = H|L><L| = [[a, 0], [c, 0]],     Q  = H|R><R| = [[0, b], [0, d]],
    P' = |L><L|H = [[a, b], [0, 0]],     Q' = |R><R|H = [[0, 0], [c, d]],

and the four 4x4 tensor blocks A (x) conj(B) for (A, B) in
{(P,P), (Q,Q), (P,Q), (Q,P)}.  The C^4 basis order is LL, LR, RL, RR
throughout, so the tensor blocks are literally ``np.kron(A, B.conj())``.

Each tensor block has a single nonzero column and therefore factors as an
outer product ``w e_j^T``; the weight vectors ``w_*`` are exposed so the
evolution kernel can use the cheaper rank-1 form.

Coins and their blocks are immutable after construction (block caching is
idempotent), so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class CoinBlocks:
    """All matrices derived from one coin.

    Attributes
    ----------
    p, q : 2x2 column splits H|L><L|, H|R><R| of the coin.
    p_row, q_row : 2x2 row splits |L><L|H, |R><R|H.
    pp, qq, pq, qp : the 4x4 blocks P(x)conj(P), Q(x)conj(Q), P(x)conj(Q),
        Q(x)conj(P) driving the two-coordinate evolution.
    w_pp, w_qq, w_pq, w_qp : length-4 weight vectors such that e.g.
        ``pp == outer(w_pp, e_LL)``; the rank-1 factors of the blocks.
    weights : the (4, 4) matrix with columns w_pp, w_qq, w_pq, w_qp, which
        the step kernel applies to the four gathered neighbor components;
        ``real_weights`` is its real part for float64 fields.
    """

    coin: Coin

    @cached_property
    def p(self) -> np.ndarray:
        return np.array([[self.coin.a, 0], [self.coin.c, 0]], dtype=complex)

    @cached_property
    def q(self) -> np.ndarray:
        return np.array([[0, self.coin.b], [0, self.coin.d]], dtype=complex)

    @cached_property
    def p_row(self) -> np.ndarray:
        return np.array([[self.coin.a, self.coin.b], [0, 0]], dtype=complex)

    @cached_property
    def q_row(self) -> np.ndarray:
        return np.array([[0, 0], [self.coin.c, self.coin.d]], dtype=complex)

    @cached_property
    def pp(self) -> np.ndarray:
        return tensor_conj(self.p, self.p)

    @cached_property
    def qq(self) -> np.ndarray:
        return tensor_conj(self.q, self.q)

    @cached_property
    def pq(self) -> np.ndarray:
        return tensor_conj(self.p, self.q)

    @cached_property
    def qp(self) -> np.ndarray:
        return tensor_conj(self.q, self.p)

    # Nonzero columns: pp -> LL, qq -> RR, pq -> LR, qp -> RL.
    @cached_property
    def w_pp(self) -> np.ndarray:
        return self.pp[:, LL].copy()

    @cached_property
    def w_qq(self) -> np.ndarray:
        return self.qq[:, RR].copy()

    @cached_property
    def w_pq(self) -> np.ndarray:
        return self.pq[:, LR].copy()

    @cached_property
    def w_qp(self) -> np.ndarray:
        return self.qp[:, RL].copy()

    @cached_property
    def weights(self) -> np.ndarray:
        """The (4, 4) matrix whose columns are w_pp, w_qq, w_pq, w_qp: it maps
        the neighbor components (LL at u+1, RR at u-1, LR at v+1, RL at v-1)
        to the new 4-vector."""
        return np.stack([self.w_pp, self.w_qq, self.w_pq, self.w_qp], axis=1)

    @cached_property
    def real_weights(self) -> np.ndarray:
        """Real part of ``weights``, contiguous so the product goes through BLAS."""
        return np.ascontiguousarray(self.weights.real)


def blocks(coin: Coin) -> CoinBlocks:
    """All split and tensor blocks of a coin, computed once per run."""
    return CoinBlocks(coin)
