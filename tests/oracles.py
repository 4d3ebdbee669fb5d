"""Reference walks shared by the tests: the dense step and the exact Hadamard walk.

``dense_apply`` is one step of the cut evolution with the four 4x4 tensor
blocks applied as dense matrices over the whole light cone, with no
window, no parity and no rank-1 factorization.  It works for any dtype
numpy's einsum supports, which includes Python ints in object arrays.

That gives an exact oracle for the Hadamard walk.  With h = sqrt(2) H =
[[1, 1], [1, -1]], twice each Hadamard tensor block has entries in
{-1, 0, 1}, and a spinor g = gamma / |gamma| with an integer gamma and
|gamma|^2 a power of two, such as (1, 0) or (1, 1)/sqrt2, gives the start
cell (h gamma) (x) (h gamma) / (2 |gamma|^2).  So ``amps * 2^(n + e)``,
with 2^e = 2 |gamma|^2, is an integer array at every step n, and stepping
it in Python ints involves no rounding at all.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Iterator

import numpy as np

from stripewalk import BandState, stripe_for_width
from stripewalk.coin import LL, RR

#: sqrt(2) times the Hadamard coin, and its column splits sqrt(2) P, sqrt(2) Q.
_H2 = np.array([[1, 1], [1, -1]], dtype=object)
_P2 = _H2 * np.array([[1, 0], [1, 0]], dtype=object)
_Q2 = _H2 * np.array([[0, 1], [0, 1]], dtype=object)

#: Twice the Hadamard tensor blocks PP, QQ, PQ, QP as Python ints (all real).
HADAMARD_BLOCKS_X2 = tuple(np.kron(a, b) for a, b in ((_P2, _P2), (_Q2, _Q2), (_P2, _Q2), (_Q2, _P2)))


def dense_apply(blocks, src: np.ndarray, r: int) -> np.ndarray:
    """One cut-evolution step of ``src`` (4, M, U) on the cone |u| <= r.

    ``blocks`` is (PP, QQ, PQ, QP) as dense 4x4 matrices; the center column
    is the middle one of U.
    """
    pp, qq, pq, qp = blocks
    dst = np.zeros_like(src)
    c = (src.shape[2] - 1) // 2
    lo, hi = c - r, c + r + 1
    out = dst[:, :, lo:hi]
    np.einsum("ij,jvu->ivu", pp, src[:, :, lo + 1 : hi + 1], out=out)
    out += np.einsum("ij,jvu->ivu", qq, src[:, :, lo - 1 : hi - 1])
    out[:, :-1, :] += np.einsum("ij,jvu->ivu", pq, src[:, 1:, lo:hi])
    out[:, 1:, :] += np.einsum("ij,jvu->ivu", qp, src[:, :-1, lo:hi])
    return dst


def dense_step(state: BandState) -> BandState:
    """Oracle step of a float state: ``dense_apply`` in complex128."""
    b = state.blocks
    amps = dense_apply((b.pp, b.qq, b.pq, b.qp), state.amps.astype(complex), state.n + 1)
    return dataclasses.replace(state, n=state.n + 1, amps=amps)


def exact_trajectory(
    m: int, gamma: tuple[int, int], steps: int
) -> Iterator[tuple[int, np.ndarray, int]]:
    """Yield (n, A_n, e) for n = 1..steps: the width-m Hadamard walk in exact ints.

    The product start of spinor gamma / |gamma| (standard stripe, as
    ``init_product``) has amps_n = A_n / 2^(n + e) exactly; A_n is an object
    array laid out like ``BandState.amps`` with n_max = steps.
    """
    norm2 = gamma[0] ** 2 + gamma[1] ** 2
    e = norm2.bit_length()  # 2^e = 2 |gamma|^2
    if norm2 != 1 << (e - 1):
        raise ValueError(f"|gamma|^2 = {norm2} is not a power of two")
    s, t = stripe_for_width(m)
    hg = _H2 @ np.array(gamma, dtype=object)
    amps = np.zeros((4, m, 2 * steps + 3), dtype=object)
    amps[:, -s, steps + 1] = np.kron(hg, hg)
    for n in range(1, steps + 1):
        amps = dense_apply(HADAMARD_BLOCKS_X2, amps, n)
        yield n, amps, e


@lru_cache(maxsize=None)
def exact_onset(m: int, n_max: int, gamma: tuple[int, int] = (1, 1)) -> tuple[int, float]:
    """First n <= n_max with some Re mu_n(x) < 0 exactly, and that minimum.

    (n_max + 1, min over the run) when the measure never goes negative;
    the minimum is rounded to float only after the exact sign test.
    """
    row, c = -stripe_for_width(m)[0], n_max + 1
    lowest = None
    for n, amps, e in exact_trajectory(m, gamma, n_max):
        low = min(amps[LL, row, c - n : c + n + 1] + amps[RR, row, c - n : c + n + 1])
        value = low / 2 ** (n + e)  # int / int: correctly rounded
        if low < 0:
            return n, value
        lowest = value if lowest is None else min(lowest, value)
    return n_max + 1, lowest
