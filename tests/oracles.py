"""Test oracles: the dense step, the exact Hadamard walk, the packed layout,
the reference-walk observables and the width-2 closed forms.

``dense_apply`` is one step of the cut evolution with the four 4x4 tensor
blocks applied as dense matrices over the whole light cone, with no
window, no parity and no rank-1 factorization.  It works for any dtype
numpy's einsum supports, which includes Python ints in object arrays.

That gives an exact oracle for the Hadamard walk.  With h = sqrt(2) H =
[[1, 1], [1, -1]], twice each Hadamard tensor block has entries in
{-1, 0, 1}, and a spinor g = gamma / |gamma| with an integer gamma and
|gamma|^2 a power of two, such as (1, 0) or (1, 1)/sqrt2, gives the start
cell (h gamma) (x) (h gamma) / (2 |gamma|^2).  So the field times
2^(n + e), with 2^e = 2 |gamma|^2, is an integer array at every step n,
and stepping it in Python ints involves no rounding at all.  The same
holds for a band start with integer entries, with e = 0.

``pack`` states the walker's packed layout independently of the walker,
so tests that write a field go through it.  ``qw1d_reference``,
``oracle_series``, ``peak_position`` and ``n_crit`` are the observables
of the reference walks and of a standalone run, and ``konno_cdf`` and
``oqrw_limit`` the closed-form limits of the two reference walks, which
only the tests compare against.

The Hadamard M = 2 closed forms judge the numerical spectral code: the
two cubics that carry the nonzero spectrum of W(k), their radical
forms, the characteristic function by direct powering, and the paper's
literal basis of the eigenspace of W(0) at 1 with the eigenvectors of
the reduced generator on it.
"""

from __future__ import annotations

from functools import lru_cache
import math
from typing import Iterator, Sequence

import numpy as np

from stripewalk import BandState, ComplexMeasure, init_product, qw1d_trajectory, trajectory
from stripewalk.characteristics import (
    PEAK_DELTA,
    RunSeries,
    _peak_in_window,
    _stats_from_values,
    n_crit_of_trace,
)
from stripewalk.coin import LL, RR, Coin, blocks
from stripewalk.spectral import apply_power, w_stack
from stripewalk.walker import diagonal, unit_spinor

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


def dense_trajectory(state: BandState, steps: int) -> Iterator[np.ndarray]:
    """Oracle fields after each of ``steps`` steps: ``dense_apply`` in complex128.

    Starts from ``state.dense()``; item i is laid out like it, at time
    state.n + i + 1.
    """
    b = state.blocks
    field = state.dense().astype(complex)
    for n in range(state.n + 1, state.n + steps + 1):
        field = dense_apply((b.pp, b.qq, b.pq, b.qp), field, n)
        yield field


def exact_band_trajectory(data: np.ndarray, steps: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, A_n) for n = 1..steps: the Hadamard walk from integer band data, exactly.

    ``data`` holds one integer 4-vector per stripe row (v ascending), placed
    at u = 0 as ``init_band_vector`` places it.  The float walk from that
    start has amps_n = A_n / 2^n exactly; A_n is an object array laid out
    like ``BandState.dense()`` with n_max = steps.
    """
    m = len(data)
    amps = np.zeros((4, m, 2 * steps + 3), dtype=object)
    amps[:, :, steps + 1] = np.asarray(data, dtype=object).T
    for n in range(1, steps + 1):
        amps = dense_apply(HADAMARD_BLOCKS_X2, amps, n)
        yield n, amps


def exact_trajectory(
    m: int, gamma: tuple[int, int], steps: int
) -> Iterator[tuple[int, np.ndarray, int]]:
    """Yield (n, A_n, e) for n = 1..steps: the width-m Hadamard walk in exact ints.

    The product start of spinor gamma / |gamma| (standard stripe, as
    ``init_product``) has amps_n = A_n / 2^(n + e) exactly; A_n is an object
    array laid out like ``BandState.dense()`` with n_max = steps.
    """
    norm2 = gamma[0] ** 2 + gamma[1] ** 2
    e = norm2.bit_length()  # 2^e = 2 |gamma|^2
    if norm2 != 1 << (e - 1):
        raise ValueError(f"|gamma|^2 = {norm2} is not a power of two")
    hg = _H2 @ np.array(gamma, dtype=object)
    data = np.zeros((m, 4), dtype=object)
    data[m // 2] = np.kron(hg, hg)  # the row of v = 0
    for n, amps in exact_band_trajectory(data, steps):
        yield n, amps, e


def live_mask(state: BandState) -> np.ndarray:
    """(M, 2 n_max + 3) booleans: the cells (v + M // 2, u + center) on the
    state's sublattices at its time, u + v = n + sigma (mod 2)."""
    r = np.arange(state.m)[:, None]
    u = np.arange(2 * state.n_max + 3)[None, :] - state.center
    return np.isin((u + r - state.m // 2 - state.n) % 2, state.sublattices)


def pack(state: BandState, dense: np.ndarray) -> BandState:
    """Overwrite ``state.packed`` in place with a dense (4, M, 2 n_max + 3) field; returns the state.

    The packed layout, stated here apart from the walker: cell (u, v) of
    sublattice sigma = (u + v - n) mod 2 is ``packed[f, :, R, j]`` with f
    the index of sigma in ``state.sublattices``, R = r // 2 for an even
    stripe row r = v + M // 2 and ceil(M / 2) + 1 + r // 2 for an odd one,
    and j = (u + center) // 2.  Packed rows ceil(M / 2) and M + 1 are zero
    guard rows, as is packed column n_max + 1 past the u-edge.  A nonzero
    value off the live sublattices is a ValueError, since the packed field
    has no place for it.  The live window is left as it is.
    """
    dense = np.asarray(dense)
    mask = live_mask(state)
    if np.any(dense[:, ~mask] != 0):
        raise ValueError("dense field is nonzero off the live cells")
    r, col = np.nonzero(mask)
    sigma = (col - state.center + r - state.m // 2 - state.n) % 2
    field = np.searchsorted(state.sublattices, sigma)
    row = np.where(r % 2 == 0, r // 2, (state.m + 1) // 2 + 1 + r // 2)
    state.packed[...] = 0
    state.packed[field, :, row, col // 2] = dense[:, r, col].T
    return state


@lru_cache(maxsize=None)
def exact_onset(m: int, n_max: int, gamma: tuple[int, int] = (1, 1)) -> tuple[int, float]:
    """First n <= n_max with some Re mu_n(x) < 0 exactly, and that minimum.

    (n_max + 1, min over the run) when the measure never goes negative;
    the minimum is rounded to float only after the exact sign test.
    """
    row, c = m // 2, n_max + 1
    lowest = None
    for n, amps, e in exact_trajectory(m, gamma, n_max):
        low = min(amps[LL, row, c - n : c + n + 1] + amps[RR, row, c - n : c + n + 1])
        value = low / 2 ** (n + e)  # int / int: correctly rounded
        if low < 0:
            return n, value
        lowest = value if lowest is None else min(lowest, value)
    return n_max + 1, lowest


def qw1d_reference(coin: Coin, phi0: Sequence[complex], n: int) -> np.ndarray:
    """Distribution of the plain unitary walk after n steps, over x in [-n, n].

    The last item of ``qw1d_trajectory``; at n = 0 the point mass at x = 0.
    """
    phi0 = unit_spinor(phi0)
    probs = np.abs(phi0[:1]) ** 2 + np.abs(phi0[1:]) ** 2
    for probs in qw1d_trajectory(coin, phi0, n):
        pass
    return probs


def oracle_series(coin: Coin, phi0: Sequence[complex], n: int) -> RunSeries:
    """Per-step observables of the untruncated one-dimensional walk."""
    series = RunSeries.allocate(2 * n + 1, n)
    for j, probs in enumerate(qw1d_trajectory(coin, phi0, n), start=1):
        _stats_from_values(series, j, probs)
    return series


def n_crit(
    coin: Coin,
    m: int,
    n_max: int,
    tol: float = 1e-12,
    g: Sequence[complex] = (1.0, 0.0),
) -> int:
    """Last time before Re mu first dips below -tol anywhere; n_max if never.

    A standalone run of its own; the ``characteristics`` command reads the
    same onset off the ``min_re`` trace of the run it already made.
    """
    state = init_product(coin, g, m, n_max)
    min_re = (float(diagonal(st).real.min()) for st in trajectory(state, n_max))
    return n_crit_of_trace(min_re, m, n_max, tol)


def peak_position(mu: ComplexMeasure) -> float:
    """Normalized off-center peak position of one measure snapshot."""
    xbar, _ = _peak_in_window(mu.values.real, mu.n)
    if math.isnan(xbar):
        raise ValueError(f"no finite peak in the window [{PEAK_DELTA}, 1] at n={mu.n}")
    return xbar


def konno_cdf(x: float) -> float:
    """Cumulative form of ``limits.konno_density`` (exact antiderivative)."""
    r = 1.0 / math.sqrt(2.0)
    if x <= -r:
        return 0.0
    if x >= r:
        return 1.0
    return 0.5 + math.atan(x / math.sqrt(1.0 - 2.0 * x * x)) / math.pi


def oqrw_limit(coin: Coin) -> float:
    """Diffusive variance sigma^2 = |a|^2 / (1 - |a|^2) of the M = 1 walk."""
    r = abs(coin.a) ** 2
    if r >= 1.0 - 1e-14:
        raise ValueError("degenerate coin: |a| = 1 has no diffusive limit")
    return r / (1.0 - r)



_S2, _S3 = math.sqrt(2.0), math.sqrt(3.0)

#: The paper's orthonormal basis (phi1, phi2, phi3) of the eigenspace of
#: the Hadamard W(0) at 1, width 2, rows in the layout of ``w_stack``.
KATO_BASIS = np.array(
    [
        [0, 0, 0, 0, 1 / _S2, 0, 0, 1 / _S2],
        [1 / (2 * _S3), 0, 1 / _S3, -1 / (2 * _S3), 1 / (2 * _S3), 1 / _S3, 0, -1 / (2 * _S3)],
        [1 / _S2, 0, 0, 1 / _S2, 0, 0, 0, 0],
    ],
    dtype=complex,
)

#: The paper's unit eigenvectors (v1, v2, v3) of the reduced generator,
#: for the eigenvalues 0, +i/sqrt3 and -i/sqrt3.
KATO_VECTORS = np.array(
    [
        0.5 * np.array([1, 0, 0, 1, -1, 0, 0, -1]),
        np.array([2 - _S3, 0, 1 - _S3, 1, 2 - _S3, 1 - _S3, 0, 1]) / (_S2 * (3 - _S3)),
        np.array([2 + _S3, 0, 1 + _S3, 1, 2 + _S3, 1 + _S3, 0, 1]) / (_S2 * (3 + _S3)),
    ],
    dtype=complex,
)

#: The projection sum_j phi_j phi_j^* and the reduced generator, as printed.
KATO_PI = (1.0 / 12.0) * np.array(
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
KATO_R = (-1j / 6.0) * np.array(
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


def eig_multiplicities(values: np.ndarray, tol: float = 1e-8) -> list[tuple[complex, int]]:
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


def _newton(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Two Newton steps on the polynomial c from x, skipping a vanishing slope."""
    dc = np.polyder(c)
    for _ in range(2):
        fp = np.polyval(dc, x)
        ok = np.abs(fp) > 1e-30
        x = np.where(ok, x - np.polyval(c, x) / np.where(ok, fp, 1.0), x)
    return x


def cubic_roots(coeffs: Sequence[complex]) -> np.ndarray:
    """Roots of a cubic: companion-matrix eigenvalues, Newton-polished.

    Newton on f converges only linearly at a double root, which the
    companion matrix leaves about sqrt(eps) off.  A double root is a simple
    root of f', so each pair of roots is also polished on f' from its
    midpoint, and that root replaces the pair when its |f| is no larger.
    Apart from a double root, f has no zero where f' vanishes, so a
    distinct pair never passes.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (4,) or c[0] == 0:
        raise ValueError("expected four coefficients with nonzero leading term")
    roots = _newton(c, np.roots(c))
    for pair in ([0, 1], [0, 2], [1, 2]):
        double = _newton(np.polyder(c), roots[pair].mean())
        if abs(np.polyval(c, double)) <= np.max(np.abs(np.polyval(c, roots[pair]))):
            roots[pair] = double
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


def char_function(
    coin: Coin, m: int, n: int, ks: Sequence[float], g: Sequence[complex]
) -> np.ndarray:
    """Characteristic function <q0, W(k)^n phi0(k)> over a momentum grid.

    q0 places |LL> + |RR> at the v = 0 block; phi0 is the product cell
    (Hg) (x) conj(Hg) at the same block (k-independent for a point start).
    Agrees with the Fourier sum of the simulated measure.
    """
    hg = coin.matrix @ np.asarray(g, dtype=complex)
    i0 = m // 2  # block index of v = 0
    w = w_stack(blocks(coin), m, ks)
    vec = np.zeros((len(w), 4 * m, 1), dtype=complex)
    vec[:, 4 * i0 : 4 * i0 + 4, 0] = np.kron(hg, hg.conj())
    vec = apply_power(w, n, vec)
    return vec[:, 4 * i0 + LL, 0] + vec[:, 4 * i0 + RR, 0]
