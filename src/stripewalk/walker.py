"""Real-space evolution of the stripe-cut walk and its two reference walks.

The walk lives on rotated coordinates (u, v): u runs along the diagonal of
the original two-dimensional lattice (the walker position), v is the
transverse coherence coordinate, confined to the stripe rows
v in {s, ..., t} with s <= 0 <= t.  One step reads

    psi'(u, v) = PP psi(u+1, v) + QQ psi(u-1, v)
               + PQ psi(u, v+1) + QP psi(u, v-1),

where PP = P (x) conj(P) etc., and any v outside {s..t} reads as zero
(the cut).  This is the inverse Fourier transform of the momentum-space
step V(k) psi(v) + PQ psi(v+1) + QP psi(v-1); the two agree because the
u-shifts carry exactly the e^{-+ik} factors of V(k).

The complex measure is mu_n(x) = <LL|psi_n(u=x, v=0)> + <RR|psi_n(u=x, v=0)>
(v = 0 is the diagonal x = y).  Two independent oracles bracket the model:
the plain unitary walk (``qw1d_trajectory`` / ``qw1d_reference``, equal to
the band measure while the cone has not touched the stripe boundary) and
``oqrw_reference`` (the dissipative two-component recursion, equal to the
M = 1 measure).

``trajectory(state, steps)`` is the one stepping loop: it yields the state
after each step to consumers that reduce as they go, and ``evolve`` is its
last item.  ``qw1d_trajectory`` and its last item ``qw1d_reference`` do the
same for the unitary reference walk.

Stepping is double-buffered: the kernel reads one array and writes a fresh
one, and every output cell depends only on the read buffer, so positions
could be partitioned across workers with nothing but a per-step barrier.
States are treated as single-writer; snapshots may be shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .coin import LL, LR, RL, RR, Coin, CoinBlocks, blocks

__all__ = [
    "BandState",
    "ComplexMeasure",
    "stripe_for_width",
    "init_product",
    "init_band_vector",
    "unit_spinor",
    "step",
    "trajectory",
    "evolve",
    "measure",
    "band_field",
    "qw1d_trajectory",
    "qw1d_reference",
    "oqrw_reference",
]


def stripe_for_width(m: int) -> tuple[int, int]:
    """Stripe (s, t) of width m: symmetric for odd m, (-m/2, m/2-1) for even."""
    if m < 1:
        raise ValueError(f"stripe width must be >= 1, got {m}")
    if m % 2 == 1:
        return (-(m - 1) // 2, (m - 1) // 2)
    return (-m // 2, m // 2 - 1)


@dataclass(frozen=True)
class ComplexMeasure:
    """The diagonal complex measure mu_n: Z -> C at a fixed time.

    ``values[i]`` is mu_n(offset + i); positions outside the stored range
    are exactly zero.
    """

    n: int
    s: int
    t: int
    offset: int
    values: np.ndarray

    def positions(self) -> np.ndarray:
        return self.offset + np.arange(len(self.values))

    def at(self, x: int) -> complex:
        i = x - self.offset
        if 0 <= i < len(self.values):
            return complex(self.values[i])
        return 0j

    def total(self) -> complex:
        return complex(self.values.sum())

    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(self.values.imag))) if len(self.values) else 0.0


@dataclass
class BandState:
    """The walker's complex 4-vector field over the stripe.

    ``amps`` has shape (4, M, 2*n_max + 3); axis 0 is the component
    (LL, LR, RL, RR), axis 1 the row index v - s (v ascending from s to t),
    axis 2 the position index u + n_max + 1 (one guard column per side so
    the step kernel never reads out of bounds).  Support satisfies |u| <= n.
    """

    coin: Coin
    s: int
    t: int
    n: int
    n_max: int
    amps: np.ndarray
    blocks: CoinBlocks = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.blocks is None:
            self.blocks = blocks(self.coin)

    @property
    def m(self) -> int:
        return self.t - self.s + 1

    @property
    def center(self) -> int:
        return self.n_max + 1

    def row(self, v: int) -> np.ndarray:
        """View of the (4, U) field at transverse row v."""
        if not self.s <= v <= self.t:
            raise ValueError(f"row v={v} outside stripe [{self.s}, {self.t}]")
        return self.amps[:, v - self.s, :]

    def cell(self, u: int, v: int) -> np.ndarray:
        """The complex 4-vector at (u, v)."""
        return self.row(v)[:, u + self.center].copy()

    def norm(self) -> float:
        """l2 norm of the whole field."""
        return float(np.linalg.norm(self.amps))


def _validate_stripe(s: int, t: int) -> None:
    if not (s <= 0 <= t):
        raise ValueError(f"stripe must satisfy s <= 0 <= t, got ({s}, {t})")


def unit_spinor(g: Sequence[complex]) -> np.ndarray:
    """``g`` as a complex 2-vector; ValueError unless it is finite and unit length."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (2,):
        raise ValueError("spinor must be a 2-vector")
    norm = np.linalg.norm(g)
    if not abs(norm - 1.0) <= 1e-10:  # also rejects nan and inf
        raise ValueError(f"spinor must be finite and unit length, |g| = {norm}")
    return g


def init_product(
    coin: Coin, g: Sequence[complex], s: int, t: int, n_max: int
) -> BandState:
    """Product initial state: the cell (Hg) (x) conj(Hg) at (u, v) = (0, 0).

    ``g`` must be a unit 2-vector; the coin is applied once before forming
    the tensor square, so the stored cell is (Hg) (x) conj(Hg).
    """
    _validate_stripe(s, t)
    hg = coin.matrix @ unit_spinor(g)
    data = np.zeros((t - s + 1, 4), dtype=complex)
    data[-s] = np.kron(hg, hg.conj())
    return init_band_vector(coin, data, s, t, n_max)


def init_band_vector(
    coin: Coin,
    data: Sequence[Sequence[complex]] | np.ndarray,
    s: int,
    t: int,
    n_max: int,
) -> BandState:
    """Place one 4-vector per stripe row at u = 0.

    ``data`` holds M 4-vectors indexed by v ascending from s to t, matching
    the block order of the momentum-space operator (a flat 4M vector from
    the spectral module reshapes to (M, 4) directly).
    """
    _validate_stripe(s, t)
    data = np.asarray(data, dtype=complex)
    m = t - s + 1
    if data.shape != (m, 4):
        raise ValueError(f"band data must have shape ({m}, 4), got {data.shape}")
    amps = np.zeros((4, m, 2 * n_max + 3), dtype=complex)
    amps[:, :, n_max + 1] = data.T
    return BandState(coin=coin, s=s, t=t, n=0, n_max=n_max, amps=amps)


def _step_kernel_rank1(src: np.ndarray, dst: np.ndarray, b: CoinBlocks, lo: int, hi: int) -> None:
    """Write one step of the cut evolution into dst[:, :, lo:hi].

    Uses the rank-1 factorization of the four tensor blocks: each block
    contributes (weight vector) times one scalar component of a shifted
    neighbor.  Reads src on [lo-1, hi+1), so callers keep one guard column.
    """
    w_pp = b.w_pp[:, None, None]
    w_qq = b.w_qq[:, None, None]
    w_pq = b.w_pq[:, None, None]
    w_qp = b.w_qp[:, None, None]
    out = dst[:, :, lo:hi]
    np.multiply(w_pp, src[LL, :, lo + 1 : hi + 1][None, :, :], out=out)
    out += w_qq * src[RR, :, lo - 1 : hi - 1][None, :, :]
    # Transverse coupling: row v reads v+1 through PQ and v-1 through QP;
    # rows beyond the stripe edge contribute nothing (the cut).
    out[:, :-1, :] += w_pq * src[LR, 1:, lo:hi][None, :, :]
    out[:, 1:, :] += w_qp * src[RL, :-1, lo:hi][None, :, :]


def step(state: BandState) -> BandState:
    """One cut-evolution step; returns a new state with n incremented."""
    if state.n >= state.n_max:
        raise RuntimeError(
            f"horizon exhausted: n = {state.n} has reached n_max = {state.n_max}"
        )
    src = state.amps
    dst = np.zeros_like(src)
    c = state.center
    r = state.n + 1  # support radius after the step
    lo, hi = c - r, c + r + 1
    _step_kernel_rank1(src, dst, state.blocks, lo, hi)
    return BandState(
        coin=state.coin,
        s=state.s,
        t=state.t,
        n=state.n + 1,
        n_max=state.n_max,
        amps=dst,
        blocks=state.blocks,
    )


def trajectory(state: BandState, steps: int) -> Iterator[BandState]:
    """Yield the state after each of the next ``steps`` steps.

    Each yielded state owns a fresh buffer, so a consumer that keeps only
    the current item holds at most two band buffers at a time.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    for _ in range(steps):
        state = step(state)
        yield state


def evolve(state: BandState, steps: int) -> BandState:
    """The state ``steps`` steps later: the last item of ``trajectory``."""
    for state in trajectory(state, steps):
        pass
    return state


def measure(state: BandState) -> ComplexMeasure:
    """Diagonal measure: LL + RR components of the v = 0 row, trimmed to |x| <= n."""
    c, n = state.center, state.n
    row0 = state.amps[:, -state.s, c - n : c + n + 1]
    return ComplexMeasure(
        n=n, s=state.s, t=state.t, offset=-n, values=row0[LL] + row0[RR]
    )


def band_field(state: BandState) -> dict[tuple[int, int], complex]:
    """Full off-diagonal view: map (x, y) -> LL + RR component.

    Positions follow x = u + v, y = u - v; entries with |u| > n are omitted
    (they are exactly zero).
    """
    c, n = state.center, state.n
    out: dict[tuple[int, int], complex] = {}
    us = np.arange(-n, n + 1)
    for v in range(state.s, state.t + 1):
        row = state.amps[:, v - state.s, c - n : c + n + 1]
        vals = row[LL] + row[RR]
        for u, val in zip(us, vals):
            out[(int(u) + v, int(u) - v)] = complex(val)
    return out


def qw1d_trajectory(coin: Coin, phi0: Sequence[complex], n: int) -> Iterator[np.ndarray]:
    """Per-step distributions of the plain unitary walk, for j = 1..n.

    psi'(x) = P' psi(x+1) + Q' psi(x-1) from psi_0 = delta_0 phi0; item j is
    ||psi_j(x)||^2 as a real array over x in [-j, j] (index x + j).
    """
    phi0 = unit_spinor(phi0)
    b = blocks(coin)
    p_row, q_row = b.p_row, b.q_row
    size = 2 * n + 3  # one guard column each side
    psi = np.zeros((2, size), dtype=complex)
    psi[:, n + 1] = phi0
    for j in range(1, n + 1):
        psi = p_row @ np.roll(psi, -1, axis=1) + q_row @ np.roll(psi, 1, axis=1)
        psi[:, 0] = 0
        psi[:, -1] = 0
        lo, hi = n + 1 - j, n + 2 + j
        yield np.abs(psi[0, lo:hi]) ** 2 + np.abs(psi[1, lo:hi]) ** 2


def qw1d_reference(coin: Coin, phi0: Sequence[complex], n: int) -> np.ndarray:
    """Distribution of the plain unitary walk after n steps, over x in [-n, n].

    The last item of ``qw1d_trajectory``; at n = 0 the point mass at x = 0.
    """
    phi0 = unit_spinor(phi0)
    probs = np.abs(phi0[:1]) ** 2 + np.abs(phi0[1:]) ** 2
    for probs in qw1d_trajectory(coin, phi0, n):
        pass
    return probs


def oqrw_reference(coin: Coin, g: Sequence[complex], n: int) -> np.ndarray:
    """Distribution of the dissipative walk after n steps.

    Two-component recursion p'(x) = (P o conj(P)) p(x+1) + (Q o conj(Q)) p(x-1)
    started from p_0(0) = (|(Hg)_L|^2, |(Hg)_R|^2); returns the summed
    components over x in [-n, n] (index x + n).  ``o`` is the entrywise
    product, so the step matrices are [[|a|^2, 0], [|c|^2, 0]] and
    [[0, |b|^2], [0, |d|^2]].
    """
    hg = coin.matrix @ unit_spinor(g)
    a_mat = np.array(
        [[abs(coin.a) ** 2, 0.0], [abs(coin.c) ** 2, 0.0]]
    )  # P o conj(P)
    b_mat = np.array(
        [[0.0, abs(coin.b) ** 2], [0.0, abs(coin.d) ** 2]]
    )  # Q o conj(Q)
    size = 2 * n + 3
    p = np.zeros((2, size))
    p[:, n + 1] = np.abs(hg) ** 2
    for _ in range(n):
        p = a_mat @ np.roll(p, -1, axis=1) + b_mat @ np.roll(p, 1, axis=1)
        p[:, 0] = 0
        p[:, -1] = 0
    return p[0, 1:-1] + p[1, 1:-1]
