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

The step kernel computes only cells that can be nonzero and visible:

* dtype: float64 when the coin's rank-1 weights and the initial band data
  are exactly real (Hadamard from a real spinor, the mixed start),
  complex128 otherwise.  The real path does the same arithmetic on the
  real parts, so its values equal the complex path's bit for bit.  Every
  accessor (``measure``, ``band_field``, ``BandState.cell``/``row``)
  returns complex values either way; ``diagonal`` keeps the field's dtype
  for consumers that reduce every step.
* sublattices: a step moves every cell from u+v even to u+v odd or back,
  so the two parity classes of u+v evolve independently.  The kernel runs
  only on the classes the initial data occupies: one for product and
  mixed starts (row v = 0 only), possibly both for band starts.
* live window: each state carries the column range that may be nonzero.
  It grows by at most one column per side per step; after each step, edge
  columns whose entries are all finite and below ``np.finfo(dtype).tiny``
  are set to zero and leave the window.  A column holding NaN or inf is
  never dropped.  The dropped values are below tiny, and the cut walk does
  not increase the l2 norm, so every cell, and every measure value, stays
  within (2n+1) * 2 sqrt(2M) * tiny (about 2.8e-304 at M = 2, n = 1600) of
  the evolution that keeps them.  Without the drop the subnormal floor
  spreads to the edge of the light cone: the Hadamard weight
  fl(1/sqrt2)^2 rounds the smallest subnormal back to itself.

Stepping is double-buffered: the kernel reads one array and writes the
other, and every output cell depends only on the read buffer, so positions
could be partitioned across workers with nothing but a per-step barrier.
``trajectory`` swaps two buffers of its own: a yielded state's buffer is
overwritten two items later, so copy ``amps`` (or take ``measure``) to keep
it.  The caller's initial state is never written.
"""

from __future__ import annotations

import math
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
    "diagonal",
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

    ``values[x + n]`` is mu_n(x) for x in [-n, n]; mu_n vanishes outside.
    """

    n: int
    values: np.ndarray

    def positions(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def at(self, x: int) -> complex:
        if -self.n <= x <= self.n:
            return complex(self.values[x + self.n])
        return 0j

    def total(self) -> complex:
        return complex(self.values.sum())

    def max_abs_imag(self) -> float:
        """Largest |Im mu|; NaN when a value is not finite, whose imaginary
        part a real-dtype field cannot carry."""
        if not len(self.values):
            return 0.0
        if not np.all(np.isfinite(self.values)):
            return math.nan
        return float(np.max(np.abs(self.values.imag)))


@dataclass
class BandState:
    """The walker's 4-vector field over the stripe.

    ``amps`` has shape (4, M, 2*n_max + 3); axis 0 is the component
    (LL, LR, RL, RR), axis 1 the row index v - s (v ascending from s to t),
    axis 2 the position index u + n_max + 1 (one guard column per side so
    the step kernel never reads out of bounds).  Its dtype is float64 or
    complex128 (see the module docstring); entries outside the column
    range ``live`` = [lo, hi) are exactly zero, and |u| <= n inside it.
    ``sublattices`` lists the parities of u+v occupied at n = 0.
    """

    coin: Coin
    s: int
    t: int
    n: int
    n_max: int
    amps: np.ndarray
    blocks: CoinBlocks = field(repr=False, default=None)  # type: ignore[assignment]
    sublattices: tuple[int, ...] = (0, 1)
    live: tuple[int, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.blocks is None:
            self.blocks = blocks(self.coin)
        if self.live is None:
            self.live = (self.center - self.n, self.center + self.n + 1)

    @property
    def m(self) -> int:
        return self.t - self.s + 1

    @property
    def center(self) -> int:
        return self.n_max + 1

    def row(self, v: int) -> np.ndarray:
        """Complex copy of the (4, U) field at transverse row v."""
        if not self.s <= v <= self.t:
            raise ValueError(f"row v={v} outside stripe [{self.s}, {self.t}]")
        return self.amps[:, v - self.s, :].astype(complex)

    def cell(self, u: int, v: int) -> np.ndarray:
        """The complex 4-vector at (u, v)."""
        return self.row(v)[:, u + self.center]

    def norm(self) -> float:
        """l2 norm of the whole field."""
        lo, hi = self.live
        return float(np.linalg.norm(self.amps[:, :, lo:hi]))

    def engine(self) -> dict:
        """The stepping choices behind this state, for provenance records.

        ``live_u`` is the inclusive u-range of the live window (None when
        the field is zero).
        """
        lo, hi = self.live
        return {
            "dtype": self.amps.dtype.name,
            "sublattices": list(self.sublattices),
            "live_u": [lo - self.center, hi - 1 - self.center] if lo < hi else None,
        }


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
    the spectral module reshapes to (M, 4) directly).  The data and the
    coin choose the engine: float64 when both are exactly real, and the
    u+v parities of the nonzero rows as the sublattices to step.
    """
    _validate_stripe(s, t)
    data = np.asarray(data, dtype=complex)
    m = t - s + 1
    if data.shape != (m, 4):
        raise ValueError(f"band data must have shape ({m}, 4), got {data.shape}")
    b = blocks(coin)
    inputs = (b.w_pp, b.w_qq, b.w_pq, b.w_qp, data)
    dtype = complex if any(np.any(x.imag) for x in inputs) else float
    occupied = np.any(data != 0, axis=1)  # a NaN row counts as occupied
    sublattices = tuple(sorted({v % 2 for v in range(s, t + 1) if occupied[v - s]}))
    amps = np.zeros((4, m, 2 * n_max + 3), dtype=dtype)
    amps[:, :, n_max + 1] = data.T if dtype is complex else data.T.real
    c = n_max + 1
    live = (c, c + 1) if sublattices else (c, c)
    return BandState(
        coin=coin, s=s, t=t, n=0, n_max=n_max, amps=amps, blocks=b,
        sublattices=sublattices, live=live,
    )


def _step_kernel_rank1(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    groups: Sequence[tuple[slice, slice]],
) -> None:
    """Write one step of the cut evolution into dst[:, rows, cols] per group.

    Uses the rank-1 factorization of the four tensor blocks: each block
    contributes (weight vector) times one scalar component of a shifted
    neighbor, summed in the order PP, QQ, PQ, QP.  ``rows`` and ``cols``
    are slices with steps 1 or 2.  Each strided neighbor is copied into a
    contiguous array once, so the four broadcast products stream over
    contiguous memory instead of re-reading the strided source.  Reads src
    one column beyond ``cols`` on each side, so callers keep one guard
    column.  ``weights`` is ``CoinBlocks.weights`` in the field's dtype.
    """
    w_pp, w_qq, w_pq, w_qp = weights
    m = src.shape[1]
    for rows, cols in groups:
        r0, rs = rows.start, rows.step
        c0, c1, cs = cols.start, cols.stop, cols.step
        acc = np.multiply(w_pp, src[LL, rows, c0 + 1 : c1 + 1 : cs].copy())
        acc += w_qq * src[RR, rows, c0 - 1 : c1 - 1 : cs].copy()
        # Transverse coupling: row r reads r+1 through PQ and r-1 through QP;
        # rows beyond the stripe edge contribute nothing (the cut).
        up = acc[:, : len(range(r0, m - 1, rs))]
        up += w_pq * src[LR, r0 + 1 : m : rs, cols].copy()
        r1 = r0 if r0 >= 1 else r0 + rs
        down = acc[:, (r1 - r0) // rs :]
        down += w_qp * src[RL, r1 - 1 : m - 1 : rs, cols].copy()
        dst[:, rows, cols] = acc


def _droppable(column: np.ndarray, tiny: float) -> bool:
    """True when every entry is finite and below tiny; NaN and inf compare False."""
    return bool(np.abs(column).max() < tiny)


def _live_groups(state: BandState, n: int, lo: int, hi: int) -> list[tuple[slice, slice]]:
    """(rows, cols) slices of the cells of columns [lo, hi) that are live at time n."""
    m = state.m
    if len(state.sublattices) == 2:
        return [(slice(0, m, 1), slice(lo, hi, 1))]
    # Row r (v = s + r) is live on the columns with u + v = n + sublattice
    # (mod 2); the column index is u + center, so the offset is absolute.
    parity = state.sublattices[0] + n - state.s + state.center
    return [
        (slice(r0, m, 2), slice(lo + (parity - r0 - lo) % 2, hi, 2)) for r0 in range(min(m, 2))
    ]


def step(state: BandState, out: BandState | None = None) -> BandState:
    """One cut-evolution step; returns a state with n incremented.

    The result is written into a fresh buffer, or into ``out.amps`` when a
    spent state ``out`` is given: it must be the state one step before
    ``state`` (``trajectory`` passes it), on a separate buffer of the same
    dtype and shape, so that its live cells lie on the sublattice the
    kernel writes.  Only the columns live in ``out`` that the new window
    does not cover are cleared.
    """
    if state.n >= state.n_max:
        raise RuntimeError(
            f"horizon exhausted: n = {state.n} has reached n_max = {state.n_max}"
        )
    src = state.amps
    lo, hi = state.live
    if lo < hi:
        lo, hi = lo - 1, hi + 1
    if out is None:
        dst = np.zeros_like(src)
    else:
        dst = out.amps
        if (
            out.n != state.n - 1
            or out.sublattices != state.sublattices
            or dst.dtype != src.dtype
            or dst.shape != src.shape
            or np.may_share_memory(dst, src)
        ):
            raise ValueError(
                "out must be the state one step before, on its own buffer of the same dtype and shape"
            )
        olo, ohi = out.live
        dst[:, :, olo : min(ohi, lo)] = 0
        dst[:, :, max(olo, hi) : ohi] = 0
    n = state.n + 1
    if lo < hi:
        w = state.blocks.weights
        weights = w.real if src.dtype.kind == "f" else w  # in the field's dtype
        _step_kernel_rank1(src, dst, weights, _live_groups(state, n, lo, hi))
    tiny = np.finfo(dst.dtype).tiny
    while lo < hi and _droppable(dst[:, :, lo], tiny):
        dst[:, :, lo] = 0
        lo += 1
    while lo < hi and _droppable(dst[:, :, hi - 1], tiny):
        dst[:, :, hi - 1] = 0
        hi -= 1
    return BandState(
        coin=state.coin,
        s=state.s,
        t=state.t,
        n=n,
        n_max=state.n_max,
        amps=dst,
        blocks=state.blocks,
        sublattices=state.sublattices,
        live=(lo, hi),
    )


def trajectory(state: BandState, steps: int) -> Iterator[BandState]:
    """Yield the state after each of the next ``steps`` steps.

    Two buffers are allocated and swapped: the buffer of a yielded state
    is overwritten two items later, so copy ``amps`` to keep it.  The
    initial state's buffer is never written.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    spare = None
    for i in range(steps):
        nxt = step(state, out=spare)
        spare = state if i > 0 else None
        state = nxt
        yield state


def evolve(state: BandState, steps: int) -> BandState:
    """The state ``steps`` steps later: the last item of ``trajectory``."""
    for state in trajectory(state, steps):
        pass
    return state


def diagonal(state: BandState) -> np.ndarray:
    """mu_n over x in [-n, n] (index x + n) in the field's dtype.

    The LL + RR components of the v = 0 row; real for a float64 field,
    where ``measure`` would add a zero imaginary part.
    """
    c, n = state.center, state.n
    row0 = state.amps[:, -state.s, c - n : c + n + 1]
    return row0[LL] + row0[RR]


def measure(state: BandState) -> ComplexMeasure:
    """Diagonal measure: LL + RR components of the v = 0 row, trimmed to |x| <= n."""
    return ComplexMeasure(n=state.n, values=diagonal(state).astype(complex, copy=False))


def band_field(state: BandState) -> np.ndarray:
    """Full off-diagonal view: one record (x, y, value) per cell, sorted by (x, y).

    ``value`` is the LL + RR component (complex128) at x = u + v, y = u - v;
    cells with |u| > n are omitted (they are exactly zero), so there are
    M (2n + 1) records.
    """
    c, n, s, t = state.center, state.n, state.s, state.t
    u = np.arange(-n, n + 1)
    v = np.arange(s, t + 1)[:, None]
    x, y = (u + v).ravel(), (u - v).ravel()
    cells = state.amps[:, :, c - n : c + n + 1]
    values = np.add(cells[LL], cells[RR], dtype=complex).ravel()
    order = np.lexsort((y, x))
    out = np.empty(x.size, dtype=[("x", np.int64), ("y", np.int64), ("value", np.complex128)])
    out["x"], out["y"], out["value"] = x[order], y[order], values[order]
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
