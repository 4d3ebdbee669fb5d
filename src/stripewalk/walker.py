"""Real-space evolution of the stripe-cut walk and its two reference walks.

The walk lives on rotated coordinates (u, v): u runs along the diagonal of
the original two-dimensional lattice (the walker position), v is the
transverse coherence coordinate, confined to the M stripe rows
v = -(M // 2), ..., (M - 1) // 2 (``stripe_for_width``), so that v = 0 is
row M // 2.  One step reads

    psi'(u, v) = PP psi(u+1, v) + QQ psi(u-1, v)
               + PQ psi(u, v+1) + QP psi(u, v-1),

where PP = P (x) conj(P) etc., and any v outside the stripe reads as zero
(the cut).  This is the inverse Fourier transform of the momentum-space
step V(k) psi(v) + PQ psi(v+1) + QP psi(v-1); the two agree because the
u-shifts carry exactly the e^{-+ik} factors of V(k).

The complex measure is mu_n(x) = <LL|psi_n(u=x, v=0)> + <RR|psi_n(u=x, v=0)>
(v = 0 is the diagonal x = y).  Two independent oracles bracket the model:
the plain unitary walk (``qw1d_trajectory``, equal to the band measure
while the cone has not touched the stripe boundary) and ``oqrw_reference``
(the dissipative two-component recursion, equal to the M = 1 measure).

``trajectory(state, steps)`` is the one stepping loop: it yields the state
after each step to consumers that reduce as they go, and ``evolve`` is its
last item.  ``qw1d_trajectory`` does the same for the unitary reference
walk.

The step kernel computes only cells that can be nonzero and visible:

* dtype: float64 when the coin's rank-1 weights and the initial band data
  are exactly real (Hadamard from a real spinor, the mixed start),
  complex128 otherwise.  The kernel's product rounds differently in the
  two dtypes, so the contract is a bound, not bit equality: the float64
  path stays within 1e-14 per cell of the exact integer Hadamard walk for
  n <= 200, a real state stepped as complex128 agrees with it within
  1e-15 per cell, and a rerun of the same code gives the same bytes
  whatever the BLAS thread count.  ``measure`` and ``band_field``
  return complex values either way; ``diagonal`` keeps the field's dtype
  for consumers that reduce every step, and ``BandState.dense`` for
  consumers of the whole field.
* sublattices: a step moves every cell from u+v even to u+v odd or back,
  so the two parity classes of u+v evolve independently, and at time n a
  class holds only the cells with u + v = n + sigma (mod 2), sigma being
  its parity at n = 0.  The field stores each class the initial data
  occupies (one for product and mixed starts, possibly both for band
  starts) as its own packed field, and stores nothing else.
* packed layout: in a packed field each stripe row keeps only its live
  columns, so cell u of row r = v + M // 2 sits at packed column
  j = (u + center) // 2.  Rows are stored even-first (r = 0, 2, 4, ...,
  then 1, 3, 5, ...), so each row parity is one contiguous block, and the
  two blocks are live on opposite column parities.  That parity flips
  every step, so the block written on even columns reads LL at j and RR at
  j - 1, the other reads LL at j + 1 and RR at j, and both read LR and RL
  from the neighbor rows, which lie in the other block, at the same j.
  Both edges of the field are zero guards: packed column n_max + 1 past u,
  and one row after each block, which row 0 reads through QP and the last
  stripe row through PQ (the cut), so every gather is one step-1 slice.
  Which block reads which offsets depends only on the parity of n, so the
  slices are set up once, with the initial state, and ``step`` passes them
  on (``BandState.plans``).  A two-class band start steps its two packed
  fields through the same kernel; exactly one of them is live at each
  cell, so the dense field is their interleave (``BandState.dense``).
* live window: each state carries the column range that may be nonzero.
  It grows by at most one column per side per step; after each step, edge
  columns whose live cells are all finite and below ``np.finfo(dtype).tiny``
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
overwritten two items later, so take ``dense()`` (or ``measure``) to keep
it.  The caller's initial state is never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

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
    "oqrw_reference",
]


def stripe_for_width(m: int) -> tuple[int, int]:
    """First and last row (s, t) of the width-m stripe: symmetric for odd m,
    (-m/2, m/2 - 1) for even; v = 0 is row m // 2 either way.

    The one placement of the stripe, and the one check that m >= 1.
    """
    if m < 1:
        raise ValueError(f"stripe width must be >= 1, got {m}")
    return (-(m // 2), (m - 1) // 2)


@dataclass(frozen=True)
class ComplexMeasure:
    """The diagonal complex measure mu_n: Z -> C at a fixed time.

    ``values[x + n]`` is mu_n(x) for x in [-n, n]; mu_n vanishes outside.
    """

    n: int
    values: np.ndarray

    def positions(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

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


class _Block(NamedTuple):
    """One row-parity block of one packed field, at one parity of n."""

    field: int  # index into ``BandState.sublattices``
    rows: slice  # its packed rows
    vrows: slice  # the same rows as stripe rows v + M // 2 (step 2)
    q: int  # parity of the column u + center live in these rows
    up: slice  # packed rows read through PQ (LR at v + 1), one per row
    dn: slice  # packed rows read through QP (RL at v - 1), one per row


def _plans(m: int, center: int, sublattices: Sequence[int]) -> tuple:
    """Per parity of n: the blocks, and per column parity the (field, rows) live there.

    Even stripe rows occupy packed rows [0, ne), odd ones [ne + 1, m + 1);
    rows ne and m + 1 are zero guards.  Even row 2i reads row 2i+1 (packed
    ne + 1 + i) through PQ and row 2i-1 (packed ne + i) through QP; odd row
    2i+1 reads rows 2i+2 (packed i + 1) and 2i (packed i).  So row 0 and the
    last stripe row read a guard row beyond the stripe edge: the cut.
    """
    ne = (m + 1) // 2
    layout = (
        (slice(0, ne), slice(0, m, 2), slice(ne + 1, 2 * ne + 1), slice(ne, 2 * ne)),
        (slice(ne + 1, m + 1), slice(1, m, 2), slice(1, m - ne + 1), slice(0, m - ne)),
    )
    plans = []
    for parity in (0, 1):
        groups: list[_Block] = []
        columns: tuple[list, list] = ([], [])
        for f, sub in enumerate(sublattices):
            for b, (rows, vrows, up, dn) in enumerate(layout):
                if rows.start < rows.stop:
                    q = (parity + sub + m // 2 + center + b) % 2
                    groups.append(_Block(f, rows, vrows, q, up, dn))
                    columns[q].append((f, rows))
        plans.append((tuple(groups), (tuple(columns[0]), tuple(columns[1]))))
    return tuple(plans)


@dataclass
class BandState:
    """The walker's 4-vector field over the stripe, stored at its live cells.

    ``packed`` has shape (F, 4, M + 2, n_max + 2): one packed field per
    entry of ``sublattices`` (the parities of u+v occupied at n = 0), axis
    1 the component (LL, LR, RL, RR), axis 2 the stripe row r = v + M // 2
    in even-first order (0, 2, 4, ..., then 1, 3, 5, ...) with a zero guard
    row after each parity (packed rows ceil(M / 2) and M + 1), axis 3 the
    packed column j.  At time n the field of sublattice sigma holds cell
    (u, v) with u + v = n + sigma (mod 2) at j = (u + center) // 2; its
    other cells are zero and not stored.  The dtype is float64 or
    complex128 (see the module docstring).  ``live`` = [lo, hi) is the
    range of the column u + center that may be nonzero, and |u| <= n inside
    it; packed cells outside it are exactly zero, as is packed column
    n_max + 1 of the rows live on odd columns, which lies past the field (a
    guard column).  No step writes a guard row or column.

    ``dense()`` gives the field in the layout (4, M, 2 n_max + 3) with the
    column u + center.  ``blocks`` (which holds the coin) and ``plans``
    (the kernel's slices for both parities of n) pass unchanged from a
    state to the next.  Every field is required: ``init_band_vector``
    builds a state from its data, and ``step`` builds the next one from it.
    """

    m: int
    n: int
    n_max: int
    packed: np.ndarray
    blocks: CoinBlocks = field(repr=False)
    sublattices: tuple[int, ...]
    live: tuple[int, int]
    plans: tuple = field(repr=False)

    @property
    def center(self) -> int:
        return self.n_max + 1

    def dense(self) -> np.ndarray:
        """A fresh (4, M, 2 n_max + 3) copy of the field in its dtype.

        Axis 1 is the row v + M // 2, axis 2 the column u + center; the cells
        off the live sublattices are zero.
        """
        width = 2 * self.n_max + 3
        out = np.zeros((4, self.m, width), dtype=self.packed.dtype)
        for f, rows, vrows, q, *_ in self.plans[self.n % 2][0]:
            out[:, vrows, q::2] = self.packed[f, :, rows, : (width - q + 1) // 2]
        return out

    def norm(self) -> float:
        """l2 norm of the whole field.

        A numpy reduction over the live window, not ``np.linalg.norm``,
        whose BLAS dot product rounds differently with the thread count.
        """
        lo, hi = self.live
        return math.sqrt(np.square(np.abs(self.packed[..., lo // 2 : (hi + 1) // 2])).sum())

    def engine(self) -> dict:
        """The stepping choices behind this state, for provenance records.

        ``live_u`` is the inclusive u-range of the live window (None when
        the field is zero).
        """
        lo, hi = self.live
        return {
            "dtype": self.packed.dtype.name,
            "sublattices": list(self.sublattices),
            "live_u": [lo - self.center, hi - 1 - self.center] if lo < hi else None,
        }


def unit_spinor(g: Sequence[complex]) -> np.ndarray:
    """``g`` as a complex 2-vector; ValueError unless it is finite and unit length."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (2,):
        raise ValueError("spinor must be a 2-vector")
    norm = np.linalg.norm(g)
    if not abs(norm - 1.0) <= 1e-10:  # also rejects nan and inf
        raise ValueError(f"spinor must be finite and unit length, |g| = {norm}")
    return g


def init_product(coin: Coin, g: Sequence[complex], m: int, n_max: int) -> BandState:
    """Product initial state of the width-m stripe: the cell (Hg) (x) conj(Hg) at (u, v) = (0, 0).

    ``g`` must be a unit 2-vector; the coin is applied once before forming
    the tensor square, so the stored cell is (Hg) (x) conj(Hg).
    """
    s, _ = stripe_for_width(m)
    hg = coin.matrix @ unit_spinor(g)
    data = np.zeros((m, 4), dtype=complex)
    data[-s] = np.kron(hg, hg.conj())
    return init_band_vector(coin, data, m, n_max)


def init_band_vector(
    coin: Coin, data: Sequence[Sequence[complex]] | np.ndarray, m: int, n_max: int
) -> BandState:
    """Place one 4-vector per row of the width-m stripe at u = 0.

    ``data`` holds M 4-vectors indexed by v ascending (row v + M // 2),
    matching the block order of the momentum-space operator (a flat 4M
    vector from the spectral module reshapes to (M, 4) directly).  The
    data and the coin choose the engine: float64 when both are exactly
    real, and the u+v parities of the nonzero rows as the sublattices to
    step.
    """
    s, _ = stripe_for_width(m)
    data = np.asarray(data, dtype=complex)
    if data.shape != (m, 4):
        raise ValueError(f"band data must have shape ({m}, 4), got {data.shape}")
    b = blocks(coin)
    dtype = complex if any(np.any(x.imag) for x in (b.weights, data)) else float
    occupied = np.any(data != 0, axis=1)  # a NaN row counts as occupied
    sublattices = tuple(sorted({(r + s) % 2 for r in range(m) if occupied[r]}))
    c = n_max + 1
    state = BandState(
        m=m, n=0, n_max=n_max,
        packed=np.zeros((len(sublattices), 4, m + 2, n_max + 2), dtype=dtype), blocks=b,
        sublattices=sublattices, live=(c, c + 1) if sublattices else (c, c),
        plans=_plans(m, c, sublattices),
    )
    # At n = 0 sublattice sigma is live at u = 0 exactly in its rows v = sigma (mod 2).
    for f, rows, vrows, q, *_ in state.plans[0][0]:
        if q == c % 2:
            state.packed[f, :, rows, c // 2] = data[vrows].T if dtype is complex else data[vrows].T.real
    return state


def _step_kernel_rank1(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    groups: Sequence[_Block],
    lo: int,
    hi: int,
) -> None:
    """Write one step of the cut evolution into the columns [lo, hi) of dst.

    Uses the rank-1 factorization of the four tensor blocks: each block
    contributes (weight vector) times one scalar component of a shifted
    neighbor.  Per block of ``groups`` (the plan of the new time), the four
    neighbors (LL from u+1, RR from u-1, LR from v+1, RL from v-1) are
    gathered from packed step-1 slices (beyond the stripe edge, a zero
    guard row: the cut) into one contiguous (rows, 4, cols) array, and a
    (4, 4) by (4, cols) product per row mixes them into dst.  [lo, hi) is
    in the column u + center; a block live on column parity q writes packed
    columns (lo - q + 1) // 2 up to (hi - q + 1) // 2 and reads one packed
    column beyond them on one side.  ``weights`` is ``CoinBlocks.weights``
    (the rank-1 columns of PP, QQ, PQ and QP) or its ``real_weights``,
    whichever is in the field's dtype.
    """
    for f, rows, _, q, up, dn in groups:
        j0, j1 = (lo - q + 1) >> 1, (hi - q + 1) >> 1
        a = src[f]
        gathered = np.empty((rows.stop - rows.start, 4, j1 - j0), dtype=src.dtype)
        gathered[:, 0] = a[LL, rows, j0 + q : j1 + q]
        gathered[:, 1] = a[RR, rows, j0 + q - 1 : j1 + q - 1]
        gathered[:, 2] = a[LR, up, j0:j1]
        gathered[:, 3] = a[RL, dn, j0:j1]
        # One (4, 4) product per row, written straight into the field.
        np.matmul(weights, gathered, out=dst[f, :, rows, j0:j1].transpose(1, 0, 2))


def _droppable(column: Sequence[np.ndarray], tiny: float) -> bool:
    """True when every live cell of a column is finite and below tiny; NaN and inf compare False.

    ``column`` holds one (4, rows) array per packed field live there.
    """
    for cells in column:  # a few values per row: a Python scan that stops at the first large one
        for values in cells.tolist():
            for value in values:
                if not abs(value) < tiny:
                    return False
    return True


def _drop(dst: np.ndarray, columns: tuple, col: int, tiny: float) -> bool:
    """Zero the live cells of column ``col`` of dst when they are ``_droppable``; whether it did.

    ``columns`` is the plan's (field, rows) per column parity.
    """
    column = [dst[f, :, rows, col >> 1] for f, rows in columns[col & 1]]
    if not _droppable(column, tiny):
        return False
    for cells in column:
        cells[...] = 0
    return True


def step(state: BandState, out: BandState | None = None) -> BandState:
    """One cut-evolution step; returns a state with n incremented.

    The result is written into a fresh buffer, or into ``out.packed`` when
    a spent state ``out`` is given: it must be the state one step before
    ``state`` (``trajectory`` passes it), on a separate buffer of the same
    dtype and shape, so that its live cells lie where the kernel writes.
    Only the columns live in ``out`` that the new window does not cover
    are cleared.
    """
    if state.n >= state.n_max:
        raise RuntimeError(
            f"horizon exhausted: n = {state.n} has reached n_max = {state.n_max}"
        )
    src = state.packed
    lo, hi = state.live
    if lo < hi:
        lo, hi = lo - 1, hi + 1
    n = state.n + 1
    groups, columns = state.plans[n % 2]
    if out is None:
        dst = np.zeros_like(src)
    else:
        dst = out.packed
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
        for c0, c1 in ((olo, min(ohi, lo)), (max(olo, hi), ohi)):
            if c0 < c1:
                for f, rows, _, q, *_ in groups:
                    dst[f, :, rows, (c0 - q + 1) >> 1 : (c1 - q + 1) >> 1] = 0
    if lo < hi:
        b = state.blocks
        weights = b.real_weights if src.dtype.kind == "f" else b.weights  # in the field's dtype
        _step_kernel_rank1(src, dst, weights, groups, lo, hi)
    tiny = np.finfo(dst.dtype).tiny
    while lo < hi and _drop(dst, columns, lo, tiny):
        lo += 1
    while lo < hi and _drop(dst, columns, hi - 1, tiny):
        hi -= 1
    return BandState(
        m=state.m,
        n=n,
        n_max=state.n_max,
        packed=dst,
        blocks=state.blocks,
        sublattices=state.sublattices,
        live=(lo, hi),
        plans=state.plans,
    )


def trajectory(state: BandState, steps: int) -> Iterator[BandState]:
    """Yield the state after each of the next ``steps`` steps.

    Two buffers are allocated and swapped: the buffer of a yielded state
    is overwritten two items later, so take ``dense()`` to keep it.  The
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


def _cone(state: BandState, q: int) -> tuple[int, int, int]:
    """(i0, j0, count): the cells of column parity q with |u| <= n sit at
    index x + n = i0, i0 + 2, ... and packed columns j0 .. j0 + count - 1."""
    first = state.center - state.n  # column of u = -n
    i0 = (q - first) % 2
    return i0, (first + i0) // 2, state.n + 1 - i0


def diagonal(state: BandState) -> np.ndarray:
    """mu_n over x in [-n, n] (index x + n) in the field's dtype.

    The LL + RR components of the v = 0 row; real for a float64 field,
    where ``measure`` would add a zero imaginary part.
    """
    out = np.zeros(2 * state.n + 1, dtype=state.packed.dtype)
    r = state.m // 2
    for f, rows, vrows, q, *_ in state.plans[state.n % 2][0]:
        if vrows.start == r % 2:
            i0, j0, count = _cone(state, q)
            cells = state.packed[f, :, rows.start + r // 2, j0 : j0 + count]
            np.add(cells[LL], cells[RR], out=out[i0::2])
    return out


def measure(state: BandState) -> ComplexMeasure:
    """Diagonal measure: LL + RR components of the v = 0 row, trimmed to |x| <= n."""
    return ComplexMeasure(n=state.n, values=diagonal(state).astype(complex, copy=False))


def band_field(state: BandState) -> np.ndarray:
    """Full off-diagonal view: one record (x, y, value) per cell, sorted by (x, y).

    ``value`` is the LL + RR component (complex128) at x = u + v, y = u - v;
    cells with |u| > n are omitted (they are exactly zero), so there are
    M (2n + 1) records.
    """
    n = state.n
    values = np.zeros((state.m, 2 * n + 1), dtype=complex)
    for f, rows, vrows, q, *_ in state.plans[n % 2][0]:
        i0, j0, count = _cone(state, q)
        cells = state.packed[f, :, rows, j0 : j0 + count]
        np.add(cells[LL], cells[RR], out=values[vrows, i0::2])
    u = np.arange(-n, n + 1)
    s, t = stripe_for_width(state.m)
    v = np.arange(s, t + 1)[:, None]
    x, y = (u + v).ravel(), (u - v).ravel()
    values = values.ravel()
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
