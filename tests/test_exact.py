"""The float engine against the exact dyadic-integer Hadamard walk.

``oracles.exact_trajectory`` steps the field times 2^(n + e) in Python ints, so the
sign of every measure value is exact and every float cell has an exact
reference.  The frozen first-negativity table is checked against it in
the c08 supplement of the acceptance suite.
"""

import math

import numpy as np
import pytest

from stripewalk import blocks, init_band_vector, init_product, make_hadamard, trajectory

from oracles import HADAMARD_BLOCKS_X2, exact_band_trajectory, exact_onset, exact_trajectory

HAD = make_hadamard()
PLUS_INT = (1, 1)  # g = (1, 1)/sqrt2, the start of the frozen onset table


def test_exact_blocks_are_twice_the_coin_blocks():
    b = blocks(HAD)
    for exact, block in zip(HADAMARD_BLOCKS_X2, (b.pp, b.qq, b.pq, b.qp)):
        assert np.max(np.abs(exact.astype(float) - 2 * block)) <= 1e-15


def test_width_one_never_negative_exactly():
    # n_crit(1) = n_max with tolerance 0: the M = 1 measure is a probability.
    n_max = 60
    onset, lowest = exact_onset(1, n_max)
    assert onset == n_max + 1
    assert lowest == 0.0


def test_width_two_first_negative_at_37_exactly():
    # Non-negative through n = 36, then a dip far above any float tolerance.
    onset, margin = exact_onset(2, 45)
    print(f"[PASS] exact: M=2 first negative at n={onset}, min Re mu = {margin:.3e}")
    assert onset == 37
    assert -3e-5 < margin < -2.9e-5


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_float_engine_within_1e14_of_exact(m):
    # The exact cells are rounded to float64 before the difference, which
    # adds at most half an ulp (<= 1.2e-16 for cells of size <= 1).
    n_max = 200
    start = init_product(HAD, np.array(PLUS_INT) / math.sqrt(2.0), m, n_max)
    assert start.engine()["dtype"] == "float64"
    worst = 0.0
    for state, (n, exact, e) in zip(trajectory(start, n_max), exact_trajectory(m, PLUS_INT, n_max)):
        cone = slice(state.center - n, state.center + n + 1)
        reference = np.ldexp(exact[:, :, cone].astype(float), -(n + e))
        worst = max(worst, float(np.max(np.abs(state.dense()[:, :, cone] - reference))))
        assert worst <= 1e-14, (m, n)
    assert state.n == n == n_max
    print(f"[PASS] exact: M={m} float64 max cell error {worst:.2e} for n <= {n_max} (<= 1e-14)")


#: Integer band starts: every row (both sublattices), and only the first or
#: only the last stripe row, which read zero beyond the cut through QP and
#: PQ respectively.
BAND_ROWS = {"all rows": None, "first row": [0], "last row": [-1]}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("rows", list(BAND_ROWS))
def test_band_starts_within_1e14_of_exact(m, rows):
    # Odd and even widths, so the even block of the packed layout has one
    # row more than the odd block or as many.
    n_max = 60
    data = np.random.default_rng(m).integers(-1, 2, size=(m, 4))
    if BAND_ROWS[rows] is not None:
        keep = np.zeros(m, dtype=bool)
        keep[BAND_ROWS[rows]] = True
        data[~keep] = 0
    start = init_band_vector(HAD, data.astype(float), m, n_max)
    if rows == "all rows":
        assert start.sublattices == (0, 1)
    worst = 0.0
    for state, (n, exact) in zip(trajectory(start, n_max), exact_band_trajectory(data, n_max)):
        reference = np.ldexp(exact.astype(float), -n)
        worst = max(worst, float(np.max(np.abs(state.dense() - reference))))
        assert worst <= 1e-14, (m, rows, n)
    assert state.n == n == n_max
