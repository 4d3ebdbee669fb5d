import math

import numpy as np
import pytest
from hypothesis import given, settings

from stripewalk import blocks, make_coin, make_hadamard
from stripewalk.coin import LL, LR, RL, RR, tensor_conj, unitarity_residual

from conftest import unitary_coin_strategy

E_LL = np.eye(4)[LL]
E_LR = np.eye(4)[LR]
E_RL = np.eye(4)[RL]
E_RR = np.eye(4)[RR]


def test_hadamard_entries():
    h = make_hadamard()
    assert h.a == 0.7071067811865476
    assert h.d == -0.7071067811865476
    assert h.a == h.b == h.c
    assert h.is_generic


def test_hadamard_unitarity_residual():
    assert unitarity_residual(make_hadamard().matrix) < 1e-15


def test_row_splits_annihilate():
    # |L><L|H then H*|R><R| hits orthogonal coordinates: P'* Q' = 0.
    b = blocks(make_hadamard())
    assert np.allclose(b.p_row.conj().T @ b.q_row, 0, atol=1e-15)
    assert np.allclose(b.q_row.conj().T @ b.p_row, 0, atol=1e-15)


def test_row_splits_trace_preserving():
    b = blocks(make_hadamard())
    total = b.p_row.conj().T @ b.p_row + b.q_row.conj().T @ b.q_row
    assert np.allclose(total, np.eye(2), atol=1e-15)


def test_make_coin_identity_not_generic():
    c = make_coin(1, 0, 0, 1)
    assert not c.is_generic


def test_make_coin_matches_hadamard():
    r = math.sqrt(0.5)
    assert make_coin(r, r, r, -r) == make_hadamard()


def test_make_coin_rejects_non_unitary():
    with pytest.raises(ValueError, match="residual"):
        make_coin(1, 1, 0, 0)
    with pytest.raises(ValueError, match="residual"):
        make_coin(math.nan, 0, 0, 1)
    # The reported residual for [[1,1],[0,0]] is the max entry of H*H - I.
    assert abs(unitarity_residual(np.array([[1, 1], [0, 0]])) - 1.0) < 1e-15


def test_column_splits_sum_to_coin():
    # P + Q = H, so PP + QQ + PQ + QP = (P + Q) (x) conj(P + Q) = H (x) conj(H).
    h = make_hadamard().matrix
    b = blocks(make_hadamard())
    assert np.allclose(b.pp + b.qq + b.pq + b.qp, np.kron(h, h.conj()))
    assert np.allclose(b.p_row + b.q_row, h)


def test_hadamard_pp_block():
    b = blocks(make_hadamard())
    expected = np.zeros((4, 4))
    expected[:, LL] = 0.5
    assert np.allclose(b.pp, expected, atol=1e-15)


def test_momentum_derivative_block():
    # -i PP + i QQ equals the explicit derivative block.
    b = blocks(make_hadamard())
    t1 = -1j * b.pp + 1j * b.qq
    expected = (-0.5j) * np.array(
        [[1, 0, 0, -1], [1, 0, 0, 1], [1, 0, 0, 1], [1, 0, 0, -1]]
    )
    assert np.allclose(t1, expected, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(unitary_coin_strategy())
def test_cross_blocks_have_zero_diagonal_trace_rows(coin):
    # (<LL| + <RR|) picks out LL from PP, RR from QQ, nothing from PQ, QP.
    b = blocks(coin)
    probe = E_LL + E_RR
    assert np.allclose(probe @ b.pp, E_LL, atol=1e-12)
    assert np.allclose(probe @ b.qq, E_RR, atol=1e-12)
    assert np.allclose(probe @ b.pq, 0, atol=1e-12)
    assert np.allclose(probe @ b.qp, 0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(unitary_coin_strategy())
def test_pq_row_sum_vanishes(coin):
    b = blocks(coin)
    assert np.max(np.abs(b.pq[LL] + b.pq[RR])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(unitary_coin_strategy())
def test_tensor_conj_multiplicative(coin):
    p = coin.matrix @ np.diag([1, 0])  # H|L><L|
    q = coin.matrix @ np.diag([0, 1])  # H|R><R|
    rng = np.random.default_rng(7)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    left = tensor_conj(p, q) @ np.kron(x, y.conj())
    right = np.kron(p @ x, (q @ y).conj())
    assert np.allclose(left, right, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(unitary_coin_strategy())
def test_coin_invariants(coin):
    assert unitarity_residual(coin.matrix) < 1e-12
    b = blocks(coin)
    assert np.allclose(b.pp, np.outer(b.weights[:, 0], E_LL), atol=1e-15)
    assert np.allclose(b.qq, np.outer(b.weights[:, 1], E_RR), atol=1e-15)
    assert np.allclose(b.pq, np.outer(b.weights[:, 2], E_LR), atol=1e-15)
    assert np.allclose(b.qp, np.outer(b.weights[:, 3], E_RL), atol=1e-15)
