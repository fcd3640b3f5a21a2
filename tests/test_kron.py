import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermogp.kron import CholeskyFactor, IndefiniteMatrixError, choose_jitter, cholesky_jitter

from .oracles import kron, kron_matvec, logdet, trace_kron, tri_solve, unvec, vec


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols))


def random_spd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T + n * np.eye(n))


def test_kron_identity_blocks():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_scalar_factor():
    b = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(kron(np.array([[2.0]]), b), 2.0 * b)


def test_kron_matches_elementwise_definition():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = a[i, j] * b
    assert np.array_equal(kron(a, b), expected)


def test_vec_is_column_stacking():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(unvec(vec(a), 2, 2), a)


def test_kron_matvec_identity():
    x = np.arange(6.0)
    assert np.allclose(kron_matvec(np.eye(2), np.eye(3), x), x)


def test_kron_matvec_scalar_factor():
    rng = np.random.default_rng(0)
    b = random_matrix(rng, 4, 4)
    x = rng.standard_normal(4)
    assert np.allclose(kron_matvec(np.array([[2.5]]), b, x), 2.5 * (b @ x))


def test_kron_matvec_rejects_bad_length():
    with pytest.raises(ValueError):
        kron_matvec(np.eye(2), np.eye(3), np.zeros(5))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_kron_matvec_matches_dense(ra, ca, rb, cb, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, ra, ca)
    b = random_matrix(rng, rb, cb)
    x = rng.standard_normal(ca * cb)
    dense = kron(a, b) @ x
    fast = kron_matvec(a, b, x)
    assert np.allclose(fast, dense, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_trace_kron_matches_dense(na, nb, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, na, na)
    b = random_matrix(rng, nb, nb)
    dense = np.trace(kron(a, b))
    assert np.isclose(trace_kron(a, b), dense, rtol=1e-12, atol=1e-12)


def test_trace_kron_trivial_cases():
    assert trace_kron(np.eye(2), np.eye(3)) == 6.0
    assert trace_kron(np.zeros((2, 2)), np.eye(3)) == 0.0
    with pytest.raises(ValueError):
        trace_kron(np.zeros((2, 3)), np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_mixed_product_identity(na, nb, seed):
    rng = np.random.default_rng(seed)
    a, c = (random_matrix(rng, na, na) for _ in range(2))
    b, d = (random_matrix(rng, nb, nb) for _ in range(2))
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.allclose(left, right, rtol=1e-10, atol=1e-10)


def test_cholesky_identity_needs_no_jitter():
    factor = cholesky_jitter(np.eye(3))
    assert factor.jitter_used == 0.0
    assert np.allclose(factor.lower, np.eye(3))


def test_cholesky_hand_example():
    factor = cholesky_jitter(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert factor.jitter_used == 0.0
    assert np.allclose(factor.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_cholesky_rank_deficient_gets_jitter():
    factor = cholesky_jitter(np.ones((2, 2)))
    assert factor.jitter_used > 0.0
    rebuilt = factor.lower @ factor.lower.T - factor.jitter_used * np.eye(2)
    assert np.abs(rebuilt - np.ones((2, 2))).max() < 1e-8 * 2.0


def test_cholesky_indefinite_raises():
    with pytest.raises(IndefiniteMatrixError):
        cholesky_jitter(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_cholesky_keeps_the_factor_of_the_chosen_jitter():
    # the factor and jitter equal choosing the jitter first and factoring again
    rng = np.random.default_rng(11)
    b = rng.standard_normal((5, 2))
    cases = {
        "positive definite": random_spd(rng, 4),
        "near singular": b @ b.T,
        "escalation": np.diag([1.0, 1.0, -1e-5]),
    }
    for name, a in cases.items():
        jitter = choose_jitter(a)
        expected = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]) if jitter > 0.0 else a)
        factor = cholesky_jitter(a)
        assert factor.jitter_used == jitter, name
        assert np.array_equal(factor.lower, expected), name
    assert cholesky_jitter(cases["positive definite"]).jitter_used == 0.0
    assert cholesky_jitter(cases["near singular"]).jitter_used > 0.0
    scale = np.mean(np.diag(cases["escalation"]))
    assert cholesky_jitter(cases["escalation"]).jitter_used > 1e-6 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_cholesky_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n)
    factor = cholesky_jitter(a)
    rebuilt = factor.lower @ factor.lower.T - factor.jitter_used * np.eye(n)
    assert np.abs(rebuilt - a).max() < 1e-8 * (1.0 + np.abs(a).max())
    assert np.all(np.diag(factor.lower) > 0.0)


def test_tri_solve_identity_factor():
    rhs = np.arange(6.0).reshape(3, 2)
    factor = CholeskyFactor(lower=np.eye(3))
    assert np.allclose(tri_solve(factor, rhs), rhs)


def test_logdet_diagonal_case():
    factor = cholesky_jitter(np.diag([4.0, 9.0]))
    assert np.isclose(logdet(factor), np.log(36.0))


def test_tri_solve_matches_dense_inverse():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 5)
    rhs = rng.standard_normal((5, 3))
    factor = cholesky_jitter(a)
    assert np.allclose(tri_solve(factor, rhs), np.linalg.inv(a) @ rhs, rtol=1e-10, atol=1e-10)


def test_tri_solve_rejects_wrong_rows():
    factor = cholesky_jitter(np.eye(3))
    with pytest.raises(ValueError):
        tri_solve(factor, np.zeros((4, 2)))
