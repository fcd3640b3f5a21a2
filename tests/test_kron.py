import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermogp import autodiff as ad
from hiermogp.kernels import RBF, StationaryKernel, eval_stationary
from hiermogp.kron import IndefiniteMatrixError, cholesky_jitter, spd_inverse, tril_inverse

from . import oracles
from .helpers import check, contract, symmetrised
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
    lower, jitter = cholesky_jitter(np.eye(3))
    assert jitter == 0.0
    assert np.allclose(lower, np.eye(3))


def test_cholesky_hand_example():
    lower, jitter = cholesky_jitter(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert jitter == 0.0
    assert np.allclose(lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_cholesky_rank_deficient_gets_jitter():
    lower, jitter = cholesky_jitter(np.ones((2, 2)))
    assert jitter > 0.0
    rebuilt = lower @ lower.T - jitter * np.eye(2)
    assert np.abs(rebuilt - np.ones((2, 2))).max() < 1e-8 * 2.0


def test_cholesky_indefinite_raises():
    with pytest.raises(IndefiniteMatrixError):
        cholesky_jitter(np.array([[1.0, 0.0], [0.0, -1.0]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_cholesky_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n)
    lower, jitter = cholesky_jitter(a)
    rebuilt = lower @ lower.T - jitter * np.eye(n)
    assert np.abs(rebuilt - a).max() < 1e-8 * (1.0 + np.abs(a).max())
    assert np.all(np.diag(lower) > 0.0)


def test_tri_solve_identity_factor():
    rhs = np.arange(6.0).reshape(3, 2)
    assert np.allclose(tri_solve(np.eye(3), rhs), rhs)


def test_logdet_diagonal_case():
    lower, _ = cholesky_jitter(np.diag([4.0, 9.0]))
    assert np.isclose(logdet(lower), np.log(36.0))


def test_tri_solve_matches_dense_inverse():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 5)
    rhs = rng.standard_normal((5, 3))
    lower, _ = cholesky_jitter(a)
    assert np.allclose(tri_solve(lower, rhs), np.linalg.inv(a) @ rhs, rtol=1e-10, atol=1e-10)


def test_tri_solve_rejects_wrong_rows():
    lower, _ = cholesky_jitter(np.eye(3))
    with pytest.raises(ValueError):
        tri_solve(lower, np.zeros((4, 2)))


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_spd_inverse_values_and_vjp(jitter):
    rng = np.random.default_rng(42)
    a = random_spd(np.random.default_rng(1), 4)
    shifted = a + jitter * np.eye(4)
    (inverse, logdet), _ = spd_inverse(np.linalg.cholesky(shifted))
    assert np.allclose(inverse, np.linalg.inv(shifted), rtol=1e-12, atol=1e-14)
    assert np.isclose(logdet, np.linalg.slogdet(shifted)[1], rtol=1e-13)

    def recorded(a):
        # the two nodes of a symmetrised node, from the factor of its value,
        # as the bound records them
        symmetric = symmetrised(a)
        values, backward = spd_inverse(np.linalg.cholesky(symmetric.value + jitter * np.eye(4)))
        return ad.fused(values, (symmetric,), backward)

    weights = rng.standard_normal((4, 4))

    def both(a):
        inverse, logdet = recorded(a)
        return contract((inverse, weights), (logdet, 1.7))

    check(both, a, rtol=1e-5)
    # each output alone: the other one's cotangent is zero
    check(lambda a: contract((recorded(a)[0], weights)), a, rtol=1e-5)
    check(lambda a: recorded(a)[1], a, rtol=1e-5)


@pytest.mark.parametrize("case", ["positive definite", "near singular", "escalation"])
def test_ladder_and_inverse_read_only_the_lower_triangle(case):
    rng = np.random.default_rng(11)
    b = rng.standard_normal((5, 2))
    a = {
        "positive definite": random_spd(rng, 5),
        "near singular": b @ b.T,
        "escalation": np.diag([1.0, 1.0, 1.0, 1.0, -1e-5]),
    }[case]
    lower, jitter = cholesky_jitter(a)
    if case == "positive definite":
        assert jitter == 0.0
    elif case == "near singular":
        assert jitter > 0.0
    else:  # past the first rung of the ladder
        assert jitter > 1e-6 * np.mean(np.diag(a))
    (inverse, logdet), _ = spd_inverse(lower)
    shifted = a + jitter * np.eye(5)
    expected = np.linalg.inv(shifted)
    assert np.abs(inverse - expected).max() <= 1e-8 * np.abs(expected).max()
    assert np.isclose(logdet, np.linalg.slogdet(shifted)[1], rtol=1e-10)
    # upper perturbations of the Gram and of its factor are inert
    upper = np.triu(rng.standard_normal((5, 5)), k=1)
    lower_upset, jitter_upset = cholesky_jitter(a + upper)
    assert jitter_upset == jitter
    assert np.array_equal(lower_upset, lower)
    assert np.array_equal(spd_inverse(lower_upset)[0][0], inverse)
    assert np.array_equal(tril_inverse(lower + upper), tril_inverse(lower))


def test_tril_inverse_matches_triangular_solve_on_ill_conditioned_factor():
    x = np.linspace(0.0, 1.0, 8)[:, None]
    gram = eval_stationary(StationaryKernel(RBF, 1.0, np.array([0.4])), x, x)
    assert 1e6 < np.linalg.cond(gram) < 1e8
    lower = np.linalg.cholesky(gram)
    expected = oracles.tril_inverse(lower)
    got = tril_inverse(lower)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("lengthscale", [0.1, 0.3, 0.5, 0.6, 1.0])
def test_tril_inverse_equals_the_solve_form_bit_for_bit(lengthscale):
    # inv is gesv against the identity, as solve with an explicit identity
    # is: the two agree bitwise on the factors of 12-point RBF Grams whose
    # condition numbers run from 1e2 to 1.7e17 (1e7 once jittered, at 1.0)
    x = np.linspace(0.0, 1.0, 12)[:, None]
    gram = eval_stationary(StationaryKernel(RBF, 1.0, np.array([lengthscale])), x, x)
    lower, _ = cholesky_jitter(gram)
    flipped = np.tril(lower)[::-1, ::-1]
    solved = np.linalg.solve(flipped, np.eye(lower.shape[0]))[::-1, ::-1]
    assert np.array_equal(tril_inverse(lower), solved)


# cholesky_jitter and tril_inverse call the LAPACK gufuncs of np.linalg
# directly; these pin them to np.linalg's results bit for bit, and fail if a
# numpy release renames the gufuncs


@pytest.mark.parametrize("n", [1, 4, 18])
def test_cholesky_jitter_is_np_linalg_cholesky_bit_for_bit(n):
    a = random_spd(np.random.default_rng(60 + n), n)
    lower, jitter = cholesky_jitter(a)
    assert jitter == 0.0
    assert np.array_equal(lower, np.linalg.cholesky(a))


@pytest.mark.parametrize("n", [1, 4, 18])
def test_tril_inverse_is_np_linalg_inv_bit_for_bit(n):
    lower = np.linalg.cholesky(random_spd(np.random.default_rng(70 + n), n))
    expected = np.linalg.inv(np.tril(lower)[::-1, ::-1])[::-1, ::-1]
    lower[np.triu_indices(n, k=1)] = np.nan  # never read
    got = tril_inverse(lower)
    assert np.array_equal(got, expected)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 4, 18])
def test_indefinite_input_climbs_the_ladder_or_raises_without_warnings(n):
    a = random_spd(np.random.default_rng(80 + n), n)
    slightly = a.copy()
    slightly[-1, -1] = -1e-7 * np.mean(np.diag(a))  # one rung past zero jitter
    far = -a  # no rung makes it positive definite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower, jitter = cholesky_jitter(slightly)
        assert jitter > 0.0
        assert np.array_equal(lower, np.linalg.cholesky(slightly + jitter * np.eye(n)))
        with pytest.raises(IndefiniteMatrixError):
            cholesky_jitter(far)
