import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermogp import autodiff as ad
from hiermogp.kernels import (
    MATERN32,
    RBF,
    HierarchicalKernel,
    StationaryKernel,
    eval_stationary,
    hier_block_cov,
    hier_cross_cov,
    latent_cov,
    validate_replica_blocks,
)
from hiermogp.kron import cholesky_jitter
from hiermogp.objective import _gram

from .oracles import full_cov


def rbf(variance=1.0, lengthscales=1.0):
    return StationaryKernel(RBF, variance, lengthscales)


def matern(variance=1.0, lengthscales=1.0):
    return StationaryKernel(MATERN32, variance, lengthscales)


def test_spec_validation():
    with pytest.raises(ValueError):
        StationaryKernel("cubic", 1.0, 1.0)
    with pytest.raises(ValueError):
        StationaryKernel(RBF, -1.0, 1.0)
    with pytest.raises(ValueError):
        StationaryKernel(RBF, 1.0, [1.0, -2.0])


def test_zero_distance_gives_variance():
    x = np.array([[0.3, -0.2]])
    for spec in (rbf(2.5, [1.0, 2.0]), matern(0.7, [0.5, 3.0])):
        assert np.isclose(eval_stationary(spec, x, x)[0, 0], spec.variance)


def test_rbf_unit_distance_value():
    k = eval_stationary(rbf(), [[0.0]], [[1.0]])
    assert np.isclose(k[0, 0], np.exp(-0.5))


def test_matern_unit_distance_value():
    k = eval_stationary(matern(), [[0.0]], [[1.0]])
    assert np.isclose(k[0, 0], (1.0 + np.sqrt(3.0)) * np.exp(-np.sqrt(3.0)))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        eval_stationary(rbf(lengthscales=[1.0, 1.0]), [[0.0]], [[1.0]])


def test_replica_block_validation():
    with pytest.raises(ValueError):
        validate_replica_blocks([np.zeros((2, 1)), np.zeros((2, 2))])
    assert validate_replica_blocks([np.zeros((2, 3))]) == 3


def test_single_replica_is_plain_sum_kernel():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(5, 1))
    hk = HierarchicalKernel(shared=matern(0.1), replica=matern(1.0))
    got = hier_block_cov(hk, [x], [x])
    expected = eval_stationary(hk.shared, x, x) + eval_stationary(hk.replica, x, x)
    assert np.allclose(got, expected)


def test_two_replica_zero_distance_structure():
    hk = HierarchicalKernel(shared=rbf(0.1), replica=rbf(1.0))
    blocks = [np.zeros((1, 1)), np.zeros((1, 1))]
    got = hier_block_cov(hk, blocks, blocks)
    assert np.allclose(got, [[1.1, 0.1], [0.1, 1.1]])


def test_block_cov_matches_per_entry_case_split():
    rng = np.random.default_rng(3)
    hk = HierarchicalKernel(shared=matern(0.4, 0.8), replica=rbf(1.3, 1.7))
    a = [rng.uniform(size=(3, 1)), rng.uniform(size=(2, 1))]
    b = [rng.uniform(size=(2, 1)), rng.uniform(size=(4, 1))]
    got = hier_block_cov(hk, a, b)
    # scalar oracle: walk every pair of points with their replica indices
    points_a = [(r, p) for r, blk in enumerate(a) for p in blk]
    points_b = [(r, p) for r, blk in enumerate(b) for p in blk]
    for i, (ra, pa) in enumerate(points_a):
        for j, (rb, pb) in enumerate(points_b):
            expected = eval_stationary(hk.shared, [pa], [pb])[0, 0]
            if ra == rb:
                expected += eval_stationary(hk.replica, [pa], [pb])[0, 0]
            assert np.isclose(got[i, j], expected)


def test_block_cov_replica_count_mismatch():
    hk = HierarchicalKernel(shared=rbf(), replica=rbf())
    with pytest.raises(ValueError):
        hier_block_cov(hk, [np.zeros((1, 1))], [np.zeros((1, 1)), np.zeros((1, 1))])


def test_flat_kernel_has_zero_cross_replica_blocks():
    hk = HierarchicalKernel(shared=None, replica=rbf(1.0))
    blocks = [np.zeros((2, 1)), np.zeros((2, 1))]
    got = hier_block_cov(hk, blocks, blocks)
    assert np.allclose(got[:2, 2:], 0.0)
    assert np.allclose(got[:2, :2], 1.0)


def test_cross_cov_tags_route_replica_kernel():
    hk = HierarchicalKernel(shared=rbf(0.1), replica=rbf(1.0))
    z = [np.zeros((1, 1)), np.zeros((1, 1))]
    got = hier_cross_cov(hk, np.zeros((2, 1)), [0, 1], z)
    assert np.allclose(got, [[1.1, 0.1], [0.1, 1.1]])
    with pytest.raises(ValueError):
        hier_cross_cov(hk, np.zeros((1, 1)), [2], z)


def test_cross_cov_consistent_with_block_cov():
    rng = np.random.default_rng(11)
    hk = HierarchicalKernel(shared=matern(0.3), replica=matern(0.9))
    a = [rng.uniform(size=(2, 1)), rng.uniform(size=(3, 1))]
    b = [rng.uniform(size=(2, 1)), rng.uniform(size=(2, 1))]
    tags = np.concatenate([np.full(2, 0), np.full(3, 1)])
    points = np.concatenate(a, axis=0)
    assert np.allclose(hier_cross_cov(hk, points, tags, b), hier_block_cov(hk, a, b))


def test_latent_cov_single_point():
    spec = rbf(1.7, [1.0, 1.0])
    h = np.array([[0.2, -0.4]])
    assert np.allclose(latent_cov(spec, h, h), [[1.7]])


def test_latent_cov_identical_points_rank_one():
    spec = rbf(1.0, [1.0, 1.0])
    h = np.array([[0.2, -0.4], [0.2, -0.4]])
    assert np.allclose(latent_cov(spec, h, h), 1.0)


def test_full_cov_block_structure():
    kx = np.array([[2.0, 0.5], [0.5, 1.0]])
    got = full_cov(np.eye(3), kx)
    for i in range(3):
        assert np.allclose(got[2 * i : 2 * i + 2, 2 * i : 2 * i + 2], kx)
    assert np.allclose(got[:2, 2:4], 0.0)


def test_full_cov_requires_symmetry():
    with pytest.raises(ValueError):
        full_cov(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([RBF, MATERN32]))
def test_stationary_gram_is_psd(seed, family):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(6, 2))
    spec = StationaryKernel(family, 1.5, [0.8, 1.2])
    factor = cholesky_jitter(eval_stationary(spec, x, x), base_jitter=1e-10)
    assert factor.jitter_used <= 1e-4 * spec.variance


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hier_gram_psd_and_diagonal_dominance(seed):
    rng = np.random.default_rng(seed)
    hk = HierarchicalKernel(shared=matern(0.3, 1.0), replica=matern(1.0, 1.0))
    blocks = [np.zeros((2, 1)), np.zeros((2, 1))]
    k = hier_block_cov(hk, blocks, blocks)
    assert np.allclose(k, k.T)
    cholesky_jitter(k)
    # at zero distances the same-replica blocks dominate the cross blocks
    assert np.all(k[:2, :2] > k[:2, 2:])
    blocks = [rng.uniform(size=(3, 1)) for _ in range(2)]
    k = hier_block_cov(hk, blocks, blocks)
    assert np.allclose(k, k.T)
    cholesky_jitter(k)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_full_cov_psd(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 2))
    x = rng.uniform(size=(4, 1))
    kh = latent_cov(rbf(1.0, [1.0, 1.0]), h, h)
    kx = eval_stationary(matern(), x, x)
    eigenvalues = np.linalg.eigvalsh(full_cov(kh, kx))
    assert eigenvalues.min() >= -1e-10


@pytest.mark.parametrize("family", [RBF, MATERN32])
def test_hyperparameter_gradients_match_finite_differences(family):
    # smoothness in log-variance and log-lengthscale, entry by entry
    rng = np.random.default_rng(5)
    x1 = rng.uniform(size=(4, 2))
    x2 = rng.uniform(size=(3, 2))
    log_v = np.log(1.3)
    log_ls = np.log([0.7, 1.4])

    def gram(lv, lls):
        spec = StationaryKernel(family, np.exp(lv), np.exp(lls))
        return eval_stationary(spec, x1, x2)

    lv_node = ad.Node(np.asarray(log_v))
    lls_node = ad.Node(log_ls)
    gram_node = _gram(family, ad.exp(lv_node), ad.exp(lls_node), x1, x2)
    assert np.allclose(gram_node.value, gram(log_v, log_ls), rtol=1e-12, atol=1e-12)
    step = 1e-6
    for i in range(4):
        for j in range(3):
            onehot = np.zeros((4, 3))
            onehot[i, j] = 1.0
            entry = ad.sum(gram_node * onehot)
            dv, dls = ad.grad(entry, [lv_node, lls_node])
            fd_v = (gram(log_v + step, log_ls)[i, j] - gram(log_v - step, log_ls)[i, j]) / (2 * step)
            assert np.isclose(dv, fd_v, rtol=1e-5, atol=1e-8)
            for q in range(2):
                delta = np.zeros(2)
                delta[q] = step
                fd_l = (gram(log_v, log_ls + delta)[i, j] - gram(log_v, log_ls - delta)[i, j]) / (2 * step)
                assert np.isclose(dls[q], fd_l, rtol=1e-5, atol=1e-8)
