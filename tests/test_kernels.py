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
    gram,
    hier_block_cov,
    hier_cross_cov,
    hier_gram,
    latent_cov,
    replica_pairs,
    stack_blocks,
    validate_replica_blocks,
)
from hiermogp.kron import cholesky_jitter
from .helpers import check, contract, exp
from .oracles import full_cov, hier_cross_dense, hier_gram_masked


def rbf(variance=1.0, lengthscales=1.0):
    return StationaryKernel(RBF, variance, lengthscales)


def matern(variance=1.0, lengthscales=1.0):
    return StationaryKernel(MATERN32, variance, lengthscales)


def by_tag(points, tags):
    """Points and tags stably sorted on tag, as the bound stacks its points."""
    order = np.argsort(tags, kind="stable")
    return points[order], tags[order]


def offsets(tags, n_replicas):
    """The stack_blocks offsets of points sorted on tag."""
    return np.searchsorted(tags, np.arange(n_replicas + 1)).tolist()


def test_spec_validation():
    with pytest.raises(ValueError):
        StationaryKernel("cubic", 1.0, 1.0)
    with pytest.raises(ValueError):
        StationaryKernel(RBF, -1.0, 1.0)
    with pytest.raises(ValueError):
        StationaryKernel(RBF, 1.0, [1.0, -2.0])


@pytest.mark.parametrize(
    "variance, lengthscales",
    [(np.nan, 1.0), (np.inf, 1.0), (1.0, [1.0, np.nan]), (1.0, [np.inf, 1.0])],
)
def test_spec_rejects_non_finite_hyperparameters(variance, lengthscales):
    with pytest.raises(ValueError, match="positive and finite"):
        StationaryKernel(RBF, variance, lengthscales)


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
    z = stack_blocks([np.zeros((1, 1)), np.zeros((1, 1))])
    got = hier_cross_cov(hk, np.zeros((2, 1)), [0, 1], *z)
    assert np.allclose(got, [[1.1, 0.1], [0.1, 1.1]])


@pytest.mark.parametrize("tags", [[2], [0, 2], [-1], [1, -1, 0]])
def test_cross_cov_names_an_unknown_or_negative_tag(tags):
    hk = HierarchicalKernel(shared=rbf(0.1), replica=rbf(1.0))
    z = stack_blocks([np.zeros((1, 1)), np.zeros((1, 1))])
    bad = next(t for t in tags if not 0 <= t < 2)
    with pytest.raises(ValueError, match=f"unknown replica tag {bad}; dataset has 2 replicas"):
        hier_cross_cov(hk, np.zeros((len(tags), 1)), tags, *z)


def test_stack_blocks_lays_out_blocks_with_their_offsets():
    blocks = [np.ones((2, 3)), np.zeros((0, 3)), 2.0 * np.ones((1, 3))]
    points, starts = stack_blocks(blocks)
    assert starts == (0, 2, 2, 3)
    assert np.array_equal(points, np.concatenate(blocks, axis=0))
    with pytest.raises(ValueError, match="expected 2"):
        stack_blocks(blocks, input_dim=2)


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize(
    "case", ["mixed tags", "single tag", "empty replica block", "tag of the empty block", "no points"]
)
def test_cross_cov_on_stacked_layout_equals_dense_composition(case, flat):
    # bit for bit: the shared kernel over every column plus the replica
    # kernel on the same-tag columns, through a tag mask
    rng = np.random.default_rng(12)
    hk = HierarchicalKernel(shared=None if flat else matern(0.3, [0.7, 1.1]), replica=rbf(0.9, [0.5, 0.8]))
    sizes = [3, 0, 4, 2] if "empty" in case else [3, 1, 4, 2]
    blocks = [rng.uniform(size=(m, 2)) for m in sizes]
    n = 0 if case == "no points" else 7
    tags = {
        "mixed tags": rng.permutation([0, 0, 1, 2, 2, 3, 3]),
        "single tag": np.full(n, 2),
        "empty replica block": np.array([0, 1, 1, 2, 3, 3, 0]),
        "tag of the empty block": np.full(n, 1),
        "no points": np.zeros(0, int),
    }[case]
    points = rng.uniform(size=(n, 2))
    got = hier_cross_cov(hk, points, tags, *stack_blocks(blocks))
    assert got.shape == (n, sum(sizes))
    assert np.array_equal(got, hier_cross_dense(hk, points, tags, blocks))


def test_cross_cov_consistent_with_block_cov():
    rng = np.random.default_rng(11)
    hk = HierarchicalKernel(shared=matern(0.3), replica=matern(0.9))
    a = [rng.uniform(size=(2, 1)), rng.uniform(size=(3, 1))]
    b = [rng.uniform(size=(2, 1)), rng.uniform(size=(2, 1))]
    tags = np.concatenate([np.full(2, 0), np.full(3, 1)])
    points = np.concatenate(a, axis=0)
    assert np.array_equal(hier_cross_cov(hk, points, tags, *stack_blocks(b)), hier_block_cov(hk, a, b))


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
    _, jitter = cholesky_jitter(eval_stationary(spec, x, x), base_jitter=1e-10)
    assert jitter <= 1e-4 * spec.variance


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
    # the Gram node against the numpy Gram: smoothness in log-variance and
    # log-lengthscale entry by entry, then gradients into the point sets
    rng = np.random.default_rng(5)
    x1 = rng.uniform(size=(4, 2))
    x2 = rng.uniform(size=(3, 2))
    log_v = np.log(1.3)
    log_ls = np.log([0.7, 1.4])

    def numpy_gram(lv, lls):
        spec = StationaryKernel(family, np.exp(lv), np.exp(lls))
        return eval_stationary(spec, x1, x2)

    lv_node = ad.Node(np.asarray(log_v))
    lls_node = ad.Node(log_ls)
    gram_node = ad.record(gram, exp(lv_node), exp(lls_node), ad.Node(x1), ad.Node(x2), family=family)
    assert np.allclose(gram_node.value, numpy_gram(log_v, log_ls), rtol=1e-12, atol=1e-12)
    step = 1e-6
    for i in range(4):
        for j in range(3):
            onehot = np.zeros((4, 3))
            onehot[i, j] = 1.0
            entry = contract((gram_node, onehot))
            dv, dls = ad.grad(entry, [lv_node, lls_node])
            fd_v = (numpy_gram(log_v + step, log_ls)[i, j] - numpy_gram(log_v - step, log_ls)[i, j]) / (2 * step)
            assert np.isclose(dv, fd_v, rtol=1e-5, atol=1e-8)
            for q in range(2):
                delta = np.zeros(2)
                delta[q] = step
                fd_l = (numpy_gram(log_v, log_ls + delta)[i, j] - numpy_gram(log_v, log_ls - delta)[i, j]) / (2 * step)
                assert np.isclose(dls[q], fd_l, rtol=1e-5, atol=1e-8)

    # a batch of point sets against one shared set: the batched value, as
    # the replica pairs of hier_gram evaluate it
    batch = rng.uniform(size=(3, 4, 2))
    points = rng.uniform(size=(5, 2))
    spec = StationaryKernel(family, 1.3, [0.7, 1.4])
    rng.standard_normal((3, 4, 5))  # the square check draws its weights after this draw
    value, backward = gram(1.3, np.array([0.7, 1.4]), batch, points, family=family)
    node = ad.fused(value, (1.3, [0.7, 1.4], batch, ad.Node(points)), backward)
    assert len(node.parents) == 1  # constants are no parents
    for i in range(3):
        assert np.allclose(node.value[i], eval_stationary(spec, batch[i], points), rtol=1e-12, atol=1e-12)

    # one node as both point sets, as the inducing Gram takes it; the last
    # point coincides with the first, where Matern's sqrt has no derivative
    z = np.concatenate([points, points[:1]])
    weights_zz = rng.standard_normal((6, 6))

    def square(lv, lls, z):
        return contract((ad.record(gram, exp(lv), exp(lls), z, z, family=family), weights_zz))

    check(square, np.asarray(log_v), log_ls, z, rtol=1e-5)


@pytest.mark.parametrize("family", [RBF, MATERN32])
@pytest.mark.parametrize("flat", [False, True])
def test_hier_gram_node_matches_numpy_and_finite_differences(family, flat):
    # the inducing Gram (one node as both point sets, with a coincident pair
    # in one replica, where Matern's sqrt has no derivative) and the cross
    # covariance of constant data with it, against hier_cross_cov and,
    # bit for bit, against the masked dense node
    rng = np.random.default_rng(9)
    z = rng.uniform(size=(5, 2))
    z[2] = z[0]
    z_tags = np.array([0, 0, 0, 1, 1])
    x, x_tags = by_tag(rng.uniform(size=(6, 2)), np.array([1, 0, 1, 1, 0, 0]))
    logs = [np.asarray(np.log(0.4)), np.log([0.8, 1.3]), np.asarray(np.log(1.2)), np.log([0.6, 0.9])]
    spec = HierarchicalKernel(
        shared=None if flat else StationaryKernel(family, 0.4, [0.8, 1.3]),
        replica=StationaryKernel(family, 1.2, [0.6, 0.9]),
    )

    families = (None if flat else family, family)

    def levels(lvg, llsg, lvf, llsf):
        replica = (exp(lvf), exp(llsf))
        return replica if flat else (exp(lvg), exp(llsg), *replica)

    blocks = [z[:3], z[3:]]
    z_starts = offsets(z_tags, 2)
    kuu_pairs, kfu_pairs = replica_pairs(z_starts, z_starts), replica_pairs(offsets(x_tags, 2), z_starts)
    kuu = ad.record(hier_gram, *levels(*map(ad.Node, logs)), ad.Node(z), ad.Node(z), families=families, pairs=kuu_pairs)
    kfu = ad.record(hier_gram, *levels(*map(ad.Node, logs)), ad.Node(z), families=families, pairs=kfu_pairs, xa=x)
    layout = stack_blocks(blocks)
    assert np.allclose(kuu.value, hier_cross_cov(spec, z, z_tags, *layout), rtol=1e-14, atol=1e-15)
    assert np.allclose(kfu.value, hier_cross_cov(spec, x, x_tags, *layout), rtol=1e-14, atol=1e-15)
    assert len(kfu.parents) == 5 - 2 * flat  # the data are a constant

    w_uu, w_fu = rng.standard_normal((5, 5)), rng.standard_normal((6, 5))

    def inducing(lvg, llsg, lvf, llsf, z):
        node = ad.record(hier_gram, *levels(lvg, llsg, lvf, llsf), z, z, families=families, pairs=kuu_pairs)
        return contract((node, w_uu))

    def cross(lvg, llsg, lvf, llsf, z):
        node = ad.record(hier_gram, *levels(lvg, llsg, lvf, llsf), z, families=families, pairs=kfu_pairs, xa=x)
        return contract((node, w_fu))

    check(inducing, *logs, z, rtol=1e-5)
    check(cross, *logs, z, rtol=1e-5)

    # bit for bit against the masked dense node, here and with a replica
    # that has no data points and inducing blocks of unequal sizes
    z3 = rng.uniform(size=(6, 2))
    z3[4] = z3[3]
    z3_tags = np.array([0, 1, 1, 2, 2, 2])
    x3, x3_tags = by_tag(x, np.array([2, 0, 2, 2, 0, 2]))
    for za, za_tags, xa, xa_tags, n_replicas in ((z, z_tags, x, x_tags, 2), (z3, z3_tags, x3, x3_tags, 3)):
        for a, a_tags in ((None, za_tags), (xa, xa_tags)):  # the inducing Gram, then the cross covariance
            weights = rng.standard_normal((a_tags.size, za_tags.size))
            pairs = replica_pairs(offsets(a_tags, n_replicas), offsets(za_tags, n_replicas))
            nodes = []
            for masked in (False, True):
                leaves = [ad.Node(v) for v in (*logs, za)]
                zn = leaves[-1]
                if a is None:  # one node as both point sets
                    arrays, points = (*levels(*leaves[:4]), zn, zn), {}
                else:  # the data are a constant
                    arrays, points = (*levels(*leaves[:4]), zn), {"xa": a}
                if masked:
                    node = ad.record(hier_gram_masked, *arrays, families=families, tags=(a_tags, za_tags), **points)
                else:
                    node = ad.record(hier_gram, *arrays, families=families, pairs=pairs, **points)
                nodes.append((node.value, ad.grad(contract((node, weights)), leaves)))
            (value, grads), (value_ref, grads_ref) = nodes
            assert np.array_equal(value, value_ref)
            for k, (g, g_ref) in enumerate(zip(grads, grads_ref)):
                assert np.array_equal(g, g_ref), k


@pytest.mark.parametrize("family", [RBF, MATERN32])
@pytest.mark.parametrize("flat", [False, True])
def test_hier_gram_backward_reuses_its_pair_buffers_bit_for_bit(family, flat):
    # the replica level's backward pass runs through the block and the two
    # sums made with the ReplicaPairs: repeated passes of one form, at other
    # cotangents in between, give what a form on fresh pairs gives, and the
    # form's value (for the flat ablation, the spread replica level) is never
    # scratch
    rng = np.random.default_rng(12)
    z, z_tags = rng.uniform(size=(5, 2)), np.array([0, 0, 0, 1, 1])
    x, x_tags = by_tag(rng.uniform(size=(6, 2)), np.array([1, 0, 1, 1, 0, 0]))
    levels = (1.2, np.array([0.6, 0.9])) if flat else (0.4, np.array([0.8, 1.3]), 1.2, np.array([0.6, 0.9]))
    families = (None if flat else family, family)

    def form(a, a_tags, pairs=None):
        # (value, backward) of the inducing Gram (a is None) or of the cross covariance
        pairs = pairs or replica_pairs(offsets(a_tags, 2), offsets(z_tags, 2))
        if a is None:
            return hier_gram(*levels, z, z, families=families, pairs=pairs), pairs
        return hier_gram(*levels, z, families=families, pairs=pairs, xa=a), pairs

    def same(got, want):
        return all(g is w if g is None or w is None else np.array_equal(g, w) for g, w in zip(got, want))

    for a, a_tags in ((None, z_tags), (x, x_tags)):  # the inducing Gram, then the cross covariance
        (reused, backward), pairs = form(a, a_tags)
        value = reused.copy()
        g1, g2 = rng.standard_normal((2, a_tags.size, 5))
        for g in (g1, g2, g1):
            assert same(backward(g), form(a, a_tags)[0][1](g))
        assert len(pairs.sums) == 2
        assert np.array_equal(reused, value)
        assert not any(np.shares_memory(reused, scratch) for scratch in (pairs.block, *pairs.sums))
        # a second form on the same pairs reads none of the first one's sums
        assert same(form(a, a_tags, pairs)[0][1](g2), form(a, a_tags)[0][1](g2))
