"""The tape itself: gradient accumulation, fused nodes with several outputs
and constants, and the walk bit for bit against the reference walk."""

import numpy as np
import pytest

from hiermogp import autodiff as ad
from hiermogp import objective
from hiermogp.kernels import RBF, gram
from hiermogp.kron import cholesky_jitter, spd_inverse
from hiermogp.latent import psi_stats

from .helpers import constrained, contract, initial_step
from .oracles import tape_grad


def test_fused_backward_runs_once_per_pass():
    calls = []

    def backward(g1, g2):
        calls.append((g1, g2))
        return g1.sum() + 2.0 * g2, None, g1.sum() - g2

    a, b = ad.Node(np.asarray(1.0)), ad.Node(np.asarray(2.0))
    first, second = ad.fused((np.zeros(3), np.asarray(0.0)), (a, 5.0, b), backward)
    # the constant is no parent; a later output hangs from the first at its position
    assert first.parents == ((a, 0), (b, 2)) and second.parents == ((first, 1),)
    assert second.backward is None
    ga, gb = ad.grad(contract((first, 1.0), (second, 10.0)), [a, b])
    assert len(calls) == 1
    assert np.allclose(calls[0][0], 1.0) and np.isclose(calls[0][1], 10.0)
    assert np.isclose(ga, 23.0) and np.isclose(gb, 3.0 - 10.0)
    # a later pass that reaches only the first output hands the second a zero
    ad.grad(contract((first, 1.0)), [a])
    assert len(calls) == 2 and calls[1][1] == 0.0
    # and one that reaches only the second output hands the first zeros
    (ga,) = ad.grad(contract((second, 10.0)), [a])
    assert len(calls) == 3 and np.array_equal(calls[2][0], np.zeros(3)) and calls[2][1] == 10.0
    assert np.isclose(ga, 20.0)


def test_grad_requires_scalar():
    node = ad.Node(np.zeros(3))
    with pytest.raises(ValueError):
        ad.grad(node, [node])


def test_unused_leaf_gets_zero_gradient():
    a = ad.Node(np.ones(3))
    b = ad.Node(np.ones(2))
    out = contract((a, 2.0))
    ga, gb = ad.grad(out, [a, b])
    assert np.allclose(ga, 2.0)
    assert np.allclose(gb, 0.0)


def test_diamond_graph_accumulates():
    # out = b + b with b = a * a: both paths into b, and both into a, add up
    a = ad.Node(np.asarray(2.0))
    b = ad.fused(a.value * a.value, (a, a), lambda g: (g * a.value, g * a.value))
    out = ad.fused(2.0 * b.value, (b, b), lambda g: (g, g))
    (g,) = ad.grad(out, [a])
    assert np.isclose(g, 8.0)


@pytest.mark.parametrize("flat", [False, True])
def test_tape_walk_equals_the_reference_walk_bit_for_bit(flat):
    # a desk-shaped bound (10 outputs, 3 replicas, m_r=8, m_h=6), and on the
    # same leaf a second parameter node whose outputs several closed forms
    # read, psi statistics reached only through their later output and an
    # inverse Gram reached only through its first
    theta, layout, bound_data = initial_step(10, 3, 8, 6, flat=flat)
    pieces, (leaf,) = objective.build_graph(theta, layout, bound_data)
    p = constrained(layout, leaf)
    v, ls, zh = p["latent_kernel_variance"], p["latent_kernel_lengthscales"], p["inducing_latents"]
    _, psi2 = ad.record(psi_stats, v, ls, p["latent_mean"], p["latent_log_variance"], zh)
    kuu_h = ad.record(gram, v, ls, zh, zh, family=RBF)
    values, backward = spd_inverse(cholesky_jitter(kuu_h.value)[0])
    inverse, _ = ad.fused(values, (kuu_h,), backward)
    rng = np.random.default_rng(4)
    root = contract(
        (pieces.total, 1.0),
        (psi2, rng.standard_normal(psi2.value.shape)),
        (inverse, rng.standard_normal(inverse.value.shape)),
    )
    other = ad.Node(np.zeros(2))  # a leaf the root does not reach
    got, want = ad.grad(root, [leaf, other]), tape_grad(root, [leaf, other])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # and the bound alone, as a step takes it
    assert np.array_equal(ad.grad(pieces.total, [leaf])[0], tape_grad(pieces.total, [leaf])[0])
