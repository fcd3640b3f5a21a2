"""The tape itself: gradient accumulation, fused nodes with several outputs,
constants and broadcasting."""

import numpy as np
import pytest

from hiermogp import autodiff as ad

from .helpers import contract


def test_unbroadcast_sums_a_gradient_to_the_broadcast_shape():
    g = np.arange(24.0).reshape(2, 3, 4)
    assert ad._unbroadcast(g, (2, 3, 4)) is g
    assert np.array_equal(ad._unbroadcast(g, (3, 4)), g.sum(axis=0))
    assert np.array_equal(ad._unbroadcast(g, (3, 1)), g.sum(axis=(0, 2))[:, None])
    assert np.array_equal(ad._unbroadcast(g, (1, 1, 4)), g.sum(axis=(0, 1))[None, None])
    assert ad._unbroadcast(g, ()) == g.sum()


def test_fused_backward_runs_once_per_pass():
    calls = []

    def backward(g1, g2):
        calls.append((g1, g2))
        return g1.sum() + 2.0 * g2, None, g1.sum() - g2

    a, b = ad.Node(np.asarray(1.0)), ad.Node(np.asarray(2.0))
    first, second = ad.fused((np.zeros(3), np.asarray(0.0)), (a, 5.0, b), backward)
    assert [p for p, _ in first.parents] == [a, b]
    assert [p for p, _ in second.parents] == [first]
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


def test_grad_skips_vjps_into_constants():
    called = []

    def vjp(name):
        return lambda g: called.append(name) or g

    leaf = ad.Node(np.asarray(1.0))
    constant = ad.Node(np.asarray(2.0))
    hidden = ad.Node(np.asarray(3.0), ((constant, vjp("hidden")),))
    out = ad.Node(np.asarray(6.0), ((leaf, vjp("leaf")), (constant, vjp("constant")), (hidden, vjp("out"))))
    ad.grad(out, [leaf])
    # ``hidden`` has a parent, so it gets its VJP; no VJP goes into the constant
    assert sorted(called) == ["leaf", "out"]
    # a constant asked for is a leaf like any other
    called.clear()
    ad.grad(out, [leaf, constant])
    assert sorted(called) == ["constant", "hidden", "leaf", "out"]


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
    b = ad.Node(a.value * a.value, ((a, lambda g: g * a.value), (a, lambda g: g * a.value)))
    out = ad.Node(2.0 * b.value, ((b, lambda g: g), (b, lambda g: g)))
    (g,) = ad.grad(out, [a])
    assert np.isclose(g, 8.0)
