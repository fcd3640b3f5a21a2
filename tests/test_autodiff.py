"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest

from hiermogp import autodiff as ad

from .helpers import check


RNG = np.random.default_rng(42)


def test_arithmetic_and_broadcasting():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4,))
    c = np.asarray(0.7)
    check(lambda a, b, c: ad.sum(a * b + a / (2.0 + c) - b), a, b, c)


def test_exp_power():
    a = RNG.uniform(0.5, 2.0, size=(5,))
    check(lambda a: ad.sum(ad.exp(a) + a**3), a)


def test_reductions_with_axes():
    a = RNG.standard_normal((2, 3, 4))
    check(lambda a: ad.sum(ad.sum(a, axis=2) * 2.0), a)
    check(lambda a: ad.sum(ad.sum(a, axis=(0, 2)) ** 2), a)
    check(lambda a: ad.sum(ad.sum(a, axis=1, keepdims=True) * 3.0), a)


def test_reshape_transpose():
    a = RNG.standard_normal((3, 4))
    check(lambda a: ad.sum(ad.reshape(a, (2, 6)) ** 2), a)
    check(lambda a: ad.sum(ad.transpose(a) @ a), a)
    b = RNG.standard_normal((2, 3, 4))
    check(lambda b: ad.sum(ad.transpose(b, (2, 0, 1)) * 1.5), b)


def test_matmul():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4, 2))
    check(lambda a, b: ad.sum((a @ b) ** 2), a, b)


def test_matmul_batched_and_broadcast():
    a = RNG.standard_normal((2, 3, 4))
    b = RNG.standard_normal((2, 4, 2))
    check(lambda a, b: ad.sum((a @ b) ** 2), a, b)
    # a 2-d operand against a stack, either side
    m = RNG.standard_normal((5, 3))
    check(lambda m, a: ad.sum((m @ a) ** 2), m, a)
    n = RNG.standard_normal((2, 3))
    check(lambda b, n: ad.sum((b @ n) ** 2), b, n)
    # a size-one batch axis broadcast against a full one
    c = RNG.standard_normal((1, 4, 3))
    check(lambda a, c: ad.sum((a @ c) ** 2), a, c)


def test_matmul_with_constant_array_on_the_left():
    a = RNG.standard_normal((2, 3))
    b = RNG.standard_normal((3, 4))
    node = ad.Node(b)
    out = a @ node
    assert isinstance(out, ad.Node)
    (g,) = ad.grad(ad.sum(out), [node])
    assert np.allclose(g, a.T @ np.ones((2, 4)))
    assert isinstance(b * node, ad.Node)
    with pytest.raises(ValueError):
        ad.matmul(np.ones(3), node)


def test_diag_embed():
    v = RNG.standard_normal(4)
    weights = RNG.standard_normal((4, 4))
    check(lambda v: ad.sum((ad.diag_embed(v) @ ad.diag_embed(v)) * weights), v)


def test_strict_lower_embed():
    v = RNG.standard_normal(3)
    check(lambda v: ad.sum(ad.strict_lower_embed(v, 3) ** 2 + 1.0), v)
    with pytest.raises(ValueError):
        ad.strict_lower_embed(ad.Node(np.zeros(2)), 3)


def test_fused_backward_runs_once_per_pass():
    calls = []

    def backward(g1, g2):
        calls.append((g1, g2))
        return g1.sum() + 2.0 * g2, None, g1.sum() - g2

    a, b = ad.Node(np.asarray(1.0)), ad.Node(np.asarray(2.0))
    first, second = ad.fused((np.zeros(3), np.asarray(0.0)), (a, 5.0, b), backward)
    assert [p for p, _ in first.parents] == [a, b]
    assert [p for p, _ in second.parents] == [first]
    ga, gb = ad.grad(ad.sum(first) + 10.0 * second, [a, b])
    assert len(calls) == 1
    assert np.allclose(calls[0][0], 1.0) and np.isclose(calls[0][1], 10.0)
    assert np.isclose(ga, 23.0) and np.isclose(gb, 3.0 - 10.0)
    # a later pass that reaches only the first output hands the second a zero
    ad.grad(ad.sum(first), [a])
    assert len(calls) == 2 and calls[1][1] == 0.0


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
    out = ad.sum(a * a)
    ga, gb = ad.grad(out, [a, b])
    assert np.allclose(ga, 2.0)
    assert np.allclose(gb, 0.0)


def test_diamond_graph_accumulates():
    a = ad.Node(np.asarray(2.0))
    b = a * a
    out = b + b
    (g,) = ad.grad(out, [a])
    assert np.isclose(g, 8.0)
