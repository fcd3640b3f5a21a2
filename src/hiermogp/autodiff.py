"""Reverse-mode automatic differentiation on numpy arrays.

A tape of ``Node`` objects, each a value and the parents it was computed
from, with one vector-Jacobian product per parent. Every node of the
bound is a closed form with a hand-written backward pass, built with
``fused``: the constrained parameters (``params.ParamLayout.constrain``),
the stationary and hierarchical Grams (``kernels.gram`` and
``kernels.hier_gram``), each inducing Gram's inverse and log-determinant
(``kron.spd_inverse``), the psi statistics and both KL terms (``latent``),
the data fit and the total (``objective``). The tape itself factors
nothing and has no generic operations. ``grad`` runs the backward pass and
runs no VJP into a constant: a parentless node that is not a requested
leaf. Values are float64 throughout. Every fused node's backward pass is
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np


class Node:
    """A value in the computation graph; leaves have no parents."""

    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.reshape(g, shape)


# ---------------------------------------------------------------------------
# fused nodes


# what a later output of a fused node hands the first in place of a
# cotangent: the tape adds nothing for it, and gives the first output zeros
# only if nothing else reaches it
_KEPT = object()


def fused(values, args, backward):
    """Nodes for the outputs of one closed form with a hand-written backward pass.

    ``values`` is one output array or a tuple of them, and ``args`` are the
    inputs: ``Node``s, which receive gradients, or constants, which do not.
    ``backward(*cotangents)`` takes one cotangent per output (zeros for an
    output the root does not reach) and returns one gradient per argument,
    any value for a constant. It runs once per backward pass, whichever of
    the arguments are ``Node``s: the tape hands each of them the same
    cotangent, and the result is kept for it.

    With several outputs, the first is the node the arguments hang from and
    each later one hangs from the first: the tape then reaches the first
    only after every later output's cotangent is known. A later output
    keeps its own cotangent for ``backward`` and passes the first nothing
    (``_KEPT``).
    """
    several = isinstance(values, tuple)
    values = values if several else (values,)
    later = [None] * (len(values) - 1)  # cotangents of the later outputs
    memo = []

    def gradients(g):
        if not (memo and memo[0] is g):
            cotangents = [np.zeros(np.shape(v)) if c is None else c for c, v in zip(later, values[1:])]
            later[:] = [None] * len(later)
            memo[:] = [g, backward(g, *cotangents)]
        return memo[1]

    def vjp(i):
        shape = args[i].value.shape

        def reshaped(g):
            gradient = gradients(g)[i]
            return gradient if np.shape(gradient) == shape else np.reshape(gradient, shape)

        return reshaped

    first = Node(values[0], tuple((a, vjp(i)) for i, a in enumerate(args) if isinstance(a, Node)))

    def keep(k):
        def vjp(g):
            later[k] = g
            return _KEPT

        return vjp

    rest = tuple(Node(v, ((first, keep(k)),)) for k, v in enumerate(values[1:]))
    return (first, *rest) if several else first


# ---------------------------------------------------------------------------
# backward pass


def _topological_order(root: Node) -> list[Node]:
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def grad(output: Node, leaves) -> list[np.ndarray]:
    """Gradients of a scalar output with respect to each leaf node; a leaf
    the output does not depend on gets zeros."""
    if output.value.size != 1:
        raise ValueError("grad requires a scalar output")
    order = _topological_order(output)
    leaves = list(leaves)
    wanted = {id(leaf) for leaf in leaves}
    grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        if g is _KEPT:  # reached only by later outputs of its fused node
            g = np.zeros(node.value.shape)
        for parent, vjp in node.parents:
            if not parent.parents and id(parent) not in wanted:
                continue  # a constant: its gradient would be thrown away
            contribution = vjp(g)
            seen = grads.get(id(parent))
            if seen is None or seen is _KEPT:
                grads[id(parent)] = contribution
            elif contribution is not _KEPT:
                grads[id(parent)] = seen + contribution
    found = [grads.get(id(leaf), _KEPT) for leaf in leaves]
    return [np.zeros_like(leaf.value) if g is _KEPT else g for leaf, g in zip(leaves, found)]
