"""Reverse-mode automatic differentiation on numpy arrays.

A small tape of ``Node`` objects covering the generic operations the
variational objective is assembled with: broadcasting arithmetic, ``exp``
and constant powers, reshapes, transposes, sums, diagonal and
strict-lower-triangle packing, and batched matmul. Every closed form with a
known gradient is instead one fused node with a hand-written
vector-Jacobian product, built with ``fused``: the stationary Gram
(``kernels.gram``), each inducing Gram's inverse and log-determinant
(``kron.spd_inverse``), the psi statistics and both KL terms (``latent``)
and the data fit (``objective.data_fit``). The tape itself factors
nothing. ``grad`` runs no VJP into a constant: a parentless node that is
not a requested leaf. Values are float64 throughout. The vector-Jacobian
product of every primitive and fused node is checked against central
finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np


class Node:
    """A value in the computation graph; leaves have no parents."""

    __slots__ = ("value", "parents")
    # numpy operators defer to the reflected Node method (``ndarray * Node``)
    __array_ufunc__ = None

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents

    @property
    def shape(self):
        return self.value.shape

    @property
    def T(self):
        return transpose(self)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)


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
# elementwise primitives


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value + b.value,
        (
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(g, b.value.shape)),
        ),
    )


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value - b.value,
        (
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(-g, b.value.shape)),
        ),
    )


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value * b.value,
        (
            (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
        ),
    )


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(
        a.value / b.value,
        (
            (a, lambda g: _unbroadcast(g / b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(-g * a.value / b.value**2, b.value.shape)),
        ),
    )


def neg(a) -> Node:
    a = as_node(a)
    return Node(-a.value, ((a, lambda g: -g),))


def exp(a) -> Node:
    a = as_node(a)
    out = np.exp(a.value)
    return Node(out, ((a, lambda g: g * out),))


def power(a, exponent: float) -> Node:
    a = as_node(a)
    if isinstance(exponent, Node):
        raise TypeError("only constant exponents are supported")
    out = a.value**exponent
    return Node(out, ((a, lambda g: g * exponent * a.value ** (exponent - 1)),))


# ---------------------------------------------------------------------------
# shape and reduction primitives


def reshape(a, shape) -> Node:
    a = as_node(a)
    old = a.value.shape
    return Node(np.reshape(a.value, shape), ((a, lambda g: np.reshape(g, old)),))


def transpose(a, axes=None) -> Node:
    a = as_node(a)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))
    return Node(
        np.transpose(a.value, axes),
        ((a, lambda g: np.transpose(g, inverse)),),
    )


def sum(a, axis=None, keepdims=False) -> Node:  # noqa: A001 - mirrors numpy
    a = as_node(a)
    shape = a.value.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shape)
        g_exp = g
        if not keepdims:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            for ax in sorted(ax % len(shape) for ax in axes):
                g_exp = np.expand_dims(g_exp, ax)
        return np.broadcast_to(g_exp, shape)

    return Node(np.sum(a.value, axis=axis, keepdims=keepdims), ((a, vjp),))


def diag_embed(a) -> Node:
    """Vector to diagonal matrix."""
    a = as_node(a)
    return Node(np.diag(a.value), ((a, lambda g: np.diagonal(g).copy()),))


def strict_lower_embed(v, n: int) -> Node:
    """Pack a vector into the strictly lower triangle of an n x n matrix."""
    v = as_node(v)
    rows, cols = np.tril_indices(n, k=-1)
    if v.value.shape != (rows.size,):
        raise ValueError(f"expected {rows.size} entries for a strict lower {n}x{n} triangle")

    def vjp(g):
        return g[rows, cols]

    out = np.zeros((n, n))
    out[rows, cols] = v.value
    return Node(out, ((v, vjp),))


# ---------------------------------------------------------------------------
# matrix primitives


def matmul(a, b) -> Node:
    """``a @ b`` on operands of at least two axes, broadcast over leading axes."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul needs operands with at least two axes")
    return Node(
        a.value @ b.value,
        (
            (a, lambda g: _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)),
            (b, lambda g: _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)),
        ),
    )


# ---------------------------------------------------------------------------
# fused nodes


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
    passes the first a zero and keeps its own cotangent for ``backward``.
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
        return lambda g: np.reshape(gradients(g)[i], shape)

    first = Node(values[0], tuple((a, vjp(i)) for i, a in enumerate(args) if isinstance(a, Node)))

    def keep(k):
        def vjp(g):
            later[k] = g
            return np.zeros(first.value.shape)

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
        for parent, vjp in node.parents:
            if not parent.parents and id(parent) not in wanted:
                continue  # a constant: its gradient would be thrown away
            contribution = vjp(g)
            seen = grads.get(id(parent))
            grads[id(parent)] = contribution if seen is None else seen + contribution
    return [grads.get(id(leaf), np.zeros_like(leaf.value)) for leaf in leaves]
