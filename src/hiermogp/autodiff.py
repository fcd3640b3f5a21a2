"""Reverse-mode automatic differentiation on numpy arrays.

A small tape of ``Node`` objects covering exactly the matrix operations the
variational objective is built from: broadcasting arithmetic, ``exp``,
``log`` and constant powers, reshapes, transposes, sums, concatenation,
diagonals, traces and strict-lower-triangle packing, batched matmul,
Cholesky factorisation and the inverse of a lower-triangular factor. Both
of these rest on one numpy-only triangular inverse, ``_tril_inverse``, which
prediction uses too. Other modules may build fused nodes with hand-written
vector-Jacobian products, as ``kernels.gram`` does for the stationary Gram.
Values are float64 throughout. The vector-Jacobian product of every
primitive is checked against central finite differences in the test suite.
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


def log(a) -> Node:
    a = as_node(a)
    return Node(np.log(a.value), ((a, lambda g: g / a.value),))


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


def concat(nodes, axis=0) -> Node:
    nodes = [as_node(n) for n in nodes]
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    value = np.concatenate([n.value for n in nodes], axis=axis)
    return Node(value, tuple((n, make_vjp(i)) for i, n in enumerate(nodes)))


def diag_embed(a) -> Node:
    """Vector to diagonal matrix."""
    a = as_node(a)
    return Node(np.diag(a.value), ((a, lambda g: np.diagonal(g).copy()),))


def diagonal(a) -> Node:
    a = as_node(a)
    n, m = a.value.shape

    def vjp(g):
        out = np.zeros((n, m))
        np.fill_diagonal(out, g)
        return out

    return Node(np.diagonal(a.value).copy(), ((a, vjp),))


def trace(a) -> Node:
    a = as_node(a)
    n = a.value.shape[0]
    return Node(np.trace(a.value), ((a, lambda g: g * np.eye(n)),))


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


def _tril_inverse(l: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangle of ``l``; the upper triangle is never read.

    The solve runs on the triangle reversed in both axes, which is upper
    triangular: partial pivoting finds nothing to swap and every elimination
    multiplier is zero, so the LU factorisation is exact and the solve is
    one substitution, in the row order of forward substitution on ``L`` as a
    LAPACK triangular solve takes it. Solving against ``L`` itself pivots on
    ill-conditioned factors and loses several times more accuracy. The
    copy keeps the result contiguous, which matrix products need to be fast.
    """
    return np.linalg.solve(np.tril(l)[::-1, ::-1], np.eye(l.shape[0]))[::-1, ::-1].copy()


def cholesky(a) -> Node:
    a = as_node(a)
    lower = np.linalg.cholesky(a.value)

    def vjp(g):
        # Murray-style backward pass: L^-T p L^-1 around the lower-half
        # projection p of L^T g, symmetrised at the end.
        n = lower.shape[0]
        p = np.tril(lower.T @ g)
        p[np.diag_indices(n)] *= 0.5
        inv = _tril_inverse(lower)
        s = inv.T @ p @ inv
        return 0.5 * (s + s.T)

    return Node(lower, ((a, vjp),))


def tril_inverse(l) -> Node:
    """``X = L^-1`` for the lower triangle ``L`` of ``l``."""
    l = as_node(l)
    x = _tril_inverse(l.value)
    return Node(x, ((l, lambda g: -np.tril(x.T @ g @ x.T)),))


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
    """Gradients of a scalar output with respect to each leaf node."""
    if output.value.size != 1:
        raise ValueError("grad requires a scalar output")
    order = _topological_order(output)
    grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            contribution = vjp(g)
            seen = grads.get(id(parent))
            grads[id(parent)] = contribution if seen is None else seen + contribution
    return [grads.get(id(leaf), np.zeros_like(leaf.value)) for leaf in leaves]
