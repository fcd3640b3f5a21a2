"""Reverse-mode automatic differentiation on numpy arrays.

A tape of ``Node`` objects, each a value and the parents it was computed
from. Every node of the bound is an output of a closed form with a
hand-written backward pass, built with ``fused``: the constrained parameters
(``params.ParamLayout.constrain``), the stationary and hierarchical Grams
(``kernels.gram`` and ``kernels.hier_gram``), each inducing Gram's inverse
and log-determinant (``kron.spd_inverse``), the psi statistics and both KL
terms (``latent``), the data fit and the total (``objective``). The tape
itself factors nothing and has no generic operations: ``grad`` calls each
closed form's backward pass once, with every output's cotangent, and adds
the gradients it returns into the arguments. Values are float64 throughout.
Every fused node's backward pass is checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import numpy as np


class Node:
    """A value in the computation graph; leaves have no parents.

    The first output of a closed form holds its ``backward`` pass and the
    ``outputs`` of the form, and its parents are ``(argument, position)``
    pairs; each later output has the first as its one parent, paired with
    the later output's position among the outputs."""

    __slots__ = ("value", "parents", "backward", "outputs")

    def __init__(self, value, parents=(), backward=None, outputs=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.backward = backward
        self.outputs = outputs


def values(args) -> list[np.ndarray]:
    """The values of ``args``: a ``Node``'s value, or the argument as a float array."""
    return [a.value if isinstance(a, Node) else np.asarray(a, float) for a in args]


def fused(values, args, backward):
    """Nodes for the outputs of one closed form with a hand-written backward pass.

    ``values`` is one output array or a tuple of them, and ``args`` are the
    inputs: ``Node``s, which receive gradients, or constants, which do not.
    ``backward(*cotangents)`` takes one cotangent per output (zeros for an
    output the root does not reach) and returns one gradient per argument,
    in the argument's shape, or any value for a constant. It runs once per
    backward pass.

    With several outputs, the first holds ``backward`` and each later one
    hangs from the first, so the tape reaches the first only after every
    later output's cotangent is known.
    """
    several = isinstance(values, tuple)
    values = values if several else (values,)
    parents = tuple([(a, i) for i, a in enumerate(args) if isinstance(a, Node)])
    first = Node(values[0], parents, backward, values)
    if not several:
        return first
    return (first, *[Node(v, ((first, k),)) for k, v in enumerate(values[1:], 1)])


# ---------------------------------------------------------------------------
# backward pass


def _topological_order(root: Node) -> list[Node]:
    # nodes are keyed by themselves: a Node has no __eq__, so it hashes by identity
    order: list[Node] = []
    visited: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent not in visited:
                stack.append((parent, False))
    return order


def grad(output: Node, leaves) -> list[np.ndarray]:
    """Gradients of a scalar output with respect to each leaf node; a leaf
    the output does not depend on gets zeros.

    Each node's cotangent is the sum of its consumers' gradients, in the
    order the nodes are reached. A later output files its cotangent in its
    first output's list of cotangents, one entry per output, whose backward
    pass receives it; it is never added to the first output's own
    cotangent."""
    if output.value.size != 1:
        raise ValueError("grad requires a scalar output")
    grads: dict[Node, np.ndarray] = {output: np.ones_like(output.value)}
    later: dict[Node, list] = {}  # by first output: every output's cotangent, None where unreached
    for node in reversed(_topological_order(output)):
        if node.backward is None:
            if node.parents:  # a later output
                ((first, k),) = node.parents
                kept = later.get(first)
                if kept is None:
                    kept = later[first] = [None] * len(first.outputs)
                kept[k] = grads[node]
            continue
        cotangents = later.get(node) or [None] * len(node.outputs)
        cotangents[0] = grads.get(node)
        gradients = node.backward(
            *[np.zeros(np.shape(v)) if c is None else c for c, v in zip(cotangents, node.outputs)]
        )
        for parent, i in node.parents:
            seen = grads.get(parent)
            grads[parent] = gradients[i] if seen is None else seen + gradients[i]
    return [grads[leaf] if leaf in grads else np.zeros_like(leaf.value) for leaf in leaves]
