"""Reverse-mode tape over float32 numpy arrays.

A Tensor wraps an ndarray; operators (see ops.py) record a backward closure
and parent links on their outputs. `backward()` on a scalar loss walks the
tape once and accumulates gradients into every reachable tensor that has
`requires_grad` set. All arithmetic stays in 32-bit floats.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError

__all__ = ["Tensor"]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate(self, g: np.ndarray) -> None:
        """Add `g` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            # Copy: backward closures may hand out views of upstream buffers.
            self.grad = np.array(g, dtype=np.float32, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape.

        Gradients of intermediate nodes are freed as soon as consumed; leaf
        tensors keep theirs.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for t in order:  # already reverse-topological
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
                t.grad = None  # free intermediate buffers
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS: recurrent nets produce chains deeper than the Python
    # recursion limit. Returns nodes in reverse-topological order.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    order.reverse()
    return order

