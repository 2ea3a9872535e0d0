"""Minimal reverse-mode autodiff over dense numpy float64 tensors.

Every differentiable quantity in the model (parameters, activations,
losses) is a :class:`Tensor`. Operations executed while gradients are
enabled record a backward closure; :meth:`Tensor.backward` replays them
in reverse topological order. Inside :func:`no_grad` nothing is recorded
and forward passes are plain numpy; :func:`recording` tells a node
whether it will be recorded, so one that will not keeps nothing for a
backward.

This module is the tape alone. Each layer of the model is one node with
its own backward, recorded in its module with ``Tensor._from_op``. Only
``*`` on equal shapes and a full ``sum`` are ops here: :func:`dropout`
applies its mask with ``*``, and the two build the scalar objectives that
:func:`grad_check` compares against central differences.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


class ContractViolation(ValueError):
    """A documented precondition was violated by the caller."""


class NonFiniteError(FloatingPointError):
    """A tensor that must stay finite contains NaN or Inf."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (eval mode) inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def recording(parents: Sequence["Tensor"]) -> bool:
    """Whether a node over `parents` goes on the tape: gradients are
    enabled and a parent requires one."""
    return _grad_enabled and any(p.requires_grad for p in parents)


class Tensor:
    """A dense float64 array node in the computation graph.

    Interior nodes carry their gradient only transiently during a
    backward sweep; after the sweep only leaves retain ``.grad``, and each
    interior node has let go of its parents and its backward closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls(data)
        if recording(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ContractViolation(
                f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            # interior node: free its transient gradient and its tape links,
            # so a loss still held after backward() pins nothing
            node.grad = None
            node._parents, node._backward = (), None

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        a, b = self, other if isinstance(other, Tensor) else Tensor(other)
        if a.shape != b.shape:
            raise ShapeError(f"* needs equal shapes, got {a.shape} * {b.shape}")

        def bw(g):
            a._accumulate(g * b.data)
            b._accumulate(g * a.data)
        return Tensor._from_op(a.data * b.data, (a, b), bw)

    def sum(self) -> "Tensor":
        def bw(g):
            self._accumulate(np.broadcast_to(g, self.shape))
        return Tensor._from_op(self.data.sum(), (self,), bw)


# -- free functions ----------------------------------------------------------


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool) -> Tensor:
    """Inverted dropout: identity in eval mode; in train, each unit is kept
    with probability 1 - rate and scaled by 1 / (1 - rate), for a rate in
    [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ContractViolation(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    kept = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * Tensor(kept)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The relative error denominator is max(1, |numeric|) per coordinate.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractViolation(f"eps {eps} outside [1e-7, 1e-3]")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.size != 1:
        raise ContractViolation("grad_check target must return a scalar")
    if not np.isfinite(out.item()):
        raise NonFiniteError("grad_check objective contains non-finite values")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = probe.data.reshape(-1)
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(probe).item()
            flat[i] = orig - eps
            lo = f(probe).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteError("objective non-finite during grad_check")
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
