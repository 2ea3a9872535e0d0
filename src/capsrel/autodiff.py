"""Minimal reverse-mode autodiff over dense numpy float64 tensors.

Every differentiable quantity in the model (parameters, activations,
losses) is a :class:`Tensor`. Operations executed while gradients are
enabled record a backward closure; :meth:`Tensor.backward` replays them
in reverse topological order. Inside :func:`no_grad` nothing is recorded
and forward passes are plain numpy.

Each layer of the model is one node with its own backward, recorded in
its module with ``Tensor._from_op``. This module keeps only the ops no
layer owns: :func:`lstm_sequence`, one fused LSTM direction with a
hand-written BPTT backward, :func:`concat`, :func:`dropout`, and ``*`` on
equal shapes with a full ``sum``, which also build the scalar objectives
that :func:`grad_check` takes.
:func:`grad_check` compares any of them against central differences.
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
        if _grad_enabled and any(p.requires_grad for p in parents):
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
        a, b = self, _as_tensor(other)
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# -- free functions ----------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; backward splits the gradient back apart."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractViolation("concat of an empty sequence")
    base = tensors[0].shape
    for t in tensors[1:]:
        other = t.shape
        if len(other) != len(base) or any(
                o != b for i, (o, b) in enumerate(zip(other, base))
                if i != (axis % len(base))):
            raise ShapeError(f"concat shapes do not conform: {base} vs {other}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(part)
    return Tensor._from_op(data, tensors, bw)


def lstm_sequence(X: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor,
                  reverse: bool = False) -> Tensor:
    """One LSTM direction over the L rows of X, in order or reversed; L x B.

    The 4B gate columns are ordered input, forget, cell, output, and the
    state starts at zero. The whole recurrence is one tape node: the
    forward keeps the activated gates and the cells, and the backward is
    one reverse BPTT sweep that fills dZ, the L x 4B gradient of the gate
    pre-activations, then forms dX, dWx and dWh with one product each and
    db with one sum.
    """
    L, B = X.shape[0], Wh.shape[0]
    if Wx.shape != (X.shape[1], 4 * B) or Wh.shape != (B, 4 * B) \
            or b.shape != (4 * B,):
        raise ShapeError(f"lstm_sequence shapes do not conform: X {X.shape}, "
                         f"Wx {Wx.shape}, Wh {Wh.shape}, b {b.shape}")
    order = slice(None, None, -1) if reverse else slice(None)
    # every array below holds one row per step, in step order
    XW = (X.data @ Wx.data + b.data)[order]     # the input projection, hoisted
    gates = np.empty((L, 4, B))
    hs, cs = np.empty((L, B)), np.empty((L, B))
    h = c = np.zeros(B)
    for s in range(L):
        z = XW[s] + h @ Wh.data
        gates[s] = _sigmoid(z).reshape(4, B)
        gates[s, 2] = np.tanh(z[2 * B:3 * B])
        i, f, g, o = gates[s]
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[s], cs[s] = h, c

    def bw(dH):
        dH = dH[order]
        i, f, g, o = gates.transpose(1, 0, 2)
        tanh_c = np.tanh(cs)
        slope = gates * (1.0 - gates)           # sigmoid'(z) = a (1 - a)
        slope[:, 2] = 1.0 - g * g               # tanh'(z) = 1 - a^2
        # dZ[s] = [dc g, dc c_prev, dc i, dh tanh(c)] * slope[s]
        c_prev = np.vstack([np.zeros(B), cs[:-1]])
        by_dc = np.stack([g, c_prev, i], axis=1) * slope[:, :3]
        by_dh = tanh_c * slope[:, 3]
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        dZ = np.empty((L, 4, B))
        dh_next = dc_next = np.zeros(B)
        for s in range(L - 1, -1, -1):
            dh = dH[s] + dh_next
            dc = dh * dc_by_dh[s] + dc_next
            np.multiply(dc, by_dc[s], out=dZ[s, :3])
            np.multiply(dh, by_dh[s], out=dZ[s, 3])
            dc_next = dc * f[s]
            dh_next = Wh.data @ dZ[s].reshape(-1)
        dZ = dZ.reshape(L, 4 * B)
        Wh._accumulate(np.vstack([np.zeros(B), hs[:-1]]).T @ dZ)
        dZ = dZ[order]                          # back to row order
        X._accumulate(dZ @ Wx.data.T)
        Wx._accumulate(X.data.T @ dZ)
        b._accumulate(dZ.sum(axis=0))
    return Tensor._from_op(hs[order], (X, Wx, Wh, b), bw)


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
