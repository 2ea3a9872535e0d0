"""Primary capsules over 2-gram windows, votes, and dynamic routing.

The capsule layer slides a stride-1 2-gram window over the encoded
sentence (zero-padded by one row at each end, so L rows give L+1
windows), producing (L+1)*C child capsules of dimension d. A shared
per-parent transform turns children into votes, and routing-by-agreement
iteratively couples children to the E relation capsules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractViolation, Tensor, concat


@dataclass
class RoutingState:
    """Final-iteration routing internals (numpy copies, for inspection)."""

    b: np.ndarray   # H x E logits entering the final iteration
    c: np.ndarray   # H x E couplings
    v: np.ndarray   # E x d parent vectors
    a: np.ndarray   # E activations


def squash(x: Tensor, axis: int = -1) -> Tensor:
    """Norm-bounding nonlinearity: ||out|| = n^2/(0.5+n^2) < 1, direction kept.

    The zero vector maps to zero (limit convention).
    """
    n = x.norm(axis=axis, keepdims=True)
    return x * (n / (0.5 + n * n))


def primary_capsules(x_tilde: Tensor, Wb: Tensor, b1: Tensor,
                     C: int, d: int) -> tuple[Tensor, Tensor]:
    """Extract (L+1)*C child capsules of dim d from the L x 2B sequence.

    Each of the C*d filters is a 2x2B inner product against a 2-gram
    window; per window the C*d responses regroup into C capsules of dim d
    and are squashed per capsule vector. Returns (u: H x d, a_hat: H).
    """
    L, width = x_tilde.shape
    if Wb.shape != (C * d, 2 * width):
        raise ContractViolation(
            f"filter bank shape {Wb.shape} != {(C * d, 2 * width)}")
    zero = Tensor(np.zeros((1, width)))
    padded = concat([zero, x_tilde, zero], axis=0)          # (L+2) x 2B
    windows = concat([padded[:-1], padded[1:]], axis=1)     # (L+1) x 4B
    s = windows @ Wb.T + b1                                 # (L+1) x C*d
    u = squash(s.reshape(((L + 1) * C, d)), axis=-1)
    a_hat = u.norm(axis=-1)
    return u, a_hat


def votes(u: Tensor, Wc: Tensor, b_hat: Tensor) -> Tensor:
    """Per-parent votes u_hat[i, j] = Wc[j] @ u[i] + b_hat[j]; H x E x d.

    All E transforms are one product: Wc viewed as d x E*d, column
    j*d + l holding row l of Wc[j].
    """
    E, d, _ = Wc.shape
    W = Wc.transpose((2, 0, 1)).reshape((d, E * d))
    return (u @ W).reshape((u.shape[0], E, d)) + b_hat


def dynamic_routing(u_hat: Tensor, a_hat: Tensor, iterations: int,
                    return_state: bool = False):
    """Routing-by-agreement producing E parent capsules and activations.

    Per iteration: couplings c = a_hat * softmax over parents of the
    logits b, parents v_j = squash(sum_i c[i,j] u_hat[i,j]), activations
    a_j = ||v_j||, then b += u_hat . v. The loop is unrolled in the
    differentiable graph; gradients flow through the couplings.
    """
    if iterations < 1:
        raise ContractViolation(f"routing needs >= 1 iterations, got {iterations}")
    H, E, d = u_hat.shape
    b = Tensor(np.zeros((H, E)))
    a_col = a_hat.reshape((H, 1))
    v = a = c = b_in = None
    for _ in range(iterations):
        b_in = b
        c = a_col * b.softmax(axis=1)                       # H x E
        s = (c.reshape((H, E, 1)) * u_hat).sum(axis=0)      # E x d
        v = squash(s, axis=-1)
        a = v.norm(axis=-1)
        b = b + (u_hat * v.reshape((1, E, d))).sum(axis=2)
    if return_state:
        state = RoutingState(b=b_in.data.copy(), c=c.data.copy(),
                             v=v.data.copy(), a=a.data.copy())
        return v, a, state
    return v, a
