"""Primary capsules over 2-gram windows, votes, and dynamic routing.

The capsule layer slides a stride-1 2-gram window over the encoded
sentence (zero-padded by one row at each end, so L rows give L+1
windows), producing (L+1)*C child capsules of dimension d. A shared
per-parent transform turns children into votes, and routing-by-agreement
iteratively couples children to the E relation capsules over E x d x H
(parent-major) votes, so that both routing sums are stacked products.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractViolation, Tensor, concat


def squash(x: Tensor, axis: int = -1) -> Tensor:
    """Norm-bounding nonlinearity: ||out|| = n^2/(0.5+n^2) < 1, direction kept.

    One tape node; zero maps to zero (limit convention), with zero gradient.
    """
    n = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    nn = n * n
    k = n / (nn + 0.5)

    def bw(g):
        u = x.data / np.where(n == 0.0, 1.0, n)
        slope = n * (0.5 - nn) / (nn + 0.5) ** 2    # n k'(n), k = n/(0.5+n^2)
        x._accumulate(k * g + u * ((g * u).sum(axis=axis, keepdims=True) * slope))
    return Tensor._from_op(x.data * k, (x,), bw)


def capsule_length(s: Tensor, axis: int = -1) -> Tensor:
    """||squash(s)|| by the squash law, q/(0.5+q) with q = ||s||^2: one tape
    node on the pre-squash s, whose gradient is s/(0.5+q)^2."""
    q = (s.data * s.data).sum(axis=axis, keepdims=True)

    def bw(g):
        s._accumulate(np.expand_dims(g, axis) * s.data / (q + 0.5) ** 2)
    return Tensor._from_op((q / (q + 0.5)).squeeze(axis), (s,), bw)


def primary_capsules(x_tilde: Tensor, Wb: Tensor, b1: Tensor,
                     C: int, d: int) -> tuple[Tensor, Tensor]:
    """Extract (L+1)*C child capsules of dim d from the L x 2B sequence.

    Each of the C*d filters is a 2x2B inner product against a 2-gram
    window; per window the C*d responses regroup into C capsules of dim d
    and are squashed per capsule vector. Returns (u: H x d, a_hat = ||u||: H).
    """
    L, width = x_tilde.shape
    if Wb.shape != (C * d, 2 * width):
        raise ContractViolation(
            f"filter bank shape {Wb.shape} != {(C * d, 2 * width)}")
    zero = Tensor(np.zeros((1, width)))         # window t: rows t-1 and t
    windows = concat([concat([zero, x_tilde]), concat([x_tilde, zero])],
                     axis=1)                                # (L+1) x 4B
    s = (windows @ Wb.T + b1).reshape(((L + 1) * C, d))     # H x d
    return squash(s, axis=-1), capsule_length(s, axis=-1)


def votes(u: Tensor, Wc: Tensor, b_hat: Tensor) -> Tensor:
    """Per-parent votes u_hat[j, :, i] = Wc[j] @ u[i] + b_hat[j]; E x d x H.

    All E transforms are one product, Wc viewed as E*d x d times u^T.
    """
    E, d, _ = Wc.shape
    u_hat = (Wc.reshape((E * d, d)) @ u.T).reshape((E, d, u.shape[0]))
    return u_hat + b_hat.reshape((E, d, 1))


def dynamic_routing(u_hat: Tensor, a_hat: Tensor,
                    iterations: int) -> tuple[Tensor, Tensor]:
    """Routing-by-agreement over E x d x H votes: E parent capsules, activations.

    Per iteration: b[j] += v_j @ u_hat[j] from the second iteration on,
    couplings c = a_hat * softmax over parents of the logits b, parents
    v_j = squash(s_j) with s_j = u_hat[j] @ c[j], activations a_j = ||v_j||
    = capsule_length(s_j); both products are stacked over the E parents.
    The loop is unrolled; gradients flow through the couplings.
    """
    if iterations < 1:
        raise ContractViolation(f"routing needs >= 1 iterations, got {iterations}")
    E, d, H = u_hat.shape
    b = Tensor(np.zeros((E, 1, H)))   # row j: parent j's logits over the children
    for it in range(iterations):
        if it:
            b = b + v.reshape((E, 1, d)) @ u_hat
        c = a_hat * b.softmax(axis=0)                            # E x 1 x H
        s = (u_hat @ c.reshape((E, H, 1))).reshape((E, d))
        v = squash(s, axis=-1)
    return v, capsule_length(s, axis=-1)
