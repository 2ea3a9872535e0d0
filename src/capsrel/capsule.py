"""Primary capsules over 2-gram windows, votes, and dynamic routing.

The capsule layer slides a stride-1 2-gram window over the encoded
sentence (zero-padded by one row at each end, so L rows give L+1
windows), producing (L+1)*C child capsules of dimension d. A shared
per-parent transform turns children into votes, and routing-by-agreement
iteratively couples children to the E relation capsules over E x d x H
(parent-major) votes. Each stage is one tape node with a hand-written
backward; routing reads the votes only through its two contractions, the
parent sum and the agreement.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractViolation, ShapeError, Tensor
from .encoder import softmax


def _squash(x: np.ndarray, axis: int):
    """The squash law on an array, k x with k = n/(0.5+n^2) and n = ||x||
    along `axis`, and the function taking its output gradient to x's."""
    n = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    nn = n * n
    k = n / (nn + 0.5)

    def backward(g):
        u = x / np.where(n == 0.0, 1.0, n)
        slope = n * (0.5 - nn) / (nn + 0.5) ** 2    # n k'(n)
        return k * g + u * ((g * u).sum(axis=axis, keepdims=True) * slope)
    return x * k, backward


def squash(x: Tensor, axis: int = -1) -> Tensor:
    """Norm-bounding nonlinearity: ||out|| = n^2/(0.5+n^2) < 1, direction kept.

    One tape node; zero maps to zero (limit convention), with zero gradient.
    """
    out, backward = _squash(x.data, axis)
    return Tensor._from_op(out, (x,), lambda g: x._accumulate(backward(g)))


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
    window; per window the C*d responses plus b1, one tape node, regroup
    into C capsules of dim d, squashed per capsule vector. Returns
    (u: H x d, a_hat = ||u||: H).
    """
    L, width = x_tilde.shape if len(x_tilde.shape) == 2 else (-1, -1)
    if Wb.shape != (C * d, 2 * width) or b1.shape != (C * d,):
        raise ShapeError(
            f"primary_capsules shapes do not conform for C={C}, d={d}: "
            f"x_tilde {x_tilde.shape}, Wb {Wb.shape}, b1 {b1.shape}")
    zero = np.zeros((1, width))                 # window t: rows t-1 and t
    windows = np.concatenate([np.concatenate([zero, x_tilde.data]),
                              np.concatenate([x_tilde.data, zero])], axis=1)

    def bw(g):
        g = g.reshape((L + 1, C * d))
        g_windows = g @ Wb.data
        x_tilde._accumulate(g_windows[1:, :width] + g_windows[:L, width:])
        Wb._accumulate((windows.T @ g).T)
        b1._accumulate(g.sum(axis=0))
    s = Tensor._from_op((windows @ Wb.data.T + b1.data).reshape(((L + 1) * C, d)),
                        (x_tilde, Wb, b1), bw)
    return squash(s, axis=-1), capsule_length(s, axis=-1)


def votes(u: Tensor, Wc: Tensor, b_hat: Tensor) -> Tensor:
    """Per-parent votes u_hat[j, :, i] = Wc[j] @ u[i] + b_hat[j]; E x d x H.

    One tape node: Wc viewed as E*d x d times u^T.
    """
    E, d = b_hat.shape if len(b_hat.shape) == 2 else (-1, -1)
    if u.shape[1:] != (d,) or Wc.shape != (E, d, d):
        raise ShapeError(f"votes shapes do not conform: u {u.shape}, "
                         f"Wc {Wc.shape}, b_hat {b_hat.shape}")
    W = Wc.data.reshape((E * d, d))

    def bw(g):
        G = g.reshape((E * d, -1))
        u._accumulate((W.T @ G).T)
        Wc._accumulate((G @ u.data).reshape((E, d, d)))
        b_hat._accumulate(g.sum(axis=2))
    return Tensor._from_op((W @ u.data.T).reshape((E, d, -1))
                           + b_hat.data.reshape((E, d, 1)), (u, Wc, b_hat), bw)


def _parent_sum(u_hat: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_i c[j, i] u_hat[j, :, i]: E x d, from E x H weights c."""
    return (u_hat @ c[:, :, None])[:, :, 0]


def _agreement(u_hat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v[j] . u_hat[j, :, i]: E x H, from E x d parent-side vectors v."""
    return (v[:, None] @ u_hat)[:, 0]


def dynamic_routing(u_hat: Tensor, a_hat: Tensor,
                    iterations: int) -> tuple[Tensor, Tensor]:
    """Routing-by-agreement over E x d x H votes: E parent capsules, activations.

    Per iteration: logits b[j] += v_j . u_hat[j] (the agreement) after the
    first, couplings c = a_hat * softmax of b over parents, parent inputs
    s_j = u_hat[j] c[j] (the parent sum) and v_j = squash(s_j). One tape
    node returns the last s; its backward walks the iterations in reverse.
    """
    if len(u_hat.shape) != 3 or a_hat.shape != u_hat.shape[2:]:
        raise ShapeError(f"dynamic_routing shapes do not conform: "
                         f"u_hat {u_hat.shape}, a_hat {a_hat.shape}")
    if iterations < 1:
        raise ContractViolation(f"routing needs >= 1 iterations, got {iterations}")
    U, a = u_hat.data, a_hat.data
    b = np.zeros_like(U[:, 0])  # E x H: row j, parent j's logits over children
    steps = []                  # per iteration: the softmax and squash kernels
    for it in range(iterations):
        if it:
            b = b + _agreement(U, v)
        p, p_backward = softmax(b, axis=0)
        s = _parent_sum(U, a * p)
        v, v_backward = _squash(s, -1)
        steps.append((p, p_backward, v, v_backward))

    def bw(gs):
        # the vote gradient sums 2r - 1 outer products, one per parent sum
        # and one per agreement, and one stacked product forms it
        terms = []
        gb, ga = np.zeros_like(b), np.zeros_like(a)
        for it in reversed(range(iterations)):
            p, p_backward = steps[it][:2]
            gc = _agreement(U, gs)
            terms.append((gs, a * p))
            ga += (gc * p).sum(axis=0)
            gb = gb + p_backward(gc * a)
            if it:          # b = b_prev + agreement(v_prev)
                _, _, v, v_backward = steps[it - 1]
                terms.append((v, gb))
                gs = v_backward(_parent_sum(U, gb))
        left, right = zip(*terms)
        u_hat._accumulate(np.stack(left, axis=2) @ np.stack(right, axis=1))
        a_hat._accumulate(ga)
    s = Tensor._from_op(s, (u_hat, a_hat), bw)
    return squash(s, axis=-1), capsule_length(s, axis=-1)
