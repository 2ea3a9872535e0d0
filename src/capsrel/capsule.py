"""Primary capsules over 2-gram windows, votes, and dynamic routing.

The capsule layer slides a stride-1 2-gram window over the encoded
sentence (zero-padded by one row at each end, so L rows give L+1
windows), producing H = (L+1)*C child capsules u_i of dimension d. Each
of the E relation capsules has one transform, shared by every child: the
vote of child i for parent j is u_hat[j, :, i] = Wc[j] @ u_i + b_hat[j].
Routing-by-agreement iteratively couples children to parents. It reads
the votes only through two contractions, the parent sum and the
agreement, and forms both from the factors (u, Wc, b_hat), so the
E x d x H vote tensor is never built. Primary capsules and routing are
one tape node each, with a hand-written backward.
"""

from __future__ import annotations

from numbers import Integral

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


def votes(u: Tensor, Wc: Tensor, b_hat: Tensor
          ) -> tuple[Tensor, Tensor, Tensor]:
    """Per-parent votes u_hat[j, :, i] = Wc[j] @ u[i] + b_hat[j], kept
    factored: returns (u, Wc, b_hat) once their shapes conform.

    Every child shares its parent's transform, so `dynamic_routing`
    contracts the factors directly and the E x d x H votes are never formed.
    """
    E, d = b_hat.shape if len(b_hat.shape) == 2 else (-1, -1)
    if u.shape[1:] != (d,) or Wc.shape != (E, d, d):
        raise ShapeError(f"votes shapes do not conform: u {u.shape}, "
                         f"Wc {Wc.shape}, b_hat {b_hat.shape}")
    return u, Wc, b_hat


def _parent_sum(factors, c: np.ndarray) -> np.ndarray:
    """sum_i c[j, i] u_hat[j, :, i] over the votes (x, W, b) stand for:
    W[j] (c[j] @ x) + b[j] sum_i c[j, i]; E x d, from E x H weights c."""
    x, W, b = factors
    return (W @ (c @ x)[:, :, None])[:, :, 0] + b * c.sum(axis=1)[:, None]


def _agreement(factors, v: np.ndarray) -> np.ndarray:
    """v[j] . u_hat[j, :, i] over the votes (x, W, b) stand for:
    (W[j]^T v[j]) . x[i] + v[j] . b[j]; E x H, from E x d vectors v."""
    x, W, b = factors
    return (v[:, None] @ W)[:, 0] @ x.T + (v * b).sum(axis=1, keepdims=True)


def dynamic_routing(u_hat: Tensor | tuple[Tensor, Tensor, Tensor],
                    a_hat: Tensor, iterations: int) -> tuple[Tensor, Tensor]:
    """Routing-by-agreement: E parent capsules and their activations.

    `u_hat` is the votes u_hat[j, :, i] = W[j] @ x[i] + b[j], either as
    the factors (x: H x m, W: E x d x m, b: E x d) that `votes` returns
    or as a bare E x d x H tensor, which is the case x = I_H, W = u_hat,
    b = 0. Per iteration: logits b[j] += v_j . u_hat[j] (the agreement)
    after the first, couplings c = a_hat * softmax of b over parents,
    parent inputs s_j = u_hat[j] c[j] (the parent sum) and
    v_j = squash(s_j). Both contractions run on the factors, so every
    array routing forms is E x H or smaller. One tape node returns the
    last s; its backward walks the iterations in reverse.
    """
    if isinstance(u_hat, Tensor):
        if len(u_hat.shape) != 3 or a_hat.shape != u_hat.shape[2:]:
            raise ShapeError(f"dynamic_routing shapes do not conform: "
                             f"u_hat {u_hat.shape}, a_hat {a_hat.shape}")
        E, d, H = u_hat.shape
        u_hat = Tensor(np.eye(H)), u_hat, Tensor(np.zeros((E, d)))
    x, W, b_hat = u_hat
    E, d = b_hat.shape if len(b_hat.shape) == 2 else (-1, -1)
    if (len(x.shape) != 2 or W.shape != (E, d, x.shape[1])
            or a_hat.shape != x.shape[:1]):
        raise ShapeError(f"dynamic_routing shapes do not conform: "
                         f"u {x.shape}, Wc {W.shape}, b_hat {b_hat.shape}, "
                         f"a_hat {a_hat.shape}")
    if (isinstance(iterations, bool) or not isinstance(iterations, Integral)
            or iterations < 1):
        raise ContractViolation(f"routing needs an integer number of "
                                f"iterations >= 1, got {iterations!r}")
    factors = x.data, W.data, b_hat.data
    a = a_hat.data
    b = np.zeros((E, len(a)))   # row j: parent j's logits over the children
    steps = []                  # per iteration: the softmax and squash kernels
    for it in range(iterations):
        if it:
            b = b + _agreement(factors, v)
        p, p_backward = softmax(b, axis=0)
        s = _parent_sum(factors, a * p)
        v, v_backward = _squash(s, -1)
        steps.append((p, p_backward, v, v_backward))

    def bw(gs):
        # the vote gradient is a sum of 2r - 1 outer products, one per
        # parent sum and one per agreement; each goes straight to the
        # factors' gradients, so the E x d x H sum is never formed
        def vote_term(left, right):     # left[j] right[j]^T, per parent j
            x._accumulate(right.T @ (left[:, None] @ W.data)[:, 0])
            W._accumulate(left[:, :, None] * (right @ x.data)[:, None])
            b_hat._accumulate(left * right.sum(axis=1)[:, None])

        gb, ga = np.zeros_like(b), np.zeros_like(a)
        for it in reversed(range(iterations)):
            p, p_backward = steps[it][:2]
            gc = _agreement(factors, gs)
            vote_term(gs, a * p)
            ga += (gc * p).sum(axis=0)
            gb = gb + p_backward(gc * a)
            if it:          # b = b_prev + agreement(v_prev)
                _, _, v, v_backward = steps[it - 1]
                vote_term(v, gb)
                gs = v_backward(_parent_sum(factors, gb))
        a_hat._accumulate(ga)
    s = Tensor._from_op(s, (x, W, b_hat, a_hat), bw)
    return squash(s, axis=-1), capsule_length(s, axis=-1)
