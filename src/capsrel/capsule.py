"""Primary capsules over 2-gram windows, votes, and dynamic routing.

The capsule layer slides a stride-1 2-gram window over each encoded
sentence (zero-padded by one row at each end, so L rows give L+1
windows), producing H = (L+1)*C child capsules u_i of dimension d. Each
of the E relation capsules has one transform, shared by every child: the
vote of child i for parent j is u_hat[j, :, i] = Wc[j] @ u_i + b_hat[j].
Routing-by-agreement iteratively couples children to parents. It reads
the votes only through two contractions, the parent sum and the
agreement, and forms both from the factors (u, Wc, b_hat), so the
E x d x H vote tensor is never built. Primary capsules and routing take
the rows of N sentences packed one after another and `lengths`, the rows
of each: the windows of a sentence never cross into the next, and routing
couples each sentence's children to its own E parents, one sentence at a
time, so its E x H arrays stay the size of one sentence's. Capsules lie
on the last axis. Primary capsules and routing are one tape node each,
with a hand-written backward.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .autodiff import ContractViolation, ShapeError, Tensor, recording
from .encoder import sentence_bounds, sentence_lengths, softmax


def _squash(x: np.ndarray):
    """The squash law on the last axis, k x with k = n/(0.5+n^2), n = ||x||,
    and the function taking its output gradient to x's."""
    n = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    nn = n * n
    k = n / (nn + 0.5)

    def backward(g):
        u = x / np.where(n == 0.0, 1.0, n)
        slope = n * (0.5 - nn) / (nn + 0.5) ** 2    # n k'(n)
        return k * g + u * ((g * u).sum(axis=-1, keepdims=True) * slope)
    return x * k, backward


def squash(x: Tensor) -> Tensor:
    """Norm-bounding nonlinearity on each capsule along the last axis:
    ||out|| = n^2/(0.5+n^2) < 1, direction kept.

    One tape node; zero maps to zero (limit convention), with zero gradient.
    """
    out, backward = _squash(x.data)
    return Tensor._from_op(out, (x,), lambda g: x._accumulate(backward(g)))


def capsule_length(s: Tensor) -> Tensor:
    """||squash(s)|| by the squash law, q/(0.5+q) with q = ||s||^2 over the
    last axis: one tape node on the pre-squash s, whose gradient is
    s/(0.5+q)^2."""
    q = (s.data * s.data).sum(axis=-1, keepdims=True)

    def bw(g):
        s._accumulate(g[..., None] * s.data / (q + 0.5) ** 2)
    return Tensor._from_op((q / (q + 0.5))[..., 0], (s,), bw)


def primary_capsules(x_tilde: Tensor, Wb: Tensor, b1: Tensor,
                     C: int, d: int, lengths) -> tuple[Tensor, Tensor]:
    """Extract (L+1)*C child capsules of dim d from each sentence's L x 2B
    rows, for the sentences of `lengths` in order.

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
    lengths = sentence_lengths(lengths, L, "primary_capsules")
    # window w holds rows w-1 and w of its sentence; row t of sentence n
    # is the right half of window t + n and the left half of the next
    at = np.arange(L) + np.repeat(np.arange(len(lengths)), lengths)
    windows = np.zeros((L + len(lengths), 2 * width))
    windows[at + 1, :width] = x_tilde.data
    windows[at, width:] = x_tilde.data

    def bw(g):
        g = g.reshape((len(windows), C * d))
        g_windows = g @ Wb.data
        x_tilde._accumulate(g_windows[at + 1, :width] + g_windows[at, width:])
        Wb._accumulate((windows.T @ g).T)
        b1._accumulate(g.sum(axis=0))
    s = Tensor._from_op(
        (windows @ Wb.data.T + b1.data).reshape((len(windows) * C, d)),
        (x_tilde, Wb, b1), bw)
    return squash(s), capsule_length(s)


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


def _route(factors, a: np.ndarray, iterations: int, keep: bool):
    """Routing over one sentence's children: the last parent inputs s
    (E x d), and the backward, or None unless `keep` (then no iteration's
    arrays outlive the next).

    The backward maps the gradient of s to those of x, W, b and a. The
    vote gradient is a sum of 2r - 1 outer products left[j] right[j]^T,
    one per parent sum and one per agreement; the backward adds each into
    the factors' gradients as it forms it, never forming the E x d x H sum.
    """
    b = np.zeros((len(factors[1]), len(a)))  # row j: parent j's logits
    # the first logits are all zero, so their softmax is exactly 1/E (exp(0)
    # = 1, summed to exactly E); the backward never differentiates it
    p, p_backward = np.full(b.shape, 1.0 / len(b)), None
    steps = []                      # per iteration: softmax and squash kernels
    for it in range(iterations):
        if it:
            b = b + _agreement(factors, v)
            p, p_backward = softmax(b)
        s = _parent_sum(factors, a * p)
        v, v_backward = _squash(s)
        if keep:
            steps.append((p, p_backward, v, v_backward))

    def backward(gs):
        x, W, _ = factors
        gx, gW, gb_hat, gb, ga = map(np.zeros_like, (*factors, b, a))
        for it in reversed(range(iterations)):
            p, p_backward = steps[it][:2]
            gc = _agreement(factors, gs)
            terms = [(gs, a * p)]
            ga += (gc * p).sum(axis=0)
            if it:          # b = b_prev + agreement(v_prev)
                gb = gb + p_backward(gc * a)
                _, _, v, v_backward = steps[it - 1]
                terms.append((v, gb))
                gs = v_backward(_parent_sum(factors, gb))
            for left, right in terms:       # left[j] right[j]^T per parent j
                gx += right.T @ (left[:, None] @ W)[:, 0]
                gW += left[:, :, None] * (right @ x)[:, None]
                gb_hat += left * right.sum(axis=1)[:, None]
        return gx, gW, gb_hat, ga
    return s, backward if keep else None


def dynamic_routing(u_hat: tuple[Tensor, Tensor, Tensor], a_hat: Tensor,
                    iterations: int, lengths) -> tuple[Tensor, Tensor]:
    """Routing-by-agreement: E parent capsules per sentence and their
    activations.

    `u_hat` is the votes u_hat[j, :, i] = W[j] @ x[i] + b[j] as the
    factors (x: H x m, W: E x d x m, b: E x d) that `votes` returns. The
    H children are those of the sentences of `lengths`, in order, and
    each sentence routes its own children to its own E parents. Per
    iteration: logits b[j] += v_j . u_hat[j] (the agreement) after the
    first, couplings c = a_hat * softmax of b over parents, parent inputs
    s_j = u_hat[j] c[j] (the parent sum) and v_j = squash(s_j). Both
    contractions run on the factors, so every array routing forms is
    E x H or smaller. One tape node returns the last s, N x E x d, and its
    backward walks each sentence's iterations in reverse, then adds each
    operand's gradient, summed or joined over sentences, once; the squash
    and length nodes on it give the N x E x d parents and N x E activations.
    """
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
    bounds = sentence_bounds(sentence_lengths(lengths, x.shape[0],
                                              "dynamic_routing"))
    parents = (x, W, b_hat, a_hat)
    keep = recording(parents)       # a node off the tape needs no backward
    s = np.empty((len(bounds), E, d))
    backwards = []
    for n, (lo, hi) in enumerate(bounds):
        s[n], backward = _route((x.data[lo:hi], W.data, b_hat.data),
                                a_hat.data[lo:hi], iterations, keep)
        backwards.append(backward)

    def bw(gs):
        gx, gW, gb, ga = zip(*(backward(g)
                               for backward, g in zip(backwards, gs)))
        x._accumulate(np.concatenate(gx))
        W._accumulate(sum(gW))
        b_hat._accumulate(sum(gb))
        a_hat._accumulate(np.concatenate(ga))
    out = Tensor._from_op(s, parents, bw)
    return squash(out), capsule_length(out)
