"""Primary capsules over 2-gram windows, votes, and dynamic routing.

The capsule layer slides a stride-1 2-gram window over each encoded
sentence (zero-padded by one row at each end, so L rows give L+1
windows), producing H = (L+1)*C child capsules u_i of dimension d. Each
of the E relation capsules has one transform, shared by every child: the
vote of child i for parent j is u_hat[j, :, i] = Wc[j] @ u_i + b_hat[j].
Routing-by-agreement iteratively couples children to parents. It reads
the votes only through the factors (u, Wc, b_hat), so the E x d x H vote
tensor is never built, and it works in their contracted space: with
ua = [u | 1], a vote is [Wc[j] | b_hat[j]] ua_i. An iteration's logits
are the agreements so far, summed as E x (d+1) rows, times ua^T: one
E x H product. Its parent sum is one narrow product of the couplings with
ua, which gives sum_i c u_i and sum_i c together. The first iteration's
couplings are a_hat/E for every parent, so it forms no E x H array at all.
Primary capsules and routing take the rows of N sentences packed one after
another and `lengths`, the rows of each: the windows of a sentence never
cross into the next, and routing couples each sentence's children to its
own E parents, one sentence at a time, so its E x H arrays stay the size
of one sentence's. Capsules lie on the last axis. Primary capsules and
routing are one tape node each, with a hand-written backward.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .autodiff import ContractViolation, ShapeError, Tensor, recording
from .encoder import sentence_bounds, sentence_lengths


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


def _expand(factors, y: np.ndarray) -> np.ndarray:
    """W[j] y[j, :m] + b[j] y[j, m] over the votes (x, W, b) stand for:
    E x d from contracted E x (m+1) rows y, whose rows may broadcast. On
    y = c @ [x | 1] it is the parent sum sum_i c[j, i] u_hat[j, :, i]."""
    _, W, b = factors
    return (W @ y[:, :-1, None])[:, :, 0] + b * y[:, -1:]


def _contract(factors, v: np.ndarray) -> np.ndarray:
    """[W[j]^T v[j] | v[j] . b[j]] over the votes (x, W, b) stand for:
    E x (m+1) from E x d vectors v, the transpose of `_expand`. Its
    `_agreement` with [x | 1] is v[j] . u_hat[j, :, i]."""
    _, W, b = factors
    return np.column_stack(((v[:, None] @ W)[:, 0], (v * b).sum(axis=1)))


def _agreement(q: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """q[j] . xa[i] for every parent j and child i: the E x H product, the
    only array of that size routing forms."""
    return q @ xa.T


def _route(factors, a: np.ndarray, iterations: int, keep: bool):
    """Routing over one sentence's children: the last parent inputs s
    (E x d), and the backward, or None unless `keep`.

    It runs in the contracted space of xa = [x | 1] (H x (m+1)), in which
    every vote is u_hat[j, :, i] = [W[j] | b[j]] xa[i]. The agreements
    summed over the iterations so far are the E x (m+1) rows q, so each
    iteration's logits are the one E x H product `_agreement(q, xa)`, and
    its softmax over parents runs in place on it. The parent sum under
    couplings c = a p is `_expand` of y = c @ xa = p @ (a xa), Sum_i c u_i
    and Sum_i c in one product. The first couplings are the exact a/E, so
    that iteration's y is (a/E) @ xa for every parent and it forms no E x H
    array. `keep` holds each later iteration's softmax, iterations - 1
    E x H arrays, and the E x (m+1) and E x d rest.

    The backward maps the gradient of s to those of x, W, b and a. Per
    later iteration it forms one E x H array, the gradient of the
    couplings over a, runs the softmax backward on it in place, and reads
    a's gradient, which is also the softmax's shift, off the H x (m+1)
    product p^T gy it needs anyway; the first iteration's gradients are
    column sums. The vote gradients arrive as E x d x m outer products,
    so the E x d x H sum is never formed.
    """
    x, W, _ = factors
    xa = np.column_stack((x, np.ones(len(x))))
    ax = a[:, None] * xa            # c @ xa = p @ ax
    inv_E = 1.0 / len(W)            # the exact softmax of all-zero logits
    y = ((a * inv_E) @ xa)[None]    # one row stands for every parent
    p, q = None, np.zeros((len(W), xa.shape[1]))
    steps = []      # per iteration: softmax, agreements, parent sum, squash
    for it in range(iterations):
        if it:
            q = q + _contract(factors, v)
            p = _agreement(q, xa)
            p -= p.max(axis=0)
            np.exp(p, out=p)
            p /= p.sum(axis=0)          # a division: the bits of e / e.sum()
            y = p @ ax
        s = _expand(factors, y)
        v, v_backward = _squash(s)
        if keep:
            steps.append((p, q, y, v, v_backward))

    def backward(gs):
        # gax is xa's gradient over a: x's gradient is a gax[:, :m]
        gW, gb, gq, gax, ga = map(np.zeros_like, (*factors[1:], q, xa, a))
        for it in reversed(range(iterations)):
            p, q_it, y = steps[it][:3]
            gy = _contract(factors, gs)
            gW += gs[:, :, None] * y[:, None, :-1]
            gb += gs * y[:, -1:]
            if not it:                  # y = (a/E) @ xa in every row
                w = gy.sum(axis=0) * inv_E
                ga += xa @ w
                gax += w
                break
            g = _agreement(gy, xa)      # the couplings' gradient over a
            py = p.T @ gy
            r = (xa * py).sum(axis=1)   # sum_j g p: a's gradient, the shift
            g -= r
            g *= p                      # the logits' gradient over a
            gq += g @ ax                # every earlier iteration's agreement
            gax += py + g.T @ q_it
            ga += r
            del g               # before the next iteration forms its own
            v, v_backward = steps[it - 1][3:]
            gW += v[:, :, None] * gq[:, None, :-1]
            gb += v * gq[:, -1:]
            gs = v_backward(_expand(factors, gq))
        return a[:, None] * gax[:, :-1], gW, gb, ga
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
