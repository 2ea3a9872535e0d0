"""Sentence encoder: embeddings, Bi-LSTM, word-level attention.

Shapes follow the model config: a sentence of n tokens gives n input rows
of width V = d_w + d_p * M, the Bi-LSTM emits n x 2B hidden states, and
attention rescales each row by its softmax weight, keeping the
per-position sequence for the capsule layer. Every sentence is encoded at
its own length; nothing is padded. Each layer is one tape node with a
hand-written backward. The Bi-LSTM runs the numpy kernel `_lstm` once per
direction: a loop over the tokens, and BPTT (one reverse sweep, then one
product per weight). Word attention runs on the numpy softmax kernel that
routing shares.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractViolation, ShapeError, Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def embed(word_ids: np.ndarray, position_ids: np.ndarray,
          word_emb: Tensor, pos_embs: list[Tensor]) -> Tensor:
    """Build the n x V input matrix of an n-token sentence.

    Row t is the word embedding concatenated with the M position-bucket
    embeddings. One tape node, whose backward scatter-adds each column
    block of the gradient into its table's rows, once per read, in place:
    each call then adds its n rows, not a table-sized array.
    """
    tables = [word_emb, *pos_embs]
    word_ids = np.asarray(word_ids, dtype=np.int64)
    position_ids = np.asarray(position_ids, dtype=np.int64)
    if word_ids.ndim != 1 or position_ids.shape != (len(word_ids), len(pos_embs)) \
            or any(len(t.shape) != 2 for t in tables):
        raise ShapeError(
            f"embed shapes do not conform: word_ids {word_ids.shape}, "
            f"position_ids {position_ids.shape}, word_emb {word_emb.shape}, "
            f"pos_embs {[t.shape for t in pos_embs]}")
    ids = [word_ids, *position_ids.T]
    names = ["the word table",
             *(f"position slot {m}" for m in range(len(pos_embs)))]
    for name, table, rows in zip(names, tables, ids):
        if np.any(rows < 0) or np.any(rows >= table.shape[0]):
            raise ContractViolation(f"row index out of range for {name}, "
                                    f"which has {table.shape[0]} rows")
    edges = np.cumsum([t.shape[1] for t in tables])[:-1]

    def bw(g):
        for table, rows, part in zip(tables, ids, np.split(g, edges, axis=1)):
            if table.requires_grad:
                if table.grad is None:
                    table.grad = np.zeros_like(table.data)
                np.add.at(table.grad, rows, part)
    return Tensor._from_op(
        np.concatenate([t.data[rows] for t, rows in zip(tables, ids)], axis=1),
        tables, bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _lstm(X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray,
          reverse: bool):
    """One LSTM direction over the L rows of X, in order or reversed: the
    L x B states, and the function taking their gradient dH to (dX, dWx,
    dWh, db).

    The 4B gate columns are ordered input, forget, cell, output, and the
    state starts at zero. The forward keeps the activated gates and the
    cells; the backward is one reverse BPTT sweep that fills dZ, the
    L x 4B gradient of the gate pre-activations, then forms dX, dWx and
    dWh with one product each and db with one sum.
    """
    L, B = X.shape[0], Wh.shape[0]
    order = slice(None, None, -1) if reverse else slice(None)
    # every array below holds one row per step, in step order
    XW = (X @ Wx + b)[order]                    # the input projection, hoisted
    gates = np.empty((L, 4, B))
    hs, cs = np.empty((L, B)), np.empty((L, B))
    h = c = np.zeros(B)
    for s in range(L):
        z = XW[s] + h @ Wh
        gates[s] = _sigmoid(z).reshape(4, B)
        gates[s, 2] = np.tanh(z[2 * B:3 * B])
        i, f, g, o = gates[s]
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[s], cs[s] = h, c

    def backward(dH):
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
            dh_next = Wh @ dZ[s].reshape(-1)
        dZ = dZ.reshape(L, 4 * B)
        dWh = np.vstack([np.zeros(B), hs[:-1]]).T @ dZ
        dZ = dZ[order]                          # back to row order
        return dZ @ Wx.T, X.T @ dZ, dWh, dZ.sum(axis=0)
    return hs[order], backward


def bilstm(X: Tensor, fwd: tuple[Tensor, Tensor, Tensor],
           bwd: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """L x 2B hidden sequence: forward states beside backward states.

    One tape node over X and the six weights, (Wx, Wh, b) per direction,
    both of unit size B; each direction runs `_lstm`. The backward gives
    each direction its B columns of the gradient and adds both dX terms
    into X once.
    """
    weights = (*fwd, *bwd)
    V = X.shape[1] if len(X.shape) == 2 else -1
    B = fwd[1].shape[0] if len(fwd[1].shape) == 2 else -1
    if [W.shape for W in weights] != 2 * [(V, 4 * B), (B, 4 * B), (4 * B,)]:
        raise ShapeError(
            "bilstm shapes do not conform: X {}, forward Wx {}, Wh {}, b {}, "
            "backward Wx {}, Wh {}, b {}".format(X.shape,
                                                 *(W.shape for W in weights)))
    h_fwd, fwd_backward = _lstm(X.data, *(W.data for W in fwd), reverse=False)
    h_bwd, bwd_backward = _lstm(X.data, *(W.data for W in bwd), reverse=True)

    def bw(g):
        dX_fwd, *d_fwd = fwd_backward(g[:, :B])
        dX_bwd, *d_bwd = bwd_backward(g[:, B:])
        X._accumulate(dX_fwd + dX_bwd)
        for W, dW in zip(weights, (*d_fwd, *d_bwd)):
            W._accumulate(dW)
    return Tensor._from_op(np.concatenate([h_fwd, h_bwd], axis=1),
                           (X, *weights), bw)


def softmax(x: np.ndarray, axis: int):
    """Softmax of an array along `axis`, shifted by its max before exp, and
    the function taking its output gradient to x's."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)
    return p, lambda g: p * (g - (g * p).sum(axis=axis, keepdims=True))


def word_attention(H: Tensor, A: Tensor, r: Tensor) -> tuple[Tensor, Tensor]:
    """Scale each hidden row by its bilinear-score softmax weight.

    Scores are h_t A r, normalised over the L positions. The weighted rows
    are one tape node; the weights alpha come back as a constant.
    """
    if len(H.shape) != 2 or len(A.shape) != 2 or A.shape[0] != H.shape[1] \
            or r.shape != A.shape[1:]:
        raise ShapeError(f"word_attention shapes do not conform: H {H.shape}, "
                         f"A {A.shape}, r {r.shape}")
    alpha, alpha_backward = softmax((H.data @ A.data) @ r.data, axis=0)

    def bw(g):
        g_score = alpha_backward((g * H.data).sum(axis=1))
        h_score = H.data.T @ g_score
        H._accumulate(alpha[:, None] * g + np.outer(g_score, A.data @ r.data))
        A._accumulate(np.outer(h_score, r.data))
        r._accumulate(A.data.T @ h_score)
    return Tensor._from_op(alpha[:, None] * H.data, (H, A, r), bw), Tensor(alpha)
