"""Sentence encoder: embeddings, Bi-LSTM, word-level attention.

Shapes follow the model config: a sentence of n tokens gives n input rows
of width V = d_w + d_p * M, the Bi-LSTM emits n x 2B hidden states, and
attention rescales each row by its softmax weight, keeping the
per-position sequence for the capsule layer. Every sentence is encoded at
its own length; nothing is padded. Each layer is one tape node with a
hand-written backward. Each LSTM direction is
:func:`~capsrel.autodiff.lstm_sequence`: a numpy loop over the tokens, and
BPTT (one reverse sweep, then one product per weight). Word attention runs
on the numpy softmax kernel that routing shares.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (ContractViolation, ShapeError, Tensor, concat,
                       lstm_sequence)


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


def bilstm(X: Tensor, fwd: tuple[Tensor, Tensor, Tensor],
           bwd: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """L x 2B hidden sequence: forward states beside backward states.

    Each direction is one `lstm_sequence` tape node, whose backward is a
    hand-written BPTT sweep.
    """
    return concat([lstm_sequence(X, *fwd, reverse=False),
                   lstm_sequence(X, *bwd, reverse=True)], axis=1)


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
    alpha, alpha_backward = softmax((H.data @ A.data) @ r.data, axis=0)

    def bw(g):
        g_score = alpha_backward((g * H.data).sum(axis=1))
        h_score = H.data.T @ g_score
        H._accumulate(alpha[:, None] * g + np.outer(g_score, A.data @ r.data))
        A._accumulate(np.outer(h_score, r.data))
        r._accumulate(A.data.T @ h_score)
    return Tensor._from_op(alpha[:, None] * H.data, (H, A, r), bw), Tensor(alpha)
