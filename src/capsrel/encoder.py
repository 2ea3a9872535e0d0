"""Sentence encoder: embeddings, Bi-LSTM, word-level attention.

Shapes follow the model config: a sentence of n tokens gives n input rows
of width V = d_w + d_p * M, the Bi-LSTM emits n x 2B hidden states, and
attention rescales each row by its softmax weight, keeping the
per-position sequence for the capsule layer. Every sentence is encoded at
its own length; nothing is padded. Each LSTM direction is one tape node,
:func:`~capsrel.autodiff.lstm_sequence`: its forward is a numpy loop over
the tokens, and its backward is hand-written BPTT (one reverse sweep,
then one product per weight). Word attention is one tape node too, on the
numpy softmax kernel that routing shares.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, lstm_sequence, take_rows


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def embed(word_ids: np.ndarray, position_ids: np.ndarray,
          word_emb: Tensor, pos_embs: list[Tensor]) -> Tensor:
    """Build the n x V input matrix of an n-token sentence.

    Row t is the word embedding concatenated with the M position-bucket
    embeddings.
    """
    cols = [take_rows(word_emb, np.asarray(word_ids, dtype=np.int64))]
    for m, table in enumerate(pos_embs):
        cols.append(take_rows(table, position_ids[:, m]))
    return concat(cols, axis=1)


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
