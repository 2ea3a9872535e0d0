"""Sentence encoder: embeddings, Bi-LSTM, word-level attention.

Shapes follow the model config: a sentence of n tokens gives n input rows
of width V = d_w + d_p * M, the Bi-LSTM emits n x 2B hidden states, and
attention rescales each row by its softmax weight, keeping the
per-position sequence for the capsule layer. Every sentence is encoded at
its own length; nothing is padded.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, stack, take_rows


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


def _lstm_direction(X: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor,
                    reverse: bool) -> list[Tensor]:
    """One LSTM direction over every row of X, in order or reversed.

    The input projection X Wx + b does not depend on the recurrence, so it
    is one L x 4B product ahead of the loop; each step adds only h Wh.
    """
    L = X.shape[0]
    B = Wh.shape[0]
    XW = X @ Wx + b
    h = Tensor(np.zeros(B))
    c = Tensor(np.zeros(B))
    out = [None] * L
    order = range(L - 1, -1, -1) if reverse else range(L)
    for t in order:
        gates = XW[t] + h @ Wh
        i = gates[0:B].sigmoid()
        f = gates[B:2 * B].sigmoid()
        g = gates[2 * B:3 * B].tanh()
        o = gates[3 * B:4 * B].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        out[t] = h
    return out


def bilstm(X: Tensor, fwd: tuple[Tensor, Tensor, Tensor],
           bwd: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """L x 2B hidden sequence: forward states beside backward states."""
    h_fwd = stack(_lstm_direction(X, *fwd, reverse=False))
    h_bwd = stack(_lstm_direction(X, *bwd, reverse=True))
    return concat([h_fwd, h_bwd], axis=1)


def word_attention(H: Tensor, A: Tensor, r: Tensor) -> tuple[Tensor, Tensor]:
    """Scale each hidden row by its bilinear-score softmax weight.

    Scores are h_t A r, normalised over the L positions.
    """
    alpha = ((H @ A) @ r).softmax(axis=0)
    weighted = alpha.reshape((H.shape[0], 1)) * H
    return weighted, alpha
