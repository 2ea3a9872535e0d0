"""Sentence encoder: embeddings, Bi-LSTM, word-level attention.

Shapes follow the model config: input rows have width V = d_w + d_p * M,
the Bi-LSTM emits L x 2B hidden states, and attention rescales each row
by its softmax weight, keeping the per-position sequence for the capsule
layer.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractViolation, Tensor, concat, stack, take_rows


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def embed(word_ids: np.ndarray, position_ids: np.ndarray,
          word_emb: Tensor, pos_embs: list[Tensor],
          pad_to: int | None = None) -> tuple[Tensor, np.ndarray]:
    """Build the L x V input matrix and its padding mask.

    Row t is the word embedding concatenated with the M position-bucket
    embeddings. Rows past the sentence length are zero and masked out.
    """
    n = len(word_ids)
    L = n if pad_to is None else pad_to
    if n > L:
        raise ContractViolation(f"sentence length {n} exceeds pad length {L}")
    V = word_emb.shape[1] + sum(p.shape[1] for p in pos_embs)
    mask = np.zeros(L, dtype=bool)
    mask[:n] = True
    if n == 0:
        return Tensor(np.zeros((L, V))), mask
    cols = [take_rows(word_emb, np.asarray(word_ids, dtype=np.int64))]
    for m, table in enumerate(pos_embs):
        cols.append(take_rows(table, position_ids[:, m]))
    X = concat(cols, axis=1)
    if n < L:
        X = concat([X, Tensor(np.zeros((L - n, V)))], axis=0)
    return X, mask


def _lstm_direction(X: Tensor, mask: np.ndarray, Wx: Tensor, Wh: Tensor,
                    b: Tensor, reverse: bool) -> list[Tensor]:
    """One LSTM direction; masked steps emit zeros and carry state unchanged.

    The input projection X Wx + b does not depend on the recurrence, so it
    is one L x 4B product ahead of the loop; each step adds only h Wh.
    """
    L = X.shape[0]
    B = Wh.shape[0]
    XW = X @ Wx + b
    h = Tensor(np.zeros(B))
    c = Tensor(np.zeros(B))
    out = [Tensor(np.zeros(B))] * L
    order = range(L - 1, -1, -1) if reverse else range(L)
    for t in order:
        if not mask[t]:
            continue
        gates = XW[t] + h @ Wh
        i = gates[0:B].sigmoid()
        f = gates[B:2 * B].sigmoid()
        g = gates[2 * B:3 * B].tanh()
        o = gates[3 * B:4 * B].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        out[t] = h
    return out


def bilstm(X: Tensor, mask: np.ndarray,
           fwd: tuple[Tensor, Tensor, Tensor],
           bwd: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """L x 2B hidden sequence: forward states beside backward states."""
    h_fwd = stack(_lstm_direction(X, mask, *fwd, reverse=False))
    h_bwd = stack(_lstm_direction(X, mask, *bwd, reverse=True))
    return concat([h_fwd, h_bwd], axis=1)


def word_attention(H: Tensor, A: Tensor, r: Tensor,
                   mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Scale each hidden row by its bilinear-score softmax weight.

    Scores are h_t A r; masked positions get -inf logits so their weight
    is exactly zero.
    """
    if not mask.any():
        raise ContractViolation("word_attention: all positions masked")
    scores = (H @ A) @ r
    bias = np.where(mask, 0.0, -np.inf)
    alpha = (scores + Tensor(bias)).softmax(axis=0)
    weighted = alpha.reshape((H.shape[0], 1)) * H
    return weighted, alpha
