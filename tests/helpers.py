"""Shared test utilities: independent oracles and tiny fixture builders."""

from __future__ import annotations

import numpy as np

from capsrel.config import TrainConfig
from capsrel.data import EmbeddingStore, SentenceInstance, parse_record
from capsrel.model import Model


def routing_reference(u_hat: np.ndarray, a_hat: np.ndarray,
                      iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Explicit-loop replay of the routing algorithm, scalar by scalar.

    Deliberately written with plain Python loops and its own squash so it
    shares no code path with the vectorized implementation.
    """
    H, E, d = u_hat.shape
    b = np.zeros((H, E))
    v = np.zeros((E, d))
    a = np.zeros(E)
    for _ in range(iterations):
        c = np.zeros((H, E))
        for i in range(H):
            m = b[i].max()
            e = np.exp(b[i] - m)
            c[i] = a_hat[i] * (e / e.sum())
        for j in range(E):
            s = np.zeros(d)
            for i in range(H):
                s = s + c[i, j] * u_hat[i, j]
            n = float(np.sqrt((s * s).sum()))
            if n == 0.0:
                v[j] = 0.0
            else:
                v[j] = (n * n / (0.5 + n * n)) * (s / n)
            a[j] = float(np.sqrt((v[j] * v[j]).sum()))
        for i in range(H):
            for j in range(E):
                b[i, j] = b[i, j] + float(u_hat[i, j] @ v[j])
    return v, a


def votes_reference(u: np.ndarray, Wc: np.ndarray,
                    b_hat: np.ndarray) -> np.ndarray:
    """Per-parent loop: u_hat[:, j] = u @ Wc[j].T + b_hat[j]; H x E x d."""
    H, E = u.shape[0], Wc.shape[0]
    u_hat = np.zeros((H, E, Wc.shape[1]))
    for j in range(E):
        u_hat[:, j] = u @ Wc[j].T + b_hat[j]
    return u_hat


def bilstm_reference(X: np.ndarray, mask: np.ndarray, fwd, bwd) -> np.ndarray:
    """Per-step LSTM in both directions on plain arrays; L x 2B.

    `fwd` and `bwd` are (Wx, Wh, b) arrays. Each step projects its own
    input row; a masked step emits zeros and carries h and c unchanged.
    """
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    L = X.shape[0]
    halves = []
    for (Wx, Wh, b), steps in ((fwd, range(L)), (bwd, range(L - 1, -1, -1))):
        B = Wh.shape[0]
        h, c = np.zeros(B), np.zeros(B)
        out = np.zeros((L, B))
        for t in steps:
            if not mask[t]:
                continue
            z = X[t] @ Wx + h @ Wh + b
            i, f = sigmoid(z[:B]), sigmoid(z[B:2 * B])
            g, o = np.tanh(z[2 * B:3 * B]), sigmoid(z[3 * B:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        halves.append(out)
    return np.concatenate(halves, axis=1)


def squash_reference(x: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(x))
    if n == 0.0:
        return np.zeros_like(x)
    return (n * n / (0.5 + n * n)) * (x / n)


def tiny_store(d_w: int = 4, k: int = 3, n_relations: int = 3,
               vocab: tuple[str, ...] = ("alpha", "beta", "gamma", "delta"),
               entities: tuple[str, ...] = ("E1", "E2", "E3", "E4"),
               seed: int = 0) -> EmbeddingStore:
    rng = np.random.default_rng(seed)
    word = rng.normal(size=(len(vocab), d_w))
    ent = rng.normal(size=(len(entities), k))
    names = ["NA"] + [f"R{i}" for i in range(1, n_relations)]
    rel = rng.normal(size=(n_relations, k))
    return EmbeddingStore(
        word=np.vstack([word, word.mean(axis=0, keepdims=True)]),
        word_vocab={t: i for i, t in enumerate(vocab)},
        entity=ent,
        entity_vocab={e: i for i, e in enumerate(entities)},
        relation=rel,
        relation_names=names,
    )


def make_instance(tokens, pairs=(("E1", "E2"),), relations=("R1",),
                  entities=None, L: int = 10, M: int = 2,
                  relation_vocab=None) -> SentenceInstance:
    """Build an instance from a record dict, defaulting entity spans to the
    first occurrences of the pair entities among the tokens."""
    if relation_vocab is None:
        relation_vocab = {"NA": 0, "R1": 1, "R2": 2}
    if entities is None:
        entities = []
        for pair in pairs:
            for eid in pair:
                if eid in tokens:
                    pos = tokens.index(eid)
                    entities.append({"id": eid, "span": [pos, pos + 1]})
    record = {
        "tokens": list(tokens),
        "entities": entities,
        "pairs": [list(p) for p in pairs],
        "relations": list(relations),
    }
    return parse_record(record, L, M, relation_vocab)


def tiny_model(seed: int = 0, B: int = 3, L: int = 10, d_p: int = 2,
               d: int = 2, C: int = 2, M: int = 2, dropout: float = 0.0,
               store: EmbeddingStore | None = None, **kw) -> Model:
    cfg = TrainConfig(B=B, L=L, d_p=d_p, d=d, C=C, M=M, dropout=dropout,
                      seed=seed, **kw)
    return Model(cfg, store if store is not None else tiny_store(seed=seed))
