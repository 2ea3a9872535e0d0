"""Shared test utilities: independent oracles and tiny fixture builders."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from capsrel.autodiff import NonFiniteError, Tensor, concat, take_rows
from capsrel.config import TrainConfig
from capsrel.data import (Bag, EmbeddingStore, SentenceInstance, batch_iter,
                          parse_record)
from capsrel.evaluation import EvaluationError
from capsrel.model import Model
from capsrel.training import EpochStats, label_vector, margin_loss, select_instance


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


def bilstm_reference(X: np.ndarray, fwd, bwd) -> np.ndarray:
    """Per-step LSTM in both directions on plain arrays; L x 2B.

    `fwd` and `bwd` are (Wx, Wh, b) arrays. Each step projects its own
    input row.
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
            z = X[t] @ Wx + h @ Wh + b
            i, f = sigmoid(z[:B]), sigmoid(z[B:2 * B])
            g, o = np.tanh(z[2 * B:3 * B]), sigmoid(z[3 * B:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        halves.append(out)
    return np.concatenate(halves, axis=1)


def lstm_direction_reference(X: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor,
                             reverse: bool) -> Tensor:
    """One LSTM direction recorded step by step on the tape; L x B.

    The composed graph that `lstm_sequence` fuses, built from the generic
    tape ops: tanh is 2 sigmoid(2x) - 1, rows and gates are read with
    `take_rows`, and the rows are joined with `concat`. Its gradients come
    from their backward rules.
    """
    def tanh(x):
        return (x * 2.0).sigmoid() * 2.0 + (-1.0)

    L, B = X.shape[0], Wh.shape[0]
    XW = X @ Wx + b
    h = Tensor(np.zeros(B))
    c = Tensor(np.zeros(B))
    rows = [None] * L
    for t in (range(L - 1, -1, -1) if reverse else range(L)):
        z = (take_rows(XW, t) + h @ Wh).reshape((4, B))
        i, f = take_rows(z, 0).sigmoid(), take_rows(z, 1).sigmoid()
        g, o = tanh(take_rows(z, 2)), take_rows(z, 3).sigmoid()
        c = f * c + i * g
        h = o * tanh(c)
        rows[t] = h.reshape((1, B))
    return concat(rows, axis=0)


def position_feature_reference(token_idx: int, entity_anchor: int | None,
                               L: int) -> int:
    """Scalar bucket rule: distance clamped to [-L, L] and shifted by L; a
    missing anchor takes the reserved bucket 2L + 2."""
    if entity_anchor is None:
        return 2 * L + 2
    return max(-L, min(L, token_idx - entity_anchor)) + L


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


def param_count(model: Model) -> int:
    return sum(p.size for p in model.params.values())


def tiny_model(seed: int = 0, B: int = 3, L: int = 10, d_p: int = 2,
               d: int = 2, C: int = 2, M: int = 2, dropout: float = 0.0,
               store: EmbeddingStore | None = None, **kw) -> Model:
    cfg = TrainConfig(B=B, L=L, d_p=d_p, d=d, C=C, M=M, dropout=dropout,
                      seed=seed, **kw)
    return Model(cfg, store if store is not None else tiny_store(seed=seed))


def mixed_bags(M=2, n=10):
    """`n` bags of one to three sentences. At M=4 each sentence has two
    entity pairs, and its bag a gold relation for each."""
    words = ["alpha", "beta", "gamma", "delta"]
    pairs = [("E1", "E2"), ("E3", "E4")][:M // 2]
    bags = []
    for k in range(n):
        relations = [["NA", "R1", "R2"][(k + j) % 3] for j in range(len(pairs))]
        insts = [make_instance([words[(k + i) % 4], "E1", words[i], "E2",
                                "E3", "E4"][:2 + 2 * len(pairs)],
                               pairs=pairs, relations=relations, M=M)
                 for i in range(1 + k % 3)]
        bags.append(Bag(key=(k,), instances=insts,
                        labels=set(insts[0].relations)))
    return bags


def planted_trigger_bags(n_bags: int = 48, relations: int = 4,
                         lengths=(10, 30, 60, 119)) -> list[Bag]:
    """Single-sentence bags whose relation r > 0 is planted as the token
    `t{r}` right between the mentions "E1" and "E2" (NA bags have none).
    Bag k holds relation k % `relations` at length lengths[k // relations
    % len(lengths)]; the other tokens are fillers `w0`..`w19`."""
    rng = np.random.default_rng(0)
    vocab = {"NA": 0, **{f"R{r}": r for r in range(1, 53)}}
    bags = []
    for k in range(n_bags):
        r = k % relations
        n = lengths[k // relations % len(lengths)]
        middle = ["E1"] + ([f"t{r}"] if r else []) + ["E2"]
        fill = [f"w{i}" for i in rng.integers(0, 20, n - len(middle))]
        at = int(rng.integers(0, len(fill) + 1))
        inst = make_instance(fill[:at] + middle + fill[at:],
                             relations=("NA" if r == 0 else f"R{r}",),
                             L=120, relation_vocab=vocab)
        bags.append(Bag(key=(k,), instances=[inst], labels={r}))
    return bags


def planted_trigger_store() -> EmbeddingStore:
    """53 relations, as published, over the vocabulary of
    `planted_trigger_bags`."""
    vocab = (tuple(f"w{i}" for i in range(20))
             + tuple(f"t{r}" for r in range(1, 53)) + ("E1", "E2"))
    return tiny_store(d_w=8, n_relations=53, vocab=vocab)


def pr_curve_reference(decisions) -> list[tuple[float, float]]:
    """Sort-and-walk PR staircase over (score, gold) records, in plain Python.

    Decisions with equal scores advance the curve as one group; zero gold
    positives raise `EvaluationError`, as `pr_curve` does.
    """
    ordered = sorted(zip(decisions["score"].tolist(),
                         decisions["gold"].tolist()), key=lambda d: -d[0])
    positives = sum(gold for _, gold in ordered)
    if positives == 0:
        raise EvaluationError("zero gold positives: cannot build a PR curve")
    curve: list[tuple[float, float]] = []
    tp = k = i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            tp += ordered[j][1]
            k += 1
            j += 1
        curve.append((tp / positives, tp / k))
        i = j
    return curve


def precision_at_reference(curve, recalls=(0.1, 0.2, 0.3, 0.4)) -> dict:
    """First curve point whose recall reaches each target, by linear scan."""
    return {target: next((p for r, p in curve if r >= target), None)
            for target in recalls}


def auc_reference(curve) -> float:
    """Trapezoids from recall 0 (at the first precision), added one by one."""
    points = [(0.0, curve[0][1])] + list(curve)
    area = 0.0
    for (r0, p0), (r1, p1) in zip(points, points[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area


def assign_all_reference(relations, pairs, store: EmbeddingStore,
                         direction: str = "e2-e1") -> list[dict]:
    """Greedy relation -> pair assignment as three steps per relation: each
    remaining pair's entity difference is computed again, the nearest (L2)
    to the relation embedding wins with ties to the first, and the winner
    is removed by value. Pairs with a missing entity embedding are skipped;
    a relation that finds no pair gets `pair: None`."""
    def difference(pair):
        v1, v2 = store.entity_vec(pair[0]), store.entity_vec(pair[1])
        if v1 is None or v2 is None:
            return None
        return v2 - v1 if direction == "e2-e1" else v1 - v2

    remaining = list(pairs)
    out = []
    for rel, score in relations:
        best_pair, best_dist = None, np.inf
        for pair in remaining:
            delta = difference(pair)
            if delta is None:
                continue
            dist = float(np.linalg.norm(delta - store.relation[rel]))
            if dist < best_dist:
                best_pair, best_dist = pair, dist
        if best_pair is not None:
            remaining.remove(best_pair)
        out.append({"id": rel, "score": score,
                    "pair": None if best_pair is None else list(best_pair)})
    return out


def write_json_checkpoint(path, model: Model) -> None:
    """Write `model` in the JSON checkpoint format of earlier versions, which
    `load_checkpoint` no longer reads."""
    state = {"version": 1,
             "config": dataclasses.asdict(model.config),
             "relation_names": model.store.relation_names,
             "dropout_rng_state": model.dropout_rng.bit_generator.state,
             "params": {name: {"shape": list(p.shape),
                               "data": p.data.reshape(-1).tolist()}
                        for name, p in model.params.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh, sort_keys=True)


def train_epoch_reference(model: Model, bags, optimizer, config: TrainConfig,
                          epoch: int) -> EpochStats:
    """The batch-wide tape: every bag's graph stays alive until one backward
    of the batch's mean loss. `train_epoch` must match it bit for bit."""
    losses: list[float] = []
    hist: dict[int, int] = {}
    for batch in batch_iter(bags, config.batch_size, seed=config.seed + epoch):
        bag_losses = []
        for bag in batch:
            idx = select_instance(model, bag)
            hist[idx] = hist.get(idx, 0) + 1
            a = model.activations(bag.instances[idx], train=True)
            total, _ = margin_loss(a, label_vector(bag.labels, model.E))
            if not np.isfinite(total.data):
                raise NonFiniteError(
                    f"non-finite loss for bag {bag.key!r} in epoch {epoch}")
            bag_losses.append(total.reshape((1,)))
        batch_loss = concat(bag_losses, axis=0).sum() * (1.0 / len(bag_losses))
        optimizer.zero_grad()
        batch_loss.backward()
        optimizer.step()
        losses.append(batch_loss.item())
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return EpochStats(epoch=epoch, mean_loss=mean_loss, selection_histogram=hist)
