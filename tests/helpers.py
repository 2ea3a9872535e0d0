"""Shared test utilities: independent oracles and tiny fixture builders."""

from __future__ import annotations

import dataclasses
import functools
import json
import warnings

import numpy as np

from capsrel.autodiff import (NonFiniteError, ShapeError, Tensor, dropout,
                              grad_check)
from capsrel.capsule import _squash, capsule_length, squash
from capsrel.config import TrainConfig
from capsrel.data import (Bag, EmbeddingStore, SentenceInstance, batch_iter,
                          parse_record)
from capsrel.encoder import _activate_gates, softmax
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


def parent_sum_factored(factors, c: np.ndarray) -> np.ndarray:
    """sum_i c[j, i] u_hat[j, :, i] over the votes (x, W, b) stand for:
    W[j] (c[j] @ x) + b[j] sum_i c[j, i]; E x d, from E x H weights c."""
    x, W, b = factors
    return (W @ (c @ x)[:, :, None])[:, :, 0] + b * c.sum(axis=1)[:, None]


def agreement_factored(factors, v: np.ndarray) -> np.ndarray:
    """v[j] . u_hat[j, :, i] over the votes (x, W, b) stand for:
    (W[j]^T v[j]) . x[i] + v[j] . b[j]; E x H, from E x d vectors v."""
    x, W, b = factors
    return (v[:, None] @ W)[:, 0] @ x.T + (v * b).sum(axis=1, keepdims=True)


def route_per_iteration(factors, a: np.ndarray, iterations: int, keep: bool):
    """`capsule._route` as it ran before it routed in the contracted space:
    every iteration forms its E x H couplings, and the backward forms an
    agreement per iteration and a parent sum between iterations, with
    the same signature and `keep` convention. Kept only as an oracle.
    """
    b = np.zeros((len(factors[1]), len(a)))  # row j: parent j's logits
    # the first logits are all zero, so their softmax is exactly 1/E (exp(0)
    # = 1, summed to exactly E); the backward never differentiates it
    p, p_backward = np.full(b.shape, 1.0 / len(b)), None
    steps = []                      # per iteration: softmax and squash kernels
    for it in range(iterations):
        if it:
            b = b + agreement_factored(factors, v)
            p, p_backward = softmax(b)
        s = parent_sum_factored(factors, a * p)
        v, v_backward = _squash(s)
        if keep:
            steps.append((p, p_backward, v, v_backward))

    def backward(gs):
        x, W, _ = factors
        gx, gW, gb_hat, gb, ga = map(np.zeros_like, (*factors, b, a))
        for it in reversed(range(iterations)):
            p, p_backward = steps[it][:2]
            gc = agreement_factored(factors, gs)
            terms = [(gs, a * p)]
            ga += (gc * p).sum(axis=0)
            if it:          # b = b_prev + agreement(v_prev)
                gb = gb + p_backward(gc * a)
                _, _, v, v_backward = steps[it - 1]
                terms.append((v, gb))
                gs = v_backward(parent_sum_factored(factors, gb))
            for left, right in terms:       # left[j] right[j]^T per parent j
                gx += right.T @ (left[:, None] @ W)[:, 0]
                gW += left[:, :, None] * (right @ x)[:, None]
                gb_hat += left * right.sum(axis=1)[:, None]
        return gx, gW, gb_hat, ga
    return s, backward if keep else None


def relative_gap(x: np.ndarray, ref: np.ndarray) -> float:
    """max |x - ref| over the larger of the two max-abs values, floored at
    the smallest normal float: subnormals carry no relative precision."""
    scale = max(np.abs(ref).max(), np.abs(x).max(), np.finfo(np.float64).tiny)
    return float(np.abs(x - ref).max() / scale)


# -- a kit of generic tape ops -----------------------------------------------
#
# Each op is one `Tensor._from_op` node with numpy's broadcasting. The
# model's layers are single nodes with hand-written backwards; the oracles
# below rebuild the graphs those layers fuse from these ops, whose
# gradients come from their own backward rules.


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def op(data: np.ndarray, parents, *vjps) -> Tensor:
    """One tape node whose backward sends vjps[k](g) to parents[k]."""
    def bw(g):
        for parent, vjp in zip(parents, vjps):
            parent._accumulate(vjp(g))
    return Tensor._from_op(data, parents, bw)


def add(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return op(a.data + b.data, (a, b), lambda g: unbroadcast(g, a.shape),
              lambda g: unbroadcast(g, b.shape))


def mul(a, b) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    return op(a.data * b.data, (a, b),
              lambda g: unbroadcast(g * b.data, a.shape),
              lambda g: unbroadcast(g * a.data, b.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b on 1-D/2-D operands: a 1-D operand is one row on the left or
    one column on the right."""
    A = a.data.reshape(-1, a.shape[-1])
    B = b.data.reshape(b.shape[0], -1)

    def rows(g):
        return g.reshape(A.shape[0], B.shape[1])
    return op(a.data @ b.data, (a, b),
              lambda g: (rows(g) @ B.T).reshape(a.shape),
              lambda g: (A.T @ rows(g)).reshape(b.shape))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along `axis`; backward splits the gradient back apart."""
    tensors = [_tensor(t) for t in tensors]
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(base) or any(
                o != b for i, (o, b) in enumerate(zip(t.shape, base))
                if i != axis % len(base)):
            raise ShapeError(f"concat shapes do not conform: {base} vs {t.shape}")
    edges = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bw(g):
        for t, part in zip(tensors, np.split(g, edges, axis=axis)):
            t._accumulate(part)
    return Tensor._from_op(np.concatenate([t.data for t in tensors], axis=axis),
                           tensors, bw)


def reshape(a: Tensor, shape) -> Tensor:
    return op(a.data.reshape(shape), (a,), lambda g: g.reshape(a.shape))


def transpose(a: Tensor) -> Tensor:
    return op(a.data.T, (a,), lambda g: g.T)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    return op(a.data.sum(axis=axis), (a,),
              lambda g: np.broadcast_to(np.expand_dims(g, axis), a.shape))


def sigmoid(a: Tensor) -> Tensor:
    e = np.exp(-np.abs(a.data))     # exp only sees -|x|: it never overflows
    out = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return op(out, (a,), lambda g: g * out * (1.0 - out))


def take_rows(table: Tensor, ids) -> Tensor:
    """The rows of `table` at integer `ids`. Its backward scatter-adds into
    the table's gradient, once per read."""
    ids = np.asarray(ids, dtype=np.int64)

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)
    return Tensor._from_op(table.data[ids], (table,), bw)


def softmax_node(x: Tensor, axis: int) -> Tensor:
    """Softmax along `axis` as a tape node of its own, written apart from
    the kernel the model's nodes share."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    return op(p, (x,), lambda g: p * (g - (g * p).sum(axis=axis, keepdims=True)))


def stacked_matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over two equal 3-D stacks, slice by slice, as a tape node."""
    return op(a.data @ b.data, (a, b),
              lambda g: g @ np.swapaxes(b.data, 1, 2),
              lambda g: np.swapaxes(a.data, 1, 2) @ g)


# -- the composed graphs that the model's nodes fuse -------------------------


def embed_composed(word_ids, position_ids, word_emb: Tensor,
                   pos_embs: list[Tensor]) -> Tensor:
    """The graph `embed` fuses: a gather per table, then one concat."""
    cols = [take_rows(word_emb, word_ids)]
    cols += [take_rows(table, position_ids[:, m])
             for m, table in enumerate(pos_embs)]
    return concat(cols, axis=1)


def primary_capsules_composed(x_tilde: Tensor, Wb: Tensor, b1: Tensor,
                              C: int, d: int) -> tuple[Tensor, Tensor]:
    """The graph `primary_capsules` fuses: zero-padded 2-gram windows from
    concatenations, the filter product, the bias, and the squash nodes."""
    L, width = x_tilde.shape
    zero = Tensor(np.zeros((1, width)))
    windows = concat([concat([zero, x_tilde]), concat([x_tilde, zero])],
                     axis=1)
    s = reshape(add(matmul(windows, transpose(Wb)), b1), ((L + 1) * C, d))
    return squash(s), capsule_length(s)


def vote_factors(u_hat: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """The factors (I_H, u_hat, 0) that stand for the E x d x H votes
    u_hat, in the form `dynamic_routing` takes: u_hat[j, :, i] is
    u_hat[j] @ e_i + 0."""
    E, d, H = u_hat.shape
    return Tensor(np.eye(H)), u_hat, Tensor(np.zeros((E, d)))


def votes_composed(u: Tensor, Wc: Tensor, b_hat: Tensor) -> Tensor:
    """The graph `votes` fuses: Wc viewed as E*d x d times u^T, plus b_hat."""
    E, d, _ = Wc.shape
    u_hat = reshape(matmul(reshape(Wc, (E * d, d)), transpose(u)),
                    (E, d, u.shape[0]))
    return add(u_hat, reshape(b_hat, (E, d, 1)))


def pooled_head_composed(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """The graph the -Capsule head fuses: mean pool, dense layer, sigmoid."""
    pooled = mul(sum_axis(x, 0), 1.0 / x.shape[0])
    return sigmoid(add(matmul(pooled, W), b))


def word_attention_composed(H: Tensor, A: Tensor,
                            r: Tensor) -> tuple[Tensor, Tensor]:
    """The composed graph that `word_attention` fuses: scores, a softmax
    node over the positions, and the weighting, one tape op each."""
    alpha = softmax_node(matmul(H, matmul(A, r)), axis=0)
    return mul(reshape(alpha, (H.shape[0], 1)), H), alpha


def dynamic_routing_composed(u_hat: Tensor, a_hat: Tensor,
                             iterations: int) -> tuple[Tensor, Tensor]:
    """The composed graph that `dynamic_routing` fuses, unrolled on the tape:
    per iteration a stacked agreement update (from the second on), a
    softmax node, the couplings, a stacked parent sum and a squash node."""
    E, d, H = u_hat.shape
    b = Tensor(np.zeros((E, 1, H)))
    for it in range(iterations):
        if it:
            b = add(b, stacked_matmul(reshape(v, (E, 1, d)), u_hat))
        c = mul(a_hat, softmax_node(b, axis=0))
        s = reshape(stacked_matmul(u_hat, reshape(c, (E, H, 1))), (E, d))
        v = squash(s)
    return v, capsule_length(s)


def check_fused_node(fused, composed, arrays, requires, interior: int = 1,
                     central_differences: bool = True, tol: float = 0.0):
    """Check a fused layer against the composed graph it replaces.

    Both run on leaves of `arrays`, each requiring grad as `requires`
    says, and backpropagate one fixed random weighting of their outputs,
    with every warning raised as an error. Outputs must agree within
    `tol`, absolute and relative (bit-identical by default), every
    required gradient within the larger of `tol` and 1e-12 relative to
    its largest entry (and, where `tol` is given, elementwise within
    `tol` as the outputs are), and each other leaf must get no gradient.
    The fused call must record `interior` nodes between its outputs and
    its leaves, and pass `grad_check` on every required input unless
    `central_differences` is false: they cannot follow a saturated
    nonlinearity.
    """
    def run(fn, leaves):
        outs = fn(*leaves)
        return outs if isinstance(outs, tuple) else (outs,)

    def objective(outs):
        return functools.reduce(add, [(out * Tensor(w)).sum()
                                      for out, w in zip(outs, weights)])

    runs = []
    for fn in (fused, composed):
        leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = run(fn, leaves)
            if fn is fused:
                rng = np.random.default_rng(len(arrays))
                weights = [rng.normal(size=out.shape) for out in outs]
                assert tape_nodes(outs, leaves) == interior
            objective(outs).backward()
        runs.append((outs, leaves))
    (outs, leaves), (ref_outs, ref_leaves) = runs
    for out, ref in zip(outs, ref_outs):
        np.testing.assert_allclose(out.data, ref.data, rtol=tol, atol=tol)
    for k, (leaf, ref) in enumerate(zip(leaves, ref_leaves)):
        if requires[k]:
            assert relative_gap(leaf.grad, ref.grad) <= max(tol, 1e-12), k
            if tol:
                np.testing.assert_allclose(leaf.grad, ref.grad, rtol=tol,
                                           atol=tol, err_msg=str(k))
        else:
            assert leaf.grad is None and ref.grad is None, k

    for k in np.flatnonzero(requires) if central_differences else ():
        def f(t, k=k):
            args = [Tensor(a) for a in arrays]
            args[k] = t
            return objective(run(fused, args))
        assert grad_check(f, Tensor(arrays[k])) < 1e-6, k


def tape_nodes(outs, leaves=()) -> int:
    """Distinct nodes reachable from `outs` on the tape, `leaves` left out."""
    todo = list(outs) if isinstance(outs, (tuple, list)) else [outs]
    seen = {id(t) for t in todo} | {id(t) for t in leaves}
    count = len(todo)
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
                count += 1
    return count


def lstm_direction_reference(X: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor,
                             reverse: bool) -> Tensor:
    """One LSTM direction recorded step by step on the tape; L x B.

    The composed graph of one direction of the `bilstm` node, built from
    the kit's ops: tanh is 2 sigmoid(2x) - 1, rows and gates are read with
    `take_rows`, and the rows are joined with `concat`. Its gradients come
    from their backward rules.
    """
    def tanh(x):
        return add(mul(sigmoid(mul(x, 2.0)), 2.0), -1.0)

    L, B = X.shape[0], Wh.shape[0]
    XW = add(matmul(X, Wx), b)
    h = Tensor(np.zeros(B))
    c = Tensor(np.zeros(B))
    rows = [None] * L
    for t in (range(L - 1, -1, -1) if reverse else range(L)):
        z = reshape(add(take_rows(XW, t), matmul(h, Wh)), (4, B))
        i, f = sigmoid(take_rows(z, 0)), sigmoid(take_rows(z, 1))
        g, o = tanh(take_rows(z, 2)), sigmoid(take_rows(z, 3))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
        rows[t] = reshape(h, (1, B))
    return concat(rows, axis=0)


def lstm_single_product(X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray,
                        b: np.ndarray, schedule):
    """`encoder._lstm`'s step loop with one `h @ Wh` product per step, as
    it ran before the product was split into column blocks of `Wh`: the
    step-major run (gates, cells, states) over the `_schedule`."""
    rows, steps, _ = schedule
    N, T, B = steps[0][1], len(rows), Wh.shape[0]
    gates = X[rows] @ Wx
    gates += b
    hs, cs = np.zeros((T + 1, B)), np.zeros((T + 1, B))
    recurrent, ig = np.empty((N, 4 * B)), np.empty((N, B))
    c = np.zeros((N, B))
    for at, n in steps:
        z = gates[at:at + n]
        if at:
            np.matmul(h[:n], Wh, out=recurrent[:n])
            z += recurrent[:n]
        i, f, g, o = _activate_gates(z.reshape(n, 4, B)).transpose(1, 0, 2)
        np.multiply(f, c[:n], out=cs[at:at + n])
        c = cs[at:at + n]
        c += np.multiply(i, g, out=ig[:n])
        h = np.tanh(c, out=hs[at:at + n])
        h *= o
    return gates.reshape(T, 4, B), cs, hs


def bilstm_composed(X: Tensor, fwd, bwd) -> Tensor:
    """The graph `bilstm` fuses: the two per-step direction graphs, side by
    side."""
    return concat([lstm_direction_reference(X, *fwd, reverse=False),
                   lstm_direction_reference(X, *bwd, reverse=True)], axis=1)


def activations_composed(model: Model, inst: SentenceInstance,
                         train: bool = False) -> Tensor:
    """The whole model's forward for one sentence, wired from the composed
    oracles: the graph a row of `Model.activations` must match. It reads
    only `model.params`, `model.config`, the store's word ids and
    `model.dropout_rng`, which its dropout draws from as the model's
    does."""
    cfg, p = model.config, model.params
    ids = [model.store.word_id(t) for t in inst.tokens]
    X = embed_composed(ids, inst.position_ids, p["word_emb"],
                       [p[f"pos_emb_{m}"] for m in range(cfg.M)])
    H = bilstm_composed(
        X, (p["lstm_fwd_Wx"], p["lstm_fwd_Wh"], p["lstm_fwd_b"]),
        (p["lstm_bwd_Wx"], p["lstm_bwd_Wh"], p["lstm_bwd_b"]))
    H = dropout(H, cfg.dropout, model.dropout_rng, training=train)
    if cfg.word_att:
        H, _ = word_attention_composed(H, p["att_A"], p["att_r"])
    if not cfg.capsule:
        return pooled_head_composed(H, p["head_W"], p["head_b"])
    u, a_hat = primary_capsules_composed(H, p["caps_Wb"], p["caps_b1"],
                                         cfg.C, cfg.d)
    u_hat = votes_composed(u, p["caps_Wc"], p["caps_bhat"])
    return dynamic_routing_composed(u_hat, a_hat, cfg.routing_iters)[1]


def position_feature_reference(token_idx: int, entity_anchor: int | None,
                               L: int) -> int:
    """Scalar bucket rule: distance clamped to [-L, L] and shifted by L; a
    missing anchor takes the reserved bucket 2L + 2."""
    if entity_anchor is None:
        return 2 * L + 2
    return max(-L, min(L, token_idx - entity_anchor)) + L


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
    % len(lengths)]; the other tokens are fillers "w0".."w19"."""
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


def planted_trigger_store(d_w: int = 8) -> EmbeddingStore:
    """53 relations, as published, over the vocabulary of
    `planted_trigger_bags`, with `d_w`-dim word vectors."""
    vocab = (tuple(f"w{i}" for i in range(20))
             + tuple(f"t{r}" for r in range(1, 53)) + ("E1", "E2"))
    return tiny_store(d_w=d_w, n_relations=53, vocab=vocab)


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
    of the batch's mean loss. Each bag's train forward adopts the runs
    `select_instance` returns, as in `train_epoch`, which must match it
    bit for bit."""
    losses: list[float] = []
    hist: dict[int, int] = {}
    for batch in batch_iter(bags, config.batch_size, seed=config.seed + epoch):
        bag_losses = []
        for bag in batch:
            idx, runs = select_instance(model, bag)
            hist[idx] = hist.get(idx, 0) + 1
            a = model.activations([bag.instances[idx]], train=True, runs=runs)
            y = label_vector(bag.labels, model.E)[None]
            total, _ = margin_loss(a, y)
            if not np.isfinite(total.data):
                raise NonFiniteError(
                    f"non-finite loss for bag {bag.key!r} in epoch {epoch}")
            bag_losses.append(reshape(total, (1,)))
        batch_loss = concat(bag_losses, axis=0).sum() * (1.0 / len(bag_losses))
        optimizer.zero_grad()
        batch_loss.backward()
        optimizer.step()
        losses.append(batch_loss.item())
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return EpochStats(epoch=epoch, mean_loss=mean_loss, selection_histogram=hist)


def bag_top1_accuracy(model: Model, bags: list[Bag]) -> float:
    """Fraction of bags whose top-scoring relation is among the gold labels."""
    hits = 0
    for bag in bags:
        scores = model.scores([bag])[0]
        if int(scores.argmax()) in bag.labels:
            hits += 1
    return hits / len(bags) if bags else 0.0
