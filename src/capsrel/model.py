"""Model assembly: parameters, the forward pass, checkpoints.

The full pipeline is embeddings -> Bi-LSTM -> word attention -> primary
capsules -> votes -> dynamic routing, yielding one activation per
relation. The votes stay factored as (u, Wc, b_hat), and routing
contracts the factors, so no E x d x H vote tensor is built. Ablation
switches replace attention with the identity and the capsule stack with
a sigmoid dense head (one tape node) over the mean-pooled sequence.
`Model.activations` is the one forward: it takes a list of N sentences,
packs their rows one after another, passes their lengths to every layer
that splits rows into sentences, and returns N x E. Eval, predict and
selection score bags through one no-grad entry, `Model.scores`, one call
per bag; training calls `activations` on the selected sentence alone,
inside `handover`, and adopts the Bi-LSTM runs selection computed for it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct

import numpy as np

from . import capsule as caps
from . import encoder
from .autodiff import ContractViolation, Tensor, dropout, no_grad
from .config import ConfigError, TrainConfig, atomic_write
from .data import EmbeddingStore, SentenceInstance, num_position_buckets

CHECKPOINT_VERSION = 1


# A parameter's init is a (fan_in, fan_out) Glorot-uniform draw from the
# model's seeded generator, ZEROS, or WORD: a copy of the store's word table.
ZEROS, WORD = "zeros", "word"


def param_table(config: TrainConfig, store: EmbeddingStore
                ) -> list[tuple[str, tuple[int, ...], object]]:
    """(name, shape, init) of every parameter, in the order of the draws."""
    B, d, C, d_p = config.B, config.d, config.C, config.d_p
    E = store.relation.shape[0]
    V = store.word.shape[1] + d_p * config.M
    buckets = num_position_buckets(config.L)
    table = [("word_emb", store.word.shape, WORD)]
    table += [(f"pos_emb_{m}", (buckets, d_p), (buckets, d_p))
              for m in range(config.M)]
    for direction in ("fwd", "bwd"):
        table += [(f"lstm_{direction}_Wx", (V, 4 * B), (V, 4 * B)),
                  (f"lstm_{direction}_Wh", (B, 4 * B), (B, 4 * B)),
                  (f"lstm_{direction}_b", (4 * B,), ZEROS)]
    if config.word_att:
        table += [("att_A", (2 * B, 2 * B), (2 * B, 2 * B)),
                  ("att_r", (2 * B,), (2 * B, 1))]
    if config.capsule:
        # caps_b1's fan sum 8d gives std 0.5/sqrt(d): each child capsule
        # starts at a norm of about 0.5, in the squash's working range. From
        # zeros, attention (~1/L per row) and the two squashes (~2n^2 at
        # small n) start a paper-shape model at activations of 1e-13 to
        # 1e-20, with gradients far below Adam's eps.
        table += [("caps_Wb", (C * d, 4 * B), (4 * B, d)),
                  ("caps_b1", (C * d,), (4 * d, 4 * d)),
                  ("caps_Wc", (E, d, d), (d, d)),
                  ("caps_bhat", (E, d), ZEROS)]
    else:
        table += [("head_W", (2 * B, E), (2 * B, E)),
                  ("head_b", (E,), ZEROS)]
    return table


class Model:
    """All learned parameters plus the forward pass to relation activations."""

    def __init__(self, config: TrainConfig, store: EmbeddingStore,
                 arrays: dict[str, np.ndarray] | None = None):
        """Draw the parameters of `param_table`, or adopt `arrays` as they
        are: `load_checkpoint` passes them, already checked against it."""
        self.config = config
        self.store = store
        self.E = store.relation.shape[0]
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, Tensor] = {}
        for name, shape, init in param_table(config, store):
            if arrays is not None:
                data = arrays[name]
            elif init == WORD:
                data = store.word.copy()
            elif init == ZEROS:
                data = np.zeros(shape)
            else:
                data = encoder.glorot_uniform(rng, *init, shape)
            self.params[name] = Tensor(data, requires_grad=True)
        self.dropout_rng = np.random.default_rng(config.seed + 1)
        self._kept = None       # see `handover`

    # -- forward --------------------------------------------------------------

    def encode(self, insts: list[SentenceInstance], train: bool
               ) -> tuple[Tensor, list[int]]:
        """Attention-weighted hidden rows x_tilde of the sentences `insts`,
        packed one after another (sum of n_i rows of width 2B), and the
        token count n_i of each."""
        ids = [np.asarray([self.store.word_id(t) for t in inst.tokens],
                          dtype=np.int64) for inst in insts]
        lengths = [len(i) for i in ids]
        if 0 in lengths:
            raise ContractViolation("cannot encode an empty sentence")
        cfg = self.config
        p = self.params
        X = encoder.embed(
            np.concatenate(ids),
            np.concatenate([inst.position_ids for inst in insts]),
            p["word_emb"], [p[f"pos_emb_{m}"] for m in range(cfg.M)])
        H = encoder.bilstm(
            X, (p["lstm_fwd_Wx"], p["lstm_fwd_Wh"], p["lstm_fwd_b"]),
            (p["lstm_bwd_Wx"], p["lstm_bwd_Wh"], p["lstm_bwd_b"]), lengths,
            self._runs(insts, lengths, train))
        H = dropout(H, cfg.dropout, self.dropout_rng, training=train)
        if cfg.word_att:
            H, _ = encoder.word_attention(H, p["att_A"], p["att_r"], lengths)
        return H, lengths

    @contextlib.contextmanager
    def handover(self):
        """Scope one bag's selection and train step: the no-grad pass keeps
        its sentences' Bi-LSTM runs, and a train-mode call on one of them
        alone adopts its part; that call drops the rest, the exit all."""
        self._kept = (), (), ()        # the sentences, lengths, runs kept
        try:
            yield
        finally:
            self._kept = None

    def _runs(self, insts: list[SentenceInstance], lengths, train: bool):
        """`bilstm`'s `runs` inside `handover`: a list for an eval pass to
        keep its runs in, or the kept runs of a train pass's one sentence."""
        if self._kept is None:
            return None
        if not train:
            self._kept = insts, lengths, []
            return self._kept[2]
        (scored, kept_lengths, runs), self._kept = self._kept, ((), (), ())
        for k, inst in enumerate(scored if len(insts) == 1 else ()):
            if inst is insts[0]:
                return encoder.sentence_runs(runs, kept_lengths, k)
        return None

    def activations(self, insts: list[SentenceInstance], train: bool = False
                    ) -> Tensor:
        """Per-relation activations in [0, 1) of the N sentences `insts`,
        N x E, from one pass over their packed rows."""
        x_tilde, lengths = self.encode(insts, train)
        cfg = self.config
        p = self.params
        if not cfg.capsule:
            return _pooled_head(x_tilde, p["head_W"], p["head_b"], lengths)
        u, a_hat = caps.primary_capsules(x_tilde, p["caps_Wb"], p["caps_b1"],
                                         cfg.C, cfg.d, lengths)
        factors = caps.votes(u, p["caps_Wc"], p["caps_bhat"])
        return caps.dynamic_routing(factors, a_hat, cfg.routing_iters,
                                    [(n + 1) * cfg.C for n in lengths])[1]

    def scores(self, bags) -> list[np.ndarray]:
        """Eval-mode activations of each bag's N_i instances, N_i x E, in
        the order of `bags`: one no-grad `activations` pass per bag."""
        with no_grad():
            return [self.activations(bag.instances).data for bag in bags]

    def bag_scores(self, bag) -> np.ndarray:
        """Eval-mode per-relation score: max over the bag's instances."""
        return self.scores([bag])[0].max(axis=0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _pooled_head(x: Tensor, W: Tensor, b: Tensor, lengths) -> Tensor:
    """The -Capsule head, sigmoid(mean of each sentence's rows @ W + b), as
    one tape node: N x E for the sentences of `lengths`."""
    lengths = encoder.sentence_lengths(lengths, x.shape[0], "_pooled_head")
    scale = (1.0 / lengths)[:, None]
    pooled = np.stack([x.data[lo:hi].sum(axis=0) for lo, hi
                       in encoder.sentence_bounds(lengths)]) * scale
    a = _sigmoid(pooled @ W.data + b.data)

    def bw(g):
        dz = g * a * (1.0 - a)
        x._accumulate(np.repeat((dz @ W.data.T) * scale, lengths, axis=0))
        W._accumulate(pooled.T @ dz)
        b._accumulate(dz.sum(axis=0))
    return Tensor._from_op(a, (x, W, b), bw)


# Checkpoint container: MAGIC, the header length as a little-endian u64,
# the UTF-8 JSON header, zero padding to a multiple of 8 bytes, then each
# parameter's C-order little-endian float64 bytes in the order of the
# `params` table. The header holds exactly the keys of HEADER_KEYS. Of
# these, `checkpoint_layout` gives `version`, `relation_names`,
# `word_vocab_sha256` and `params`: save writes them, and load compares
# the file's with them.
MAGIC = b"CAPSREL1"
HEADER_KEYS = frozenset({"version", "config", "relation_names",
                         "word_vocab_sha256", "dropout_rng_state", "extra",
                         "params"})
_PREFIX = struct.Struct("<8sQ")
_DTYPE = np.dtype("<f8")


def checkpoint_layout(config: TrainConfig, store: EmbeddingStore
                      ) -> tuple[dict, int]:
    """The header fields that `config` and `store` fix, and the size of the
    data section. They are `version`, `relation_names`, `word_vocab_sha256`
    (the sha256 of the store's word tokens in id order, joined by newlines,
    so the word table's rows are read through the vocabulary they were
    trained with) and the `params` table: a {name, shape, offset} entry per
    `param_table` parameter, sorted by name, each buffer right after the
    one before."""
    table, offset = [], 0
    for name, shape, _ in sorted(param_table(config, store),
                                 key=lambda entry: entry[0]):
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape) * _DTYPE.itemsize
    words = "\n".join(sorted(store.word_vocab, key=store.word_vocab.get))
    return {"version": CHECKPOINT_VERSION,
            "relation_names": store.relation_names,
            "word_vocab_sha256": hashlib.sha256(
                words.encode("utf-8")).hexdigest(),
            "params": table}, offset


def _padding(header_len: int) -> int:
    return -(_PREFIX.size + header_len) % 8


def save_checkpoint(path: str, model: Model, extra: dict | None = None) -> None:
    """Write a binary checkpoint atomically; equal models give equal bytes."""
    fixed, _ = checkpoint_layout(model.config, model.store)
    header = json.dumps({
        **fixed,
        "config": dataclasses.asdict(model.config),
        "dropout_rng_state": model.dropout_rng.bit_generator.state,
        "extra": extra,
    }, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(_PREFIX.pack(MAGIC, len(header)))
        fh.write(header)
        fh.write(bytes(_padding(len(header))))
        for entry in fixed["params"]:
            fh.write(np.ascontiguousarray(model.params[entry["name"]].data,
                                          dtype=_DTYPE))


def load_checkpoint(path: str, store: EmbeddingStore) -> Model:
    """Read a checkpoint written by `save_checkpoint` into a new model.

    The header's `config` must name every `TrainConfig` field. Its
    `version`, `relation_names`, `word_vocab_sha256` and `params` must
    equal, type for type and whatever the key order of an object, the
    fields `checkpoint_layout` gives save for that config and `store`; the
    first difference is named.
    Only then is anything allocated, and each buffer is read straight into
    the array the model keeps. Every way the file can be malformed raises
    `ContractViolation` naming `path` and the offending field.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        magic = prefix[:len(MAGIC)]
        if magic != MAGIC:
            raise _malformed(path, "magic", (
                f"is {magic!r}, not {MAGIC!r}: not a binary capsrel "
                "checkpoint (JSON checkpoints are no longer read; retrain "
                "to write one)"))
        if len(prefix) < _PREFIX.size:
            raise _malformed(path, "header length",
                             f"is cut off: the file has {size} bytes")
        header_len = _PREFIX.unpack(prefix)[1]
        data_start = _PREFIX.size + header_len + _padding(header_len)
        if data_start > size:
            raise _malformed(path, "header length", (
                f"{header_len} runs past the end of the {size}-byte file"))
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:
            raise _malformed(path, "header",
                             f"is not UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise _malformed(path, "header", (
                f"is a JSON {type(header).__name__}, not an object"))
        if any(fh.read(_padding(header_len))):
            raise _malformed(path, "header padding", "is not zero bytes")
        if header.keys() != HEADER_KEYS:
            raise _malformed(path, "header", (
                f"lacks keys {sorted(HEADER_KEYS - header.keys())} and has "
                f"unknown keys {sorted(header.keys() - HEADER_KEYS)}"))
        try:
            config = TrainConfig.from_dict(header["config"])
            missing = [name for name in dataclasses.asdict(config)
                       if name not in header["config"]]
            if missing:
                raise ContractViolation(f"config lacks fields {missing}")
            fixed, data_bytes = checkpoint_layout(config, store)
        except (ConfigError, ContractViolation) as exc:
            raise ContractViolation(f"{path}: {exc}") from exc
        for key, expected in fixed.items():
            if not _same(header[key], expected):
                raise _malformed(path, *_first_difference(key, header[key],
                                                          expected))
        if size - data_start != data_bytes:
            raise _malformed(path, "params", (
                f"cover {data_bytes} bytes of a {size - data_start}-byte "
                "data section"))
        arrays = {entry["name"]: np.empty(entry["shape"], dtype=_DTYPE)
                  for entry in fixed["params"]}
        for data in arrays.values():
            fh.readinto(data)
    model = Model(config, store, arrays)
    state = header["dropout_rng_state"]
    try:
        model.dropout_rng.bit_generator.state = state
        # numpy truncates 1.5 and true to 1 and ignores extra keys
        if not _same(model.dropout_rng.bit_generator.state, state):
            raise ValueError("it does not read back as written")
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ContractViolation(
            f"{path}: invalid dropout_rng_state: {exc}") from exc
    return model


def _malformed(path: str, field: str, problem: str) -> ContractViolation:
    return ContractViolation(f"{path}: {field} {problem}")


def _same(a, b) -> bool:
    """Equal JSON values of equal types, whatever the key order of an
    object: 1.0, true and 1 all differ."""
    return _text(a) == _text(b)


def _text(value) -> str:
    return json.dumps(value, sort_keys=True)


def _first_difference(key: str, found, expected) -> tuple[str, str]:
    """(field, problem) where `found` differs from `expected`: for a
    `params` list, the first differing index or the end of the shorter."""
    if key != "params" or not isinstance(found, list):
        return key, f"is {_text(found)}, not {_text(expected)}"
    for i, (got, want) in enumerate(zip(found, expected)):
        if not _same(got, want):
            return f"{key}[{i}]", f"is {_text(got)}, not {_text(want)}"
    n = min(len(found), len(expected))
    if len(found) > n:
        return f"{key}[{n}]", f"is {_text(found[n])}, past the expected end"
    return key, f"ends at [{n}], where {_text(expected[n])} is expected"
