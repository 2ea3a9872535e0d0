"""Model assembly: parameters, per-instance forward pass, checkpoints.

The full pipeline is embeddings -> Bi-LSTM -> word attention -> primary
capsules -> votes -> dynamic routing, yielding one activation per
relation. Ablation switches replace attention with the identity and the
capsule stack with a sigmoid dense head over the mean-pooled sequence.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from . import capsule as caps
from . import encoder
from .autodiff import ContractViolation, Tensor, dropout, no_grad
from .config import ConfigError, TrainConfig
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
        config.validate()
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

    # -- forward --------------------------------------------------------------

    def word_ids(self, inst: SentenceInstance) -> np.ndarray:
        return np.asarray([self.store.word_id(t) for t in inst.tokens],
                          dtype=np.int64)

    def encode(self, inst: SentenceInstance, train: bool = False
               ) -> tuple[Tensor, int]:
        """Attention-weighted hidden sequence x_tilde (n x 2B) of the n-token
        sentence, and n."""
        cfg = self.config
        p = self.params
        ids = self.word_ids(inst)
        if len(ids) == 0:
            raise ContractViolation("cannot encode an empty sentence")
        X = encoder.embed(ids, inst.position_ids, p["word_emb"],
                          [p[f"pos_emb_{m}"] for m in range(cfg.M)])
        H = encoder.bilstm(
            X, (p["lstm_fwd_Wx"], p["lstm_fwd_Wh"], p["lstm_fwd_b"]),
            (p["lstm_bwd_Wx"], p["lstm_bwd_Wh"], p["lstm_bwd_b"]))
        H = dropout(H, cfg.dropout, self.dropout_rng, training=train)
        if cfg.word_att:
            x_tilde, _ = encoder.word_attention(H, p["att_A"], p["att_r"])
        else:
            x_tilde = H
        return x_tilde, len(ids)

    def activations(self, inst: SentenceInstance, train: bool = False) -> Tensor:
        """Per-relation activations a in [0, 1), length E."""
        cfg = self.config
        p = self.params
        x_tilde, n = self.encode(inst, train=train)
        if cfg.capsule:
            u, a_hat = caps.primary_capsules(x_tilde, p["caps_Wb"],
                                             p["caps_b1"], cfg.C, cfg.d)
            u_hat = caps.votes(u, p["caps_Wc"], p["caps_bhat"])
            _, a = caps.dynamic_routing(u_hat, a_hat, cfg.routing_iters)
            return a
        pooled = x_tilde.sum(axis=0) * (1.0 / n)
        return (pooled @ p["head_W"] + p["head_b"]).sigmoid()

    def instance_scores(self, bag) -> np.ndarray:
        """Eval-mode activations of each of the bag's instances, N x E."""
        with no_grad():
            return np.stack([self.activations(inst, train=False).data
                             for inst in bag.instances])

    def bag_scores(self, bag) -> np.ndarray:
        """Eval-mode per-relation score: max over the bag's instances."""
        return self.instance_scores(bag).max(axis=0)


# Checkpoint container: MAGIC, the header length as a little-endian u64,
# the UTF-8 JSON header, zero padding to a multiple of 8 bytes, then each
# parameter's C-order little-endian float64 bytes in the order of the
# `params` table. The header holds exactly the keys of HEADER_KEYS;
# `params` is the table `checkpoint_layout` gives.
MAGIC = b"CAPSREL1"
HEADER_KEYS = frozenset({"version", "config", "relation_names",
                         "dropout_rng_state", "extra", "params"})
_PREFIX = struct.Struct("<8sQ")
_DTYPE = np.dtype("<f8")


def checkpoint_layout(config: TrainConfig, store: EmbeddingStore
                      ) -> tuple[list[dict], int]:
    """The `params` table of a checkpoint of this model, and the size of
    its data section: a {name, shape, offset} entry per `param_table`
    parameter, sorted by name, each buffer right after the one before."""
    table, offset = [], 0
    for name, shape, _ in sorted(param_table(config, store),
                                 key=lambda entry: entry[0]):
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape) * _DTYPE.itemsize
    return table, offset


def _padding(header_len: int) -> int:
    return -(_PREFIX.size + header_len) % 8


def save_checkpoint(path: str, model: Model, extra: dict | None = None) -> None:
    """Write a binary checkpoint atomically; equal models give equal bytes."""
    table, _ = checkpoint_layout(model.config, model.store)
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(model.config),
        "relation_names": model.store.relation_names,
        "dropout_rng_state": model.dropout_rng.bit_generator.state,
        "extra": extra,
        "params": table,
    }, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, len(header)))
        fh.write(header)
        fh.write(bytes(_padding(len(header))))
        for entry in table:
            fh.write(np.ascontiguousarray(model.params[entry["name"]].data,
                                          dtype=_DTYPE))
    os.replace(tmp, path)


def load_checkpoint(path: str, store: EmbeddingStore) -> Model:
    """Read a checkpoint written by `save_checkpoint` into a new model.

    The header's `config` must name every `TrainConfig` field, and its
    `version`, `relation_names` and `params` must equal, type for type,
    what `save_checkpoint` writes for that config and `store`
    before anything is allocated; each buffer is then read straight into
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
            table, data_bytes = checkpoint_layout(config, store)
            _check_header(header, table, store)
        except (ConfigError, ContractViolation) as exc:
            raise ContractViolation(f"{path}: {exc}") from exc
        if size - data_start != data_bytes:
            raise _malformed(path, "params", (
                f"cover {data_bytes} bytes of a {size - data_start}-byte "
                "data section"))
        arrays = {entry["name"]: np.empty(entry["shape"], dtype=_DTYPE)
                  for entry in table}
        for data in arrays.values():
            fh.readinto(data)
    model = Model(config, store, arrays)
    try:
        model.dropout_rng.bit_generator.state = header["dropout_rng_state"]
    except (TypeError, ValueError, KeyError) as exc:
        raise ContractViolation(
            f"{path}: invalid dropout_rng_state: {exc}") from exc
    return model


def _malformed(path: str, field: str, problem: str) -> ContractViolation:
    return ContractViolation(f"{path}: {field} {problem}")


def _same(a, b) -> bool:
    """Equal JSON values of equal types: 1.0, true and 1 all differ."""
    return json.dumps(a) == json.dumps(b)


def _check_header(header: dict, table: list[dict],
                  store: EmbeddingStore) -> None:
    """Raise at the first field where the header's version, relation order
    or `params` differ from what `save_checkpoint` writes."""
    if not _same(header["version"], CHECKPOINT_VERSION):
        raise ContractViolation(
            f"unsupported checkpoint version {header['version']!r}; "
            f"expected {CHECKPOINT_VERSION}")
    if not _same(header["relation_names"], store.relation_names):
        raise ContractViolation(
            f"checkpoint relation_names {header['relation_names']} "
            f"differ from the embedding store's {store.relation_names}")
    entries = header["params"]
    if not isinstance(entries, list):
        raise ContractViolation("params is not a list")
    names = [want["name"] for want in table]
    found = [entry.get("name") for entry in entries if isinstance(entry, dict)]
    missing = [name for name in names if name not in found]
    if missing:
        raise ContractViolation(
            f"checkpoint lacks parameters: {', '.join(missing)}")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict)
                and entry.keys() == {"name", "shape", "offset"}):
            raise ContractViolation(
                f"params[{i}] is not an object of name, shape and offset")
        name = entry["name"]
        if name not in names:
            raise ContractViolation(f"unknown parameter {name!r} in checkpoint")
        if i >= len(table) or not _same(name, table[i]["name"]):
            raise ContractViolation(
                f"params[{i}].name {name!r} is out of place: the table lists "
                "each parameter once, sorted by name")
        if not _same(entry["shape"], table[i]["shape"]):
            raise ContractViolation(
                f"checkpoint shape {entry['shape']} does not match parameter "
                f"{name!r} shape {table[i]['shape']}")
        if not _same(entry["offset"], table[i]["offset"]):
            raise ContractViolation(
                f"params[{i}].offset is {entry['offset']!r}; the previous "
                f"parameter ends at {table[i]['offset']}")
