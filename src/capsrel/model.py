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
        table += [("caps_Wb", (C * d, 4 * B), (4 * B, d)),
                  ("caps_b1", (C * d,), ZEROS),
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
        self.d_w = store.word.shape[1]
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
            self.params[name] = Tensor(data, requires_grad=True, name=name)
        self.dropout_rng = np.random.default_rng(config.seed + 1)

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- forward --------------------------------------------------------------

    def word_ids(self, inst: SentenceInstance) -> np.ndarray:
        return np.asarray([self.store.word_id(t) for t in inst.tokens],
                          dtype=np.int64)

    def encode(self, inst: SentenceInstance, train: bool = False
               ) -> tuple[Tensor, np.ndarray]:
        """Attention-weighted hidden sequence x_tilde (L x 2B) and mask."""
        cfg = self.config
        p = self.params
        X, mask = encoder.embed(
            self.word_ids(inst), inst.position_ids, p["word_emb"],
            [p[f"pos_emb_{m}"] for m in range(cfg.M)])
        if not mask.any():
            raise ContractViolation("cannot encode an empty sentence")
        H = encoder.bilstm(
            X, mask,
            (p["lstm_fwd_Wx"], p["lstm_fwd_Wh"], p["lstm_fwd_b"]),
            (p["lstm_bwd_Wx"], p["lstm_bwd_Wh"], p["lstm_bwd_b"]))
        H = dropout(H, cfg.dropout, self.dropout_rng, training=train)
        if cfg.word_att:
            x_tilde, _ = encoder.word_attention(H, p["att_A"], p["att_r"], mask)
        else:
            x_tilde = H
        return x_tilde, mask

    def activations(self, inst: SentenceInstance, train: bool = False) -> Tensor:
        """Per-relation activations a in [0, 1), length E."""
        cfg = self.config
        p = self.params
        x_tilde, mask = self.encode(inst, train=train)
        if cfg.capsule:
            u, a_hat = caps.primary_capsules(x_tilde, p["caps_Wb"],
                                             p["caps_b1"], cfg.C, cfg.d)
            u_hat = caps.votes(u, p["caps_Wc"], p["caps_bhat"])
            _, a = caps.dynamic_routing(u_hat, a_hat, cfg.routing_iters)
            return a
        pooled = x_tilde.sum(axis=0) * (1.0 / int(mask.sum()))
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
# parameter's C-order little-endian float64 bytes in sorted-name order.
# The header holds `version`, `config`, `relation_names`,
# `dropout_rng_state`, `extra` and `params`, a table of {name, shape,
# offset}; offsets count from the end of the padding.
MAGIC = b"CAPSREL1"
_PREFIX = struct.Struct("<8sQ")
_DTYPE = np.dtype("<f8")


def _padding(header_len: int) -> int:
    return -(_PREFIX.size + header_len) % 8


def save_checkpoint(path: str, model: Model, extra: dict | None = None) -> None:
    """Write a binary checkpoint atomically; equal models give equal bytes."""
    names = sorted(model.params)
    table, offset = [], 0
    for name in names:
        p = model.params[name]
        table.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += p.size * _DTYPE.itemsize
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
        for name in names:
            fh.write(np.ascontiguousarray(model.params[name].data,
                                          dtype=_DTYPE))
    os.replace(tmp, path)


def load_checkpoint(path: str, store: EmbeddingStore) -> Model:
    """Read a checkpoint written by `save_checkpoint` into a new model.

    The file's parameter table is checked against `param_table` before
    anything is allocated; each buffer is then read straight into the
    array the model keeps, so loading draws nothing. Every way the file
    can be malformed raises `ContractViolation` naming `path` and the
    offending field.
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
        entries = _parse_table(path, header.get("params"), size - data_start)
        try:
            config = TrainConfig.from_dict(header.get("config"))
            _check_against_model(header, entries, config, store)
        except (ConfigError, ContractViolation) as exc:
            raise ContractViolation(f"{path}: {exc}") from exc
        arrays: dict[str, np.ndarray] = {}
        for i, (name, shape) in enumerate(entries):
            data = arrays[name] = np.empty(shape, dtype=_DTYPE)
            if fh.readinto(data) != data.nbytes:
                raise _malformed(path, f"params[{i}]", "is cut off")
    model = Model(config, store, arrays)
    rng_state = header.get("dropout_rng_state")
    if rng_state is not None:
        try:
            model.dropout_rng.bit_generator.state = rng_state
        except (TypeError, ValueError, KeyError) as exc:
            raise ContractViolation(
                f"{path}: invalid dropout_rng_state: {exc}") from exc
    return model


def _malformed(path: str, field: str, problem: str) -> ContractViolation:
    return ContractViolation(f"{path}: {field} {problem}")


def _parse_table(path: str, table, data_bytes: int
                ) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each entry, checking that the entries are sorted,
    well formed, contiguous and cover the data exactly."""
    if not isinstance(table, list):
        raise _malformed(path, "params", "is not a list")
    entries: list[tuple[str, tuple[int, ...]]] = []
    end, last = 0, ""
    for i, entry in enumerate(table):
        field = f"params[{i}]"
        if not (isinstance(entry, dict)
                and set(entry) == {"name", "shape", "offset"}):
            raise _malformed(path, field,
                             "is not an object of name, shape and offset")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if not isinstance(name, str) or name <= last:
            raise _malformed(path, f"{field}.name",
                             f"{name!r} does not sort after {last!r}")
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise _malformed(path, f"{field}.shape",
                             f"{shape!r} is not a list of non-negative ints")
        if type(offset) is not int or offset != end:
            raise _malformed(path, f"{field}.offset", (
                f"is {offset!r}; the previous parameter ends at {end}"))
        end += math.prod(shape) * _DTYPE.itemsize
        if end > data_bytes:
            raise _malformed(path, f"{field}.shape", (
                f"{shape} ends at byte {end} of a {data_bytes}-byte data "
                "section"))
        entries.append((name, tuple(shape)))
        last = name
    if end != data_bytes:
        raise _malformed(path, "params", (
            f"cover {end} bytes of a {data_bytes}-byte data section"))
    return entries


def _check_against_model(header: dict, entries, config: TrainConfig,
                         store: EmbeddingStore) -> None:
    """Check the header's version, relation order and parameter table
    against the model that `config` and `store` describe."""
    version = header.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ContractViolation(
            f"unsupported checkpoint version {version!r}; "
            f"expected {CHECKPOINT_VERSION}")
    if header.get("relation_names") != store.relation_names:
        raise ContractViolation(
            f"checkpoint relation_names {header.get('relation_names')} "
            f"differ from the embedding store's {store.relation_names}")
    expected = {name: shape for name, shape, _ in param_table(config, store)}
    missing = sorted(set(expected) - {name for name, _ in entries})
    if missing:
        raise ContractViolation(
            f"checkpoint lacks parameters: {', '.join(missing)}")
    for name, shape in entries:
        if name not in expected:
            raise ContractViolation(f"unknown parameter {name!r} in checkpoint")
        if shape != expected[name]:
            raise ContractViolation(
                f"checkpoint shape {shape} does not match parameter "
                f"{name!r} shape {expected[name]}")
