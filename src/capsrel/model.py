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


class Model:
    """All learned parameters plus the forward pass to relation activations."""

    def __init__(self, config: TrainConfig, store: EmbeddingStore):
        config.validate()
        self.config = config
        self.store = store
        self.E = store.relation.shape[0]
        self.d_w = store.word.shape[1]
        self.V = self.d_w + config.d_p * config.M
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, Tensor] = {}
        self._init_params(rng)
        self.dropout_rng = np.random.default_rng(config.seed + 1)

    def _param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True, name=name)
        self.params[name] = t
        return t

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        B, V, E, d, C = cfg.B, self.V, self.E, cfg.d, cfg.C
        self._param("word_emb", self.store.word.copy())
        buckets = num_position_buckets(cfg.L)
        for m in range(cfg.M):
            self._param(f"pos_emb_{m}",
                        encoder.glorot_uniform(rng, buckets, cfg.d_p,
                                               (buckets, cfg.d_p)))
        for direction in ("fwd", "bwd"):
            self._param(f"lstm_{direction}_Wx",
                        encoder.glorot_uniform(rng, V, 4 * B, (V, 4 * B)))
            self._param(f"lstm_{direction}_Wh",
                        encoder.glorot_uniform(rng, B, 4 * B, (B, 4 * B)))
            self._param(f"lstm_{direction}_b", np.zeros(4 * B))
        if cfg.word_att:
            self._param("att_A",
                        encoder.glorot_uniform(rng, 2 * B, 2 * B, (2 * B, 2 * B)))
            self._param("att_r",
                        encoder.glorot_uniform(rng, 2 * B, 1, (2 * B,)))
        if cfg.capsule:
            self._param("caps_Wb",
                        encoder.glorot_uniform(rng, 4 * B, d, (C * d, 4 * B)))
            self._param("caps_b1", np.zeros(C * d))
            self._param("caps_Wc",
                        encoder.glorot_uniform(rng, d, d, (E, d, d)))
            self._param("caps_bhat", np.zeros((E, d)))
        else:
            self._param("head_W",
                        encoder.glorot_uniform(rng, 2 * B, E, (2 * B, E)))
            self._param("head_b", np.zeros(E))

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

    # -- checkpoints ----------------------------------------------------------

    def state_dict(self) -> dict:
        """The checkpoint's fields; `params` maps names to the live arrays."""
        return {
            "version": CHECKPOINT_VERSION,
            "config": dataclasses.asdict(self.config),
            "relation_names": self.store.relation_names,
            "params": {name: p.data for name, p in self.params.items()},
            "dropout_rng_state": self.dropout_rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Check `state` against this model and copy its arrays in."""
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ContractViolation(
                f"unsupported checkpoint version {version!r}; "
                f"expected {CHECKPOINT_VERSION}")
        if state.get("relation_names") != self.store.relation_names:
            raise ContractViolation(
                f"checkpoint relations {state.get('relation_names')} differ "
                f"from the embedding store's {self.store.relation_names}")
        missing = sorted(set(self.params) - set(state["params"]))
        if missing:
            raise ContractViolation(
                f"checkpoint lacks parameters: {', '.join(missing)}")
        for name, data in state["params"].items():
            if name not in self.params:
                raise ContractViolation(f"unknown parameter {name!r} in checkpoint")
            if data.shape != self.params[name].shape:
                raise ContractViolation(
                    f"checkpoint shape {data.shape} does not match parameter "
                    f"{name!r} shape {self.params[name].shape}")
        for name, data in state["params"].items():
            np.copyto(self.params[name].data, data)
        rng_state = state.get("dropout_rng_state")
        if rng_state is not None:
            try:
                self.dropout_rng.bit_generator.state = rng_state
            except (TypeError, ValueError, KeyError) as exc:
                raise ContractViolation(
                    f"invalid dropout_rng_state: {exc}") from exc


# Checkpoint container: MAGIC, the header length as a little-endian u64,
# the UTF-8 JSON header, zero padding to a multiple of 8 bytes, then each
# parameter's C-order little-endian float64 bytes in sorted-name order.
# The header holds every state_dict field except `params`, which becomes a
# table of {name, shape, offset}; offsets count from the end of the padding.
MAGIC = b"CAPSREL1"
_PREFIX = struct.Struct("<8sQ")
_DTYPE = np.dtype("<f8")


def _padding(header_len: int) -> int:
    return -(_PREFIX.size + header_len) % 8


def save_checkpoint(path: str, model: Model, extra: dict | None = None) -> None:
    """Write a binary checkpoint atomically; equal models give equal bytes."""
    state = model.state_dict()
    arrays = state.pop("params")
    table, offset = [], 0
    for name in sorted(arrays):
        table.append({"name": name, "shape": list(arrays[name].shape),
                      "offset": offset})
        offset += arrays[name].size * _DTYPE.itemsize
    header = json.dumps(dict(state, extra=extra, params=table),
                        sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, len(header)))
        fh.write(header)
        fh.write(bytes(_padding(len(header))))
        for name in sorted(arrays):
            fh.write(np.ascontiguousarray(arrays[name], dtype=_DTYPE))
    os.replace(tmp, path)


def load_checkpoint(path: str, store: EmbeddingStore) -> Model:
    """Read a checkpoint written by `save_checkpoint` into a new model.

    Every way the file can be malformed raises `ContractViolation` naming
    `path` and the offending field.
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
        arrays = _read_params(fh, path, header.get("params"),
                              size - data_start)
    try:
        model = Model(TrainConfig.from_dict(header.get("config")), store)
        model.load_state_dict(dict(header, params=arrays))
    except (ConfigError, ContractViolation) as exc:
        raise ContractViolation(f"{path}: {exc}") from exc
    return model


def _malformed(path: str, field: str, problem: str) -> ContractViolation:
    return ContractViolation(f"{path}: {field} {problem}")


def _read_params(fh, path: str, table, data_bytes: int
                 ) -> dict[str, np.ndarray]:
    """Read each table entry straight into its own array, checking that the
    entries are sorted, well formed, contiguous and cover the data exactly."""
    if not isinstance(table, list):
        raise _malformed(path, "params", "is not a list")
    arrays: dict[str, np.ndarray] = {}
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
        try:
            data = np.empty(shape, dtype=_DTYPE)
        except ValueError as exc:
            raise _malformed(path, f"{field}.shape", str(exc)) from exc
        if fh.readinto(data) != data.nbytes:
            raise _malformed(path, field, "is cut off")
        arrays[name] = data
        last = name
    if end != data_bytes:
        raise _malformed(path, "params", (
            f"cover {end} bytes of a {data_bytes}-byte data section"))
    return arrays
