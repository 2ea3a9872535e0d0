"""Model assembly: parameters, per-instance forward pass, checkpoints.

The full pipeline is embeddings -> Bi-LSTM -> word attention -> primary
capsules -> votes -> dynamic routing, yielding one activation per
relation. Ablation switches replace attention with the identity and the
capsule stack with a sigmoid dense head over the mean-pooled sequence.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import capsule as caps
from . import encoder
from .autodiff import ContractViolation, Tensor, dropout, no_grad
from .config import TrainConfig
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
        import dataclasses
        return {
            "version": CHECKPOINT_VERSION,
            "config": dataclasses.asdict(self.config),
            "relation_names": self.store.relation_names,
            "params": {name: {"shape": list(p.shape),
                              "data": p.data.reshape(-1).tolist()}
                       for name, p in self.params.items()},
            "dropout_rng_state": _jsonable(self.dropout_rng.bit_generator.state),
        }

    def load_state_dict(self, state: dict) -> None:
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
        for name, rec in state["params"].items():
            if name not in self.params:
                raise ContractViolation(f"unknown parameter {name!r} in checkpoint")
            shape = tuple(rec["shape"])
            if shape != self.params[name].shape:
                raise ContractViolation(
                    f"checkpoint shape {shape} does not match parameter "
                    f"{name!r} shape {self.params[name].shape}")
            self.params[name].data = np.asarray(
                rec["data"], dtype=np.float64).reshape(shape)
        rng_state = state.get("dropout_rng_state")
        if rng_state is not None:
            self.dropout_rng.bit_generator.state = rng_state


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def save_checkpoint(path: str, model: Model, extra: dict | None = None) -> None:
    """Write a self-describing JSON checkpoint atomically."""
    state = model.state_dict()
    if extra:
        state["extra"] = extra
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, sort_keys=True)
    os.replace(tmp, path)


def load_checkpoint(path: str, store: EmbeddingStore) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        state = json.load(fh)
    config = TrainConfig(**state["config"])
    model = Model(config, store)
    model.load_state_dict(state)
    return model
