"""Run configuration with the published hyperparameter defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid or missing configuration field."""


# Accepted value types per annotated field type: a bool is not an int, and a
# float field takes an integer such as 0 too.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


@dataclass
class TrainConfig:
    """Model and training hyperparameters.

    Defaults: Adam lr 0.001, batch 128, LSTM unit size B=300, sentence
    limit L=120, position dim d_p=5, capsule dim d=8, C=32 capsules per
    window, dropout 0.5, 3 routing iterations.
    """

    lr: float = 0.001
    batch_size: int = 128
    B: int = 300
    L: int = 120
    d_p: int = 5
    d: int = 8
    C: int = 32
    dropout: float = 0.5
    routing_iters: int = 3
    epochs: int = 1
    seed: int = 0
    M: int = 2
    word_att: bool = True
    capsule: bool = True
    # TransE pair difference direction: "e2-e1" (default) or "e1-e2"
    pair_diff: str = "e2-e1"
    threshold: float = 0.7

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        """Build and validate from a JSON object, naming any unknown field."""
        if not isinstance(obj, dict):
            raise ConfigError(
                f"train config must be an object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown train config fields: {sorted(unknown)}")
        return cls(**obj).validate()

    def validate(self) -> "TrainConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) not in _FIELD_TYPES[f.type]:
                raise ConfigError(f"{f.name} must be {f.type}, got "
                                  f"{type(value).__name__} {value!r}")
        if self.M not in (2, 4):
            raise ConfigError(f"M must be 2 or 4, got {self.M}")
        if self.routing_iters < 1:
            raise ConfigError(f"routing_iters must be >= 1, got {self.routing_iters}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pair_diff not in ("e2-e1", "e1-e2"):
            raise ConfigError(f"pair_diff must be 'e2-e1' or 'e1-e2', "
                              f"got {self.pair_diff!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        return self


@dataclass
class RunConfig:
    """TrainConfig plus file paths; fully serializable for archived runs."""

    train: TrainConfig = field(default_factory=TrainConfig)
    corpus: str = ""
    word_embeddings: str = ""
    entity_embeddings: str = ""
    relation_embeddings: str = ""
    checkpoint: str = ""
    output_dir: str = "."

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """Build and validate from a JSON object, naming any bad field."""
        if not isinstance(obj, dict):
            raise ConfigError(
                f"run config must be an object, got {type(obj).__name__}")
        obj = dict(obj)
        train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
        train_obj = obj.pop("train", {})
        if not isinstance(train_obj, dict):
            raise ConfigError(
                f"train must be an object, got {type(train_obj).__name__}")
        train_obj = dict(train_obj)
        # Accept train hyperparameters at top level too.
        for k in list(obj):
            if k in train_fields:
                train_obj[k] = obj.pop(k)
        run_fields = {f.name for f in dataclasses.fields(cls)} - {"train"}
        unknown = set(obj) - run_fields
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in obj.items():
            if type(value) is not str:
                raise ConfigError(f"{name} must be str, got "
                                  f"{type(value).__name__} {value!r}")
        return cls(train=TrainConfig.from_dict(train_obj), **obj)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def require_paths(self, *names: str) -> None:
        import os
        for name in names:
            path = getattr(self, name)
            if not path:
                raise ConfigError(f"config field {name!r} is required")
            if not os.path.exists(path):
                raise ConfigError(f"config field {name!r}: no such file: {path}")
