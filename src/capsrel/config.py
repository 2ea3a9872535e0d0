"""Run configuration with the published hyperparameter defaults, the
one rule, `require_path`, for every path a command reads or writes, and
the one writer, `atomic_write`, of every file it writes."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import secrets
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid or missing configuration field."""


# Accepted value types per annotated field type: a bool is not an int, and a
# float field takes an integer such as 0 too.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}
# The TransE pair differences, e2 - e1 and e1 - e2, that `pair_diff` and
# `prediction.assign_all` accept.
PAIR_DIFFS = ("e2-e1", "e1-e2")
# Smallest legal value of each bounded integer field.
_INT_MINIMA = {"B": 1, "L": 1, "C": 1, "d": 1, "batch_size": 1,
               "routing_iters": 1, "d_p": 0, "epochs": 0, "seed": 0}


@dataclass(frozen=True)
class TrainConfig:
    """Model and training hyperparameters, checked when built: every
    instance is valid, and `dataclasses.replace` checks its new values."""

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
        return cls(**obj)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) not in _FIELD_TYPES[f.type]:
                raise ConfigError(f"{f.name} must be {f.type}, got "
                                  f"{type(value).__name__} {value!r}")
        for name, low in _INT_MINIMA.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.M not in (2, 4):
            raise ConfigError(f"M must be 2 or 4, got {self.M}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.pair_diff not in PAIR_DIFFS:
            raise ConfigError(f"pair_diff must be "
                              f"{' or '.join(map(repr, PAIR_DIFFS))}, "
                              f"got {self.pair_diff!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")


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
        # Accept train hyperparameters at top level too, but not twice.
        twice = sorted(train_fields & set(obj) & set(train_obj))
        if twice:
            raise ConfigError(f"train config fields given both in train and "
                              f"at the top level: {twice}")
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
        if obj.get("output_dir") == "":
            raise ConfigError("output_dir must name a directory, such as '.'")
        return cls(train=TrainConfig.from_dict(train_obj), **obj)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def require(self, name: str, use: str) -> None:
        """`require_path` on the path of field `name`, naming the field."""
        require_path(getattr(self, name), f"config field {name!r}", use)


def require_path(path: str, what: str, use: str) -> None:
    """Raise `ConfigError` naming `what` unless `path` can serve `use`.

    The one rule for every path a command reads or writes:
    - "read": an existing path that is not a directory (a pipe or a device
      will do);
    - "write": a file, which must not exist as a directory;
    - "make": a directory, which must not exist as anything else.
    A path to write or make needs the nearest of its parents that exists
    to be a directory. An empty path is missing.
    """
    if not path:
        raise ConfigError(f"{what} is required")
    exists = os.path.exists(path)
    if use == "read" and not exists:
        raise ConfigError(f"{what}: no such file: {path}")
    if exists and os.path.isdir(path) != (use == "make"):
        raise ConfigError(f"{what}: {path} is "
                          f"{'not ' if use == 'make' else ''}a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"{what}: {parent} in {path} is not a directory")


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a new file, UTF-8 text or `binary`, whose content replaces
    `path` when the block exits cleanly.

    Missing parent directories are made first. The file is created beside
    `path` under a fresh random name with `O_EXCL`, so it never truncates
    or takes over a file that is already there, and with mode 0o666 less
    the umask, as `open(path, "w")` gives. `os.replace` then puts it in
    place, so `path` holds the old content or the whole new one. If the
    block or the replace raises, the file is removed and `path` is left as
    it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
