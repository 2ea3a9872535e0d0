"""`capsrel` holds only what the program reaches.

Every public function, method and property defined in a `capsrel` module is
wrapped to record its name. Every read of a dataclass field is recorded
too, and so is every read of a public attribute that `Model.__init__` or
`Adam.__init__` assigns. The test then runs each CLI command on a tiny
synthetic corpus (the full model, both ablations, and M=4 over one entity
pair, which takes the missing-entity position bucket) plus one
`grad_check`, and names whatever nothing reached. A name that only tests call belongs in
`tests/helpers.py`.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import textwrap

import numpy as np

import capsrel
from capsrel import autodiff, cli

# Reached by no command, yet kept in `src/`: none.
ALLOWED: set[str] = set()

# Classes whose `__init__`-assigned attributes are recorded like fields.
# `Tensor` is left out: its attributes are read on every op.
INIT_ATTRS_OF = {"capsrel.model.Model", "capsrel.optim.Adam"}

CONFIGS = {"full": {}, "no_att": {"word_att": False},
           "no_caps": {"capsule": False}, "m4": {"M": 4}}


def modules():
    return [importlib.import_module(f"capsrel.{info.name}")
            for info in pkgutil.iter_modules(capsrel.__path__)]


def public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def recording(reached: set[str], name: str, fn):
    def wrapper(*args, **kwargs):
        reached.add(name)
        return fn(*args, **kwargs)
    return wrapper


def field_reads(reached: set[str], prefix: str, fields: set[str]):
    def __getattribute__(self, attr):
        if attr in fields:
            reached.add(f"{prefix}.{attr}")
        return object.__getattribute__(self, attr)
    return __getattribute__


def init_attrs(cls) -> set[str]:
    """Public attributes that `cls.__init__` assigns on `self`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and public(node.attr)}


def instrument(monkeypatch, reached: set[str]) -> set[str]:
    """Wrap every public name of every capsrel module to record into
    `reached`; return the names wrapped."""
    mods = modules()
    names: set[str] = set()
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if not public(name) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            qual = f"{mod.__name__}.{name}"
            if inspect.isfunction(obj):
                names.add(qual)
                wrapped = recording(reached, qual, obj)
                for other in [capsrel, *mods]:
                    if vars(other).get(name) is obj:
                        monkeypatch.setattr(other, name, wrapped)
            elif inspect.isclass(obj):
                names |= instrument_class(monkeypatch, reached, obj, qual)
    return names


def instrument_class(monkeypatch, reached: set[str], cls, qual: str) -> set[str]:
    names: set[str] = set()
    source = inspect.getsourcefile(cls)
    fields = set()
    if dataclasses.is_dataclass(cls):
        fields |= {f.name for f in dataclasses.fields(cls)}
    if qual in INIT_ATTRS_OF:  # read before __init__ is wrapped
        fields |= init_attrs(cls)
    for name, member in list(vars(cls).items()):
        if isinstance(member, (classmethod, staticmethod)):
            fn = member.__func__
        elif isinstance(member, property):
            fn = member.fget
        else:
            fn = member
        # dataclass-generated methods are compiled from "<string>"
        if not (public(name) and inspect.isfunction(fn)
                and fn.__code__.co_filename == source):
            continue
        names.add(f"{qual}.{name}")
        wrapped = recording(reached, f"{qual}.{name}", fn)
        if isinstance(member, property):
            wrapped = property(wrapped)
        elif not inspect.isfunction(member):
            wrapped = type(member)(wrapped)
        monkeypatch.setattr(cls, name, wrapped)
    if fields:
        names |= {f"{qual}.{name}" for name in fields}
        monkeypatch.setattr(cls, "__getattribute__",
                            field_reads(reached, qual, fields))
    return names


def run(*argv: str) -> None:
    assert cli.main(list(argv)) == 0, argv


def exercise(tmp_path) -> None:
    """Every CLI command, on every model shape, and one gradient check."""
    data = tmp_path / "data"
    run("synth", "--out-dir", str(data), "--bags", "9", "--relations", "3",
        "--vocab", "5", "--dw", "3", "--k", "2")
    base = {"corpus": str(data / "corpus.jsonl"),
            "word_embeddings": str(data / "words.txt"),
            "entity_embeddings": str(data / "entities.txt"),
            "relation_embeddings": str(data / "relations.txt"),
            "train": {"B": 2, "C": 2, "d": 2, "d_p": 2, "L": 12,
                      "batch_size": 4, "epochs": 1}}
    for name, overrides in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            **base, "train": {**base["train"], **overrides},
            "checkpoint": str(tmp_path / name / "model.ckpt"),
            "output_dir": str(tmp_path / name)}))
        run("train", "--config", str(path))
        run("eval", "--config", str(path))
        run("predict", "--config", str(path))
    full = str(tmp_path / "full.json")
    run("predict", "--config", full, "--multi", "--threshold", "0.01",
        "--out", str(tmp_path / "multi.jsonl"))
    run("sweep", "--config", full, "--iters", "1", "--dims", "2")
    square = autodiff.grad_check(lambda t: (t * t).sum(),
                                 autodiff.Tensor(np.ones(3)))
    assert square < 1e-6


def test_names_are_found(monkeypatch):
    names = instrument(monkeypatch, set())
    assert {"capsrel.autodiff.Tensor.__mul__", "capsrel.autodiff.Tensor.shape",
            "capsrel.encoder.bilstm", "capsrel.cli.main",
            "capsrel.config.TrainConfig.from_dict",
            "capsrel.data.Corpus.bags", "capsrel.model.Model.params",
            "capsrel.optim.Adam.step_count"} <= names


def test_every_public_name_is_reached(monkeypatch, tmp_path):
    reached: set[str] = set()
    names = instrument(monkeypatch, reached)
    exercise(tmp_path)
    unreached = names - reached - ALLOWED
    assert not unreached, f"names nothing reaches: {sorted(unreached)}"
    assert ALLOWED <= names
