"""The traced layers that bench/run.py names still exist on `capsrel`, and
the model still calls each of its encoder and capsule layers."""

import ast
import importlib
from pathlib import Path

import pytest

from capsrel.optim import Adam
from capsrel.training import train_epoch
from helpers import mixed_bags, tiny_model

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_layers() -> list[tuple]:
    """`LAYERS` from bench/run.py, read as a literal without importing it."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "LAYERS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {RUN_PY}")


LAYERS = traced_layers()


def test_layers_are_read():
    assert any(name == "capsule.dynamic_routing" for name, *_ in LAYERS)


@pytest.mark.parametrize("name,owner_path,attr",
                         [row[:3] for row in LAYERS if row[1] is not None])
def test_traced_owner_and_attribute_resolve(name, owner_path, attr):
    # The bench imports each capsrel submodule, then walks attributes.
    module, *rest = owner_path.split(".")
    owner = importlib.import_module(f"capsrel.{module}")
    for part in rest:
        assert hasattr(owner, part), f"{name}: capsrel has no {owner_path}"
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr, None)), f"{name}: {owner_path}.{attr}"


MODEL_LAYERS = [row[:3] for row in LAYERS if row[1] in ("encoder", "capsule")]


@pytest.mark.parametrize("run", ["train-step", "no-grad-bag-scores"])
def test_every_traced_model_layer_is_called(monkeypatch, run):
    # A layer the model no longer calls would read "no calls" in the report.
    called = set()
    for name, owner, attr in MODEL_LAYERS:
        module = importlib.import_module(f"capsrel.{owner}")

        def recording(*args, fn=getattr(module, attr), name=name, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, recording)
    model = tiny_model()
    bags = mixed_bags(n=2)
    if run == "train-step":
        train_epoch(model, bags, Adam(model.params), model.config, 0)
    else:
        model.bag_scores(bags[1])
    assert called == {name for name, *_ in MODEL_LAYERS}
    assert len(MODEL_LAYERS) == 6
