"""The traced layers that bench/run.py names still exist on `capsrel`, the
model still calls each of its encoder and capsule layers, and each
`model.activations` span of bench/run.py gets its calls."""

import ast
import importlib
from pathlib import Path

import pytest

from capsrel import training
from capsrel.model import Model
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
ACTIVATION_SPANS = {name for name, *_ in LAYERS
                    if name.startswith("model.activations.")}


def run_py_function(name: str):
    """The function `name` of bench/run.py, compiled from its source alone."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            namespace: dict = {}
            exec(compile(ast.Module([node], []), str(RUN_PY), "exec"),
                 namespace)
            return namespace[name]
    raise AssertionError(f"no function {name} in {RUN_PY}")


@pytest.mark.parametrize("run", ["train-step", "no-grad-bag-scores"])
def test_every_traced_model_layer_is_called(monkeypatch, run):
    # A layer or a `model.activations` span the model no longer calls would
    # read "no calls" in the report. Each `Model.activations` call is named
    # as bench/run.py names it, with selection's calls made under
    # `training.select_instance`, and records the sentences it scores.
    called = set()
    for name, owner, attr in MODEL_LAYERS:
        module = importlib.import_module(f"capsrel.{owner}")

        def recording(*args, fn=getattr(module, attr), name=name, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, recording)
    span_of = run_py_function("activations_span")
    selecting = []          # the bag `select_instance` is choosing from
    sentences = []          # (span, sentences scored, sentences of the bag)

    def selecting_in(model, bag, fn=training.select_instance):
        selecting.append(bag)
        try:
            return fn(model, bag)
        finally:
            selecting.pop()

    def activations(*args, fn=Model.activations, **kwargs):
        parent = "training.select_instance" if selecting else None
        sentences.append((span_of(args, kwargs, parent), len(args[1]),
                          len(selecting[-1].instances) if selecting else None))
        return fn(*args, **kwargs)
    monkeypatch.setattr(training, "select_instance", selecting_in)
    monkeypatch.setattr(Model, "activations", activations)
    model = tiny_model()
    bags = mixed_bags(n=2)
    assert len(bags[1].instances) > 1     # selection scores this bag
    if run == "train-step":
        train_epoch(model, bags, Adam(model.params, lr=model.config.lr),
                    model.config, 0)
        spans = {"model.activations.selection", "model.activations.train"}
    else:
        model.bag_scores(bags[1])
        spans = {"model.activations.eval"}
    assert called == {name for name, *_ in MODEL_LAYERS}
    assert len(MODEL_LAYERS) == 6
    assert ACTIVATION_SPANS == {"model.activations.selection",
                                "model.activations.train",
                                "model.activations.eval"}
    assert {span for span, *_ in sentences} == spans
    # selection scores its bag's N sentences, eval the scored bag's
    expected = {"model.activations.train": 1,
                "model.activations.eval": len(bags[1].instances)}
    for span, n, bag_n in sentences:
        assert n == expected.get(span, bag_n), span
