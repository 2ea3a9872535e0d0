"""The autodiff module rule: an op stays in `capsrel.autodiff` only while
code under `src/` calls it.

Every `Tensor` operator and method and every free op the module exposes is
wrapped to record its name; training an epoch and scoring a bag with the
full model and each ablation must then have called all of them.
"""

import inspect
import sys

import pytest

from capsrel import autodiff
from capsrel.autodiff import Tensor
from capsrel.optim import Adam
from capsrel.training import train_epoch
from helpers import mixed_bags, tiny_model

# Tensor members that are not ops: construction, shape queries, gradient
# bookkeeping and the backward sweep.
NOT_OPS = {"__init__", "__repr__", "_from_op", "_accumulate", "shape", "ndim",
           "size", "item", "assert_finite", "zero_grad", "backward"}
# Free functions that test or switch off the tape rather than extend it.
TOOLS = {"grad_check", "no_grad"}

CONFIGS = [{}, {"word_att": False}, {"capsule": False}, {"dropout": 0.5}]


def tensor_ops() -> set[str]:
    return {name for name, member in vars(Tensor).items()
            if (inspect.isfunction(member) or isinstance(member, property))
            and name not in NOT_OPS}


def free_ops() -> set[str]:
    return {name for name, fn in vars(autodiff).items()
            if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
            and not name.startswith("_") and name not in TOOLS}


def recording(called: set[str], name: str, fn):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def called(monkeypatch) -> set[str]:
    """Names of the ops called while the fixture is active."""
    names: set[str] = set()
    for name in tensor_ops():
        member = vars(Tensor)[name]
        if isinstance(member, property):
            monkeypatch.setattr(Tensor, name,
                                property(recording(names, name, member.fget)))
        else:
            monkeypatch.setattr(Tensor, name, recording(names, name, member))
    modules = [m for key, m in sys.modules.items()
               if key == "capsrel" or key.startswith("capsrel.")]
    for name in free_ops():
        original = getattr(autodiff, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name,
                                    recording(names, name, original))
    return names


def test_ops_are_found():
    assert {"__matmul__", "__rsub__", "T", "softmax"} <= tensor_ops()
    assert {"concat", "stack", "take_rows", "dropout"} <= free_ops()


def test_every_exposed_op_is_called_by_src(called):
    for overrides in CONFIGS:
        model = tiny_model(seed=2, **overrides)
        bags = mixed_bags()
        train_epoch(model, bags, Adam(model.params), model.config, epoch=0)
        model.instance_scores(bags[2])
    uncalled = (tensor_ops() | free_ops()) - called
    assert not uncalled, f"ops that src/ never calls: {sorted(uncalled)}"
