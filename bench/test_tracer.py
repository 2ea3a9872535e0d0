"""Tracer arithmetic and installation, on a synthetic package and a fake clock."""

import sys
import types
from pathlib import Path

import pytest

from tracer import Target, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fakepkg():
    """`fakepkg.core` defines the functions; `fakepkg.user` imports one by
    name, the way `capsrel.cli` imports `save_checkpoint`."""
    clock = FakeClock()
    core = types.ModuleType("fakepkg.core")

    def leaf():
        clock.advance(3.0)

    def mid():
        clock.advance(1.0)
        core.leaf()
        clock.advance(1.0)

    def outer():
        clock.advance(1.0)
        core.mid()
        clock.advance(2.0)
        core.leaf()
        clock.advance(1.0)

    core.leaf, core.mid, core.outer = leaf, mid, outer
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf
    pkg = types.ModuleType("fakepkg")
    pkg.core, pkg.user = core, user
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield clock, core, user
    for name in mods:
        del sys.modules[name]


def install_all(clock, core):
    tracer = Tracer(clock=clock, package="fakepkg")
    tracer.install([Target(core, name, f"core.{name}")
                    for name in ("outer", "mid", "leaf")])
    return tracer


def test_self_time_subtracts_direct_children(fakepkg):
    clock, core, _ = fakepkg
    with install_all(clock, core) as tracer:
        core.outer()
    spans = {(s.name, s.start): s for s in tracer.spans}
    outer = spans[("core.outer", 0.0)]
    mid = spans[("core.mid", 1.0)]
    inner_leaf = spans[("core.leaf", 2.0)]
    outer_leaf = spans[("core.leaf", 8.0)]
    assert outer.duration == 12.0 and outer.self_time == 4.0
    assert mid.duration == 5.0 and mid.self_time == 2.0
    assert inner_leaf.self_time == outer_leaf.self_time == 3.0
    assert inner_leaf.parent == tracer.spans.index(mid)
    assert mid.parent == outer_leaf.parent == tracer.spans.index(outer)
    assert outer.parent == -1

    summary = tracer.summary(wall=12.0, inclusive=frozenset({"core.mid"}))
    assert summary["core.leaf"] == {"calls": 2, "p50_s": 3.0, "total_s": 6.0,
                                    "share": 0.5}
    assert summary["core.mid"]["total_s"] == 5.0      # inclusive
    assert summary["core.outer"]["total_s"] == 4.0
    # Self times of a single-threaded tree add up to the root's duration.
    assert sum(s.self_time for s in tracer.spans) == outer.duration


def test_install_patches_every_binding_site_and_restores(fakepkg):
    clock, core, user = fakepkg
    original = core.leaf
    with install_all(clock, core) as tracer:
        assert core.leaf is not original and user.leaf is core.leaf
        user.leaf()
        assert [s.name for s in tracer.spans] == ["core.leaf"]
    assert core.leaf is original and user.leaf is original


def test_method_targets_and_per_call_names():
    class Model:
        def activations(self, train=False):
            return "train" if train else "eval"

    original = Model.__dict__["activations"]
    seen = []
    tracer = Tracer()
    with tracer:
        tracer.install([Target(
            Model, "activations",
            lambda args, kwargs, parent: f"act.{kwargs.get('train', False)}",
            before=lambda args, kwargs: seen.append("before"),
            after=lambda result, args, kwargs: seen.append(result))])
        m = Model()
        assert m.activations(train=True) == "train"
        assert m.activations() == "eval"
    assert Model.__dict__["activations"] is original
    assert [s.name for s in tracer.spans] == ["act.True", "act.False"]
    assert seen == ["before", "train", "before", "eval"]


def test_span_closed_even_when_the_call_raises(fakepkg):
    clock, core, _ = fakepkg

    def boom():
        raise ValueError("boom")

    core.boom = boom
    tracer = Tracer(clock=clock, package="fakepkg")
    with tracer:
        tracer.install([Target(core, "boom", "core.boom")])
        with pytest.raises(ValueError):
            core.boom()
    assert len(tracer.spans) == 1 and not tracer._open


def test_capsrel_cli_binding_is_wrapped():
    sys.path.insert(0, str(SRC))
    try:
        import capsrel.cli
        import capsrel.model
    finally:
        sys.path.remove(str(SRC))
    original = capsrel.model.save_checkpoint
    tracer = Tracer()
    with tracer:
        tracer.install([Target(capsrel.model, "save_checkpoint", "save")])
        assert capsrel.cli.save_checkpoint is capsrel.model.save_checkpoint
        assert capsrel.cli.save_checkpoint is not original
    assert capsrel.cli.save_checkpoint is original
    assert capsrel.model.save_checkpoint is original
