"""The train step adopts the Bi-LSTM runs that selection computed for the
picked sentence: it matches the two-pass step, runs each sentence's
recurrence once per step, and keeps nothing past its bag."""

import contextlib
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel import encoder, training
from capsrel.config import TrainConfig
from capsrel.data import Bag
from capsrel.model import Model
from capsrel.optim import Adam
from capsrel.training import select_instance, train_epoch
from helpers import (make_instance, mixed_bags, planted_trigger_bags,
                     planted_trigger_store, relative_gap, tiny_model)

VARIANTS = {"full": {}, "-Att": {"word_att": False},
            "-Capsule": {"capsule": False}}


def one_step(make_model, bag, handover: bool):
    """One `train_epoch` step on `bag`, with the handover or with every
    pass running the LSTM fresh: the model and the epoch's stats."""
    model = make_model()
    no_handover = mock.patch.object(training, "sentence_runs",
                                    lambda *args: None)
    with contextlib.nullcontext() if handover else no_handover:
        stats = train_epoch(model, [bag], Adam(model.params, lr=0.01),
                            model.config, 0)
    return model, stats


def assert_matches_two_pass_step(make_model, bag):
    (model, stats), (ref, ref_stats) = (one_step(make_model, bag, handover)
                                        for handover in (True, False))
    assert stats.selection_histogram == ref_stats.selection_histogram
    assert model.dropout_rng.bit_generator.state \
        == ref.dropout_rng.bit_generator.state
    assert abs(stats.mean_loss - ref_stats.mean_loss) \
        <= 1e-12 * abs(ref_stats.mean_loss)
    for name, p in model.params.items():
        g = ref.params[name].grad
        assert (p.grad is None) == (g is None), name
        if g is not None:
            assert relative_gap(p.grad, g) <= 1e-12, name


WORDS = ["alpha", "beta", "gamma", "delta"]


@st.composite
def bags_of(draw, M):
    """A bag of 2-5 sentences of 0-6 filler words around the mentions,
    sharing the first sentence's relations."""
    pairs = [("E1", "E2"), ("E3", "E4")][:M // 2]
    relations = draw(st.lists(st.sampled_from(["NA", "R1", "R2"]),
                              min_size=len(pairs), max_size=len(pairs)))
    fillers = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=6),
                            min_size=2, max_size=5))
    insts = []
    for words in fillers:
        cut = draw(st.integers(0, len(words)))
        tokens = words[:cut] + [e for pair in pairs for e in pair] + words[cut:]
        insts.append(make_instance(tokens, pairs=pairs, relations=relations,
                                   M=M))
    return Bag(key=(), instances=insts, labels=set(insts[0].relations))


class TestAdoptionMatchesTwoPassStep:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("M", [2, 4])
    @given(data=st.data(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_drawn_bags(self, M, variant, data, seed):
        bag = data.draw(bags_of(M))
        assert_matches_two_pass_step(
            lambda: tiny_model(seed=seed, M=M, dropout=0.5, batch_size=1,
                               **VARIANTS[variant]), bag)

    @pytest.mark.slow
    def test_published_shape_bag_of_two_119_token_sentences(self):
        # B=300: a row of the 2-row `h @ Wh` product is not bit-equal to
        # the 1-row product the fresh pass forms
        store = planted_trigger_store(d_w=50)
        planted = planted_trigger_bags(n_bags=6, relations=4, lengths=(119,))
        bag = Bag(key=(), instances=[planted[1].instances[0],
                                     planted[5].instances[0]], labels={1})
        assert_matches_two_pass_step(
            lambda: Model(TrainConfig(batch_size=1), store), bag)


def record_kernels(monkeypatch):
    """Patch `encoder._lstm` and `encoder._bptt` to log their calls in
    order: "lstm" for a run, "bptt" for a backward of a run `_lstm`
    returned, "adopt" for a backward of any other (a cut) run. Returns the
    log and a weakref to the gates of each run `_lstm` returned."""
    log, refs, lstm, bptt = [], [], encoder._lstm, encoder._bptt

    def recording_lstm(*args):
        run = lstm(*args)
        log.append("lstm")
        refs.append(weakref.ref(run[0]))
        return run

    def recording_bptt(*args):
        gates = args[-1][0]
        log.append("bptt" if any(r() is gates for r in refs) else "adopt")
        return bptt(*args)
    monkeypatch.setattr(encoder, "_lstm", recording_lstm)
    monkeypatch.setattr(encoder, "_bptt", recording_bptt)
    return log, refs


class TestOncePerSentence:
    def test_each_bag_runs_each_direction_once(self, monkeypatch):
        log, _ = record_kernels(monkeypatch)
        model = tiny_model(seed=1, dropout=0.5)
        bags = mixed_bags()
        multi = sum(len(bag.instances) > 1 for bag in bags)
        assert 0 < multi < len(bags)
        train_epoch(model, bags, Adam(model.params, lr=model.config.lr),
                    model.config, epoch=0)
        # selection keeps its runs, which the train step adopts; only a
        # single-sentence bag runs fresh
        assert log.count("lstm") == 2 * len(bags)
        assert log.count("adopt") == 2 * multi
        assert log.count("bptt") == 2 * (len(bags) - multi)

    def test_only_the_picked_runs_reach_the_train_step(self, monkeypatch):
        _, refs = record_kernels(monkeypatch)
        cut, cut_runs = [], training.sentence_runs

        def cutting(*args):
            out = cut_runs(*args)
            cut.extend(weakref.ref(gates) for gates, _, _ in out)
            return out
        monkeypatch.setattr(training, "sentence_runs", cutting)
        at_selection, at_train = [], []
        forward = Model.activations

        def activations(self, insts, train=False, runs=None):
            alive = [r() for r in refs + cut if r() is not None]
            if runs == []:          # a selection pass
                at_selection.append(len(alive))
            if train:               # only the runs it is handed are alive
                at_train.append((len(alive), [a is gates for a, (gates, _, _)
                                              in zip(alive, runs or ())]))
            del alive
            return forward(self, insts, train, runs)
        monkeypatch.setattr(Model, "activations", activations)
        model = tiny_model(seed=1, dropout=0.5, batch_size=4)
        bags = mixed_bags()
        multi = sum(len(bag.instances) > 1 for bag in bags)
        train_epoch(model, bags, Adam(model.params, lr=0.01),
                    model.config, epoch=0)
        assert len(refs) == 2 * len(bags) and len(cut) == 2 * multi
        assert at_selection == [0] * multi
        assert sorted(at_train) == sorted(
            [(0, [])] * (len(bags) - multi) + [(2, [True, True])] * multi)
        assert [r() is None for r in refs + cut] == [True] * len(refs + cut)

    def test_scoring_outside_training_keeps_nothing(self, monkeypatch):
        log, refs = record_kernels(monkeypatch)
        model = tiny_model(seed=1)
        bag = mixed_bags()[2]
        model.bag_scores(bag)
        model.scores([bag])
        assert log == ["lstm"] * 4
        assert [r() is None for r in refs] == [True] * 4

    def test_train_call_without_runs_runs_fresh(self, monkeypatch):
        log, _ = record_kernels(monkeypatch)
        model = tiny_model(seed=1)
        bag = mixed_bags()[2]
        index, runs = select_instance(model, bag)
        model.activations([bag.instances[index]], train=True)
        model.activations([bag.instances[index]], train=True, runs=runs)
        assert log == ["lstm", "lstm", "lstm", "bptt", "lstm", "bptt",
                       "adopt", "adopt"]
