"""The model's wiring: `Model.activations` against the whole-model oracle
`activations_composed`, built from the composed graph of every node, and
the batched bag pass against both."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel import encoder
from capsrel.autodiff import ShapeError, Tensor, grad_check, no_grad
from capsrel.capsule import dynamic_routing, primary_capsules, votes
from capsrel.data import Bag
from capsrel.encoder import bilstm, sentence_bounds, word_attention
from capsrel.model import _pooled_head
from capsrel.training import select_instance
from helpers import (activations_composed, bilstm_composed, check_fused_node,
                     concat, dynamic_routing_composed, make_instance,
                     pooled_head_composed, primary_capsules_composed,
                     relative_gap, reshape, take_rows, tiny_model, tiny_store,
                     votes_composed, word_attention_composed)

# The Bi-LSTM oracle forms tanh as 2 sigmoid(2x) - 1: `check_fused_node`'s
# tolerance for it, which every layer after the Bi-LSTM inherits.
TOL = 1e-10
WORDS = ("alpha", "beta", "gamma", "delta", "unseen", "E1", "E2", "E3", "E4")


def forward_and_grads(model, forward, inst, train, weights, rng_state):
    """`forward`'s activations and every parameter's gradient of one fixed
    weighting of them, with the dropout RNG reset to `rng_state` first and
    every warning raised as an error."""
    for p in model.params.values():
        p.grad = None
    model.dropout_rng.bit_generator.state = rng_state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = forward(model, inst, train)
        (a * Tensor(weights)).sum().backward()
    return a.data, {name: p.grad for name, p in model.params.items()}


def assert_matches_oracle(model, inst, train):
    weights = np.random.default_rng(model.config.seed).normal(size=model.E)
    state = model.dropout_rng.bit_generator.state
    a, grads = forward_and_grads(
        model, lambda m, i, t: take_rows(m.activations([i], train=t), 0),
        inst, train, weights, state)
    a_ref, grads_ref = forward_and_grads(model, activations_composed, inst,
                                         train, weights, state)
    np.testing.assert_allclose(a, a_ref, rtol=TOL, atol=TOL)
    for name, g in grads.items():
        assert (g is None) == (grads_ref[name] is None), name
        if g is not None:
            assert relative_gap(g, grads_ref[name]) <= TOL, name
            np.testing.assert_allclose(g, grads_ref[name], rtol=TOL, atol=TOL,
                                       err_msg=name)


def bag_of(lengths, M=2, L=None, seed=0):
    """A bag with one sentence of each length, drawn from WORDS."""
    rng = np.random.default_rng(seed)
    pairs = [("E1", "E2"), ("E3", "E4")][:M // 2]
    insts = [make_instance([str(w) for w in rng.choice(WORDS, n)], pairs=pairs,
                           relations=["NA"] * len(pairs), L=L or max(lengths),
                           M=M)
             for n in lengths]
    return Bag(key=insts[0].key, instances=insts, labels={0})


@st.composite
def models(draw):
    """A model of any ablation, M, size, sentence limit L and routing
    depth, with dropout."""
    variant = draw(st.sampled_from(["full", "-Att", "-Capsule"]))
    seed = draw(st.integers(0, 2 ** 16))
    return tiny_model(
        seed=seed, B=draw(st.integers(1, 4)), C=draw(st.integers(1, 3)),
        d=draw(st.integers(1, 3)), L=draw(st.integers(1, 8)),
        M=draw(st.sampled_from([2, 4])), d_p=draw(st.integers(1, 3)),
        routing_iters=draw(st.integers(1, 4)),
        dropout=draw(st.sampled_from([0.25, 0.5])),
        word_att=variant != "-Att", capsule=variant != "-Capsule",
        store=tiny_store(n_relations=draw(st.integers(1, 5)), seed=seed))


@st.composite
def model_cases(draw):
    """A model, a sentence of 1 to L tokens for it, and whether to run it
    in train mode."""
    model = draw(models())
    cfg = model.config
    bag = bag_of([draw(st.integers(1, cfg.L))], M=cfg.M, L=cfg.L,
                 seed=cfg.seed)
    return model, bag.instances[0], draw(st.booleans())


class TestWholeModelOracle:
    @given(model_cases())
    @settings(max_examples=60, deadline=None)
    def test_activations_and_every_gradient_match_the_composed_model(
            self, case):
        assert_matches_oracle(*case)


# -- the batched bag pass ------------------------------------------------------


@st.composite
def bag_cases(draw):
    """A model and a bag of 1 to 5 sentences of 1 to L tokens for it,
    lengths mixed and repeated."""
    model = draw(models())
    cfg = model.config
    lengths = draw(st.lists(st.integers(1, cfg.L), min_size=1, max_size=5))
    return model, bag_of(lengths, M=cfg.M, L=cfg.L, seed=cfg.seed)


class TestBagPass:
    """`instance_scores` runs a bag's N sentences as one pass: each row is
    the sentence's own eval activations."""

    @given(bag_cases())
    @settings(max_examples=60, deadline=None)
    def test_each_row_equals_the_oracle_and_its_own_n1_call(self, case):
        model, bag = case
        scores = model.instance_scores(bag)
        assert scores.shape == (len(bag.instances), model.E)
        with no_grad():
            for row, inst in zip(scores, bag.instances):
                assert relative_gap(
                    row, model.activations([inst]).data[0]) <= 1e-12
                assert relative_gap(
                    row, activations_composed(model, inst).data) <= 1e-12

    @pytest.mark.parametrize("capsule", [True, False], ids=["full", "-Capsule"])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_a_longer_sentence_leaves_the_other_rows(self, capsule, at):
        # the longer sentence runs every step alone after the others end
        model = tiny_model(seed=3, L=12, capsule=capsule)
        bag = bag_of([3, 1, 5], L=12, seed=3)
        longer = bag_of([12], L=12, seed=4).instances[0]
        grown = Bag(key=bag.key, labels=bag.labels,
                    instances=bag.instances[:at] + [longer]
                    + bag.instances[at:])
        scores, grown_scores = (model.instance_scores(b) for b in (bag, grown))
        for k, row in enumerate(scores):
            assert relative_gap(grown_scores[k + (k >= at)], row) <= 1e-12

    @pytest.mark.parametrize("select", [False, True],
                             ids=["instance_scores", "select_instance"])
    def test_one_bilstm_call_per_bag(self, monkeypatch, select):
        calls = []

        def counting(*args, fn=encoder.bilstm):
            calls.append(args[0].shape[0])
            return fn(*args)
        monkeypatch.setattr(encoder, "bilstm", counting)
        model = tiny_model(seed=1)
        bag = bag_of([4, 2, 6, 2], L=10)
        if select:
            select_instance(model, bag)
        else:
            model.instance_scores(bag)
        assert calls == [14]

    @pytest.mark.parametrize("lengths", [(2, 1), (1, 3, 2)])
    @pytest.mark.parametrize("capsule", [True, False], ids=["full", "-Capsule"])
    def test_grad_check_through_every_node(self, lengths, capsule):
        # the packed pass on the tape: embed, Bi-LSTM, attention and the
        # head, each on N sentences at once
        model = tiny_model(seed=5, B=2, C=2, d=2, L=6, capsule=capsule)
        bag = bag_of(lengths, L=6, seed=5)
        w = np.random.default_rng(5).normal(size=(len(lengths), model.E))
        names = ["word_emb", "pos_emb_1", "lstm_fwd_Wh", "lstm_bwd_Wx",
                 "att_r"] + (["caps_Wb", "caps_Wc"] if capsule
                             else ["head_W"])
        for name in names:
            def f(t, name=name):
                old = model.params[name]
                model.params[name] = t
                try:
                    return (model.activations(bag.instances)
                            * Tensor(w)).sum()
                finally:
                    model.params[name] = old
            probe = Tensor(model.params[name].data.copy())
            assert grad_check(f, probe) < 1e-6, name


def packed(composed, lengths, split=(0,), as_rows=False):
    """The composed graph of a packed node: `composed` run per sentence on
    its rows of the operands at `split`, the outputs joined row-wise;
    `as_rows` makes each sentence's output of shape s a 1 x s row first."""
    bounds = sentence_bounds(np.asarray(lengths))

    def run(*operands):
        parts = []
        for lo, hi in bounds:
            outs = composed(*(take_rows(t, np.arange(lo, hi)) if k in split
                              else t for k, t in enumerate(operands)))
            outs = outs if isinstance(outs, tuple) else (outs,)
            parts.append([reshape(o, (1, *o.shape)) if as_rows else o
                          for o in outs])
        joined = [concat(list(outs), axis=0) for outs in zip(*parts)]
        return tuple(joined) if len(joined) > 1 else joined[0]
    return run


N2_N3 = [(2, 1), (1, 3, 2)]


class TestPackedNodes:
    """Each node on N sentences packed row after row, against its composed
    graph run per sentence and joined, with `grad_check` on every input."""

    @pytest.mark.parametrize("lengths", N2_N3)
    def test_bilstm(self, lengths):
        rng = np.random.default_rng(len(lengths))
        arrays = [rng.normal(0, 0.5, shape) for shape in
                  ((sum(lengths), 3), *2 * ((3, 8), (2, 8), (8,)))]
        check_fused_node(
            lambda X, *w: bilstm(X, w[:3], w[3:], lengths),
            packed(lambda X, *w: bilstm_composed(X, w[:3], w[3:]), lengths),
            arrays, [True] * 7, tol=1e-10)

    @pytest.mark.parametrize("lengths", N2_N3)
    def test_word_attention(self, lengths):
        rng = np.random.default_rng(len(lengths))
        arrays = [rng.normal(size=shape) for shape in
                  ((sum(lengths), 4), (4, 4), (4,))]
        check_fused_node(
            lambda H, A, r: word_attention(H, A, r, lengths)[0],
            packed(lambda H, A, r: word_attention_composed(H, A, r)[0],
                   lengths),
            arrays, [True] * 3, tol=1e-12)

    @pytest.mark.parametrize("lengths", N2_N3)
    def test_primary_capsules(self, lengths):
        rng = np.random.default_rng(len(lengths))
        arrays = [rng.normal(size=shape) for shape in
                  ((sum(lengths), 3), (4, 6), (4,))]
        check_fused_node(
            lambda *t: primary_capsules(*t, 2, 2, lengths),
            packed(lambda *t: primary_capsules_composed(*t, 2, 2), lengths),
            arrays, [True] * 3, interior=3, tol=1e-12)

    @pytest.mark.parametrize("lengths", N2_N3)
    def test_dynamic_routing(self, lengths):
        # children per sentence; the scales of the single-sentence test
        rng = np.random.default_rng(len(lengths))
        H, E, d = sum(lengths), 3, 2
        arrays = [0.6 * rng.normal(size=(H, d)), 0.6 * rng.normal(
            size=(E, d, d)), 0.2 * rng.normal(size=(E, d)),
            rng.uniform(0.2, 1.0, size=H)]
        check_fused_node(
            lambda u, Wc, b_hat, a_hat: dynamic_routing(
                votes(u, Wc, b_hat), a_hat, 3, lengths),
            packed(lambda u, Wc, b_hat, a_hat: dynamic_routing_composed(
                votes_composed(u, Wc, b_hat), a_hat, 3), lengths,
                split=(0, 3), as_rows=True),
            arrays, [True] * 4, interior=3, tol=1e-10)

    @pytest.mark.parametrize("lengths", N2_N3)
    def test_pooled_head(self, lengths):
        rng = np.random.default_rng(len(lengths))
        arrays = [rng.normal(size=shape) for shape in
                  ((sum(lengths), 4), (4, 3), (3,))]
        check_fused_node(
            lambda x, W, b: _pooled_head(x, W, b, lengths),
            packed(pooled_head_composed, lengths, as_rows=True),
            arrays, [True] * 3, tol=1e-12)

    @pytest.mark.parametrize("lengths", [[], [2, 0, 1], [1, 1], [4, 1],
                                         [1.5, 1.5], [[3]]],
                             ids=["none", "zero", "too-few-rows",
                                  "too-many-rows", "float", "2d"])
    @pytest.mark.parametrize("node", ["bilstm", "word_attention",
                                      "primary_capsules", "dynamic_routing",
                                      "_pooled_head"])
    def test_lengths_that_do_not_split_the_rows_are_named(self, node,
                                                          lengths):
        rows = 3
        calls = {
            "bilstm": lambda: bilstm(Tensor(np.zeros((rows, 1))),
                                     *2 * [[Tensor(np.zeros(s)) for s in
                                            ((1, 4), (1, 4), (4,))]],
                                     lengths),
            "word_attention": lambda: word_attention(
                Tensor(np.zeros((rows, 2))), Tensor(np.eye(2)),
                Tensor(np.ones(2)), lengths),
            "primary_capsules": lambda: primary_capsules(
                Tensor(np.zeros((rows, 1))), Tensor(np.zeros((1, 2))),
                Tensor(np.zeros(1)), 1, 1, lengths),
            "dynamic_routing": lambda: dynamic_routing(
                Tensor(np.zeros((2, 1, rows))), Tensor(np.zeros(rows)), 1,
                lengths),
            "_pooled_head": lambda: _pooled_head(
                Tensor(np.zeros((rows, 2))), Tensor(np.zeros((2, 2))),
                Tensor(np.zeros(2)), lengths),
        }
        with pytest.raises(ShapeError, match=re.escape(
                f"{node} lengths {np.asarray(lengths).tolist()} do not "
                f"split {rows} rows")):
            calls[node]()
