"""Embedding lookup, Bi-LSTM recurrence, word-level attention."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsrel import encoder
from capsrel.autodiff import (ContractViolation, ShapeError, Tensor, grad_check,
                              no_grad)
from capsrel.data import Bag, SentenceInstance, missing_bucket
from capsrel.encoder import (_activate_gates, _bptt, _lstm, _schedule, bilstm,
                             embed, sentence_runs, word_attention)
from capsrel.training import label_vector, margin_loss
from helpers import (bilstm_composed, check_fused_node,
                     embed_composed, lstm_direction_reference,
                     lstm_single_product, make_instance, relative_gap,
                     sigmoid, tape_nodes, tiny_model, tiny_store,
                     word_attention_composed)


def lstm_params(rng, V, B, scale=0.4):
    return (Tensor(rng.normal(0, scale, (V, 4 * B)), requires_grad=True),
            Tensor(rng.normal(0, scale, (B, 4 * B)), requires_grad=True),
            Tensor(np.zeros(4 * B), requires_grad=True))


class TestEmbed:
    def test_row_width_is_dw_plus_dp_times_m(self):
        model = tiny_model(d_p=5, M=2, store=tiny_store(d_w=4))
        inst = make_instance(["alpha", "E1", "E2"], L=10, M=2)
        X = embed([model.store.word_id(t) for t in inst.tokens],
                  inst.position_ids, model.params["word_emb"],
                  [model.params["pos_emb_0"], model.params["pos_emb_1"]])
        assert X.shape == (3, 14)

    @pytest.mark.parametrize("capsule,sentences", [
        (True, 1), (False, 1), (True, 0), (False, 0)],
        ids=["full", "-Capsule", "full-no-sentences", "-Capsule-no-sentences"])
    def test_empty_sentence_is_a_contract_violation(self, capsule, sentences):
        # load_corpus never yields either; a caller building instances might
        model = tiny_model(capsule=capsule)
        inst = SentenceInstance(tokens=[], pairs=[("E1", "E2")], relations=[1],
                                position_ids=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ContractViolation, match=(
                "empty sentence" if sentences else "empty list of sentences")):
            model.activations([inst] * sentences)

    def test_m4_single_pair_uses_missing_bucket_rows(self):
        model = tiny_model(M=4)
        inst = make_instance(["E1", "E2"], L=10, M=4)
        tables = [model.params[f"pos_emb_{m}"] for m in range(4)]
        X = embed([model.store.word_id(t) for t in inst.tokens],
                  inst.position_ids, model.params["word_emb"], tables)
        d_w = model.store.word.shape[1]
        d_p = model.config.d_p
        miss = missing_bucket(10)
        for t in range(2):
            for m in (2, 3):
                lo = d_w + m * d_p
                np.testing.assert_array_equal(
                    X.data[t, lo:lo + d_p], tables[m].data[miss])

    def test_unknown_word_maps_to_unk_row(self):
        model = tiny_model()
        inst = make_instance(["zzz", "E1", "E2"], L=10, M=2,
                             entities=[{"id": "E1", "span": [1, 2]},
                                       {"id": "E2", "span": [2, 3]}])
        ids = [model.store.word_id(t) for t in inst.tokens]
        assert ids[0] == model.store.unk_id


@st.composite
def embed_cases(draw):
    """(word_ids, position_ids, tables, requires): an n-token sentence over
    a word table and M position tables of 1 to 4 rows and width 1 to 3.
    The last word repeats the first, so its row is read twice; tables that
    do not require grad are drawn, but never all of them."""
    n, M = draw(st.integers(1, 5)), draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shapes = [(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
              for _ in range(M + 1)]
    word_ids = rng.integers(0, shapes[0][0], size=n)
    word_ids[-1] = word_ids[0]
    position_ids = np.stack([rng.integers(0, rows, size=n)
                             for rows, _ in shapes[1:]], axis=1)
    requires = draw(st.lists(st.booleans(), min_size=M + 1, max_size=M + 1))
    requires[0] = requires[0] or not any(requires)
    return (word_ids, position_ids, [rng.normal(size=s) for s in shapes],
            requires)


class TestEmbedNode:
    """`embed` is one tape node against the gather-and-concat graph."""

    @given(embed_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_composed_graph_and_its_gradient(self, case):
        word_ids, position_ids, tables, requires = case
        check_fused_node(
            lambda word, *pos: embed(word_ids, position_ids, word, list(pos)),
            lambda word, *pos: embed_composed(word_ids, position_ids, word,
                                              list(pos)),
            tables, requires)

    @pytest.mark.parametrize("row", [-1, 4])
    @pytest.mark.parametrize("slot", [None, 0, 1], ids=["word", "pos0", "pos1"])
    def test_out_of_range_row_names_its_table(self, slot, row):
        word_ids, position_ids = np.array([0, 1]), np.zeros((2, 2), np.int64)
        if slot is None:
            word_ids[1], name = row, "the word table"
        else:
            position_ids[1, slot], name = row, f"position slot {slot}"
        with pytest.raises(ContractViolation,
                           match=f"out of range for {name}, which has 4 rows"):
            embed(word_ids, position_ids, Tensor(np.zeros((4, 3))),
                  [Tensor(np.zeros((4, 2))) for _ in range(2)])

    def test_nonconforming_ids_name_every_shape(self):
        # a third position column with only two position tables
        with pytest.raises(ShapeError, match=(
                r"word_ids \(2,\), position_ids \(2, 3\), word_emb \(4, 3\), "
                r"pos_embs \[\(4, 2\), \(4, 2\)\]")):
            embed(np.array([0, 1]), np.zeros((2, 3), np.int64),
                  Tensor(np.zeros((4, 3))),
                  [Tensor(np.zeros((4, 2))) for _ in range(2)])


class TestBiLstm:
    def test_zero_parameters_give_zero_outputs(self):
        V, B, L = 3, 2, 4
        zeros = (Tensor(np.zeros((V, 4 * B))), Tensor(np.zeros((B, 4 * B))),
                 Tensor(np.zeros(4 * B)))
        X = Tensor(np.random.default_rng(0).normal(size=(L, V)))
        H = bilstm(X, zeros, zeros, [L])
        np.testing.assert_array_equal(H.data, np.zeros((L, 2 * B)))

    def test_single_step_output_width(self):
        rng = np.random.default_rng(1)
        V, B = 3, 4
        H = bilstm(Tensor(rng.normal(size=(1, V))), lstm_params(rng, V, B),
                   lstm_params(rng, V, B), [1])
        assert H.shape == (1, 2 * B)

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(2)
        V, B, L = 3, 4, 5
        fwd = lstm_params(rng, V, B)
        bwd = lstm_params(rng, V, B)
        X = rng.normal(size=(L, V))
        H = bilstm(Tensor(X), fwd, bwd, [L]).data
        H_rev = bilstm(Tensor(X[::-1].copy()), bwd, fwd, [L]).data
        # forward half on x == backward half on reverse(x), row-reversed
        np.testing.assert_allclose(H[:, :B], H_rev[::-1, B:], atol=1e-12)

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_matches_per_step_oracle(self, length):
        rng = np.random.default_rng(length)
        V, B = 3, 4
        fwd, bwd = [[rng.normal(0, 0.5, shape)
                     for shape in ((V, 4 * B), (B, 4 * B), (4 * B,))]
                    for _ in range(2)]
        X = rng.normal(size=(length, V))
        H = bilstm(Tensor(X), [Tensor(p) for p in fwd],
                   [Tensor(p) for p in bwd], [length]).data
        H_ref = bilstm_composed(Tensor(X), [Tensor(p) for p in fwd],
                                [Tensor(p) for p in bwd]).data
        np.testing.assert_allclose(H, H_ref, rtol=1e-10, atol=1e-10)


EDGES = [0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]


class TestGateActivation:
    """`_activate_gates`, the one in-place tanh that activates the gates
    of every `_lstm` step."""

    @given(st.lists(st.one_of(st.sampled_from(EDGES), st.floats(-40, 40)),
                    min_size=4, max_size=4 * 5).map(
                        lambda zs: zs[:len(zs) // 4 * 4]))
    @example(EDGES + [0.0])
    @example([0.0] * 11 + [5.065361703303381])   # o exactly one eps off
    @settings(max_examples=200, deadline=None)
    def test_matches_exp_form_sigmoid_and_tanh(self, zs):
        # i, f and o are within one eps of the exp-form logistic of the
        # oracles; the cell block is tanh itself
        z = np.array(zs).reshape(4, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _activate_gates(z.copy()[None])[0]
            ref = sigmoid(Tensor(z)).data
        np.testing.assert_allclose(out[[0, 1, 3]], ref[[0, 1, 3]], rtol=0,
                                   atol=np.finfo(np.float64).eps)
        np.testing.assert_array_equal(out[2], np.tanh(z[2]))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_stored_gates_lie_in_their_ranges(self, reverse):
        # three packed sentences, weights large enough to saturate gates
        rng = np.random.default_rng(8)
        V, B, lengths = 3, 4, np.array([4, 1, 3])
        X = rng.normal(size=(8, V))
        Wx, Wh = rng.normal(0, 5, (V, 4 * B)), rng.normal(0, 5, (B, 4 * B))
        b = 800.0 * rng.choice([-1.0, 0.0, 1.0], size=4 * B)
        gates, _, _ = _lstm(X, Wx, Wh, b, _schedule(lengths, reverse))
        assert gates.shape == (8, 4, B)
        sig, cell = gates[:, [0, 1, 3]], gates[:, 2]
        assert sig.min() >= 0.0 and sig.max() <= 1.0
        assert cell.min() >= -1.0 and cell.max() <= 1.0
        assert {0.0, 1.0} <= set(sig.ravel()) and {-1.0, 1.0} <= set(cell.ravel())


def lstm_arrays(rng, L, V, B, scale=0.5):
    """X, then Wx, Wh and b of the forward and of the backward direction."""
    return [rng.normal(0, scale, shape)
            for shape in ((L, V), *2 * ((V, 4 * B), (B, 4 * B), (4 * B,)))]


def direction(X, Wx, Wh, b, lengths, reverse):
    """One direction as `bilstm` runs it on the tape: its `_lstm` run's
    states in row order, and the backward `_bptt` builds of that run."""
    schedule = _schedule(lengths, reverse)
    run = _lstm(X, Wx, Wh, b, schedule)
    return run[2][np.argsort(schedule[0])], _bptt(X, Wx, Wh, schedule, run)


def fused(X, *weights):
    return bilstm(X, weights[:3], weights[3:], [X.shape[0]])


def composed(X, *weights):
    return bilstm_composed(X, weights[:3], weights[3:])


class TestLstmSequence:
    """The `bilstm` node, which runs the `_lstm` kernel per direction,
    against the per-step oracles of tests/helpers.py."""

    @given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_step_oracles(self, L, B, V, frozen, seed):
        # weight `frozen` does not require grad and must get no gradient
        arrays = lstm_arrays(np.random.default_rng(seed), L, V, B)
        check_fused_node(fused, composed, arrays,
                         [k != frozen for k in range(7)], tol=1e-10)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("L", [1, 4])
    def test_grad_check_every_input(self, L, reverse):
        # X, and the weights of the forward or (reverse) backward direction
        rng = np.random.default_rng(L)
        arrays = lstm_arrays(rng, L, V=3, B=2)
        weights = Tensor(rng.normal(size=(L, 4)))
        for k in (0, 4, 5, 6) if reverse else (0, 1, 2, 3):
            def f(t):
                args = [Tensor(a) for a in arrays]
                args[k] = t
                return (fused(*args) * weights).sum()
            assert grad_check(f, Tensor(arrays[k].copy())) < 1e-6, k

    @pytest.mark.parametrize("reverse", [False, True])
    def test_saturated_gates_raise_no_warning(self, reverse):
        # the forward or (reverse) backward direction's biases at +-800
        rng = np.random.default_rng(5)
        arrays = lstm_arrays(rng, 6, V=3, B=4)
        arrays[6 if reverse else 3] = 800.0 * rng.choice([-1.0, 1.0], size=16)
        check_fused_node(fused, composed, arrays, [True] * 7,
                         central_differences=False, tol=1e-10)

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(6)
        leaves = [Tensor(a, requires_grad=True)
                  for a in lstm_arrays(rng, 5, V=3, B=2)]
        with no_grad():
            out = fused(*leaves)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, fused(*leaves).data)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_kernels_return_a_run_and_its_backward(self, reverse):
        # `_lstm` returns its step-major run, the start row last and zero;
        # `_bptt` the backward of it
        X, Wx, Wh, b = lstm_arrays(np.random.default_rng(9), 5, V=3, B=2)[:4]
        schedule = _schedule(np.array([3, 2]), reverse)
        _, cs, hs = run = _lstm(X, Wx, Wh, b, schedule)
        assert [a.shape for a in run] == [(5, 4, 2), (6, 2), (6, 2)]
        assert not cs[5].any() and not hs[5].any()
        grads = _bptt(X, Wx, Wh, schedule, run)(np.ones((5, 2)))
        assert [g.shape for g in grads] == [X.shape, Wx.shape, Wh.shape,
                                            b.shape]

    def test_no_grad_runs_both_directions_without_a_backward(self,
                                                             monkeypatch):
        # one schedule and one run per direction; a backward only on the tape
        calls = []
        for name in ("_schedule", "_lstm", "_bptt"):
            def recording(*args, kernel=getattr(encoder, name), name=name):
                calls.append(name)
                return kernel(*args)
            monkeypatch.setattr(encoder, name, recording)
        leaves = [Tensor(a, requires_grad=True)
                  for a in lstm_arrays(np.random.default_rng(10), 5, V=3, B=2)]
        with no_grad():
            fused(*leaves)
        assert calls == 2 * ["_schedule", "_lstm"]
        calls.clear()
        fused(*leaves)
        assert calls == 2 * ["_schedule", "_lstm", "_bptt"]

    def test_nonconforming_weights_name_every_shape(self):
        X, *weights = (Tensor(a) for a in
                       lstm_arrays(np.random.default_rng(7), 3, V=3, B=2))
        with pytest.raises(ShapeError, match=re.escape(
                "X (3, 2), forward Wx (3, 8), Wh (2, 8), b (8,), "
                "backward Wx (3, 8), Wh (2, 8), b (8,)")):
            fused(Tensor(X.data[:, :2]), *weights)

    @pytest.mark.parametrize("shapes", [
        [(3, 3), (3, 8), (2, 8), (8,), (3, 8), (2, 8), (9,)],
        [(3, 3), (3, 8), (2, 8), (8,), (3, 12), (3, 12), (12,)],
        [(3,), (3, 8), (2, 8), (8,), (3, 8), (2, 8), (8,)],
    ], ids=["backward-b-too-long", "unequal-unit-sizes", "X-1d"])
    def test_nonconforming_direction_names_every_shape(self, shapes):
        X, *weights = (Tensor(np.zeros(shape)) for shape in shapes)
        with pytest.raises(ShapeError, match=re.escape(
                "X {}, forward Wx {}, Wh {}, b {}, "
                "backward Wx {}, Wh {}, b {}".format(*shapes))):
            fused(X, *weights)

    @pytest.mark.parametrize("capsule, nodes", [(True, 24), (False, 18)],
                             ids=["full", "-Capsule"])
    def test_tape_size_does_not_grow_with_sentence_length(self, capsule, nodes):
        model = tiny_model(L=40, capsule=capsule)
        counts = []
        for n in (3, 30):
            inst = make_instance(["E1"] + ["alpha"] * (n - 2) + ["E2"], L=40)
            a = model.activations([inst], train=True)
            y = label_vector({1}, 3)[None]
            counts.append(tape_nodes(margin_loss(a, y)[0]))
        assert counts == [nodes, nodes]


@st.composite
def blocked_directions(draw):
    """One LSTM direction whose 4B gate columns span two or more blocks of
    `encoder._WH_BLOCK` columns, the last one partial at B = 61: X, Wx,
    Wh, b, the lengths of 1-4 sentences of 1-20 tokens, and `reverse`."""
    B = draw(st.sampled_from([61, 300]))
    lengths = np.array(draw(st.lists(st.integers(1, 20), min_size=1,
                                     max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    V = 7
    return (rng.normal(size=(lengths.sum(), V)),
            rng.normal(0, V ** -0.5, (V, 4 * B)),
            rng.normal(0, 2 * B ** -0.5, (B, 4 * B)),
            rng.normal(0, 0.5, 4 * B), lengths, draw(st.booleans()))


def direction_reference(X, Wx, Wh, b, lengths, reverse, dH):
    """`lstm_direction_reference` run on each sentence of `lengths` on its
    own: the states, and the gradients (dX, dWx, dWh, db) of the states
    weighted by dH."""
    weights = [Tensor(w, requires_grad=True) for w in (Wx, Wh, b)]
    states, dX = [], []
    for lo, hi in encoder.sentence_bounds(lengths):
        x = Tensor(X[lo:hi], requires_grad=True)
        h = lstm_direction_reference(x, *weights, reverse)
        (h * Tensor(dH[lo:hi])).sum().backward()
        states.append(h.data)
        dX.append(x.grad)
    return (np.concatenate(states),
            [np.concatenate(dX), *(w.grad for w in weights)])


def assert_matches_reference(h, grads, ref_h, ref_grads, tol=1e-10):
    np.testing.assert_allclose(h, ref_h, rtol=tol, atol=tol)
    for k, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert relative_gap(g, ref) <= tol, k
        np.testing.assert_allclose(g, ref, rtol=tol, atol=tol, err_msg=str(k))


def traced_peak(f) -> int:
    """The `tracemalloc` peak of a call of f, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedProduct:
    """`_lstm` multiplies each step's states by `Wh` in column blocks.
    Widths where 4B spans several blocks, against the per-step reference
    and the single-product loop of tests/helpers.py."""

    def test_drawn_widths_span_blocks_and_end_on_a_partial_one(self):
        assert 4 * 61 > encoder._WH_BLOCK and 4 * 61 % encoder._WH_BLOCK
        assert 4 * 300 >= 2 * encoder._WH_BLOCK

    @given(blocked_directions())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_the_single_product_loop(self, case):
        # each array of the run within 1e-15 of its own largest entry
        *arrays, lengths, reverse = case
        schedule = _schedule(lengths, reverse)
        run = _lstm(*arrays, schedule)
        ref_run = lstm_single_product(*arrays, schedule)
        for part, ref in zip(run, ref_run):
            assert part.shape == ref.shape
            assert np.abs(part - ref).max() <= 1e-15 * np.abs(ref).max()

    @given(blocked_directions(), st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_states_and_gradients_match_per_step_reference(self, case, seed):
        dH = np.random.default_rng(seed).normal(size=(len(case[0]),
                                                      case[2].shape[0]))
        h, backward = direction(*case)
        assert_matches_reference(h, backward(dH),
                                 *direction_reference(*case, dH))

    @given(blocked_directions(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_adopted_sentence_run_matches_per_step_reference(self, case,
                                                             data):
        # the run of a pass over every sentence, cut to sentence k and
        # adopted through `_bptt` as the train step's `bilstm` adopts it
        X, Wx, Wh, b, lengths, reverse = case
        k = data.draw(st.integers(0, len(lengths) - 1))
        lo, hi = encoder.sentence_bounds(lengths)[k]
        dH = np.random.default_rng(k).normal(size=(hi - lo, Wh.shape[0]))
        [own] = sentence_runs([_lstm(X, Wx, Wh, b,
                                     _schedule(lengths, reverse))], lengths, k)
        one = lengths[k:k + 1]
        schedule = _schedule(one, reverse)
        h = own[2][np.argsort(schedule[0])]
        backward = _bptt(X[lo:hi], Wx, Wh, schedule, own)
        assert_matches_reference(
            h, backward(dH),
            *direction_reference(X[lo:hi], Wx, Wh, b, one, reverse, dH))

    def test_scores_follow_an_in_place_update_of_wh(self):
        # the optimizer updates `Wh.data` in place, so a copy of its blocks
        # kept past one call would score the next with stale weights
        model = tiny_model(B=61)
        bag = Bag(key=(), labels={1}, instances=[
            make_instance(["alpha", "E1"] + ["beta"] * n + ["E2"])
            for n in (1, 4)])
        before = model.scores([bag])[0]
        for name in ("lstm_fwd_Wh", "lstm_bwd_Wh"):
            model.params[name].data *= -2.0
        after = model.scores([bag])[0]
        fresh = tiny_model(B=61)
        for name, p in model.params.items():
            np.copyto(fresh.params[name].data, p.data)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh.scores([bag])[0])

    B, L = 300, 119

    def published_sentence(self):
        """X of one 119-token sentence and both directions' weights at
        B = 300."""
        rng = np.random.default_rng(11)
        B, V, L = self.B, 70, self.L
        X = Tensor(rng.normal(size=(L, V)))
        fwd, bwd = ([Tensor(rng.normal(0, 0.05, shape)) for shape in
                     ((V, 4 * B), (B, 4 * B), (4 * B,))] for _ in range(2))
        return X, fwd, bwd

    def test_no_grad_peak_adds_at_most_one_wh(self, monkeypatch):
        # one no-grad `bilstm` over a 119-token sentence at B = 300 holds
        # at most one more `Wh` than the single-product loop
        X, fwd, bwd = self.published_sentence()

        def peak():
            with no_grad():
                return traced_peak(lambda: bilstm(X, fwd, bwd, [self.L]))
        blocked = peak()
        monkeypatch.setattr(encoder, "_lstm", lstm_single_product)
        assert blocked <= peak() + self.B * 4 * self.B * 8

    def test_no_grad_holds_one_direction_run_at_a_time(self):
        # a run here is 1.72 MB, less than the `Wh` copy the test above
        # allows, so that bound cannot see a run held too long: a no-grad
        # `bilstm` peaks less than one run above one `_lstm` call
        X, fwd, bwd = self.published_sentence()
        weights = [W.data for W in fwd]
        schedule = _schedule(np.array([self.L]), False)
        run_bytes = sum(a.nbytes for a in _lstm(X.data, *weights, schedule))
        one = traced_peak(lambda: _lstm(X.data, *weights, schedule))
        with no_grad():
            both = traced_peak(lambda: bilstm(X, fwd, bwd, [self.L]))
        assert both < one + run_bytes


class TestWordAttention:
    def att(self, L=4, B=3, seed=0):
        rng = np.random.default_rng(seed)
        A = Tensor(rng.normal(size=(2 * B, 2 * B)))
        r = Tensor(rng.normal(size=2 * B))
        return A, r

    def test_identical_rows_get_uniform_weights(self):
        A, r = self.att()
        H = Tensor(np.tile(np.random.default_rng(1).normal(size=6), (4, 1)))
        _, alpha = word_attention(H, A, r, [4])
        np.testing.assert_allclose(alpha.data, 0.25, atol=1e-12)

    def test_identity_bilinear_scores_first_component(self):
        B = 3
        H = Tensor(np.random.default_rng(3).normal(size=(5, 2 * B)))
        A = Tensor(np.eye(2 * B))
        e1 = np.zeros(2 * B)
        e1[0] = 1.0
        _, alpha = word_attention(H, A, Tensor(e1), [5])
        expected = np.exp(H.data[:, 0] - H.data[:, 0].max())
        expected /= expected.sum()
        np.testing.assert_allclose(alpha.data, expected, atol=1e-12)

    def test_scaling_bilinear_matrix_preserves_argmax(self):
        A, r = self.att(seed=6)
        H = Tensor(np.random.default_rng(6).normal(size=(5, 6)))
        _, a1 = word_attention(H, A, r, [5])
        _, a2 = word_attention(H, Tensor(A.data * 7.5), r, [5])
        assert a1.data.argmax() == a2.data.argmax()

    def test_output_rows_are_nonneg_combinations(self):
        A, r = self.att(seed=7)
        H = Tensor(np.random.default_rng(7).normal(size=(4, 6)))
        out, alpha = word_attention(H, A, r, [4])
        assert np.all(alpha.data >= 0)
        assert abs(alpha.data.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(out.data, alpha.data[:, None] * H.data,
                                   atol=1e-15)


class TestWordAttentionNode:
    """`word_attention` is one tape node against the composed graph."""

    @given(st.integers(1, 6), st.integers(1, 5), st.sampled_from([1.0, 1e3]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_composed_graph_and_its_gradient(self, L, width, scale,
                                                     seed):
        # scale 1e3 saturates the softmax: scores hundreds apart
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(L, width)),
                  rng.normal(size=(width, width)) * scale,
                  rng.normal(size=width))
        w = rng.normal(size=(L, width))
        results = []
        for attention in (lambda *t: word_attention(*t, [L]),
                          word_attention_composed):
            leaves = [Tensor(x, requires_grad=True) for x in arrays]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out, alpha = attention(*leaves)
                (out * Tensor(w)).sum().backward()
            results.append((out, alpha, leaves))
        (out, alpha, leaves), (out_ref, alpha_ref, leaves_ref) = results
        np.testing.assert_array_equal(out.data, out_ref.data)
        np.testing.assert_array_equal(alpha.data, alpha_ref.data)
        for leaf, ref in zip(leaves, leaves_ref):
            assert relative_gap(leaf.grad, ref.grad) <= 1e-12
        leaves = [Tensor(x, requires_grad=True) for x in arrays]
        assert word_attention(*leaves, [L])[0]._parents == tuple(leaves)

        # central differences cannot follow a softmax saturated this hard
        if scale != 1.0:
            return
        for k in range(3):
            def f(t):
                args = [Tensor(x) for x in arrays]
                args[k] = t
                return (word_attention(*args, [L])[0] * Tensor(w)).sum()
            assert grad_check(f, Tensor(arrays[k])) < 1e-6

    @pytest.mark.parametrize("shapes", [
        {"H": (4, 6), "A": (6, 6), "r": (6, 1)},
        {"H": (4, 6), "A": (6, 6), "r": (1,)},
        {"H": (4, 6), "A": (5, 6), "r": (6,)},
        {"H": (6,), "A": (6, 6), "r": (6,)},
    ], ids=["r-column", "r-of-one", "A-rows-unequal-H-width", "H-1d"])
    def test_nonconforming_operand_names_every_shape(self, shapes):
        message = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        with pytest.raises(ShapeError, match=re.escape(message)):
            word_attention(*(Tensor(np.zeros(shape))
                             for shape in shapes.values()), [4])


class TestEncoderGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_encoder_composite_grad_check(self, seed):
        model = tiny_model(seed=seed, B=3, L=6, d_p=2)
        inst = make_instance(["alpha", "E1", "beta", "E2"], L=6, M=2)
        weights = np.random.default_rng(100 + seed).normal(size=(4, 6))

        def objective(param_name):
            def f(t):
                old = model.params[param_name]
                model.params[param_name] = t
                try:
                    x_tilde, _ = model.encode([inst], train=False)
                    return (x_tilde * Tensor(weights)).sum()
                finally:
                    model.params[param_name] = old
            return f

        lstm = [f"lstm_{d}_{w}" for d in ("fwd", "bwd") for w in ("Wx", "Wh", "b")]
        for name in ["att_A", "att_r", "word_emb", "pos_emb_0", *lstm]:
            err = grad_check(objective(name),
                             Tensor(model.params[name].data.copy()), eps=1e-5)
            assert err < 1e-4, f"{name}: {err}"
