"""Embedding lookup, Bi-LSTM recurrence, word-level attention."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.autodiff import (ContractViolation, ShapeError, Tensor, grad_check,
                              no_grad)
from capsrel.data import SentenceInstance, missing_bucket
from capsrel.encoder import bilstm, embed, word_attention
from capsrel.training import label_vector, margin_loss
from helpers import (bilstm_composed, check_fused_node,
                     embed_composed, make_instance, relative_gap, tape_nodes,
                     tiny_model, tiny_store, word_attention_composed)


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

    @pytest.mark.parametrize("capsule", [True, False], ids=["full", "-Capsule"])
    def test_empty_sentence_is_a_contract_violation(self, capsule):
        # load_corpus never yields one; a caller building instances might
        model = tiny_model(capsule=capsule)
        inst = SentenceInstance(tokens=[], pairs=[("E1", "E2")], relations=[1],
                                position_ids=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ContractViolation, match="empty sentence"):
            model.activations([inst])

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
        H = bilstm(X, zeros, zeros)
        np.testing.assert_array_equal(H.data, np.zeros((L, 2 * B)))

    def test_single_step_output_width(self):
        rng = np.random.default_rng(1)
        V, B = 3, 4
        H = bilstm(Tensor(rng.normal(size=(1, V))), lstm_params(rng, V, B),
                   lstm_params(rng, V, B))
        assert H.shape == (1, 2 * B)

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(2)
        V, B, L = 3, 4, 5
        fwd = lstm_params(rng, V, B)
        bwd = lstm_params(rng, V, B)
        X = rng.normal(size=(L, V))
        H = bilstm(Tensor(X), fwd, bwd).data
        H_rev = bilstm(Tensor(X[::-1].copy()), bwd, fwd).data
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
                   [Tensor(p) for p in bwd]).data
        H_ref = bilstm_composed(Tensor(X), [Tensor(p) for p in fwd],
                                [Tensor(p) for p in bwd]).data
        np.testing.assert_allclose(H, H_ref, rtol=1e-10, atol=1e-10)


def lstm_arrays(rng, L, V, B, scale=0.5):
    """X, then Wx, Wh and b of the forward and of the backward direction."""
    return [rng.normal(0, scale, shape)
            for shape in ((L, V), *2 * ((V, 4 * B), (B, 4 * B), (4 * B,)))]


def fused(X, *weights):
    return bilstm(X, weights[:3], weights[3:])


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


class TestWordAttention:
    def att(self, L=4, B=3, seed=0):
        rng = np.random.default_rng(seed)
        A = Tensor(rng.normal(size=(2 * B, 2 * B)))
        r = Tensor(rng.normal(size=2 * B))
        return A, r

    def test_identical_rows_get_uniform_weights(self):
        A, r = self.att()
        H = Tensor(np.tile(np.random.default_rng(1).normal(size=6), (4, 1)))
        _, alpha = word_attention(H, A, r)
        np.testing.assert_allclose(alpha.data, 0.25, atol=1e-12)

    def test_identity_bilinear_scores_first_component(self):
        B = 3
        H = Tensor(np.random.default_rng(3).normal(size=(5, 2 * B)))
        A = Tensor(np.eye(2 * B))
        e1 = np.zeros(2 * B)
        e1[0] = 1.0
        _, alpha = word_attention(H, A, Tensor(e1))
        expected = np.exp(H.data[:, 0] - H.data[:, 0].max())
        expected /= expected.sum()
        np.testing.assert_allclose(alpha.data, expected, atol=1e-12)

    def test_scaling_bilinear_matrix_preserves_argmax(self):
        A, r = self.att(seed=6)
        H = Tensor(np.random.default_rng(6).normal(size=(5, 6)))
        _, a1 = word_attention(H, A, r)
        _, a2 = word_attention(H, Tensor(A.data * 7.5), r)
        assert a1.data.argmax() == a2.data.argmax()

    def test_output_rows_are_nonneg_combinations(self):
        A, r = self.att(seed=7)
        H = Tensor(np.random.default_rng(7).normal(size=(4, 6)))
        out, alpha = word_attention(H, A, r)
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
        for attention in (word_attention, word_attention_composed):
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
        assert word_attention(*leaves)[0]._parents == tuple(leaves)

        # central differences cannot follow a softmax saturated this hard
        if scale != 1.0:
            return
        for k in range(3):
            def f(t):
                args = [Tensor(x) for x in arrays]
                args[k] = t
                return (word_attention(*args)[0] * Tensor(w)).sum()
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
                             for shape in shapes.values()))


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
