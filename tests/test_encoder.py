"""Embedding lookup, Bi-LSTM recurrence, word-level attention."""

import numpy as np
import pytest

from capsrel.autodiff import ContractViolation, Tensor, grad_check
from capsrel.data import SentenceInstance, missing_bucket
from capsrel.encoder import bilstm, embed, word_attention
from helpers import bilstm_reference, make_instance, tiny_model, tiny_store


def lstm_params(rng, V, B, scale=0.4):
    return (Tensor(rng.normal(0, scale, (V, 4 * B)), requires_grad=True),
            Tensor(rng.normal(0, scale, (B, 4 * B)), requires_grad=True),
            Tensor(np.zeros(4 * B), requires_grad=True))


class TestEmbed:
    def test_row_width_is_dw_plus_dp_times_m(self):
        model = tiny_model(d_p=5, M=2, store=tiny_store(d_w=4))
        inst = make_instance(["alpha", "E1", "E2"], L=10, M=2)
        X = embed(model.word_ids(inst), inst.position_ids,
                  model.params["word_emb"],
                  [model.params["pos_emb_0"], model.params["pos_emb_1"]])
        assert X.shape == (3, 14)

    @pytest.mark.parametrize("capsule", [True, False], ids=["full", "-Capsule"])
    def test_empty_sentence_is_a_contract_violation(self, capsule):
        # load_corpus never yields one; a caller building instances might
        model = tiny_model(capsule=capsule)
        inst = SentenceInstance(tokens=[], pairs=[("E1", "E2")], relations=[1],
                                position_ids=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ContractViolation, match="empty sentence"):
            model.activations(inst)

    def test_m4_single_pair_uses_missing_bucket_rows(self):
        model = tiny_model(M=4)
        inst = make_instance(["E1", "E2"], L=10, M=4)
        tables = [model.params[f"pos_emb_{m}"] for m in range(4)]
        X = embed(model.word_ids(inst), inst.position_ids,
                  model.params["word_emb"], tables)
        d_w = model.d_w
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
        ids = model.word_ids(inst)
        assert ids[0] == model.store.unk_id


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
        np.testing.assert_allclose(H, bilstm_reference(X, fwd, bwd),
                                   rtol=1e-12, atol=1e-12)


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
                    x_tilde, _ = model.encode(inst, train=False)
                    return (x_tilde * Tensor(weights)).sum()
                finally:
                    model.params[param_name] = old
            return f

        lstm = [f"lstm_{d}_{w}" for d in ("fwd", "bwd") for w in ("Wx", "Wh", "b")]
        for name in ["att_A", "att_r", "word_emb", "pos_emb_0", *lstm]:
            err = grad_check(objective(name),
                             Tensor(model.params[name].data.copy()), eps=1e-5)
            assert err < 1e-4, f"{name}: {err}"
