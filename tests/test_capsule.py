"""Squash, primary capsules, votes, and dynamic routing vs the loop oracle."""

import numpy as np
import pytest

from capsrel.autodiff import ContractViolation, Tensor, grad_check
from capsrel.capsule import dynamic_routing, primary_capsules, squash, votes
from capsrel.training import margin_loss
from helpers import routing_reference, squash_reference, votes_reference


class TestSquash:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(squash(Tensor([0.0, 0.0, 0.0])).data, 0.0)

    def test_unit_vector_scales_to_two_thirds(self):
        out = squash(Tensor([1.0, 0.0])).data
        np.testing.assert_allclose(out, [2 / 3, 0.0], atol=1e-15)

    def test_norm_10(self):
        out = squash(Tensor([10.0, 0.0])).data
        np.testing.assert_allclose(np.linalg.norm(out), 100 / 100.5, atol=1e-12)

    def test_squash_law_over_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.normal(0, rng.uniform(0.01, 5), size=rng.integers(1, 6))
            out = squash(Tensor(x)).data
            n = np.linalg.norm(x)
            assert abs(np.linalg.norm(out) - n * n / (0.5 + n * n)) < 1e-12
            assert np.linalg.norm(out) < 1.0
            # direction preserved
            np.testing.assert_allclose(out / np.linalg.norm(out), x / n,
                                       atol=1e-10)

    def test_norm_strictly_increasing_in_input_norm(self):
        norms = [np.linalg.norm(squash(Tensor([n, 0.0])).data)
                 for n in np.linspace(0.1, 8, 30)]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=4)
            np.testing.assert_allclose(squash(Tensor(x)).data,
                                       squash_reference(x), atol=1e-12)

    def test_rowwise_squash(self):
        X = np.random.default_rng(2).normal(size=(5, 3))
        out = squash(Tensor(X), axis=-1).data
        for i in range(5):
            np.testing.assert_allclose(out[i], squash_reference(X[i]), atol=1e-12)


class TestPrimaryCapsules:
    def params(self, C, d, width, seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(C * d, 2 * width))),
                Tensor(rng.normal(size=C * d)))

    def test_window_count_is_L_plus_1(self):
        C, d, width, L = 3, 2, 4, 3
        Wb, b1 = self.params(C, d, width)
        u, a_hat = primary_capsules(Tensor(np.random.default_rng(1).normal(
            size=(L, width))), Wb, b1, C, d)
        assert u.shape == ((L + 1) * C, d)
        assert a_hat.shape == ((L + 1) * C,)

    def test_zero_input_zero_bias_gives_zero_capsules(self):
        C, d, width, L = 2, 2, 3, 4
        Wb = Tensor(np.random.default_rng(2).normal(size=(C * d, 2 * width)))
        u, a_hat = primary_capsules(Tensor(np.zeros((L, width))), Wb,
                                    Tensor(np.zeros(C * d)), C, d)
        np.testing.assert_array_equal(u.data, 0.0)
        np.testing.assert_array_equal(a_hat.data, 0.0)

    def test_hand_evaluated_tiny_case(self):
        # L=1, C=1, d=2: windows are (0, x) and (x, 0)
        width = 3
        x = np.array([[1.0, -2.0, 0.5]])
        Wb = np.random.default_rng(3).normal(size=(2, 2 * width))
        b1 = np.array([0.3, -0.1])
        u, a_hat = primary_capsules(Tensor(x), Tensor(Wb), Tensor(b1), 1, 2)
        w0 = np.concatenate([np.zeros(width), x[0]])   # window before x
        w1 = np.concatenate([x[0], np.zeros(width)])   # window after x
        exp0 = squash_reference(Wb @ w0 + b1)
        exp1 = squash_reference(Wb @ w1 + b1)
        np.testing.assert_allclose(u.data[0], exp0, atol=1e-12)
        np.testing.assert_allclose(u.data[1], exp1, atol=1e-12)
        np.testing.assert_allclose(a_hat.data,
                                   [np.linalg.norm(exp0), np.linalg.norm(exp1)],
                                   atol=1e-12)

    def test_activation_equals_capsule_norm(self):
        C, d, width, L = 2, 3, 4, 5
        Wb, b1 = self.params(C, d, width, seed=4)
        u, a_hat = primary_capsules(Tensor(np.random.default_rng(4).normal(
            size=(L, width))), Wb, b1, C, d)
        np.testing.assert_allclose(a_hat.data,
                                   np.linalg.norm(u.data, axis=1), atol=1e-12)
        assert np.all(a_hat.data < 1.0)

    def test_filter_bank_shape_checked(self):
        with pytest.raises(ContractViolation):
            primary_capsules(Tensor(np.zeros((3, 4))),
                             Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)), 2, 2)


class TestVotes:
    def test_identity_transform_copies_children(self):
        H, E, d = 4, 3, 2
        u = Tensor(np.random.default_rng(5).normal(size=(H, d)))
        Wc = Tensor(np.stack([np.eye(d)] * E))
        out = votes(u, Wc, Tensor(np.zeros((E, d))))
        for j in range(E):
            np.testing.assert_allclose(out.data.transpose(2, 0, 1)[:, j], u.data,
                                       atol=1e-15)

    def test_zero_children_zero_bias_give_zero_votes(self):
        out = votes(Tensor(np.zeros((3, 2))),
                    Tensor(np.random.default_rng(6).normal(size=(2, 2, 2))),
                    Tensor(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_hand_2x2_matrix_vector(self):
        u = Tensor(np.array([[1.0, 2.0]]))
        W = np.array([[[3.0, -1.0], [0.5, 2.0]]])
        b = np.array([[0.1, -0.2]])
        out = votes(u, Tensor(W), Tensor(b))
        np.testing.assert_allclose(out.data.transpose(2, 0, 1)[0, 0],
                                   [3 * 1 - 1 * 2 + 0.1, 0.5 * 1 + 2 * 2 - 0.2],
                                   atol=1e-12)


    @pytest.mark.parametrize("H,E,d", [(1, 1, 1), (5, 3, 2), (33, 53, 8)])
    def test_matches_per_parent_loop_oracle(self, H, E, d):
        rng = np.random.default_rng(H * E * d)
        u = rng.normal(size=(H, d))
        u[-1] = 0.0  # a child from a zero-padded window
        Wc = rng.normal(size=(E, d, d))
        b_hat = rng.normal(size=(E, d))
        out = votes(Tensor(u), Tensor(Wc), Tensor(b_hat)).data.transpose(2, 0, 1)
        np.testing.assert_allclose(out, votes_reference(u, Wc, b_hat),
                                   rtol=1e-12, atol=1e-12)

    def test_paper_shape_equals_transposed_oracle_bit_for_bit(self):
        # Multiples of 1/32 up to 128 are exact in float64, so every
        # summation order gives the same bits and the test sees only layout.
        rng = np.random.default_rng(12)
        H, E, d = 3840, 53, 8
        u = rng.integers(-8, 9, size=(H, d)) / 4.0
        u[-32:] = 0.0  # children from a zero-padded window
        Wc = rng.integers(-8, 9, size=(E, d, d)) / 8.0
        b_hat = rng.integers(-8, 9, size=(E, d)) / 32.0
        out = votes(Tensor(u), Tensor(Wc), Tensor(b_hat)).data
        assert out.shape == (E, d, H)
        np.testing.assert_array_equal(out.transpose(2, 0, 1),
                                      votes_reference(u, Wc, b_hat))


class TestDynamicRouting:
    def rand_case(self, H, E, d, seed):
        rng = np.random.default_rng(seed)
        u_hat = rng.normal(0, 0.8, size=(H, E, d))
        a_hat = rng.uniform(0, 1, size=H)
        return u_hat, a_hat

    def test_identical_votes_give_identical_parents(self):
        vote = np.random.default_rng(7).normal(size=3)
        u_hat = np.stack([np.stack([vote, vote])])  # H=1, E=2
        v, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)), Tensor([0.7]), 3)
        np.testing.assert_array_equal(v.data[0], v.data[1])
        assert a.data[0] == a.data[1]

    def test_zero_activations_give_zero_parents(self):
        u_hat, _ = self.rand_case(4, 3, 2, seed=8)
        v, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)),
                               Tensor(np.zeros(4)), 3)
        np.testing.assert_array_equal(v.data, 0.0)
        np.testing.assert_array_equal(a.data, 0.0)

    def test_first_iteration_uses_uniform_couplings(self):
        u_hat, a_hat = self.rand_case(5, 3, 2, seed=9)
        v, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)), Tensor(a_hat), 1)
        ref_v, ref_a = routing_reference(u_hat, a_hat, 1)
        # from b=0 the softmax is uniform: c[i] = a_hat[i]/E
        s = (a_hat[:, None, None] / 3 * u_hat).sum(axis=0)
        for j in range(3):
            np.testing.assert_allclose(v.data[j], squash_reference(s[j]),
                                       atol=1e-12)
        np.testing.assert_allclose(v.data, ref_v, atol=1e-12)
        np.testing.assert_allclose(a.data, ref_a, atol=1e-12)

    @pytest.mark.parametrize("iters", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_explicit_loop_oracle(self, iters, seed):
        rng = np.random.default_rng(1000 + seed)
        H = int(rng.integers(1, 13))
        E = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        u_hat, a_hat = self.rand_case(H, E, d, seed=2000 + seed)
        v, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)), Tensor(a_hat), iters)
        ref_v, ref_a = routing_reference(u_hat, a_hat, iters)
        np.testing.assert_allclose(v.data, ref_v, atol=1e-10)
        np.testing.assert_allclose(a.data, ref_a, atol=1e-10)

    def test_parent_permutation_equivariance(self):
        u_hat, a_hat = self.rand_case(6, 4, 3, seed=10)
        perm = np.array([2, 0, 3, 1])
        v, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)), Tensor(a_hat), 3)
        vp, ap = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)[perm]),
                                 Tensor(a_hat), 3)
        np.testing.assert_allclose(vp.data, v.data[perm], atol=1e-12)
        np.testing.assert_allclose(ap.data, a.data[perm], atol=1e-12)

    def test_couplings_per_child_sum_to_activation(self, monkeypatch):
        # the couplings are the E x H x 1 right operand of each coupling sum
        matmul = Tensor.__matmul__
        couplings = []

        def recording(a, b):
            if a.ndim == 3 and b.shape[-1] == 1:
                couplings.append(b.data[:, :, 0].copy())
            return matmul(a, b)

        monkeypatch.setattr(Tensor, "__matmul__", recording)
        u_hat, a_hat = self.rand_case(7, 3, 2, seed=11)
        _, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)),
                               Tensor(a_hat), 3)
        assert len(couplings) == 3
        for c in couplings:
            np.testing.assert_allclose(c.sum(axis=0), a_hat, atol=1e-12)
        assert np.all(a.data < 1.0)

    def test_paper_shape_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        H, E, d = 200, 53, 8
        u_hat, a_hat = self.rand_case(H, E, d, seed=13)
        a_hat[rng.choice(H, size=40, replace=False)] = 0.0
        v, a = dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)), Tensor(a_hat), 3)
        ref_v, ref_a = routing_reference(u_hat, a_hat, 3)
        np.testing.assert_allclose(v.data, ref_v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.data, ref_a, rtol=1e-12, atol=1e-12)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ContractViolation):
            dynamic_routing(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)), 0)

    @pytest.mark.parametrize("iters", [1, 2, 3, 4])
    def test_runs_2r_minus_1_stacked_products(self, monkeypatch, iters):
        # one coupling sum per iteration and one agreement update between
        # iterations; none after the last, whose logits nothing reads
        matmul = Tensor.__matmul__
        stacked = []

        def counting(a, b):
            stacked.append(a.ndim == 3)
            return matmul(a, b)

        monkeypatch.setattr(Tensor, "__matmul__", counting)
        u_hat, a_hat = self.rand_case(6, 3, 2, seed=12)
        dynamic_routing(Tensor(u_hat.transpose(1, 2, 0)), Tensor(a_hat), iters)
        assert sum(stacked) == 2 * iters - 1


class TestCapsuleGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_votes_routing_margin_composite(self, seed):
        rng = np.random.default_rng(seed)
        H, E, d = 4, 3, 2
        u = rng.normal(0, 0.6, size=(H, d))
        Wc = rng.normal(0, 0.6, size=(E, d, d))
        b_hat = rng.normal(0, 0.2, size=(E, d))
        y = np.zeros(E)
        y[seed % E] = 1.0

        def f_wc(t):
            u_hat = votes(Tensor(u), t, Tensor(b_hat))
            _, a = dynamic_routing(u_hat, Tensor(np.linalg.norm(u, axis=1)), 3)
            total, _ = margin_loss(a, y)
            return total

        def f_u(t):
            a_hat = t.norm(axis=1)
            u_hat = votes(t, Tensor(Wc), Tensor(b_hat))
            _, a = dynamic_routing(u_hat, a_hat, 3)
            total, _ = margin_loss(a, y)
            return total

        def f_bhat(t):
            u_hat = votes(Tensor(u), Tensor(Wc), t)
            _, a = dynamic_routing(u_hat, Tensor(np.linalg.norm(u, axis=1)), 3)
            total, _ = margin_loss(a, y)
            return total

        assert grad_check(f_wc, Tensor(Wc), eps=1e-5) < 1e-4
        assert grad_check(f_bhat, Tensor(b_hat), eps=1e-5) < 1e-4
        assert grad_check(f_u, Tensor(u), eps=1e-5) < 1e-4

    @pytest.mark.parametrize("seed", range(2))
    def test_primary_capsules_grad(self, seed):
        rng = np.random.default_rng(50 + seed)
        C, d, width, L = 2, 2, 3, 3
        x = rng.normal(size=(L, width))
        b1 = rng.normal(0, 0.2, size=C * d)
        w = rng.normal(size=((L + 1) * C, d))

        def f(t):
            u, a_hat = primary_capsules(Tensor(x), t, Tensor(b1), C, d)
            return (u * Tensor(w)).sum() + (a_hat * a_hat).sum()

        Wb = rng.normal(0, 0.6, size=(C * d, 2 * width))
        assert grad_check(f, Tensor(Wb), eps=1e-5) < 1e-4
