"""Squash, primary capsules, votes, and dynamic routing vs the loop oracle."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsrel import capsule
from capsrel.autodiff import ContractViolation, ShapeError, Tensor, grad_check
from capsrel.capsule import (capsule_length, dynamic_routing, primary_capsules,
                             squash, votes)
from capsrel.training import margin_loss
from helpers import (add, check_fused_node, dynamic_routing_composed,
                     primary_capsules_composed, relative_gap, reshape,
                     route_per_iteration, routing_reference, vote_factors,
                     votes_composed)


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
                                       squash_formula(x, -1), atol=1e-12)

    def test_rowwise_squash(self):
        X = np.random.default_rng(2).normal(size=(5, 3))
        out = squash(Tensor(X)).data
        for i in range(5):
            np.testing.assert_allclose(out[i], squash_formula(X[i], -1),
                                       atol=1e-12)


def squash_formula(x: np.ndarray, axis: int) -> np.ndarray:
    """squash as five generic ops computed it: norm, *, +, /, *."""
    n = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    return x * (n / (0.5 + n * n))


@st.composite
def capsule_arrays(draw):
    """(x, axis): m capsules of dim d, some exactly zero, on a 0.1 grid so
    that every other capsule is at least 0.1 long; along axis 0 the
    capsules are columns."""
    m, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    x = np.array(draw(st.lists(st.integers(-40, 40), min_size=m * d,
                               max_size=m * d)), dtype=float).reshape(m, d) / 10
    x[draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0.0
    axis = draw(st.sampled_from([0, -1]))
    return (x.T.copy() if axis == 0 else x), axis


class TestSquashNodes:
    """`squash` and `capsule_length` are one tape node each, on the law."""

    @given(capsule_arrays())
    @settings(max_examples=60, deadline=None)
    def test_match_the_law_and_its_gradient(self, case):
        x, axis = case
        # the nodes take capsules on the last axis: the drawn axis moves
        # there before each call, and back after
        x_last = np.moveaxis(x, axis, -1)
        out = np.moveaxis(squash(Tensor(x_last)).data, -1, axis)
        np.testing.assert_array_equal(out, squash_formula(x, axis))
        np.testing.assert_allclose(capsule_length(Tensor(x_last)).data,
                                   np.linalg.norm(out, axis=axis),
                                   rtol=0, atol=1e-15)

        w = np.random.default_rng(x.size).normal(size=x.shape)
        zero = np.linalg.norm(x, axis=axis, keepdims=True) == 0.0
        for node in (squash, capsule_length):
            leaf = Tensor(x_last, requires_grad=True)
            out = node(leaf)
            assert out._parents == (leaf,)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (out * Tensor(np.moveaxis(w, axis, -1) if node is squash
                              else w.sum(axis=axis))).sum().backward()
            grad = np.moveaxis(leaf.grad, -1, axis)
            assert np.all(grad[np.broadcast_to(zero, x.shape)] == 0.0)

        # squash is not twice differentiable at the zero vector, so central
        # differences there are off by 2 eps; its check skips zero capsules
        live = ~zero.reshape(-1)
        x_live = x[:, live] if axis == 0 else x[live]
        w_live = w[:, live] if axis == 0 else w[live]
        if x_live.size:
            w_last = Tensor(np.moveaxis(w_live, axis, -1))
            assert grad_check(lambda t: (squash(t) * w_last).sum(),
                              Tensor(np.moveaxis(x_live, axis, -1))) < 1e-6
        assert grad_check(lambda t: (capsule_length(t)
                                     * Tensor(w.sum(axis=axis))).sum(),
                          Tensor(x_last)) < 1e-6


class TestPrimaryCapsules:
    def params(self, C, d, width, seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(C * d, 2 * width))),
                Tensor(rng.normal(size=C * d)))

    def test_window_count_is_L_plus_1(self):
        C, d, width, L = 3, 2, 4, 3
        Wb, b1 = self.params(C, d, width)
        u, a_hat = primary_capsules(Tensor(np.random.default_rng(1).normal(
            size=(L, width))), Wb, b1, C, d, [L])
        assert u.shape == ((L + 1) * C, d)
        assert a_hat.shape == ((L + 1) * C,)

    def test_zero_input_zero_bias_gives_zero_capsules(self):
        C, d, width, L = 2, 2, 3, 4
        Wb = Tensor(np.random.default_rng(2).normal(size=(C * d, 2 * width)))
        u, a_hat = primary_capsules(Tensor(np.zeros((L, width))), Wb,
                                    Tensor(np.zeros(C * d)), C, d, [L])
        np.testing.assert_array_equal(u.data, 0.0)
        np.testing.assert_array_equal(a_hat.data, 0.0)

    def test_hand_evaluated_tiny_case(self):
        # L=1, C=1, d=2: windows are (0, x) and (x, 0)
        width = 3
        x = np.array([[1.0, -2.0, 0.5]])
        Wb = np.random.default_rng(3).normal(size=(2, 2 * width))
        b1 = np.array([0.3, -0.1])
        u, a_hat = primary_capsules(Tensor(x), Tensor(Wb), Tensor(b1), 1, 2,
                                    [1])
        w0 = np.concatenate([np.zeros(width), x[0]])   # window before x
        w1 = np.concatenate([x[0], np.zeros(width)])   # window after x
        exp0 = squash_formula(Wb @ w0 + b1, -1)
        exp1 = squash_formula(Wb @ w1 + b1, -1)
        np.testing.assert_allclose(u.data[0], exp0, atol=1e-12)
        np.testing.assert_allclose(u.data[1], exp1, atol=1e-12)
        np.testing.assert_allclose(a_hat.data,
                                   [np.linalg.norm(exp0), np.linalg.norm(exp1)],
                                   atol=1e-12)

    def test_activation_equals_capsule_norm(self):
        C, d, width, L = 2, 3, 4, 5
        Wb, b1 = self.params(C, d, width, seed=4)
        u, a_hat = primary_capsules(Tensor(np.random.default_rng(4).normal(
            size=(L, width))), Wb, b1, C, d, [L])
        np.testing.assert_allclose(a_hat.data,
                                   np.linalg.norm(u.data, axis=1), atol=1e-12)
        assert np.all(a_hat.data < 1.0)

    def test_filter_bank_shape_checked(self):
        with pytest.raises(ShapeError, match=r"Wb \(4, 5\)"):
            primary_capsules(Tensor(np.zeros((3, 4))),
                             Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)), 2, 2,
                             [3])


def assert_reads_as(factors, u_hat: np.ndarray, tol: float = 0.0) -> None:
    """Routing's contractions on factored votes give what they give on the
    E x d x H votes u_hat: the parent sum, `_expand` of the contracted
    couplings c @ [x | 1], under couplings that are multiples of 1/8, and
    the agreement of `_contract` with [x | 1] for each unit vector e_k,
    which reads u_hat[:, k] back. Exact (tol 0) unless `tol` is given."""
    arrays = tuple(t.data for t in factors)
    E, d, H = u_hat.shape
    xa = np.column_stack((arrays[0], np.ones(H)))
    c = np.random.default_rng(H).integers(0, 9, size=(E, H)) / 8.0
    np.testing.assert_allclose(capsule._expand(arrays, c @ xa),
                               (u_hat @ c[:, :, None])[:, :, 0],
                               rtol=tol, atol=tol)
    for k in range(d):
        unit = np.zeros((E, d))
        unit[:, k] = 1.0
        np.testing.assert_allclose(
            capsule._agreement(capsule._contract(arrays, unit), xa),
            u_hat[:, k], rtol=tol, atol=tol)


class TestVotes:
    """`votes` keeps the votes factored; the composed oracle forms them."""

    def test_identity_transform_copies_children(self):
        H, E, d = 4, 3, 2
        u = Tensor(np.random.default_rng(5).normal(size=(H, d)))
        Wc = Tensor(np.stack([np.eye(d)] * E))
        b_hat = Tensor(np.zeros((E, d)))
        u_hat = votes_composed(u, Wc, b_hat).data
        for j in range(E):
            np.testing.assert_allclose(u_hat.transpose(2, 0, 1)[:, j], u.data,
                                       atol=1e-15)
        factors = votes(u, Wc, b_hat)
        assert all(f is t for f, t in zip(factors, (u, Wc, b_hat)))
        assert_reads_as(factors, u_hat, tol=1e-14)

    def test_zero_children_zero_bias_give_zero_votes(self):
        args = (Tensor(np.zeros((3, 2))),
                Tensor(np.random.default_rng(6).normal(size=(2, 2, 2))),
                Tensor(np.zeros((2, 2))))
        np.testing.assert_array_equal(votes_composed(*args).data, 0.0)
        assert_reads_as(votes(*args), np.zeros((2, 2, 3)))

    def test_hand_2x2_matrix_vector(self):
        args = (Tensor(np.array([[1.0, 2.0]])),
                Tensor(np.array([[[3.0, -1.0], [0.5, 2.0]]])),
                Tensor(np.array([[0.1, -0.2]])))
        u_hat = np.array([3 * 1 - 1 * 2 + 0.1, 0.5 * 1 + 2 * 2 - 0.2]
                         ).reshape((1, 2, 1))
        np.testing.assert_allclose(votes_composed(*args).data, u_hat,
                                   atol=1e-12)
        assert_reads_as(votes(*args), u_hat, tol=1e-12)

    @pytest.mark.parametrize("H,E,d", [(1, 1, 1), (5, 3, 2), (33, 53, 8)])
    def test_matches_per_parent_loop_oracle(self, H, E, d):
        # the composed graph's E x d x H votes, parent by parent
        rng = np.random.default_rng(H * E * d)
        u = rng.normal(size=(H, d))
        u[-1] = 0.0  # a child from a zero-padded window
        Wc = rng.normal(size=(E, d, d))
        b_hat = rng.normal(size=(E, d))
        args = Tensor(u), Tensor(Wc), Tensor(b_hat)
        u_hat = votes_composed(*args).data
        for j in range(E):
            np.testing.assert_allclose(u_hat[j], Wc[j] @ u.T + b_hat[j, :, None],
                                       rtol=1e-12, atol=1e-12)
        assert_reads_as(votes(*args), u_hat, tol=1e-12)

    def test_paper_shape_equals_transposed_oracle_bit_for_bit(self):
        # Multiples of 1/32 up to 128 are exact in float64, so every
        # summation order gives the same bits and the test sees only layout.
        rng = np.random.default_rng(12)
        H, E, d = 3840, 53, 8
        u = rng.integers(-8, 9, size=(H, d)) / 4.0
        u[-32:] = 0.0  # children from a zero-padded window
        Wc = rng.integers(-8, 9, size=(E, d, d)) / 8.0
        b_hat = rng.integers(-8, 9, size=(E, d)) / 32.0
        args = Tensor(u), Tensor(Wc), Tensor(b_hat)
        u_hat = votes_composed(*args).data
        assert u_hat.shape == (E, d, H)
        np.testing.assert_array_equal(
            u_hat, np.einsum("jkm,im->jki", Wc, u) + b_hat[:, :, None])
        assert_reads_as(votes(*args), u_hat)


def normal_arrays(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for shape in shapes]


def one_sentence(outs):
    """A one-sentence composed graph's outputs as the 1 x ... outputs of
    the layer called with `lengths` [H]."""
    return tuple(reshape(o, (1, *o.shape)) for o in outs)


class TestCapsuleNodes:
    """`primary_capsules` is one tape node, and routing on the factors
    `votes` returns matches routing on the votes the composed graph forms;
    b1 and b_hat may not require grad."""

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_primary_capsules_match_composed_graph(self, L, width, C, d,
                                                   bias_grad, seed):
        arrays = normal_arrays(seed, (L, width), (C * d, 2 * width), (C * d,))
        # the squash and capsule_length nodes sit on the one fused node
        check_fused_node(
            lambda *t: primary_capsules(*t, C, d, [L]),
            lambda *t: primary_capsules_composed(*t, C, d),
            arrays, [True, True, bias_grad], interior=3)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([1, 2, 3, 5]),
           st.lists(st.booleans(), min_size=5, max_size=5), st.booleans(),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_votes_match_composed_graph(self, H, E, d, iters, zeros,
                                        bias_grad, seed):
        # routing on the factored votes against routing on the E x d x H
        # votes of the composed graph, with exact zeros in a_hat. The
        # votes are unsaturated: at parent inputs of norm ~300 the a_hat
        # gradient cancels terms ~1e6 times its size, and the two sum
        # orders then differ by ~1e-10 of it. TestRoutingNode checks
        # saturated couplings, where both graphs run the same arithmetic.
        # the scales of TestCapsuleGradients and c01: at unit scales, five
        # iterations can make routing steep enough that grad_check's
        # truncation error, which grows as eps^2, passes its 1e-6 bound
        u, Wc, b_hat, a_hat = normal_arrays(seed, (H, d), (E, d, d), (E, d),
                                            (H,))
        u, Wc, b_hat, a_hat = 0.6 * u, 0.6 * Wc, 0.2 * b_hat, np.abs(a_hat)
        a_hat[np.array(zeros[:H])] = 0.0

        def fused(u, Wc, b_hat, a_hat):
            return dynamic_routing(votes(u, Wc, b_hat), a_hat, iters, [H])

        # squash has a kink at a zero parent input, where central
        # differences fail; an all-zero a_hat leaves every parent there,
        # and couplings that vanish leave one near it. An activation of
        # 1e-6 is a parent input of norm 7e-4, far beyond grad_check's eps.
        _, act = fused(*(Tensor(x) for x in (u, Wc, b_hat, a_hat)))
        check_fused_node(
            fused,
            lambda u, Wc, b_hat, a_hat: one_sentence(dynamic_routing_composed(
                votes_composed(u, Wc, b_hat), a_hat, iters)),
            [u, Wc, b_hat, a_hat], [True, True, bias_grad, True],
            interior=3, central_differences=act.data.min() > 1e-6, tol=1e-10)

    @pytest.mark.parametrize("layer, shapes", [
        ("votes", {"u": (5, 3), "Wc": (2, 2, 2), "b_hat": (2, 2)}),
        ("votes", {"u": (5, 2), "Wc": (2, 2, 2), "b_hat": (1, 2)}),
        ("votes", {"u": (5, 2), "Wc": (2, 2, 3), "b_hat": (2, 2)}),
        ("primary_capsules", {"x_tilde": (3, 2), "Wb": (4, 4), "b1": (5,)}),
        ("primary_capsules", {"x_tilde": (3, 2), "Wb": (4, 4), "b1": (1,)}),
        ("primary_capsules", {"x_tilde": (3,), "Wb": (4, 4), "b1": (4,)}),
    ], ids=["u-wider-than-d", "b_hat-one-parent", "Wc-not-square",
            "b1-too-long", "b1-of-one", "x_tilde-1d"])
    def test_nonconforming_operand_names_every_shape(self, layer, shapes):
        args = [Tensor(np.zeros(shape)) for shape in shapes.values()]
        fn = votes if layer == "votes" else (
            lambda *t: primary_capsules(*t, C=2, d=2, lengths=[3]))
        message = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        with pytest.raises(ShapeError, match=re.escape(message)):
            fn(*args)


class TestDynamicRouting:
    def rand_case(self, H, E, d, seed):
        rng = np.random.default_rng(seed)
        u_hat = rng.normal(0, 0.8, size=(H, E, d))
        a_hat = rng.uniform(0, 1, size=H)
        return u_hat, a_hat

    def test_identical_votes_give_identical_parents(self):
        vote = np.random.default_rng(7).normal(size=3)
        u_hat = np.stack([np.stack([vote, vote])])  # H=1, E=2
        v, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor([0.7]), 3, [1])
        np.testing.assert_array_equal(v.data[0][0], v.data[0][1])
        assert a.data[0][0] == a.data[0][1]

    def test_zero_activations_give_zero_parents(self):
        u_hat, _ = self.rand_case(4, 3, 2, seed=8)
        v, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor(np.zeros(4)), 3, [4])
        np.testing.assert_array_equal(v.data, 0.0)
        np.testing.assert_array_equal(a.data, 0.0)

    def test_first_iteration_uses_uniform_couplings(self):
        u_hat, a_hat = self.rand_case(5, 3, 2, seed=9)
        v, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor(a_hat), 1, [5])
        ref_v, ref_a = routing_reference(u_hat, a_hat, 1)
        # from b=0 the softmax is uniform: c[i] = a_hat[i]/E
        s = (a_hat[:, None, None] / 3 * u_hat).sum(axis=0)
        for j in range(3):
            np.testing.assert_allclose(v.data[0][j], squash_formula(s[j], -1),
                                       atol=1e-12)
        np.testing.assert_allclose(v.data[0], ref_v, atol=1e-12)
        np.testing.assert_allclose(a.data[0], ref_a, atol=1e-12)

    @pytest.mark.parametrize("iters", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_explicit_loop_oracle(self, iters, seed):
        rng = np.random.default_rng(1000 + seed)
        H = int(rng.integers(1, 13))
        E = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        u_hat, a_hat = self.rand_case(H, E, d, seed=2000 + seed)
        v, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor(a_hat), iters, [H])
        ref_v, ref_a = routing_reference(u_hat, a_hat, iters)
        np.testing.assert_allclose(v.data[0], ref_v, atol=1e-10)
        np.testing.assert_allclose(a.data[0], ref_a, atol=1e-10)

    def test_parent_permutation_equivariance(self):
        u_hat, a_hat = self.rand_case(6, 4, 3, seed=10)
        perm = np.array([2, 0, 3, 1])
        v, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor(a_hat), 3, [6])
        vp, ap = dynamic_routing(
            vote_factors(Tensor(u_hat.transpose(1, 2, 0)[perm])),
            Tensor(a_hat), 3, [6])
        np.testing.assert_allclose(vp.data[0], v.data[0][perm], atol=1e-12)
        np.testing.assert_allclose(ap.data[0], a.data[0][perm], atol=1e-12)

    def test_couplings_per_child_sum_to_activation(self, monkeypatch):
        # the couplings are the weights of each forward parent sum: on the
        # factors (I_H, u_hat, 0) its contracted form c @ [I_H | 1] holds
        # them in its first H columns (one row for every parent in the
        # first iteration) and their sum over children in the last
        expand = capsule._expand
        contracted = []

        def recording(u_hat, y):
            contracted.append(y.copy())
            return expand(u_hat, y)

        monkeypatch.setattr(capsule, "_expand", recording)
        u_hat, a_hat = self.rand_case(7, 3, 2, seed=11)
        _, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor(a_hat), 3, [7])
        assert len(contracted) == 3
        for y in contracted:
            c = np.broadcast_to(y[:, :7], (3, 7))
            np.testing.assert_allclose(c.sum(axis=0), a_hat, atol=1e-12)
            np.testing.assert_allclose(y[:, 7], y[:, :7].sum(axis=1),
                                       atol=1e-12)
        assert np.all(a.data < 1.0)

    def test_paper_shape_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        H, E, d = 200, 53, 8
        u_hat, a_hat = self.rand_case(H, E, d, seed=13)
        a_hat[rng.choice(H, size=40, replace=False)] = 0.0
        v, a = dynamic_routing(vote_factors(Tensor(u_hat.transpose(1, 2, 0))),
                               Tensor(a_hat), 3, [H])
        ref_v, ref_a = routing_reference(u_hat, a_hat, 3)
        np.testing.assert_allclose(v.data[0], ref_v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.data[0], ref_a, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("u, Wc, b_hat, a_hat", [
        ((4, 2), (3, 2, 2), (3, 2), (1,)), ((4, 2), (3, 2, 2), (3, 2), (3, 4)),
        ((4, 2), (3, 2, 2), (3, 2), (5,)), ((4, 2), (3, 2, 3), (3, 2), (4,)),
        ((4, 2), (3, 2, 2), (1, 2), (4,)), ((4,), (3, 2, 2), (3, 2), (4,))],
        ids=["a_hat-of-one", "a_hat-per-parent", "a_hat-too-long",
             "Wc-wider-than-u", "b_hat-one-parent", "u-1d"])
    def test_nonconforming_factors_name_every_shape(self, u, Wc, b_hat, a_hat):
        factors = tuple(Tensor(np.zeros(shape)) for shape in (u, Wc, b_hat))
        with pytest.raises(ShapeError, match=re.escape(
                f"u {u}, Wc {Wc}, b_hat {b_hat}, a_hat {a_hat}")):
            dynamic_routing(factors, Tensor(np.zeros(a_hat)), 3, [4])

    def test_kernel_keeps_a_backward_only_on_the_tape(self):
        rng = np.random.default_rng(15)
        H, E, d = 5, 3, 2
        factors = (rng.normal(size=(H, d)), rng.normal(size=(E, d, d)),
                   rng.normal(size=(E, d)))
        a_hat = rng.uniform(0, 1, size=H)
        s, backward = capsule._route(factors, a_hat, 3, keep=False)
        s_kept, backward_kept = capsule._route(factors, a_hat, 3, keep=True)
        assert backward is None
        np.testing.assert_array_equal(s, s_kept)
        # the gradient of every array the kernel read: x, W, b and a_hat
        grads = backward_kept(rng.normal(size=s.shape))
        assert [g.shape for g in grads] == [(H, d), (E, d, d), (E, d), (H,)]

    def test_factored_votes_never_form_the_vote_tensor(self):
        # wide capsules make one E x d x H array larger than everything
        # routing keeps: its E x H couplings and the H x d child gradient
        H, E, d = 4000, 8, 32
        rng = np.random.default_rng(14)
        factors = [Tensor(rng.normal(0, 0.3, size=shape), requires_grad=True)
                   for shape in ((H, d), (E, d, d), (E, d))]
        a_hat = Tensor(rng.uniform(0, 1, size=H), requires_grad=True)
        tracemalloc.start()
        try:
            v, a = dynamic_routing(votes(*factors), a_hat, 3, [H])
            add(v.sum(), a.sum()).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < E * d * H * 8, peak

    def test_rejects_zero_iterations(self):
        with pytest.raises(ContractViolation):
            dynamic_routing(vote_factors(Tensor(np.zeros((2, 2, 2)))),
                            Tensor(np.zeros(2)), 0, [2])

    @pytest.mark.parametrize("iters", [True, 2.5, np.float64(3.0), "3"],
                             ids=["bool", "float", "numpy-float", "str"])
    def test_rejects_non_integer_iterations(self, iters):
        with pytest.raises(ContractViolation, match=re.escape(repr(iters))):
            dynamic_routing(vote_factors(Tensor(np.zeros((2, 2, 2)))),
                            Tensor(np.zeros(2)), iters, [2])

    @pytest.mark.parametrize("iters", [1, 2, 3, 4])
    def test_runs_2r_minus_1_stacked_products(self, monkeypatch, iters):
        # forward: one parent sum (`_expand`) per iteration and one
        # agreement update (`_contract`) between iterations, none after the
        # last, whose logits nothing reads; backward: the mirror image. Each
        # direction forms one E x H array (`_agreement`) per iteration after
        # the first, and the first forms none.
        calls = []
        for name in ("_expand", "_contract", "_agreement"):
            def counting(*args, fn=getattr(capsule, name), name=name):
                out = fn(*args)
                calls.append((name, out.shape))
                return out
            monkeypatch.setattr(capsule, name, counting)
        u_hat, a_hat = self.rand_case(6, 3, 2, seed=12)

        def assert_counts(expand, contract):
            names = [name for name, _ in calls]
            assert names.count("_expand") == expand
            assert names.count("_contract") == contract
            assert [shape for name, shape in calls if name == "_agreement"
                    ] == [(3, 6)] * (iters - 1)
            calls.clear()

        v, a = dynamic_routing(
            vote_factors(Tensor(u_hat.transpose(1, 2, 0), requires_grad=True)),
            Tensor(a_hat), iters, [6])
        assert_counts(expand=iters, contract=iters - 1)
        add(v.sum(), a.sum()).backward()
        assert_counts(expand=iters - 1, contract=iters)


@st.composite
def routing_cases(draw):
    """(u_hat, a_hat, iterations, scale) over E x d x H votes; a_hat has
    exact zeros, and votes scaled by 30 saturate the coupling softmax."""
    E, d, H = (draw(st.integers(1, n)) for n in (4, 3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    scale = draw(st.sampled_from([1.0, 30.0]))
    a_hat = rng.uniform(0.0, 1.0, size=H)
    a_hat[draw(st.lists(st.booleans(), min_size=H, max_size=H))] = 0.0
    return (rng.normal(size=(E, d, H)) * scale, a_hat,
            draw(st.sampled_from([1, 2, 3, 5])), scale)


def near_kink_case():
    """A routing case drawn from a seeded generator whose smallest parent
    activation is 2.3e-11: â's central differences there miss the analytic
    gradient by 1.6e-5."""
    rng = np.random.default_rng(2481)
    E, d, H = rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 4)
    u_hat = rng.normal(size=(E, d, H))
    a_hat = rng.uniform(0, 1, H)
    a_hat[0] = 0
    return u_hat, a_hat, 5, 1.0


class TestRoutingNode:
    """`dynamic_routing` is one tape node against the composed graph."""

    @given(routing_cases())
    @example(near_kink_case())
    @settings(max_examples=60, deadline=None)
    def test_matches_composed_graph_and_its_gradient(self, case):
        u_hat, a_hat, iters, scale = case
        w_v = np.random.default_rng(1).normal(size=u_hat.shape[:2])
        w_a = np.random.default_rng(2).normal(size=u_hat.shape[0])
        H = len(a_hat)
        results = []
        for routing in (
                lambda u, a, iters: dynamic_routing(vote_factors(u), a, iters,
                                                    [H]),
                lambda *args: one_sentence(dynamic_routing_composed(*args))):
            u = Tensor(u_hat, requires_grad=True)
            a = Tensor(a_hat, requires_grad=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v, act = routing(u, a, iters)
                add((v * Tensor(w_v[None])).sum(),
                    (act * Tensor(w_a[None])).sum()).backward()
            results.append((v, act, u, a))
        (v, act, u, a), (v_ref, act_ref, u_ref, a_ref) = results
        np.testing.assert_array_equal(v.data, v_ref.data)
        np.testing.assert_array_equal(act.data, act_ref.data)
        assert relative_gap(u.grad, u_ref.grad) <= 1e-12
        assert relative_gap(a.grad, a_ref.grad) <= 1e-12

        # one node, under the squash and capsule_length nodes, on the
        # factors x = I_H, W = u_hat and b = 0
        u, a = Tensor(u_hat, requires_grad=True), Tensor(a_hat)
        v, act = dynamic_routing(vote_factors(u), a, iters, [H])
        (node,) = v._parents
        assert act._parents == (node,)
        eye, W, zero, a_node = node._parents
        assert W is u and a_node is a
        np.testing.assert_array_equal(eye.data, np.eye(len(a_hat)))
        np.testing.assert_array_equal(zero.data, 0.0)
        assert not (eye.requires_grad or zero.requires_grad)

        # squash has a kink at a zero parent input. Saturated couplings can
        # underflow to exact zeros and leave a parent there, so only
        # unsaturated votes are checked, and a alone when a_hat is all zero.
        # A parent of activation 1e-6 or less, yet not 0, lies within the
        # difference step of that kink, where a's central differences miss
        # (`near_kink_case`: 1.6e-5 at 2.3e-11), so such draws are not checked.
        if scale != 1.0 or 0.0 < act.data.min() <= 1e-6:
            return

        def f(which):
            def objective(t):
                u, a = (t, Tensor(a_hat)) if which == "u" else (Tensor(u_hat), t)
                v, act = dynamic_routing(vote_factors(u), a, iters, [H])
                out = (act * Tensor(w_a[None])).sum()
                return (add(out, (v * Tensor(w_v[None])).sum()) if a_hat.any()
                        else out)
            return objective
        assert grad_check(f("u"), Tensor(u_hat)) < 1e-6
        assert grad_check(f("a"), Tensor(a_hat)) < 1e-6


@st.composite
def kernel_cases(draw):
    """(factors, a_hat, iterations, scale) for one sentence up to the
    published shape (E = 53, d = 8, H = 3840): squashed children, as
    primary capsules give, exact zeros in a_hat, and a transform and bias
    scaled by 30 in half the draws, which saturates the coupling softmax."""
    E, d, H = (draw(st.integers(1, n)) for n in (53, 8, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    scale = draw(st.sampled_from([1.0, 30.0]))
    x, _ = capsule._squash(rng.normal(size=(H, d)))
    a_hat = rng.uniform(0.0, 1.0, size=H)
    a_hat[rng.random(H) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    factors = (x, rng.normal(size=(E, d, d)) * scale,
               rng.normal(size=(E, d)) * scale)
    return factors, a_hat, draw(st.sampled_from([1, 2, 3, 5])), scale


class TestContractedKernel:
    """`_route` routes in the contracted space of [x | 1]; the
    per-iteration kernel it replaced, `route_per_iteration`, is its
    oracle. The sums run in another order, so the two agree to rounding."""

    @given(kernel_cases(), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_iteration_kernel(self, case, seed):
        factors, a_hat, iters, scale = case
        s, backward = capsule._route(factors, a_hat, iters, keep=True)
        s_ref, backward_ref = route_per_iteration(factors, a_hat, iters,
                                                  keep=True)
        # one path: the no-grad forward gives the kept forward's bits
        np.testing.assert_array_equal(
            capsule._route(factors, a_hat, iters, keep=False)[0], s)
        # unsaturated draws agree closer, unless E, d or H is 1: then s or a
        # gradient rests on one or two signed sums, and when one cancels,
        # reordering it moves the gap relative to the largest entry past
        # 1e-14 / 1e-13 (up to 3.1e-13 seen at d = 1), for either kernel
        unsaturated = scale == 1.0 and min(*factors[1].shape, len(a_hat)) > 1
        s_tol, g_tol = (1e-14, 1e-13) if unsaturated else (1e-12, 1e-10)
        assert relative_gap(s, s_ref) <= s_tol
        gs = np.random.default_rng(seed).normal(size=s.shape)
        for g, ref in zip(backward(gs), backward_ref(gs)):
            assert g.shape == ref.shape
            assert relative_gap(g, ref) <= g_tol

    @staticmethod
    def paper_sentence(H=3840, E=53, d=8):
        rng = np.random.default_rng(16)
        x, _ = capsule._squash(rng.normal(size=(H, d)))
        return ((x, rng.normal(size=(E, d, d)), rng.normal(size=(E, d))),
                np.linalg.norm(x, axis=1), rng.normal(size=(E, d)))

    def test_one_iteration_forms_no_parent_by_child_array(self):
        # 119 tokens at C = 32: its couplings are a/E for every parent
        factors, a_hat, gs = self.paper_sentence()
        tracemalloc.start()
        try:
            _, backward = capsule._route(factors, a_hat, 1, keep=True)
            backward(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 53 * 3840 * 8, peak

    def test_kept_pass_holds_two_parent_by_child_arrays(self):
        # the two later softmaxes, and xa and a xa (H x (d + 1) each);
        # the forward's peak is no higher, and the backward adds one
        # couplings' gradient at a time and a few H x (d + 1) arrays
        factors, a_hat, gs = self.paper_sentence()
        EH, Hd = 53 * 3840 * 8, 3840 * 9 * 8
        bound = 2 * EH + 4 * Hd
        tracemalloc.start()
        try:
            kept = capsule._route(factors, a_hat, 3, keep=True)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            kept[1](gs)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= bound, held
        assert peak <= bound, peak
        assert backward_peak <= bound + EH + 4 * Hd, backward_peak


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
            _, a = dynamic_routing(u_hat, Tensor(np.linalg.norm(u, axis=1)), 3,
                                   [H])
            total, _ = margin_loss(a, y[None])
            return total

        def f_u(t):
            a_hat = capsule_length(t)
            u_hat = votes(t, Tensor(Wc), Tensor(b_hat))
            _, a = dynamic_routing(u_hat, a_hat, 3, [H])
            total, _ = margin_loss(a, y[None])
            return total

        def f_bhat(t):
            u_hat = votes(Tensor(u), Tensor(Wc), t)
            _, a = dynamic_routing(u_hat, Tensor(np.linalg.norm(u, axis=1)), 3,
                                   [H])
            total, _ = margin_loss(a, y[None])
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
            u, a_hat = primary_capsules(Tensor(x), t, Tensor(b1), C, d, [L])
            return add((u * Tensor(w)).sum(), (a_hat * a_hat).sum())

        Wb = rng.normal(0, 0.6, size=(C * d, 2 * width))
        assert grad_check(f, Tensor(Wb), eps=1e-5) < 1e-4
