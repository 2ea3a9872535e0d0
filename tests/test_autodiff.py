"""Tensor core: op semantics, backward rules, gradient checking."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.autodiff import (
    ContractViolation,
    NonFiniteError,
    ShapeError,
    Tensor,
    dropout,
    grad_check,
    no_grad,
)
from helpers import (add, concat, matmul, mul, reshape, sigmoid, sum_axis,
                     take_rows, transpose)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def square(t):
    return t * t


class TestForwardOps:
    def test_matmul_identity(self):
        X = Tensor(rand((3, 5), 0))
        out = matmul(Tensor(np.eye(3)), X)
        np.testing.assert_array_equal(out.data, X.data)

    def test_mul_shape_mismatch_names_both_shapes(self):
        # `*` does not broadcast: every caller passes equal shapes
        with pytest.raises(ShapeError, match=r"\(2, 3\) \* \(3,\)"):
            Tensor(rand((2, 3), 0)) * Tensor(rand((3,), 1))

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(rand((2, 3), 0)), Tensor(rand((2, 4), 0))], axis=0)

    def test_eval_mode_records_nothing(self):
        x = Tensor(rand((3,), 0), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y._parents == ()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_disconnected_parameter_has_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        p = Tensor([5.0], requires_grad=True)
        x.sum().backward()
        assert p.grad is None

    def test_non_requires_grad_leaf_stays_gradless(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        (x * c).sum().backward()
        assert c.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * Tensor([3.0])
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_backward_frees_interior_nodes_while_the_root_lives(self):
        x = Tensor(rand((3,), 0), requires_grad=True)
        h = x * x
        freed = weakref.ref(h.data)  # a Tensor takes no weak references
        loss = (h * Tensor(np.full(3, 2.0))).sum()
        del h
        loss.backward()
        assert freed() is None
        assert loss.item() == pytest.approx(2.0 * (x.data * x.data).sum())
        np.testing.assert_allclose(x.grad, 4.0 * x.data)

    def test_concat_backward_reassembles(self):
        a = Tensor(rand((2, 3), 1), requires_grad=True)
        b = Tensor(rand((4, 3), 2), requires_grad=True)
        w = rand((6, 3), 3)
        (concat([a, b], axis=0) * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(a.grad, w[:2])
        np.testing.assert_array_equal(b.grad, w[2:])


class TestGeneralOps:
    """The kit ops of tests/helpers.py that the composed oracles are built
    on, against numpy over drawn shapes."""

    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_matmul_matches_numpy_and_grad_checks(self, ranks, m, k, n, seed):
        a_shape = (k,) if ranks[0] == 1 else (m, k)
        b_shape = (k,) if ranks[1] == 1 else (k, n)
        A, Bm = rand(a_shape, seed), rand(b_shape, seed + 1)
        expected = A @ Bm
        out = matmul(Tensor(A), Tensor(Bm))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
        w = Tensor(rand(np.shape(expected), seed + 2))
        assert grad_check(lambda t: (matmul(t, Tensor(Bm)) * w).sum(),
                          Tensor(A)) < 1e-6
        assert grad_check(lambda t: (matmul(Tensor(A), t) * w).sum(),
                          Tensor(Bm)) < 1e-6

    @given(st.sampled_from([0, 1, -1]),
           st.lists(st.integers(1, 3), min_size=1, max_size=4),
           st.integers(1, 3), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_concat_matches_numpy_and_grad_checks(self, axis, sizes, width, seed):
        shape = [width] * 3
        shape[axis] = sum(sizes)
        x = rand(tuple(shape), seed)
        bounds = np.cumsum([0, *sizes])
        flat_ids = np.arange(x.size).reshape(x.shape)

        def parts(t):
            # block k of `sizes` along `axis`, gathered from the flattened
            # tensor and scaled by k + 1
            out = []
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                idx = [slice(None)] * 3
                idx[axis] = slice(lo, hi)
                block = take_rows(reshape(t, (-1,)), flat_ids[tuple(idx)])
                out.append(mul(block, k + 1.0))
            return out
        blocks = parts(Tensor(x))
        out = concat(blocks, axis=axis)
        np.testing.assert_array_equal(
            out.data, np.concatenate([b.data for b in blocks], axis=axis))
        w = Tensor(rand(out.shape, seed + 1))
        assert grad_check(lambda t: (concat(parts(t), axis=axis) * w).sum(),
                          Tensor(x)) < 1e-6

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat_shape_mismatch_names_both_shapes(self, axis):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 2, 4\)"):
            concat([Tensor(rand((2, 3, 4), 0)), Tensor(rand((3, 2, 4), 1))],
                   axis=axis)


def tanh(x):
    """tanh x = 2 sigmoid(2x) - 1, from the kit's ops."""
    return add(mul(sigmoid(mul(x, 2.0)), 2.0), -1.0)


# Composites of the kit's ops, so that each backward rule the composed
# oracles rely on is checked against central differences.
COMPOSITES = {
    "affine_tanh": lambda x: matmul(tanh(x), Tensor(rand((4, 2), 99))).sum(),
    "sigmoid_mul": lambda x: (sigmoid(x) * x).sum(),
    "slice_concat": lambda x: square(concat([take_rows(x, [1, 2]),
                                             take_rows(x, [0])], axis=0)).sum(),
    "transpose_matmul": lambda x: matmul(x, transpose(x)).sum(),
    "reshape_mean": lambda x: square(mul(sum_axis(reshape(x, (4, 3)), 0),
                                         0.25)).sum(),
    "stack_rows": lambda x: concat([reshape(take_rows(x, 0), (1, 4)),
                                    reshape(mul(take_rows(x, 1), 2.0), (1, 4))],
                                   axis=0).sum(),
    "getitem_scalar": lambda x: add(take_rows(reshape(x, (12,)), 6)
                                    * take_rows(reshape(x, (12,)), 0),
                                    square(take_rows(reshape(x, (12,)), 11))),
}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
@pytest.mark.parametrize("seed", range(10))
def test_grad_check_composites(name, seed):
    x = Tensor(rand((3, 4), seed))
    assert grad_check(COMPOSITES[name], x, eps=1e-5) < 1e-4


class TestGradCheck:
    def test_linear_function_is_near_exact(self):
        # only fp rounding of x +/- eps remains for a linear objective
        assert grad_check(lambda t: t.sum(), Tensor(rand((5,), 0))) < 1e-10

    def test_squash_norm_composite(self):
        from capsrel.capsule import capsule_length, squash
        # capsule_length's capsules run down the columns: moved last first
        f = lambda t: add(square(squash(reshape(t, (2, 3)))).sum(),
                          capsule_length(transpose(reshape(t, (3, 2)))).sum())
        assert grad_check(f, Tensor(rand((6,), 1)), eps=1e-5) < 1e-4

    def test_wrong_backward_rule_is_caught(self):
        def bad_double(t):
            data = t.data * 2.0

            def bw(g):
                t._accumulate(g * 3.0)  # wrong: claims d/dt = 3
            return Tensor._from_op(data, (t,), bw).sum()

        assert grad_check(bad_double, Tensor(rand((4,), 2))) > 1e-2

    def test_size_1_objective_of_any_rank(self):
        assert Tensor([2.0]).item() == 2.0
        assert Tensor([[-0.5]]).item() == -0.5
        assert grad_check(lambda t: reshape((t * t).sum(), (1,)),
                          Tensor(rand((3,), 4))) < 1e-6

    def test_eps_range_enforced(self):
        with pytest.raises(ContractViolation):
            grad_check(lambda t: t.sum(), Tensor([1.0]), eps=1e-2)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NonFiniteError):
            grad_check(lambda t: (t * Tensor([np.inf])).sum(), Tensor([1.0]))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(rand((5, 7), 0))
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_train_mode_preserves_expectation(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones((10, 10)))
        acc = np.zeros((10, 10))
        n = 2000
        for _ in range(n):
            acc += dropout(x, 0.3, rng, training=True).data
        np.testing.assert_allclose(acc / n, 1.0, atol=0.06)

    def test_train_mode_zeroes_and_scales(self):
        out = dropout(Tensor(np.ones(1000)), 0.5,
                      np.random.default_rng(1), training=True).data
        assert set(np.unique(out)) == {0.0, 2.0}

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate, training):
        with pytest.raises(ContractViolation, match=r"dropout rate .*\[0, 1\)"):
            dropout(Tensor(np.ones(4)), rate, np.random.default_rng(0),
                    training=training)
