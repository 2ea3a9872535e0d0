"""Tensor core: op semantics, backward rules, gradient checking."""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsrel.autodiff import (
    ContractViolation,
    NonFiniteError,
    ShapeError,
    Tensor,
    concat,
    dropout,
    grad_check,
    no_grad,
    take_rows,
)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def square(t):
    return t * t


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_matmul_identity(self):
        X = Tensor(rand((3, 5), 0))
        out = Tensor(np.eye(3)) @ X
        np.testing.assert_array_equal(out.data, X.data)

    def test_norm_3_4_5(self):
        assert Tensor([3.0, 4.0]).norm().item() == 5.0

    def test_matmul_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            Tensor(rand((2, 3), 0)) @ Tensor(rand((4, 2), 0))

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(rand((2, 3), 0)), Tensor(rand((2, 4), 0))], axis=0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_probability_vector(self, xs):
        out = Tensor(np.array(xs)).softmax().data
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0.0)

    def test_eval_mode_records_nothing(self):
        x = Tensor(rand((3,), 0), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._parents == ()

    def test_take_rows_out_of_range(self):
        with pytest.raises(ContractViolation):
            take_rows(Tensor(rand((3, 2), 0)), np.array([3]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_squared_norm_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        square(x.norm()).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

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
        y = x * 3.0
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_frees_interior_nodes_while_the_root_lives(self):
        x = Tensor(rand((3,), 0), requires_grad=True)
        h = x.sigmoid()
        freed = weakref.ref(h.data)  # a Tensor takes no weak references
        loss = (h * 2.0).sum()
        del h
        loss.backward()
        assert freed() is None
        s = 1.0 / (1.0 + np.exp(-x.data))
        assert loss.item() == pytest.approx(2.0 * s.sum())
        np.testing.assert_allclose(x.grad, 2.0 * s * (1.0 - s))

    def test_concat_backward_reassembles(self):
        a = Tensor(rand((2, 3), 1), requires_grad=True)
        b = Tensor(rand((4, 3), 2), requires_grad=True)
        w = rand((6, 3), 3)
        (concat([a, b], axis=0) * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(a.grad, w[:2])
        np.testing.assert_array_equal(b.grad, w[2:])


class TestGeneralOps:
    """`@`, `concat` and `take_rows` against numpy over drawn shapes."""

    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_matmul_matches_numpy_and_grad_checks(self, ranks, m, k, n, seed):
        a_shape = (k,) if ranks[0] == 1 else (m, k)
        b_shape = (k,) if ranks[1] == 1 else (k, n)
        A, Bm = rand(a_shape, seed), rand(b_shape, seed + 1)
        expected = A @ Bm
        out = Tensor(A) @ Tensor(Bm)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
        w = Tensor(rand(np.shape(expected), seed + 2))
        assert grad_check(lambda t: ((t @ Tensor(Bm)) * w).sum(), Tensor(A)) < 1e-6
        assert grad_check(lambda t: ((Tensor(A) @ t) * w).sum(), Tensor(Bm)) < 1e-6

    def test_matmul_rejects_rank_3(self):
        with pytest.raises(ShapeError, match="1-D/2-D"):
            Tensor(rand((2, 2, 3), 0)) @ Tensor(rand((3, 2), 1))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4), st.integers(0, 2 ** 16))
    @example(S=3, m=2, k=1, n=4, seed=0)   # inner size 1: the outer-product path
    @settings(max_examples=80, deadline=None)
    def test_stacked_matmul_matches_numpy_and_grad_checks(self, S, m, k, n, seed):
        A, Bm = rand((S, m, k), seed), rand((S, k, n), seed + 1)
        expected = np.matmul(A, Bm)
        out = Tensor(A) @ Tensor(Bm)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
        w = Tensor(rand(expected.shape, seed + 2))
        assert grad_check(lambda t: ((t @ Tensor(Bm)) * w).sum(), Tensor(A)) < 1e-6
        assert grad_check(lambda t: ((Tensor(A) @ t) * w).sum(), Tensor(Bm)) < 1e-6

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3, 4), (4, 5)),        # stack @ matrix
        ((3, 4), (2, 4, 5)),        # matrix @ stack
        ((2, 3, 4), (3, 4, 5)),     # unequal stacks
        ((2, 3, 4), (2, 5, 6)),     # equal stacks, inner sizes differ
    ])
    def test_matmul_rejects_mixed_ranks_and_unequal_stacks(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="1-D/2-D"):
            Tensor(rand(a_shape, 0)) @ Tensor(rand(b_shape, 1))

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
                block = take_rows(t.reshape((-1,)), flat_ids[tuple(idx)])
                out.append(block * (k + 1.0))
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

    def test_take_rows_gradient_counts_every_duplicate(self):
        table = Tensor(rand((4, 3), 0), requires_grad=True)
        ids = np.array([2, 0, 2, 2, 3])
        w = rand((5, 3), 1)
        (take_rows(table, ids) * Tensor(w)).sum().backward()
        expected = np.zeros((4, 3))
        for r, i in enumerate(ids):
            expected[i] += w[r]
        np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-15)


COMPOSITES = {
    # tanh x = 2 sigmoid(2x) - 1
    "affine_tanh": lambda x: (((x * 2.0).sigmoid() * 2.0 + (-1.0))
                              @ Tensor(rand((4, 2), 99))).sum(),
    "sigmoid_mul": lambda x: (x.sigmoid() * x).sum(),
    "softmax_weighted": lambda x: (x.softmax(axis=1) * Tensor(rand((3, 4), 98))).sum(),
    "norm_rows": lambda x: x.norm(axis=1).sum(),
    "slice_concat": lambda x: square(concat([take_rows(x, [1, 2]),
                                             take_rows(x, [0])], axis=0).norm()),
    "transpose_matmul": lambda x: (x @ x.T).sum(),
    # sqrt(x^2 + 2) is the norm of (x, sqrt 2)
    "div_sqrt": lambda x: (x / concat([x.reshape((3, 4, 1)),
                                       Tensor(np.full((3, 4, 1), np.sqrt(2.0)))],
                                      axis=2).norm(axis=2)).sum(),
    "reshape_mean": lambda x: square(x.reshape((4, 3)).sum(axis=0) * 0.25).sum(),
    "stack_rows": lambda x: concat([take_rows(x, 0).reshape((1, 4)),
                                    (take_rows(x, 1) * 2.0).reshape((1, 4))],
                                   axis=0).sum(),
    "getitem_scalar": lambda x: (take_rows(x.reshape((12,)), 6)
                                 * take_rows(x.reshape((12,)), 0)
                                 + square(take_rows(x.reshape((12,)), 11))),
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
        from capsrel.capsule import squash
        f = lambda t: square(squash(t.reshape((2, 3)), axis=-1).norm())
        assert grad_check(f, Tensor(rand((6,), 1)), eps=1e-5) < 1e-4

    def test_wrong_backward_rule_is_caught(self):
        def bad_double(t):
            data = t.data * 2.0

            def bw(g):
                t._accumulate(g * 3.0)  # wrong: claims d/dt = 3
            return Tensor._from_op(data, (t,), bw).sum()

        assert grad_check(bad_double, Tensor(rand((4,), 2))) > 1e-2

    def test_eps_range_enforced(self):
        with pytest.raises(ContractViolation):
            grad_check(lambda t: t.sum(), Tensor([1.0]), eps=1e-2)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NonFiniteError):
            grad_check(lambda t: (t * np.inf).sum(), Tensor([1.0]))


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
