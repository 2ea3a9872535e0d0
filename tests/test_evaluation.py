"""PR curves, precision@recall, AUC, and the sweep harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.config import TrainConfig
from capsrel.evaluation import (
    DECISION_DTYPE,
    EvaluationError,
    auc,
    decisions_from_scores,
    experiment_sweep,
    pr_curve,
    precision_at,
    sweep_markdown,
    write_curve_csv,
)
from helpers import auc_reference, pr_curve_reference, precision_at_reference


def ranked(scores_golds):
    """(score, gold) pairs as a decision record array."""
    return np.array(list(scores_golds), dtype=DECISION_DTYPE)


def dec(score, gold):
    return ranked([(score, gold)])


class TestPrCurve:
    def test_perfect_ranking_has_precision_one(self):
        ds = ranked([(0.9, True), (0.8, True), (0.3, False), (0.2, False)])
        curve = pr_curve(ds)
        for recall, precision in curve[:2]:
            assert precision == 1.0
        assert curve[1].tolist() == [1.0, 1.0]

    def test_all_wrong_ranking_precision_at_full_recall(self):
        n, g = 10, 3
        ds = ranked([(1.0 - 0.01 * i, False) for i in range(n - g)]
                    + [(0.05 - 0.01 * i, True) for i in range(g)])
        curve = pr_curve(ds)
        assert curve[-1].tolist() == [1.0, g / n]

    def test_single_gold_decision(self):
        assert pr_curve(dec(0.5, True)).tolist() == [[1.0, 1.0]]

    def test_zero_gold_positives_is_checked_failure(self):
        with pytest.raises(EvaluationError, match="zero gold positives"):
            pr_curve(dec(0.5, False))

    def test_empty_decision_set_has_zero_gold_positives(self):
        with pytest.raises(EvaluationError, match="zero gold positives"):
            pr_curve(decisions_from_scores([]))

    def test_tied_scores_advance_as_one_group(self):
        ds = ranked([(0.5, True), (0.5, False), (0.2, True)])
        curve = pr_curve(ds)
        assert curve.tolist() == [[0.5, 0.5], [1.0, 2 / 3]]

    def test_recall_is_nondecreasing_and_precision_in_unit_interval(self):
        rng = np.random.default_rng(0)
        ds = ranked([(rng.uniform(), rng.uniform() < 0.4) for _ in range(200)])
        if not ds["gold"].any():
            ds = np.concatenate([ds, dec(0.5, True)])
        curve = pr_curve(ds)
        recalls = [r for r, _ in curve]
        assert recalls == sorted(recalls)
        assert all(0.0 <= p <= 1.0 for _, p in curve)

    def test_duplicating_decisions_leaves_curve_unchanged(self):
        ds = ranked([(0.9, True), (0.6, False), (0.4, True)])
        assert (pr_curve(ds).tolist()
                == pr_curve(np.concatenate([ds, ds])).tolist())


class TestPrecisionAt:
    def test_constant_precision_curve(self):
        curve = [(0.1, 0.8), (0.2, 0.8), (0.3, 0.8), (0.5, 0.8)]
        values = precision_at(curve)
        assert all(v == 0.8 for v in values.values())

    def test_unreachable_recall_is_undefined(self):
        curve = [(0.1, 0.9), (0.25, 0.7)]
        values = precision_at(curve)
        assert values[0.1] == 0.9 and values[0.2] == 0.7
        assert values[0.3] is None and values[0.4] is None


class TestAuc:
    def test_perfect_full_recall_is_one(self):
        ds = ranked([(0.9, True), (0.8, True), (0.7, True)])
        assert auc(pr_curve(ds)) == 1.0

    def test_constant_half_precision_rectangle(self):
        curve = [(r, 0.5) for r in np.linspace(0.01, 1.0, 100)]
        assert abs(auc(curve) - 0.5) < 1e-12

    def test_random_scores_auc_matches_prevalence(self):
        rng = np.random.default_rng(42)
        p = 0.3
        ds = ranked([(rng.uniform(), rng.uniform() < p) for _ in range(10000)])
        assert abs(auc(pr_curve(ds)) - p) < 0.05

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(7)
        pairs = [(rng.uniform(), rng.uniform() < 0.4) for _ in range(100)]
        ds1 = ranked(pairs)
        ds2 = ranked([(np.exp(3 * s), g) for s, g in pairs])
        assert auc(pr_curve(ds1)) == auc(pr_curve(ds2))


class TestDecisions:
    def test_na_relation_excluded(self):
        class FakeBag:
            key = ("x",)
            labels = {0, 1}
        scores = np.array([0.9, 0.5, 0.1])
        ds = decisions_from_scores([(FakeBag(), scores)])
        assert ds["score"].tolist() == [0.5, 0.1]
        assert ds["gold"].tolist() == [True, False]

    def test_bag_major_relation_minor_order(self):
        class LabelBag:
            def __init__(self, labels):
                self.labels = labels
        ds = decisions_from_scores([
            (LabelBag({2}), np.array([0.1, 0.2, 0.3])),
            (LabelBag(set()), np.array([0.4, 0.5, 0.6])),
            (LabelBag({0, 1}), np.array([0.7, 0.8, 0.9]))])
        assert ds.dtype == DECISION_DTYPE
        assert ds["score"].tolist() == [0.2, 0.3, 0.5, 0.6, 0.8, 0.9]
        assert ds["gold"].tolist() == [False, True, False, False, True, False]


# Few distinct scores force heavy ties; single-decision sets are drawn too.
decision_sets = st.lists(
    st.tuples(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                        st.floats(0.0, 1.0)),
              st.booleans()),
    min_size=1, max_size=60)


class TestReferenceEquality:
    @given(decision_sets)
    @settings(max_examples=300, deadline=None)
    def test_metrics_equal_the_loop_oracles_bit_for_bit(self, pairs):
        ds = ranked(pairs)
        if not ds["gold"].any():
            for build in (pr_curve, pr_curve_reference):
                with pytest.raises(EvaluationError, match="zero gold"):
                    build(ds)
            return
        curve, ref = pr_curve(ds), pr_curve_reference(ds)
        assert curve.dtype == np.float64 and curve.shape == (len(ref), 2)
        assert curve.tolist() == [list(point) for point in ref]
        recalls = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 1.5)
        assert precision_at(curve, recalls) \
            == precision_at_reference(ref, recalls)
        assert auc(curve) == auc_reference(ref)


class TestCsvExport:
    def test_fixed_six_decimal_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(np.array([[0.5, 1 / 3]]), str(path))
        assert path.read_text() == "recall,precision\n0.500000,0.333333\n"


class TestExperimentSweep:
    def test_empty_grid_gives_empty_table(self):
        rows = experiment_sweep(TrainConfig(), [], lambda cfg: (0.5, {}))
        assert rows == []

    def test_rows_complete_and_failures_recorded(self):
        def run_point(cfg):
            if cfg.d == 1:
                raise RuntimeError("diverged")
            return 0.7, {0.1: 0.9, 0.2: 0.8, 0.3: None, 0.4: None}

        rows = experiment_sweep(TrainConfig(), [{"d": 1}, {"d": 8}], run_point)
        assert rows[0].error is not None and rows[0].auc is None
        assert rows[1].error is None and rows[1].auc == 0.7
        report = sweep_markdown(rows)
        assert "d=8" in report and "0.700" in report
        assert "diverged" in report
