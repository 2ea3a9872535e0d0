"""Prediction decoding: ranking, thresholding, TransE pair assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.data import EmbeddingStore
from capsrel.prediction import assign_all, predict_multi, predict_single
from helpers import assign_all_reference, tiny_store


class TestPredictSingle:
    def test_descending_order(self):
        assert [j for j, _ in predict_single(np.array([0.1, 0.9, 0.5]))] == [1, 2, 0]

    def test_all_equal_scores_order_by_relation_id(self):
        assert [j for j, _ in predict_single(np.array([0.4] * 4))] == [0, 1, 2, 3]

    def test_returns_all_relations_with_scores(self):
        a = np.array([0.3, 0.7])
        out = predict_single(a)
        assert out == [(1, 0.7), (0, 0.3)]


class TestPredictMulti:
    def test_two_above_threshold(self):
        out = predict_multi(np.array([0.9, 0.8, 0.3]), threshold=0.7)
        assert {j for j, _ in out} == {0, 1}

    def test_one_above_threshold(self):
        out = predict_multi(np.array([0.9, 0.6, 0.3]), threshold=0.7)
        assert [j for j, _ in out] == [0]

    def test_all_below_threshold_gives_empty(self):
        assert predict_multi(np.array([0.5, 0.6, 0.3]), threshold=0.7) == []

    def test_score_equal_to_threshold_is_dropped(self):
        assert predict_multi(np.array([0.7, 0.1]), threshold=0.7) == []

    def test_subset_of_single_top2(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0, 1, 5)
            top2 = {j for j, _ in predict_single(a)[:2]}
            multi = {j for j, _ in predict_multi(a, threshold=0.6)}
            assert multi <= top2

    def test_lowering_threshold_is_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(0, 1, 5)
            high = {j for j, _ in predict_multi(a, threshold=0.8)}
            low = {j for j, _ in predict_multi(a, threshold=0.3)}
            assert high <= low

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            predict_multi(np.array([0.5]), threshold=1.5)


def toy_store():
    store = tiny_store(k=2)
    store.entity = np.array([[0.0, 0.0],   # E1
                             [1.0, 0.0],   # E2: delta (1,0) for (E1,E2)
                             [0.0, 0.0],   # E3
                             [0.0, 1.0]])  # E4: delta (0,1) for (E3,E4)
    store.relation = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return store


def nearest(pairs, relation, store, direction="e2-e1"):
    """The pair `assign_all` gives one relation."""
    return assign_all([(relation, 0.9)], pairs, store, direction)[0]["pair"]


class TestAssignRelation:
    def test_single_candidate_pair(self):
        store = toy_store()
        assert nearest([("E1", "E2")], 2, store) == ["E1", "E2"]

    def test_hand_euclidean_distances(self):
        store = toy_store()
        # R1 embedding (1,0): pair (E1,E2) has delta (1,0) -> distance 0
        assert nearest([("E1", "E2"), ("E3", "E4")], 1, store) == ["E1", "E2"]
        assert nearest([("E1", "E2"), ("E3", "E4")], 2, store) == ["E3", "E4"]

    def test_swapping_a_pair_flips_the_difference_sign(self):
        store = toy_store()
        # R1 is (1,0): (E1,E2) has delta (1,0), (E2,E1) has (-1,0)
        for pairs in ([("E1", "E2"), ("E2", "E1")],
                      [("E2", "E1"), ("E1", "E2")]):
            assert nearest(pairs, 1, store) == ["E1", "E2"]

    def test_direction_flag_selects_literal_reading(self):
        store = toy_store()
        pairs = [("E1", "E2"), ("E2", "E1")]
        assert nearest(pairs, 1, store, direction="e2-e1") == ["E1", "E2"]
        assert nearest(pairs, 1, store, direction="e1-e2") == ["E2", "E1"]

    def test_translation_invariance_of_assignment(self):
        store = toy_store()
        shifted = toy_store()
        shifted.entity = store.entity + np.array([5.0, -3.0])
        for rel in (1, 2):
            assert (nearest([("E1", "E2"), ("E3", "E4")], rel, store)
                    == nearest([("E1", "E2"), ("E3", "E4")], rel, shifted))

    def test_missing_entity_embedding_skips_pair(self):
        store = toy_store()
        assert nearest([("E1", "UNKNOWN"), ("E3", "E4")], 2, store) \
            == ["E3", "E4"]

    def test_all_pairs_missing_is_checked_failure(self):
        store = toy_store()
        assert nearest([("X", "Y")], 1, store) is None

    def test_no_candidates_is_checked_failure(self):
        assert nearest([], 1, toy_store()) is None


class TestAssignAll:
    def test_greedy_assignment_uses_each_pair_once(self):
        store = toy_store()
        out = assign_all([(1, 0.95), (2, 0.85)],
                         [("E1", "E2"), ("E3", "E4")], store)
        assert out[0]["pair"] == ["E1", "E2"]
        assert out[1]["pair"] == ["E3", "E4"]

    def test_second_relation_takes_remaining_pair(self):
        store = toy_store()
        # both relations prefer (E1,E2)? R1 matches (E1,E2); once taken,
        # R1 again would fall back to (E3,E4)
        out = assign_all([(1, 0.95), (1, 0.85)],
                         [("E1", "E2"), ("E3", "E4")], store)
        assert out[0]["pair"] == ["E1", "E2"]
        assert out[1]["pair"] == ["E3", "E4"]


    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_huge_finite_differences_still_find_the_nearest_pair(self, scale):
        # their squared norms overflow; the suite turns the numpy overflow
        # warning into an error
        store = toy_store()
        store.entity = store.entity * scale
        store.relation = store.relation * scale
        out = assign_all([(2, 0.95), (1, 0.85)],
                         [("E1", "E2"), ("E3", "E4")], store)
        assert [r["pair"] for r in out] == [["E3", "E4"], ["E1", "E2"]]

    def test_non_finite_difference_is_never_assigned(self):
        store = toy_store()
        # (E1, E2) differ by 3.4e308, past the largest float
        store.entity = np.array([[-1.7e308, 0.0], [1.7e308, 0.0],
                                 [0.0, 0.0], [0.0, 1.0]])
        out = assign_all([(1, 0.95), (2, 0.85)],
                         [("E1", "E2"), ("E3", "E4")], store)
        assert [r["pair"] for r in out] == [["E3", "E4"], None]


ENTITIES = ("E1", "E2", "E3", "E4")


@st.composite
def assignment_cases(draw):
    """Small-integer embeddings (exact ties), duplicate pairs, pairs with an
    unknown entity, relation 0 and both directions."""
    k = draw(st.integers(1, 3))
    n_rel = draw(st.integers(1, 4))
    ints = st.integers(-2, 2).map(float)
    entity = draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                           min_size=len(ENTITIES), max_size=len(ENTITIES)))
    relation = draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                             min_size=n_rel, max_size=n_rel))
    store = EmbeddingStore(
        word=np.zeros((1, 1)), word_vocab={}, entity=np.array(entity),
        entity_vocab={e: i for i, e in enumerate(ENTITIES)},
        relation=np.array(relation),
        relation_names=["NA"] + [f"R{i}" for i in range(1, n_rel)])
    entity_id = st.sampled_from(ENTITIES + ("UNKNOWN",))
    pairs = draw(st.lists(st.tuples(entity_id, entity_id), max_size=4))
    relations = draw(st.lists(st.tuples(st.integers(0, n_rel - 1),
                                        st.floats(0.0, 1.0)), max_size=3))
    direction = draw(st.sampled_from(["e2-e1", "e1-e2"]))
    return relations, pairs, store, direction


@settings(max_examples=400, deadline=None)
@given(assignment_cases())
def test_assign_all_matches_reference(case):
    relations, pairs, store, direction = case
    assert (assign_all(relations, pairs, store, direction)
            == assign_all_reference(relations, pairs, store, direction))
