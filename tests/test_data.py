"""Corpus loading, position features, embeddings, batching."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsrel.data import (
    CorpusFormatError,
    batch_iter,
    dump_corpus,
    entity_anchors,
    load_corpus,
    load_embeddings,
    missing_bucket,
    position_feature,
)

REL_VOCAB = {"NA": 0, "R1": 1, "R2": 2}


def write_corpus(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(tokens, pairs=(("E1", "E2"),), relations=("R1",), entities=None):
    if entities is None:
        entities = []
        for pair in pairs:
            for eid in pair:
                if eid in tokens:
                    pos = tokens.index(eid)
                    entities.append({"id": eid, "span": [pos, pos + 1]})
    return {"tokens": list(tokens), "entities": entities,
            "pairs": [list(p) for p in pairs], "relations": list(relations)}


class TestPositionFeature:
    def test_token_at_anchor_maps_to_center_bucket(self):
        assert position_feature(7, 7, 120) == 120

    def test_missing_entity_maps_to_reserved_bucket(self):
        assert position_feature(5, None, 120) == 242

    def test_clamp_and_shift(self):
        assert position_feature(0, 119, 120) == 1

    @given(st.integers(0, 119), st.integers(0, 119))
    @settings(max_examples=100, deadline=None)
    def test_bucket_always_in_range(self, t, anchor):
        b = position_feature(t, anchor, 120)
        assert 0 <= b <= 240


class TestLoadCorpus:
    def test_shared_key_groups_into_one_bag(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["a", "E1", "E2"]),
                            record(["b", "E1", "E2"])])
        corpus = load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)
        assert len(corpus.bags) == 1
        assert len(corpus.bags[0].instances) == 2

    def test_overlength_sentence_excluded_and_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        long_tokens = ["w"] * 119 + ["E1", "E2"]  # 121 tokens
        write_corpus(path, [record(long_tokens), record(["E1", "E2"])])
        corpus = load_corpus(str(path), L=120, M=2, relation_vocab=REL_VOCAB)
        assert corpus.excluded_overlength == 1
        assert len(corpus.bags) == 1

    def test_empty_file_gives_empty_bag_list(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)
        assert corpus.bags == []

    def test_malformed_line_error_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record(["E1", "E2"])) + "\n{not json\n")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)

    def test_unknown_relation_lists_known_ones(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["E1", "E2"], relations=("BOGUS",))])
        with pytest.raises(CorpusFormatError, match="NA, R1, R2"):
            load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)

    @pytest.mark.parametrize("bad", [
        record(["E1", "E2"], relations=("BOGUS",)),
        record(["E1", "E2"], pairs=(("E1", "E2"),) * 3, relations=("R1",) * 3),
        record(["E1", "E2"], relations=("R1", "R2")),
        record(["E1", "E2"], relations=()),
        record([], entities=[]),
        record(["E1", "E2"], entities=[{"id": "E1", "span": [-1, 0]}]),
        record(["E1", "E2"], entities=[{"id": "E1", "span": [1, 3]}]),
        record(["E1", "E2"], entities=[{"id": "E1", "span": [1, 1]}]),
        record(["E1", "E2"], entities=[{"id": "E1", "span": [1, 0]}]),
    ], ids=["unknown-relation", "three-pairs", "more-relations-than-pairs",
            "no-relations", "empty-tokens", "negative-span",
            "span-past-end", "empty-span", "reversed-span"])
    def test_malformed_record_error_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["E1", "E2"]), bad])
        with pytest.raises(CorpusFormatError,
                           match="^" + re.escape(f"{path}:2: ")):
            load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)

    def test_bag_labels_are_union_of_instance_relations(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["a", "E1", "E2"], relations=("R1",)),
                            record(["b", "E1", "E2"], relations=("R2",))])
        corpus = load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)
        assert corpus.bags[0].labels == {1, 2}
        for inst in corpus.bags[0].instances:
            assert set(inst.relations) <= corpus.bags[0].labels

    def test_instances_share_the_bag_key(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["a", "E1", "E2"]),
                            record(["E1", "x", "E2"])])
        corpus = load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)
        for inst in corpus.bags[0].instances:
            assert inst.key == corpus.bags[0].key

    def test_m4_single_pair_missing_columns(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["E1", "w", "E2"])])
        corpus = load_corpus(str(path), L=10, M=4, relation_vocab=REL_VOCAB)
        ids = corpus.bags[0].instances[0].position_ids
        assert ids.shape == (3, 4)
        assert np.all(ids[:, 2] == missing_bucket(10))
        assert np.all(ids[:, 3] == missing_bucket(10))
        assert not np.any(ids[:, :2] == missing_bucket(10))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [
            record(["a", "E1", "E2"], relations=("R1",)),
            record(["E3", "b", "E4"], pairs=(("E3", "E4"),), relations=("R2",)),
            record(["E1", "E2", "E3", "E4"],
                   pairs=(("E1", "E2"), ("E3", "E4")),
                   relations=("R1", "R2")),
        ])
        corpus = load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)
        path2 = tmp_path / "c2.jsonl"
        dump_corpus(corpus, str(path2), ["NA", "R1", "R2"])
        corpus2 = load_corpus(str(path2), L=10, M=2, relation_vocab=REL_VOCAB)
        assert len(corpus2.bags) == len(corpus.bags)
        for b1, b2 in zip(corpus.bags, corpus2.bags):
            assert b1.key == b2.key and b1.labels == b2.labels
            for i1, i2 in zip(b1.instances, b2.instances):
                assert i1.tokens == i2.tokens
                assert i1.relations == i2.relations
                np.testing.assert_array_equal(i1.position_ids, i2.position_ids)


class TestEntityAnchors:
    def test_shared_entity_duplicate_slot_is_missing(self):
        # three distinct entities across two pairs sharing E1
        anchors = entity_anchors([("E1", "E2"), ("E1", "E3")],
                                 {"E1": (0, 1), "E2": (2, 3), "E3": (4, 5)}, 4)
        assert anchors == [0, 2, None, 4]

    def test_multi_token_entity_anchors_at_first_token(self):
        anchors = entity_anchors([("E1", "E2")],
                                 {"E1": (3, 6), "E2": (8, 9)}, 2)
        assert anchors == [3, 8]


class TestLoadEmbeddings:
    def write(self, path, rows):
        path.write_text("".join(f"{t} " + " ".join(map(str, v)) + "\n"
                                for t, v in rows))

    def test_unk_row_is_mean_of_loaded_rows(self, tmp_path):
        rows = [("a", [1.0, 2.0]), ("b", [3.0, 4.0]), ("c", [5.0, 6.0])]
        self.write(tmp_path / "w.txt", rows)
        self.write(tmp_path / "r.txt", [("NA", [0.0]), ("R1", [1.0])])
        store = load_embeddings(str(tmp_path / "w.txt"), None,
                                str(tmp_path / "r.txt"), d_w=2)
        assert store.word.shape == (4, 2)
        np.testing.assert_allclose(store.word[store.unk_id], [3.0, 4.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        self.write(tmp_path / "w.txt", [("a", [1.0, 2.0]), ("b", [3.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0])])
        with pytest.raises(CorpusFormatError, match=":2"):
            load_embeddings(str(tmp_path / "w.txt"), None,
                            str(tmp_path / "r.txt"), d_w=2)

    def test_duplicate_token_last_wins(self, tmp_path):
        self.write(tmp_path / "w.txt", [("a", [1.0]), ("a", [9.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0])])
        store = load_embeddings(str(tmp_path / "w.txt"), None,
                                str(tmp_path / "r.txt"))
        assert store.word[store.word_vocab["a"]][0] == 9.0

    def test_unknown_token_maps_to_unk(self, tmp_path):
        self.write(tmp_path / "w.txt", [("a", [1.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0])])
        store = load_embeddings(str(tmp_path / "w.txt"), None,
                                str(tmp_path / "r.txt"))
        assert store.word_id("nope") == store.unk_id


class TestBatchIter:
    def bags(self, n):
        return list(range(n))  # batch_iter is agnostic to element type

    def test_partition_sizes(self):
        sizes = [len(b) for b in batch_iter(self.bags(5), 2, seed=0)]
        assert sizes == [2, 2, 1]

    def test_same_seed_same_order(self):
        a = [b for batch in batch_iter(self.bags(10), 3, seed=7) for b in batch]
        b = [b for batch in batch_iter(self.bags(10), 3, seed=7) for b in batch]
        assert a == b

    def test_different_seeds_differ(self):
        orders = set()
        for seed in range(5):
            flat = tuple(b for batch in batch_iter(self.bags(12), 4, seed=seed)
                         for b in batch)
            orders.add(flat)
        assert len(orders) > 1

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            list(batch_iter(self.bags(3), 0, seed=0))
