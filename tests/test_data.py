"""Corpus loading, position features, embeddings, batching."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capsrel.data import (
    CorpusFormatError,
    _position_ids,
    batch_iter,
    entity_anchors,
    load_corpus,
    load_embeddings,
    missing_bucket,
    position_feature,
)
from helpers import position_feature_reference

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


VALID_RECORD = record(["a", "E1", "b", "E2"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=5)


def _slots(value):
    """Every (container, key) slot inside a JSON value, depth first."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    out = []
    for key, child in items:
        out.append((value, key))
        out.extend(_slots(child))
    return out


def _members(rec, key, kind):
    """The members of type `kind` of rec[key], when that is a list."""
    value = rec.get(key)
    if not isinstance(value, list):
        return []
    return [v for v in value if isinstance(v, kind)]


def mutate_record(draw):
    """VALID_RECORD after one to three drawn mutations: drop a key, retype
    a field, shorten or lengthen a pair, redraw a span (possibly out of
    range or reversed) or duplicate an entity id."""
    rec = copy.deepcopy(VALID_RECORD)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "pair", "span", "dup"]))
        slots = _slots(rec)
        if kind == "drop":
            keyed = [(c, k) for c, k in slots if isinstance(c, dict)]
            if keyed:
                container, key = draw(st.sampled_from(keyed))
                del container[key]
        elif kind == "retype":
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(json_values)
        elif kind == "pair":
            pairs = _members(rec, "pairs", list)
            if pairs:
                pair = pairs[draw(st.integers(0, len(pairs) - 1))]
                if draw(st.booleans()):
                    del pair[draw(st.integers(0, 1)):]
                else:
                    pair.append(draw(st.sampled_from(["E1", "E2", "E3"])))
        elif _members(rec, "entities", dict):
            ents = _members(rec, "entities", dict)
            ent = ents[draw(st.integers(0, len(ents) - 1))]
            if kind == "span":
                ent["span"] = [draw(st.integers(-2, 6)),
                               draw(st.integers(-2, 6))]
            else:
                rec["entities"].append(copy.deepcopy(ent))
    return rec


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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_position_ids_equal_scalar_rule_per_element(self, data):
        L = data.draw(st.integers(1, 130))
        n = data.draw(st.integers(1, L))
        anchor = st.one_of(st.none(), st.sampled_from([0, n - 1, -L - 1, L + 1]),
                           st.integers(-3 * L, 3 * L))
        anchors = data.draw(st.lists(anchor, min_size=2, max_size=4))
        ids = _position_ids(["w"] * n, anchors, L)
        assert ids.shape == (n, len(anchors)) and ids.dtype == np.int64
        for t in range(n):
            for m, a in enumerate(anchors):
                assert ids[t, m] == position_feature_reference(t, a, L)


class TestLoadCorpus:
    def test_shared_key_groups_into_one_bag(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["a", "E1", "E2"]),
                            record(["b", "E1", "E2"])])
        corpus = load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)
        assert len(corpus.bags) == 1
        assert len(corpus.bags[0].instances) == 2

    def test_overlength_sentence_excluded_and_counted(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        long_tokens = ["w"] * 119 + ["E1", "E2"]  # 121 tokens
        write_corpus(path, [record(long_tokens), record(["E1", "E2"])])
        corpus = load_corpus(str(path), L=120, M=2, relation_vocab=REL_VOCAB)
        assert "excluded 1 sentences longer than L=120" in caplog.text
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
        {**record(["E1", "E2"]), "tokens": "abc"},
        {**record(["E1", "E2"]), "tokens": [1, 2, 3]},
        record(["E1", "E2"], entities=[{"id": "E1", "span": [0.7, 1]}]),
        record(["E1", "E2"], entities=[{"id": "E1", "span": [0, True]}]),
        record(["E1", "E2"], entities=[{"id": "E1", "span": [0, 1, 2]}]),
        record(["E1", "E2"], pairs=(("E1",),)),
        record(["E1", "E2"], pairs=(("E1", 2),)),
        {**record(["E1", "E2"]), "pairs": {"E1": "E2"}},
        record(["E1", "E2"], entities=[{"id": "E1", "span": [0, 1]},
                                       {"id": "E1", "span": [1, 2]}]),
        record(["E1", "E2"], entities=[{"id": 1, "span": [0, 1]}]),
        {**record(["E1", "E2"]), "relations": {"R1": 1}},
    ], ids=["unknown-relation", "three-pairs", "more-relations-than-pairs",
            "no-relations", "empty-tokens", "negative-span",
            "span-past-end", "empty-span", "reversed-span",
            "string-tokens", "int-tokens", "float-span", "bool-span",
            "three-int-span", "one-entity-pair", "non-string-pair-id",
            "pairs-not-a-list", "duplicate-entity-id", "int-entity-id",
            "relations-not-a-list"])
    def test_malformed_record_error_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [record(["E1", "E2"]), bad])
        with pytest.raises(CorpusFormatError,
                           match="^" + re.escape(f"{path}:2: ")):
            load_corpus(str(path), L=10, M=2, relation_vocab=REL_VOCAB)

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_record_loads_faithfully_or_names_path_and_line(
            self, tmp_path, data):
        rec = mutate_record(data.draw)
        path = tmp_path / "fuzz.jsonl"
        write_corpus(path, [VALID_RECORD, rec])
        try:
            corpus = load_corpus(str(path), L=120, M=2,
                                 relation_vocab=REL_VOCAB)
        except CorpusFormatError as exc:
            assert str(exc).startswith(f"{path}:2: ")
            return
        inst = [i for bag in corpus.bags for i in bag.instances][1]
        assert inst.tokens == rec["tokens"]
        assert all(type(t) is str for t in inst.tokens)
        spans = {e["id"]: e["span"] for e in rec["entities"]}
        assert len(spans) == len(rec["entities"])
        for e in rec["entities"]:
            start, end = e["span"]
            assert type(start) is int and type(end) is int
            assert 0 <= start < end <= len(inst.tokens)
        # M=2: the first pair's mentions anchor at their spans' first tokens
        e1, e2 = inst.pairs[0]
        anchors = [spans[e1][0] if e1 in spans else None,
                   spans[e2][0] if e2 in spans and e2 != e1 else None]
        for m, anchor in enumerate(anchors):
            assert inst.position_ids[:, m].tolist() == [
                position_feature_reference(t, anchor, 120)
                for t in range(len(inst.tokens))]
        assert inst.pairs == [tuple(p) for p in rec["pairs"]]
        assert all(len(p) == 2 and all(type(x) is str for x in p)
                   for p in inst.pairs)
        assert inst.relations == [REL_VOCAB[n] for n in rec["relations"]]

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
                                str(tmp_path / "r.txt"))
        assert store.word.shape == (4, 2)
        np.testing.assert_allclose(store.word[store.unk_id], [3.0, 4.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        # the entity table takes the relation table's width
        self.write(tmp_path / "w.txt", [("a", [1.0, 2.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0]), ("R1", [1.0])])
        self.write(tmp_path / "e.txt", [("E1", [1.0]), ("E2", [1.0, 2.0])])
        with pytest.raises(CorpusFormatError,
                           match=r"e\.txt:2: expected 1 floats"):
            load_embeddings(str(tmp_path / "w.txt"), str(tmp_path / "e.txt"),
                            str(tmp_path / "r.txt"))

    def test_width_mismatch_without_a_given_width_names_line(self, tmp_path):
        self.write(tmp_path / "w.txt", [("a", [1.0, 2.0]), ("b", [3.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0])])
        with pytest.raises(CorpusFormatError, match=r"w\.txt:2: expected 2 floats"):
            load_embeddings(str(tmp_path / "w.txt"), None,
                            str(tmp_path / "r.txt"))

    def test_word2vec_header_line_is_named_as_the_width(self, tmp_path):
        # word2vec text files start with a `count width` line
        (tmp_path / "w.txt").write_text("2 3\nthe 1 2 3\nof 4 5 6\n")
        self.write(tmp_path / "r.txt", [("NA", [0.0])])
        with pytest.raises(CorpusFormatError, match=re.escape(
                "w.txt:2: expected 1 floats (the width of line 1) for "
                "'the', got 3")):
            load_embeddings(str(tmp_path / "w.txt"), None,
                            str(tmp_path / "r.txt"))

    def test_entity_width_is_named_as_the_relation_tables(self, tmp_path):
        self.write(tmp_path / "w.txt", [("a", [1.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0]), ("R1", [1.0])])
        self.write(tmp_path / "e.txt", [("E1", [1.0, 2.0])])
        with pytest.raises(CorpusFormatError, match=re.escape(
                "e.txt:1: expected 1 floats (the width of the relation table "
                f"{tmp_path / 'r.txt'}) for 'E1', got 2")):
            load_embeddings(str(tmp_path / "w.txt"), str(tmp_path / "e.txt"),
                            str(tmp_path / "r.txt"))

    @pytest.mark.parametrize("bare", ["w.txt", "r.txt"])
    def test_file_of_bare_tokens_names_its_first_line(self, tmp_path, bare):
        # a bare-token file would load as an n x 0 table
        self.write(tmp_path / "w.txt", [("a", [1.0]), ("b", [2.0])])
        self.write(tmp_path / "r.txt", [("NA", [0.0]), ("R1", [1.0])])
        self.write(tmp_path / bare, [("NA", []), ("R1", [])])
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{bare}:1: 'NA' has no vector")):
            load_embeddings(str(tmp_path / "w.txt"), None,
                            str(tmp_path / "r.txt"))

    def test_relation_file_must_list_na_first(self, tmp_path):
        self.write(tmp_path / "w.txt", [("a", [1.0])])
        self.write(tmp_path / "r.txt", [("R1", [1.0]), ("NA", [0.0])])
        with pytest.raises(CorpusFormatError, match=r"r\.txt:1: .*'R1'"):
            load_embeddings(str(tmp_path / "w.txt"), None,
                            str(tmp_path / "r.txt"))

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
