"""Corpus and embedding ingestion for bag-structured MIML training.

Corpus format: UTF-8 JSON lines, one sentence instance per line:

    {"tokens": ["w", ...],
     "entities": [{"id": "E1", "span": [start, end]}, ...],
     "pairs": [["E1", "E2"], ...],
     "relations": ["relation_name", ...]}     # aligned with pairs

Instances sharing the same tuple of entity pairs form one bag. Embedding
files are whitespace-separated text: `token v1 ... vd` per line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


# Position buckets for sentence limit L: distances clamped to [-L, L] take
# buckets [0, 2L], a missing entity 2L+2. Bucket 2L+1 is never read: a table
# without it would move every later Glorot draw and the checkpoint layout.
def num_position_buckets(L: int) -> int:
    return 2 * L + 3


def missing_bucket(L: int) -> int:
    return 2 * L + 2


def position_feature(token_idx, entity_anchor: int | None, L: int) -> np.ndarray:
    """Bucket ids for the relative distances from tokens to an entity anchor.

    Elementwise over an integer array (or scalar) of token indices. A
    missing entity maps to the reserved out-of-range bucket rather than a
    literal large distance, which would index outside the embedding table.
    """
    token_idx = np.asarray(token_idx, dtype=np.int64)
    if entity_anchor is None:
        return np.full_like(token_idx, missing_bucket(L))
    return np.clip(token_idx - entity_anchor, -L, L) + L


@dataclass
class SentenceInstance:
    """One tokenized sentence with entity anchors and gold relations."""

    tokens: list[str]
    pairs: list[tuple[str, str]]
    relations: list[int]                   # relation ids aligned with pairs
    position_ids: np.ndarray               # len(tokens) x M bucket ids

    @property
    def key(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.pairs)


@dataclass
class Bag:
    """All instances sharing one entity-tuple key, with the union label set."""

    key: tuple[tuple[str, str], ...]
    instances: list[SentenceInstance]
    labels: set[int]


@dataclass
class Corpus:
    bags: list[Bag]


@dataclass
class EmbeddingStore:
    """Pretrained word/entity/relation embeddings with vocab maps."""

    word: np.ndarray          # (|V_w| + 1) x d_w, last row is UNK
    word_vocab: dict[str, int]
    entity: np.ndarray
    entity_vocab: dict[str, int]
    relation: np.ndarray      # E x k, row index == relation id
    relation_names: list[str]

    @property
    def unk_id(self) -> int:
        return self.word.shape[0] - 1

    def word_id(self, token: str) -> int:
        return self.word_vocab.get(token, self.unk_id)

    def entity_vec(self, entity_id: str) -> np.ndarray | None:
        idx = self.entity_vocab.get(entity_id)
        return None if idx is None else self.entity[idx]


class CorpusFormatError(ValueError):
    """A corpus or embedding file violates the documented format."""


def _utf8(line: str) -> str:
    """A line of a file opened with errors="surrogateescape", or
    UnicodeDecodeError (a ValueError) at its first byte that is not UTF-8.

    Decoding each line this way names the line of a bad byte; decoding the
    file in chunks would give only its place in a chunk."""
    return line.encode("utf-8", "surrogateescape").decode("utf-8")


def entity_anchors(pairs: list[tuple[str, str]],
                   entities: dict[str, tuple[int, int]],
                   M: int) -> list[int | None]:
    """Token anchors for the M entity slots, pair by pair.

    The anchor is the first token of the entity span. An absent pair, an
    entity without a span, or an entity already occupying an earlier slot
    (shared between two tuples) yields a missing slot.
    """
    anchors: list[int | None] = []
    used: set[str] = set()
    for pair in pairs:
        for ent in pair:
            if len(anchors) >= M:
                break
            if ent in used or ent not in entities:
                anchors.append(None)
            else:
                anchors.append(entities[ent][0])
                used.add(ent)
    while len(anchors) < M:
        anchors.append(None)
    return anchors[:M]


def _position_ids(tokens: list[str], anchors: list[int | None],
                  L: int) -> np.ndarray:
    ids = np.empty((len(tokens), len(anchors)), dtype=np.int64)
    for m, anchor in enumerate(anchors):
        ids[:, m] = position_feature(np.arange(len(tokens)), anchor, L)
    return ids


def _is_list_of(value, kind: type, length: int | None = None) -> bool:
    """A JSON list of `kind` values (a bool is not an int here)."""
    return (isinstance(value, list) and length in (None, len(value))
            and all(type(v) is kind for v in value))


def parse_record(obj: dict, L: int, M: int,
                 relation_vocab: dict[str, int]) -> SentenceInstance:
    tokens = obj["tokens"]
    if not _is_list_of(tokens, str) or not tokens:
        raise CorpusFormatError(
            f"tokens must be a non-empty list of strings, got {tokens!r}")
    entities: dict[str, tuple[int, int]] = {}
    for e in obj["entities"]:
        eid, span = e["id"], e["span"]
        if type(eid) is not str or eid in entities:
            raise CorpusFormatError(f"entity id {eid!r} is repeated or not a string")
        if not _is_list_of(span, int, 2):
            raise CorpusFormatError(
                f"entity {eid!r} span must be two integers, got {span!r}")
        start, end = entities[eid] = tuple(span)
        if not 0 <= start < end <= len(tokens):
            raise CorpusFormatError(
                f"entity {eid!r} span [{start}, {end}) is not a non-empty "
                f"range within the {len(tokens)} tokens")
    pairs = obj["pairs"]
    if not (isinstance(pairs, list)
            and all(_is_list_of(p, str, 2) for p in pairs)):
        raise CorpusFormatError(
            f"pairs must be a list of two entity-id strings each, got {pairs!r}")
    pairs = [tuple(p) for p in pairs]
    if not 1 <= len(pairs) <= 2:
        raise CorpusFormatError(f"expected 1 or 2 entity pairs, got {len(pairs)}")
    if not _is_list_of(obj["relations"], str, len(pairs)):
        raise CorpusFormatError(
            f"expected a list of {len(pairs)} relation names, one per "
            f"entity pair, got {obj['relations']!r}")
    rel_ids = []
    for name in obj["relations"]:
        if name not in relation_vocab:
            known = ", ".join(sorted(relation_vocab))
            raise CorpusFormatError(
                f"unknown relation {name!r}; known relations: {known}")
        rel_ids.append(relation_vocab[name])
    anchors = entity_anchors(pairs, entities, M)
    return SentenceInstance(
        tokens=list(tokens), pairs=pairs, relations=rel_ids,
        position_ids=_position_ids(tokens, anchors, L))


def load_corpus(path: str, L: int, M: int,
                relation_vocab: dict[str, int]) -> Corpus:
    """Load a JSON-lines corpus and group instances into bags.

    Sentences longer than L are excluded (counted, logged). Bags are
    keyed by the tuple of entity pairs, in file order; labels are the
    union of instance relations.
    """
    groups: dict[tuple, Bag] = {}
    excluded = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(_utf8(line))
                inst = parse_record(obj, L, M, relation_vocab)
            except (KeyError, TypeError, ValueError) as exc:
                # CorpusFormatError and JSONDecodeError are ValueErrors.
                raise CorpusFormatError(
                    f"{path}:{lineno}: malformed record: {exc}") from exc
            if len(inst.tokens) > L:
                excluded += 1
                continue
            key = inst.key
            bag = groups.get(key)
            if bag is None:
                bag = Bag(key=key, instances=[], labels=set())
                groups[key] = bag
            bag.instances.append(inst)
            bag.labels.update(inst.relations)
    if excluded:
        log.warning("excluded %d sentences longer than L=%d", excluded, L)
    return Corpus(bags=list(groups.values()))


def _load_vector_file(path: str, width: tuple[int, str] | None = None,
                      first: str | None = None
                      ) -> tuple[list[str], np.ndarray]:
    """Names and rows of `path`; `width` is (floats a row, their source).

    A width-1 first row of two integers may be a word2vec `count width`
    header: if the second row's width differs, its error says so.
    """
    names: list[str] = []
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    header_like = False
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                parts = _utf8(line).split()
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if first is not None and not names and token != first:
                raise CorpusFormatError(
                    f"{path}:{lineno}: the first name must be {first!r}, "
                    f"got {token!r}")
            if width is None:
                if not values:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: {token!r} has no vector; the first "
                        "row fixes the width, which must be at least 1")
                width = len(values), f"line {lineno}"
                header_like = len(parts) == 2 and all(map(str.isdecimal, parts))
            if len(values) != width[0]:
                hint = (f"; {width[1]} looks like a word2vec \"count width\" "
                        "header; remove it"
                        if header_like and len(names) == 1 else "")
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected {width[0]} floats (the width "
                    f"of {width[1]}) for {token!r}, got {len(values)}{hint}")
            try:
                vec = np.asarray([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise CorpusFormatError(
                    f"{path}:{lineno}: non-numeric value: {exc}") from exc
            if not np.all(np.isfinite(vec)):
                raise CorpusFormatError(f"{path}:{lineno}: non-finite embedding")
            if token in index:
                log.warning("%s:%d: duplicate token %r, last wins",
                            path, lineno, token)
                rows[index[token]] = vec
            else:
                index[token] = len(names)
                names.append(token)
                rows.append(vec)
    if not rows:
        raise CorpusFormatError(f"{path}: no embedding rows")
    return names, np.vstack(rows)


def load_embeddings(word_path: str, entity_path: str | None,
                    relation_path: str) -> EmbeddingStore:
    """Load the three embedding tables; the word UNK row is the mean row.

    The first row of the word and relation files fixes each table's width,
    and the entity table takes the relation width. The entity table is
    optional (only TransE pair assignment needs it). The relation file
    lists NA first, since relation id 0 is NA.
    """
    word_names, word = _load_vector_file(word_path)
    relation_names, relation = _load_vector_file(relation_path, first="NA")
    if entity_path:
        entity_names, entity = _load_vector_file(
            entity_path, (relation.shape[1], f"the relation table {relation_path}"))
    else:
        entity_names, entity = [], np.zeros((0, relation.shape[1]))
    unk = word.mean(axis=0, keepdims=True)
    return EmbeddingStore(
        word=np.vstack([word, unk]),
        word_vocab={t: i for i, t in enumerate(word_names)},
        entity=entity,
        entity_vocab={t: i for i, t in enumerate(entity_names)},
        relation=relation,
        relation_names=relation_names,
    )


def batch_iter(bags: list[Bag], batch_size: int, seed: int):
    """Yield one epoch of seeded-shuffled batches; the short tail is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(bags))
    for start in range(0, len(bags), batch_size):
        yield [bags[i] for i in order[start:start + batch_size]]
