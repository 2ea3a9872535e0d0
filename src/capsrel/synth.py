"""Synthetic separable corpus and toy embedding generator.

Relation identity is planted as a trigger token between the entity
mentions, so a working model can overfit the corpus quickly. Entity and
relation embeddings are constructed TransE-style: emb(e2) = emb(e1) +
emb(rel) + noise, which lets pair assignment be verified exactly when
the noise is zero.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import atomic_write


@dataclass
class SynthSpec:
    E: int = 4                  # number of relations including NA
    vocab_size: int = 30        # filler token count
    bags: int = 50
    pairs_per_sentence: int = 1  # 1 or 2
    instances_per_bag: tuple[int, int] = (1, 3)
    seed: int = 0
    d_w: int = 16
    k: int = 8                  # entity/relation embedding dim
    transe_noise: float = 0.0
    filler_run: tuple[int, int] = (1, 3)  # filler tokens between mentions


@dataclass
class SynthPaths:
    corpus: str
    words: str
    entities: str
    relations: str


def relation_names(E: int) -> list[str]:
    return ["NA"] + [f"R{i}" for i in range(1, E)]


def _format_row(token: str, vec: np.ndarray) -> str:
    return token + " " + " ".join(repr(float(v)) for v in vec)


def generate(spec: SynthSpec, out_dir: str) -> SynthPaths:
    """Write corpus.jsonl plus words/entities/relations embedding files."""
    if spec.E < 2:
        raise ValueError(f"need at least 2 relations (NA + 1), got E={spec.E}")
    if spec.pairs_per_sentence not in (1, 2):
        raise ValueError("pairs_per_sentence must be 1 or 2")
    if spec.pairs_per_sentence == 2 and spec.E < 3:
        raise ValueError("two pairs per sentence need two distinct non-NA "
                         f"relations (E >= 3), got E={spec.E}")
    rng = np.random.default_rng(spec.seed)
    names = relation_names(spec.E)

    fillers = [f"w{i}" for i in range(spec.vocab_size)]
    triggers = {r: f"trig_{names[r]}" for r in range(1, spec.E)}
    ent_tokens = ["enta", "entb", "entc", "entd"]
    vocab = fillers + list(triggers.values()) + ent_tokens
    word_vecs = {t: rng.normal(0.0, 0.5, spec.d_w) for t in vocab}

    rel_vecs = {name: rng.normal(0.0, 1.0, spec.k) for name in names}
    entity_vecs: dict[str, np.ndarray] = {}

    def new_pair(rel_name: str) -> tuple[str, str]:
        n = len(entity_vecs)
        e1, e2 = f"E{n:05d}", f"E{n + 1:05d}"
        v1 = rng.normal(0.0, 1.0, spec.k)
        noise = (rng.normal(0.0, spec.transe_noise, spec.k)
                 if spec.transe_noise > 0 else 0.0)
        entity_vecs[e1] = v1
        entity_vecs[e2] = v1 + rel_vecs[rel_name] + noise
        return e1, e2

    def filler_run() -> list[str]:
        lo, hi = spec.filler_run
        n = int(rng.integers(lo, hi + 1))
        return [fillers[int(i)] for i in rng.integers(0, len(fillers), n)]

    def make_sentence(rels: list[int], pairs: list[tuple[str, str]]) -> dict:
        tokens: list[str] = []
        entities = []
        for slot, (rel, pair) in enumerate(zip(rels, pairs)):
            tokens += filler_run()
            t1, t2 = ent_tokens[2 * slot], ent_tokens[2 * slot + 1]
            start1 = len(tokens)
            tokens.append(t1)
            if rel != 0:
                tokens.append(triggers[rel])
            start2 = len(tokens)
            tokens.append(t2)
            entities.append({"id": pair[0], "span": [start1, start1 + 1]})
            entities.append({"id": pair[1], "span": [start2, start2 + 1]})
        tokens += filler_run()
        return {
            "tokens": tokens,
            "entities": entities,
            "pairs": [list(p) for p in pairs],
            "relations": [names[r] for r in rels],
        }

    # each bag's relation tuple: one relation, or two distinct non-NA ones
    if spec.pairs_per_sentence == 1:
        combos = [[r] for r in range(spec.E)]
    else:
        combos = [[i, j] for i in range(1, spec.E)
                  for j in range(1, spec.E) if i != j]
    records: list[dict] = []
    for b in range(spec.bags):
        rels = combos[b % len(combos)]
        pairs = [new_pair(names[r]) for r in rels]
        lo, hi = spec.instances_per_bag
        for _ in range(int(rng.integers(lo, hi + 1))):
            records.append(make_sentence(rels, pairs))

    paths = SynthPaths(
        corpus=os.path.join(out_dir, "corpus.jsonl"),
        words=os.path.join(out_dir, "words.txt"),
        entities=os.path.join(out_dir, "entities.txt"),
        relations=os.path.join(out_dir, "relations.txt"),
    )
    with atomic_write(paths.corpus) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    with atomic_write(paths.words) as fh:
        for t in vocab:
            fh.write(_format_row(t, word_vecs[t]) + "\n")
    with atomic_write(paths.entities) as fh:
        for eid in sorted(entity_vecs):
            fh.write(_format_row(eid, entity_vecs[eid]) + "\n")
    with atomic_write(paths.relations) as fh:
        for name in names:
            fh.write(_format_row(name, rel_vecs[name]) + "\n")
    return paths
