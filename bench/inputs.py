"""Seeded input files for the benchmark workloads.

Every workload gets a directory of plain input files (corpus JSON lines,
text embeddings and, for `heldout`, a checkpoint) generated from the
workload seed. The program under test only ever sees these files.

The `paper` and `heldout` corpora fix the shape of every bag (its size
and sentence lengths) and let the seed draw tokens, entity positions and
labels. Training uses one model seed for every workload seed. The work
per epoch or per block of bags is then the same for every seed, so runs
with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

PAPER_LENGTHS = (10, 30, 60, 119)
# (sentence length, instances) of the `paper` training bags. All sentences
# of a bag share its length, so the sentence that selection picks costs the
# same whichever it is. Sorted by step time an epoch is five cheap bags,
# five (60, 3) bags and six (119, 2) bags: the median step (8th/9th of 16)
# sits inside the (60, 3) group, and the tail step (rank n - 10 of n = 16k
# steps) sits inside the (119, 2) group for every epoch count k >= 2. The
# epoch count then changes neither kind of step the two statistics land on.
PAPER_BAGS = ((10, 1), (10, 3), (30, 2), (30, 4), (60, 1)) \
    + ((60, 3),) * 5 + ((119, 2),) * 6
PAPER_VOCAB = 10_000
PAPER_E = 53
D_W = 50
K_REL = 16
# `heldout` bags come in blocks of nine: one of each size 1..8 and a
# second of size 8 (44 sentences). The bag of size s cycles through
# PAPER_LENGTHS from offset s - 1. With the largest bag twice per block,
# six blocks put more than 10 of them in the tail, so the tail percentile
# stays on the same kind of bag as the block count varies.
HELDOUT_BLOCKS = 22
HELDOUT_BLOCK_SIZES = tuple(range(1, 9)) + (8,)
MODEL_SEED = 0


@dataclass
class Inputs:
    corpus: str
    words: str
    relations: str
    entities: str | None = None
    heldout_corpus: str | None = None
    checkpoint: str = ""
    train_config: dict = field(default_factory=dict)
    block_size: int = 0     # bags per block in `corpus` (heldout only)


def _write_vectors(path: str, names: list[str], vecs: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, row in zip(names, vecs):
            fh.write(name + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def _write_corpus(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _relation_names() -> list[str]:
    return ["NA"] + [f"R{i}" for i in range(1, PAPER_E)]


def _sentence(rng: np.random.Generator, length: int,
              pairs: list[tuple[str, str]], relations: list[str]) -> dict:
    tokens = [f"w{i}" for i in rng.integers(0, PAPER_VOCAB, length)]
    slots = rng.choice(length, size=2 * len(pairs), replace=False)
    entities = [{"id": ent, "span": [int(pos), int(pos) + 1]}
                for ent, pos in zip([e for p in pairs for e in p], slots)]
    return {"tokens": tokens, "entities": entities,
            "pairs": [list(p) for p in pairs], "relations": relations}


def _paper_shape_files(rng: np.random.Generator, out: str
                       ) -> tuple[str, str, list[str], np.ndarray]:
    words = os.path.join(out, "words.txt")
    relations = os.path.join(out, "relations.txt")
    _write_vectors(words, [f"w{i}" for i in range(PAPER_VOCAB)],
                   rng.normal(0.0, 0.5, (PAPER_VOCAB, D_W)))
    rel_vecs = rng.normal(0.0, 1.0, (PAPER_E, K_REL))
    _write_vectors(relations, _relation_names(), rel_vecs)
    return words, relations, _relation_names(), rel_vecs


def make_tiny(seed: int, out: str) -> Inputs:
    """The acceptance config on a `capsrel.synth` corpus plus a held-out
    split drawn with another seed over the same token names."""
    from capsrel import synth
    train = synth.generate(synth.SynthSpec(E=4, bags=50, seed=seed),
                           os.path.join(out, "train"))
    held = synth.generate(synth.SynthSpec(E=4, bags=50, seed=seed + 7919),
                          os.path.join(out, "heldout"))
    return Inputs(corpus=train.corpus, words=train.words,
                  relations=train.relations, heldout_corpus=held.corpus,
                  checkpoint=os.path.join(out, "model.ckpt"),
                  train_config={"B": 32, "C": 4, "d": 4, "seed": MODEL_SEED})


def make_paper(seed: int, out: str) -> Inputs:
    rng = np.random.default_rng(seed)
    words, relations, names, _ = _paper_shape_files(rng, out)
    records = []
    for b, (length, size) in enumerate(PAPER_BAGS):
        pair = (f"E{2 * b}", f"E{2 * b + 1}")
        rel = names[int(rng.integers(0, PAPER_E))]
        records += [_sentence(rng, length, [pair], [rel]) for _ in range(size)]
    corpus = os.path.join(out, "corpus.jsonl")
    _write_corpus(corpus, records)
    return Inputs(corpus=corpus, words=words, relations=relations,
                  checkpoint=os.path.join(out, "model.ckpt"),
                  train_config={"seed": MODEL_SEED, "batch_size": 1})


def make_heldout(seed: int, out: str) -> Inputs:
    """Two-pair sentences, M=4, and TransE-style entity embeddings.

    The checkpoint itself is written by the benchmark's untimed setup
    (`plant_heldout_model`), since it needs the program's own format.
    """
    rng = np.random.default_rng(seed)
    words, relations, names, rel_vecs = _paper_shape_files(rng, out)
    records = []
    ent_names: list[str] = []
    ent_vecs: list[np.ndarray] = []

    def new_pair(rel: int) -> tuple[str, str]:
        e1, e2 = f"E{len(ent_names)}", f"E{len(ent_names) + 1}"
        v1 = rng.normal(0.0, 1.0, K_REL)
        ent_names.extend([e1, e2])
        ent_vecs.extend([v1, v1 + rel_vecs[rel] + rng.normal(0.0, 0.1, K_REL)])
        return e1, e2

    n = len(PAPER_LENGTHS)
    for _ in range(HELDOUT_BLOCKS):
        for size in HELDOUT_BLOCK_SIZES:
            rels = [int(r) for r in rng.integers(0, PAPER_E, 2)]
            pairs = [new_pair(r) for r in rels]
            rel_names = [names[r] for r in rels]
            for i in range(size):
                length = PAPER_LENGTHS[(size - 1 + i) % n]
                records.append(_sentence(rng, length, pairs, rel_names))
    corpus = os.path.join(out, "corpus.jsonl")
    _write_corpus(corpus, records)
    entities = os.path.join(out, "entities.txt")
    _write_vectors(entities, ent_names, np.asarray(ent_vecs))
    return Inputs(corpus=corpus, words=words, relations=relations,
                  entities=entities,
                  checkpoint=os.path.join(out, "model.ckpt"),
                  train_config={"seed": MODEL_SEED, "M": 4},
                  block_size=len(HELDOUT_BLOCK_SIZES))


def plant_heldout_model(model, seed: int) -> None:
    """Give a fresh paper-shape model scores spread over [0, 1).

    Freshly initialised, every relation activation is below 1e-13, so no
    bag would pass the 0.7 decoding threshold and `assign_all` would never
    assign a pair. A bias on the primary capsules lifts the child
    activations; the votes and routing are left as initialised.
    """
    rng = np.random.default_rng(seed + 1)
    b1 = model.params["caps_b1"]
    d = model.config.d
    b1.data = rng.normal(0.0, 0.5 / np.sqrt(d), b1.shape)


MAKERS = {"tiny": make_tiny, "paper": make_paper, "heldout": make_heldout}
