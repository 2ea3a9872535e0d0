"""Decoding relation activations into predictions.

Single-pair bags get a full ranking by activation. Multi-pair bags keep
the top two relations above the threshold and assign each surviving
relation to the entity pair whose embedding difference is nearest to the
relation embedding (TransE-style).
"""

from __future__ import annotations

import numpy as np

from .config import PAIR_DIFFS
from .data import EmbeddingStore


def predict_single(a: np.ndarray) -> list[tuple[int, float]]:
    """All relations sorted by score descending, ties by relation id."""
    order = np.argsort(-np.asarray(a), kind="stable")
    return [(int(j), float(a[j])) for j in order]


def predict_multi(a: np.ndarray, threshold: float) -> list[tuple[int, float]]:
    """Top-2 relations strictly above the threshold; possibly empty."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return [(j, s) for j, s in predict_single(a)[:2] if s > threshold]


@np.errstate(over="ignore", invalid="ignore")  # an overflowed difference is skipped
def assign_all(relations: list[tuple[int, float]],
               pairs: list[tuple[str, str]], store: EmbeddingStore,
               direction: str) -> list[dict]:
    """One `{id, score, pair}` entry per relation, in the given order.

    Each relation takes the remaining pair whose entity difference (e2 − e1
    or e1 − e2, as `direction`, one of `PAIR_DIFFS`, says) is nearest (L2)
    its relation embedding, the first on ties. A pair with a missing entity
    embedding, or whose difference is not finite, is never assigned, and a
    relation with no pair left gets `pair: None`.
    """
    if direction not in PAIR_DIFFS:
        raise ValueError(f"direction {direction!r} is not one of {PAIR_DIFFS}")
    diffs = []
    for e1, e2 in pairs:
        v1, v2 = store.entity_vec(e1), store.entity_vec(e2)
        if v1 is not None and v2 is not None:
            delta = v2 - v1 if direction == "e2-e1" else v1 - v2
            diffs.append(([e1, e2], delta))
    out = []
    for rel, score in relations:
        dists = [_norm_key(delta - store.relation[rel]) for _, delta in diffs]
        # the first of equal distances wins; a non-finite one never does
        nearest = min(((d, i) for i, d in enumerate(dists) if d is not None),
                      default=None)
        pair = None if nearest is None else diffs.pop(nearest[1])[0]
        out.append({"id": rel, "score": score, "pair": pair})
    return out


def _norm_key(v: np.ndarray) -> tuple[float, float] | None:
    """||v|| as (exponent, mantissa), ordered as the norm is, or None if v
    is not finite. v is scaled by the power of two above its largest entry
    before the norm, so no finite v overflows, and the scaling is exact."""
    if not np.all(np.isfinite(v)):
        return None
    _, scale = np.frexp(np.abs(v).max())
    mantissa, exponent = np.frexp(np.linalg.norm(np.ldexp(v, -scale)))
    return (float(exponent + scale) if mantissa else -np.inf, float(mantissa))
