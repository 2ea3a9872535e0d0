"""Held-out evaluation: precision-recall curves, precision@recall, AUC.

Decisions are an N-row record array of (score, gold) pairs, one per
non-NA (bag, relation); the NA relation (id 0) is excluded from the
ranking, following the standard held-out protocol. A PR curve is a K x 2
float64 array of (recall, precision) rows: a raw staircase with ties
grouped per distinct score; no interpolation is applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

NA_RELATION = 0
DECISION_DTYPE = np.dtype([("score", np.float64), ("gold", np.bool_)])


class EvaluationError(ValueError):
    """The decision set cannot support the requested metric."""


def decisions_from_scores(bags_with_scores) -> np.recarray:
    """Flatten (bag, score-vector) pairs into non-NA (score, gold) records,
    bag by bag and relation by relation."""
    pairs = list(bags_with_scores)
    scores = np.stack([s for _, s in pairs]) if pairs else np.zeros((0, 1))
    gold = np.zeros(scores.shape, dtype=bool)
    for row, (bag, _) in zip(gold, pairs):
        row[list(bag.labels)] = True
    return np.rec.fromarrays([np.delete(scores, NA_RELATION, axis=1).ravel(),
                              np.delete(gold, NA_RELATION, axis=1).ravel()],
                             dtype=DECISION_DTYPE)


def pr_curve(decisions: np.ndarray) -> np.ndarray:
    """(recall, precision) staircase over score-descending decisions.

    Decisions with equal scores advance the curve as one group.
    """
    gold = decisions["gold"]
    positives = int(gold.sum())
    if positives == 0:
        raise EvaluationError("zero gold positives: cannot build a PR curve")
    order = np.argsort(-decisions["score"], kind="stable")
    score = decisions["score"][order]
    tp = np.cumsum(gold[order])
    ends = np.append(np.flatnonzero(score[1:] != score[:-1]), len(score) - 1)
    return np.column_stack([tp[ends] / positives, tp[ends] / (ends + 1)])


def precision_at(curve: np.ndarray,
                 recalls: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
                 ) -> dict[float, float | None]:
    """Precision at the first curve point reaching each recall target.

    A target beyond the achieved recall maps to None.
    """
    curve = _as_curve(curve)
    at = np.searchsorted(curve[:, 0], recalls, side="left")
    return {target: None if i == len(curve) else float(curve[i, 1])
            for target, i in zip(recalls, at)}


def auc(curve: np.ndarray) -> float:
    """Trapezoidal area under the PR staircase up to the max achieved recall.

    The segment from recall 0 to the first point uses the first point's
    precision. Trapezoids are summed left to right.
    """
    curve = _as_curve(curve)
    recall = np.concatenate([[0.0], curve[:, 0]])
    precision = np.concatenate([curve[:1, 1], curve[:, 1]])
    terms = np.diff(recall) * (precision[:-1] + precision[1:]) / 2.0
    return float(np.cumsum(terms)[-1])


def _as_curve(curve: np.ndarray) -> np.ndarray:
    curve = np.asarray(curve, dtype=np.float64)
    if len(curve) == 0:
        raise EvaluationError("empty PR curve")
    return curve


def write_curve_csv(curve: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("recall,precision\n")
        for recall, precision in curve:
            fh.write(f"{recall:.6f},{precision:.6f}\n")


@dataclass
class SweepRow:
    label: str
    auc: float | None
    precisions: dict[float, float | None]
    wall_time_s: float
    error: str | None = None


def experiment_sweep(base_config, grid: list[dict], run_point) -> list[SweepRow]:
    """Train/evaluate one point per grid entry; failures are recorded
    and the sweep continues.

    `run_point(config) -> (auc, precisions)`; each grid entry is a dict
    of TrainConfig field overrides.
    """
    rows: list[SweepRow] = []
    for overrides in grid:
        label = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        config = replace(base_config, **overrides)
        start = time.monotonic()
        try:
            point_auc, precisions = run_point(config)
            rows.append(SweepRow(label=label, auc=point_auc,
                                 precisions=precisions,
                                 wall_time_s=time.monotonic() - start))
        except Exception as exc:  # noqa: BLE001 - sweep must survive points
            rows.append(SweepRow(label=label, auc=None, precisions={},
                                 wall_time_s=time.monotonic() - start,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def sweep_markdown(rows: list[SweepRow],
                   recalls: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)) -> str:
    """Render sweep results as a Markdown table (AUC over the full curve)."""
    header = ("| config | " + " | ".join(f"P@{r}" for r in recalls)
              + " | AUC | time (s) |")
    sep = "|" + "---|" * (len(recalls) + 3)
    lines = ["<!-- AUC computed over the full PR curve -->", header, sep]
    for row in rows:
        if row.error is not None:
            cells = ["-"] * len(recalls) + ["-", f"{row.wall_time_s:.1f}"]
            lines.append(f"| {row.label} (error: {row.error}) | "
                         + " | ".join(cells) + " |")
            continue
        prec_cells = []
        for r in recalls:
            v = row.precisions.get(r)
            prec_cells.append("-" if v is None else f"{v:.3f}")
        lines.append(f"| {row.label} | " + " | ".join(prec_cells)
                     + f" | {row.auc:.3f} | {row.wall_time_s:.1f} |")
    return "\n".join(lines) + "\n"
