"""MIML training loop: instance selection, margin loss, Adam updates."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError, ShapeError, Tensor
from .config import TrainConfig
from .data import Bag, batch_iter
from .model import Model
from .optim import Adam

log = logging.getLogger(__name__)

M_POS = 0.9
M_NEG = 0.1
LAMBDA_NEG = 0.5


def label_vector(labels: set[int], E: int) -> np.ndarray:
    y = np.zeros(E)
    y[sorted(labels)] = 1.0
    return y


def margin_loss(a: Tensor, y: np.ndarray) -> tuple[Tensor, Tensor]:
    """Summed margin loss (one tape node) and its per-relation terms (constant).

    L_k = Y_k max(0, 0.9 - a_k)^2 + 0.5 (1 - Y_k) max(0, a_k - 0.1)^2, so
    dL/da_k = 2 (0.5 (1 - Y_k) max(0, a_k - 0.1) - Y_k max(0, 0.9 - a_k)).
    """
    if np.shape(y) != a.shape:
        raise ShapeError(f"margin_loss needs y shaped like a, got a {a.shape}, "
                         f"y {np.shape(y)}")
    short = np.maximum(M_POS - a.data, 0.0)
    over = np.maximum(a.data - M_NEG, 0.0)
    off = LAMBDA_NEG * (1.0 - y)
    per = y * short ** 2 + off * over ** 2

    def bw(g):
        a._accumulate(2.0 * g * (off * over - y * short))
    return Tensor._from_op(per.sum(), (a,), bw), Tensor(per)


def select_instance(model: Model, bag: Bag) -> int:
    """Index of the sentence with the highest gold-relation activation.

    Score per instance is the max activation over the bag's gold
    relations; ties break to the lowest index. Evaluated without dropout.
    """
    if not bag.instances:
        raise ValueError("cannot select from an empty bag")
    if len(bag.instances) == 1:
        return 0
    gold = sorted(bag.labels)
    return int(model.instance_scores(bag)[:, gold].max(axis=1).argmax())


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    selection_histogram: dict[int, int]


def train_epoch(model: Model, bags: list[Bag], optimizer: Adam,
                config: TrainConfig, epoch: int) -> EpochStats:
    """One epoch: per batch, select instances, forward, backward, Adam step.

    The loss is the mean over the batch's bags of the per-bag margin loss
    on the selected sentence. A step runs one backward per bag as soon as
    its loss is known and frees that bag's graph, so peak memory does not
    grow with `batch_size`. Deterministic under a fixed config seed.
    """
    losses: list[float] = []
    hist: dict[int, int] = {}
    for batch in batch_iter(bags, config.batch_size, seed=config.seed + epoch):
        optimizer.zero_grad()
        totals = []
        for bag in batch:
            idx = select_instance(model, bag)
            hist[idx] = hist.get(idx, 0) + 1
            a = model.activations([bag.instances[idx]], train=True)
            total = margin_loss(a, label_vector(bag.labels, model.E)[None])[0]
            if not np.isfinite(total.data):
                raise NonFiniteError(
                    f"non-finite loss for bag {bag.key!r} in epoch {epoch}")
            (total * (1.0 / len(batch))).backward()
            totals.append(total.item())
            del a, total  # drop this bag's graph before the next forward
        optimizer.step()
        losses.append(float(np.asarray(totals).sum() * (1.0 / len(batch))))
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return EpochStats(epoch=epoch, mean_loss=mean_loss, selection_histogram=hist)


def train(model: Model, bags: list[Bag], config: TrainConfig,
          epochs: int | None = None,
          callback=None) -> list[EpochStats]:
    """Run `epochs` training epochs; `callback(stats)` may return True to stop."""
    optimizer = Adam(model.params, lr=config.lr)
    history: list[EpochStats] = []
    n = config.epochs if epochs is None else epochs
    for epoch in range(n):
        stats = train_epoch(model, bags, optimizer, config, epoch)
        history.append(stats)
        log.info("epoch %d: mean loss %.6f", epoch, stats.mean_loss)
        if callback is not None and callback(stats):
            break
    return history

