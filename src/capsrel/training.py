"""MIML training loop: instance selection, margin loss, Adam updates."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError, Tensor, no_grad, stack
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
    """Per-relation hinge-squared loss and its sum.

    L_k = Y_k max(0, 0.9 - a_k)^2 + 0.5 (1 - Y_k) max(0, a_k - 0.1)^2
    """
    yt = Tensor(y)
    pos = yt * ((M_POS - a).relu() ** 2)
    neg = LAMBDA_NEG * Tensor(1.0 - y) * ((a - M_NEG).relu() ** 2)
    per = pos + neg
    return per.sum(), per


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
    best_idx, best_score = 0, -np.inf
    with no_grad():
        for i, inst in enumerate(bag.instances):
            a = model.activations(inst, train=False).data
            score = float(a[gold].max())
            if score > best_score:
                best_idx, best_score = i, score
    return best_idx


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    selection_histogram: dict[int, int]


def train_epoch(model: Model, bags: list[Bag], optimizer: Adam,
                config: TrainConfig, epoch: int) -> EpochStats:
    """One epoch: per batch, select instances, forward, backward, Adam step.

    The loss is the mean over the batch's bags of the per-bag margin loss
    on the selected sentence. Deterministic under a fixed config seed.
    """
    E = model.E
    losses: list[float] = []
    hist: dict[int, int] = {}
    for batch in batch_iter(bags, config.batch_size, seed=config.seed + epoch):
        bag_losses = []
        for bag in batch:
            idx = select_instance(model, bag)
            hist[idx] = hist.get(idx, 0) + 1
            a = model.activations(bag.instances[idx], train=True)
            total, _ = margin_loss(a, label_vector(bag.labels, E))
            if not np.isfinite(total.data):
                raise NonFiniteError(
                    f"non-finite loss for bag {bag.key!r} in epoch {epoch}")
            bag_losses.append(total.reshape((1,)))
        batch_loss = stack(bag_losses, axis=0).mean()
        optimizer.zero_grad()
        batch_loss.backward()
        optimizer.step()
        losses.append(batch_loss.item())
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


def bag_top1_accuracy(model: Model, bags: list[Bag]) -> float:
    """Fraction of bags whose top-scoring relation is among the gold labels."""
    hits = 0
    for bag in bags:
        scores = model.bag_scores(bag)
        if int(scores.argmax()) in bag.labels:
            hits += 1
    return hits / len(bags) if bags else 0.0
