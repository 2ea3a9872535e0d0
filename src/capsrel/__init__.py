"""Capsule-network relation extraction with attention under MIML
distant supervision, built on a minimal reverse-mode autodiff core."""

from .autodiff import Tensor, concat, dropout, grad_check, no_grad, stack
from .capsule import dynamic_routing, primary_capsules, squash, votes
from .config import RunConfig, TrainConfig
from .data import Bag, EmbeddingStore, SentenceInstance, load_corpus, load_embeddings
from .model import Model, load_checkpoint, save_checkpoint
from .optim import Adam
from .training import margin_loss, select_instance, train, train_epoch

__all__ = [
    "Adam", "Bag", "EmbeddingStore", "Model", "RunConfig", "SentenceInstance",
    "Tensor", "TrainConfig", "concat", "dropout",
    "dynamic_routing", "grad_check", "load_checkpoint", "load_corpus",
    "load_embeddings", "margin_loss", "no_grad", "primary_capsules",
    "save_checkpoint", "select_instance", "squash", "stack", "train",
    "train_epoch", "votes",
]

__version__ = "0.1.0"
