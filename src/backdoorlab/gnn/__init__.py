"""Attention-based variable scorer: model, loss, optimizer, training, and the
autodiff tape that the tests use as the gradient reference."""

from .autodiff import Tensor, grad
from .loss import infonce_loss, membership_matrix
from .model import (
    AttentionRecord,
    GatParameters,
    ModelFormatError,
    gat_forward,
    greedy_select,
    load_model,
    save_model,
    score_graph,
)
from .optim import AdamState, adam_step
from .training import TrainConfig, TrainSample, train

__all__ = [
    "AdamState",
    "AttentionRecord",
    "GatParameters",
    "ModelFormatError",
    "Tensor",
    "TrainConfig",
    "TrainSample",
    "adam_step",
    "gat_forward",
    "grad",
    "greedy_select",
    "infonce_loss",
    "load_model",
    "membership_matrix",
    "save_model",
    "score_graph",
    "train",
]
