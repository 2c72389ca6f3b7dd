"""Attention-based variable scorer: model, loss, optimizer and training, in
plain numpy with hand-written backward passes."""

from .loss import infonce_loss
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
    "TrainConfig",
    "TrainSample",
    "adam_step",
    "gat_forward",
    "greedy_select",
    "infonce_loss",
    "load_model",
    "save_model",
    "score_graph",
    "train",
]
