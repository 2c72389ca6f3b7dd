"""Adam with decoupled weight decay (AdamW) over one flat parameter vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    """The step counter and the first and second moment estimates."""

    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, theta: np.ndarray) -> "AdamState":
        return cls(t=0, m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(
    theta: np.ndarray,
    g: np.ndarray,
    state: AdamState,
    lr: float = 5e-4,
    wd: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One update of ``theta`` and ``state`` in place: decay the weights by
    ``lr * wd`` first, then take the bias-corrected Adam step along ``g``."""
    if g.shape != theta.shape:
        raise ValueError(f"gradient shape mismatch: {g.shape} vs {theta.shape}")
    state.t += 1
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    step = m / (1.0 - beta1**state.t) * lr
    step /= np.sqrt(v / (1.0 - beta2**state.t)) + eps
    theta *= 1.0 - lr * wd
    theta -= step
