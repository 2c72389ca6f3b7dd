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


# Entries per block along the first axis: 128 KB of float64 scratch for a
# flat vector.
_BLOCK = 1 << 14


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
    ``lr * wd`` first, then take the bias-corrected Adam step along ``g``.

    The update runs over blocks of ``_BLOCK`` entries along the first axis
    through two block-sized scratch arrays, so no temporary is as large as
    ``theta``.  Each element goes through the same operations in the same
    order as in a whole-array update.
    """
    if g.shape != theta.shape:
        raise ValueError(f"gradient shape mismatch: {g.shape} vs {theta.shape}")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    n = len(theta)
    shape = (min(n, _BLOCK),) + theta.shape[1:]
    tmp_buf, step_buf = np.empty(shape), np.empty(shape)
    for lo in range(0, n, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        tb, gb, m, v = theta[part], g[part], state.m[part], state.v[part]
        # tmp holds each intermediate in turn.
        tmp, step = tmp_buf[: len(tb)], step_buf[: len(tb)]
        np.multiply(gb, 1.0 - beta1, out=tmp)
        m *= beta1
        m += tmp
        np.multiply(gb, 1.0 - beta2, out=tmp)
        tmp *= gb
        v *= beta2
        v += tmp
        np.divide(v, c2, out=tmp)  # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, c1, out=step)  # m_hat
        step *= lr
        step /= tmp
        tb *= 1.0 - lr * wd
        tb -= step
