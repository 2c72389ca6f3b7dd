"""Adam with decoupled weight decay for named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            t=0,
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 5e-4,
    wd: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One update: decay weights by ``lr * wd`` first, then bias-corrected Adam.

    Returns fresh arrays; ``params`` and ``grads`` are left untouched, and
    ``state`` is updated in place.
    """
    state.t += 1
    t = state.t
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    out: dict[str, np.ndarray] = {}
    for k, theta in params.items():
        g = grads[k]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {k!r}: {g.shape} vs {theta.shape}")
        # The moments are updated in place, and one scratch array holds each
        # intermediate in turn, so a long vector makes no other temporaries.
        m, v = (np.asarray(a, dtype=np.float64) for a in (state.m[k], state.v[k]))
        state.m[k], state.v[k] = m, v
        tmp = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += tmp
        np.multiply(g, 1.0 - beta2, out=tmp)
        tmp *= g
        v *= beta2
        v += tmp
        np.divide(v, c2, out=tmp)  # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += eps
        new = np.divide(m, c1)  # m_hat
        new *= lr
        new /= tmp
        np.multiply(theta, 1.0 - lr * wd, out=tmp)
        np.subtract(tmp, new, out=new)
        out[k] = new
    return out, state
