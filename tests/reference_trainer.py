"""The per-tensor AdamW step: moments in dicts keyed by tensor name, one
tensor updated at a time.  It is the oracle that `test_trainer.py` holds
`seps.trainer.optimizer_step`'s whole-buffer update to, bit for bit, in
parameters and moments; it is test code, not a second optimizer."""

from dataclasses import dataclass, field

import numpy as np

from seps.errors import DivergenceError


@dataclass
class OptimizerState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def optimizer_step(params, grads, state: OptimizerState, cfg) -> None:
    """theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)"""
    state.step += 1
    t = state.step
    for name, param in params.named():
        grad = grads.get(param)
        g = grad.data if grad is not None else np.zeros(param.shape)
        if not np.all(np.isfinite(g)):
            raise DivergenceError("divergence detected")
        m = state.m.get(name)
        if m is None:
            m = np.zeros(param.shape)
            state.v[name] = np.zeros(param.shape)
        v = state.v[name]
        with np.errstate(over="ignore"):
            m = state.beta1 * m + (1.0 - state.beta1) * g
            v = state.beta2 * v + (1.0 - state.beta2) * g * g
        if not np.all(np.isfinite(v)):  # g*g overflowed
            raise DivergenceError("divergence detected")
        state.m[name], state.v[name] = m, v
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        with np.errstate(over="ignore", invalid="ignore"):
            update = m_hat / (np.sqrt(v_hat) + state.eps) + cfg.weight_decay * param.data
            fresh = param.data - cfg.lr * update
        if not np.all(np.isfinite(fresh)):
            raise DivergenceError("divergence detected")
        param.data = fresh
