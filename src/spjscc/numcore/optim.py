"""Adam parameter updates over name->array dicts."""

from __future__ import annotations

import math

import numpy as np

from .tape import NonFiniteError

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to sqrt(vhat) in the step denominator


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def adam_step(params, grads, state, lr):
    """One Adam update, in place on `params`.

    Rejects the whole step (raises NonFiniteError, params untouched) if any
    gradient contains NaN/Inf, so the caller can snapshot and abort.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}; step rejected")
    state.t += 1
    t = state.t
    for name, g in grads.items():
        p = params[name]
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch for {name!r}: param {p.shape} vs grad {g.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m += (1.0 - BETA1) * (g - m)
        v += (1.0 - BETA2) * (g * g - v)
        mhat = m / (1.0 - BETA1**t)
        vhat = v / (1.0 - BETA2**t)
        p -= lr * mhat / (np.sqrt(vhat) + EPS)
    return params
