"""The 3x3 conv layer, init and forward, that the classifier and the codec are built from."""

from __future__ import annotations

import numpy as np

from .tape import Tape, Tensor


def param(tape: Tape, params: dict[str, np.ndarray], name: str) -> Tensor:
    """Register `params[name]` on the tape under its name."""
    return tape.parameter(name, params[name])


def conv_params(rng, p, name, cin, cout, transposed=False, prelu=True):
    """He-initialized 3x3 conv `name`.w (transposed: (cin, cout, 3, 3)), zero `name`.b, 0.25 `name`.slope."""
    shape = (cin, cout, 3, 3) if transposed else (cout, cin, 3, 3)
    p[f"{name}.w"] = (rng.normal(size=shape) * np.sqrt(2.0 / (cin * 9))).astype(np.float32)
    p[f"{name}.b"] = np.zeros(cout, np.float32)
    if prelu:
        p[f"{name}.slope"] = np.full(cout, 0.25, np.float32)


def conv_layer(tape: Tape, p: dict[str, np.ndarray], name: str, h: Tensor, stride: int = 1, op: str = "conv2d") -> Tensor:
    """Conv `op` ("conv2d" or "tconv2d") with `name`.w and `name`.b, then PReLU if the layer has a `name`.slope."""
    h = getattr(tape, op)(h, param(tape, p, f"{name}.w"), param(tape, p, f"{name}.b"), stride=stride)
    if f"{name}.slope" in p:
        h = tape.prelu(h, param(tape, p, f"{name}.slope"))
    return h
