from .tape import (
    OP_KINDS,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
)
from .optim import AdamState, adam_step

__all__ = [
    "OP_KINDS",
    "NonFiniteError",
    "ShapeError",
    "Tape",
    "Tensor",
    "AdamState",
    "adam_step",
]
