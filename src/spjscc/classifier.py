"""The downstream task: a small CNN classifier, pretrained once then frozen.

Architecture is fixed so weight maps and accuracies reproduce exactly:
three blocks of conv3x3 + ReLU + 2x2 mean-pool with 32/64/128 channels,
then a dense layer to the class logits. No dropout or batch norm, so
inference is stateless and input gradients are well defined.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataio import LabeledImageDataset, batch_iter
from .numcore import AdamState, NonFiniteError, ShapeError, Tape, adam_step
from .numcore.layers import conv_layer, conv_params, param

CONV_CHANNELS = (32, 64, 128)
ACCURACY_BATCH = 256  # images per forward pass in classify_accuracy


@dataclass
class TrainClassifierConfig:
    epochs: int = 20
    lr: float = 2e-3
    batch: int = 32
    seed: int = 0


@dataclass
class ClassifierModel:
    params: dict[str, np.ndarray]
    class_count: int
    in_hw: tuple[int, int]

    def theta_hash(self) -> str:
        """sha256 over the sorted parameter table; stable while frozen."""
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].astype("<f4").tobytes())
        return h.hexdigest()


@dataclass
class PerceptionResult:
    """Per-image rows: raw logits and the argmax class."""

    logits: np.ndarray  # (N, C)
    predicted: np.ndarray  # (N,)


def init_classifier(class_count: int, in_hw: tuple[int, int], seed: int) -> ClassifierModel:
    rng = np.random.default_rng(np.random.PCG64(seed))
    params: dict[str, np.ndarray] = {}
    for i, (cin, cout) in enumerate(zip((3,) + CONV_CHANNELS, CONV_CHANNELS)):
        conv_params(rng, params, f"conv{i}", cin, cout, prelu=False)
    pooled = 2 ** len(CONV_CHANNELS)
    flat = CONV_CHANNELS[-1] * (in_hw[0] // pooled) * (in_hw[1] // pooled)
    params["head.w"] = (rng.normal(size=(flat, class_count)) * np.sqrt(1.0 / flat)).astype(np.float32)
    params["head.b"] = np.zeros(class_count, dtype=np.float32)
    return ClassifierModel(params=params, class_count=class_count, in_hw=in_hw)


def logits_graph(tape: Tape, params: dict[str, np.ndarray], x_node):
    """Record the classifier forward pass on `tape`, returning the logits node.

    Parameters are registered on the tape by name, so callers can pull their
    gradients with grad_by_name.
    """
    h = x_node
    for i in range(len(CONV_CHANNELS)):
        h = tape.mean_pool(tape.relu(conv_layer(tape, params, f"conv{i}", h)))
    return tape.dense(h, param(tape, params, "head.w"), param(tape, params, "head.b"))


def perceive_with_tape(model: ClassifierModel, images: np.ndarray, dtype=np.float32):
    """Forward pass that keeps the tape, for input-gradient queries."""
    images = np.asarray(images, dtype=dtype)
    if images.ndim == 3:
        images = images[None]
    if images.shape[1:] != (3, *model.in_hw):
        raise ShapeError(f"classifier expects (N, 3, {model.in_hw[0]}, {model.in_hw[1]}), got {images.shape}")
    tape = Tape(dtype=dtype)
    x = tape.leaf(images)
    logits = logits_graph(tape, model.params, x)
    return tape, x, logits


def perceive(model: ClassifierModel, images: np.ndarray) -> PerceptionResult:
    """Pure function of (theta0, images): logits and argmax per image."""
    _, _, logits = perceive_with_tape(model, images)
    return PerceptionResult(logits=logits.value.copy(), predicted=np.argmax(logits.value, axis=1))


def classify_accuracy(model: ClassifierModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax predictions equal to labels."""
    if len(images) == 0:
        raise ValueError("cannot score an empty image set")
    if len(images) != len(labels):
        raise ShapeError(f"{len(images)} images vs {len(labels)} labels")
    hits = 0
    for start in range(0, len(images), ACCURACY_BATCH):
        pred = perceive(model, images[start : start + ACCURACY_BATCH]).predicted
        hits += int((pred == labels[start : start + ACCURACY_BATCH]).sum())
    return hits / len(images)


def pretrain_classifier(train_set: LabeledImageDataset, config: TrainClassifierConfig) -> ClassifierModel:
    """Cross-entropy training of the frozen downstream model (Adam).

    Deterministic for a fixed seed. Aborts on a non-finite loss, reporting
    the epoch it happened in.
    """
    model = init_classifier(train_set.class_count, (train_set.height, train_set.width), config.seed)
    state = AdamState()
    for epoch in range(config.epochs):
        for b in batch_iter(train_set, config.batch, shuffle_seed=config.seed * 100003 + epoch):
            try:
                tape = Tape()
                x = tape.leaf(b.images)
                logits = logits_graph(tape, model.params, x)
                loss = tape.cross_entropy(logits, b.labels)
                if not np.isfinite(loss.value):
                    raise NonFiniteError("non-finite loss")
                grads = tape.grad_by_name(loss, names=sorted(model.params))
                adam_step(model.params, grads, state, lr=config.lr)
            except NonFiniteError as exc:
                raise FloatingPointError(f"classifier training diverged at epoch {epoch}: {exc}") from exc
    return model
