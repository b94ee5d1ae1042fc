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
from .numcore.tape import _softmax

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
    """Per-image rows: raw logits, their softmax, and the argmax class."""

    logits: np.ndarray  # (N, C)
    probabilities: np.ndarray  # (N, C)
    predicted: np.ndarray  # (N,)


def init_classifier(class_count: int, in_hw: tuple[int, int], seed: int) -> ClassifierModel:
    rng = np.random.default_rng(np.random.PCG64(seed))
    params: dict[str, np.ndarray] = {}
    cin = 3
    h, w = in_hw
    for i, cout in enumerate(CONV_CHANNELS):
        fan_in = cin * 9
        params[f"conv{i}.w"] = (rng.normal(size=(cout, cin, 3, 3)) * np.sqrt(2.0 / fan_in)).astype(np.float32)
        params[f"conv{i}.b"] = np.zeros(cout, dtype=np.float32)
        cin = cout
        h, w = h // 2, w // 2
    flat = cin * h * w
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
        w = tape.parameter(f"conv{i}.w", params[f"conv{i}.w"])
        b = tape.parameter(f"conv{i}.b", params[f"conv{i}.b"])
        h = tape.mean_pool(tape.relu(tape.conv2d(h, w, b, stride=1)), k=2)
    return tape.dense(h, tape.parameter("head.w", params["head.w"]), tape.parameter("head.b", params["head.b"]))


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
    """Pure function of (theta0, images): logits, softmax, argmax per image."""
    _, _, logits = perceive_with_tape(model, images)
    return PerceptionResult(
        logits=logits.value.copy(),
        probabilities=_softmax(logits.value),
        predicted=np.argmax(logits.value, axis=1),
    )


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
