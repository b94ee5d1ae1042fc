"""Per-pixel semantic weights from classifier input gradients.

For each training image: take the gradient of every class logit with respect
to the pixels, average the per-class maps, rectify, and normalize to unit L2
norm. The gradient is linear in the logit it differentiates, so the mean over
classes of d logit_c / dx equals d(mean_c logit_c) / dx: one backward pass
seeded with 1/C on every logit gives the class-averaged map for a whole batch,
where the per-class definition (`class_gradient`) takes C passes. The maps are
computed once against the clean images with the frozen classifier and cached
to disk as one artifact container file (`harness.checkpoint`) that records
the classifier's parameter hash and the dataset id; the container compares
both on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import ClassifierModel, perceive_with_tape
from .dataio import LabeledImageDataset
from .harness.checkpoint import StaleArtifactError, load_checkpoint, save_checkpoint

ZERO_GRAD_EPS = 1e-12


@dataclass
class WeightCache:
    maps: np.ndarray  # (count, 3, H, W) float32
    fallback: np.ndarray  # (count,) bool
    dataset_id: str
    classifier_hash: str

    def __len__(self):
        return len(self.maps)


def class_gradient(model: ClassifierModel, image: np.ndarray, c: int, dtype=np.float32) -> np.ndarray:
    """Gradient of logit c w.r.t. every pixel of one image."""
    if not 0 <= c < model.class_count:
        raise ValueError(f"class index {c} outside [0, {model.class_count})")
    tape, x, logits = perceive_with_tape(model, image, dtype=dtype)
    seed = np.zeros(logits.shape, dtype=dtype)
    seed[:, c] = 1.0
    (grad,) = tape.backward(logits, seed=seed, wrt=(x,))
    return grad[0] if np.asarray(image).ndim == 3 else grad


def normalize_weights(w: np.ndarray) -> tuple[np.ndarray, bool]:
    """Rectify and scale to unit L2 norm: |w| / ||w||.

    Degenerate all-zero gradients fall back to the uniform unit-norm map
    (every entry 1/sqrt(n)); the second return flags that case.
    """
    w = np.asarray(w)
    if not np.isfinite(w).all():
        raise ValueError("non-finite entries in gradient map")
    mag = np.abs(w.astype(np.float64))
    norm = float(np.sqrt((mag * mag).sum()))
    if norm < ZERO_GRAD_EPS:
        uniform = np.full(w.shape, 1.0 / np.sqrt(w.size), dtype=np.float32)
        return uniform, True
    return (mag / norm).astype(np.float32), False


def compute_weight_maps(model: ClassifierModel, images: np.ndarray, batch: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Weight map per image: mean-over-classes input gradient -> rectified unit norm.

    One forward and one backward pass per batch, the backward seeded with 1/C
    on every logit (see the module docstring).
    """
    n = len(images)
    maps = np.empty((n,) + images.shape[1:], dtype=np.float32)
    fallback = np.zeros(n, dtype=bool)
    for start in range(0, n, batch):
        tape, x, logits = perceive_with_tape(model, images[start : start + batch])
        seed = np.full(logits.shape, 1.0 / model.class_count, dtype=np.float32)
        (grad,) = tape.backward(logits, seed=seed, wrt=(x,))
        for j, w in enumerate(grad):
            maps[start + j], fallback[start + j] = normalize_weights(w)
    return maps, fallback


def extract_weight_cache(model: ClassifierModel, dataset: LabeledImageDataset, path: str | Path) -> WeightCache:
    """Compute (or reuse) the weight cache for every image in `dataset`.

    A cache file whose classifier hash and dataset id match is loaded as is;
    a stale one is recomputed and rewritten, and a damaged one raises
    CheckpointError naming the file. Writing twice with the same frozen
    classifier produces identical bytes.
    """
    path = Path(path)
    chash = model.theta_hash()
    if path.exists():
        try:
            return load_weight_cache(path, expected_classifier_hash=chash, expected_dataset_id=dataset.dataset_id)
        except StaleArtifactError:
            pass  # stale cache: recompute below
    maps, fallback = compute_weight_maps(model, dataset.images)
    cache = WeightCache(maps=maps, fallback=fallback, dataset_id=dataset.dataset_id, classifier_hash=chash)
    save_weight_cache(cache, path)
    return cache


def save_weight_cache(cache: WeightCache, path: str | Path) -> None:
    meta = {"dataset_id": cache.dataset_id, "classifier_hash": cache.classifier_hash}
    save_checkpoint({"maps": cache.maps, "fallback": cache.fallback}, "weights", path, meta=meta)


def load_weight_cache(
    path: str | Path, expected_classifier_hash: str | None = None, expected_dataset_id: str | None = None
) -> WeightCache:
    expected = {"classifier_hash": expected_classifier_hash, "dataset_id": expected_dataset_id}
    tensors, _, meta = load_checkpoint(
        path, expected_kind="weights", expected_meta={k: v for k, v in expected.items() if v is not None}
    )
    return WeightCache(
        maps=tensors["maps"],
        fallback=tensors["fallback"],
        dataset_id=meta["dataset_id"],
        classifier_hash=meta["classifier_hash"],
    )
