"""Per-pixel semantic weights from classifier input gradients.

For each training image: take the gradient of every class logit with respect
to the pixels, average the per-class maps, rectify, and normalize to unit L2
norm. The gradient is linear in the logit it differentiates, so the mean over
classes of d logit_c / dx equals d(mean_c logit_c) / dx: one backward pass
seeded with 1/C on every logit gives the class-averaged map for a whole batch,
where the per-class definition (`class_gradient`) takes C passes. The maps are
computed once against the clean images with the frozen classifier and cached
to disk as one artifact container file (`harness.checkpoint`) that stores the
dataset id and the classifier's parameter hash, plus whatever provenance the
caller records.

A pass holds one tape, whose activations grow linearly with its batch, so
`compute_weight_maps` runs at the training batch (`WEIGHT_MAP_BATCH`) and
drops each batch's tape before the next forward. Against a batch of 64, the
traced peak on 64 32x32 images fell 55.9 -> 28.8 MB (2000 images: 87.4 ->
51.5 MB), below a `pretrain_classifier` epoch at batch 32 (then 34.7 MB).
Since the classifier's relu and pool are one op and conv backward reads its
upstream gradient in place, those peaks are 17.8 MB (2000 images: 40.5 MB,
23.4 MB of it the maps themselves) and 21.7 MB; since pretraining too drops
each batch's tape before the next forward, the epoch's is 17.9 MB. The maps
of 64, 71 and 2000 images kept their bytes. That is measured, not a law: on
OpenBLAS the dense layer's GEMMs round a row by how many rows they run, so a
batch can move a map's last bit (37 images in batches of 2 do).

`compute_weight_maps` hands `split.forked_map` the first row of every batch,
so each process runs whole batches: 71 images on 2 processes run 32 | 39,
the short final batch on a worker. Each batch runs the same GEMMs on the
same rows as in one process, so every map keeps its bytes whatever the
process count; a split that cut a batch could move them, by the rounding
above. The caller writes its own batches' maps into the result and copies
each worker's part in as it joins that worker. On 2 CPUs at 1
OpenBLAS thread, the maps of 64 images took 116 -> 83 ms (medians of 6
alternating runs on a busy shared host; 82 -> 51 ms on a quieter one), and
`extract-weights` on 2000 images 3.90 -> 2.47 s. A worker held 13.7-14.2 MB
of private pages at its tape's peak on 64 images (4.3 MB at exit), and on
2000 images up to 50 MB with its half of the maps and their pickle:
memory that a measure of the largest single process does not see.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import split
from .classifier import ClassifierModel, perceive_with_tape
from .harness.checkpoint import load_checkpoint, save_checkpoint

ZERO_GRAD_EPS = 1e-12
# Images per forward/backward pass in compute_weight_maps: the classifier's
# training batch, so extracting maps never holds a larger tape than a training
# step does (at 64 it set the classifier stage's memory high-water mark).
WEIGHT_MAP_BATCH = 32


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


def compute_weight_maps(model: ClassifierModel, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight map per image: mean-over-classes input gradient -> rectified unit norm.

    One forward and one backward pass per batch, the backward seeded with 1/C
    on every logit (see the module docstring). The batches are split between
    processes by `split.forked_map`; the caller writes its own maps straight
    into the result, and each worker's part is copied in as that worker is
    joined.
    """
    n = len(images)
    maps = np.empty((n,) + images.shape[1:], dtype=np.float32)
    fallback = np.zeros(n, dtype=bool)
    parts = split.forked_map(_weight_map_batches, range(0, n, WEIGHT_MAP_BATCH), model, images, maps, fallback)
    for rows, part_maps, part_fallback in parts:
        maps[rows], fallback[rows] = part_maps, part_fallback  # a no-op on the caller's own rows
        del part_maps, part_fallback  # free a worker's part before the next is read
    return maps, fallback


def _weight_map_batches(model, images, maps, fallback, starts: range):
    """Write the maps of the batches that begin at rows `starts` into `maps` and `fallback`; return their rows and them."""
    for start in starts:
        tape, x, logits = perceive_with_tape(model, images[start : start + WEIGHT_MAP_BATCH])
        seed = np.full(logits.shape, 1.0 / model.class_count, dtype=np.float32)
        (grad,) = tape.backward(logits, seed=seed, wrt=(x,))
        del tape, x, logits  # free this batch's activations before the next forward
        for j, w in enumerate(grad):
            maps[start + j], fallback[start + j] = normalize_weights(w)
    rows = slice(starts.start, starts.stop)  # a short final batch's stop lies past the last row, where slicing ends
    return rows, maps[rows], fallback[rows]


def save_weight_cache(cache: WeightCache, path: str | Path, meta: dict[str, str] | None = None) -> None:
    """Maps and fallback flags as tensors; `meta` records the cache's provenance."""
    info = {"dataset_id": cache.dataset_id, "classifier_hash": cache.classifier_hash}
    save_checkpoint({"maps": cache.maps, "fallback": cache.fallback}, "weights", path, meta={**(meta or {}), **info})


def load_weight_cache(path: str | Path, expected_meta: dict[str, str] | None = None) -> WeightCache:
    tensors, _, meta = load_checkpoint(path, expected_kind="weights", expected_meta=expected_meta)
    return WeightCache(
        maps=tensors["maps"],
        fallback=tensors["fallback"],
        dataset_id=meta["dataset_id"],
        classifier_hash=meta["classifier_hash"],
    )
