"""Dataset ingestion: CIFAR-10 binary batches plus a synthetic shapes set.

The shapes generator keeps every test offline: 10 classes = five geometries
(circle, square, triangle, cross, ring) times two fill styles (solid,
outline), drawn in a random bright color over per-pixel background noise.
The generator also returns the foreground pixel mask of each image, which
downstream checks use as ground truth for "where the object is".

A dataset is cached as one artifact container file (`harness.checkpoint`):
labels (int64), pixels (float32) and masks (bool) as tensors, its split, id
and class count as meta, plus whatever provenance the caller records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .harness.checkpoint import load_checkpoint, save_checkpoint

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
SHAPE_KINDS = ("circle", "square", "triangle", "cross", "ring")
FILL_STYLES = ("solid", "outline")


class DataError(ValueError):
    """Malformed dataset file or invalid dataset contents."""


@dataclass
class LabeledImageDataset:
    images: np.ndarray  # (count, 3, H, W) float32 in [0, 1]
    labels: np.ndarray  # (count,) int64 in [0, class_count)
    class_count: int
    split: str  # "train" or "test"
    dataset_id: str = ""
    foreground: np.ndarray | None = None  # (count, H, W) bool, synthetic only

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise DataError(f"images must be (count, 3, H, W), got {self.images.shape}")
        if len(self.images) == 0:
            raise DataError("dataset is empty")
        if len(self.labels) != len(self.images):
            raise DataError(f"{len(self.labels)} labels for {len(self.images)} images")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise DataError(f"label outside [0, {self.class_count})")
        lo, hi = float(self.images.min()), float(self.images.max())
        if lo < 0.0 or hi > 1.0:
            raise DataError(f"pixel values outside [0, 1]: range [{lo}, {hi}]")

    def __len__(self):
        return len(self.images)

    @property
    def height(self):
        return self.images.shape[2]

    @property
    def width(self):
        return self.images.shape[3]


class ImageBatch(NamedTuple):
    indices: np.ndarray
    images: np.ndarray
    labels: np.ndarray


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches
# ---------------------------------------------------------------------------


def load_cifar10(paths: Sequence[str | Path], split: str = "train") -> LabeledImageDataset:
    """Read CIFAR-10 binary batch files (3073-byte records, RGB plane-major).

    Pixels are scaled by 1/255 into [0, 1]; record order is preserved.
    Truncated files and label bytes > 9 are rejected with their byte offset.
    """
    images, labels = [], []
    for path in paths:
        blob = Path(path).read_bytes()
        if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
            full = len(blob) // CIFAR_RECORD_BYTES
            raise DataError(
                f"{path}: truncated at byte {full * CIFAR_RECORD_BYTES} "
                f"(file length {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES})"
            )
        raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        bad = np.nonzero(raw[:, 0] > 9)[0]
        if bad.size:
            off = int(bad[0]) * CIFAR_RECORD_BYTES
            raise DataError(f"{path}: label byte {raw[bad[0], 0]} > 9 at byte offset {off}")
        labels.append(raw[:, 0].astype(np.int64))
        planes = raw[:, 1:].reshape(-1, 3, 32, 32)  # red, green, blue plane-major
        images.append(planes.astype(np.float32) / 255.0)
    return LabeledImageDataset(
        images=np.concatenate(images),
        labels=np.concatenate(labels),
        class_count=10,
        split=split,
        dataset_id=f"cifar10-{split}-{sum(len(x) for x in labels)}",
    )


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


# float64 values drawn per block of images (4 MB); a block holds at least one image
_SHAPES_BLOCK = 1 << 19


def _erode(mask: np.ndarray) -> np.ndarray:
    """3x3 binary erosion (logical AND over the 8-neighborhood) of each mask of an (m, H, W) stack."""
    _, h, w = mask.shape
    padded = np.pad(mask, ((0, 0), (1, 1), (1, 1)), constant_values=False)
    out = mask.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out &= padded[:, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    return out


def _shape_region(kind: str, h: int, w: int, cy: np.ndarray, cx: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(m, h, w) masks of m shapes of one kind, centred at (cy, cx) with size r, each an (m,) array."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy, cx, r = cy[:, None, None], cx[:, None, None], r[:, None, None]
    dy, dx = yy - cy, xx - cx
    if kind == "circle":
        return dy * dy + dx * dx <= r * r
    if kind == "square":
        return np.maximum(np.abs(dy), np.abs(dx)) <= 0.9 * r
    if kind == "triangle":
        top = cy - r
        halfwidth = (yy - top) / 2.0
        return (yy >= top) & (yy <= cy + r) & (np.abs(dx) <= halfwidth)
    if kind == "cross":
        t = 0.35 * r
        inside = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        return inside & ((np.abs(dy) <= t) | (np.abs(dx) <= t))
    if kind == "ring":
        d2 = dy * dy + dx * dx
        # squared by Python's float pow, as one image at a time did: numpy's `** 2` is x * x,
        # which differs from C pow in the last bit for about 1 value in 1000
        inner = np.array([(0.55 * x) ** 2 for x in r.ravel().tolist()])[:, None, None]
        return (d2 <= r * r) & (d2 >= inner)
    raise ValueError(f"unknown shape kind {kind!r}")


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Scale draws of `Generator.random` in place into what `Generator.uniform(low, high)` draws from them."""
    u *= high - low
    u += low
    return u


def generate_shapes(seed: int, count: int, height: int, width: int, split: str = "train") -> LabeledImageDataset:
    """Deterministic labeled shapes over noise backgrounds.

    Class c = 2 * shape_kind + fill_style. Labels cycle 0..9 so per-class
    counts differ by at most one. Same seed reproduces the dataset bitwise.

    Image i takes 9 + 6·H·W uniform draws from one PCG64 stream, in this
    order: background base color (3), background noise (3·H·W), centre row,
    centre column, size, shape color (3), shape jitter (3·H·W). A block of
    m images draws them as one `rng.random((m, 9 + 6·H·W))`, row i being
    image i's draws: `Generator.uniform(low, high)` of a double u is
    `low + (high - low) * u` from the same stream, so scaling each slice in
    place gives what drawing image by image gave, bit for bit. Masks and
    pixels are then computed for the whole block at once.
    """
    n_classes = len(SHAPE_KINDS) * len(FILL_STYLES)
    if height < 16 or width < 16:
        raise DataError(f"need height, width >= 16, got {height}x{width}")
    if count < n_classes:
        raise DataError(f"need count >= {n_classes}, got {count}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    images = np.empty((count, 3, height, width), dtype=np.float32)
    labels = np.arange(count, dtype=np.int64) % n_classes
    foreground = np.empty((count, height, width), dtype=bool)
    hw3 = 3 * height * width
    block = max(1, _SHAPES_BLOCK // (9 + 2 * hw3))
    for start in range(0, count, block):
        m = min(block, count - start)
        draws = rng.random((m, 9 + 2 * hw3))
        base = _uniform(draws[:, 0:3], 0.05, 0.30)
        img = _uniform(draws[:, 3 : 3 + hw3], -0.08, 0.08)
        cy = height / 2 + _uniform(draws[:, 3 + hw3], -height / 8, height / 8)
        cx = width / 2 + _uniform(draws[:, 4 + hw3], -width / 8, width / 8)
        r = _uniform(draws[:, 5 + hw3], 0.30, 0.45) * min(height, width) / 2
        color = _uniform(draws[:, 6 + hw3 : 9 + hw3], 0.60, 1.00)
        fg = _uniform(draws[:, 9 + hw3 :], -0.05, 0.05)
        # pixels stay (m, 3·H·W) rows, which numpy runs 2-4x faster than (m, 3, H, W) views
        for pixels, offset in ((img, base), (fg, color)):
            rows = pixels.reshape(m, 3, -1)
            rows += offset[:, :, None]
            np.clip(pixels, 0.0, 1.0, out=pixels)
        block_labels = labels[start : start + m]
        region = foreground[start : start + m]
        for k, kind in enumerate(SHAPE_KINDS):
            sel = block_labels // len(FILL_STYLES) == k
            if sel.any():
                region[sel] = _shape_region(kind, height, width, cy[sel], cx[sel], r[sel])
        outline = block_labels % len(FILL_STYLES) == FILL_STYLES.index("outline")
        region[outline] &= ~_erode(_erode(region[outline]))
        np.copyto(img.reshape(m, 3, -1), fg.reshape(m, 3, -1), where=region.reshape(m, 1, -1))
        images.reshape(count, hw3)[start : start + m] = img
    return LabeledImageDataset(
        images=images,
        labels=labels,
        class_count=n_classes,
        split=split,
        dataset_id=f"shapes-{seed}-{count}-{height}x{width}",
        foreground=foreground,
    )


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batch_iter(dataset: LabeledImageDataset, batch_size: int, seed: int, epoch: int) -> Iterator[ImageBatch]:
    """Yield epoch `epoch`'s batches of a training run seeded `seed`, covering every index once; final partial batch included.

    The order is a permutation that is a deterministic function of (seed, epoch).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    order = np.random.default_rng(np.random.PCG64(seed * 100003 + epoch)).permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield ImageBatch(idx, dataset.images[idx], dataset.labels[idx])


# ---------------------------------------------------------------------------
# cache: one artifact container file per split
# ---------------------------------------------------------------------------


def save_cache(dataset: LabeledImageDataset, path: str | Path, meta: dict[str, str] | None = None) -> None:
    """Labels, pixels and masks as tensors; `meta` records the dataset's provenance."""
    tensors = {"labels": dataset.labels, "images": dataset.images}
    if dataset.foreground is not None:
        tensors["foreground"] = dataset.foreground
    info = {"class_count": dataset.class_count, "split": dataset.split, "dataset_id": dataset.dataset_id}
    save_checkpoint(tensors, "dataset", path, meta={**(meta or {}), **info})


def load_cache(path: str | Path, expected_meta: dict[str, str] | None = None) -> LabeledImageDataset:
    tensors, _, meta = load_checkpoint(path, expected_kind="dataset", expected_meta=expected_meta)
    return LabeledImageDataset(
        images=tensors["images"],
        labels=tensors["labels"],
        class_count=int(meta["class_count"]),
        split=meta["split"],
        dataset_id=meta["dataset_id"],
        foreground=tensors.get("foreground"),
    )
