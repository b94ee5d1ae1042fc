"""Dataset loaders: CIFAR-10 binary fixtures, shapes generator, batching, cache."""

import hashlib

import numpy as np
import pytest

from spjscc import dataio
from spjscc.dataio import (
    CIFAR_RECORD_BYTES,
    FILL_STYLES,
    SHAPE_KINDS,
    DataError,
    batch_iter,
    generate_shapes,
    load_cache,
    load_cifar10,
    save_cache,
)
from spjscc.harness.checkpoint import CheckpointError, StaleArtifactError


def _record(label, pixel):
    return bytes([label]) + bytes([pixel]) * 3072


def test_cifar10_two_record_fixture(tmp_path):
    # record 1: label 3, all pixels 255 -> all 1.0; record 2: label 0, all 0
    path = tmp_path / "batch.bin"
    path.write_bytes(_record(3, 255) + _record(0, 0))
    ds = load_cifar10([path], split="train")
    assert list(ds.labels) == [3, 0]
    np.testing.assert_array_equal(ds.images[0], np.ones((3, 32, 32), np.float32))
    np.testing.assert_array_equal(ds.images[1], np.zeros((3, 32, 32), np.float32))


def test_cifar10_byte_255_scales_to_one(tmp_path):
    path = tmp_path / "b.bin"
    rec = bytearray(_record(1, 7))
    rec[1] = 255  # first red-plane pixel
    path.write_bytes(bytes(rec))
    ds = load_cifar10([path])
    assert ds.images[0, 0, 0, 0] == 1.0
    assert abs(ds.images[0, 0, 0, 1] - 7 / 255) < 1e-7


def test_cifar10_plane_order_red_green_blue(tmp_path):
    body = bytes([10] * 1024 + [20] * 1024 + [30] * 1024)
    (tmp_path / "b.bin").write_bytes(bytes([0]) + body)
    ds = load_cifar10([tmp_path / "b.bin"])
    np.testing.assert_allclose(ds.images[0, 0], 10 / 255, atol=1e-7)
    np.testing.assert_allclose(ds.images[0, 1], 20 / 255, atol=1e-7)
    np.testing.assert_allclose(ds.images[0, 2], 30 / 255, atol=1e-7)


def test_cifar10_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(DataError, match="truncated"):
        load_cifar10([path])


def test_cifar10_bad_label_rejected_with_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_record(5, 0) + _record(11, 0))
    with pytest.raises(DataError, match=str(CIFAR_RECORD_BYTES)):
        load_cifar10([path])


def test_shapes_same_seed_bit_identical():
    a = generate_shapes(13, 40, 32, 32)
    b = generate_shapes(13, 40, 32, 32)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.foreground, b.foreground)


def test_shapes_different_seed_differs():
    a = generate_shapes(13, 20, 32, 32)
    b = generate_shapes(14, 20, 32, 32)
    assert a.images.tobytes() != b.images.tobytes()


def test_shapes_balanced_classes():
    ds = generate_shapes(5, 100, 32, 32)
    counts = np.bincount(ds.labels, minlength=10)
    np.testing.assert_array_equal(counts, [10] * 10)


def test_shapes_rejects_small_canvas_and_count():
    with pytest.raises(DataError):
        generate_shapes(1, 100, 8, 32)
    with pytest.raises(DataError):
        generate_shapes(1, 5, 32, 32)


def test_shapes_pixels_and_labels_in_range():
    ds = generate_shapes(2, 60, 32, 32)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.min() >= 0 and ds.labels.max() < ds.class_count
    # every image has some foreground and some background
    per_img = ds.foreground.reshape(len(ds), -1).sum(axis=1)
    assert per_img.min() > 0
    assert per_img.max() < 32 * 32


# The generator as it drew one image per iteration, kept verbatim as the
# reference that the block form must reproduce byte for byte.


def _erode_one(mask):
    padded = np.pad(mask, 1, constant_values=False)
    out = mask.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out &= padded[1 + dy : 1 + dy + mask.shape[0], 1 + dx : 1 + dx + mask.shape[1]]
    return out


def _shape_region_one(kind, h, w, cy, cx, r):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
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
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    raise ValueError(f"unknown shape kind {kind!r}")


def _shapes_one_at_a_time(seed, count, height, width):
    n_classes = len(SHAPE_KINDS) * len(FILL_STYLES)
    rng = np.random.default_rng(np.random.PCG64(seed))
    images = np.empty((count, 3, height, width), dtype=np.float32)
    labels = np.empty(count, dtype=np.int64)
    foreground = np.empty((count, height, width), dtype=bool)
    for i in range(count):
        label = i % n_classes
        kind = SHAPE_KINDS[label // 2]
        style = FILL_STYLES[label % 2]
        base = rng.uniform(0.05, 0.30, size=3)
        noise = rng.uniform(-0.08, 0.08, size=(3, height, width))
        img = np.clip(base[:, None, None] + noise, 0.0, 1.0)
        cy = height / 2 + rng.uniform(-height / 8, height / 8)
        cx = width / 2 + rng.uniform(-width / 8, width / 8)
        r = rng.uniform(0.30, 0.45) * min(height, width) / 2
        region = _shape_region_one(kind, height, width, cy, cx, r)
        if style == "outline":
            region = region & ~_erode_one(_erode_one(region))
        color = rng.uniform(0.60, 1.00, size=3)
        jitter = rng.uniform(-0.05, 0.05, size=(3, height, width))
        fg = np.clip(color[:, None, None] + jitter, 0.0, 1.0)
        img = np.where(region[None, :, :], fg, img)
        images[i] = img.astype(np.float32)
        labels[i] = label
        foreground[i] = region
    return images, labels, foreground


def _bytes(ds):
    return ds.images.tobytes(), ds.labels.tobytes(), ds.foreground.tobytes()


@pytest.mark.parametrize("args", [(3, 10, 16, 16), (5, 130, 17, 33), (4, 333, 24, 40)])
def test_shapes_are_byte_identical_to_one_image_at_a_time(args):
    images, labels, foreground = _shapes_one_at_a_time(*args)
    assert _bytes(generate_shapes(*args)) == (images.tobytes(), labels.tobytes(), foreground.tobytes())


@pytest.mark.parametrize("args", [(3, 10, 16, 16), (5, 130, 17, 33)])
def test_shapes_do_not_depend_on_the_block_size(monkeypatch, args):
    _, count, height, width = args
    per_image = 9 + 6 * height * width
    results = []
    for images_per_block in (1, 3, count):
        monkeypatch.setattr(dataio, "_SHAPES_BLOCK", images_per_block * per_image)
        results.append(_bytes(generate_shapes(*args)))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize(
    "args, digest",
    [
        ((7, 2000, 32, 32, "train"), "55083e3b946c742c"),
        ((8, 500, 32, 32, "test"), "45e3daa2a66915ec"),
        ((5, 130, 17, 33), "93e24c6d6d40ac41"),
    ],
)
def test_shapes_keep_their_recorded_digests(args, digest):
    """sha256 over images, then labels, then foreground: it moves if the reference and the generator move together,
    or on a platform whose `Generator.uniform` fuses its multiply-add."""
    h = hashlib.sha256()
    for part in _bytes(generate_shapes(*args)):
        h.update(part)
    assert h.hexdigest()[:16] == digest


def test_batch_iter_sizes_and_partial_batch():
    ds = generate_shapes(3, 10, 32, 32)
    sizes = [len(b.labels) for b in batch_iter(ds, 3, 0, 0)]
    assert sizes == [3, 3, 3, 1]


def test_batch_iter_shuffle_deterministic():
    ds = generate_shapes(3, 25, 32, 32)
    a = [b.indices.tolist() for b in batch_iter(ds, 4, 1, 0)]
    b = [b.indices.tolist() for b in batch_iter(ds, 4, 1, 0)]
    assert a == b
    c = [b.indices.tolist() for b in batch_iter(ds, 4, 1, 1)]
    assert a != c


def test_batch_iter_covers_every_index_once():
    ds = generate_shapes(3, 23, 32, 32)
    emitted = np.concatenate([b.indices for b in batch_iter(ds, 5, 0, 1)])
    assert sorted(emitted.tolist()) == list(range(23))


def test_cache_round_trip_bit_identical(tmp_path):
    ds = generate_shapes(21, 30, 32, 32)
    path = tmp_path / "ds.cache"
    save_cache(ds, path)
    back = load_cache(path)
    assert back.images.tobytes() == ds.images.tobytes()
    assert back.labels.dtype == np.int64 and np.array_equal(back.labels, ds.labels)
    assert back.foreground.dtype == bool and np.array_equal(back.foreground, ds.foreground)
    assert back.dataset_id == ds.dataset_id
    assert back.split == ds.split
    # writing again produces identical bytes
    save_cache(back, tmp_path / "ds2.cache")
    assert (tmp_path / "ds.cache").read_bytes() == (tmp_path / "ds2.cache").read_bytes()


def test_cache_truncated_rejected(tmp_path):
    ds = generate_shapes(21, 12, 32, 32)
    path = tmp_path / "ds.cache"
    save_cache(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match="bytes"):
        load_cache(path)


def test_cache_flipped_payload_byte_names_the_file(tmp_path):
    path = tmp_path / "dataset_train.cache"
    save_cache(generate_shapes(21, 12, 32, 32), path)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01  # one pixel bit
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="dataset_train.cache.*hash"):
        load_cache(path)


def test_cache_meta_with_spaces_and_non_ascii_round_trips(tmp_path):
    ds = generate_shapes(21, 12, 32, 32)
    meta = {"dataset.kind": "cifar10", "dataset.path": "/data/cifar 10/données été"}
    save_cache(ds, tmp_path / "ds.cache", meta=meta)
    back = load_cache(tmp_path / "ds.cache", expected_meta=meta)
    assert back.images.tobytes() == ds.images.tobytes()
    with pytest.raises(StaleArtifactError, match="dataset.path"):
        load_cache(tmp_path / "ds.cache", expected_meta={"dataset.path": "/data/cifar 10"})
    with pytest.raises(CheckpointError, match="line break"):
        save_cache(ds, tmp_path / "bad.cache", meta={"dataset.path": "/data/a\nb"})
