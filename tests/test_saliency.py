"""Semantic weight maps: gradients, the one-pass class average, normalization, the process split, caching."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spjscc import saliency, split
from spjscc.classifier import ClassifierModel, TrainClassifierConfig, init_classifier, pretrain_classifier
from spjscc.dataio import generate_shapes
from spjscc.harness.checkpoint import StaleArtifactError
from spjscc.numcore import Tape
from spjscc.saliency import (
    WeightCache,
    class_gradient,
    compute_weight_maps,
    load_weight_cache,
    normalize_weights,
    save_weight_cache,
)


def test_linear_model_gradient_is_weight_row():
    # y = x @ A: the gradient of logit c w.r.t. x is column c of A, i.e. the
    # c-th row of A^T, independent of x.
    rng = np.random.default_rng(0)
    h = w = 16
    a = rng.normal(size=(3 * h * w, 5)).astype(np.float32)

    from spjscc import classifier as clf

    model = ClassifierModel(params={}, class_count=5, in_hw=(h, w))

    def tiny_graph(tape, params, x_node):
        return tape.dense(x_node, tape.leaf(a), tape.leaf(np.zeros(5, np.float32)))

    orig = clf.logits_graph
    clf.logits_graph = tiny_graph
    try:
        x = rng.uniform(size=(3, h, w)).astype(np.float32)
        for c in (0, 3):
            g = class_gradient(model, x, c)
            np.testing.assert_allclose(g.reshape(-1), a[:, c], rtol=1e-6)
    finally:
        clf.logits_graph = orig


def test_class_gradient_matches_finite_differences_8x8():
    rng = np.random.default_rng(1)
    model = init_classifier(4, (8, 8), seed=3)
    x = rng.uniform(size=(3, 8, 8))
    c = 2
    g = class_gradient(model, x, c, dtype=np.float64)

    from spjscc.classifier import perceive_with_tape

    def logit(xv):
        _, _, lg = perceive_with_tape(model, xv[None], dtype=np.float64)
        return float(lg.value[0, c])

    h = 1e-5
    fd = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_fd = fd.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = logit(x)
        flat_x[i] = orig - h
        fm = logit(x)
        flat_x[i] = orig
        flat_fd[i] = (fp - fm) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
    assert float(np.max(np.abs(g - fd) / denom)) < 1e-3


def test_doubling_head_weights_doubles_class_gradient():
    model = init_classifier(10, (32, 32), seed=4)
    x = generate_shapes(1, 10, 32, 32).images[0]
    g1 = class_gradient(model, x, 1)
    model.params["head.w"] = model.params["head.w"] * 2
    g2 = class_gradient(model, x, 1)
    np.testing.assert_allclose(g2, 2 * g1, rtol=1e-4, atol=1e-8)


def test_normalize_345_fixture():
    w, flagged = normalize_weights(np.array([3.0, -4.0]))
    np.testing.assert_allclose(w, [0.6, 0.8], rtol=1e-6)
    assert not flagged


def test_normalize_equal_magnitudes_uniform():
    w, _ = normalize_weights(np.array([[0.5, -0.5], [0.5, -0.5]]))
    np.testing.assert_allclose(w, 0.5, rtol=1e-6)  # 1/sqrt(4)


def test_normalize_random_draws_unit_norm_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w, _ = normalize_weights(rng.normal(size=(3, 5, 5)))
        assert w.min() >= 0
        assert abs(np.linalg.norm(w.astype(np.float64)) - 1.0) < 1e-6


def test_normalize_zero_gradient_uniform_fallback():
    w, flagged = normalize_weights(np.zeros((3, 4, 4)))
    assert flagged
    np.testing.assert_allclose(w, 1.0 / np.sqrt(48), rtol=1e-6)
    assert abs(np.linalg.norm(w.astype(np.float64)) - 1.0) < 1e-6


def test_normalize_rejects_nonfinite():
    with pytest.raises(ValueError):
        normalize_weights(np.array([1.0, np.nan]))


@given(st.floats(0.01, 1000.0))
@settings(max_examples=30, deadline=None)
def test_scaling_all_class_maps_leaves_weights_unchanged(k):
    # scaling every class map by k scales their mean by k; the weights ignore it
    rng = np.random.default_rng(17)
    w = rng.normal(size=(3, 4, 4))
    w1, _ = normalize_weights(w)
    w2, _ = normalize_weights(k * w)
    np.testing.assert_allclose(w1, w2, rtol=1e-5, atol=1e-7)


def test_weight_maps_match_per_class_oracle(monkeypatch):
    monkeypatch.setattr("spjscc.saliency.WEIGHT_MAP_BATCH", 2)  # two full batches and a partial one
    model = init_classifier(10, (32, 32), seed=6)
    imgs = generate_shapes(5, 12, 32, 32).images[[0, 4, 7, 9, 11]]
    maps, fallback = compute_weight_maps(model, imgs)
    for j, img in enumerate(imgs):
        mean = np.mean([class_gradient(model, img, c) for c in range(model.class_count)], axis=0)
        expect, flagged = normalize_weights(mean)
        np.testing.assert_allclose(maps[j], expect, rtol=0, atol=1e-5)
        assert fallback[j] == flagged


def test_weight_maps_take_one_backward_per_batch(monkeypatch):
    """In one process: a monkeypatched counter sees only the process it runs in."""
    monkeypatch.setattr(split, "_worker_count", lambda items: 1)
    calls = []
    real = Tape.backward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "backward", counting)
    monkeypatch.setattr("spjscc.saliency.WEIGHT_MAP_BATCH", 2)
    model = init_classifier(10, (32, 32), seed=6)
    compute_weight_maps(model, generate_shapes(5, 12, 32, 32).images[:5])
    assert len(calls) == 3


@pytest.mark.parametrize("count, batch", [(64, 2), (64, 5), (64, 32), (71, 32)])
def test_weight_maps_at_smaller_batches_keep_the_bytes_of_the_former_batch_of_64(monkeypatch, count, batch):
    """Pinned at the sizes the benchmark's set-ups use, not a law: on OpenBLAS the dense
    layer's GEMMs round a row by how many rows they run, so 37 images in batches of 2
    differ in the last bit from one batch of 37."""
    model = init_classifier(10, (32, 32), seed=6)
    imgs = generate_shapes(5, count, 32, 32).images
    monkeypatch.setattr("spjscc.saliency.WEIGHT_MAP_BATCH", 64)
    before = compute_weight_maps(model, imgs)
    monkeypatch.setattr("spjscc.saliency.WEIGHT_MAP_BATCH", batch)
    maps, fallback = compute_weight_maps(model, imgs)
    assert maps.tobytes() == before[0].tobytes() and fallback.tobytes() == before[1].tobytes()


def test_weight_maps_peak_no_higher_than_a_pretraining_epoch_at_the_training_batch(traced_peak):
    # 64 images: extraction at a batch of 64 peaked at 55.9 MB, a batch-32 pretraining epoch at 34.7 MB
    ds = generate_shapes(1, 64, 32, 32)
    model = init_classifier(ds.class_count, (32, 32), seed=2)
    maps_peak, _ = traced_peak(lambda: compute_weight_maps(model, ds.images))
    train_peak, _ = traced_peak(lambda: pretrain_classifier(ds, TrainClassifierConfig(epochs=1, batch=32, seed=2)))
    assert maps_peak <= train_peak, f"weight maps peak {maps_peak / 2**20:.1f} MB, pretraining {train_peak / 2**20:.1f} MB"


def test_classifier_stage_peaks_stay_below_the_bounds_measured_since_backward_keeps_only_what_it_reads(traced_peak):
    """64 images, batch 32: traced peaks 17.8 MB (weight maps) and 21.7 MB (a pretraining epoch).

    They read 28.8 and 34.7 MB while the tape kept relu's rectified map beside
    each pool and conv backward copied its upstream gradient to NHWC. The
    pretraining epoch reads 17.9 MB since it drops each batch's tape before
    the next forward; its bound stays.
    """
    ds = generate_shapes(1, 64, 32, 32)
    model = init_classifier(ds.class_count, (32, 32), seed=2)
    maps_peak = traced_peak(lambda: compute_weight_maps(model, ds.images))[0] / 2**20
    train_peak = traced_peak(lambda: pretrain_classifier(ds, TrainClassifierConfig(epochs=1, batch=32, seed=2)))[0] / 2**20
    assert maps_peak < 20 and train_peak < 23, f"weight maps peak {maps_peak:.1f} MB, pretraining {train_peak:.1f} MB"


# ---------------------------------------------------------------------------
# compute_weight_maps(): batches split between the caller and forked workers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 33, 71, 203])
def test_split_weight_maps_keep_the_bytes_of_one_process(monkeypatch, one_blas_thread, no_child_left, count):
    """No image, one short batch, and short final batches held by a worker: 71 images on 2 processes run 32 | 39."""
    model = init_classifier(10, (32, 32), seed=6)
    imgs = generate_shapes(5, 203, 32, 32).images[:count]
    monkeypatch.setattr(split, "_worker_count", lambda items: 1)
    maps, fallback = compute_weight_maps(model, imgs)
    for workers in (2, 3):
        monkeypatch.setattr(split, "_worker_count", lambda items: max(1, min(workers, items)))
        split_maps, split_fallback = compute_weight_maps(model, imgs)
        assert split_maps.tobytes() == maps.tobytes() and split_fallback.tobytes() == fallback.tobytes()
        no_child_left()


def test_an_error_in_a_weight_map_worker_reaches_the_caller_with_its_traceback(monkeypatch, one_blas_thread, no_child_left):
    model = init_classifier(10, (32, 32), seed=6)
    caller, real = os.getpid(), saliency.normalize_weights

    def poisoned(w):
        return real(w * np.nan if os.getpid() != caller else w)

    monkeypatch.setattr(saliency, "normalize_weights", poisoned)
    monkeypatch.setattr(split, "_worker_count", lambda items: min(2, items))
    with pytest.raises(ValueError, match="non-finite entries in gradient map") as raised:
        compute_weight_maps(model, generate_shapes(5, 64, 32, 32).images)
    no_child_left()
    assert isinstance(raised.value.__cause__, split.WorkerTraceback)
    assert "saliency._weight_map_batches worker" in str(raised.value.__cause__)
    assert "in poisoned" in str(raised.value.__cause__)


def test_a_weight_map_worker_that_dies_is_named_with_its_exit_status(monkeypatch, one_blas_thread, no_child_left):
    model = init_classifier(10, (32, 32), seed=6)
    caller, real = os.getpid(), saliency.normalize_weights

    def dying(w):
        if os.getpid() != caller:
            os._exit(3)
        return real(w)

    monkeypatch.setattr(saliency, "normalize_weights", dying)
    monkeypatch.setattr(split, "_worker_count", lambda items: min(2, items))
    with pytest.raises(RuntimeError, match="saliency._weight_map_batches worker [0-9]+ ended with exit status 3"):
        compute_weight_maps(model, generate_shapes(5, 64, 32, 32).images)
    no_child_left()


def test_split_weight_maps_keep_the_callers_peak(traced_peak, monkeypatch, one_blas_thread, no_child_left):
    """On 2 processes the caller's traced peak stays under the 64-image bound, and on 256 at the one-process peak.

    The caller writes its own run into the result and copies a worker's part
    in as it is joined, so its peak is still its own batches' tape: 20.0 MB
    on 256 images either way, and on 2000 images 42.46 MB split in two
    against 42.46-42.49 MB in one process. The pipe and pid the fork holds
    add at most 1.4 KB, which the 64 KiB allowance covers.
    """
    model = init_classifier(10, (32, 32), seed=2)
    monkeypatch.setattr(split, "_worker_count", lambda items: min(2, items))
    small = traced_peak(lambda: compute_weight_maps(model, generate_shapes(1, 64, 32, 32).images))[0] / 2**20
    imgs = generate_shapes(1, 256, 32, 32).images
    split_peak = traced_peak(lambda: compute_weight_maps(model, imgs))[0]
    no_child_left()
    monkeypatch.setattr(split, "_worker_count", lambda items: 1)
    alone = traced_peak(lambda: compute_weight_maps(model, imgs))[0]
    assert small < 20, f"weight maps of 64 images on 2 processes peaked at {small:.1f} MB"
    assert split_peak <= alone + 2**16, f"256 images: {split_peak / 2**20:.2f} MB on 2 processes, {alone / 2**20:.2f} MB in one"


@pytest.mark.slow
def test_weight_cache_round_trip_and_invariants(tmp_path, shapes_classifier):
    ds, model = shapes_classifier
    sub = generate_shapes(11, 40, 32, 32)
    maps, fallback = compute_weight_maps(model, sub.images)
    cache = WeightCache(maps=maps, fallback=fallback, dataset_id=sub.dataset_id, classifier_hash=model.theta_hash())
    path = tmp_path / "weights.cache"
    save_weight_cache(cache, path, meta={"classifier.seed": "2"})
    blob1 = path.read_bytes()

    # full-scan invariants: nonnegative, unit L2 norm
    assert cache.maps.min() >= 0
    norms = np.linalg.norm(cache.maps.reshape(len(cache), -1).astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    # reload path: same contents and stored ids, idempotent rewrite
    again = load_weight_cache(path, expected_meta={"classifier.seed": "2"})
    np.testing.assert_array_equal(again.maps, cache.maps)
    np.testing.assert_array_equal(again.fallback, cache.fallback)
    assert (again.dataset_id, again.classifier_hash) == (sub.dataset_id, model.theta_hash())
    save_weight_cache(again, tmp_path / "weights2.cache", meta={"classifier.seed": "2"})
    assert (tmp_path / "weights2.cache").read_bytes() == blob1

    # recorded provenance is compared on load, naming the key
    with pytest.raises(StaleArtifactError, match="weights.cache: classifier.seed differs"):
        load_weight_cache(path, expected_meta={"classifier.seed": "5"})


@pytest.mark.slow
def test_determinism_same_model_same_image_same_map(shapes_classifier):
    ds, model = shapes_classifier
    m1, _ = compute_weight_maps(model, ds.images[:4])
    m2, _ = compute_weight_maps(model, ds.images[:4])
    assert m1.tobytes() == m2.tobytes()


@pytest.mark.slow
def test_foreground_gets_more_weight_than_background(shapes_classifier):
    ds, model = shapes_classifier
    sub_imgs, sub_fg = ds.images[:100], ds.foreground[:100]
    maps, _ = compute_weight_maps(model, sub_imgs)
    wins = 0
    for m, fg in zip(maps, sub_fg):
        fg_mean = m[:, fg].mean()
        bg_mean = m[:, ~fg].mean()
        wins += fg_mean > bg_mean
    assert wins >= 80  # directional: object pixels carry more weight
