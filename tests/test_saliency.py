"""Semantic weight maps: gradients, the one-pass class average, normalization, caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spjscc.classifier import ClassifierModel, TrainClassifierConfig, init_classifier, pretrain_classifier
from spjscc.dataio import generate_shapes
from spjscc.harness.checkpoint import StaleArtifactError
from spjscc.numcore import Tape
from spjscc.saliency import (
    class_gradient,
    compute_weight_maps,
    extract_weight_cache,
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


def test_weight_maps_match_per_class_oracle():
    model = init_classifier(10, (32, 32), seed=6)
    imgs = generate_shapes(5, 12, 32, 32).images[[0, 4, 7, 9, 11]]
    maps, fallback = compute_weight_maps(model, imgs, batch=2)  # two full batches and a partial one
    for j, img in enumerate(imgs):
        mean = np.mean([class_gradient(model, img, c) for c in range(model.class_count)], axis=0)
        expect, flagged = normalize_weights(mean)
        np.testing.assert_allclose(maps[j], expect, rtol=0, atol=1e-5)
        assert fallback[j] == flagged


def test_weight_maps_take_one_backward_per_batch(monkeypatch):
    calls = []
    real = Tape.backward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "backward", counting)
    model = init_classifier(10, (32, 32), seed=6)
    compute_weight_maps(model, generate_shapes(5, 12, 32, 32).images[:5], batch=2)
    assert len(calls) == 3


@pytest.fixture(scope="module")
def trained_on_shapes():
    ds = generate_shapes(11, 400, 32, 32)
    model = pretrain_classifier(ds, TrainClassifierConfig(epochs=12, lr=2e-3, batch=32, seed=2))
    return ds, model


def test_weight_cache_round_trip_and_invariants(tmp_path, trained_on_shapes):
    ds, model = trained_on_shapes
    sub = generate_shapes(11, 40, 32, 32)
    path = tmp_path / "weights.cache"
    cache = extract_weight_cache(model, sub, path)
    blob1 = path.read_bytes()

    # full-scan invariants: nonnegative, unit L2 norm
    assert cache.maps.min() >= 0
    norms = np.linalg.norm(cache.maps.reshape(len(cache), -1).astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    # reload path: same bytes, same contents, idempotent rewrite
    again = extract_weight_cache(model, sub, path)
    np.testing.assert_array_equal(again.maps, cache.maps)
    save_weight_cache(again, tmp_path / "weights2.cache")
    assert (tmp_path / "weights2.cache").read_bytes() == blob1


def test_weight_cache_classifier_hash_mismatch_forces_recompute(tmp_path, trained_on_shapes):
    ds, model = trained_on_shapes
    sub = generate_shapes(11, 20, 32, 32)
    path = tmp_path / "weights.cache"
    extract_weight_cache(model, sub, path)
    with pytest.raises(StaleArtifactError, match="classifier"):
        load_weight_cache(path, expected_classifier_hash="deadbeef")

    other = init_classifier(10, (32, 32), seed=99)
    cache2 = extract_weight_cache(other, sub, path)  # silently recomputes
    assert cache2.classifier_hash == other.theta_hash()
    reloaded = load_weight_cache(path)
    assert reloaded.classifier_hash == other.theta_hash()


def test_determinism_same_model_same_image_same_map(trained_on_shapes):
    ds, model = trained_on_shapes
    m1, _ = compute_weight_maps(model, ds.images[:4])
    m2, _ = compute_weight_maps(model, ds.images[:4])
    assert m1.tobytes() == m2.tobytes()


def test_foreground_gets_more_weight_than_background(trained_on_shapes):
    ds, model = trained_on_shapes
    sub_imgs, sub_fg = ds.images[:100], ds.foreground[:100]
    maps, _ = compute_weight_maps(model, sub_imgs)
    wins = 0
    for m, fg in zip(maps, sub_fg):
        fg_mean = m[:, fg].mean()
        bg_mean = m[:, ~fg].mean()
        wins += fg_mean > bg_mean
    assert wins >= 80  # directional: object pixels carry more weight
