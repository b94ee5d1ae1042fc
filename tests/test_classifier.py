"""Frozen downstream classifier: pretraining, inference, accuracy scoring."""

import hashlib

import numpy as np
import pytest

from spjscc.classifier import (
    ClassifierModel,
    TrainClassifierConfig,
    classify_accuracy,
    init_classifier,
    perceive,
    perceive_with_tape,
    pretrain_classifier,
)
from spjscc.dataio import generate_shapes
from spjscc.numcore import ShapeError


@pytest.fixture(scope="module")
def small_trained():
    ds = generate_shapes(7, 600, 32, 32)
    model = pretrain_classifier(ds, TrainClassifierConfig(epochs=15, lr=2e-3, batch=32, seed=1))
    return ds, model


def test_pretrain_reaches_high_train_accuracy(small_trained):
    ds, model = small_trained
    assert classify_accuracy(model, ds.images, ds.labels) > 0.90


def test_pretrain_same_seed_same_theta_hash():
    ds = generate_shapes(3, 60, 32, 32)
    cfg = TrainClassifierConfig(epochs=1, lr=1e-3, batch=16, seed=5)
    a = pretrain_classifier(ds, cfg)
    b = pretrain_classifier(ds, cfg)
    assert a.theta_hash() == b.theta_hash()


def test_init_params_are_pinned():
    """Names, order, shapes and bytes of the seed-0 init; a change to the init order or rule fails here."""
    h = hashlib.sha256()
    for name, arr in init_classifier(10, (32, 32), 0).params.items():
        h.update(f"{name} {arr.dtype} {arr.shape}\n".encode() + arr.tobytes())
    assert h.hexdigest() == "ca570d336c16e0f921abb2de497e1038ddf99a13cab1a7c670f01d13d8ffb85d"


def test_logits_shape_is_batch_by_classes():
    ds = generate_shapes(3, 20, 32, 32)
    model = init_classifier(10, (32, 32), 0)
    res = perceive(model, ds.images[:7])
    assert res.logits.shape == (7, 10)
    assert res.predicted.shape == (7,)


def test_perceive_predicted_is_logits_argmax():
    ds = generate_shapes(4, 12, 32, 32)
    model = init_classifier(10, (32, 32), 2)
    res = perceive(model, ds.images)
    np.testing.assert_array_equal(res.predicted, res.logits.argmax(axis=1))


def test_perceive_duplicate_images_identical_rows():
    ds = generate_shapes(4, 12, 32, 32)
    model = init_classifier(10, (32, 32), 2)
    batch = np.stack([ds.images[0], ds.images[1], ds.images[0]])
    res = perceive(model, batch)
    np.testing.assert_array_equal(res.logits[0], res.logits[2])


def test_perceive_rejects_wrong_shape():
    model = init_classifier(10, (32, 32), 0)
    with pytest.raises(ShapeError):
        perceive(model, np.zeros((2, 3, 16, 16), dtype=np.float32))


def test_tiny_dense_model_matches_manual_matrix_product():
    # hand-set single dense layer as the whole perception graph
    from spjscc import classifier as clf

    a = (np.arange(3 * 8 * 8 * 4, dtype=np.float32).reshape(3 * 8 * 8, 4) % 7) * 0.01
    b = np.array([0.1, -0.2, 0.0, 0.3], np.float32)
    model = ClassifierModel(params={}, class_count=4, in_hw=(8, 8))

    def tiny_graph(tape, params, x_node):
        return tape.dense(x_node, tape.leaf(a), tape.leaf(b))

    orig = clf.logits_graph
    clf.logits_graph = tiny_graph
    try:
        x = np.random.default_rng(0).uniform(size=(2, 3, 8, 8)).astype(np.float32)
        res = perceive(model, x)
    finally:
        clf.logits_graph = orig
    manual = x.reshape(2, -1) @ a + b
    np.testing.assert_allclose(res.logits, manual, rtol=1e-5)


def test_accuracy_trivials(small_trained):
    ds, model = small_trained
    pred = perceive(model, ds.images[:50]).predicted
    assert classify_accuracy(model, ds.images[:50], pred) == 1.0  # use predictions as labels

    # random labels on a trained model land near chance level
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(ds.labels)
    acc = classify_accuracy(model, ds.images, shuffled)
    assert abs(acc - 1 / ds.class_count) < 0.05

    with pytest.raises(ValueError):
        classify_accuracy(model, ds.images[:0], ds.labels[:0])


def test_theta_hash_unchanged_by_inference(small_trained):
    ds, model = small_trained
    before = model.theta_hash()
    perceive(model, ds.images[:8])
    perceive_with_tape(model, ds.images[:4])
    classify_accuracy(model, ds.images[:16], ds.labels[:16])
    assert model.theta_hash() == before
