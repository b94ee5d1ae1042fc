"""Metric fixtures and the evaluation protocol."""

import numpy as np
import pytest

from spjscc.classifier import TrainClassifierConfig, classify_accuracy, perceive, pretrain_classifier
from spjscc.dataio import LabeledImageDataset, generate_shapes
from spjscc.jscc import CodecConfig, decode, encode, init_decoder, init_encoder
from spjscc.metrics import cpp, evaluate, f1_macro, mean_over_seeds, psnr, ssim
from spjscc.numcore import AdamState, ShapeError, adam_step
from spjscc.training import loss_mse


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def test_psnr_identical_images_cap():
    x = np.random.default_rng(0).uniform(size=(3, 8, 8))
    assert psnr(x, x) == 100.0


def test_psnr_mse_001_is_20db():
    x = np.zeros((3, 10, 10))
    y = np.full((3, 10, 10), 0.1)  # mse 0.01
    np.testing.assert_allclose(psnr(x, y), 20.0, atol=1e-9)


def test_psnr_constant_offset_half():
    x = np.zeros((3, 4, 4))
    y = np.full((3, 4, 4), 0.5)  # mse 0.25
    np.testing.assert_allclose(psnr(x, y), 10 * np.log10(4), atol=1e-9)
    assert abs(psnr(x, y) - 6.0206) < 1e-3


def test_psnr_strictly_decreasing_in_mse():
    x = np.zeros((3, 6, 6))
    vals = [psnr(x, np.full_like(x, off)) for off in (0.1, 0.2, 0.3, 0.5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_identical_is_one():
    x = np.random.default_rng(1).uniform(size=(3, 16, 16))
    np.testing.assert_allclose(ssim(x, x), 1.0, atol=1e-12)


def test_ssim_constant_zero_vs_one_closed_form():
    x = np.zeros((3, 12, 12))
    y = np.ones((3, 12, 12))
    c1 = 0.01**2
    np.testing.assert_allclose(ssim(x, y), c1 / (1 + c1), rtol=1e-9)
    assert abs(ssim(x, y) - 9.999e-5) < 1e-7


def test_ssim_noisy_copy_between_extremes():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, 0.8, size=(3, 16, 16))
    noisy = np.clip(x + rng.normal(0, 0.1, size=x.shape), 0, 1)
    s = ssim(x, noisy)
    c1 = 0.01**2
    assert c1 / (1 + c1) < s < 1.0


def test_ssim_rejects_small_images():
    with pytest.raises(ShapeError):
        ssim(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))


# ---------------------------------------------------------------------------
# macro F1
# ---------------------------------------------------------------------------


def test_f1_perfect_predictions():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert f1_macro(labels, labels, 3) == 1.0


def test_f1_all_predicted_one_class_balanced():
    # balanced 2-class, everything predicted class 0:
    # class 0: P=0.5, R=1 -> 2/3; class 1: 0 -> macro 1/3
    labels = np.array([0, 0, 1, 1])
    preds = np.zeros(4, dtype=int)
    np.testing.assert_allclose(f1_macro(preds, labels, 2), 1 / 3)


def test_f1_matches_confusion_matrix_brute_force():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=200)
    preds = rng.integers(0, 3, size=200)

    # independent oracle: build the confusion matrix, then per-class F1
    cm = np.zeros((3, 3), dtype=int)
    for p, l in zip(preds, labels):
        cm[l, p] += 1
    scores = []
    for c in range(3):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    np.testing.assert_allclose(f1_macro(preds, labels, 3), np.mean(scores), rtol=1e-12)


def test_f1_equals_accuracy_on_diagonal_confusion():
    labels = np.repeat(np.arange(4), 25)
    assert f1_macro(labels, labels, 4) == np.mean(labels == labels) == 1.0


# ---------------------------------------------------------------------------
# CPP
# ---------------------------------------------------------------------------


def test_cpp_range_endpoints_and_midpoint():
    # defaults: 512 selective + 512 non-selective symbols at 32x32
    assert cpp(np.zeros(16), 512, 512, 32, 32) == 512 / 2048 == 0.25
    assert cpp(np.ones(16), 512, 512, 32, 32) == 1024 / 2048 == 0.5
    half = np.r_[np.ones(8), np.zeros(8)]
    assert cpp(half, 512, 512, 32, 32) == 0.375


def test_cpp_linear_in_active_channels():
    vals = []
    for k in range(17):
        mask = np.r_[np.ones(k), np.zeros(16 - k)]
        vals.append(cpp(mask, 512, 512, 32, 32))
    diffs = np.diff(vals)
    np.testing.assert_allclose(diffs, diffs[0])  # exactly linear
    np.testing.assert_allclose(vals[0], 0.25)
    np.testing.assert_allclose(vals[-1], 0.5)


def test_cpp_formula_on_random_masks():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mask = (rng.uniform(size=16) < 0.5).astype(float)
        got = cpp(mask, 512, 512, 32, 32)
        expect = (mask.sum() * 32 + 512) / 2048.0  # 32 symbols per channel
        assert got == expect


def test_cpp_batch_mask_mean():
    m = np.stack([np.ones(16), np.zeros(16)])
    np.testing.assert_allclose(cpp(m, 512, 512, 32, 32), 0.375)


# ---------------------------------------------------------------------------
# evaluate(): degenerate pipeline + seed protocol
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit_setup():
    """Classifier + codec overfit noiselessly on 10 confidently-classified images."""
    clf_ds = generate_shapes(11, 400, 32, 32)
    model = pretrain_classifier(clf_ds, TrainClassifierConfig(epochs=12, lr=2e-3, batch=32, seed=2))

    pool = generate_shapes(31, 60, 32, 32)
    res = perceive(model, pool.images)
    sorted_logits = np.sort(res.logits, axis=1)
    margin = sorted_logits[:, -1] - sorted_logits[:, -2]
    picks = np.argsort(-margin)[:10]
    subset = LabeledImageDataset(
        images=pool.images[picks],
        labels=pool.labels[picks],
        class_count=pool.class_count,
        split="test",
        dataset_id="overfit-10",
    )

    cfg = CodecConfig()
    enc, dec = init_encoder(cfg, 1), init_decoder(cfg, 2)
    merged = {**enc.params, **dec.params}
    state = AdamState()
    for _ in range(350):
        r = encode(enc, subset.images, 20.0, mode="eval")
        xp = decode(dec, r.e, 20.0)
        loss = loss_mse(r.tape, r.x, xp)
        adam_step(merged, r.tape.grad_by_name(loss), state, lr=2e-3)
    return model, subset, cfg, enc, dec


@pytest.mark.slow
def test_noiseless_overfit_codec_preserves_classifier_accuracy(overfit_setup):
    model, subset, cfg, enc, dec = overfit_setup
    clean_acc = classify_accuracy(model, subset.images, subset.labels)
    r = encode(enc, subset.images, 20.0, mode="eval")
    xp = decode(dec, r.e, 20.0).value
    assert np.mean(perceive(model, xp).predicted == subset.labels) == clean_acc


@pytest.mark.slow
def test_evaluate_stores_per_seed_rows_and_mean(overfit_setup):
    model, subset, cfg, enc, dec = overfit_setup
    seeds = [101, 102, 103, 104, 105]
    reports = evaluate(enc, dec, model, subset, snr_grid=[5.0], seeds=seeds, run_id="five")
    assert [r.seed for r in reports] == seeds
    summary = mean_over_seeds(reports)
    assert summary[5.0]["count"] == 5
    np.testing.assert_allclose(summary[5.0]["acc"], np.mean([r.acc for r in reports]))
    # same seed list reruns identically
    again = evaluate(enc, dec, model, subset, snr_grid=[5.0], seeds=seeds, run_id="five")
    assert [(r.acc, r.psnr_db, r.ssim) for r in again] == [(r.acc, r.psnr_db, r.ssim) for r in reports]


@pytest.mark.slow
def test_psnr_monotone_in_snr_for_trained_model(overfit_setup):
    model, subset, cfg, enc, dec = overfit_setup
    reports = evaluate(enc, dec, model, subset, snr_grid=[0.0, 20.0], seeds=[7, 8, 9])
    summary = mean_over_seeds(reports)
    assert summary[20.0]["psnr_db"] >= summary[0.0]["psnr_db"]


@pytest.mark.slow
def test_evaluate_cpp_within_declared_range(overfit_setup):
    model, subset, cfg, enc, dec = overfit_setup
    reports = evaluate(enc, dec, model, subset, snr_grid=[5.0], seeds=[1])
    lo = cfg.nonselective_symbols / (2 * cfg.height * cfg.width)
    hi = (cfg.selective_symbols + cfg.nonselective_symbols) / (2 * cfg.height * cfg.width)
    assert lo <= reports[0].cpp <= hi


def test_evaluate_requires_seeds():
    cfg = CodecConfig()
    with pytest.raises(ValueError):
        evaluate(init_encoder(cfg, 0), init_decoder(cfg, 1), None, None, [5.0], [])
