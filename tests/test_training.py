"""Losses and the training loop: fixtures, reductions, determinism."""

import numpy as np
import pytest

from spjscc.classifier import init_classifier
from spjscc.dataio import LabeledImageDataset, generate_shapes
from spjscc.jscc import CodecConfig
from spjscc.numcore import Tape
from spjscc.saliency import WeightCache, compute_weight_maps
from spjscc.training import (
    TrainConfig,
    TrainingDiverged,
    TrainLog,
    loss_mse,
    loss_sp,
    total_loss,
    train_jscc,
)


def _pair(x_arr, xp_arr, dtype=np.float64):
    tape = Tape(dtype=dtype)
    return tape, tape.leaf(x_arr), tape.leaf(xp_arr)


def test_mse_zero_when_equal():
    x = np.random.default_rng(0).uniform(size=(2, 3, 4, 4))
    tape, a, b = _pair(x, x)
    assert float(loss_mse(tape, a, b).value) == 0.0


def test_mse_quarter_per_pixel_fixture():
    # x = zeros, x' = 0.5 everywhere: squared error 0.25 per pixel value
    n = 3 * 4 * 4
    tape, a, b = _pair(np.zeros((1, 3, 4, 4)), np.full((1, 3, 4, 4), 0.5))
    np.testing.assert_allclose(float(loss_mse(tape, a, b).value), 0.25 * n)


def test_mse_symmetric():
    rng = np.random.default_rng(1)
    x, y = rng.uniform(size=(2, 3, 4, 4)), rng.uniform(size=(2, 3, 4, 4))
    t1, a1, b1 = _pair(x, y)
    t2, a2, b2 = _pair(y, x)
    np.testing.assert_allclose(float(loss_mse(t1, a1, b1).value), float(loss_mse(t2, a2, b2).value))


def test_sp_weighted_fixture():
    # w = [0.6, 0.8], diff = [1, 2] -> 0.6*1 + 0.8*4 = 3.8
    tape = Tape(dtype=np.float64)
    x = tape.leaf(np.array([[0.0, 0.0]]))
    xp = tape.leaf(np.array([[1.0, 2.0]]))
    w = np.array([[0.6, 0.8]])
    np.testing.assert_allclose(float(loss_sp(tape, x, xp, w).value), 3.8)


def test_sp_zero_when_equal():
    x = np.random.default_rng(2).uniform(size=(2, 3, 4, 4))
    w = np.full((2, 3, 4, 4), 1.0 / np.sqrt(48))
    tape, a, b = _pair(x, x)
    assert float(loss_sp(tape, a, b, w).value) == 0.0


def test_sp_uniform_reduces_to_mse_over_sqrt_n():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(size=(4, 3, 8, 8)), rng.uniform(size=(4, 3, 8, 8))
    n = 3 * 8 * 8
    w = np.full((4, 3, 8, 8), 1.0 / np.sqrt(n))
    t1, a1, b1 = _pair(x, y)
    t2, a2, b2 = _pair(x, y)
    sp = float(loss_sp(t1, a1, b1, w).value)
    mse = float(loss_mse(t2, a2, b2).value)
    assert abs(sp - mse / np.sqrt(n)) / abs(sp) < 1e-5


def test_sp_rejects_invalid_weights():
    tape, a, b = _pair(np.zeros((1, 4)), np.ones((1, 4)))
    with pytest.raises(ValueError, match="negative"):
        loss_sp(tape, a, b, np.array([[-0.5, 0.5, 0.5, 0.5]]))
    tape, a, b = _pair(np.zeros((1, 4)), np.ones((1, 4)))
    with pytest.raises(ValueError, match="norm"):
        loss_sp(tape, a, b, np.array([[10.0, 0.0, 0.0, 0.0]]))


def test_sp_gradient_is_2w_times_diff():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(1, 3, 6, 6))
    xp = rng.uniform(size=(1, 3, 6, 6))
    w = np.abs(rng.normal(size=(1, 3, 6, 6)))
    w /= np.linalg.norm(w)
    tape = Tape(dtype=np.float64)
    xt, xpt = tape.leaf(x), tape.leaf(xp)
    loss = loss_sp(tape, xt, xpt, w)
    (g,) = tape.backward(loss, wrt=(xpt,))
    np.testing.assert_allclose(g, 2.0 * w * (xp - x), atol=1e-6)


def test_total_loss_fixtures():
    tape = Tape(dtype=np.float64)
    distortion = tape.leaf(np.asarray(1.0))
    mask = tape.leaf(np.array([[1.0, 0.0], [1.0, 0.0]]))  # mean 0.5
    t0 = total_loss(tape, distortion, mask, 0.0)
    assert t0.value.tobytes() == distortion.value.tobytes()  # lambda 0: the distortion, bit for bit
    t1 = total_loss(tape, distortion, mask, 0.1)
    np.testing.assert_allclose(float(t1.value), 1.05)


def test_total_loss_gradient_reaches_mask_when_lambda_positive():
    tape = Tape(dtype=np.float64)
    logits = tape.leaf(np.array([[0.3, -0.2, 0.8]]))
    soft = tape.sigmoid(logits)
    node = tape.ste_threshold(soft)
    distortion = tape.leaf(np.asarray(0.0))
    total = total_loss(tape, distortion, node, 0.5)
    (g,) = tape.backward(total, wrt=(logits,))
    assert np.all(g != 0)


def _uniform_cache(ds):
    n = ds.images[0].size
    maps = np.full(ds.images.shape, 1.0 / np.sqrt(n), dtype=np.float32)
    return WeightCache(
        maps=maps,
        fallback=np.ones(len(ds), dtype=bool),
        dataset_id=ds.dataset_id,
        classifier_hash="",
    )


@pytest.mark.slow
def test_toy_run_loss_decreases():
    ds = generate_shapes(3, 200, 32, 32)
    cfg = TrainConfig(loss_mode="mse", epochs=5, batch_size=32, lr=1e-3, seed=1)
    enc, dec, log = train_jscc(cfg, ds, None, None, CodecConfig())
    assert log.epoch_mean_loss(log.last_epoch()) < log.epoch_mean_loss(0)


@pytest.mark.slow
def test_identical_config_and_seed_bit_identical_log(tmp_path):
    ds = generate_shapes(5, 80, 32, 32)
    cfg = TrainConfig(loss_mode="mse", epochs=2, batch_size=16, lr=1e-3, seed=9)
    _, _, log1 = train_jscc(cfg, ds, None, None, CodecConfig())
    _, _, log2 = train_jscc(cfg, ds, None, None, CodecConfig())
    assert log1.rows == log2.rows
    log1.to_csv(tmp_path / "a.csv", {"train.seed": "9"})
    log2.to_csv(tmp_path / "b.csv", {"train.seed": "9"})
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_trainlog_csv_is_stamped_and_ends_lines_with_lf_only(tmp_path):
    log = TrainLog()
    log.append(0, 0, 1.5, 1.0, 0.5, 0.25, 3.0)
    log.append(0, 1, 1.25, 1.0, 0.25, 0.125, 7.0)
    log.to_csv(tmp_path / "log.csv", {"train.seed": "3", "codec.f_s": "16"})
    data = (tmp_path / "log.csv").read_bytes()
    assert b"\r" not in data
    assert data.split(b"\n") == [
        b'# {"codec.f_s": "16", "train.seed": "3"}',
        b"epoch,step,loss,distortion,rate,mask_mean,snr_db",
        b"0,0,1.5,1,0.5,0.25,3",
        b"0,1,1.25,1,0.25,0.125,7",
        b"",
    ]


@pytest.mark.slow
def test_larger_lambda_lowers_final_mask_activity():
    ds = generate_shapes(7, 120, 32, 32)
    base = dict(loss_mode="mse", epochs=4, batch_size=24, lr=1e-3, seed=4)
    _, _, log0 = train_jscc(TrainConfig(lambda_rate=0.0, **base), ds, None, None, CodecConfig())
    _, _, log1 = train_jscc(TrainConfig(lambda_rate=1.0, **base), ds, None, None, CodecConfig())
    m0, m1 = (np.mean([r[5] for r in log.rows if r[0] == log.last_epoch()]) for log in (log0, log1))
    assert m1 < m0


def test_all_black_image_trains():
    # a fresh encoder maps an all-black image to all-zero coefficients, sent with gamma = 1
    ds = generate_shapes(5, 40, 32, 32)
    ds.images[0] = 0
    cfg = TrainConfig(loss_mode="mse", epochs=1, batch_size=20, seed=1)
    enc, dec, log = train_jscc(cfg, ds, None, None)
    assert log.rows and all(np.isfinite(r[2]) for r in log.rows)
    assert all(cfg.snr_low <= r[6] <= cfg.snr_high for r in log.rows)
    assert enc.params is dec.params  # one table for both halves


def test_divergence_aborts_with_snapshot():
    # a rate weight beyond float32 range overflows the first total loss
    ds = generate_shapes(5, 40, 32, 32)
    cfg = TrainConfig(loss_mode="mse", lambda_rate=1e39, epochs=1, batch_size=20, seed=1)
    with pytest.raises(TrainingDiverged, match="epoch 0 step 0"):
        train_jscc(cfg, ds, None, None, CodecConfig())


def test_divergence_in_the_validation_pass_is_reported_as_divergence():
    # lr 10 takes the one training step, and the validation pass then overflows
    ds = generate_shapes(7, 10, 16, 16)
    cfg = TrainConfig(loss_mode="mse", epochs=1, lr=10.0, seed=3)
    with pytest.raises(TrainingDiverged, match=r"diverged at epoch 0 \(validation\): op '\w+' produced non-finite values"):
        train_jscc(cfg, ds, None, None, CodecConfig(height=16, width=16))


def test_training_stops_after_patience_epochs_without_a_better_validation_loss():
    # at lr 1e-30 no step moves the validation loss: epoch 0 sets the best, epochs 1 and 2 are stale
    ds = generate_shapes(3, 40, 16, 16)
    cfg = TrainConfig(loss_mode="mse", epochs=6, patience=2, lr=1e-30, batch_size=20, seed=1)
    _, _, log = train_jscc(cfg, ds, None, None, CodecConfig(height=16, width=16))
    assert log.last_epoch() == 2
    assert len(log.rows) == 6  # 36 training images: 2 steps in each of 3 epochs


def test_sp_mode_requires_matching_cache():
    ds = generate_shapes(5, 40, 32, 32)
    cfg = TrainConfig(loss_mode="sp", epochs=1, batch_size=16, seed=1)
    with pytest.raises(ValueError, match="weight cache"):
        train_jscc(cfg, ds, None, None, CodecConfig())
    wrong = _uniform_cache(generate_shapes(6, 30, 32, 32))
    with pytest.raises(ValueError, match="cache"):
        train_jscc(cfg, ds, wrong, None, CodecConfig())


def test_sp_mode_refuses_a_cache_built_for_another_classifier():
    ds = generate_shapes(5, 40, 16, 16)
    classifier = init_classifier(ds.class_count, (16, 16), seed=0)
    cache = _uniform_cache(ds)
    assert cache.classifier_hash != classifier.theta_hash()
    cfg = TrainConfig(loss_mode="sp", epochs=1, batch_size=16, seed=1)
    with pytest.raises(ValueError, match="weight cache was built for a different classifier"):
        train_jscc(cfg, ds, cache, classifier, CodecConfig(height=16, width=16))


def test_a_one_image_dataset_is_too_small_for_the_validation_split():
    ds = generate_shapes(5, 10, 16, 16)
    one = LabeledImageDataset(images=ds.images[:1], labels=ds.labels[:1], class_count=ds.class_count, split="train")
    with pytest.raises(ValueError, match="dataset too small for the validation split"):
        train_jscc(TrainConfig(loss_mode="mse", epochs=1), one, None, None, CodecConfig(height=16, width=16))


@pytest.mark.slow
def test_sp_mode_with_uniform_cache_runs_and_matches_mse_scale():
    # one sanity run where the sp loss is just a rescaled mse
    ds = generate_shapes(5, 60, 32, 32)
    cache = _uniform_cache(ds)
    cfg_sp = TrainConfig(loss_mode="sp", epochs=1, batch_size=20, seed=2)
    cfg_mse = TrainConfig(loss_mode="mse", epochs=1, batch_size=20, seed=2)
    _, _, log_sp = train_jscc(cfg_sp, ds, cache, None, CodecConfig())
    _, _, log_mse = train_jscc(cfg_mse, ds, None, None, CodecConfig())
    n = 3 * 32 * 32
    # identical parameter states only at step 0 (updates diverge afterwards)
    first_sp, first_mse = log_sp.rows[0][2], log_mse.rows[0][2]
    assert abs(first_sp - first_mse / np.sqrt(n)) / first_sp < 1e-5


@pytest.mark.parametrize("epochs", [1, 2])
def test_training_holds_one_steps_tape(traced_peak, epochs):
    """The perfbench codec-train operation: 71 32x32 shapes, sp mode, batch 32.

    Traced peak 32.2 MB at one epoch and 32.6 MB at two. They read 50.9 and
    56.1 MB while each step's tape stayed alive through the next step's
    forward and the validation pass, and the second read 37.4 MB while the
    last validation batch's tape lived into the next epoch.
    """
    ds = generate_shapes(1, 71, 32, 32)
    clf = init_classifier(ds.class_count, (32, 32), seed=2)
    maps, fallback = compute_weight_maps(clf, ds.images)
    cache = WeightCache(maps=maps, fallback=fallback, dataset_id=ds.dataset_id, classifier_hash=clf.theta_hash())
    config = TrainConfig(loss_mode="sp", epochs=epochs, batch_size=32, seed=1)
    peak, _ = traced_peak(lambda: train_jscc(config, ds, cache, clf))
    assert peak / 2**20 < 36, f"train_jscc peaked at {peak / 2**20:.1f} MB"
