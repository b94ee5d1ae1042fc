"""Metric fixtures and the evaluation protocol."""

import os
import warnings

import numpy as np
import pytest

from spjscc import metrics, split
from spjscc.channel import awgn_transmit
from spjscc.classifier import classify_accuracy, init_classifier, perceive
from spjscc.dataio import LabeledImageDataset, generate_shapes
from spjscc.jscc import CodecConfig, decode, encode, init_decoder, init_encoder
from spjscc.metrics import cpp, evaluate, f1_macro, mean_over_seeds, psnr, ssim
from spjscc.numcore import AdamState, NonFiniteError, ShapeError, adam_step
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


def _ssim_reference(x, y):
    """Per-image SSIM from explicit 8x8 window views: the textbook definition."""
    a, b = x.mean(axis=0), y.mean(axis=0)
    wa = np.lib.stride_tricks.sliding_window_view(a, (8, 8))
    wb = np.lib.stride_tricks.sliding_window_view(b, (8, 8))
    mu_a, mu_b = wa.mean(axis=(2, 3)), wb.mean(axis=(2, 3))
    var_a = wa.var(axis=(2, 3))
    var_b = wb.var(axis=(2, 3))
    cov = ((wa - mu_a[..., None, None]) * (wb - mu_b[..., None, None])).mean(axis=(2, 3))
    c1, c2 = 0.01**2, 0.03**2
    s = (2 * mu_a * mu_b + c1) * (2 * cov + c2) / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
    return s.mean()


def test_psnr_ssim_score_a_batch_row_by_row():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(6, 3, 16, 16))
    y = np.clip(x + rng.normal(0, 0.05, size=x.shape), 0, 1)
    p, s = psnr(x, y), ssim(x, y)
    assert p.shape == s.shape == (6,)
    for j in range(6):
        assert p[j] == psnr(x[j], y[j])
        assert s[j] == ssim(x[j], y[j])
        np.testing.assert_allclose(p[j], 10 * np.log10(1 / np.mean((x[j] - y[j]) ** 2)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(s[j], _ssim_reference(x[j], y[j]), rtol=0, atol=1e-12)


def test_psnr_batch_caps_identical_pairs_without_warning():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(2, 3, 8, 8))
    y = x.copy()
    y[1] += 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = psnr(x, y)
    assert p[0] == 100.0 and p[1] < 100.0


def test_batched_metrics_reject_bad_shapes():
    for f in (psnr, ssim):
        with pytest.raises(ShapeError):
            f(np.zeros((2, 3, 16, 16)), np.zeros((3, 3, 16, 16)))
    with pytest.raises(ShapeError):
        ssim(np.zeros((2, 3, 16, 7)), np.zeros((2, 3, 16, 7)))


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
def overfit_setup(shapes_classifier):
    """Classifier + codec overfit noiselessly on 10 confidently-classified images."""
    _, model = shapes_classifier

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


@pytest.fixture(scope="module")
def random_codec_grid():
    """Random-init codec and classifier, 20 test images in batches of 7 (the last one partial)."""
    cfg = CodecConfig()
    test = generate_shapes(21, 20, 32, 32, split="test")
    models = (init_encoder(cfg, 3), init_decoder(cfg, 4), init_classifier(test.class_count, (32, 32), 5))
    return models, test


def test_evaluate_grid_cell_equals_the_cell_run_alone(random_codec_grid):
    (enc, dec, clf), test = random_codec_grid
    reports = evaluate(enc, dec, clf, test, [0.0, 10.0], [1, 2, 3], batch=7)
    assert [(r.snr_db, r.seed) for r in reports] == [(s, k) for s in (0.0, 10.0) for k in (1, 2, 3)]
    for r in reports:
        assert [r] == evaluate(enc, dec, clf, test, [r.snr_db], [r.seed], batch=7)


def test_evaluate_equals_the_per_cell_loop(random_codec_grid):
    """Each cell as the plain loop computes it: re-encode every batch, decode on the encode tape.

    The noise entropy is spelled out: a cell at k = round(1000 snr) >= 0 is
    seeded from [seed, k], and one at k < 0 from [seed, -k, 1].
    """
    (enc, dec, clf), test = random_codec_grid
    for r in evaluate(enc, dec, clf, test, [0.0, 10.0, -5.0], [1, 2], batch=7):
        k = round(r.snr_db * 1000)
        rng = np.random.default_rng(np.random.SeedSequence([r.seed, k] if k >= 0 else [r.seed, -k, 1]))
        preds, psnrs, ssims = [], [], []
        for start in range(0, len(test), 7):
            imgs = test.images[start : start + 7]
            e = encode(enc, imgs, r.snr_db, mode="eval")
            xp = decode(dec, awgn_transmit(e.e, r.snr_db, rng), r.snr_db).value
            preds.extend(perceive(clf, xp).predicted)
            psnrs.extend(psnr(a, b) for a, b in zip(imgs, xp))
            ssims.extend(ssim(a, b) for a, b in zip(imgs, xp))
        assert r.acc == np.mean(np.array(preds) == test.labels)
        assert (r.psnr_db, r.ssim) == (np.mean(psnrs), np.mean(ssims))


def test_negative_and_positive_snr_cells_draw_different_noise():
    for seed in (0, 1, 7):
        draws = {snr: metrics._noise_generator(seed, snr).standard_normal(16) for snr in (-5.0, 5.0, -0.5, 0.5)}
        assert not np.array_equal(draws[-5.0], draws[5.0])
        assert not np.array_equal(draws[-0.5], draws[0.5])
        # a non-negative cell keeps the noise it has always had
        same = np.random.default_rng(np.random.SeedSequence([seed, 5000])).standard_normal(16)
        np.testing.assert_array_equal(draws[5.0], same)


def test_evaluate_encodes_once_per_snr_and_batch(random_codec_grid, monkeypatch):
    """In one process: monkeypatched counters see only the process they run in."""
    (enc, dec, clf), test = random_codec_grid
    monkeypatch.setattr(split, "_worker_count", lambda cells: 1)
    calls = {"encode": 0, "decode": 0, "perceive": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
    evaluate(enc, dec, clf, test, [0.0, 10.0], [1, 2, 3], batch=7)
    # 2 snrs x 3 batches encode once each; every one of 3 seeds decodes and classifies each
    assert calls == {"encode": 6, "decode": 18, "perceive": 18}


def test_evaluate_requires_seeds():
    cfg = CodecConfig()
    with pytest.raises(ValueError):
        evaluate(init_encoder(cfg, 0), init_decoder(cfg, 1), None, None, [5.0], [])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_evaluate_refuses_a_non_finite_snr_before_any_cell(bad):
    # no test set: the finite 5 dB cell would fail on it if it ran before the check
    cfg = CodecConfig()
    with pytest.raises(ValueError, match=f"SNR must be finite, got {bad!r}"):
        evaluate(init_encoder(cfg, 0), init_decoder(cfg, 1), None, None, [5.0, bad], [1])


def test_evaluate_frees_the_encode_and_decode_tapes_once_read(traced_peak, monkeypatch):
    """Random-init codec and classifier, 32 32x32 test images, SNR {0, 10, 20} x 3 seeds, in one process.

    Traced peak 16.3 MB. It read 31.0 MB while the encode tape lived across
    every seed's decode and each decode tape across its `perceive`.
    tracemalloc sees only the process it runs in, so no cell goes to a worker.
    """
    monkeypatch.setattr(split, "_worker_count", lambda cells: 1)
    cfg = CodecConfig()
    test = generate_shapes(2, 32, 32, 32, split="test")
    enc, dec, clf = init_encoder(cfg, 3), init_decoder(cfg, 4), init_classifier(test.class_count, (32, 32), 5)
    peak, _ = traced_peak(lambda: evaluate(enc, dec, clf, test, [0.0, 10.0, 20.0], [1, 2, 3]))
    assert peak / 2**20 < 20, f"evaluate peaked at {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# evaluate(): cells split between the caller and forked workers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("snr_grid, seeds", [([0.0, 10.0, -5.0], [1, 2]), ([0.0, 10.0, -5.0, 20.0, 5.0], [4])])
def test_split_evaluation_equals_one_process(
    random_codec_grid, monkeypatch, one_blas_thread, no_child_left, workers, snr_grid, seeds
):
    """6 cells (3 + 3 or 2 + 2 + 2, the 10 dB cells split) and 5 cells (2 + 3 or 1 + 2 + 2) equal the one-process run."""
    (enc, dec, clf), test = random_codec_grid
    monkeypatch.setattr(split, "_worker_count", lambda cells: 1)
    alone = evaluate(enc, dec, clf, test, snr_grid, seeds, run_id="x", batch=7)
    monkeypatch.setattr(split, "_worker_count", lambda cells: min(workers, cells))
    assert evaluate(enc, dec, clf, test, snr_grid, seeds, run_id="x", batch=7) == alone
    no_child_left()


def test_each_process_encodes_once_per_snr_and_batch_it_holds(
    random_codec_grid, monkeypatch, tmp_path, one_blas_thread, no_child_left
):
    """3 SNRs x 3 seeds on 2 processes, one batch: the caller holds the 0 dB cells and one 10 dB cell, the worker the rest."""
    (enc, dec, clf), test = random_codec_grid
    log, real = tmp_path / "encodes", metrics.encode

    def logged(encoder, imgs, snr, **kwargs):
        with open(log, "a") as fh:  # one short appended line per call: whole lines from both processes
            fh.write(f"{os.getpid()} {snr}\n")
        return real(encoder, imgs, snr, **kwargs)

    monkeypatch.setattr(metrics, "encode", logged)
    monkeypatch.setattr(split, "_worker_count", lambda cells: min(2, cells))
    evaluate(enc, dec, clf, test, [0.0, 10.0, 20.0], [1, 2, 3], batch=len(test))
    no_child_left()
    encodes = [line.split() for line in log.read_text().splitlines()]
    assert len(encodes) == 4
    caller = str(os.getpid())
    assert [float(snr) for pid, snr in encodes if pid == caller] == [0.0, 10.0]
    assert [float(snr) for pid, snr in encodes if pid != caller] == [10.0, 20.0]


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_an_exception_in_either_process_reaches_the_caller(
    random_codec_grid, monkeypatch, one_blas_thread, no_child_left, where
):
    (enc, dec, clf), test = random_codec_grid
    caller, real = os.getpid(), metrics.perceive

    def failing(model, x):
        if (os.getpid() == caller) == (where == "caller"):
            raise NonFiniteError("op 'conv2d' produced non-finite values")
        return real(model, x)

    monkeypatch.setattr(metrics, "perceive", failing)
    monkeypatch.setattr(split, "_worker_count", lambda cells: min(2, cells))
    with pytest.raises(NonFiniteError, match="op 'conv2d' produced non-finite values") as raised:
        evaluate(enc, dec, clf, test, [0.0, 10.0], [1, 2], batch=7)
    no_child_left()
    if where == "worker":  # the worker's own frames come back as the cause
        assert isinstance(raised.value.__cause__, split.WorkerTraceback)
        assert "in failing" in str(raised.value.__cause__)


def test_a_worker_that_dies_without_a_result_is_named_with_its_exit_status(
    random_codec_grid, monkeypatch, one_blas_thread, no_child_left
):
    (enc, dec, clf), test = random_codec_grid
    caller, real = os.getpid(), metrics.perceive

    def dying(model, x):
        if os.getpid() != caller:
            os._exit(3)
        return real(model, x)

    monkeypatch.setattr(metrics, "perceive", dying)
    monkeypatch.setattr(split, "_worker_count", lambda cells: min(2, cells))
    with pytest.raises(RuntimeError, match="metrics._evaluate_cells worker [0-9]+ ended with exit status 3 without a result"):
        evaluate(enc, dec, clf, test, [0.0, 10.0], [1, 2], batch=7)
    no_child_left()


@pytest.mark.parametrize("blas_threads, cells, workers", [(1, 9, 4), (1, 3, 3), (2, 9, 2), (3, 9, 1), (4, 9, 1), (8, 9, 1)])
def test_worker_count_is_the_cpus_over_the_blas_threads(monkeypatch, blas_threads, cells, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(split, "_blas_thread_query", lambda: lambda: blas_threads)
    assert split._worker_count(cells) == workers


def test_worker_count_is_one_where_the_blas_cannot_be_asked(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(split, "_blas_thread_query", lambda: None)
    assert split._worker_count(9) == 1


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_evaluate_runs_in_one_process_without_fork_or_an_affinity_mask(random_codec_grid, monkeypatch, missing):
    (enc, dec, clf), test = random_codec_grid
    expected = evaluate(enc, dec, clf, test, [0.0, 10.0], [1, 2], batch=7)
    monkeypatch.delattr(os, missing)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without an affinity mask"))
    assert split._worker_count(4) == 1
    assert evaluate(enc, dec, clf, test, [0.0, 10.0], [1, 2], batch=7) == expected
