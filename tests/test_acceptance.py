"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -s -m acceptance` to see the
per-criterion PASS lines. The shared fixture builds the full desk-scale
pipeline once (2000/500 synthetic images, frozen classifier, weight cache,
one codec per loss mode); standalone criteria run first.
"""

import time

import numpy as np
import pytest

from spjscc.channel import awgn_transmit, empirical_snr_db, normalize_power
from spjscc.classifier import TrainClassifierConfig, classify_accuracy, pretrain_classifier
from spjscc.dataio import generate_shapes
from spjscc.jscc import CodecConfig
from spjscc.metrics import cpp, evaluate, f1_macro, psnr, ssim
from spjscc.numcore import Tape
from spjscc.saliency import WeightCache, compute_weight_maps
from spjscc.training import TrainConfig, loss_mse, loss_sp, train_jscc

from test_numcore import _fd_cases, central_diff, max_rel_err

pytestmark = pytest.mark.acceptance

EVAL_SEEDS = (101, 102, 103, 104, 105)


def _report(num, name, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): PASS {detail}")


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracles():
    start = time.time()
    worst = 0.0
    for instance in range(5):
        rng = np.random.default_rng(500 + instance)
        for name, arrays, build in _fd_cases(rng):
            arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
            tape = Tape(dtype=np.float64)
            leaves = [tape.leaf(a) for a in arrays]
            out = build(tape, *leaves)
            grads = tape.backward(out, wrt=leaves)
            for k, a in enumerate(arrays):
                def f(v, k=k):
                    t2 = Tape(dtype=np.float64)
                    ls = [t2.leaf(v if j == k else arrays[j]) for j in range(len(arrays))]
                    return float(build(t2, *ls).value)

                err = max_rel_err(grads[k], central_diff(f, a.copy()))
                assert err < 1e-4, f"{name} input {k}: rel err {err:.2e}"
                worst = max(worst, err)
    elapsed = time.time() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    _report(1, "gradient oracle suite", f"worst rel err {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 3: channel statistics
# ---------------------------------------------------------------------------


def test_criterion_3_channel_statistics():
    start = time.time()
    n_sym = 1_000_000
    rng = np.random.default_rng(77)
    worst = 0.0
    for snr in (0.0, 5.0, 10.0, 20.0):
        tape = Tape(dtype=np.float64)
        raw = tape.leaf(rng.normal(size=(1, 2 * n_sym)))
        e = normalize_power(raw, np.ones((1, n_sym), dtype=bool))
        out = awgn_transmit(e, snr, np.random.default_rng(int(snr) * 31 + 5))
        got = empirical_snr_db(e.coeffs.value, out.coeffs.value, e.active)
        assert abs(got - snr) <= 0.2, f"empirical {got:.3f} dB at target {snr} dB"
        worst = max(worst, abs(got - snr))
    elapsed = time.time() - start
    assert elapsed < 60, f"channel statistics took {elapsed:.0f}s (budget 60s)"
    _report(3, "channel statistics", f"worst deviation {worst:.3f} dB, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: CPP exactness
# ---------------------------------------------------------------------------


def test_criterion_4_cpp_exactness():
    start = time.time()
    cfg = CodecConfig()
    l_gs, l_gn = cfg.selective_symbols, cfg.nonselective_symbols
    assert cpp(np.zeros(cfg.f_s), l_gs, l_gn, 32, 32) == 0.25
    assert cpp(np.ones(cfg.f_s), l_gs, l_gn, 32, 32) == 0.5
    rng = np.random.default_rng(4)
    spc = l_gs // cfg.f_s
    for _ in range(100):
        mask = (rng.uniform(size=cfg.f_s) < rng.uniform()).astype(float)
        expect = (mask.sum() * spc + l_gn) / (2 * 32 * 32)
        assert cpp(mask, l_gs, l_gn, 32, 32) == expect
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(4, "cpp exactness", f"{elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# criterion 5: loss-mode reduction under uniform weights
# ---------------------------------------------------------------------------


def test_criterion_5_loss_mode_reduction():
    start = time.time()
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(16, 3, 32, 32)).astype(np.float32)
    xp = rng.uniform(size=(16, 3, 32, 32)).astype(np.float32)
    n = 3 * 32 * 32
    uniform = np.full(x.shape, 1.0 / np.sqrt(n), dtype=np.float32)
    t1 = Tape()
    sp = float(loss_sp(t1, t1.leaf(x), t1.leaf(xp), uniform).value)
    t2 = Tape()
    mse = float(loss_mse(t2, t2.leaf(x), t2.leaf(xp)).value)
    rel = abs(sp - mse / np.sqrt(n)) / abs(sp)
    assert rel < 1e-5, f"relative deviation {rel:.2e}"
    elapsed = time.time() - start
    assert elapsed < 60
    _report(5, "loss-mode reduction", f"relative deviation {rel:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: metric fixtures
# ---------------------------------------------------------------------------


def test_criterion_8_metric_fixtures():
    start = time.time()
    x0 = np.zeros((3, 10, 10))
    assert psnr(x0, x0) == 100.0
    np.testing.assert_allclose(psnr(x0, np.full_like(x0, 0.1)), 20.0, atol=1e-9)
    np.testing.assert_allclose(psnr(x0, np.full_like(x0, 0.5)), 10 * np.log10(4), atol=1e-9)

    xr = np.random.default_rng(0).uniform(size=(3, 16, 16))
    np.testing.assert_allclose(ssim(xr, xr), 1.0, atol=1e-12)
    c1 = 0.01**2
    np.testing.assert_allclose(ssim(np.zeros((3, 12, 12)), np.ones((3, 12, 12))), c1 / (1 + c1), rtol=1e-9)

    labels = np.array([0, 0, 1, 1])
    np.testing.assert_allclose(f1_macro(np.zeros(4, dtype=int), labels, 2), 1 / 3)
    assert f1_macro(labels, labels, 2) == 1.0

    assert cpp(np.r_[np.ones(8), np.zeros(8)], 512, 512, 32, 32) == 0.375
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(8, "metric fixtures", f"{elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# shared desk-scale pipeline for criteria 2, 6, 7
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    t0 = time.time()
    train = generate_shapes(7, 2000, 32, 32, split="train")
    test = generate_shapes(8, 500, 32, 32, split="test")
    clf = pretrain_classifier(train, TrainClassifierConfig(epochs=20, lr=2e-3, batch=32, seed=1))
    train_acc = classify_accuracy(clf, train.images, train.labels)

    t_weights = time.time()
    maps, fallback = compute_weight_maps(clf, train.images)
    weights_seconds = time.time() - t_weights
    cache = WeightCache(maps=maps, fallback=fallback, dataset_id=train.dataset_id, classifier_hash=clf.theta_hash())

    codec_cfg = CodecConfig()
    models = {}
    for mode in ("sp", "mse"):
        tc = TrainConfig(loss_mode=mode, lambda_rate=0.0, epochs=15, batch_size=32, lr=1e-3, seed=3)
        enc, dec, log = train_jscc(tc, train, cache if mode == "sp" else None, clf, codec_cfg)
        models[mode] = (enc, dec, log)
    return {
        "train": train,
        "test": test,
        "classifier": clf,
        "train_acc": train_acc,
        "cache": cache,
        "weights_seconds": weights_seconds,
        "models": models,
        "codec_cfg": codec_cfg,
        "build_seconds": time.time() - t0,
    }


def test_criterion_2_saliency_invariants(pipeline):
    start = time.time()
    train, cache = pipeline["train"], pipeline["cache"]
    maps = cache.maps[:500]
    fg = train.foreground[:500]

    assert maps.min() >= 0.0
    norms = np.linalg.norm(maps.reshape(len(maps), -1).astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-6, f"worst norm deviation {np.abs(norms - 1.0).max():.2e}"

    wins = sum(m[:, f].mean() > m[:, ~f].mean() for m, f in zip(maps, fg))
    assert wins >= 0.80 * len(maps), f"foreground outweighed background on only {wins}/500 images"

    # budget covers extraction of these maps plus the scans here
    elapsed = pipeline["weights_seconds"] * 500 / len(cache.maps) + (time.time() - start)
    assert elapsed < 300, f"saliency suite took {elapsed:.0f}s (budget 300s)"
    _report(2, "saliency invariants", f"foreground wins {wins}/500, {elapsed:.0f}s")


def test_criterion_6_end_to_end_directional(pipeline):
    start = time.time()
    assert pipeline["train_acc"] > 0.90, f"classifier train acc {pipeline['train_acc']:.4f}"

    results = {}
    for mode in ("sp", "mse"):
        enc, dec, _ = pipeline["models"][mode]
        results[mode] = evaluate(
            enc, dec, pipeline["classifier"], pipeline["test"], snr_grid=[5.0], seeds=list(EVAL_SEEDS), run_id=mode
        )
    sp, mse = results["sp"], results["mse"]

    cpp_sp = float(np.mean([r.cpp for r in sp]))
    cpp_mse = float(np.mean([r.cpp for r in mse]))
    assert abs(cpp_sp - cpp_mse) <= 0.02, f"mean CPP mismatch: sp {cpp_sp:.4f} vs mse {cpp_mse:.4f}"

    acc_sp = np.array([r.acc for r in sp])
    acc_mse = np.array([r.acc for r in mse])
    assert acc_sp.mean() >= acc_mse.mean() - 0.005, f"mean ACC sp {acc_sp.mean():.4f} vs mse {acc_mse.mean():.4f}"
    wins = int(np.sum(acc_sp >= acc_mse))
    assert wins >= 3, f"sp won on {wins}/5 seeds (acc sp {acc_sp}, mse {acc_mse})"

    psnr_sp = float(np.mean([r.psnr_db for r in sp]))
    psnr_mse = float(np.mean([r.psnr_db for r in mse]))
    assert psnr_sp >= psnr_mse - 1.5, f"mean PSNR sp {psnr_sp:.2f} vs mse {psnr_mse:.2f}"

    total = pipeline["build_seconds"] + (time.time() - start)
    assert total < 45 * 60, f"end-to-end experiment took {total:.0f}s (budget 2700s)"
    _report(
        6,
        "end-to-end directional",
        f"acc sp {acc_sp.mean():.4f} vs mse {acc_mse.mean():.4f} (wins {wins}/5), "
        f"psnr sp {psnr_sp:.2f} vs mse {psnr_mse:.2f} dB, "
        f"cpp sp {cpp_sp:.4f} vs mse {cpp_mse:.4f}, {total:.0f}s total",
    )


def test_criterion_7_determinism(pipeline, tmp_path):
    enc, dec, _ = pipeline["models"]["sp"]
    kwargs = dict(snr_grid=[5.0], seeds=[101, 102], run_id="det")
    a = evaluate(enc, dec, pipeline["classifier"], pipeline["test"], **kwargs)
    b = evaluate(enc, dec, pipeline["classifier"], pipeline["test"], **kwargs)

    def render(reports):
        lines = ["run_id,loss_mode,snr_db,seed,cpp,acc,f1,psnr_db,ssim"]
        for r in reports:
            lines.append(
                f"{r.run_id},sp,{r.snr_db:.6g},{r.seed},{r.cpp:.9g},{r.acc:.9g},{r.f1:.9g},{r.psnr_db:.9g},{r.ssim:.9g}"
            )
        return ("\n".join(lines) + "\n").encode()

    (tmp_path / "a.csv").write_bytes(render(a))
    (tmp_path / "b.csv").write_bytes(render(b))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _report(7, "determinism", "byte-identical re-evaluation")
