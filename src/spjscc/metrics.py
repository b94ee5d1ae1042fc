"""Evaluation metrics: task accuracy and F1, pixel PSNR/SSIM, rate (CPP)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import awgn_transmit
from .classifier import ClassifierModel, perceive
from .dataio import LabeledImageDataset
from .jscc import DecoderModel, EncoderModel, decode, encode
from .numcore import ShapeError

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 8
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass
class EvalReport:
    run_id: str
    snr_db: float
    seed: int
    cpp: float
    acc: float
    f1: float
    psnr_db: float
    ssim: float


def psnr(x: np.ndarray, x_prime: np.ndarray) -> float:
    """10 log10(1 / MSE) with peak 1.0; exact-zero MSE reports the 100 dB cap."""
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != x_prime.shape:
        raise ShapeError(f"psnr shapes differ: {x.shape} vs {x_prime.shape}")
    mse = float(np.mean((x - x_prime) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / mse))


def _gray(img: np.ndarray) -> np.ndarray:
    return np.asarray(img, dtype=np.float64).mean(axis=0)


def ssim(x: np.ndarray, x_prime: np.ndarray) -> float:
    """Mean structural similarity over 8x8 sliding windows, stride 1.

    Images are (3, H, W) in [0, 1]; grayscale is the channel mean. Window
    statistics are population moments; constants C1=(0.01)^2, C2=(0.03)^2
    for unit peak.
    """
    if x.shape != x_prime.shape:
        raise ShapeError(f"ssim shapes differ: {x.shape} vs {x_prime.shape}")
    a, b = _gray(x), _gray(x_prime)
    k = SSIM_WINDOW
    if a.shape[0] < k or a.shape[1] < k:
        raise ShapeError(f"image {a.shape} smaller than the {k}x{k} ssim window")
    wa = np.lib.stride_tricks.sliding_window_view(a, (k, k))
    wb = np.lib.stride_tricks.sliding_window_view(b, (k, k))
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    var_a = (wa * wa).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float((num / den).mean())


def f1_macro(predictions: np.ndarray, labels: np.ndarray, class_count: int) -> float:
    """Unweighted mean over classes of 2PR/(P+R), with 0/0 taken as 0."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"predictions {predictions.shape} vs labels {labels.shape}")
    scores = []
    for c in range(class_count):
        tp = int(np.sum((predictions == c) & (labels == c)))
        fp = int(np.sum((predictions == c) & (labels != c)))
        fn = int(np.sum((predictions != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))


def cpp(mask: np.ndarray, selective_symbols: int, nonselective_symbols: int, height: int, width: int) -> float:
    """Channel uses per pixel: (active selective + nonselective symbols) / 2HW.

    `mask` is (f_s,) or (batch, f_s) of 0/1 channel gates; symbol counts are
    complex-symbol lengths. Linear in the number of active channels; the
    all-zeros and all-ones masks land exactly on the declared range ends.
    """
    mask = np.atleast_2d(np.asarray(mask, dtype=np.float64))
    f_s = mask.shape[1]
    if selective_symbols % f_s:
        raise ValueError(f"selective symbol count {selective_symbols} not divisible by {f_s} channels")
    per_channel = selective_symbols // f_s
    active_symbols = mask.sum(axis=1) * per_channel
    return float(np.mean((active_symbols + nonselective_symbols) / (2.0 * height * width)))


def evaluate(
    encoder: EncoderModel,
    decoder: DecoderModel,
    classifier: ClassifierModel,
    test_set: LabeledImageDataset,
    snr_grid,
    seeds,
    run_id: str = "run",
    batch: int = 64,
) -> list[EvalReport]:
    """Transmit the whole test set at each (snr, seed); one report per cell.

    Deterministic: channel noise for a cell is seeded from (seed, snr). The
    mask (and so CPP) depends on snr and content only, not on the noise seed.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one evaluation seed")
    cfg = encoder.config
    reports = []
    for snr_db in snr_grid:
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(round(snr_db * 1000))]))
            preds = np.empty(len(test_set), dtype=np.int64)
            psnrs = np.empty(len(test_set))
            ssims = np.empty(len(test_set))
            cpps = []
            for start in range(0, len(test_set), batch):
                imgs = test_set.images[start : start + batch]
                r = encode(encoder, imgs, float(snr_db), mode="eval")
                ep = awgn_transmit(r.e, float(snr_db), rng)
                xp = decode(decoder, ep, float(snr_db)).value
                preds[start : start + len(imgs)] = perceive(classifier, xp).predicted
                for j in range(len(imgs)):
                    psnrs[start + j] = psnr(imgs[j], xp[j])
                    ssims[start + j] = ssim(imgs[j], xp[j])
                cpps.append(
                    cpp(r.mask.value, cfg.selective_symbols, cfg.nonselective_symbols, cfg.height, cfg.width)
                    * len(imgs)
                )
            reports.append(
                EvalReport(
                    run_id=run_id,
                    snr_db=float(snr_db),
                    seed=int(seed),
                    cpp=float(sum(cpps) / len(test_set)),
                    acc=float(np.mean(preds == test_set.labels)),
                    f1=f1_macro(preds, test_set.labels, test_set.class_count),
                    psnr_db=float(psnrs.mean()),
                    ssim=float(ssims.mean()),
                )
            )
    return reports


def mean_over_seeds(reports: list[EvalReport]) -> dict[float, dict[str, float]]:
    """Per-snr means of every metric across seeds."""
    by_snr: dict[float, list[EvalReport]] = {}
    for r in reports:
        by_snr.setdefault(r.snr_db, []).append(r)
    out = {}
    for snr_db, rows in sorted(by_snr.items()):
        out[snr_db] = {
            "count": len(rows),
            "cpp": float(np.mean([r.cpp for r in rows])),
            "acc": float(np.mean([r.acc for r in rows])),
            "f1": float(np.mean([r.f1 for r in rows])),
            "psnr_db": float(np.mean([r.psnr_db for r in rows])),
            "ssim": float(np.mean([r.ssim for r in rows])),
        }
    return out
