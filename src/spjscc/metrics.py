"""Evaluation metrics: task accuracy and F1, pixel PSNR/SSIM, rate (CPP)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import split
from .channel import ComplexSymbolVector, awgn_transmit
from .classifier import ClassifierModel, perceive
from .dataio import LabeledImageDataset
from .jscc import DecoderModel, EncoderModel, decode, encode
from .numcore import ShapeError, Tape

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


def _image_pair(name: str, x, x_prime) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != x_prime.shape or x.ndim < 3:
        raise ShapeError(f"{name} wants two equal (..., 3, H, W) shapes, got {x.shape} vs {x_prime.shape}")
    return x, x_prime


def psnr(x: np.ndarray, x_prime: np.ndarray) -> np.ndarray:
    """10 log10(1 / MSE) with peak 1.0; exact-zero MSE reports the 100 dB cap.

    Images are (..., 3, H, W); the MSE is taken over the last three axes, so
    a batch gives one value per image and a single image a scalar.
    """
    x, x_prime = _image_pair("psnr", x, x_prime)
    mse = np.mean((x - x_prime) ** 2, axis=(-3, -2, -1))
    exact = mse == 0.0
    db = 10.0 * np.log10(1.0 / np.where(exact, 1.0, mse))
    return np.where(exact, PSNR_CAP_DB, db)[()]


def _window_mean(a: np.ndarray) -> np.ndarray:
    """Mean of every 8x8 window, stride 1, over the last two axes of `a`."""
    h = a.shape[-2] - SSIM_WINDOW + 1
    w = a.shape[-1] - SSIM_WINDOW + 1
    c = [a[..., j : j + w] for j in range(SSIM_WINDOW)]
    # numpy's pairwise order for 8 contiguous values; see `ssim` for why it matters
    rows =((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    total = rows[..., 0:h, :].copy()
    for i in range(1, SSIM_WINDOW):
        total += rows[..., i : i + h, :]
    return total / SSIM_WINDOW**2


def ssim(x: np.ndarray, x_prime: np.ndarray) -> np.ndarray:
    """Mean structural similarity over 8x8 sliding windows, stride 1.

    Images are (..., 3, H, W) in [0, 1]; grayscale is the channel mean, and
    a batch gives one value per image. Window statistics are population
    moments; constants C1=(0.01)^2, C2=(0.03)^2 for unit peak.

    Each window sum is separable: the 8 column taps are shifted slices added
    as a balanced tree, then the 8 row offsets are added one after another.
    That is the order numpy's `mean(axis=(-2, -1))` of a sliding-window view
    adds the same 64 values (an 8-way pairwise sum along the contiguous axis,
    accumulated row by row), so the result is bit-identical to it without
    materialising the (..., H-7, W-7, 8, 8) window products. Only for an
    image exactly 8 pixels wide does numpy sum each window as 64 contiguous
    values in another order; there the two agree to rounding.
    """
    a, b = (img.mean(axis=-3) for img in _image_pair("ssim", x, x_prime))
    k = SSIM_WINDOW
    if a.shape[-2] < k or a.shape[-1] < k:
        raise ShapeError(f"image {a.shape[-2:]} smaller than the {k}x{k} ssim window")
    mu_a = _window_mean(a)
    mu_b = _window_mean(b)
    var_a = _window_mean(a * a) - mu_a * mu_a
    var_b = _window_mean(b * b) - mu_b * mu_b
    cov = _window_mean(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return (num / den).mean(axis=(-2, -1))[()]


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


def _noise_generator(seed: int, snr_db: float) -> np.random.Generator:
    """Cell (seed, snr_db)'s noise. SeedSequence refuses a negative k = round(1000 snr_db): k < 0 is [seed, -k, 1]."""
    k = int(round(snr_db * 1000))
    return np.random.default_rng(np.random.SeedSequence([int(seed), k] if k >= 0 else [int(seed), -k, 1]))


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

    Reports come SNR-major, seed-minor. Eval-mode `encode` draws no random
    numbers, so the mask, the symbols and the CPP depend on snr and content
    only: each batch is encoded once per snr. Each seed's channel noise comes
    from its own generator, seeded from (seed, snr) and drawn batch by batch
    in test-set order, so a cell's result does not depend on which other
    cells run with it. A tape registers each decoder parameter once, so
    every seed decodes on a fresh tape whose leaves are the encoded
    coefficients and their transmit scale.

    The cells, in that order, are split into contiguous runs by
    `split.forked_map`, which holds the process-count rule: the caller
    computes the first run and one forked worker each other run. Every
    process encodes each (snr, batch) it holds a cell of once. Since no cell
    depends on another, the reports are bit-identical whatever the process
    count. On 32 32x32 images, 3 SNRs x 3 seeds on 2 CPUs, a worker held
    26-30 MB of private pages at exit.

    No tape outlives its last read: the encode tape is dropped once its
    coefficients, active symbols and transmit scale are copied out, before
    the first decode, and each decode tape once its output is read, before
    `perceive`. On 32 32x32 images, 3 SNRs x 3 seeds in one process, the
    traced peak fell 31.0 -> 16.3 MB.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one evaluation seed")
    for snr_db in snr_grid:
        if not math.isfinite(snr_db):
            raise ValueError(f"evaluation SNR must be finite, got {snr_db!r}")
    grid, seeds = [float(snr_db) for snr_db in snr_grid], list(seeds)
    cells = len(grid) * len(seeds)
    run = functools.partial(_evaluate_cells, encoder, decoder, classifier, test_set, grid, seeds, run_id, batch)
    return [report for part in split.forked_map(run, cells) for report in part]


def _evaluate_cells(encoder, decoder, classifier, test_set, grid, seeds, run_id, batch, cells: range) -> list[EvalReport]:
    """Reports of the grid's cells `cells`, numbered SNR-major, seed-minor from 0."""
    cfg = encoder.config
    n = len(test_set)
    m = len(seeds)
    reports = []
    for i in range(cells.start // m, -(-cells.stop // m)):
        snr = grid[i]
        held = seeds[max(cells.start - i * m, 0) : cells.stop - i * m]
        rngs = [_noise_generator(seed, snr) for seed in held]
        preds = np.empty((len(held), n), dtype=np.int64)
        psnrs = np.empty((len(held), n))
        ssims = np.empty((len(held), n))
        cpps = []
        for start in range(0, n, batch):
            imgs = test_set.images[start : start + batch]
            rows = slice(start, start + len(imgs))
            r = encode(encoder, imgs, snr, mode="eval")
            cpps.append(
                cpp(r.mask.value, cfg.selective_symbols, cfg.nonselective_symbols, cfg.height, cfg.width) * len(imgs)
            )
            coeffs, active, gamma, dtype = r.e.coeffs.value, r.e.active, r.e.gamma.value, r.tape.dtype
            del r  # free the encoder's activations before the decodes
            for k, rng in enumerate(rngs):
                tape = Tape(dtype=dtype)
                e = ComplexSymbolVector(tape.leaf(coeffs), active, tape.leaf(gamma))
                xp = decode(decoder, awgn_transmit(e, snr, rng), snr).value
                del tape, e  # free this decode's activations before perceive
                preds[k, rows] = perceive(classifier, xp).predicted
                psnrs[k, rows] = psnr(imgs, xp)
                ssims[k, rows] = ssim(imgs, xp)
        for k, seed in enumerate(held):
            reports.append(
                EvalReport(
                    run_id=run_id,
                    snr_db=snr,
                    seed=int(seed),
                    cpp=float(sum(cpps) / n),
                    acc=float(np.mean(preds[k] == test_set.labels)),
                    f1=f1_macro(preds[k], test_set.labels, test_set.class_count),
                    psnr_db=float(psnrs[k].mean()),
                    ssim=float(ssims[k].mean()),
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
