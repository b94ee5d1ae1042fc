"""Loss functions and the codec training loop.

Two distortion modes share one loop: plain squared error, or squared error
weighted per pixel by the cached semantic maps. Each step samples a channel
SNR uniformly from the configured range, pushes a batch through
encode -> AWGN -> decode, adds the rate pressure term, and Adam-updates the
encoder and decoder together. The downstream classifier is never touched.

Validation runs at the end of every epoch on a held-out slice with a fixed
noise/SNR draw (so epochs are comparable); training keeps the parameters of
the best validation epoch and stops early after `patience` epochs without
improvement.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import awgn_transmit, sample_training_snr
from .classifier import ClassifierModel
from .dataio import LabeledImageDataset, batch_iter
from .jscc import CodecConfig, DecoderModel, EncoderModel, decode, encode, init_decoder, init_encoder
from .numcore import AdamState, NonFiniteError, ShapeError, Tape, Tensor, adam_step
from .saliency import WeightCache

LOG_COLUMNS = ("epoch", "step", "loss", "distortion", "rate", "mask_mean", "snr_db")


class TrainingDiverged(FloatingPointError):
    """Loss went non-finite; message carries the diagnostic snapshot."""


@dataclass
class TrainConfig:
    loss_mode: str = "sp"  # "sp" or "mse"
    lambda_rate: float = 0.0
    epochs: int = 15
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    snr_low: float = 0.0
    snr_high: float = 20.0
    temp_start: float = 5.0
    temp_end: float = 0.5
    patience: int = 5
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.loss_mode not in ("sp", "mse"):
            raise ValueError(f"loss_mode must be 'sp' or 'mse', got {self.loss_mode!r}")
        if self.lambda_rate < 0:
            raise ValueError(f"lambda_rate must be >= 0, got {self.lambda_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainLog:
    rows: list[tuple] = field(default_factory=list)

    def append(self, epoch, step, loss, distortion, rate, mask_mean, snr_db):
        self.rows.append((int(epoch), int(step), float(loss), float(distortion), float(rate), float(mask_mean), float(snr_db)))

    def epoch_mean_loss(self, epoch: int) -> float:
        vals = [r[2] for r in self.rows if r[0] == epoch]
        return float(np.mean(vals))

    def last_epoch(self) -> int:
        return self.rows[-1][0] if self.rows else -1

    def to_csv(self, path: str | Path, config_hash: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={config_hash}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(LOG_COLUMNS)
            for row in self.rows:
                writer.writerow([row[0], row[1]] + [f"{v:.9g}" for v in row[2:]])


def _sum_over_pixels(tape: Tape, t: Tensor) -> Tensor:
    axes = tuple(range(1, len(t.shape)))
    return tape.reduce_sum(t, axis=axes, keepdims=False)


def loss_mse(tape: Tape, x: Tensor, x_prime: Tensor) -> Tensor:
    """Squared error summed over pixels, averaged over the batch."""
    if x.shape != x_prime.shape:
        raise ShapeError(f"loss_mse shapes differ: {x.shape} vs {x_prime.shape}")
    diff = tape.add(x_prime, tape.scalar_mul(x, -1.0))
    sq = tape.mul(diff, diff)
    return tape.reduce_mean(_sum_over_pixels(tape, sq))


def _check_weight_invariants(weights: np.ndarray):
    flat = weights.reshape(len(weights), -1).astype(np.float64)
    if flat.min() < 0:
        raise ValueError("weight map has negative entries")
    norms = np.sqrt((flat * flat).sum(axis=1))
    if np.abs(norms - 1.0).max() > 1e-4:
        raise ValueError(f"weight map L2 norms deviate from 1 by {np.abs(norms - 1.0).max():.2e}")


def loss_sp(tape: Tape, x: Tensor, x_prime: Tensor, weights: np.ndarray) -> Tensor:
    """Per-pixel weighted squared error, summed then batch-averaged.

    `weights` is one map per image (nonnegative, unit L2 norm); with the
    uniform map this reduces exactly to loss_mse / sqrt(n).
    """
    if x.shape != x_prime.shape:
        raise ShapeError(f"loss_sp shapes differ: {x.shape} vs {x_prime.shape}")
    weights = np.asarray(weights)
    if weights.shape != tuple(x.shape):
        raise ShapeError(f"weight maps {weights.shape} do not match images {x.shape}")
    _check_weight_invariants(weights)
    diff = tape.add(x_prime, tape.scalar_mul(x, -1.0))
    sq = tape.mul(diff, diff)
    weighted = tape.mul(tape.leaf(weights), sq)
    return tape.reduce_mean(_sum_over_pixels(tape, weighted))


def total_loss(tape: Tape, distortion: Tensor, mask: Tensor, lambda_rate: float) -> Tensor:
    """distortion + lambda * mean(mask); lambda 0 returns distortion itself."""
    if lambda_rate == 0.0:
        return distortion
    rate = tape.reduce_mean(mask)
    return tape.add(distortion, tape.scalar_mul(rate, lambda_rate))


def _step_loss(enc, dec, imgs, weights, snr_db, mode, rng, temperature, config):
    """One encode/transmit/decode pass; returns (tape, total, distortion, mask).

    `rng` draws the channel noise and, in train mode, the mask sample.
    """
    r = encode(enc, imgs, snr_db, mode=mode, rng=rng, temperature=temperature)
    xp = decode(dec, awgn_transmit(r.e, snr_db, rng), snr_db)
    tape = r.tape
    if config.loss_mode == "sp":
        distortion = loss_sp(tape, r.x, xp, weights)
    else:
        distortion = loss_mse(tape, r.x, xp)
    total = total_loss(tape, distortion, r.mask, config.lambda_rate)
    return tape, total, distortion, r.mask


def train_jscc(
    config: TrainConfig,
    dataset: LabeledImageDataset,
    weight_cache: WeightCache | None,
    classifier: ClassifierModel | None,
    codec_config: CodecConfig | None = None,
) -> tuple[EncoderModel, DecoderModel, TrainLog]:
    """Train the codec end to end; deterministic for a fixed config seed.

    In sp mode the weight cache must cover the dataset and match the frozen
    classifier's parameter hash. Returns the parameters of the best
    validation epoch.
    """
    if codec_config is None:
        codec_config = CodecConfig(height=dataset.height, width=dataset.width)
    if config.loss_mode == "sp":
        if weight_cache is None:
            raise ValueError("sp mode needs a weight cache")
        if len(weight_cache) != len(dataset) or weight_cache.dataset_id != dataset.dataset_id:
            raise ValueError(
                f"weight cache covers {weight_cache.dataset_id!r} ({len(weight_cache)} maps), "
                f"dataset is {dataset.dataset_id!r} ({len(dataset)} images)"
            )
        if classifier is not None and weight_cache.classifier_hash != classifier.theta_hash():
            raise ValueError("weight cache was built for a different classifier")
    theta0_before = classifier.theta_hash() if classifier is not None else None

    n_val = max(1, int(round(len(dataset) * config.val_fraction)))
    n_train = len(dataset) - n_val
    if n_train < 1:
        raise ValueError("dataset too small for the validation split")
    train_view = LabeledImageDataset(
        images=dataset.images[:n_train],
        labels=dataset.labels[:n_train],
        class_count=dataset.class_count,
        split=dataset.split,
        dataset_id=dataset.dataset_id,
    )
    val_images = dataset.images[n_train:]
    val_weights = weight_cache.maps[n_train:] if config.loss_mode == "sp" else None

    enc = init_encoder(codec_config, seed=config.seed * 7 + 1)
    dec = init_decoder(codec_config, seed=config.seed * 7 + 2)
    merged = {**enc.params, **dec.params}
    state = AdamState()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC0DEC]))

    steps_per_epoch = (n_train + config.batch_size - 1) // config.batch_size
    total_steps = max(1, config.epochs * steps_per_epoch)
    log = TrainLog()
    best_val = np.inf
    best_params = None
    stale = 0
    global_step = 0

    for epoch in range(config.epochs):
        for b in batch_iter(train_view, config.batch_size, shuffle_seed=config.seed * 100003 + epoch):
            snr_db = sample_training_snr(rng, config.snr_low, config.snr_high)
            frac = global_step / total_steps
            temperature = config.temp_start + (config.temp_end - config.temp_start) * frac
            weights = weight_cache.maps[b.indices] if config.loss_mode == "sp" else None
            try:
                tape, total, distortion, mask = _step_loss(enc, dec, b.images, weights, snr_db, "train", rng, temperature, config)
                if not np.isfinite(total.value):
                    raise NonFiniteError("non-finite total loss")
                grads = tape.grad_by_name(total)
                adam_step(merged, grads, state, lr=config.lr)
            except NonFiniteError as exc:
                recent = [f"{r[2]:.4g}" for r in log.rows[-3:]]
                raise TrainingDiverged(
                    f"diverged at epoch {epoch} step {global_step}: {exc} "
                    f"(snr {snr_db:.2f} dB, last losses {recent})"
                ) from exc
            mask_mean = float(mask.value.mean())
            log.append(epoch, global_step, float(total.value), float(distortion.value), config.lambda_rate * mask_mean, mask_mean, snr_db)
            global_step += 1

        # fixed-draw validation pass, eval-mode mask
        val_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7A11D]))
        val_losses = []
        for start in range(0, len(val_images), config.batch_size):
            imgs = val_images[start : start + config.batch_size]
            w = val_weights[start : start + config.batch_size] if val_weights is not None else None
            snr_db = sample_training_snr(val_rng, config.snr_low, config.snr_high)
            _, vtotal, _, _ = _step_loss(enc, dec, imgs, w, snr_db, "eval", val_rng, 1.0, config)
            val_losses.append(float(vtotal.value))
        val_loss = float(np.mean(val_losses))
        if val_loss < best_val - 1e-9:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in merged.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best_params is not None:
        for k, v in merged.items():
            v[...] = best_params[k]
    if theta0_before is not None and classifier.theta_hash() != theta0_before:
        raise RuntimeError("frozen classifier parameters changed during codec training")
    return enc, dec, log
