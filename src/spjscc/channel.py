"""Complex channel symbols and the AWGN link.

Coefficients are stored as flat real vectors; consecutive pairs (2k, 2k+1)
are the in-phase/quadrature parts of complex symbol k. Power is normalized
to unit mean energy per active symbol before transmission (SNR is defined
against that convention), and the scale factor is recorded so the receiver
can undo it. A row with zero energy (an all-black image through a freshly
initialized encoder) is sent with scale factor 1: it carries zeros, and only
the channel noise arrives. Everything stays on the autodiff tape: the normalization has a
gradient and the noise acts as an additive constant.

A channel use is `awgn_transmit(e, snr_db, rng)`: the symbols, the SNR in dB
and the generator the noise is drawn from, all three required. For a fixed
generator state the output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import ShapeError, Tensor


@dataclass
class ComplexSymbolVector:
    """(N, 2s) real coefficients on a tape plus the (N, s) active-symbol mask."""

    coeffs: Tensor
    active: np.ndarray  # (N, s) bool; inactive symbols carry exactly zero
    gamma: Tensor  # (N, 1) transmit scale from normalize_power

    def coefficient_mask(self) -> np.ndarray:
        """Per-real-coefficient activity: each symbol covers two entries."""
        return np.repeat(self.active, 2, axis=1)


def noise_variance(snr_db: float) -> float:
    """Total complex-noise variance at unit signal power: 10^(-snr/10)."""
    return 10.0 ** (-snr_db / 10.0)


def normalize_power(raw: Tensor, active: np.ndarray) -> ComplexSymbolVector:
    """Scale active symbols to unit mean power; inactive ones must arrive exactly zero.

    gamma = sqrt(s_active / sum_active |e_k|^2) per row, kept on the tape so
    training gradients flow through the scaling. A row whose active
    coefficients are all zero is sent with gamma = 1: a 0/1 leaf lifts its
    power to 1 and 1 stands in for its s_active, so its gradients stay
    finite. Other rows add exactly 0.0 and are unchanged.

    `jscc.encode` already zeroes a closed channel through its gate, so the
    power is summed over `raw` as given, and input whose inactive
    coefficients are not exactly zero is refused. Zeroing them once more
    here would change no value, but would zero the straight-through gradient
    of every closed gate.
    """
    tape = raw.tape
    n, width = raw.shape
    active = np.asarray(active, dtype=bool)
    if width % 2 != 0 or active.shape != (n, width // 2):
        raise ShapeError(f"active mask {active.shape} does not match coefficients {raw.shape}")
    s_active = active.sum(axis=1, keepdims=True)
    if (s_active == 0).any():
        raise ValueError("every row needs at least one active symbol")
    if (raw.value[~np.repeat(active, 2, axis=1)] != 0).any():
        raise ValueError("inactive coefficients must arrive exactly zero")

    power = tape.reduce_sum(tape.mul(raw, raw), axis=(1,), keepdims=True)
    silent = power.value == 0
    power = tape.add(power, tape.leaf(silent))
    s_active = np.where(silent, 1, s_active)
    gamma = tape.sqrt(tape.mul(tape.leaf(s_active.astype(raw.value.dtype)), tape.reciprocal(power)))
    out = tape.mul(raw, gamma)
    return ComplexSymbolVector(coeffs=out, active=active.copy(), gamma=gamma)


def awgn_transmit(e: ComplexSymbolVector, snr_db: float, rng: np.random.Generator) -> ComplexSymbolVector:
    """e' = e + N with N Gaussian per active real coefficient, var sigma^2/2.

    sigma^2 = 10^(-snr_db/10) per complex symbol; snr_db must be finite.
    Inactive symbols are left untouched (they carry no energy and are not
    transmitted). The noise is drawn from `rng` and is a constant on the
    tape, so d(e')/d(e) is the identity. For a fixed generator state the
    output is deterministic.
    """
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    tape = e.coeffs.tape
    noise = rng.normal(0.0, np.sqrt(noise_variance(snr_db) / 2.0), size=e.coeffs.shape)
    out = tape.add(e.coeffs, tape.leaf(noise * e.coefficient_mask()))
    return ComplexSymbolVector(coeffs=out, active=e.active.copy(), gamma=e.gamma)


def empirical_snr_db(clean: np.ndarray, noisy: np.ndarray, active: np.ndarray) -> float:
    """10 log10(P_signal / P_noise) measured over active coefficients."""
    msk = np.repeat(active, 2, axis=1)
    sig = (clean.astype(np.float64) ** 2 * msk).sum()
    err = ((noisy.astype(np.float64) - clean.astype(np.float64)) ** 2 * msk).sum()
    return float(10.0 * np.log10(sig / err))
