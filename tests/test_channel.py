"""Power normalization, AWGN statistics, SNR sampling."""

import numpy as np
import pytest

from spjscc.channel import (
    awgn_transmit,
    empirical_snr_db,
    noise_variance,
    normalize_power,
    sample_training_snr,
)
from spjscc.numcore import Tape


def _vector(vals, active=None, dtype=np.float64):
    tape = Tape(dtype=dtype)
    arr = np.atleast_2d(np.asarray(vals, dtype=dtype))
    raw = tape.leaf(arr)
    if active is None:
        active = np.ones((arr.shape[0], arr.shape[1] // 2), dtype=bool)
    return tape, raw, np.asarray(active, dtype=bool)


def _mean_active_power(e):
    """Mean |e_k|^2 over active symbols, per row."""
    vals = e.coeffs.value.astype(np.float64)
    return (vals * vals * e.coefficient_mask()).sum(axis=1) / e.active.sum(axis=1)


def test_normalize_mean_power_four_scales_by_half():
    # 4 active symbols, total power 16 (mean 4) -> scale 1/2
    tape, raw, active = _vector([2.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 2.0])
    e = normalize_power(raw, active)
    np.testing.assert_allclose(e.coeffs.value, [[1, 0, 0, 1, 1, 0, 0, 1]])
    np.testing.assert_allclose(e.gamma.value, [[0.5]])
    np.testing.assert_allclose(_mean_active_power(e), 1.0, atol=1e-12)


def test_normalize_identity_when_already_unit_power():
    tape, raw, active = _vector([1.0, 0.0, 0.0, 1.0])
    e = normalize_power(raw, active)
    np.testing.assert_allclose(e.gamma.value, [[1.0]])
    np.testing.assert_allclose(e.coeffs.value, raw.value)


def test_normalize_masked_symbols_zeroed_active_untouched():
    # active symbols (1,0), (0,1) already unit mean power; masked (5,5), (5,5)
    tape, raw, _ = _vector([1.0, 0.0, 0.0, 1.0, 5.0, 5.0, 5.0, 5.0])
    active = np.array([[True, True, False, False]])
    e = normalize_power(raw, active)
    np.testing.assert_allclose(e.coeffs.value, [[1, 0, 0, 1, 0, 0, 0, 0]])
    np.testing.assert_allclose(e.gamma.value, [[1.0]])


def test_normalize_sends_all_zero_active_row_with_unit_gamma():
    # row 0 has no energy; row 1 must come out exactly as it does on its own
    tape, raw, active = _vector([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 2.0]])
    e = normalize_power(raw, active)
    np.testing.assert_array_equal(e.gamma.value, [[1.0], [0.5]])
    np.testing.assert_array_equal(e.coeffs.value, [[0, 0, 0, 0], [1, 0, 0, 1]])
    _, alone, _ = _vector([2.0, 0.0, 0.0, 2.0])
    assert normalize_power(alone, active[1:]).coeffs.value.tobytes() == e.coeffs.value[1:].tobytes()
    # gamma = 1 is a constant on the zero row: its gradient is finite, the weights themselves
    s = tape.reduce_sum(tape.mul(e.coeffs, tape.leaf(np.array([[1.0, 2.0, 3.0, 4.0]] * 2))))
    (g,) = tape.backward(s, wrt=(raw,))
    assert np.isfinite(g).all()
    np.testing.assert_array_equal(g[0], [1.0, 2.0, 3.0, 4.0])


def test_normalize_invariant_after_scaling():
    rng = np.random.default_rng(0)
    tape = Tape(dtype=np.float64)
    raw = tape.leaf(rng.normal(size=(5, 64)) * rng.uniform(0.1, 10))
    active = rng.uniform(size=(5, 32)) < 0.7
    active[:, 0] = True
    e = normalize_power(raw, active)
    np.testing.assert_allclose(_mean_active_power(e), 1.0, atol=1e-5)
    # inactive coefficients exactly zero
    assert np.all(e.coeffs.value[~e.coefficient_mask().astype(bool)] == 0.0)


def test_normalization_participates_in_gradient_flow():
    tape, raw, active = _vector([2.0, 0.0, 0.0, 2.0])
    e = normalize_power(raw, active)
    s = tape.reduce_sum(tape.mul(e.coeffs, tape.leaf(np.array([[1.0, 2.0, 3.0, 4.0]]))))
    (g,) = tape.backward(s, wrt=(raw,))
    assert np.any(g != 0)
    # normalized output is scale invariant, so the radial direction is flat:
    # grad dot x = 0
    assert abs(float((g * raw.value).sum())) < 1e-10


@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
def test_awgn_rejects_non_finite_snr(snr):
    tape, raw, active = _vector([1.0, 0.0, 0.0, 1.0])
    e = normalize_power(raw, active)
    with pytest.raises(ValueError, match="snr_db must be finite"):
        awgn_transmit(e, snr, np.random.default_rng(0))


def test_noise_variance_at_0db_is_one():
    assert noise_variance(0.0) == 1.0
    assert abs(noise_variance(10.0) - 0.1) < 1e-12


def test_awgn_deterministic_given_seed():
    tape, raw, active = _vector(np.ones(16))
    e = normalize_power(raw, active)
    a = awgn_transmit(e, 5.0, np.random.default_rng(42))
    b = awgn_transmit(e, 5.0, np.random.default_rng(42))
    assert a.coeffs.value.tobytes() == b.coeffs.value.tobytes()


def test_awgn_inactive_symbols_untouched():
    tape, raw, _ = _vector(np.ones(16))
    active = np.zeros((1, 8), dtype=bool)
    active[0, :4] = True
    e = normalize_power(raw, active)
    out = awgn_transmit(e, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(out.coeffs.value[0, 8:], 0.0)
    assert np.all(out.coeffs.value[0, :8] != e.coeffs.value[0, :8])


@pytest.mark.parametrize("snr", [0.0, 5.0, 10.0, 20.0])
def test_awgn_empirical_snr_within_02db(snr):
    n_sym = 1_000_000
    tape = Tape(dtype=np.float64)
    rng = np.random.default_rng(7)
    raw = tape.leaf(rng.normal(size=(1, 2 * n_sym)))
    active = np.ones((1, n_sym), dtype=bool)
    e = normalize_power(raw, active)
    out = awgn_transmit(e, snr, np.random.default_rng(1234))
    got = empirical_snr_db(e.coeffs.value, out.coeffs.value, e.active)
    assert abs(got - snr) <= 0.2


def test_awgn_energy_bookkeeping_2pct():
    # E[|e' - e|^2] per real coefficient approaches sigma^2/2
    n_sym = 1_000_000
    tape = Tape(dtype=np.float64)
    raw = tape.leaf(np.ones((1, 2 * n_sym)))
    active = np.ones((1, n_sym), dtype=bool)
    e = normalize_power(raw, active)
    snr = 5.0
    out = awgn_transmit(e, snr, np.random.default_rng(99))
    per_coeff = float(((out.coeffs.value - e.coeffs.value) ** 2).sum() / (2 * n_sym))
    expect = noise_variance(snr) / 2
    assert abs(per_coeff - expect) / expect < 0.02


def test_awgn_gradient_transparent():
    # gradient of a scalar of e' w.r.t. e equals the gradient w.r.t. e'
    tape, raw, active = _vector([1.0, 2.0, 3.0, 4.0])
    e = normalize_power(raw, active)
    out = awgn_transmit(e, 0.0, np.random.default_rng(5))
    weights = tape.leaf(np.array([[1.0, -2.0, 0.5, 3.0]]))
    s = tape.reduce_sum(tape.mul(out.coeffs, weights))
    g_in, g_out = tape.backward(s, wrt=(e.coeffs, out.coeffs))
    np.testing.assert_array_equal(g_in, g_out)


def test_sample_training_snr_statistics():
    rng = np.random.default_rng(0)
    draws = np.array([sample_training_snr(rng) for _ in range(100_000)])
    assert draws.min() >= 0.0 and draws.max() <= 20.0
    assert 9.8 <= draws.mean() <= 10.2


def test_sample_training_snr_deterministic():
    a = [sample_training_snr(np.random.default_rng(3)) for _ in range(1)]
    b = [sample_training_snr(np.random.default_rng(3)) for _ in range(1)]
    assert a == b
    seq1 = [sample_training_snr(np.random.default_rng(9))]
    rng = np.random.default_rng(9)
    seq2 = [sample_training_snr(rng)]
    assert seq1 == seq2
