"""Codec: encode/decode contracts, policy mask, SNR adapters, rate range."""

import hashlib

import numpy as np
import pytest

from spjscc import jscc
from spjscc.channel import awgn_transmit, normalize_power
from spjscc.dataio import generate_shapes
from spjscc.jscc import (
    CodecConfig,
    _encoder_features,
    decode,
    encode,
    init_decoder,
    init_encoder,
    policy_mask,
    snr_adapt,
)
from spjscc.metrics import cpp
from spjscc.numcore import ShapeError, Tape
from spjscc.training import loss_mse


@pytest.fixture(scope="module")
def codec():
    cfg = CodecConfig()
    return cfg, init_encoder(cfg, 11), init_decoder(cfg, 12)


def _images(n=4, seed=0):
    return np.random.default_rng(seed).uniform(size=(n, 3, 32, 32)).astype(np.float32)


def test_init_params_are_pinned():
    """Names, order, shapes and bytes of the seed-0 init; a change to the init order or rule fails here."""
    digests = []
    for model in (init_encoder(CodecConfig(), 0), init_decoder(CodecConfig(), 0)):
        h = hashlib.sha256()
        for name, arr in model.params.items():
            h.update(f"{name} {arr.dtype} {arr.shape}\n".encode() + arr.tobytes())
        digests.append(h.hexdigest())
    assert digests == [
        "fec3feeef3e4450495c57c6d4bf83cb0646586082cae7be7396ce2fcdf24a1da",
        "8bb95fcb4665df4a4b9228dcf49e4fd3e0be23cdab8073e17e1cc132a5613b39",
    ]


def _forced_mask_encode(enc, x, snr, bias):
    """Encode with the policy biased hard open/closed via its output bias."""
    saved = enc.params["enc.policy.b2"].copy()
    enc.params["enc.policy.b2"] = np.full_like(saved, bias)
    try:
        return encode(enc, x, snr, mode="eval")
    finally:
        enc.params["enc.policy.b2"] = saved


def _mask_gradient(enc, dec, x):
    """Eval-mode encode and decode at 10 dB, no noise: the forward values and d loss_mse / d mask."""
    r = encode(enc, x, 10.0, mode="eval")
    xp = decode(dec, r.e, 10.0)
    loss = loss_mse(r.tape, r.x, xp)
    (grad,) = r.tape.backward(loss, wrt=(r.mask,))
    return [v.value.tobytes() for v in (r.mask, r.e.coeffs, r.e.gamma, xp, loss)], r.mask.value, grad


def test_a_closed_gate_sees_the_distortion_and_no_forward_value_moves(monkeypatch):
    """Gates forced half open: each closed gate gets a nonzero straight-through gradient.

    A reference that zeroes the inactive coefficients a second time, as
    `normalize_power` did, computes the same bytes everywhere forward and on
    the open gates, and exactly 0 on every closed gate.
    """
    cfg = CodecConfig(height=16, width=16, f_s=4, f_n=4, width_es=8)
    enc, dec = init_encoder(cfg, 1), init_decoder(cfg, 2)
    enc.params["enc.policy.b2"] = np.array([4.0, -4.0, 4.0, -4.0], np.float32)
    x = generate_shapes(3, 10, 16, 16).images[:2]
    forward, mask, grad = _mask_gradient(enc, dec, x)
    np.testing.assert_array_equal(mask, [[1, 0, 1, 0]] * 2)
    closed = mask == 0
    assert np.all(grad[closed] != 0)

    def zeroing_twice(raw, active):
        tape = raw.tape
        return normalize_power(tape.mul(raw, tape.leaf(np.repeat(active, 2, axis=1).astype(raw.value.dtype))), active)

    monkeypatch.setattr(jscc, "normalize_power", zeroing_twice)
    ref_forward, _, ref_grad = _mask_gradient(enc, dec, x)
    assert forward == ref_forward
    assert grad[~closed].tobytes() == ref_grad[~closed].tobytes()
    assert np.all(ref_grad[closed] == 0)


def test_all_ones_mask_gives_full_coefficient_count(codec):
    cfg, enc, _ = codec
    r = _forced_mask_encode(enc, _images(2), 10.0, bias=50.0)
    assert np.all(r.mask.value == 1.0)
    assert r.e.coeffs.shape[1] == (cfg.f_s + cfg.f_n) * cfg.coeffs_per_channel
    assert bool(r.e.active.all())
    # CPP at the upper range endpoint
    got = cpp(r.mask.value, cfg.selective_symbols, cfg.nonselective_symbols, cfg.height, cfg.width)
    assert got == 0.5


def test_all_zeros_mask_hits_cpp_lower_bound(codec):
    cfg, enc, _ = codec
    r = _forced_mask_encode(enc, _images(2), 10.0, bias=-50.0)
    assert np.all(r.mask.value == 0.0)
    got = cpp(r.mask.value, cfg.selective_symbols, cfg.nonselective_symbols, cfg.height, cfg.width)
    assert got == cfg.nonselective_symbols / (2 * cfg.height * cfg.width) == 0.25
    # only g_n symbols active
    assert r.e.active[:, : cfg.f_s * cfg.symbols_per_channel].sum() == 0
    assert r.e.active[:, cfg.f_s * cfg.symbols_per_channel :].all()


def test_eval_encode_deterministic(codec):
    cfg, enc, _ = codec
    x = _images(3, seed=5)
    a = encode(enc, x, 7.0, mode="eval")
    b = encode(enc, x, 7.0, mode="eval")
    assert a.e.coeffs.value.tobytes() == b.e.coeffs.value.tobytes()
    assert np.array_equal(a.mask.value, b.mask.value)


def test_encode_rejects_bad_shape(codec):
    cfg, enc, _ = codec
    with pytest.raises(ShapeError):
        encode(enc, np.zeros((2, 3, 16, 16), dtype=np.float32), 5.0)


def test_masked_channel_identity(codec):
    # where m=1 the wire coefficients equal gamma * g_s; where m=0 they are 0
    cfg, enc, _ = codec
    r = encode(enc, _images(2, seed=9), 12.0, mode="eval")
    gamma = r.e.gamma.value  # (N, 1)
    coeffs = r.e.coeffs.value.reshape(2, cfg.f_s + cfg.f_n, cfg.coeffs_per_channel)
    gs = r.g_s.value.reshape(2, cfg.f_s, cfg.coeffs_per_channel)
    gn = r.g_n.value.reshape(2, cfg.f_n, cfg.coeffs_per_channel)
    for i in range(2):
        for c in range(cfg.f_s):
            if r.mask.value[i, c] == 1.0:
                np.testing.assert_allclose(coeffs[i, c], gamma[i, 0] * gs[i, c], rtol=1e-5)
            else:
                np.testing.assert_array_equal(coeffs[i, c], 0.0)
        np.testing.assert_allclose(coeffs[i, cfg.f_s :], gamma[i, 0] * gn[i], rtol=1e-5)


def test_policy_mask_eval_binary_and_saturation():
    tape = Tape()
    params = {
        "enc.policy.w1": np.zeros((3, 4), np.float32),
        "enc.policy.b1": np.zeros(4, np.float32),
        "enc.policy.w2": np.zeros((4, 2), np.float32),
        "enc.policy.b2": np.array([10.0, -10.0], np.float32),
    }
    stats = tape.leaf(np.zeros((1, 2), np.float32))
    m = policy_mask(tape, params, stats, snr_db=5.0, temperature=1.0, mode="eval")
    np.testing.assert_array_equal(m.value, [[1.0, 0.0]])
    assert set(np.unique(m.value)) <= {0.0, 1.0}


def test_policy_mask_train_gradient_reaches_mlp(codec):
    cfg, enc, _ = codec
    rng = np.random.default_rng(0)
    r = encode(enc, _images(4, seed=3), 8.0, mode="train", rng=rng, temperature=2.0)
    tape = r.tape
    # sum over the masked selective features: gradient must reach policy params
    s = tape.reduce_sum(r.e.coeffs)
    grads = tape.grad_by_name(s, names=["enc.policy.w1", "enc.policy.w2", "enc.policy.b2"])
    assert all(np.isfinite(g).all() for g in grads.values())
    assert any(np.abs(g).sum() > 0 for g in grads.values())


def test_policy_mask_train_needs_temperature_and_rng():
    tape = Tape()
    params = {
        "enc.policy.w1": np.zeros((3, 4), np.float32),
        "enc.policy.b1": np.zeros(4, np.float32),
        "enc.policy.w2": np.zeros((4, 2), np.float32),
        "enc.policy.b2": np.zeros(2, np.float32),
    }
    stats = tape.leaf(np.zeros((1, 2), np.float32))
    with pytest.raises(ValueError):
        policy_mask(tape, params, stats, 5.0, temperature=0.0, mode="train", rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        policy_mask(tape, params, stats, 5.0, temperature=1.0, mode="train", rng=None)


def test_decode_output_shape_and_range(codec):
    cfg, enc, dec = codec
    r = encode(enc, _images(3, seed=1), 6.0, mode="eval")
    ep = awgn_transmit(r.e, 6.0, np.random.default_rng(4))
    xp = decode(dec, ep, 6.0)
    assert xp.shape == (3, 3, 32, 32)
    assert xp.value.min() > 0.0 and xp.value.max() < 1.0  # sigmoid range


def test_decode_deterministic(codec):
    cfg, enc, dec = codec
    r = encode(enc, _images(2, seed=2), 9.0, mode="eval")
    ep = awgn_transmit(r.e, 9.0, np.random.default_rng(8))
    a = decode(dec, ep, 9.0)
    r2 = encode(enc, _images(2, seed=2), 9.0, mode="eval")
    ep2 = awgn_transmit(r2.e, 9.0, np.random.default_rng(8))
    b = decode(dec, ep2, 9.0)
    assert a.value.tobytes() == b.value.tobytes()


def test_decode_rejects_coefficient_count_mismatch(codec):
    cfg, enc, _ = codec
    small = CodecConfig(f_s=8, f_n=8)
    dec_small = init_decoder(small, 0)
    r = encode(enc, _images(1), 5.0, mode="eval")
    ep = awgn_transmit(r.e, 5.0, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="coefficient count"):
        decode(dec_small, ep, 5.0)


def test_snr_adapt_shape_and_bounds():
    rng = np.random.default_rng(0)
    tape = Tape()
    params = {
        "a.w1": rng.normal(size=(9, 8)).astype(np.float32),
        "a.b1": np.zeros(8, np.float32),
        "a.w2": rng.normal(size=(8, 8)).astype(np.float32),
        "a.b2": np.zeros(8, np.float32),
    }
    feats = tape.leaf(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
    out = snr_adapt(tape, params, "a", feats, snr_db=10.0)
    assert out.shape == feats.shape
    scales = out.value / np.where(feats.value == 0, 1, feats.value)
    finite = np.isfinite(scales) & (feats.value != 0)
    assert scales[finite].min() > 0.0 and scales[finite].max() < 1.0


def test_snr_adapt_depends_on_snr():
    rng = np.random.default_rng(1)
    tape = Tape()
    params = {
        "a.w1": rng.normal(size=(5, 4)).astype(np.float32),
        "a.b1": np.zeros(4, np.float32),
        "a.w2": rng.normal(size=(4, 4)).astype(np.float32),
        "a.b2": np.zeros(4, np.float32),
    }
    feats_arr = rng.normal(size=(1, 4, 2, 2)).astype(np.float32)
    out0 = snr_adapt(tape, params, "a", tape.leaf(feats_arr), snr_db=0.0)
    tape2 = Tape()
    out20 = snr_adapt(tape2, params, "a", tape2.leaf(feats_arr), snr_db=20.0)
    assert not np.allclose(out0.value, out20.value)


def test_cpp_always_inside_declared_range(codec):
    cfg, enc, dec = codec
    lo = cfg.nonselective_symbols / (2 * cfg.height * cfg.width)
    hi = (cfg.selective_symbols + cfg.nonselective_symbols) / (2 * cfg.height * cfg.width)
    rng = np.random.default_rng(5)
    for seed in range(4):
        r = encode(enc, _images(4, seed=seed), float(rng.uniform(0, 20)), mode="eval")
        got = cpp(r.mask.value, cfg.selective_symbols, cfg.nonselective_symbols, cfg.height, cfg.width)
        assert lo <= got <= hi


def test_end_to_end_gradients_finite_and_nonzero(codec):
    cfg, enc, dec = codec
    x = _images(4, seed=7)
    rng = np.random.default_rng(3)
    r = encode(enc, x, 9.0, mode="train", rng=rng, temperature=2.0)
    ep = awgn_transmit(r.e, 9.0, rng)
    xp = decode(dec, ep, 9.0)
    tape = r.tape
    diff = tape.add(xp, tape.scalar_mul(r.x, -1.0))
    loss = tape.reduce_mean(tape.mul(diff, diff))
    grads = tape.grad_by_name(loss)
    enc_names = [n for n in grads if n.startswith("enc.")]
    assert len(enc_names) == len(enc.params)
    for name in enc_names:
        assert np.isfinite(grads[name]).all(), name
    assert all(np.abs(grads[n]).sum() > 0 for n in enc_names if n.endswith(".w")), "zero grad on a weight"


# ---------------------------------------------------------------------------
# finite-difference oracle over the composed codec (64-bit)
# ---------------------------------------------------------------------------


def _sampled_fd_errors(params, names, loss_of, grads, rng):
    """Worst relative error per weight of tape gradients against central differences.

    `loss_of(params)` rebuilds the graph and returns the scalar loss; three
    sampled entries of each named weight are perturbed in place and restored.
    `grads` holds the tape gradients under the same names as `params`.
    """
    h = 1e-5
    errs = {}
    for name in names:
        w = params[name]
        for idx in rng.choice(w.size, size=3, replace=False):
            pos = np.unravel_index(idx, w.shape)
            orig = w[pos]
            w[pos] = orig + h
            fp = loss_of(params)
            w[pos] = orig - h
            fm = loss_of(params)
            w[pos] = orig
            fd = (fp - fm) / (2 * h)
            an = grads[name][pos]
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            errs[name] = max(errs.get(name, 0.0), err)
    return errs


def _float64(model):
    return type(model)(params={k: v.astype(np.float64) for k, v in model.params.items()}, config=model.config)


def test_composed_codec_decoder_gradients_match_finite_differences(codec):
    """Decoder conv and transposed-conv weights through encode, channel, decode.

    The third image is all black: a fresh encoder (zero biases, PReLU(0) = 0)
    sends it as all-zero coefficients with gamma = 1, and decoder weight
    perturbations keep that row at exactly zero.
    """
    cfg, enc, dec = codec
    enc, dec = _float64(enc), _float64(dec)
    x = np.concatenate([_images(2, seed=21), np.zeros((1, 3, 32, 32), np.float32)])
    snr = 7.0

    def mse(params):
        r = encode(enc, x, snr, mode="eval")  # float64 parameters: a float64 tape
        tape = r.tape
        ep = awgn_transmit(r.e, snr, np.random.default_rng(5))
        xh = decode(type(dec)(params=params, config=cfg), ep, snr)
        diff = tape.add(xh, tape.scalar_mul(r.x, -1.0))
        return tape, tape.reduce_mean(tape.mul(diff, diff)), r.e

    names = ["dec.dc0.w", "dec.dc1.w", "dec.ds0.w", "dec.ds1.w", "dec.ds2.w"]
    tape, loss, e = mse(dec.params)
    assert tape.dtype == np.float64
    assert not e.coeffs.value[2].any() and e.gamma.value[2, 0] == 1.0
    grads = tape.grad_by_name(loss, names=names)
    errs = _sampled_fd_errors(dec.params, names, lambda p: float(mse(p)[1].value), grads, np.random.default_rng(0))
    assert max(errs.values()) < 1e-4, errs


def test_composed_encoder_gradients_match_finite_differences(codec):
    """Encoder conv weights through the conv stack and its SNR adapters.

    The full encoder is not differenced: the straight-through mask passes
    gradient that a finite difference of the hard threshold cannot see.
    """
    cfg, enc, _ = codec
    enc = _float64(enc)
    x = _images(2, seed=22)
    weights = np.random.default_rng(1).uniform(0.5, 1.5, size=(2, cfg.f_s + cfg.f_n, *cfg.grid_hw))

    def score(params):
        tape = Tape(dtype=np.float64)
        feats = _encoder_features(tape, params, tape.leaf(x), 11.0)
        return tape, tape.reduce_sum(tape.mul(feats, tape.leaf(weights)))

    names = ["enc.es0.w", "enc.es1.w", "enc.es2.w", "enc.es3.w", "enc.ec0.w", "enc.ec1.w"]
    tape, out = score(enc.params)
    grads = tape.grad_by_name(out, names=names)
    errs = _sampled_fd_errors(enc.params, names, lambda p: float(score(p)[1].value), grads, np.random.default_rng(2))
    assert max(errs.values()) < 1e-4, errs
