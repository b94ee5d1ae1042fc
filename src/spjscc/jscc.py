"""The adaptive-rate codec: source/channel encoder, policy mask, decoder.

Encoder: four source-encoder convs (two stride-2) take 3xHxW to a feature
grid at H/4 x W/4, two channel-encoder convs emit F_s selective plus F_n
non-selective channels, and a small policy MLP turns pooled selective
statistics plus the SNR into a per-channel on/off mask. Masked selective
channels and the always-on non-selective channels are flattened to the
coefficient vector and power-normalized.

Decoder mirrors it: two convs, then two stride-2 transposed convs and a
final 3x3 projection with a sigmoid, so reconstructions live in (0, 1).

SNR-adaptive blocks (2-layer MLP over pooled features ++ snr/20, sigmoid
channel scales) sit after each encoder stage and inside the decoder, letting
one model cover the whole 0-20 dB range. Mask bits travel to the receiver as
error-free side information; they cost no channel uses.

During training the mask is a Gumbel-sigmoid sample, hard-thresholded on the
forward path with a straight-through gradient; at evaluation it is the
deterministic threshold of the policy logits; either way the mask is the
(N, f_s) Tensor of 0/1 gate bits.

Each layer is written once: `conv_params` (init) and `conv_layer` (forward)
from `numcore.layers`, shared with the classifier, for a 3x3 conv or
transposed conv with optional PReLU; `_mlp_params` and `_mlp` for the dense ->
ReLU -> dense over [pooled stats, snr/20] that the adapters and policy share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ComplexSymbolVector, normalize_power
from .numcore import ShapeError, Tape, Tensor
from .numcore.layers import conv_layer, conv_params, param

POLICY_HIDDEN = 32  # hidden units of the policy MLP


@dataclass
class CodecConfig:
    height: int = 32
    width: int = 32
    f_s: int = 16  # selective channels
    f_n: int = 16  # non-selective channels
    width_es: int = 32  # source encoder/decoder feature channels

    def __post_init__(self):
        if self.f_s < 1:
            raise ValueError(f"f_s must be >= 1, got {self.f_s}")
        if self.f_n < 0:
            raise ValueError(f"f_n must be >= 0, got {self.f_n}")
        if self.width_es < 2:
            raise ValueError(f"width_es must be >= 2 (dec.ds2 reads width_es // 2 channels), got {self.width_es}")
        if self.height % 4 or self.width % 4:
            raise ValueError(f"height/width must be divisible by 4, got {self.height}x{self.width}")
        if ((self.height // 4) * (self.width // 4)) % 2:
            raise ValueError(
                f"feature grid {self.height // 4}x{self.width // 4} has an odd cell count; "
                "coefficients could not pair into complex symbols"
            )

    @property
    def grid_hw(self) -> tuple[int, int]:
        return self.height // 4, self.width // 4

    @property
    def coeffs_per_channel(self) -> int:
        h, w = self.grid_hw
        return h * w

    @property
    def symbols_per_channel(self) -> int:
        return self.coeffs_per_channel // 2

    @property
    def selective_symbols(self) -> int:
        """L(g_s) in complex symbols."""
        return self.f_s * self.symbols_per_channel

    @property
    def nonselective_symbols(self) -> int:
        """L(g_n) in complex symbols."""
        return self.f_n * self.symbols_per_channel


@dataclass
class EncoderModel:
    params: dict[str, np.ndarray]  # keyed by tape name: "enc.es0.w", ...
    config: CodecConfig


@dataclass
class DecoderModel:
    params: dict[str, np.ndarray]  # keyed by tape name: "dec.dc0.w", ...
    config: CodecConfig


@dataclass
class EncodeResult:
    tape: Tape
    x: Tensor
    g_s: Tensor
    g_n: Tensor
    mask: Tensor  # (N, f_s) gate bits: hard 0/1 forward values, straight-through backward
    e: ComplexSymbolVector


def _mlp_params(rng, p, name, nin, hidden, nout):
    """Two dense layers `name`.w1/b1 (nin -> hidden) and `name`.w2/b2 (hidden -> nout), zero biases."""
    for i, (fan_in, fan_out) in enumerate(((nin, hidden), (hidden, nout)), start=1):
        p[f"{name}.w{i}"] = (rng.normal(size=(fan_in, fan_out)) * np.sqrt(1.0 / fan_in)).astype(np.float32)
        p[f"{name}.b{i}"] = np.zeros(fan_out, np.float32)


def init_encoder(config: CodecConfig, seed: int) -> EncoderModel:
    rng = np.random.default_rng(np.random.PCG64(seed))
    w = config.width_es
    p: dict[str, np.ndarray] = {}
    for i, cin in enumerate((3, w, w, w)):
        conv_params(rng, p, f"enc.es{i}", cin, w)
    _mlp_params(rng, p, "enc.adapt_es0", w + 1, w, w)
    _mlp_params(rng, p, "enc.adapt_es1", w + 1, w, w)
    conv_params(rng, p, "enc.ec0", w, w)
    _mlp_params(rng, p, "enc.adapt_ec", w + 1, w, w)
    conv_params(rng, p, "enc.ec1", w, config.f_s + config.f_n, prelu=False)
    _mlp_params(rng, p, "enc.policy", config.f_s + 1, POLICY_HIDDEN, config.f_s)
    # gates open by default; rate pressure (lambda > 0) has to close them
    p["enc.policy.b2"][:] = 2.0
    return EncoderModel(params=p, config=config)


def init_decoder(config: CodecConfig, seed: int) -> DecoderModel:
    rng = np.random.default_rng(np.random.PCG64(seed))
    w = config.width_es
    p: dict[str, np.ndarray] = {}
    conv_params(rng, p, "dec.dc0", config.f_s + config.f_n, w)
    _mlp_params(rng, p, "dec.adapt_dc", w + 1, w, w)
    conv_params(rng, p, "dec.dc1", w, w)
    conv_params(rng, p, "dec.ds0", w, w, transposed=True)
    _mlp_params(rng, p, "dec.adapt_ds", w + 1, w, w)
    conv_params(rng, p, "dec.ds1", w, w // 2, transposed=True)
    conv_params(rng, p, "dec.ds2", w // 2, 3, prelu=False)
    return DecoderModel(params=p, config=config)


def _mlp(tape: Tape, p: dict[str, np.ndarray], name: str, stats: Tensor, snr_db: float) -> Tensor:
    """dense -> ReLU -> dense over [stats, snr/20] with the `name`.w1/b1/w2/b2 parameters."""
    snr_col = tape.leaf(np.full((stats.shape[0], 1), snr_db / 20.0, dtype=np.float32))
    inp = tape.concat([stats, snr_col], axis=1)
    h = tape.relu(tape.dense(inp, param(tape, p, f"{name}.w1"), param(tape, p, f"{name}.b1")))
    return tape.dense(h, param(tape, p, f"{name}.w2"), param(tape, p, f"{name}.b2"))


def snr_adapt(tape: Tape, params: dict[str, np.ndarray], name: str, features: Tensor, snr_db: float) -> Tensor:
    """Rescale each channel by a sigmoid factor from (pooled features, snr)."""
    n, c = features.shape[0], features.shape[1]
    scale = tape.sigmoid(_mlp(tape, params, name, tape.reduce_mean(features, axis=(2, 3)), snr_db))
    return tape.mul(features, tape.reshape(scale, (n, c, 1, 1)))


def policy_mask(
    tape: Tape,
    params: dict[str, np.ndarray],
    gs_stats: Tensor,
    snr_db: float,
    temperature: float,
    mode: str,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Gate logits from (pooled g_s, snr) through the `enc.policy.*` MLP; sample or threshold into bits.

    Train mode draws logistic noise and applies a Gumbel-sigmoid at the given
    temperature, hard-thresholded at 0.5 with a straight-through gradient.
    Eval mode is the deterministic threshold sigmoid(logit) > 0.5. Returns the
    (N, f_s) mask, whose values are exactly 0 or 1.
    """
    logits = _mlp(tape, params, "enc.policy", gs_stats, snr_db)
    if mode == "train":
        if temperature <= 0:
            raise ValueError(f"train-mode temperature must be positive, got {temperature}")
        if rng is None:
            raise ValueError("train mode needs an rng for the Gumbel-sigmoid sample")
        u = rng.uniform(1e-7, 1.0 - 1e-7, size=logits.shape)
        gumbel = tape.leaf(np.log(u) - np.log1p(-u))
        soft = tape.sigmoid(tape.scalar_mul(tape.add(logits, gumbel), 1.0 / temperature))
    elif mode == "eval":
        soft = tape.sigmoid(logits)
    else:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return tape.ste_threshold(soft)


def _encoder_features(tape, params, x, snr_db):
    h = conv_layer(tape, params, "enc.es0", x, stride=2)
    h = snr_adapt(tape, params, "enc.adapt_es0", h, snr_db)
    h = conv_layer(tape, params, "enc.es1", h)
    h = conv_layer(tape, params, "enc.es2", h)
    h = conv_layer(tape, params, "enc.es3", h, stride=2)
    h = snr_adapt(tape, params, "enc.adapt_es1", h, snr_db)
    h = conv_layer(tape, params, "enc.ec0", h)
    h = snr_adapt(tape, params, "enc.adapt_ec", h, snr_db)
    return conv_layer(tape, params, "enc.ec1", h)


def encode(
    encoder: EncoderModel,
    x: np.ndarray,
    snr_db: float,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    temperature: float = 1.0,
) -> EncodeResult:
    """x -> masked selective + non-selective features -> unit-power symbols.

    The coefficient vector is the row-major flattening of the concatenated
    (g_s * m, g_n) grid; pairs (2k, 2k+1) form complex symbol k, so each
    feature channel contributes grid_h*grid_w/2 symbols. Symbols of a masked
    selective channel are marked inactive and carry no energy. The tape
    computes in the dtype of the encoder parameters.
    """
    cfg = encoder.config
    x = np.asarray(x, dtype=np.float32)
    if x.shape[1:] != (3, cfg.height, cfg.width):
        raise ShapeError(f"encoder expects (N, 3, {cfg.height}, {cfg.width}), got {x.shape}")
    n = x.shape[0]
    tape = Tape(dtype=encoder.params["enc.es0.w"].dtype)
    xt = tape.leaf(x)

    feats = _encoder_features(tape, encoder.params, xt, snr_db)
    g_s = tape.slice(feats, axis=1, start=0, stop=cfg.f_s)
    g_n = tape.slice(feats, axis=1, start=cfg.f_s, stop=cfg.f_s + cfg.f_n)

    gs_stats = tape.reduce_mean(g_s, axis=(2, 3))
    mask = policy_mask(tape, encoder.params, gs_stats, snr_db, temperature, mode, rng)

    masked_gs = tape.mul(g_s, tape.reshape(mask, (n, cfg.f_s, 1, 1)))
    wire = tape.concat([masked_gs, g_n], axis=1)
    flat = tape.reshape(wire, (n, (cfg.f_s + cfg.f_n) * cfg.coeffs_per_channel))

    spc = cfg.symbols_per_channel
    active = np.concatenate(
        [
            np.repeat(mask.value.astype(bool), spc, axis=1),
            np.ones((n, cfg.f_n * spc), dtype=bool),
        ],
        axis=1,
    )
    e = normalize_power(flat, active)
    return EncodeResult(tape=tape, x=xt, g_s=g_s, g_n=g_n, mask=mask, e=e)


def decode(decoder: DecoderModel, e_prime: ComplexSymbolVector, snr_db: float) -> Tensor:
    """Received symbols -> image in (0, 1)^(N,3,H,W).

    The recorded transmit scale is inverted first. Masked-off selective
    positions arrive as zero (they were never transmitted), so the decoder
    needs no mask, only shape restoration.
    """
    cfg = decoder.config
    tape = e_prime.coeffs.tape
    n, width = e_prime.coeffs.shape
    expect = (cfg.f_s + cfg.f_n) * cfg.coeffs_per_channel
    if width != expect:
        raise ShapeError(f"coefficient count {width} does not match codec config ({expect})")

    d = tape.mul(e_prime.coeffs, tape.reciprocal(e_prime.gamma))
    gh, gw = cfg.grid_hw
    h = tape.reshape(d, (n, cfg.f_s + cfg.f_n, gh, gw))

    p = decoder.params
    h = conv_layer(tape, p, "dec.dc0", h)
    h = snr_adapt(tape, p, "dec.adapt_dc", h, snr_db)
    h = conv_layer(tape, p, "dec.dc1", h)
    h = conv_layer(tape, p, "dec.ds0", h, stride=2, op="tconv2d")
    h = snr_adapt(tape, p, "dec.adapt_ds", h, snr_db)
    h = conv_layer(tape, p, "dec.ds1", h, stride=2, op="tconv2d")
    return tape.sigmoid(conv_layer(tape, p, "dec.ds2", h))
