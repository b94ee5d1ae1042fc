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
deterministic threshold of the policy logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ComplexSymbolVector, normalize_power
from .numcore import ShapeError, Tape, Tensor


@dataclass
class CodecConfig:
    height: int = 32
    width: int = 32
    f_s: int = 16  # selective channels
    f_n: int = 16  # non-selective channels
    width_es: int = 32  # source encoder/decoder feature channels
    policy_hidden: int = 32

    def __post_init__(self):
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
class RateMask:
    """Per-selective-channel gate; evaluation values are exactly 0 or 1."""

    node: Tensor  # (N, f_s) hard forward values, straight-through backward

    @property
    def hard(self) -> np.ndarray:
        return self.node.value

    def active_fraction(self) -> float:
        return float(self.node.value.mean())


@dataclass
class EncodeResult:
    tape: Tape
    x: Tensor
    g_s: Tensor
    g_n: Tensor
    mask: RateMask
    e: ComplexSymbolVector
    snr_db: float


def _conv_init(rng, cout, cin, k=3):
    fan_in = cin * k * k
    return (rng.normal(size=(cout, cin, k, k)) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def _tconv_init(rng, cin, cout, k=3):
    fan_in = cin * k * k
    return (rng.normal(size=(cin, cout, k, k)) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def _dense_init(rng, nin, nout):
    return (rng.normal(size=(nin, nout)) * np.sqrt(1.0 / nin)).astype(np.float32)


def _adapter_params(rng, p, name, channels):
    p[f"{name}.w1"] = _dense_init(rng, channels + 1, channels)
    p[f"{name}.b1"] = np.zeros(channels, np.float32)
    p[f"{name}.w2"] = _dense_init(rng, channels, channels)
    p[f"{name}.b2"] = np.zeros(channels, np.float32)


def init_encoder(config: CodecConfig, seed: int) -> EncoderModel:
    rng = np.random.default_rng(np.random.PCG64(seed))
    w = config.width_es
    p: dict[str, np.ndarray] = {}
    for i, (cin, cout, _stride) in enumerate(
        [(3, w, 2), (w, w, 1), (w, w, 1), (w, w, 2)]
    ):
        p[f"enc.es{i}.w"] = _conv_init(rng, cout, cin)
        p[f"enc.es{i}.b"] = np.zeros(cout, np.float32)
        p[f"enc.es{i}.slope"] = np.full(cout, 0.25, np.float32)
    _adapter_params(rng, p, "enc.adapt_es0", w)
    _adapter_params(rng, p, "enc.adapt_es1", w)
    p["enc.ec0.w"] = _conv_init(rng, w, w)
    p["enc.ec0.b"] = np.zeros(w, np.float32)
    p["enc.ec0.slope"] = np.full(w, 0.25, np.float32)
    _adapter_params(rng, p, "enc.adapt_ec", w)
    p["enc.ec1.w"] = _conv_init(rng, config.f_s + config.f_n, w)
    p["enc.ec1.b"] = np.zeros(config.f_s + config.f_n, np.float32)
    p["enc.policy.w1"] = _dense_init(rng, config.f_s + 1, config.policy_hidden)
    p["enc.policy.b1"] = np.zeros(config.policy_hidden, np.float32)
    p["enc.policy.w2"] = _dense_init(rng, config.policy_hidden, config.f_s)
    # gates open by default; rate pressure (lambda > 0) has to close them
    p["enc.policy.b2"] = np.full(config.f_s, 2.0, np.float32)
    return EncoderModel(params=p, config=config)


def init_decoder(config: CodecConfig, seed: int) -> DecoderModel:
    rng = np.random.default_rng(np.random.PCG64(seed))
    w = config.width_es
    p: dict[str, np.ndarray] = {}
    p["dec.dc0.w"] = _conv_init(rng, w, config.f_s + config.f_n)
    p["dec.dc0.b"] = np.zeros(w, np.float32)
    p["dec.dc0.slope"] = np.full(w, 0.25, np.float32)
    _adapter_params(rng, p, "dec.adapt_dc", w)
    p["dec.dc1.w"] = _conv_init(rng, w, w)
    p["dec.dc1.b"] = np.zeros(w, np.float32)
    p["dec.dc1.slope"] = np.full(w, 0.25, np.float32)
    p["dec.ds0.w"] = _tconv_init(rng, w, w)
    p["dec.ds0.b"] = np.zeros(w, np.float32)
    p["dec.ds0.slope"] = np.full(w, 0.25, np.float32)
    _adapter_params(rng, p, "dec.adapt_ds", w)
    p["dec.ds1.w"] = _tconv_init(rng, w, w // 2)
    p["dec.ds1.b"] = np.zeros(w // 2, np.float32)
    p["dec.ds1.slope"] = np.full(w // 2, 0.25, np.float32)
    p["dec.ds2.w"] = _conv_init(rng, 3, w // 2)
    p["dec.ds2.b"] = np.zeros(3, np.float32)
    return DecoderModel(params=p, config=config)


def _param(tape, params, name):
    if name in tape.params:
        return Tensor(tape, tape.params[name])
    return tape.parameter(name, params[name])


def snr_adapt(tape: Tape, params: dict[str, np.ndarray], name: str, features: Tensor, snr_db: float) -> Tensor:
    """Rescale each channel by a sigmoid factor from (pooled features, snr)."""
    n, c = features.shape[0], features.shape[1]
    pooled = tape.global_mean_pool(features)
    snr_col = tape.leaf(np.full((n, 1), snr_db / 20.0, dtype=np.float32))
    inp = tape.concat([pooled, snr_col], axis=1)
    h = tape.relu(tape.dense(inp, _param(tape, params, f"{name}.w1"), _param(tape, params, f"{name}.b1")))
    scale = tape.sigmoid(tape.dense(h, _param(tape, params, f"{name}.w2"), _param(tape, params, f"{name}.b2")))
    scale4 = tape.reshape(scale, (n, c, 1, 1))
    return tape.mul(features, scale4)


def policy_mask(
    tape: Tape,
    params: dict[str, np.ndarray],
    gs_stats: Tensor,
    snr_db: float,
    temperature: float,
    mode: str,
    rng: np.random.Generator | None = None,
) -> RateMask:
    """Gate logits from (pooled g_s, snr) through the `enc.policy.*` MLP; sample or threshold into bits.

    Train mode draws logistic noise and applies a Gumbel-sigmoid at the given
    temperature, hard-thresholded at 0.5 with a straight-through gradient.
    Eval mode is the deterministic threshold sigmoid(logit) > 0.5.
    """
    n = gs_stats.shape[0]
    snr_col = tape.leaf(np.full((n, 1), snr_db / 20.0, dtype=np.float32))
    inp = tape.concat([gs_stats, snr_col], axis=1)
    h = tape.relu(tape.dense(inp, _param(tape, params, "enc.policy.w1"), _param(tape, params, "enc.policy.b1")))
    logits = tape.dense(h, _param(tape, params, "enc.policy.w2"), _param(tape, params, "enc.policy.b2"))
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
    return RateMask(node=tape.ste_threshold(soft, 0.5))


def _encoder_features(tape, params, x, snr_db):
    h = x
    strides = (2, 1, 1, 2)
    for i in range(4):
        h = tape.prelu(
            tape.conv2d(h, _param(tape, params, f"enc.es{i}.w"), _param(tape, params, f"enc.es{i}.b"), stride=strides[i]),
            _param(tape, params, f"enc.es{i}.slope"),
        )
        if i == 0:
            h = snr_adapt(tape, params, "enc.adapt_es0", h, snr_db)
    h = snr_adapt(tape, params, "enc.adapt_es1", h, snr_db)
    h = tape.prelu(
        tape.conv2d(h, _param(tape, params, "enc.ec0.w"), _param(tape, params, "enc.ec0.b"), stride=1),
        _param(tape, params, "enc.ec0.slope"),
    )
    h = snr_adapt(tape, params, "enc.adapt_ec", h, snr_db)
    return tape.conv2d(h, _param(tape, params, "enc.ec1.w"), _param(tape, params, "enc.ec1.b"), stride=1)


def encode(
    encoder: EncoderModel,
    x: np.ndarray | Tensor,
    snr_db: float,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    temperature: float = 1.0,
    tape: Tape | None = None,
) -> EncodeResult:
    """x -> masked selective + non-selective features -> unit-power symbols.

    The coefficient vector is the row-major flattening of the concatenated
    (g_s * m, g_n) grid; pairs (2k, 2k+1) form complex symbol k, so each
    feature channel contributes grid_h*grid_w/2 symbols. Symbols of a masked
    selective channel are marked inactive and carry no energy.
    """
    cfg = encoder.config
    if tape is None:
        tape = Tape()
    if isinstance(x, Tensor):
        xt = x
    else:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 3:
            x = x[None]
        xt = tape.leaf(x)
    if xt.shape[1:] != (3, cfg.height, cfg.width):
        raise ShapeError(f"encoder expects (N, 3, {cfg.height}, {cfg.width}), got {xt.shape}")
    n = xt.shape[0]

    feats = _encoder_features(tape, encoder.params, xt, snr_db)
    g_s = tape.slice(feats, axis=1, start=0, stop=cfg.f_s)
    g_n = tape.slice(feats, axis=1, start=cfg.f_s, stop=cfg.f_s + cfg.f_n)

    gs_stats = tape.global_mean_pool(g_s)
    mask = policy_mask(tape, encoder.params, gs_stats, snr_db, temperature, mode, rng)

    mask4 = tape.reshape(mask.node, (n, cfg.f_s, 1, 1))
    masked_gs = tape.mul(g_s, mask4)
    wire = tape.concat([masked_gs, g_n], axis=1)
    flat = tape.reshape(wire, (n, (cfg.f_s + cfg.f_n) * cfg.coeffs_per_channel))

    spc = cfg.symbols_per_channel
    active = np.concatenate(
        [
            np.repeat(mask.hard.astype(bool), spc, axis=1),
            np.ones((n, cfg.f_n * spc), dtype=bool),
        ],
        axis=1,
    )
    e = normalize_power(flat, active)
    return EncodeResult(tape=tape, x=xt, g_s=g_s, g_n=g_n, mask=mask, e=e, snr_db=snr_db)


def decode(decoder: DecoderModel, e_prime: ComplexSymbolVector, mask: RateMask, snr_db: float) -> Tensor:
    """Received symbols -> image in (0, 1)^(N,3,H,W).

    The recorded transmit scale is inverted first; masked-off selective
    positions are zero (they were never transmitted) and the mask itself is
    receiver side information, so no extra filling is needed beyond shape
    restoration.
    """
    cfg = decoder.config
    tape = e_prime.coeffs.tape
    n, width = e_prime.coeffs.shape
    expect = (cfg.f_s + cfg.f_n) * cfg.coeffs_per_channel
    if width != expect:
        raise ShapeError(f"coefficient count {width} does not match codec config ({expect})")
    if mask.hard.shape != (n, cfg.f_s):
        raise ShapeError(f"mask shape {mask.hard.shape} does not match (batch, f_s)=({n}, {cfg.f_s})")

    d = e_prime.coeffs
    if e_prime.gamma is not None:
        d = tape.mul(d, tape.reciprocal(e_prime.gamma))
    gh, gw = cfg.grid_hw
    h = tape.reshape(d, (n, cfg.f_s + cfg.f_n, gh, gw))

    p = decoder.params
    h = tape.prelu(tape.conv2d(h, _param(tape, p, "dec.dc0.w"), _param(tape, p, "dec.dc0.b"), stride=1), _param(tape, p, "dec.dc0.slope"))
    h = snr_adapt(tape, p, "dec.adapt_dc", h, snr_db)
    h = tape.prelu(tape.conv2d(h, _param(tape, p, "dec.dc1.w"), _param(tape, p, "dec.dc1.b"), stride=1), _param(tape, p, "dec.dc1.slope"))
    h = tape.prelu(tape.tconv2d(h, _param(tape, p, "dec.ds0.w"), _param(tape, p, "dec.ds0.b"), stride=2), _param(tape, p, "dec.ds0.slope"))
    h = snr_adapt(tape, p, "dec.adapt_ds", h, snr_db)
    h = tape.prelu(tape.tconv2d(h, _param(tape, p, "dec.ds1.w"), _param(tape, p, "dec.ds1.b"), stride=2), _param(tape, p, "dec.ds1.slope"))
    return tape.sigmoid(tape.conv2d(h, _param(tape, p, "dec.ds2.w"), _param(tape, p, "dec.ds2.b"), stride=1))
