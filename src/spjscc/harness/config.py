"""Flat key=value experiment configuration with a fixed schema.

Files hold `section.key = value` lines; `#` starts a comment. Unknown keys,
malformed values, a key set on two lines, and keys that only the synthetic
shapes read written beside a `dataset.path` are rejected. Each artifact
records the values of the keys it was built from (`cli._RECORDED_KEYS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Unknown key, bad value, or unreadable config file."""


def _snr(raw: str) -> float:
    """A finite SNR in dB within ±100 dB, where float32 channel noise stays above rounding."""
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"SNR must be finite, got {raw.strip()!r}")
    if abs(val) > 100.0:
        raise ValueError(f"SNR must be within ±100 dB, got {raw.strip()!r}")
    return val + 0.0  # -0.0 as 0.0: numpy's uniform(0.0, -0.0) refuses a high below its low


def _at_least(low: int):
    """Parser for an integer >= `low`: a count, epoch or batch size, channel count or seed."""

    def parse(raw: str) -> int:
        val = int(raw)
        if val < low:
            raise ValueError(f"must be >= {low}, got {val}")
        return val

    return parse


# float32's largest finite value: the stages compute in float32, where a larger
# learning rate or rate weight overflows at the first step
_FLOAT32_MAX = 3.4028234663852886e38


def _real_up_to_f32(zero_ok: bool):
    """Parser for a real above 0 (>= 0 if `zero_ok`) and finite in float32: a temperature or rate weight."""
    bound = ">= 0" if zero_ok else "above 0"

    def parse(raw: str) -> float:
        val = float(raw)
        if not ((val >= 0 if zero_ok else val > 0) and val <= _FLOAT32_MAX):
            raise ValueError(f"must be {bound} and finite in float32, got {raw.strip()!r}")
        return val

    return parse


def _learning_rate(raw: str) -> float:
    """A learning rate in (0, 1]: Adam moves every parameter by up to about lr per step, and the initial weights are at most ~0.3."""
    val = float(raw)
    if not 0 < val <= 1:
        raise ValueError(f"must be above 0 and at most 1, got {raw.strip()!r}")
    return val


def _image_side(raw: str) -> int:
    """An image height or width: three 2x2 pools in the classifier need a multiple of 8, and the synthetic shapes 16 pixels."""
    val = int(raw)
    if val < 16 or val % 8:
        raise ValueError(f"must be a multiple of 8 and at least 16, got {val}")
    return val


def snr_as_written(snr_db: float) -> str:
    """An SNR as a results CSV records it, to 6 significant digits: grid entries written alike would be one plotted point."""
    return f"{snr_db:.6g}"


def _nonempty_list(parse, written=str):
    """Parser for a comma-separated list of `parse` values, at least one, no two `written` alike."""

    def parse_list(raw: str):
        vals = [parse(v) for v in raw.split(",") if v.strip() != ""]
        if not vals:
            raise ValueError("empty list")
        seen = [written(v) for v in vals]
        for i, w in enumerate(seen):
            if w in seen[:i]:
                raise ValueError(f"must be distinct, got {w} twice")
        return vals

    return parse_list


# key -> (parser, default)
SCHEMA = {
    "dataset.path": (str, ""),  # directory of CIFAR-10 binary batches; empty: the synthetic shapes
    "dataset.seed": (_at_least(0), 7),
    "dataset.train_count": (_at_least(10), 2000),
    "dataset.test_count": (_at_least(10), 500),
    "dataset.height": (_image_side, 32),
    "dataset.width": (_image_side, 32),
    "classifier.epochs": (_at_least(1), 20),
    "classifier.lr": (_learning_rate, 2e-3),
    "classifier.batch": (_at_least(1), 32),
    "classifier.seed": (_at_least(0), 1),
    "codec.f_s": (_at_least(1), 16),
    "codec.f_n": (_at_least(1), 16),  # the non-selective part is always sent: see CodecConfig
    "codec.width": (_at_least(2), 32),
    "train.lambda_rate": (_real_up_to_f32(zero_ok=True), 0.0),
    "train.epochs": (_at_least(1), 15),
    "train.batch": (_at_least(1), 32),
    "train.lr": (_learning_rate, 1e-3),
    "train.seed": (_at_least(0), 3),
    "train.snr_low": (_snr, 0.0),
    "train.snr_high": (_snr, 20.0),
    "train.temp_start": (_real_up_to_f32(zero_ok=False), 5.0),
    "train.temp_end": (_real_up_to_f32(zero_ok=False), 0.5),
    "train.patience": (_at_least(1), 5),
    "eval.snr_grid": (_nonempty_list(_snr, snr_as_written), (0.0, 5.0, 10.0, 15.0, 20.0)),
    "eval.seeds": (_nonempty_list(_at_least(0)), (101, 102, 103, 104, 105)),
}

# read by the synthetic shapes only; so beside a dataset.path they keep their defaults, 32x32 as in CIFAR-10
_SHAPES_ONLY = ("dataset.seed", "dataset.train_count", "dataset.test_count", "dataset.height", "dataset.width")


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def section(self, name: str) -> dict:
        """The `name.*` values keyed by what follows the dot, e.g. {"epochs": 20, ...} for "classifier"."""
        return {k.partition(".")[2]: v for k, v in self.values.items() if k.startswith(name + ".")}


def parse_config(text: str) -> ExperimentConfig:
    values = {k: (list(d) if isinstance(d, tuple) and not isinstance(d, str) else d) for k, (_, d) in SCHEMA.items()}
    written = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
        if key in written:
            raise ConfigError(f"line {lineno}: {key} is already set on line {written[key]}")
        written[key] = lineno
    if values["dataset.path"]:
        for key in _SHAPES_ONLY:
            if key in written:
                raise ConfigError(f"line {written[key]}: {key} is read only by the synthetic shapes, not beside dataset.path")
    low, high = values["train.snr_low"], values["train.snr_high"]
    if low > high:
        raise ConfigError(f"train.snr_low {low:g} is above train.snr_high {high:g}")
    return ExperimentConfig(values=values)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
