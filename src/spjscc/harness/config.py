"""Flat key=value experiment configuration with a fixed schema.

Files hold `section.key = value` lines; `#` starts a comment. Unknown keys
and malformed values are rejected. The config hash (sha256 of the canonical
key-sorted rendering) is stamped into every artifact produced from it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Unknown key, bad value, or unreadable config file."""


def _snr(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"SNR must be finite, got {raw.strip()!r}")
    return val


def _nonempty_list(parse):
    """Parser for a comma-separated list of `parse` values, at least one."""

    def parse_list(raw: str):
        vals = [parse(v) for v in raw.split(",") if v.strip() != ""]
        if not vals:
            raise ValueError("empty list")
        return vals

    return parse_list


# key -> (parser, default)
SCHEMA = {
    "dataset.kind": (str, "synthetic"),  # synthetic | cifar10
    "dataset.path": (str, ""),  # directory of CIFAR-10 binary batches
    "dataset.seed": (int, 7),
    "dataset.train_count": (int, 2000),
    "dataset.test_count": (int, 500),
    "dataset.height": (int, 32),
    "dataset.width": (int, 32),
    "classifier.epochs": (int, 20),
    "classifier.lr": (float, 2e-3),
    "classifier.batch": (int, 32),
    "classifier.seed": (int, 1),
    "codec.f_s": (int, 16),
    "codec.f_n": (int, 16),
    "codec.width": (int, 32),
    "train.lambda_rate": (float, 0.0),
    "train.epochs": (int, 15),
    "train.batch": (int, 32),
    "train.lr": (float, 1e-3),
    "train.seed": (int, 3),
    "train.snr_low": (_snr, 0.0),
    "train.snr_high": (_snr, 20.0),
    "train.temp_start": (float, 5.0),
    "train.temp_end": (float, 0.5),
    "train.patience": (int, 5),
    "eval.snr_grid": (_nonempty_list(_snr), (0.0, 5.0, 10.0, 15.0, 20.0)),
    "eval.seeds": (_nonempty_list(int), (101, 102, 103, 104, 105)),
}


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical(self) -> str:
        lines = []
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, (list, tuple)):
                v = ",".join(str(x) for x in v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    values = {k: (list(d) if isinstance(d, tuple) and not isinstance(d, str) else d) for k, (_, d) in SCHEMA.items()}
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
    return ExperimentConfig(values=values)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def default_config() -> ExperimentConfig:
    return parse_config("")
