"""Deterministic SVG plots from the results CSV (no plotting dependency).

One file per metric: the metric's per-SNR mean (over seeds) on the y axis,
SNR in dB on the x axis, one polyline per loss mode. Identical CSV input
produces byte-identical SVG output.
"""

from __future__ import annotations

import csv
from pathlib import Path

RESULTS_COLUMNS = ("run_id", "loss_mode", "snr_db", "seed", "cpp", "acc", "f1", "psnr_db", "ssim")
_NUMERIC = {"snr_db": float, "seed": int, "cpp": float, "acc": float, "f1": float, "psnr_db": float, "ssim": float}
PLOT_METRICS = ("acc", "f1", "psnr_db", "ssim", "cpp")
_MODE_COLORS = {"sp": "#c23b22", "mse": "#1f5fa8"}
_FALLBACK_COLORS = ("#2a9d3f", "#8448a8", "#b8860b")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 50


class PlotError(ValueError):
    """Results CSV missing, empty, lacking a required column, or with a malformed row."""


def read_results_csv(path: str | Path):
    """Rows of the results CSV as dicts, numeric columns parsed; `#` comment lines are skipped.

    A row without every column, or with a numeric field that does not parse,
    raises PlotError naming the file and the line.
    """
    lines = Path(path).read_text().splitlines()
    numbered = [(i, l) for i, l in enumerate(lines, start=1) if l and not l.startswith("#")]
    if not numbered:
        raise PlotError(f"{path}: empty results file")
    header, *body = csv.reader(l for _, l in numbered)
    for col in RESULTS_COLUMNS:
        if col not in header:
            raise PlotError(f"{path}: missing column {col!r}")
    if not body:
        raise PlotError(f"{path}: no data rows")
    rows = []
    for (lineno, _), fields in zip(numbered[1:], body):
        if len(fields) != len(header):
            raise PlotError(f"{path}: line {lineno}: {len(fields)} fields, expected {len(header)}")
        row = dict(zip(header, fields))
        for col, parse in _NUMERIC.items():
            try:
                row[col] = parse(row[col])
            except ValueError as exc:
                raise PlotError(f"{path}: line {lineno}: bad {col}: {exc}") from None
        rows.append(row)
    return rows


def _series(rows, metric):
    """mode -> [(snr, mean metric over seeds)] sorted by snr."""
    acc: dict[str, dict[float, list[float]]] = {}
    for row in rows:
        mode = row["loss_mode"]
        acc.setdefault(mode, {}).setdefault(row["snr_db"], []).append(row[metric])
    return {
        mode: [(snr, sum(vals) / len(vals)) for snr, vals in sorted(by_snr.items())]
        for mode, by_snr in sorted(acc.items())
    }


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _svg_for_metric(metric, series, config_hash):
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pad = (max(ys) - min(ys)) * 0.08 or max(abs(max(ys)) * 0.05, 0.05)
    y_lo, y_hi = min(ys) - pad, max(ys) + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f"<!-- config_hash={config_hash} -->",
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="monospace" font-size="16">{metric} vs SNR</text>',
        # axes
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-family="monospace" font-size="13">snr_db</text>',
        f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" font-family="monospace" font-size="13" transform="rotate(-90 18 {_H / 2:.1f})">{metric}</text>',
    ]
    for x in xs:
        out.append(f'<line x1="{px(x):.2f}" y1="{_H - _MB}" x2="{px(x):.2f}" y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px(x):.2f}" y="{_H - _MB + 18}" text-anchor="middle" font-family="monospace" font-size="11">{x:g}</text>'
        )
    for y in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{_ML - 5}" y1="{py(y):.2f}" x2="{_ML}" y2="{py(y):.2f}" stroke="black"/>')
        out.append(
            f'<text x="{_ML - 9}" y="{py(y):.2f}" text-anchor="end" dominant-baseline="middle" font-family="monospace" font-size="11">{y:.4g}</text>'
        )
    fallback = iter(_FALLBACK_COLORS)
    for i, (mode, pts) in enumerate(series.items()):
        color = _MODE_COLORS.get(mode) or next(fallback)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = _MT + 14 + 18 * i
        out.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 90}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{_W - _MR - 84}" y="{ly + 4}" font-family="monospace" font-size="12">{mode}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plots(results_csv: str | Path, out_dir: str | Path, config_hash: str) -> list[Path]:
    """Write one SVG per metric; returns the paths written."""
    rows = read_results_csv(results_csv)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for metric in PLOT_METRICS:
        series = _series(rows, metric)
        path = out_dir / f"{metric}.svg"
        path.write_text(_svg_for_metric(metric, series, config_hash), encoding="ascii")
        written.append(path)
    return written
