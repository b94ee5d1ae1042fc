"""The results CSV, and deterministic SVG plots from it (no plotting dependency).

A results CSV is its provenance line (`checkpoint.meta_line`), a header and
one row per (loss mode, SNR, seed) cell, each an EvalReport whose `run_id`
is the loss mode. One SVG per metric: the metric's per-SNR mean over seeds
(`metrics.mean_over_seeds`, as `compare` prints it) on the y axis, SNR in dB
on the x axis, one polyline per loss mode. Identical CSV input produces
byte-identical SVG output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..metrics import CELL_METRICS, EvalReport, mean_over_seeds
from .checkpoint import StaleArtifactError, check_meta, meta_line
from .config import snr_as_written

_NUMERIC = {"snr_db": float, "seed": int, **dict.fromkeys(CELL_METRICS, float)}
RESULTS_COLUMNS = ("loss_mode", *_NUMERIC)
# the header before each file recorded its mode once: such a file is stale, not damaged
_RUN_ID_HEADER = ",".join(("run_id", *RESULTS_COLUMNS))
PLOT_METRICS = ("acc", "f1", "psnr_db", "ssim", "cpp")
_MODE_COLORS = {"sp": "#c23b22", "mse": "#1f5fa8"}

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 50


class PlotError(ValueError):
    """Results CSV missing, empty, with another header, or with a malformed row."""


def write_results_csv(path: str | Path, reports: list[EvalReport], meta: dict[str, str]) -> None:
    """One row per report, its `run_id` (sp or mse) as the loss_mode; `meta` is the provenance the first line records."""
    lines = [meta_line(meta), ",".join(RESULTS_COLUMNS)]
    for r in reports:
        metrics = (f"{getattr(r, m):.9g}" for m in CELL_METRICS)
        lines.append(",".join([r.run_id, snr_as_written(r.snr_db), str(r.seed), *metrics]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_results_csv(path: str | Path, expected_meta: dict[str, str] | None = None) -> list[EvalReport]:
    """The EvalReports `write_results_csv` wrote, laid out as it lays them out.

    A file with the earlier `run_id,loss_mode,…` header is stale
    (StaleArtifactError names the file and both headers). Otherwise a file
    without its header and a data row, or with a row that lacks a column, has
    a loss mode other than sp or mse, or a numeric field that does not parse
    or is not finite, is damaged: PlotError names the file and line. Only
    then, one whose first line does not record `expected_meta` is stale.
    """
    lines = Path(path).read_text().splitlines()
    header = ",".join(RESULTS_COLUMNS)
    if len(lines) < 2:
        raise PlotError(f"{path}: empty results file")
    if lines[1] == _RUN_ID_HEADER:
        raise StaleArtifactError(f"{path}: header differs (artifact has {lines[1]!r}, expected {header!r})")
    if lines[1] != header:
        raise PlotError(f"{path}: line 2: header is not {header}")
    if len(lines) < 3:
        raise PlotError(f"{path}: no data rows")
    reports = []
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split(",")
        if len(fields) != len(RESULTS_COLUMNS):
            raise PlotError(f"{path}: line {lineno}: {len(fields)} fields, expected {len(RESULTS_COLUMNS)}")
        mode, *numbers = fields
        if mode not in _MODE_COLORS:
            raise PlotError(f"{path}: line {lineno}: loss_mode {mode!r} is not sp or mse")
        row = {}
        for (col, parse), field in zip(_NUMERIC.items(), numbers):
            try:
                row[col] = parse(field)
            except ValueError as exc:
                raise PlotError(f"{path}: line {lineno}: bad {col}: {exc}") from None
            if not math.isfinite(row[col]):
                raise PlotError(f"{path}: line {lineno}: bad {col}: {row[col]} is not finite")
        reports.append(EvalReport(run_id=mode, **row))
    try:
        recorded = json.loads(lines[0].removeprefix("# "))
    except (ValueError, RecursionError):  # a hand-edited line nested past the parser's depth is no object either
        recorded = None
    check_meta(path, recorded if isinstance(recorded, dict) else {}, expected_meta)
    return reports


def _ticks(lo, hi, n=5):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _svg_for_metric(metric, series):
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
    for i, (mode, pts) in enumerate(series.items()):
        color = _MODE_COLORS[mode]
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


def emit_plots(results_csv: str | Path, out_dir: str | Path, expected_meta: dict[str, str]) -> list[Path]:
    """Write one SVG per metric from a results CSV that records `expected_meta`; returns the paths written."""
    reports = read_results_csv(results_csv, expected_meta)
    means = {mode: mean_over_seeds([r for r in reports if r.run_id == mode]) for mode in sorted({r.run_id for r in reports})}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for metric in PLOT_METRICS:
        series = {mode: [(snr, m[metric]) for snr, m in by_snr.items()] for mode, by_snr in means.items()}
        path = out_dir / f"{metric}.svg"
        path.write_text(_svg_for_metric(metric, series), encoding="ascii")
        written.append(path)
    return written
