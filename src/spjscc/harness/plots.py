"""The results CSV, and deterministic SVG plots from it (no plotting dependency).

A results CSV starts with its provenance line (`checkpoint.meta_line`), then
a header and one row per (loss mode, SNR, seed) cell; it is read back as the
(loss_mode, EvalReport) pairs it was written from. One SVG per metric: the
metric's per-SNR mean over seeds (`metrics.mean_over_seeds`, as `compare`
prints it) on the y axis, SNR in dB on the x axis, one polyline per loss
mode. Identical CSV input produces byte-identical SVG output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from ..metrics import EvalReport, mean_over_seeds
from .checkpoint import check_meta, meta_line
from .config import snr_as_written

RESULTS_COLUMNS = ("run_id", "loss_mode", "snr_db", "seed", "cpp", "acc", "f1", "psnr_db", "ssim")
_NUMERIC = {"snr_db": float, "seed": int, "cpp": float, "acc": float, "f1": float, "psnr_db": float, "ssim": float}
PLOT_METRICS = ("acc", "f1", "psnr_db", "ssim", "cpp")
_MODE_COLORS = {"sp": "#c23b22", "mse": "#1f5fa8"}

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 50


class PlotError(ValueError):
    """Results CSV missing, empty, lacking a required column, or with a malformed row."""


def write_results_csv(path: str | Path, mode_reports, meta: dict[str, str]) -> None:
    """`mode_reports` is a list of (loss_mode, EvalReport) pairs; `meta` is the provenance the first line records."""
    lines = [meta_line(meta), ",".join(RESULTS_COLUMNS)]
    for mode, r in mode_reports:
        lines.append(
            f"{r.run_id},{mode},{snr_as_written(r.snr_db)},{r.seed},"
            f"{r.cpp:.9g},{r.acc:.9g},{r.f1:.9g},{r.psnr_db:.9g},{r.ssim:.9g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_results_csv(path: str | Path, expected_meta: dict[str, str] | None = None) -> list[tuple[str, EvalReport]]:
    """The (loss_mode, EvalReport) pairs `write_results_csv` wrote; `#` comment lines are skipped.

    A file without a header and a data row, or with a row that lacks a column,
    has a loss mode other than sp or mse, or a numeric field that does not
    parse or is not finite, is damaged: PlotError names the file and line.
    Only then, one whose first line does not record `expected_meta` is stale.
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
    pairs = []
    for (lineno, _), fields in zip(numbered[1:], body):
        if len(fields) != len(header):
            raise PlotError(f"{path}: line {lineno}: {len(fields)} fields, expected {len(header)}")
        row = dict(zip(header, fields))
        if row["loss_mode"] not in _MODE_COLORS:
            raise PlotError(f"{path}: line {lineno}: loss_mode {row['loss_mode']!r} is not sp or mse")
        for col, parse in _NUMERIC.items():
            try:
                row[col] = parse(row[col])
            except ValueError as exc:
                raise PlotError(f"{path}: line {lineno}: bad {col}: {exc}") from None
            if not math.isfinite(row[col]):
                raise PlotError(f"{path}: line {lineno}: bad {col}: {row[col]} is not finite")
        pairs.append((row["loss_mode"], EvalReport(run_id=row["run_id"], **{col: row[col] for col in _NUMERIC})))
    try:
        recorded = json.loads(lines[0].removeprefix("# "))
    except (ValueError, RecursionError):  # a hand-edited line nested past the parser's depth is no object either
        recorded = None
    check_meta(path, recorded if isinstance(recorded, dict) else {}, expected_meta)
    return pairs


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
    by_mode: dict[str, list[EvalReport]] = {}
    for mode, report in read_results_csv(results_csv, expected_meta):
        by_mode.setdefault(mode, []).append(report)
    means = {mode: mean_over_seeds(reports) for mode, reports in sorted(by_mode.items())}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for metric in PLOT_METRICS:
        series = {mode: [(snr, m[metric]) for snr, m in by_snr.items()] for mode, by_snr in means.items()}
        path = out_dir / f"{metric}.svg"
        path.write_text(_svg_for_metric(metric, series), encoding="ascii")
        written.append(path)
    return written
