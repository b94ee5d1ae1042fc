"""Which calls into the program are traced, and the per-layer metrics made from them.

Every probe wraps the attribute the program itself calls through: training
steps call `spjscc.training.encode`, evaluation calls `spjscc.metrics.encode`,
and both are the same function, so both are wrapped under one span name.
Per-layer values are computed per operation (one call of the workload's
timed function) and the runner takes their median over the traced operations.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import Probe, Span, ancestors, percentile, self_times

FWD_KINDS = ("conv2d", "transposed-conv2d", "prelu", "mean-pool", "dense")
COLD_STAGES = (
    "pretrain-classifier",
    "extract-weights",
    "train-sp",
    "train-mse",
    "evaluate-sp",
    "evaluate-mse",
    "compare",
    "plot",
)
WARM_STAGES = ("extract-weights", "plot")


def _tape_size(tracer, bound):
    tape = bound["self"]
    tracer.sample("numcore.tape_nodes", len(tape.nodes))
    tracer.sample("numcore.tape_bytes", sum(node.value.nbytes for node in tape.nodes))


def _snr_batches(tracer, bound):
    batches = math.ceil(len(bound["test_set"]) / bound["batch"])
    tracer.sample("metrics.snr_batches", len(bound["snr_grid"]) * batches)


def _eval_mode(bound):
    return bound["mode"] == "eval"


def _always(bound):
    return True


PROBES = (
    Probe("spjscc.numcore.tape:Tape.apply", lambda b: "numcore.fwd." + b["kind"]),
    Probe("spjscc.numcore.tape:Tape.backward", "numcore.backward", enter=_tape_size),
    Probe("spjscc.training:adam_step", "numcore.adam"),
    Probe("spjscc.classifier:adam_step", "numcore.adam"),
    Probe("spjscc.training:encode", "jscc.encode", unit=_eval_mode),
    Probe("spjscc.metrics:encode", "jscc.encode", unit=_eval_mode),
    Probe("spjscc.training:decode", "jscc.decode"),
    Probe("spjscc.metrics:decode", "jscc.decode"),
    Probe("spjscc.jscc:normalize_power", "channel.normalize_power"),
    Probe("spjscc.training:awgn_transmit", "channel.awgn_transmit"),
    Probe("spjscc.metrics:awgn_transmit", "channel.awgn_transmit"),
    Probe("spjscc.training:train_jscc", "training.train_jscc"),
    Probe("spjscc.harness.cli:train_jscc", "training.train_jscc"),
    Probe("spjscc.training:loss_sp", "training.loss"),
    Probe("spjscc.training:loss_mse", "training.loss"),
    Probe("spjscc.training:total_loss", "training.loss"),
    Probe("spjscc.training:batch_iter", "dataio.batch", unit=_always, generator=True),
    Probe("spjscc.classifier:batch_iter", "dataio.batch", unit=_always, generator=True),
    Probe("spjscc.harness.cli:save_cache", "dataio.save_cache"),
    Probe("spjscc.harness.cli:load_cache", "dataio.load_cache"),
    Probe("spjscc.classifier:pretrain_classifier", "classifier.pretrain"),
    Probe("spjscc.harness.cli:pretrain_classifier", "classifier.pretrain"),
    Probe("spjscc.metrics:perceive", "classifier.perceive"),
    Probe("spjscc.saliency:compute_weight_maps", "saliency.compute_weight_maps"),
    Probe("spjscc.saliency:perceive_with_tape", "saliency.forward", unit=_always),
    Probe("spjscc.saliency:save_weight_cache", "saliency.weight_cache_io"),
    Probe("spjscc.saliency:load_weight_cache", "saliency.weight_cache_io"),
    Probe("spjscc.harness.cli:load_weight_cache", "saliency.weight_cache_io"),
    Probe("spjscc.metrics:evaluate", "metrics.evaluate", enter=_snr_batches),
    Probe("spjscc.harness.cli:evaluate", "metrics.evaluate", enter=_snr_batches),
    Probe("spjscc.metrics:ssim", "metrics.ssim"),
    Probe("spjscc.metrics:psnr", "metrics.psnr"),
    Probe("spjscc.harness.cli:save_checkpoint", "harness.save_checkpoint"),
    Probe("spjscc.harness.cli:load_checkpoint", "harness.load_checkpoint"),
    Probe("spjscc.harness.cli:emit_plots", "harness.emit_plots"),
)


def _layer_spec():
    spec = []
    for kind in FWD_KINDS + ("other",):
        spec += [(f"numcore.fwd.{kind}_s", "s", "lower"), (f"numcore.fwd.{kind}.calls", "count", "lower")]
    spec += [
        ("numcore.backward_s", "s", "lower"),
        ("numcore.backward.calls", "count", "lower"),
        ("numcore.adam_s", "s", "lower"),
        ("numcore.adam.calls", "count", "lower"),
        ("numcore.tape_nodes", "count", "lower"),
        ("numcore.tape_bytes", "B", "lower"),
        ("numcore.traced_peak_mb", "MB", "lower"),
        ("jscc.encode_s", "s", "lower"),
        ("jscc.encode.calls", "count", "lower"),
        ("jscc.decode_s", "s", "lower"),
        ("jscc.decode.calls", "count", "lower"),
        ("channel.normalize_power_s", "s", "lower"),
        ("channel.normalize_power.calls", "count", "lower"),
        ("channel.awgn_transmit_s", "s", "lower"),
        ("channel.awgn_transmit.calls", "count", "lower"),
        ("training.step_ms.p50", "ms", "lower"),
        ("training.step_ms.p90", "ms", "lower"),
        ("training.steps", "count", "higher"),
        ("training.val_s", "s", "lower"),
        ("training.loss_s", "s", "lower"),
        ("dataio.batch_wait_s", "s", "lower"),
        ("dataio.batches", "count", "higher"),
        ("dataio.save_cache_s", "s", "lower"),
        ("dataio.load_cache_s", "s", "lower"),
        ("dataio.cache_bytes", "B", "lower"),
        ("classifier.perceive_s", "s", "lower"),
        ("classifier.perceive.calls", "count", "lower"),
        ("classifier.step_ms.p50", "ms", "lower"),
        ("classifier.step_ms.p90", "ms", "lower"),
        ("classifier.steps", "count", "higher"),
        ("saliency.backward_per_batch", "count", "lower"),
        ("saliency.postprocess_s", "s", "lower"),
        ("saliency.batches", "count", "higher"),
        ("saliency.weight_cache_io_s", "s", "lower"),
        ("metrics.ssim_s", "s", "lower"),
        ("metrics.ssim.calls", "count", "lower"),
        ("metrics.psnr_s", "s", "lower"),
        ("metrics.encodes_per_snr_batch", "count", "lower"),
    ]
    spec += [(f"harness.cli.cold.{st}_s", "s", "lower") for st in COLD_STAGES]
    spec += [(f"harness.cli.warm.{st}_s", "s", "lower") for st in WARM_STAGES]
    spec += [
        ("harness.cold_s", "s", "lower"),
        ("harness.warm_s", "s", "lower"),
        ("harness.save_checkpoint_s", "s", "lower"),
        ("harness.load_checkpoint_s", "s", "lower"),
        ("harness.emit_plots_s", "s", "lower"),
        ("harness.artifact_bytes", "B", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.ops", "count", "higher"),
    ]
    return tuple(spec)


# (name, unit, better) of every per-layer metric a traced run prints
PER_LAYER = _layer_spec()
_POOLED = ("training.step_ms", "classifier.step_ms")


def _unit_durations(spans: list[Span], starter: str, within: str) -> list[float]:
    """Seconds of each group opened by a `starter` span inside a `within` span.

    A group's extent is clipped to the `within` span that encloses its
    starter, so work after e.g. `train_jscc` returns never joins its last step.
    """
    first: dict[int, Span] = {}
    for s in spans:
        first.setdefault(s.group, s)
    extents = {}
    for group, s in first.items():
        if s.name != starter:
            continue
        outer = next((a for a in ancestors(spans, s) if a.name == within), None)
        if outer is not None:
            extents[group] = [math.inf, -math.inf, outer]
    for s in spans:
        ext = extents.get(s.group)
        if ext is not None and s.start >= ext[2].start and s.end <= ext[2].end:
            ext[0] = min(ext[0], s.start)
            ext[1] = max(ext[1], s.end)
    return [hi - lo for lo, hi, _ in extents.values()]


def summarize_op(spans: list[Span], samples: dict[str, list[float]]) -> tuple[dict, dict]:
    """Per-layer values of one traced operation, plus samples pooled across operations."""
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1

    def inside(name, outer):
        return sum(1 for s in spans if s.name == name and any(a.name == outer for a in ancestors(spans, s)))

    v = {}
    fwd = {k[len("numcore.fwd.") :] for k in total if k.startswith("numcore.fwd.")}
    others = fwd - set(FWD_KINDS)
    for kind in FWD_KINDS:
        v[f"numcore.fwd.{kind}_s"] = total[f"numcore.fwd.{kind}"]
        v[f"numcore.fwd.{kind}.calls"] = calls[f"numcore.fwd.{kind}"]
    v["numcore.fwd.other_s"] = sum(total[f"numcore.fwd.{k}"] for k in others)
    v["numcore.fwd.other.calls"] = sum(calls[f"numcore.fwd.{k}"] for k in others)
    for name in ("numcore.backward", "numcore.adam", "jscc.encode", "jscc.decode",
                 "channel.normalize_power", "channel.awgn_transmit", "classifier.perceive", "metrics.ssim"):
        v[f"{name}_s"] = total[name]
        v[f"{name}.calls"] = calls[name]
    v["numcore.tape_nodes"] = max(samples.get("numcore.tape_nodes", [0]))
    v["numcore.tape_bytes"] = max(samples.get("numcore.tape_bytes", [0]))

    codec_steps = _unit_durations(spans, "dataio.batch", "training.train_jscc")
    clf_steps = _unit_durations(spans, "dataio.batch", "classifier.pretrain")
    v["training.steps"] = len(codec_steps)
    v["training.val_s"] = sum(_unit_durations(spans, "jscc.encode", "training.train_jscc"))
    v["training.loss_s"] = total["training.loss"]
    v["dataio.batch_wait_s"] = total["dataio.batch"]
    v["dataio.batches"] = calls["dataio.batch"]
    v["dataio.save_cache_s"] = total["dataio.save_cache"]
    v["dataio.load_cache_s"] = total["dataio.load_cache"]
    v["dataio.cache_bytes"] = max(samples.get("dataio.cache_bytes", [0]))
    v["classifier.steps"] = len(clf_steps)

    batches = inside("saliency.forward", "saliency.compute_weight_maps")
    backwards = inside("numcore.backward", "saliency.compute_weight_maps")
    v["saliency.batches"] = batches
    v["saliency.backward_per_batch"] = backwards / batches if batches else 0.0
    own = self_times(spans)
    v["saliency.postprocess_s"] = sum(t for s, t in zip(spans, own) if s.name == "saliency.compute_weight_maps")
    v["saliency.weight_cache_io_s"] = total["saliency.weight_cache_io"]

    snr_batches = sum(samples.get("metrics.snr_batches", []))
    encodes = inside("jscc.encode", "metrics.evaluate")
    v["metrics.psnr_s"] = total["metrics.psnr"]
    v["metrics.encodes_per_snr_batch"] = encodes / snr_batches if snr_batches else 0.0

    for phase, stages in (("cold", COLD_STAGES), ("warm", WARM_STAGES)):
        for st in stages:
            v[f"harness.cli.{phase}.{st}_s"] = total[f"harness.cli.{phase}.{st}"]
        v[f"harness.{phase}_s"] = sum(total[f"harness.cli.{phase}.{st}"] for st in stages)
    for name in ("harness.save_checkpoint", "harness.load_checkpoint", "harness.emit_plots"):
        v[f"{name}_s"] = total[name]
    v["harness.artifact_bytes"] = max(samples.get("harness.artifact_bytes", [0]))
    v["trace.spans"] = len(spans)

    pooled = {
        "training.step_ms": [1e3 * d for d in codec_steps],
        "classifier.step_ms": [1e3 * d for d in clf_steps],
    }
    return v, pooled


def aggregate(per_op: list[dict], pooled: dict[str, list[float]]) -> dict[str, float]:
    """Median over operations of each per-op value; percentiles of pooled step times."""
    per_op = per_op or [summarize_op([], {})[0]]  # no traced operation succeeded: all zero
    out = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    for key in _POOLED:
        samples = pooled.get(key, [])
        out[f"{key}.p50"] = percentile(samples, 50) if samples else 0.0
        out[f"{key}.p90"] = percentile(samples, 90) if samples else 0.0
    return out
