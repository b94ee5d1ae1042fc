"""Tests of the benchmark's own code: spans, percentiles, metric names, probes.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import sweep
import workloads
from spans import Probe, ProbeSet, Span, Tracer, percentile, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
# the rule for metric names in BENCHMARK.json
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def record(tracer, tree):
    """Record (name, [children]) nested spans; the clock supplies start/end times."""
    name, children = tree
    span = tracer.begin(name)
    for child in children:
        record(tracer, child)
    tracer.end(span)
    return span


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # outer 0..10 holds a 1..3 and b 4..8; b holds c 5..6
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    record(tracer, ("outer", [("a", []), ("b", [("c", [])])]))
    spans, _ = tracer.take()
    own = dict(zip((s.name for s in spans), self_times(spans)))
    assert own == {"outer": 4, "a": 2, "b": 3, "c": 1}


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer(clock=fake_clock([0, 10]))
    outer = tracer.begin("outer")
    tracer.end(outer)
    spans, _ = tracer.take()
    spans += [Span(1, "x", 2, 6, 0, 0), Span(2, "y", 4, 7, 0, 0), Span(3, "z", 9, 12, 0, 0)]
    # children cover 2..7 and 9..10 inside the parent: 6 of its 10 seconds
    assert self_times(spans)[0] == 4


def test_spans_must_close_in_order():
    tracer = Tracer(clock=fake_clock(range(10)))
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


# -- percentile rule ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    vals = [7, 1, 10, 3, 2, 9, 4, 6, 5, 8]
    assert percentile(vals, 50) == 5
    assert percentile(vals, 90) == 9
    assert percentile(vals, 91) == 10
    assert percentile(vals, 100) == 10
    assert percentile([42.0], 90) == 42.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "numcore.fwd.transposed-conv2d_s", "training.step_ms.p90", "a" * 64, "9x"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "x/y", "a" * 65, "naïve"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_every_emitted_metric_name_is_valid_and_unique():
    names = [n for n, _, _ in run.END_TO_END] + [n for n, _, _ in layers.PER_LAYER]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_lists_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_summaries_cover_every_per_layer_metric():
    out = layers.aggregate([], {})
    out.update({"trace.ops": 1, "trace.overhead_pct": 0.0, "numcore.traced_peak_mb": 0.0})
    assert set(out) == {n for n, _, _ in layers.PER_LAYER}


# -- probes ------------------------------------------------------------------


def make_module(name):
    mod = types.ModuleType(name)

    def work(x, mode="train"):
        return x + 1

    def items(n):
        yield from range(n)

    mod.work, mod.items = work, items
    sys.modules[name] = mod
    return mod


def test_missing_probe_target_is_reported_not_skipped():
    mod = make_module("perfbench_fake_a")
    probes = ProbeSet(Tracer(), [Probe("perfbench_fake_a:work", "w"), Probe("perfbench_fake_a:renamed", "r"),
                                 Probe("perfbench_no_such_module:f", "f")])
    assert probes.missing == ["perfbench_fake_a:renamed", "perfbench_no_such_module:f"]
    orig = mod.work
    probes.install()
    assert mod.work is not orig and mod.work(1) == 2
    probes.remove()
    assert mod.work is orig


def test_every_probe_target_exists_in_the_program():
    assert ProbeSet(Tracer(), layers.PROBES).missing == []


def test_probes_record_spans_units_and_generator_items():
    mod = make_module("perfbench_fake_b")
    tracer = Tracer(clock=fake_clock(range(100)))
    probes = ProbeSet(tracer, [
        Probe("perfbench_fake_b:work", lambda b: f"work.{b['mode']}", unit=lambda b: b["mode"] == "eval"),
        Probe("perfbench_fake_b:items", "item", unit=lambda b: True, generator=True),
    ])
    probes.install()
    try:
        assert list(mod.items(2)) == [0, 1]
        mod.work(1)
        mod.work(1, mode="eval")
    finally:
        probes.remove()
    spans, _ = tracer.take()
    assert [(s.name, s.group) for s in spans] == [("item", 1), ("item", 2), ("work.train", 2), ("work.eval", 3)]


def test_unit_durations_split_steps_and_validation():
    # train_jscc holds two batch-started steps, then one eval-encode validation batch
    tracer = Tracer(clock=fake_clock(range(100)))
    outer = tracer.begin("training.train_jscc")
    for _ in range(2):
        b = tracer.begin("dataio.batch")
        tracer.end(b)
        tracer.start_unit(b)
        record(tracer, ("numcore.backward", []))
        record(tracer, ("numcore.adam", []))
    e = tracer.begin("jscc.encode")
    tracer.start_unit(e)
    tracer.end(e)
    record(tracer, ("jscc.decode", []))
    tracer.end(outer)
    after = tracer.begin("harness.save_checkpoint")  # joins the last group but is outside train_jscc
    tracer.end(after)
    spans, _ = tracer.take()
    values, pooled = layers.summarize_op(spans, {})
    assert values["training.steps"] == 2
    assert pooled["training.step_ms"] == [5000.0, 5000.0]
    assert values["training.val_s"] == 3


# -- comparing result sets ---------------------------------------------------


def result_set(path, seconds=20, loss=4.0, rate=100.0):
    env = {"python": "3", "numpy": "2", "blas": "b", "blas_version": "1", "blas_threads": 1, "nproc": 2}
    lines = []
    for seed in (1, 2, 3):
        metrics = {"setup_s": 1.0, "img_per_s": rate, "peak_rss_mb": 100.0, "result_loss": loss + seed}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
        rec = {"workload": "codec-train", "seed": seed, "trace": 0, "seconds": seconds, "env": env, "result": result}
        lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_compare_passes_identical_sets(tmp_path):
    a, b = result_set(tmp_path / "a.jsonl"), result_set(tmp_path / "b.jsonl")
    assert sweep.main(["compare", a, b]) == 0


def test_compare_refuses_sets_of_different_run_length(tmp_path):
    a, b = result_set(tmp_path / "a.jsonl"), result_set(tmp_path / "b.jsonl", seconds=10)
    assert sweep.main(["compare", a, b]) == 3


def test_compare_flags_a_changed_result_inside_the_median_bound(tmp_path, capsys):
    # a 1% higher loss is well inside result_loss's bound on medians, but not the same result
    a, b = result_set(tmp_path / "a.jsonl"), result_set(tmp_path / "b.jsonl", loss=4.06)
    assert sweep.main(["compare", a, b]) == 1
    assert "CHANGED RESULT" in capsys.readouterr().out


def test_compare_flags_a_regression(tmp_path):
    a, b = result_set(tmp_path / "a.jsonl"), result_set(tmp_path / "b.jsonl", rate=50.0)
    assert sweep.main(["compare", a, b]) == 1


# -- the runner --------------------------------------------------------------


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
