"""Run one benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload codec-train --seed 1 --seconds 20 --trace 0

Run from anywhere: the program is imported from the `src/` directory next to
this one. The run sets the workload up several times before and after the
timed loop (the median is `setup_s`). For the loop it forks: the child calls
the workload's operation in a closed loop until `--seconds` have passed,
checking every output, and its resident-memory high-water mark is
`peak_rss_mb`. With `--trace 0` nothing is
wrapped and the end-to-end metrics are printed. With `--trace 1` operations
alternate between untraced and traced, per-layer metrics come from the traced
ones, and `trace.overhead_pct` compares the two halves.

The next-to-last line of standard output is the environment stamp; the last
is the result: {"correct", "attempted", "failed", "metrics"}. Failed checks
and errors are described on standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

import layers
from spans import ProbeSet, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
# Set-up is timed at least SETUP_REPEATS times and for at least SETUP_SECONDS
# before the timed loop, and as much again after it, so a set-up of a few
# milliseconds still gets a steady median and the samples see the same
# stretch of host time as the operations.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 2000
# img_per_s is this percentile (nearest rank) of the per-operation rates, so
# about a quarter of operations reach or beat it. Other tenants of a shared
# host slow whole seconds of a run by up to 1.5x; the faster quartile of
# operations tracks the program's own speed, the median tracks how busy the
# neighbours were.
RATE_PERCENTILE = 75
# One BLAS thread: on a small shared machine a second thread waits on
# whichever core a neighbour holds, which widens run-to-run spread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("codec-train", "classifier", "evaluate", "pipeline")
# (name, unit, better) of every end-to-end metric an untraced run prints
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("img_per_s", "img/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("result_loss", "loss", "lower"),
)


def _say(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, loop for `seconds` and check in a forked child, set up again; return the result object.

    The child's resident-memory high-water mark starts at what it inherits,
    so `peak_rss_mb` covers the timed operations and not the set-up.
    """
    setup_times = []
    state = _time_setups(workload, seed, setup_times)
    gc.collect()  # garbage left by set-up would count in the child's inherited memory

    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            out = _loop(workload, state, seconds, trace)
            with os.fdopen(wfd, "w") as fh:
                json.dump(out, fh)
            code = 0
        except BaseException:
            _say(f"measuring child failed:\n{traceback.format_exc()}")
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    _time_setups(workload, seed, setup_times)
    workload.teardown(state)
    if status != 0 or not payload:
        raise RuntimeError(f"measuring child ended with status {status}")
    out = json.loads(payload)
    metrics = out["metrics"]
    if trace:
        table = layers.PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        table = END_TO_END
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        # a value that could not be measured (NaN) is null, so the line stays valid JSON
        "metrics": {name: {"value": _finite_or_none(metrics[name]), "unit": unit} for name, unit, _ in table},
    }


def _time_setups(workload, seed: int, times: list[float]):
    """Set up at least SETUP_REPEATS times and SETUP_SECONDS; append each time, return the last state."""
    mine = []
    while len(mine) < SETUP_REPEATS or (sum(mine) < SETUP_SECONDS and len(mine) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        mine.append(time.perf_counter() - t0)
    times.extend(mine)
    return state


def _loop(workload, state, seconds: float, trace: bool) -> dict:
    """The closed loop and the checks: {"attempted", "failed", "metrics"}."""
    attempted = failed = 0
    tracer = probes = None
    if trace:
        tracer = Tracer()
        probes = ProbeSet(tracer, layers.PROBES)
        for target in probes.missing:
            _say(f"probe target {target} is missing or not callable; its layer numbers are lost")
        attempted += len(probes.missing)
        failed += len(probes.missing)

    rates = {False: [], True: []}
    per_op, pooled = [], defaultdict(list)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < (2 if trace else 1):
        traced = trace and i % 2 == 1
        i += 1
        workload.reset(state)
        if traced:
            probes.install()
        res = None
        t0 = time.perf_counter()
        try:
            res = workload.op(state, tracer if traced else None)
        except Exception:
            _say(f"operation {i} raised:\n{traceback.format_exc()}")
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                probes.remove()
        spans, samples = tracer.take() if traced else (None, None)
        attempted += 1
        if res is None or res.failures:
            failed += 1
            for msg in res.failures if res else ():
                _say(f"operation {i}: {msg}")
            continue
        rates[traced].append(res.items / elapsed)
        if traced:
            values, lists = layers.summarize_op(spans, samples)
            per_op.append(values)
            for key, vals in lists.items():
                pooled[key].extend(vals)

    for check, err in workload.final_checks(state):
        attempted += 1
        if err:
            failed += 1
            _say(f"check {check}: {err}")

    if trace:
        metrics = layers.aggregate(per_op, pooled)
        metrics["trace.ops"] = len(per_op)
        untraced, traced_rate = _median(rates[False]), _median(rates[True])
        metrics["trace.overhead_pct"] = 100.0 * (untraced / traced_rate - 1.0) if traced_rate else 0.0
        metrics["numcore.traced_peak_mb"], ok = _traced_peak_mb(workload, state)
        attempted += 1
        failed += not ok
    else:
        rate = percentile(rates[False], RATE_PERCENTILE) if rates[False] else 0.0
        metrics = {"img_per_s": rate, "result_loss": workload.result_loss(state)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _traced_peak_mb(workload, state) -> tuple[float, bool]:
    """Peak traced allocation (numpy buffers included) over one extra, untimed
    operation, and whether that operation passed its checks."""
    workload.reset(state)
    tracemalloc.start()
    try:
        res = workload.op(state, None)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    except Exception:
        _say(f"traced-memory operation raised:\n{traceback.format_exc()}")
        return 0.0, False
    finally:
        tracemalloc.stop()
    for msg in res.failures:
        _say(f"traced-memory operation: {msg}")
    return peak, not res.failures


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "spjscc" / "__init__.py").is_file():
        _say(f"no program source at {src / 'spjscc'}; run from a checkout of the repository")
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)  # read once, when numpy loads the BLAS
    sys.path.insert(0, str(src))
    import spjscc

    if Path(spjscc.__file__).resolve().parent != (src / "spjscc").resolve():
        _say(f"imported spjscc from {spjscc.__file__}, not from {src}")
        return 2
    import envstamp
    import workloads

    work_root = ROOT / ".perfbench"
    workload = workloads.WORKLOADS[args.workload](work_root)
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    try:
        work_root.rmdir()
    except OSError:
        pass  # not empty: another run is using it
    print(json.dumps({"env": envstamp.collect()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
