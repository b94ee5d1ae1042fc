"""Run result sets, check their spread, and compare two of them.

    python3 perfbench/sweep.py run --seeds 1-10 --trace 0 --out set.jsonl [--workloads codec-train,evaluate]
    python3 perfbench/sweep.py spread set.jsonl
    python3 perfbench/sweep.py compare base.jsonl new.jsonl

`run` starts `run.py` once per (workload, seed), one after another from this
process, and appends one JSON record per run. `spread` prints, for every
end-to-end metric and workload, the median and the distance between the
first and third quartiles as a share of the median, against the metric's
bound in BENCHMARK.json. `compare` refuses sets whose environment stamps
or run lengths differ; otherwise it prints each (workload, metric) pair's
medians and whether the second set is worse than the first by more than the
bound, and it flags every seed whose `result_loss` changed by more than
RESULT_TOL of its value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# relative change in one seed's result_loss that `compare` reports as a changed result
RESULT_TOL = 1e-3
ROOT = HERE.parent


def _bench_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cmd_run(args) -> int:
    spec, _ = _bench_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bad = 0
    with open(args.out, "a") as fh:
        for name in names:
            for seed in _seeds(args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    bad += 1
                    continue
                env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
                rec = {"workload": name, "seed": seed, "trace": args.trace, "seconds": seconds, "env": env, "result": result}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                if args.trace == 0 or k == "trace.overhead_pct")
                print(f"{name} seed {seed}: correct={result['correct']} {vals}", flush=True)
                bad += not result["correct"]
    return 1 if bad else 0


def _load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def _per_seed(records, metric) -> dict[tuple[str, int], float | None]:
    return {(r["workload"], r["seed"]): r["result"]["metrics"][metric]["value"] for r in records if r["trace"] == 0}


def _series(records) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec["trace"] != 0:
            continue
        for metric, v in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], metric), []).append(v["value"])
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cmd_spread(args) -> int:
    _, metrics = _bench_spec()
    records = _load(args.file)
    wrong = [r for r in records if not r["result"]["correct"]]
    over = 0
    print(f"{'workload':<12} {'metric':<12} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    for (wl, metric), vals in sorted(_series(records).items()):
        if len(vals) < 2:
            continue
        med, sp = spread(vals)
        bound = metrics[metric]["bound"]
        flag = "" if sp <= bound / 3 else (" > bound/3" if sp <= bound else " > BOUND")
        over += sp > bound
        print(f"{wl:<12} {metric:<12} {len(vals):>3} {med:>12.6g} {sp:>8.4f} {bound:>6}{flag}")
    print(f"{len(records)} runs, {len(wrong)} not correct")
    return 1 if over or wrong else 0


def _stamp(records, path):
    """The environment stamp and run length that every run of a set shares."""
    stamps = {json.dumps({**r["env"], "run_seconds": r["seconds"]}, sort_keys=True) for r in records}
    if len(stamps) != 1:
        raise SystemExit(f"{path}: runs carry {len(stamps)} different environment stamps or run lengths")
    return json.loads(stamps.pop())


def cmd_compare(args) -> int:
    _, metrics = _bench_spec()
    base, new = _load(args.base), _load(args.new)
    sa, sb = _stamp(base, args.base), _stamp(new, args.new)
    if sa != sb:
        diff = {k: (sa.get(k), sb.get(k)) for k in sa.keys() | sb.keys() if sa.get(k) != sb.get(k)}
        print(f"refusing to compare: environment stamps or run lengths differ: {diff}", file=sys.stderr)
        return 3
    a, b = _series(base), _series(new)
    worse = 0
    print(f"{'workload':<12} {'metric':<12} {'base':>12} {'new':>12} {'worse by':>9} {'bound':>6}")
    for key in sorted(a.keys() & b.keys()):
        wl, metric = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        share = (mb - ma) / ma if metrics[metric]["better"] == "lower" else (ma - mb) / ma
        bound = metrics[metric]["bound"]
        flag = " REGRESSION" if share > bound else ""
        worse += share > bound
        print(f"{wl:<12} {metric:<12} {ma:>12.6g} {mb:>12.6g} {share:>9.4f} {bound:>6}{flag}")
    # result_loss is deterministic per seed: beyond rounding, any change on a seed both sets ran is a changed result
    la, lb = _per_seed(base, "result_loss"), _per_seed(new, "result_loss")
    changed = [k for k in sorted(la.keys() & lb.keys())
               if la[k] is None or lb[k] is None or abs(lb[k] - la[k]) > RESULT_TOL * abs(la[k])]
    for wl, seed in changed:
        print(f"{wl} seed {seed}: result_loss {la[(wl, seed)]} -> {lb[(wl, seed)]} CHANGED RESULT")
    return 1 if worse or changed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--workloads", default=None, help="comma-separated; default all in BENCHMARK.json")
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    return {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
