"""Run every workload of BENCHMARK.json over several seeds and summarise.

    python3 perfbench/suite.py --seeds 0-9 [--trace-seed 0] [--out FILE]

Each run is a fresh ``run.py`` process (so ``peak_rss_mb`` is per workload).
Seeds are interleaved across workloads, so a slow spell of the machine hits
every workload alike.  For each end-to-end metric the table gives the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median (the spread), next to the metric's bound.
``--out`` writes every run and the summary as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="lo-hi or a,b,c")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per workload with this seed")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    seeds = _seeds(args.seeds)

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(_run(name, seed, args.seconds, 0))
            last = runs[name][-1]
            print(f"{name} seed {seed}: correct={last['correct']} attempted={last['attempted']}"
                  f" failed={last['failed']}", file=sys.stderr, flush=True)

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        print(f"\n{name}  ({len(seeds)} seeds, {args.seconds:g} s each)")
        print(f"  {'metric':<16}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        e2e = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            s = _summary([r["metrics"][key]["value"] for r in runs[name]])
            s.update(unit=metric["unit"], better=metric["better"], bound=metric["bound"])
            e2e[key] = s
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {key:<16}{metric['unit']:<8}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{spread:>9}{metric['bound']:>7}")
        entry = {
            "end_to_end": e2e,
            "correct": all(r["correct"] for r in runs[name]),
            "attempted": [r["attempted"] for r in runs[name]],
            "failed": [r["failed"] for r in runs[name]],
            "records": [r["record"] for r in runs[name]],
        }
        # the same timings in seconds, and the p90 where every run has one
        for key in ("orbits_per_s", "call_ms_p50", "call_ms_p90", "call_p90_ref", "ref_ms"):
            values = [r["record"][key] for r in runs[name] if key in r["record"]]
            if len(values) == len(seeds):
                entry[key] = s = _summary(values)
                print(f"  {key:<16}(record){s['median']:>12.5g}{s['q1']:>12.5g}"
                      f"{s['q3']:>12.5g}{s['spread']:>9.4f}")
        calls = [r["record"]["calls"] for r in runs[name]]
        print(f"  calls per run {min(calls)}..{max(calls)}, correct={entry['correct']},"
              f" failed {sum(entry['failed'])} of {sum(entry['attempted'])} orbits")
        if args.trace_seed is not None:
            traced = _run(name, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = traced
            for key, m in traced["metrics"].items():
                print(f"    {key:<45}{m['value']:>14.6g} {m['unit']}")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
