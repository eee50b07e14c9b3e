"""ratiodyn benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload box_classify --seed 0 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; with ``--trace 1`` it reports
the per-layer metrics of BENCHMARK.json from traced calls (spans are
written to ``.bench_out/``).  Correctness checks run after the timed region.
The last line of standard output is the result object; the line before it
is the run record (machine, sample counts, failures by reason).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is measured this many times, each in a fresh interpreter
SETUP_REPEATS = 7
# The speed of a shared host drifts by up to 2x over minutes.  So the gated
# timings are counted in "refs", durations of _reference_loop, which is
# timed between calls at most this often; that cancels much of the drift
# (README.md gives the figures).
REF_EVERY_S = 0.02
REF_STEPS = 4000
# the p90 is reported only with at least ten samples beyond it
P90_MIN_CALLS = 100
KERNEL_STEPS = 100000
KERNEL_REPEATS = 5

_SETUP_PROBE = """
import sys
from time import perf_counter
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import workloads
start = perf_counter()
workloads.setup(sys.argv[2], int(sys.argv[3]))
print(perf_counter() - start)
"""

_SCREEN_PROBE = """
import json
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import workloads
print(json.dumps(workloads.screen(sys.argv[2], int(sys.argv[3]))))
"""


def _git_sha():
    """HEAD of the repository this file sits in, read from .git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_seconds(name, seed):
    """Set-up time (import, inputs, warm-up) in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up of {name} failed in a fresh interpreter")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _screened_out(name, seed):
    """The inputs a workload's screen leaves out, found in a fresh
    interpreter, so that nothing the screen computes is left in the
    measured process and its time is not set-up time."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCREEN_PROBE, str(ROOT), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"screening the inputs of {name} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _reference_loop():
    """Fixed work in the style of an orbit loop (a rational map, a growing
    list) that uses nothing of ratiodyn, so that no change to the package
    can change its duration."""
    xs = [1.5]
    for _ in range(REF_STEPS):
        t = xs[-1]
        xs.append(1.2 + 1.7 / t - 2.0 / (t * t) + 1.1 / (t * t * t))
    return xs[-1]


def _timed_calls(workload, seconds):
    """Call the workload back to back until ``seconds`` pass, timing the
    reference loop between calls.  Returns the per-call outcomes, their
    latencies and the reference loop's durations."""
    outcomes, latencies, refs = [], [], []
    deadline = perf_counter() + seconds
    next_ref = 0.0
    i = 0
    while True:
        t0 = perf_counter()
        if t0 >= deadline:
            break
        if t0 >= next_ref:
            _reference_loop()
            next_ref = perf_counter()
            refs.append(next_ref - t0)
            t0 = next_ref
            next_ref += REF_EVERY_S
        outcomes.append(workload.call(i))
        latencies.append(perf_counter() - t0)
        i += 1
    return outcomes, latencies, refs


def _check(workload, outcomes):
    """Failed orbits per reason, checked outside the timed region."""
    reasons = {}
    for i, outcome in enumerate(outcomes):
        failed, reason = workload.check(i, outcome)
        if failed:
            reasons[reason] = reasons.get(reason, 0) + failed
    return reasons


def _kernel_ns_per_step(fn, *args):
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        fn(*args, KERNEL_STEPS)
        samples.append(perf_counter() - t0)
    return statistics.median(samples) / KERNEL_STEPS * 1e9


def _untraced(workload, seconds):
    outcomes, latencies, refs = _timed_calls(workload, seconds)
    orbits = sum(workload.orbits(o) for o in outcomes)
    reasons = _check(workload, outcomes)
    failed = sum(reasons.values())
    ref = statistics.mean(refs)
    busy = sum(latencies)
    p50 = statistics.median(latencies)
    metrics = {
        "orbits_per_kref": (1000.0 * orbits * ref / busy, "1/kref"),
        "call_p50_ref": (p50 / ref, "ref"),
        "ok_frac": ((orbits - failed) / orbits, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "calls": len(latencies), "ref_ms": ref * 1000.0, "ref_samples": len(refs),
        "orbits_per_s": orbits / busy, "call_ms_p50": p50 * 1000.0,
    }
    if len(latencies) >= P90_MIN_CALLS:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        extra["call_ms_p90"] = p90 * 1000.0
        extra["call_p90_ref"] = p90 / ref
    return metrics, orbits, reasons, extra


def _traced(workload, seconds, spans_path):
    """Call each input twice, untraced and traced, until ``seconds`` pass.

    Per-layer figures come from the traced calls.  The trace overhead is the
    ratio of the summed latencies of the pairs, so that a change of machine
    speed hits both sides alike; the order within a pair alternates, so that
    whatever the first call leaves warm favours neither side.
    """
    tracer = tracing.Tracer()
    outcomes = []
    plain_s = traced_s = 0.0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    t0 = perf_counter()
                    outcomes.append(tracer.root(i, workload.root_span, workload.call, i))
                    traced_s += perf_counter() - t0
                finally:
                    tracer.uninstall()
            else:
                t0 = perf_counter()
                workload.call(i)
                plain_s += perf_counter() - t0
        i += 1
    orbits = sum(workload.orbits(o) for o in outcomes)
    reasons = _check(workload, outcomes)
    tracer.write(spans_path)

    # counts and self times per orbit, so that they do not grow with the
    # number of calls a faster program or machine fits into the run
    layers = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "self_s": 0.0, "failed": 0, "found": 0}
    metrics = {}
    for name in dict.fromkeys(span for _, _, span in tracing.BOUNDARIES):
        layer = layers.get(name, empty)
        metrics[f"{name}.calls"] = (layer["calls"] / orbits, "1/orbit")
        metrics[f"{name}.self_s"] = (layer["self_s"] / orbits, "s/orbit")
    detect = layers.get("simulate.detect_ratio_limit", empty)
    metrics["simulate.detect_ratio_limit.hit_ratio"] = (
        detect["found"] / detect["calls"] if detect["calls"] else 0.0, "ratio",
    )
    # a workload that screens its inputs leaves the failing searches out of
    # its calls, so for it the screen gives the share
    failed = getattr(workload, "screened_out_share", None)
    if failed is None:
        failed = layers.get("cycles.find_two_cycles", empty)["failed"] / orbits
    metrics["cycles.find_two_cycles.failed"] = (failed, "1/orbit")
    metrics["cli.sweep.self_s"] = (layers.get("cli.sweep", empty)["self_s"] / orbits, "s/orbit")

    params = workload.api.Parameters(*workloads.EXAMPLE_A)
    simulate = sys.modules["ratiodyn.simulate"]
    metrics["simulate.ratio_step_ns"] = (
        _kernel_ns_per_step(simulate.iterate_ratio, params, 1.5), "ns",
    )
    metrics["simulate.solution_step_ns"] = (
        _kernel_ns_per_step(simulate.iterate_solution, params, 1.0, 1.5), "ns",
    )
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    extra = {
        "calls": len(outcomes), "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, orbits, reasons, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ratiodyn" / "__init__.py").is_file():
        raise SystemExit(f"ratiodyn sources not found under {SRC}")

    setup_samples = [] if args.trace else _setup_seconds(args.workload, args.seed)
    screened = hasattr(workloads.WORKLOADS[args.workload], "screen")
    left_out = _screened_out(args.workload, args.seed) if screened else []
    workload = workloads.setup(args.workload, args.seed)
    if screened:
        workload.leave_out(left_out)
    imported = Path(sys.modules["ratiodyn"].__file__).resolve()
    if SRC not in imported.parents:
        raise SystemExit(f"ratiodyn was imported from {imported}, not from {SRC}")

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, orbits, reasons, extra = _traced(workload, args.seconds, spans_path)
    else:
        metrics, orbits, reasons, extra = _untraced(workload, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        extra["setup_s_samples"] = setup_samples
    defects = workload.defects()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "orbits": orbits,
        "failed_by_reason": reasons,
        "defects_left_out": defects,
        **extra,
    }
    screened_ok = defects.get("screened_out_share", 0.0) <= workloads.BOX_SCREEN_CEILING
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": screened_ok and not any(k.startswith(workloads.WRONG) for k in reasons),
        "attempted": orbits,
        "failed": sum(reasons.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
