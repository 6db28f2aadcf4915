"""Benchmark of confgsb: three workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in turn

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (importing ``confgsb`` afresh and building the seeded inputs) is done
``SETUP_REPEATS`` times before the timed phase and again after every round;
``setup_s`` is their mean time.  The timed phase runs whole rounds of the
workload's operations until ``--seconds`` have passed.  Every round repeats
the same operations, which must give the same outputs; an operation's
latency is its mean time over the rounds, and ``wall_s`` the sum of those
latencies over one round.  Every end-to-end time is scaled to the reference
speed of speed.py, probed between operations, so that a host slowed by
other tenants' load reads as a quiet one.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` one further round runs with every
layer wrapped (see tracer.py) and the JSON holds the per-layer metrics;
``trace.overhead_s`` is that round's time minus the last untraced round's,
both timed around the whole round.  Both write a copy of the result, and
the traced run its spans, under ``perfbench/out/``.  The exit code is 0
when every check passes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3

sys.path.insert(0, HERE)

import workloads as wls  # noqa: E402
from speed import Probe  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_p95_ms": "ms"}


def import_confgsb():
    """Import ``confgsb`` from this checkout's ``src/``, dropping any copy
    imported before."""
    for name in [m for m in sys.modules if m == "confgsb" or m.startswith("confgsb.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cg = importlib.import_module("confgsb")
    importlib.import_module("confgsb.cli")
    if not os.path.abspath(cg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"confgsb was imported from {cg.__file__}, not from {SRC}")
    return cg


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    cls = wls.WORKLOADS[name]
    probe = Probe()
    setup_times = []

    def set_up():
        start = time.perf_counter()
        workload = cls(import_confgsb(), seed)
        setup_times.append(time.perf_counter() - start)
        probe.sample()
        return workload

    for _ in range(SETUP_REPEATS):
        workload = set_up()
    errors: list[str] = []
    rounds_ops: list[wls.Ops] = []
    first = None
    start = time.perf_counter()
    while not rounds_ops or time.perf_counter() - start < seconds:
        ops = wls.Ops(probe)
        t0 = time.perf_counter()
        outputs = workload.run_round(ops)
        round_s = time.perf_counter() - t0
        rounds_ops.append(ops)
        if first is None:
            first = outputs
        elif outputs != first:
            errors.append(f"round {len(rounds_ops)} gave other outputs than round 1")
        # set up again between rounds, so that the set-up samples spread
        # over the run as the rounds do
        for _ in range(SETUP_REPEATS):
            workload = set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(rounds_ops)
    first_ops = rounds_ops[0]
    # an operation's latency is its mean time over the rounds, and every time
    # is put at the reference speed of speed.py
    scale = probe.scale()
    raw = [statistics.fmean(ops.seconds[k] for ops in rounds_ops)
           for k in range(len(first_ops.seconds))]
    op_s = [s * scale for s in raw]
    wall_s = sum(op_s)
    latencies = [s for s, timed in zip(op_s, first_ops.latency) if timed]

    result = {"workload": name, "seed": seed, "rounds": rounds,
              "ops_per_round": len(op_s), "setups": len(setup_times),
              "speed_blocks": len(probe.values), "scale": scale,
              "raw_wall_s": sum(raw), "raw_setup_s": statistics.fmean(setup_times),
              "part_s": {part: op_s[i] for part, i in first_ops.parts.items()}}
    attempted = rounds * len(op_s)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = workload.run_round(wls.Ops(probe))
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        rounds += 1
        attempted += len(op_s)
        if traced != first:
            errors.append("the traced round gave other outputs than round 1")
        metrics = per_layer_metrics(tracer, traced_s - round_s)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"{name}.spans"))
        result.update(spans=tracer.span_count(), traced_round_s=traced_s,
                      untraced_round_s=round_s)
    else:
        metrics = {
            "setup_s": statistics.fmean(setup_times) * scale,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": 1000 * percentile(latencies, 0.50),
            "op_p95_ms": 1000 * percentile(latencies, 0.95),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    check_errors, failed_per_round = workload.check(first)
    errors += check_errors
    result.update(correct=not errors, attempted=attempted,
                  failed=failed_per_round * rounds, metrics=metrics, errors=errors)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return result, not errors


PER_LAYER = (
    # (metric, unit, span names, field)
    ("engine.self_s", "s", ("engine",), "self_s"),
    ("engine.calls", "count", ("engine",), "entries"),
    ("words.self_s", "s", ("words",), "self_s"),
    ("words.calls", "count", ("words",), "entries"),
    ("indices.self_s", "s", ("indices",), "self_s"),
    ("indices.calls", "count", ("indices",), "entries"),
    ("rewrite.interreduce.self_s", "s", ("rewrite.interreduce",), "self_s"),
    ("rewrite.interreduce.total_s", "s", ("rewrite.interreduce",), "total_s"),
    ("rewrite.find_occurrences.self_s", "s", ("rewrite.find_occurrences",), "self_s"),
    ("rewrite.find_occurrences.calls", "count", ("rewrite.find_occurrences",), "calls"),
    ("rewrite.reduce.self_s", "s", ("rewrite.reduce",), "self_s"),
    ("rewrite.reduce.calls", "count", ("rewrite.reduce",), "calls"),
    ("rewrite.irreducible_words.self_s", "s", ("rewrite.irreducible_words",), "self_s"),
    ("rewrite.build_sword.self_s", "s", ("rewrite.build_sword",), "self_s"),
    ("rewrite.self_s", "s", "rewrite.", "self_s"),
    ("rewrite.calls", "count", "rewrite.", "entries"),
    ("parsing.self_s", "s", ("parsing",), "self_s"),
    ("parsing.calls", "count", ("parsing",), "entries"),
    ("cli.self_s", "s", ("cli",), "self_s"),
    ("cli.commands", "count", ("cli",), "entries"),
    ("envelope.self_s", "s", ("envelope",), "self_s"),
    ("envelope.calls", "count", ("envelope",), "entries"),
)


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    agg = tracer.aggregate()
    counts = tracer.counts
    out = {}
    for metric, unit, names, field in PER_LAYER:
        if isinstance(names, str):
            names = [n for n in agg if n.startswith(names)]
        out[metric] = {"value": sum(agg[n][field] for n in names if n in agg), "unit": unit}

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    for metric, unit, value in (
            ("engine.terms_out", "count", counts["engine.terms_out"]),
            ("rewrite.systems_built", "count", counts["rewrite.systems_built"]),
            ("rewrite.reduce.steps", "count", counts["rewrite.reduce.steps"]),
            ("rewrite.basis_yield", "ratio", ratio("rewrite.basis_words",
                                                   "rewrite.basis_candidates")),
            ("rewrite.tasks_popped", "count", counts["rewrite.tasks_popped"]),
            ("rewrite.task_yield", "ratio", ratio("rewrite.tasks_added",
                                                  "rewrite.tasks_popped")),
            ("parsing.chars", "count", counts["parsing.chars"]),
            ("trace.overhead_s", "s", overhead_s)):
        out[metric] = {"value": value, "unit": unit}
    return out


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload {result['workload']} seed {result['seed']}: {result['rounds']} rounds of "
          f"{result['ops_per_round']} operations; attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for part, value in result["part_s"].items():
        print(f"  part {part:29s} {value:14.6g} s")
    for error in result["errors"][:20]:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *wls.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "confgsb")):
        print(f"run.py: no confgsb package under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, ok = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        return 0 if ok else 1
    # every workload in its own process, so each peak RSS is its own
    ok = True
    for name in wls.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        ok &= proc.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
