"""One workload in one fresh interpreter; started by ``perfbench/run.py``.

Modes:

setup
    import symidx, make the inputs, run one untimed warm-up op, report the
    moment it was ready and the processor's slowdown just after, and exit.
measure
    the same set-up, then whole passes over the workload's ops in a closed
    loop from this single thread: as many as took ``--seconds`` at the seed
    commit but at least ``MIN_PASSES``, a count the same on every commit;
    reports the end-to-end figures.  Every op is timed between two readings
    of ``speed.slowdown()`` and counts in seconds at the reference speed.
trace
    the same set-up and pass count, untraced and traced passes in turn,
    then one pass that measures the Jacobi residual's memory; reports the
    per-layer figures and the tracing overhead.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from time import perf_counter

import speed
import workloads

# Every op gets at least this many samples a run, however long its pass.
MIN_PASSES = 5
# A run that has not made its passes after this many seconds stops short,
# so that the whole benchmark call ends within its three minutes.
CAP_S = 120.0


@dataclass
class Pass:
    latencies: list  # seconds at the reference speed of ``speed``
    failures: list
    counters: dict
    digest: str
    slowdown: float  # the median of the pass's readings of the processor


def run_op(op):
    """(seconds, output, error message or None) of one op."""
    start = perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # noqa: BLE001 - an op that raises has failed
        out, error = "", f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return perf_counter() - start, out, error


def check_op(op, out, error):
    """(counters, error message or None) of one op's output."""
    if error is not None:
        return {}, error
    try:
        return op.check(out), None
    except Exception as exc:  # noqa: BLE001 - a malformed output fails too
        return {}, f"{type(exc).__name__}: {exc}"


def pass_count(wl, seconds: float) -> int:
    """Passes a run makes: as many as fill ``seconds`` at the seed commit's
    speed, and at least ``MIN_PASSES``.  The count does not depend on how
    fast the program under test is, so a faster commit gets no more samples
    per op than a slower one."""
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def run_pass(wl, tracer=None, number: int = 0) -> Pass:
    """One pass over ``wl.ops``; outputs are checked after it, outside its
    time.  Each op's time is divided by the mean slowdown read just before
    and just after it.  With a ``tracer``, its spans are labelled
    (``number``, op)."""
    results = []
    slowdowns = [speed.slowdown()]
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = (number, i)
        results.append(run_op(op))
        slowdowns.append(speed.slowdown())
    digest = hashlib.sha256()
    counters, failures = {}, []
    for op, (_, out, error) in zip(wl.ops, results):
        digest.update(out.encode())
        found, error = check_op(op, out, error)
        for key, value in found.items():
            counters[key] = counters.get(key, 0) + value
        if error is not None:
            failures.append(f"{op.name}: {error}")
    latencies = [2.0 * lat / (before + after) for (lat, _, _), before, after
                 in zip(results, slowdowns, slowdowns[1:])]
    return Pass(latencies, failures, counters, digest.hexdigest(),
                statistics.median(slowdowns))


def out_of_time(began: float) -> bool:
    """Whether a run has gone on so long that it must stop short of its
    pass count, to end within the benchmark's time limit."""
    if perf_counter() - began < CAP_S:
        return False
    print(f"stopping early: passes took over {CAP_S:.0f} s", file=sys.stderr)
    return True


def run_passes(wl, count: int):
    passes = []
    began = perf_counter()
    while len(passes) < count and not out_of_time(began):
        passes.append(run_pass(wl))
    return passes


def summary(passes):
    failures = [f for p in passes for f in p.failures]
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    digests = [p.digest for p in passes]
    return {
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "passes": len(passes),
        "ops": len(passes[0].latencies),
        "digest": digests[0],
        "distinct_digests": len(set(digests)),
        "slowdown": statistics.median(p.slowdown for p in passes),
    }


def typical(wl, passes):
    """Each op's median time over ``passes``, at the reference speed."""
    return [statistics.median(p.latencies[i] for p in passes)
            for i in range(len(wl.ops))]


def end_to_end(wl, passes):
    """Timings with every op at its median over the passes of the run.
    ``wall_s`` is the pass with every op at its median, and the op latency
    percentiles are taken over the ops of that pass."""
    times = typical(wl, passes)
    return {
        "wall_s": sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10,
                                                method="inclusive")[8],
        "largest_op_s": times[wl.largest],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(wl, count: int):
    """Untraced and traced passes in turn, ``count`` passes in all, then one
    pass for the Jacobi residual's memory; figures of the traced passes,
    and the tracing overhead as the difference between the two kinds of
    passes, each op at its median."""
    import tracing

    plain, traced, tracers = [], [], []
    began = perf_counter()
    while len(plain) + len(traced) < max(count, 2) and not out_of_time(began):
        if len(plain) == len(traced):
            plain.append(run_pass(wl))
            continue
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(wl, tracer, len(traced)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    memory = tracing.Tracer(memory=True)
    memory.install()
    try:
        last = run_pass(wl, memory)
    finally:
        memory.uninstall()
    peak = {k: v for k, v in tracing.aggregate(memory.spans).items()
            if k.endswith((".peak_mb", ".mb_computed"))}

    figures = []
    for tracer, p in zip(tracers, traced):
        fig = {f"{name}.{suffix}": 0.0 if suffix.endswith("ms") else 0
               for name in tracing.span_names()
               for suffix in ("ms", "self_ms", "calls", "failures")}
        fig.update({"liealg.jacobi_residual.peak_mb": 0.0,
                    "liealg.jacobi_residual.mb_computed": 0.0,
                    "cli.sweep.skipped_points": 0})
        fig.update(tracing.aggregate(tracer.spans))
        fig.update(peak)
        fig.update(p.counters)
        fig["trace.spans"] = len(tracer.spans)
        figures.append(fig)

    # counts are taken from the first traced pass; every pass has the same
    # inputs, so they must repeat exactly
    counts = [k for k in figures[0]
              if k.endswith((".calls", ".failures", ".skipped_points",
                             ".mb_computed")) or k == "trace.spans"]
    unsteady = [k for k in counts if any(f[k] != figures[0][k]
                                         for f in figures)]
    metrics = {k: (figures[0][k] if k in counts
                   else statistics.median(f[k] for f in figures))
               for k in figures[0]}
    untraced = sum(typical(wl, plain))
    traced_wall = sum(typical(wl, traced))
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - untraced) / untraced,
    })
    return plain + traced + [last], metrics, {"traced_passes": len(traced),
                                     "counts_not_repeating": unsteady}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    _, out, error = run_op(wl.ops[0])
    _, error = check_op(wl.ops[0], out, error)
    ready = time.monotonic()
    result = {"ready": ready, "ready_slowdown": speed.slowdown()}
    if error is not None:
        print(f"FAILED warm-up {wl.ops[0].name}: {error}", file=sys.stderr)
    if args.mode == "measure":
        passes = run_passes(wl, pass_count(wl, args.seconds))
        result.update(summary(passes), metrics=end_to_end(wl, passes))
    elif args.mode == "trace":
        passes, metrics, info = per_layer(wl, pass_count(wl, args.seconds))
        result.update(summary(passes), metrics=metrics, **info)
    if args.mode != "setup":
        # the warm-up op counts as attempted, and as failed if it failed
        result["attempted"] += 1
        result["failed"] += error is not None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
