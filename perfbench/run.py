"""Benchmark of the symidx package in ``src/``, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see ``BENCHMARK.json``):
sphere-ladder, catalog-sweep, document-index, verify-oracle.

Each workload runs in fresh interpreters started one at a time, with
single-threaded BLAS, in a closed loop from one thread.  With ``--trace 0``
the set-up (interpreter start, ``import symidx``, input generation, one
warm-up op) is timed in several fresh interpreters, and one of them
measures whole passes: as many as took about ``--seconds`` on the seed
commit, and at least five, a count the same on every commit (a workload
with long passes thus measures for longer than ``--seconds``).  Every
gated time is in seconds at the reference speed of ``speed.py``: divided
by how much slower than that a fixed kernel ran just before and just
after it, which takes out the slowdown that neighbours on a shared host
cause.  The end-to-end metrics are printed.  With ``--trace 1`` the
import breakdown comes from ``python -X importtime -c "import symidx"``,
and one interpreter runs untraced and traced passes in turn; the
per-layer metrics are printed.  Every op's output is checked.  The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.

The program receives only the generated inputs; the workload's seed never
reaches it.  Scratch files go to ``.perfbench-work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
IMPORT_PACKAGES = ("symidx", "scipy", "jsonschema")
DEADLINE_S = 170.0
# Printed with the end-to-end metrics but not in BENCHMARK.json: every gated
# metric must be steady on every workload, and the sphere ladder's seven ops
# of very different sizes give no steady percentile.
PRINTED_ONLY = ({"name": "op_p50_ms", "unit": "ms"},
                {"name": "op_p90_ms", "unit": "ms"})


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **speed.THREAD_ENV)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list, env: dict, deadline: float, **kwargs):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv))
    try:
        return subprocess.run(argv, env=env, timeout=remaining, text=True,
                              check=False, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv)}") from None


def run_worker(args, mode: str, workdir: str, env: dict, deadline: float):
    """(result dict, seconds from spawn until the worker was ready, at the
    reference speed)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode,
            "--workdir", workdir]
    before = speed.slowdown()
    spawned = time.monotonic()
    proc = run_child(argv, env, deadline, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(lines[-1])
    slowdown = (before + result["ready_slowdown"]) / 2.0
    return result, (result["ready"] - spawned) / slowdown


def import_times(stderr: str) -> dict:
    """Milliseconds to import each package of ``IMPORT_PACKAGES`` and what
    it pulled in, from ``-X importtime`` output: the cumulative times of
    its outermost modules."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    stack = []  # ancestors of the current entry, read in import order
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += cumulative / 1e3
        stack.append((depth, name))
    return {f"import.{pkg}.ms": ms for pkg, ms in totals.items()}


def import_breakdown(env: dict, deadline: float) -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import symidx"], env, deadline,
                         stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise BenchError("import symidx failed:\n" + proc.stderr)
        samples.append(import_times(proc.stderr))
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def measure(args, spec, workdir, env, deadline):
    # set-up interpreters before and after the measuring one, so that the
    # samples spread over the run like the passes do
    before = SETUP_SAMPLES // 2
    setups = [run_worker(args, "setup", workdir, env, deadline)[1]
              for _ in range(before)]
    result, setup = run_worker(args, "measure", workdir, env, deadline)
    setups.append(setup)
    setups += [run_worker(args, "setup", workdir, env, deadline)[1]
               for _ in range(SETUP_SAMPLES - 1 - before)]
    result["metrics"]["setup_s"] = statistics.median(setups)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"{result['ops']} ops, each the median of "
                  f"{result['passes']} passes",
        "op_p50_ms": f"over {result['ops']} ops, each the median of "
                     f"{result['passes']}",
        "op_p90_ms": f"over {result['ops']} ops, each the median of "
                     f"{result['passes']}",
        "largest_op_s": f"median of {result['passes']}",
        "peak_rss_mb": "ru_maxrss of the measuring interpreter",
    }
    return result, spec["end_to_end"] + list(PRINTED_ONLY), notes


def trace(args, spec, workdir, env, deadline):
    imports = import_breakdown(env, deadline)
    result, _ = run_worker(args, "trace", workdir, env, deadline)
    result["metrics"].update(imports)
    if result["counts_not_repeating"]:
        print("counts that differ between traced passes: "
              + ", ".join(result["counts_not_repeating"]), file=sys.stderr)
    notes = {key: f"median of {IMPORT_SAMPLES} runs" for key in imports}
    return result, spec["per_layer"], notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "symidx", "__init__.py")):
        print("error: no symidx package under src/; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = os.path.join(os.getcwd(), ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        run = trace if args.trace else measure
        result, wanted, notes = run(args, spec, workdir, worker_env(),
                                    deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    gated = [m for m in wanted if m not in PRINTED_ONLY]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("error: no figure for " + ", ".join(missing), file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes, {attempted} ops attempted, "
          f"{failed} failed (fail_ratio {failed / attempted:.4g}); the "
          f"processor ran {result['slowdown']:.3g} times slower than the "
          f"reference speed")
    for m in wanted:
        note = notes.get(m["name"], "")
        if m in PRINTED_ONLY:
            note += " (printed only)"
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']:<6}"
              f" {note}")
    print(f"  output sha256 {result['digest']} (first pass; "
          f"{result['distinct_digests']} distinct over {result['passes']})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
