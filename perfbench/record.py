"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py [--workloads NAME ...] [--seeds 1-10]
                                [--trace-seed N] [--out FILE]
                                [--against FILE]

From the root of a checkout this calls ``perfbench/run.py`` once per
workload and seed, one call at a time, and prints for each end-to-end
metric its median, its quartiles and their distance as a share of the
median (the spread), against the metric's bound in ``BENCHMARK.json``.
With ``--trace-seed`` it also makes two traced runs per workload with
that seed and checks that every count repeats exactly.  With ``--out`` it
writes all of it as JSON, together with the machine, the settings, the
commit and the sha256 of each run's output.  With ``--against FILE``, an
earlier ``--out``, it also checks that no median is worse than the one in
that file by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import run as bench


def seeds_arg(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(bench.HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    began = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          check=False)
    elapsed = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    digest = re.search(r"output sha256 ([0-9a-f]{64})", proc.stdout)
    result["sha256"] = digest.group(1)
    result["elapsed_s"] = elapsed
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    model = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg)
           for pkg in ("numpy", "scipy", "jsonschema")},
        "blas_threads": bench.speed.THREAD_ENV,
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    record = {"machine": machine(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "why": why[name],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "sha256_by_seed": {str(seed): r["sha256"]
                               for seed, r in zip(args.seeds, runs)},
            # how long each benchmark call took, set-up included
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "end_to_end": {},
        }
        print(f"{name}: {entry['failed']} of {entry['attempted']} ops failed")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats = spread([r["metrics"][key]["value"] for r in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"])
            entry["end_to_end"][key] = stats
            ok = stats["spread"] < metric["bound"] / 3
            steady = steady and ok
            print(f"  {key:<14} median {stats['median']:<12.6g} "
                  f"{metric['unit']:<4} spread {stats['spread']:.3f} "
                  f"bound {metric['bound']} {'' if ok else '<- unsteady'}")
            if name in earlier:
                then = earlier[name]["end_to_end"][key]["median"]
                change = (stats["median"] - then) / then
                if metric["better"] == "higher":
                    change = -change
                worse = change > metric["bound"]
                steady = steady and not worse
                print(f"  {'':<14} {100 * change:+.1f}% against "
                      f"{args.against} {'<- worse' if worse else ''}")
        if args.trace_seed is not None:
            traced = [run_once(name, args.trace_seed, seconds, 1)
                      for _ in range(2)]
            first, second = (t["metrics"] for t in traced)
            counts = [m["name"] for m in spec["per_layer"]
                      if m["unit"] == "count"]
            differ = [k for k in counts
                      if first[k]["value"] != second[k]["value"]]
            entry["trace"] = {
                "seed": args.trace_seed,
                "counts_repeat": not differ,
                "per_layer": {k: [first[k]["value"], second[k]["value"]]
                              for k in first},
            }
            print(f"  traced twice with seed {args.trace_seed}: counts "
                  + ("repeat exactly" if not differ
                     else "differ: " + ", ".join(differ)))
            steady = steady and not differ
        record["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
