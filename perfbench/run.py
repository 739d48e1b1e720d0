#!/usr/bin/env python3
"""The repository benchmark's entry point.

Builds the engine library and the benchmark from source into .bench_build/
(Release, no compiler cache), then runs one workload:

    python3 perfbench/run.py --workload cm2_inproc --seed 1 --seconds 20 --trace 0

The benchmark's stdout ends with one JSON line ({"correct", "attempted",
"failed", "metrics"}); the full record of the run (core budget, inputs,
per-repetition GPGPU byte shares, bound_by) is written to
.bench_build/results/<workload>-seed<n>-trace<t>.json.

Other modes:
    --selftest          build and run the benchmark's own tests
    --report            run every workload (or --workloads a,b) once per seed
                        over --seeds N seeds, --sets K times over, and print,
                        per metric and set, the median, quartiles, spread
                        (IQR / median) and how much worse the median is than
                        the first set's, against the bound in BENCHMARK.json;
                        a spread or a change over the bound is flagged
                        UNRESOLVED
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1), "--target"]
        + targets,
        check=True, stdout=sys.stderr)


def commit_id():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary; returns (result line dict, record dict)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit_id(), "--out", record]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    with open(record) as f:
        return json.loads(lines[-1]), json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def counted(shares):
    """'0.044x117 0.214x1': each distinct GPGPU byte share with its count."""
    counts = {}
    for x in shares:
        key = f"{x:.3f}"
        counts[key] = counts.get(key, 0) + 1
    return " ".join(f"{k}x{n}" for k, n in counts.items())


def run_set(w, seeds, seconds, trace, names):
    """Runs `w` once per seed; returns ({metric: [values]}, per-run records)."""
    values = {n: [] for n in names}
    records = []
    for seed in seeds:
        line, record = run_once(w, seed, seconds, trace, echo=False)
        for n in names:
            values[n].append(line["metrics"][n]["value"])
        records.append(record)
        print(f"{w} seed {seed}: correct={line['correct']} " + " ".join(
            f"{n}={line['metrics'][n]['value']:.4g}" for n in names), flush=True)
    return values, records


def report(args):
    """Runs --sets sets of --seeds runs per workload. Flags UNRESOLVED any
    metric whose spread (IQR / median) in a set exceeds its bound, and any
    whose median in a later set is worse than in the first by more than its
    bound; returns 1 if anything was flagged."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    names = [m["name"] for m in metrics]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    sets = []
    for k in range(args.sets):
        print(f"\n=== set {k + 1} of {args.sets}", flush=True)
        sets.append({w: run_set(w, seeds, seconds, args.trace, names)
                     for w in workloads})

    summary = {}
    unresolved = 0
    for w in workloads:
        print(f"\n== {w}: {args.sets} set(s) of {args.seeds} runs, {seconds} s "
              f"each, trace={args.trace}")
        print(f"  {'metric':28s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'vs set 1':>9s} {'bound':>6s}")
        summary[w] = {}
        for name in names:
            bound = bounds[name]
            first_median = None
            summary[w][name] = []
            for k, results in enumerate(sets):
                vals = results[w][0][name]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                if first_median is None:
                    first_median = med
                # How much worse this set's median is than the first set's.
                worse = 0.0
                if first_median:
                    change = med / first_median - 1
                    worse = change if better[name] == "lower" else -change
                flag = ""
                if bound is not None and (spread > bound or worse > bound):
                    flag = "  UNRESOLVED"
                    unresolved += 1
                elif bound is not None and spread > bound / 3:
                    flag = "  above bound/3"
                print(f"  {name:28s} {k + 1:3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:8.3f} {worse:+9.3f} "
                      f"{bound if bound is not None else '-':>6}{flag}")
                summary[w][name].append({"median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "worse": worse,
                                         "values": vals})
        for k, results in enumerate(sets):
            records = results[w][1]
            print(f"  set {k + 1} error_rate per run: "
                  + " ".join(f"{r['error_rate']:.3g}" for r in records))
            print(f"  set {k + 1} core.gpu_byte_share per repetition, per run:")
            for seed, r in zip(seeds, records):
                print(f"    seed {seed}: {counted(r['gpu_byte_share_per_rep'])}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"report-trace{args.trace}.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\n{unresolved} metric x workload x set entries UNRESOLVED")
    return 1 if unresolved else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--report", action="store_true")
    p.add_argument("--workloads", help="comma-separated subset for --report")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, default=1,
                   help="sets of --seeds runs for --report; sets after the "
                        "first are compared with it")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    build(["perfbench"])
    if args.report:
        return report(args)
    if not args.workload or args.seconds <= 0:
        p.error("--workload and --seconds are required")
    run_once(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
