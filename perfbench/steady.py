"""Run the benchmark over several seeds and report each metric's spread.

Usage: python3 perfbench/steady.py [--workloads A,B] [--seeds 0-9]
                                   [--baseline FILE]

Runs `run.py --trace 0` once per (workload, seed), one process at a time,
with the run length from BENCHMARK.json.  For every end-to-end metric it
prints the median over seeds, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, next to a third of the metric's bound: a
benchmark is steady when every spread stays below it.  The exit code is 1
when one does not.

--baseline also runs seed 0 traced and writes, per workload, the full
seed-0 records of both runs (medians, quartiles, wall times, noise,
per-layer split) and the spreads over the seeds to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, trace):
    """Last-line result and the full record run.py wrote for this run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    record = os.path.join(ROOT, ".perfbench_out",
                          f"result-{workload}-trace{trace}.json")
    with open(record) as fh:
        return json.loads(lines[-1]), json.load(fh)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--baseline", default=None,
                        help="write the seed-0 records and the spreads here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    steady = True
    for workload in args.workloads.split(","):
        values, entry = {}, {}
        for seed in seed_list(args.seeds):
            result, record = run_once(spec, workload, seed, 0)
            if seed == 0:
                entry["seed0_trace0"] = record
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)
        print(f"{workload}: metric median q1 q3 spread bound/3")
        entry["seeds"] = {"seeds": args.seeds}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            third = bounds[name] / 3
            ok = spread < third
            steady &= ok
            entry["seeds"][name] = {"values": vals, "median": med, "q1": q1,
                                    "q3": q3, "spread": spread}
            print(f"  {name:<24} {med:<12.6g} {q1:<12.6g} {q3:<12.6g} "
                  f"{spread:<8.4f} {third:.4f}"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        if args.baseline:
            _, entry["seed0_trace1"] = run_once(spec, workload, 0, 1)
        baseline[workload] = entry
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
