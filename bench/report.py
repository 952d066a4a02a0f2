"""Run the benchmark over several seeds and print every metric with its unit.

    python3 bench/report.py                          # every workload, seeds 1-10
    python3 bench/report.py --workloads verify --seeds 1-5 --trace 1
    python3 bench/report.py --compare ../parent      # alternating pairs

Each run is `bench/run.py` in a fresh process, one at a time.  For every
workload and metric the table gives the median, the quartiles and the
quartile spread as a share of the median, and failed_frac, the failed
operations over the attempted ones.  With --compare, the same runs are made
in a second checkout (which must hold the same bench/ directory) in
alternating order, and the table adds that side's median, the ratio of the
medians and how many pairs this checkout won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit("run failed: %s (in %s)" % (" ".join(cmd), root))
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def better(spec, a, b):
    """True when value a is better than value b for this metric."""
    if spec is None or a == b:
        return False
    return a > b if spec["better"] == "higher" else a < b


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", default=None,
                   help="root of a second checkout to alternate with")
    args = p.parse_args(argv)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = parse_seeds(args.seeds)
    sides = [ROOT] + ([os.path.abspath(args.compare)] if args.compare else [])

    for workload in args.workloads.split(","):
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                runs[side].append(run_once(side, workload, seed,
                                           bench["run_seconds"], args.trace))
        report(workload, runs, sides, specs)
    return 0


def report(workload, runs, sides, specs):
    mine = runs[sides[0]]
    attempted = sum(r["attempted"] for r in mine)
    failed = sum(r["failed"] for r in mine)
    print("== %s: %d runs, failed_frac %.6g (%d of %d), all correct: %s"
          % (workload, len(mine), failed / attempted, failed, attempted,
             all(r["correct"] for r in mine)))
    head = "%-42s %-8s %12s %12s %12s %7s" % (
        "metric", "unit", "median", "q1", "q3", "spread")
    if len(sides) > 1:
        head += " %12s %7s %5s" % ("other", "ratio", "wins")
    print(head)
    for name, m in mine[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in mine]
        med, q1, q3, spread = summary(vals)
        line = "%-42s %-8s %12.6g %12.6g %12.6g %7.3f" % (
            name, m["unit"], med, q1, q3, spread)
        if len(sides) > 1:
            other = [r["metrics"][name]["value"] for r in runs[sides[1]]]
            omed = summary(other)[0]
            wins = sum(better(specs.get(name), a, b)
                       for a, b in zip(vals, other))
            line += " %12.6g %7.3f %2d/%-2d" % (
                omed, med / omed if omed else float("nan"), wins, len(vals))
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
