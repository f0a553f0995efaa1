"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 20 [--workload NAME ...]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json. Runs go one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=name, seed=seed,
                          wall_s=time.perf_counter() - start)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()), flush=True)
        mine = [r for r in runs if r["workload"] == name]
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in mine]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name} {metric}: median {median:.4g} quartiles {q1:.4g}-{q3:.4g} "
                  f"spread {(q3 - q1) / median:.3%} (bound {bound:.0%})")
        shares = {r["failed"] / r["attempted"] for r in mine}
        print(f"  {name} failed share(s): {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in mine)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
