"""Benchmark of the ``factorindex`` CLI on seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze-wide --seed 1 --seconds 20 --trace 0

One operation is one CLI invocation in a fresh child interpreter. The run
generates the workload's input from ``--seed``, then invokes the CLI until
``--seconds`` have passed (at least ``MIN_ROUNDS`` times), timing a few
fresh imports for the set-up time after each invocation. It checks the
artifacts against computations made
apart from the program, and prints one JSON line as its last line of
output. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced invocations and reports the per-layer
metrics plus the tracing overhead. See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

MIN_ROUNDS = 3
# Fresh-interpreter imports for setup_s after each invocation, so that they
# sample the whole run and not only the seconds before it.
SETUP_STARTS = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 150

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def child_env():
    """The program sees its own source tree and one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def time_setup(cwd):
    """Wall time of one fresh interpreter importing the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import factorindex.cli"], env=child_env(),
                   cwd=cwd, check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def invoke(workload, out_dir, trace, cwd):
    """One CLI invocation into a fresh, empty ``out_dir``.

    Returns ``(record, stderr, artifacts)``; ``record`` is None when the
    invocation failed, and ``artifacts`` maps file name to bytes.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    command = [sys.executable, CHILD, SRC, "1" if trace else "0", out_dir, "--"]
    command += workload.argv(out_dir)
    try:
        proc = subprocess.run(command, env=child_env(), cwd=cwd, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out", {}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr, {}
    record = json.loads(lines[-1])
    if record["code"] != 0:
        return None, proc.stderr, {}
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            artifacts[name] = fh.read()
    return record, proc.stderr, artifacts


def _digest(artifacts):
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}


class Run:
    """Invocations of one workload and what they have shown so far."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None   # (digest, artifacts, stderr) of the first success

    def invoke(self, trace):
        self.attempted += 1
        record, stderr, artifacts = invoke(self.workload, self.out_dir, trace,
                                           self.work_dir)
        if record is None:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {stderr.strip()[-500:]}",
                  file=sys.stderr)
            return None
        print(f"invocation {self.attempted} (trace={int(trace)}): "
              f"run_s={record['run_s']:.4f} peak_rss_mb={record['peak_rss_mb']:.2f}",
              file=sys.stderr)
        digest = _digest(artifacts)
        if self.reference is None:
            self.reference = (digest, artifacts, stderr)
        elif digest != self.reference[0]:
            self.problems.append(
                f"invocation {self.attempted} (trace={int(trace)}) wrote other bytes "
                "than the first invocation")
        return record

    def check(self):
        """Check the first successful invocation's artifacts; return ``correct``."""
        if self.reference is not None:
            _, artifacts, stderr = self.reference
            try:
                checks.check_invocation(self.workload, artifacts, stderr, self.out_dir)
            except checks.CheckFailed as exc:
                self.problems.append(str(exc))
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return not self.problems


def _metrics(values):
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def measure(run, seconds, scale):
    """End-to-end metrics from untraced invocations."""
    time_setup(run.work_dir)    # discarded: the first start fills the file cache
    setup, records = [], []
    start = time.perf_counter()
    while run.attempted < MIN_ROUNDS or time.perf_counter() - start < seconds:
        record = run.invoke(trace=False)
        if record is not None:
            records.append(record)
        setup += [time_setup(run.work_dir) for _ in range(SETUP_STARTS[scale])]
    if not records:
        return None
    return _metrics({
        "run_s": statistics.median(r["run_s"] for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    })


def measure_layers(run, seconds):
    """Per-layer metrics from traced invocations, alternated with untraced ones."""
    plain, traced = [], []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        for trace, records in ((False, plain), (True, traced)):
            record = run.invoke(trace=trace)
            if record is not None:
                records.append(record)
    if not plain or not traced:
        return None
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in tracer.METRICS}
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in plain))
    return _metrics(values)


def run_workload(name, seed, seconds, trace, scale="full"):
    """Generate, invoke, check; return the result object that is printed."""
    workload = workloads.generate(name, seed, scale)
    work_dir = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
    try:
        workloads.write_inputs(workload, os.path.join(work_dir, "input"))
        run = Run(workload, work_dir)
        metrics = measure_layers(run, seconds) if trace else measure(run, seconds, scale)
        if metrics is None:
            raise SystemExit(f"{name}: no metrics, because the invocations "
                             "they come from all failed")
        correct = run.check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=tuple(SETUP_STARTS),
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "factorindex", "cli.py")):
        print(f"error: no factorindex source tree at {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
