"""One CLI invocation in a fresh interpreter, timed from inside.

Usage: ``python child.py SRC_DIR TRACE OUT_DIR -- CLI_ARGS...``

Imports ``factorindex`` from ``SRC_DIR`` (and refuses any other copy),
optionally installs the tracer, times ``cli.main(CLI_ARGS)`` and prints
one JSON line: the exit code, ``run_s``, the process's peak resident
memory, and with ``TRACE`` = 1 the per-layer metrics.

The peak is ``VmHWM`` of this process's own address space, which exec
starts afresh. ``ru_maxrss`` would not do: on Linux it carries over the
high-water mark of the process that spawned this one.
"""

import json
import os
import sys
import time


def peak_rss_mb():
    """High-water resident memory of this address space, in MB (10**6 bytes)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    src, trace, out_dir = argv[1], argv[2] == "1", argv[3]
    cli_args = argv[argv.index("--") + 1:]
    import factorindex.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"factorindex was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    run_s = time.perf_counter() - start
    result = {"code": code, "run_s": run_s, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None and code == 0:
        size = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        result["layers"] = tracer.metrics(size)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
