"""Check that every ``raise`` in the package runs under the tier-1 tests.

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``,
since the standard library has no coverage tool, and records every line
executed in ``src/factorindex``. Then it lists each ``raise`` statement
and each ``reject(...)`` call there that never ran, and exits 1 if there
is any (or if the suite itself fails). A statement counts as run when any
of its lines ran.

Only this process is traced: code that runs only in a subprocess, such as
the split parse's worker (``python -I -S _rows.py``) or a test that runs
the CLI as a program, is out of its reach.

Run from anywhere, with pytest installed::

    python tools/raise_audit.py
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "factorindex")


def audited_statements(path):
    """``(first line, last line)`` of each raise and ``reject(...)`` call."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "reject"):
            yield node.lineno, node.end_lineno


def traced_suite():
    """Run the tier-1 suite under a line tracer; return ``(exit code, lines
    run per package file)``."""
    import pytest

    hits = {}
    audited = {}  # co_filename -> the set its lines go into, or None

    def lines_of(filename):
        if filename not in audited:
            path = os.path.realpath(filename)
            audited[filename] = (hits.setdefault(path, set())
                                 if os.path.dirname(path) == PACKAGE else None)
        return audited[filename]

    def on_call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main():
    code, hits = traced_suite()
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        ran = hits.get(os.path.realpath(path), set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for first, last in audited_statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                missed.append(f"src/factorindex/{name}:{first}: "
                              f"{source[first - 1].strip()}")
    if code != 0:
        print(f"raise audit: the tests failed (pytest exit {code})")
        return 1
    for line in sorted(set(missed)):
        print(line)
    print(f"raise audit: {len(set(missed))} raise statement(s) or reject() "
          "call(s) never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
