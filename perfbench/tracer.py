"""Per-layer spans and counts, recorded from outside the program.

:func:`install` replaces selected functions of the ``factorindex`` modules
with timing (or counting) wrappers. A function is replaced at every module
attribute that holds it, so a caller that imported it by name
(``from .numkernel import sym_eigen``) and a caller that looks it up on
its module (``reports.ranking_csv``) both reach the wrapper. A target the
program no longer defines is skipped and its metrics read 0.

Spans are kept in memory; :meth:`Tracer.metrics` folds them into the
per-layer metrics after the invocation has finished, so the derived
figures (eigen residual, row counts) cost nothing inside the timed run.
"""

import functools
import inspect
import sys
import time

import numpy as np

# (defining module, function, span name). Spans named "<layer>.<function>"
# report their inclusive time as "<layer>.<function>_s".
SPANS = (
    ("cli", "_build_config", "config.build"),
    ("pipeline", "run_pipeline", "pipeline.run"),
    ("pipeline", "run_compare", "pipeline.run"),
    ("dataset", "load_csv", "dataset.load_csv"),
    ("dataset", "standardize", "dataset.standardize"),
    ("factors", "build_factor_model", "factors.build_factor_model"),
    ("factors", "correlation_matrix", "factors.correlation_matrix"),
    ("factors", "extract_pca", "factors.extract_pca"),
    ("factors", "varimax", "factors.varimax"),
    ("factors", "kmo", "factors.kmo"),
    ("factors", "score_coefficients", "factors.score_coefficients"),
    ("factors", "factor_scores", "factors.factor_scores"),
    ("numkernel", "sym_eigen", "numkernel.sym_eigen"),
    ("numkernel", "invert_spd", "numkernel.invert_spd"),
    ("numkernel", "t_quantile", "numkernel.t_quantile"),
    ("ranking", "rank_by_factor", "ranking.rank_by_factor"),
    ("ranking", "with_groups", "ranking.with_groups"),
    ("inference", "compare_groups", "inference.compare_groups"),
)
# Called tens of thousands of times per run: counted, never timed.
COUNTS = (("numkernel", "reg_incomplete_beta", "numkernel.reg_incomplete_beta_calls"),)

TIMED = (
    "config.build", "dataset.load_csv", "dataset.standardize",
    "factors.correlation_matrix", "factors.extract_pca", "factors.varimax",
    "factors.kmo", "factors.score_coefficients", "factors.factor_scores",
    "numkernel.sym_eigen", "numkernel.t_quantile",
    "ranking.rank_by_factor", "ranking.with_groups", "inference.compare_groups",
)
CALLED = ("numkernel.sym_eigen", "numkernel.invert_spd", "numkernel.t_quantile")

# Every metric the traced run reports, in report order.
METRICS = (
    tuple(f"{name}_s" for name in TIMED)
    + tuple(f"{name}_calls" for name in CALLED)
    + tuple(name for _, _, name in COUNTS)
    + ("dataset.cells_parsed", "dataset.rows_dropped", "factors.varimax_sweeps",
       "numkernel.eigen_residual", "inference.variables_compared",
       "reports.emit_s", "reports.bytes", "pipeline.self_s")
)


class Tracer:
    """Spans of one CLI invocation: name, start, end, parent, and result."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.results = []      # (name, fn, args, kwargs, result) for derived metrics
        self.counts = {}
        self._stack = []

    def span(self, name, fn, keep_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if keep_result:
                self.results.append((name, fn, args, kwargs, result))
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def metrics(self, out_dir_bytes):
        """Per-layer metrics; ``out_dir_bytes`` is the size of all artifacts."""
        values = {name: 0.0 if name.endswith(("_s", "residual")) else 0
                  for name in METRICS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            if name in TIMED:
                values[f"{name}_s"] += duration
            if name in CALLED:
                values[f"{name}_calls"] += 1
            if name == "pipeline.run":
                values["pipeline.self_s"] += duration - child_time[index]
            if name.startswith("reports.") and (
                    parent is None or not self.spans[parent][0].startswith("reports.")):
                values["reports.emit_s"] += duration
        values.update(self.counts)
        for name, fn, args, kwargs, result in self.results:
            if name == "dataset.load_csv":
                rows = _data_rows(_first_argument(fn, args, kwargs))
                values["dataset.cells_parsed"] += rows * len(result.indicator_names)
                values["dataset.rows_dropped"] += rows - len(result.case_ids)
            elif name == "factors.varimax":
                values["factors.varimax_sweeps"] += int(getattr(result, "sweeps", 0))
            elif name == "numkernel.sym_eigen":
                values["numkernel.eigen_residual"] = max(
                    values["numkernel.eigen_residual"],
                    _eigen_residual(_first_argument(fn, args, kwargs), result))
            elif name == "inference.compare_groups":
                values["inference.variables_compared"] += len(result.variables)
        values["reports.bytes"] = out_dir_bytes
        return values


def _first_argument(fn, args, kwargs):
    """The first parameter's value in a call, passed by position or keyword."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return next(iter(bound.arguments.values()))


def _data_rows(path):
    """Non-blank data rows of a CSV file (the header excluded)."""
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip(", \r\n")) - 1


def _eigen_residual(matrix, decomp):
    """max |A V - V diag(w)| of one eigendecomposition."""
    vals = getattr(decomp, "eigenvalues", None)
    vecs = getattr(decomp, "eigenvectors", None)
    if vals is None or vecs is None:
        return 0.0
    a = np.asarray(matrix, dtype=float)
    return float(np.max(np.abs(a @ vecs - vecs * vals)))


def install(package="factorindex"):
    """Wrap the traced functions of an imported package; return the tracer."""
    tracer = Tracer()
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    reports = sys.modules.get(f"{package}.reports")
    targets = [(module, fn, name, "span") for module, fn, name in SPANS]
    targets += [(module, fn, name, "count") for module, fn, name in COUNTS]
    if reports is not None:
        targets += [("reports", fn, f"reports.{fn}", "span")
                    for fn, obj in sorted(vars(reports).items())
                    if callable(obj) and not fn.startswith("_")
                    and getattr(obj, "__module__", None) == reports.__name__]
    keep = {"dataset.load_csv", "factors.varimax", "numkernel.sym_eigen",
            "inference.compare_groups"}
    for module_name, fn_name, name, kind in targets:
        owner = sys.modules.get(f"{package}.{module_name}")
        original = getattr(owner, fn_name, None)
        if original is None:
            continue
        if kind == "count":
            wrapper = tracer.counter(name, original)
        else:
            wrapper = tracer.span(name, original, name in keep)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return tracer
