"""Seeded input tables and CLI invocations for the benchmark workloads.

Each workload is one ``factorindex`` CLI invocation on one generated
table. The generator keeps its own float64 matrix, so the checks can
recompute every statistic from it without reading the CSV back; values
are written with ``repr``, which round-trips exactly.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

FORMATS = ("json", "csv", "text")

# Shapes per scale. "full" is what the benchmark measures; "tiny" runs the
# same code paths in well under a second, for the benchmark's own tests.
SIZES = {
    "analyze-wide": {
        "full": {"n": 2000, "p": 120, "factors": 6},
        "tiny": {"n": 300, "p": 18, "factors": 3},
    },
    "compare-tall": {
        "full": {"n": 25000, "p": 40, "factors": 4, "group": 3000},
        "tiny": {"n": 400, "p": 10, "factors": 2, "group": 40},
    },
    "rank-tall": {
        "full": {"n": 50000, "p": 12, "factors": 3, "k": 25, "ties": 20},
        "tiny": {"n": 400, "p": 6, "factors": 2, "k": 10, "ties": 3},
    },
}
NAMES = tuple(SIZES)

# Share of compare-tall rows that get one blank cell.
BLANK_ROW_SHARE = 0.02


@dataclass
class Workload:
    """A generated input plus everything the checks need to judge the output."""

    name: str
    command: str
    case_ids: tuple
    indicator_names: tuple
    values: np.ndarray              # n x p, NaN where the CSV cell is blank
    planted: np.ndarray             # p x k generating loadings
    options: dict                   # the settings passed to the CLI
    group1_ids: tuple = ()
    group2_ids: tuple = ()
    blanked_ids: tuple = ()
    files: dict = field(default_factory=dict)

    def argv(self, out_dir):
        """The CLI arguments of one invocation writing into ``out_dir``."""
        if self.command == "compare":
            return ["compare", "--config", self.files["config"], "--out-dir", out_dir]
        args = [self.command, "--input", self.files["table"], "--out-dir", out_dir]
        if self.command == "rank":
            args += ["--direction", self.options["direction"],
                     "--k", str(self.options["k"])]
        for fmt in FORMATS:
            args += ["--format", fmt]
        return args


def _planted_matrix(rng, n, p, k):
    """Block simple structure: variable j loads on factor j * k // p only.

    Loadings lie in [0.65, 0.85], so every communality exceeds 0.4 and the
    noise eigenvalues of R stay well below 1 at these n/p ratios: the
    Kaiser rule retains exactly ``k`` factors on every seed.
    """
    lam = np.zeros((p, k))
    lam[np.arange(p), np.arange(p) * k // p] = rng.uniform(0.65, 0.85, p)
    unique = np.sqrt(1.0 - np.sum(lam * lam, axis=1))
    x = rng.standard_normal((n, k)) @ lam.T + rng.standard_normal((n, p)) * unique
    x = x * rng.uniform(0.5, 20.0, p) + rng.uniform(-50.0, 200.0, p)
    return lam, x


def generate(name, seed, scale="full"):
    """Build workload ``name`` for ``seed`` in memory (nothing is written)."""
    size = SIZES[name][scale]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    n, p, k = size["n"], size["p"], size["factors"]
    lam, x = _planted_matrix(rng, n, p, k)
    names = tuple(f"ind{j:03d}" for j in range(p))

    if name == "analyze-wide":
        ids = tuple(f"C{i:05d}" for i in range(n))
        return Workload(name, "analyze", ids, names, x, lam, {"k": 10})

    if name == "rank-tall":
        ids = tuple(f"R{i:06d}" for i in range(n))
        # Exact duplicate rows under other ids give tied scores, so the
        # id tie-break of the ranking is exercised.
        rows = rng.choice(n, size=2 * size["ties"], replace=False)
        x[rows[1::2]] = x[rows[0::2]]
        return Workload(name, "rank", ids, names, x, lam,
                        {"direction": "descending", "k": size["k"]})

    # compare-tall: two disjoint groups of complete rows, a mean shift on
    # the first fifth of the variables and a variance inflation on the
    # second fifth, so both t-test variants get reported; a few rows
    # outside the groups get one blank cell each.
    ids = tuple(f"T{i:06d}" for i in range(n))
    order = rng.permutation(n)
    g = size["group"]
    rows1, rows2 = order[:g], order[g:2 * g]
    blanked = np.sort(order[2 * g:2 * g + int(round(BLANK_ROW_SHARE * n))])
    fifth = max(1, p // 5)
    sd = x.std(axis=0)
    x[rows1, :fifth] += 0.12 * sd[:fifth]
    middle = x[:, fifth:2 * fifth].mean(axis=0)
    x[rows2, fifth:2 * fifth] = middle + 1.35 * (x[rows2, fifth:2 * fifth] - middle)
    x[blanked, rng.integers(0, p, blanked.size)] = np.nan
    return Workload(
        name, "compare", ids, names, x, lam,
        {"missing_policy": "listwise", "standardize_scope": "all"},
        group1_ids=tuple(ids[i] for i in rows1),
        group2_ids=tuple(ids[i] for i in rows2),
        blanked_ids=tuple(ids[i] for i in blanked),
    )


def write_inputs(workload, directory):
    """Write the table (and the compare config) into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    table = os.path.join(directory, "table.csv")
    with open(table, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(workload.indicator_names))
        for cid, row in zip(workload.case_ids, workload.values.tolist()):
            writer.writerow([cid] + ["" if v != v else repr(v) for v in row])
    workload.files["table"] = table
    if workload.command == "compare":
        config = os.path.join(directory, "config.json")
        document = {
            "input": table,
            "missing_policy": workload.options["missing_policy"],
            "comparison": {
                "group1": list(workload.group1_ids),
                "group2": list(workload.group2_ids),
                "standardize_scope": workload.options["standardize_scope"],
            },
            "output": {"formats": list(FORMATS)},
        }
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        workload.files["config"] = config
    return workload
