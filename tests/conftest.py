import csv
import subprocess

import numpy as np
import pytest

from factorindex import dataset
from factorindex.dataset import IndicatorDataset


def make_table(n=88, p=34, n_factors=5, noise=0.45, seed=2024):
    """Synthetic cases-by-indicators table with a known factor structure."""
    rng = np.random.RandomState(seed)
    lam = np.zeros((p, n_factors))
    for j in range(p):
        lam[j, j % n_factors] = 0.75 + 0.1 * rng.rand()
    x = rng.randn(n, n_factors) @ lam.T + noise * rng.randn(n, p)
    x = x * (1.0 + 2.0 * rng.rand(p)) + 10.0 * rng.rand(p)
    ids = tuple(f"Community_{i:02d}" for i in range(1, n + 1))
    names = tuple(f"Ind{j:02d}" for j in range(p))
    return ids, names, x


def planted_structure(seed=2024, n=88, p=12, n_factors=3, loading=0.8, noise=0.3):
    """Simple-structure generator: block loadings plus Gaussian noise."""
    rng = np.random.RandomState(seed)
    block = p // n_factors
    gen = np.zeros((p, n_factors))
    for j in range(p):
        gen[j, min(j // block, n_factors - 1)] = loading
    x = rng.randn(n, n_factors) @ gen.T + noise * rng.randn(n, p)
    return gen, x


def dataset_from(ids, names, values):
    return IndicatorDataset(tuple(ids), tuple(names), np.asarray(values, dtype=float))


def tied_groups(seed, sizes, p=100):
    """Ids and values of two groups of ``sizes`` cases on ``p`` variables.

    Each group's column holds two random values, each in half its cases and
    in random order. So the absolute deviations from either center (mean or
    median) are all equal in exact arithmetic: two groups of 2 are any draw,
    and larger groups are balanced two-valued, such as [a, a, b, b].
    """
    rng = np.random.default_rng(seed)
    blocks = [rng.permuted(np.repeat(rng.standard_normal((2, p)), n // 2, axis=0),
                           axis=0) for n in sizes]
    values = np.vstack(blocks) * 10.0 ** rng.uniform(-3, 3, p) + rng.uniform(-50, 50, p)
    return tuple(f"c{i}" for i in range(sum(sizes))), values


def write_table_csv(path, ids, names, values):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["community"] + list(names))
        for cid, row in zip(ids, values):
            writer.writerow([cid] + [repr(float(v)) for v in row])
    return str(path)


def record_workers(monkeypatch):
    """The list that each process ``subprocess.Popen`` starts is appended to."""
    started = []
    popen = subprocess.Popen

    def recording(command, **kwargs):
        started.append(popen(command, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    return started


def force_split(monkeypatch):
    """Make ``load_csv`` split every regular file it can, as on two CPUs;
    return the list of the worker processes it starts."""
    monkeypatch.setattr(dataset, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(dataset, "_cpus", lambda: 2)
    return record_workers(monkeypatch)


@pytest.fixture(scope="session")
def synthetic_table():
    return make_table()


@pytest.fixture()
def synthetic_csv(tmp_path, synthetic_table):
    ids, names, values = synthetic_table
    return write_table_csv(tmp_path / "table.csv", ids, names, values)


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_table):
    return dataset_from(*synthetic_table)
