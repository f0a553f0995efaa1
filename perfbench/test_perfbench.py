"""Fast tests of the benchmark itself, at the tiny input scale.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=run.ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_end_to_end_with_its_checks(name, trace):
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_ROUNDS
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


def test_layer_counts_follow_the_workload():
    w = workloads.generate("compare-tall", 3, "tiny")
    assert len(w.blanked_ids) == 8
    result = run.run_workload("compare-tall", 3, 0, trace=True, scale="tiny")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["dataset.rows_dropped"] == 8
    assert metrics["numkernel.sym_eigen_calls"] == 0
    assert metrics["inference.variables_compared"] == len(w.indicator_names)
    assert metrics["numkernel.t_quantile_calls"] == 2 * len(w.indicator_names)

    result = run.run_workload("rank-tall", 3, 0, trace=True, scale="tiny")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["numkernel.sym_eigen_calls"] == 3
    assert metrics["numkernel.eigen_residual"] < 1e-9
    assert metrics["inference.compare_groups_s"] == 0.0
    assert metrics["reports.bytes"] > 0


def test_traced_artifacts_are_byte_identical(tmp_path):
    w = workloads.write_inputs(workloads.generate("analyze-wide", 5, "tiny"),
                               str(tmp_path / "input"))
    plain = run.invoke(w, str(tmp_path / "plain"), False, str(tmp_path))
    traced = run.invoke(w, str(tmp_path / "traced"), True, str(tmp_path))
    assert plain[0] is not None and traced[0] is not None
    assert set(traced[0]["layers"]) == set(tracer.METRICS)
    # run_summary.json echoes the output directory, which differs here.
    del plain[2]["run_summary.json"], traced[2]["run_summary.json"]
    assert plain[2] == traced[2]


class _TracedAlwaysFails:
    """A stand-in for ``run.Run`` whose traced invocations all fail."""

    def __init__(self):
        self.attempted = self.failed = 0

    def invoke(self, trace):
        self.attempted += 1
        if trace:
            self.failed += 1
            return None
        return {"run_s": 1.0}


def test_layer_loop_ends_when_every_traced_invocation_fails():
    fake = _TracedAlwaysFails()
    assert run.measure_layers(fake, 0) is None
    assert fake.attempted == 2 * run.MIN_ROUNDS
    assert fake.failed == run.MIN_ROUNDS


def test_tracer_reads_arguments_passed_by_keyword(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,a\nx,1\ny,2\n\n", encoding="utf-8")
    t = tracer.Tracer()

    class Loaded:
        indicator_names, case_ids = ("a",), ("x",)

    def load_csv(path, id_column=None, missing_policy="error"):
        return Loaded()

    t.span("dataset.load_csv", load_csv, True)(missing_policy="listwise", path=str(path))
    metrics = t.metrics(0)
    assert metrics["dataset.cells_parsed"] == 2
    assert metrics["dataset.rows_dropped"] == 1


@pytest.fixture(scope="module")
def analyze_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    w = workloads.write_inputs(workloads.generate("analyze-wide", 11, "tiny"),
                               str(tmp / "input"))
    out_dir = str(tmp / "out")
    record, stderr, artifacts = run.invoke(w, out_dir, False, str(tmp))
    assert record is not None, stderr
    return w, artifacts, stderr, out_dir


def _corrupt_json(artifacts, name, edit):
    payload = json.loads(artifacts[name])
    edit(payload)
    return dict(artifacts, **{name: json.dumps(payload).encode()})


def _scale_first_p(payload):
    payload["variables"][0]["pooled"]["p_two_tailed"] *= 1.001


def _swap_first_ranks(payload):
    first, second = payload["entries"][:2]
    first["rank"], second["rank"] = second["rank"], first["rank"]


def test_untouched_artifacts_pass(analyze_output):
    w, artifacts, stderr, out_dir = analyze_output
    checks.check_invocation(w, artifacts, stderr, out_dir)


@pytest.mark.parametrize("name, edit", [
    ("comparison.json", _scale_first_p),
    ("ranking.json", _swap_first_ranks),
])
def test_corrupted_artifact_fails_the_check(analyze_output, name, edit):
    w, artifacts, stderr, out_dir = analyze_output
    with pytest.raises(checks.CheckFailed):
        checks.check_invocation(w, _corrupt_json(artifacts, name, edit), stderr, out_dir)


def test_corrupted_csv_rank_fails_the_check(analyze_output):
    w, artifacts, stderr, out_dir = analyze_output
    data = artifacts["ranking.csv"].decode()
    lines = data.splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    corrupted = dict(artifacts, **{"ranking.csv": "".join(lines).encode()})
    with pytest.raises(checks.CheckFailed):
        checks.check_invocation(w, corrupted, stderr, out_dir)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "rank-tall", "--seed", "1", "--seconds", "0",
                  "--trace", "0", "--scale", "tiny", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_gives_same_input():
    a = workloads.generate("compare-tall", 4, "tiny")
    b = workloads.generate("compare-tall", 4, "tiny")
    assert a.group1_ids == b.group1_ids and a.blanked_ids == b.blanked_ids
    assert a.values.tobytes() == b.values.tobytes()
    c = workloads.generate("compare-tall", 5, "tiny")
    assert c.values.tobytes() != a.values.tobytes()
