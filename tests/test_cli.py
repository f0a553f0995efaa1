import argparse
import csv
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import factorindex
from factorindex import config as config_module
from factorindex import dataset, pipeline, reports
from factorindex.cli import build_parser, main
from factorindex.config import PipelineConfig, config_from_dict
from factorindex.dataset import load_csv, select_variables, standardize
from factorindex.errors import ValidationError
from factorindex.factors import (FactorScores, build_factor_model, factor_scores,
                                 varimax)
from factorindex.inference import compare_groups
from factorindex.ranking import rank_by_factor, with_groups

from conftest import dataset_from, make_table, write_table_csv


def write_identity_correlation_csv(tmp_path):
    """Nine cases, four variables with disjoint-support deviations.

    Every off-diagonal product of standardized columns has a zero factor,
    so the sample correlation matrix is the exact identity and eigenvalue
    retention by the Kaiser rule has nothing to keep.
    """
    rows = []
    for case in range(9):
        row = [5.0, 5.0, 5.0, 5.0]
        if case < 8:
            row[case // 2] = 7.0 if case % 2 == 0 else 3.0
        rows.append(row)
    path = tmp_path / "identity.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "a", "b", "c", "d"])
        for i, row in enumerate(rows):
            writer.writerow([f"case{i}"] + [repr(v) for v in row])
    return str(path)


def leaves(document, prefix=""):
    """(dotted key, value) for every leaf of a nested config document."""
    for key, value in document.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


@pytest.fixture()
def table_csv(tmp_path):
    ids, names, values = make_table()
    return write_table_csv(tmp_path / "table.csv", ids, names, values)


class TestAnalyze:
    def test_full_run_writes_everything(self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--input", table_csv, "--out-dir", str(out),
                   "--format", "json", "--format", "csv", "--format", "text"])
        assert rc == 0
        files = set(os.listdir(out))
        assert {"factor_model.json", "factor_model.csv", "factor_model.txt",
                "factor_model_eigenvalues.csv", "factor_model_communalities.csv",
                "factor_model_coefficients.csv",
                "ranking.json", "ranking.csv", "ranking.txt",
                "comparison.json", "comparison.csv", "comparison.txt",
                "run_summary.json"} == files
        printed = capsys.readouterr().out
        assert printed.splitlines() == [
            str(out / name) for name in (
                "factor_model.json", "factor_model.csv",
                "factor_model_eigenvalues.csv", "factor_model_communalities.csv",
                "factor_model_coefficients.csv", "factor_model.txt",
                "ranking.json", "ranking.csv", "ranking.txt",
                "comparison.json", "comparison.csv", "comparison.txt",
                "run_summary.json")]

    def test_k_out_of_range_exits_2(self, table_csv, tmp_path, capsys):
        rc = main(["analyze", "--input", table_csv,
                   "--out-dir", str(tmp_path / "x"), "--k", "60"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "floor(n/2) = 44" in err and "88" in err
        assert not (tmp_path / "x").exists()  # no partial outputs

    @pytest.mark.parametrize("level", [3.3, 123456.789, 987654321.123])
    def test_a_constant_column_exits_2_at_any_magnitude(self, tmp_path, capsys, level):
        ids, names, values = make_table()
        path = write_table_csv(tmp_path / "table.csv", ids, names + ("Const",),
                               np.column_stack([values, np.full(len(ids), level)]))
        out = tmp_path / "out"
        assert main(["analyze", "--input", path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: zero variance: Const\n"
        assert not out.exists()

    def test_kaiser_with_identity_correlation_exits_3(self, tmp_path, capsys):
        path = write_identity_correlation_csv(tmp_path)
        rc = main(["analyze", "--input", path, "--out-dir",
                   str(tmp_path / "y"), "--k", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "extraction" in err
        assert not (tmp_path / "y").exists()

    def test_identity_correlation_with_a_fixed_k_exits_3_in_one_line(self, tmp_path,
                                                                     capsys):
        # R is the identity: not singular, so KMO's own message stands.
        path = write_identity_correlation_csv(tmp_path)
        rc = main(["factors", "--input", path, "--out-dir", str(tmp_path / "y"),
                   "--retention", "fixed", "--retention-k", "1"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure in diagnostics stage: KMO is undefined: "
            "all off-diagonal correlations are zero\n")
        assert not (tmp_path / "y").exists()

    def test_deterministic_outputs(self, table_csv, tmp_path):
        out = tmp_path / "out"
        args = ["analyze", "--input", table_csv, "--out-dir", str(out),
                "--format", "json", "--format", "csv"]
        assert main(list(args)) == 0
        first = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert main(list(args)) == 0
        second = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert first == second

    def test_eigensolver_failure_exits_3(self, table_csv, tmp_path, capsys,
                                         monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        rc = main(["analyze", "--input", table_csv, "--out-dir",
                   str(tmp_path / "z")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "did not converge" in err
        assert "Traceback" not in err
        assert not (tmp_path / "z").exists()

    def singular_run(self, tmp_path, capsys, ids, names, values, argv=("analyze",)):
        path = write_table_csv(tmp_path / "singular.csv", ids, names, values)
        rc = main([*argv, "--input", path, "--out-dir", str(tmp_path / "s")])
        assert rc == 3
        assert not (tmp_path / "s").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure in diagnostics stage: ")
        return err

    def test_fewer_cases_than_variables_names_both_counts(self, tmp_path, capsys):
        err = self.singular_run(tmp_path, capsys, *make_table(n=30, p=34))
        assert "30 cases for 34 variables" in err and "--variables" in err
        assert "smallest eigenvalue" not in err

    def test_duplicated_column_names_the_pair(self, tmp_path, capsys):
        ids, names, values = make_table()
        values = np.column_stack([values, values[:, 3]])
        err = self.singular_run(tmp_path, capsys, ids, names + ("Copy03",), values)
        assert "Ind03 and Copy03 are collinear" in err
        assert "smallest eigenvalue" not in err

    def test_a_column_summing_two_others_names_all_three(self, tmp_path, capsys):
        ids, names, values = make_table()
        values = np.column_stack([values, values[:, 0] + values[:, 1]])
        err = self.singular_run(tmp_path, capsys, ids, names + ("Sum01",), values)
        assert "Ind00, Ind01 and Sum01 are collinear; drop one of them" in err
        assert "smallest eigenvalue" not in err

    @pytest.mark.parametrize("n, cause", [
        (88, "Ind03 and Copy03 are collinear"), (30, "30 cases for 35 variables")])
    def test_a_singular_run_stops_before_rotation(self, tmp_path, capsys, n, cause):
        ids, names, values = make_table()
        values = np.column_stack([values, values[:, 3]])[:n]
        err = self.singular_run(tmp_path, capsys, ids[:n], names + ("Copy03",), values,
                                argv=("factors", "--rotation-max-iter", "1"))
        assert cause in err

    def test_factor_beyond_retained_count_exits_2(self, table_csv, tmp_path,
                                                  capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--input", table_csv, "--out-dir", str(out),
                   "--retention", "fixed", "--retention-k", "2", "--factor", "3"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: factor selector 3 out of range: model retains 2\n"
        assert not out.exists()

    def test_variables_match_a_table_of_those_columns(self, tmp_path):
        ids, names, values = make_table()
        order = list(range(len(names)))
        random.Random(5).shuffle(order)
        chosen = order[:12]
        full = write_table_csv(tmp_path / "full.csv", ids, names, values)
        subset = write_table_csv(tmp_path / "subset.csv", ids,
                                 [names[j] for j in chosen], values[:, chosen])
        formats = ["--format", "json", "--format", "csv", "--format", "text"]
        assert main(["analyze", "--input", full, "--out-dir", str(tmp_path / "a"),
                     "--variables", ",".join(names[j] for j in chosen)]
                    + formats) == 0
        assert main(["analyze", "--input", subset, "--out-dir", str(tmp_path / "b")]
                    + formats) == 0
        artifacts = sorted(set(os.listdir(tmp_path / "a")) - {"run_summary.json"})
        assert len(artifacts) == 12
        for name in artifacts:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_compare_variables_need_not_be_analysis_variables(self, table_csv,
                                                              tmp_path):
        _, names, _ = make_table()
        chosen, compared = list(names[:6]), [names[20], names[2], names[30]]
        out = tmp_path / "out"
        assert main(["analyze", "--input", table_csv, "--out-dir", str(out),
                     "--variables", ",".join(chosen),
                     "--compare-variables", ",".join(compared)]) == 0
        model = json.loads((out / "factor_model.json").read_text())
        comparison = json.loads((out / "comparison.json").read_text())
        assert model["indicator_names"] == chosen
        assert [v["name"] for v in comparison["variables"]] == compared

    def test_missing_input_exits_2(self, capsys):
        assert main(["analyze"]) == 2
        assert "input" in capsys.readouterr().err

    def test_nonexistent_file_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "nope.csv")
        rc = main(["analyze", "--input", path])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_a_directory_as_input_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


class TestSubcommands:
    def test_factors_stops_after_model(self, table_csv, tmp_path):
        out = tmp_path / "fac"
        rc = main(["factors", "--input", table_csv, "--out-dir", str(out),
                   "--format", "csv"])
        assert rc == 0
        files = set(os.listdir(out))
        assert "factor_model.csv" in files
        assert "ranking.csv" not in files and "comparison.csv" not in files

    def test_factors_csv_table_layout(self, table_csv, tmp_path):
        out = tmp_path / "fac"
        main(["factors", "--input", table_csv, "--out-dir", str(out),
              "--format", "csv"])
        with open(out / "factor_model.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "variable"
        assert rows[0][1] == "factor_1"
        assert len(rows) == 1 + 34  # variables as rows

    def test_rank_through_ranking(self, table_csv, tmp_path):
        out = tmp_path / "rank"
        rc = main(["rank", "--input", table_csv, "--out-dir", str(out),
                   "--format", "text", "--direction", "ascending", "--k", "10"])
        assert rc == 0
        text = (out / "ranking.txt").read_text()
        assert "Rank | Communities" in text
        assert "comparison.txt" not in set(os.listdir(out))

    def test_compare_with_explicit_groups(self, table_csv, tmp_path):
        ids, _, _ = make_table()
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", table_csv, "--out-dir", str(out),
                   "--group1", ",".join(ids[:10]),
                   "--group2", ",".join(ids[-10:]),
                   "--format", "json"])
        assert rc == 0
        files = set(os.listdir(out))
        assert files == {"comparison.json", "run_summary.json"}
        parsed = json.loads((out / "comparison.json").read_text())
        assert parsed["group1_ids"] == list(ids[:10])
        assert len(parsed["variables"]) == 34

    @pytest.mark.parametrize("scale", [1e-80, 1e-100])
    def test_compare_welch_df_when_the_variance_terms_underflow(self, tmp_path, capsys,
                                                                scale):
        ids = ["g1a", "g1b", "g1c", "g2a", "g2b", "g2c"] + [f"o{i}" for i in range(6)]
        column = [v * scale for v in (1, 2, 4, 3, 5, 9)] + [1, -1, 2, -2, 3, -3]
        path = write_table_csv(tmp_path / "table.csv", ids, ["v"], [[v] for v in column])
        out = tmp_path / "cmp"
        assert main(["compare", "--input", path, "--out-dir", str(out),
                     "--group1", "g1a,g1b,g1c", "--group2", "g2a,g2b,g2c",
                     "--standardize-scope", "all"]) == 0
        assert capsys.readouterr().err == ""
        record, = json.loads((out / "comparison.json").read_text())["variables"]
        assert record["welch"]["df"] == pytest.approx(50.0 / 17.0, rel=1e-12, abs=0.0)

    def test_compare_rejects_a_repeated_id(self, table_csv, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", table_csv, "--out-dir", str(out),
                   "--group1", "Community_01,Community_01,Community_02,Community_03",
                   "--group2", "Community_80,Community_81,Community_82"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: group 1 repeats case id 'Community_01'\n"
        assert not out.exists()

    def test_compare_one_variable(self, table_csv, tmp_path):
        ids, names, _ = make_table()
        out = tmp_path / "cmp"
        assert main(["compare", "--input", table_csv, "--out-dir", str(out),
                     "--group1", ",".join(ids[:10]), "--group2", ",".join(ids[-10:]),
                     "--compare-variables", names[1]]) == 0
        parsed = json.loads((out / "comparison.json").read_text())
        assert [v["name"] for v in parsed["variables"]] == [names[1]]

    def test_empty_compare_variables_exit_2(self, table_csv, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["analyze", "--input", table_csv, "--out-dir", str(out),
                     "--compare-variables", ""]) == 2
        assert capsys.readouterr().err == "error: need at least 1 indicator, got 0\n"
        assert not out.exists()

    def test_a_ci_level_whose_quantile_rounds_to_1_exits_2(self, table_csv, tmp_path,
                                                            capsys):
        # At 1 - 2**-53, (1 + level) / 2 rounds to 1; the float below it runs.
        out = tmp_path / "out"
        argv = ["analyze", "--input", table_csv, "--out-dir", str(out), "--ci-level"]
        assert main(argv + ["0.9999999999999999"]) == 2
        assert capsys.readouterr().err == (
            "error: comparison.ci_level must be a number in (0, 1) with "
            "(1 + level) / 2 below 1, got 0.9999999999999999\n")
        assert not out.exists()
        assert main(argv + ["0.9999999999999998"]) == 0
        parsed = json.loads((out / "comparison.json").read_text())
        assert parsed["ci_level"] == 1.0 - 2.0 ** -52

    @pytest.mark.parametrize("command", ["compare", "factors", "rank", "analyze"])
    def test_one_indicator_table(self, tmp_path, capsys, command):
        ids, _, values = make_table()
        path = write_table_csv(tmp_path / "one.csv", ids, ["x"], values[:, :1])
        out = tmp_path / "out"
        argv = [command, "--input", path, "--out-dir", str(out)]
        if command == "compare":
            argv += ["--group1", ",".join(ids[:10]), "--group2", ",".join(ids[-10:])]
        rc = main(argv)
        err = capsys.readouterr().err
        if command == "compare":
            assert rc == 0
            parsed = json.loads((out / "comparison.json").read_text())
            assert [v["name"] for v in parsed["variables"]] == ["x"]
        else:
            assert rc == 2
            assert err == "error: need at least 2 indicators, got 1\n"
            assert not out.exists()

    def test_compare_requires_groups(self, table_csv, capsys):
        assert main(["compare", "--input", table_csv]) == 2
        assert "group1" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, table_csv, capsys):
        assert main(["analyze", "--input", table_csv, "--frob"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compare", "--retention", "fixed"],
        ["compare", "--k", "5"],
        ["factors", "--alpha", "0.1"],
        ["factors", "--direction", "descending"],
        ["rank", "--levene-center", "median"],
        ["analyze", "--group1", "a,b"],
    ])
    def test_flag_of_another_subcommand_exits_2(self, table_csv, tmp_path,
                                                capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--input", table_csv, "--out-dir", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_each_subcommand_takes_exactly_its_flags(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        taken = {name: [option for action in subparser._actions
                        for option in action.option_strings]
                 for name, subparser in subparsers.choices.items()}
        assert taken == {
            "analyze": [
                "-h", "--help", "--config", "--input", "--id-column",
                "--missing-policy", "--variables", "--retention", "--retention-k",
                "--rotation", "--kaiser-normalization", "--no-kaiser-normalization",
                "--rotation-tol", "--rotation-max-iter", "--factor", "--direction",
                "--k", "--compare-variables", "--alpha", "--alpha-levene",
                "--ci-level", "--standardize-scope", "--levene-center", "--out-dir",
                "--format"],
            "factors": [
                "-h", "--help", "--config", "--input", "--id-column",
                "--missing-policy", "--variables", "--retention", "--retention-k",
                "--rotation", "--kaiser-normalization", "--no-kaiser-normalization",
                "--rotation-tol", "--rotation-max-iter", "--out-dir", "--format"],
            "rank": [
                "-h", "--help", "--config", "--input", "--id-column",
                "--missing-policy", "--variables", "--retention", "--retention-k",
                "--rotation", "--kaiser-normalization", "--no-kaiser-normalization",
                "--rotation-tol", "--rotation-max-iter", "--factor", "--direction",
                "--k", "--out-dir", "--format"],
            "compare": [
                "-h", "--help", "--config", "--input", "--id-column",
                "--missing-policy", "--variables", "--compare-variables", "--group1",
                "--group2", "--alpha", "--alpha-levene", "--ci-level",
                "--standardize-scope", "--levene-center", "--out-dir", "--format"],
        }

    def test_unknown_pipeline_stage_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown pipeline stage 'bogus'"):
            pipeline.run_pipeline(config_from_dict({"input": "x.csv"}), "bogus")

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["factors"], ["rank"],
        ["compare", "--group1", "c00,c01,c02", "--group2", "c03,c04,c05"],
        ["compare", "--group1", "c00,c01,c02", "--group2", "c03,c04,c05",
         "--standardize-scope", "all"],
    ])
    def test_a_column_too_large_to_standardize_exits_2(self, tmp_path, capsys, argv):
        values = np.random.RandomState(5).randn(40, 5)
        values[:, 0] *= 1e300  # its squares overflow
        path = write_table_csv(tmp_path / "huge.csv", [f"c{i:02d}" for i in range(40)],
                               [f"v{j}" for j in range(5)], values)
        out = tmp_path / "out"
        assert main(argv + ["--input", path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: v0: values too large to standardize\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-157, 1e-161])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_a_column_too_small_to_standardize_exits_2(self, tmp_path, capsys,
                                                       command, scale):
        # Every column's squared deviations are subnormal, but not all zero.
        ids, names, values = make_table()
        path = write_table_csv(tmp_path / "tiny.csv", ids, names, values * scale)
        out = tmp_path / "out"
        argv = [command, "--input", path, "--out-dir", str(out)]
        if command == "compare":
            argv += ["--group1", ",".join(ids[:3]), "--group2", ",".join(ids[3:6])]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: Ind00: values too small to standardize\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rotation_tol_flag_exits_2(self, table_csv, tmp_path,
                                                  capsys, value):
        out = tmp_path / "out"
        rc = main(["factors", "--input", table_csv, "--out-dir", str(out),
                   "--rotation-tol", value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rotation.tol must be a finite number" in err
        assert not out.exists()

    def test_non_utf8_csv_exits_2(self, table_csv, tmp_path, capsys):
        # The bad byte sits past the decoder's first chunk, so it is met
        # while the rows are being parsed, not when the file is opened.
        path = tmp_path / "latin1.csv"
        with open(table_csv, "rb") as fh:
            content = fh.read()
        assert len(content) > 8192
        path.write_bytes(content + b"caf\xe9" + b",1.0" * 34 + b"\n")
        out = tmp_path / "out"
        rc = main(["factors", "--input", str(path), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "latin1.csv: not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("cell, message", [
        # csv refuses a field longer than its limit of 131 072 characters.
        (b"9" * 140_000, "big.csv: line 90: field larger than field limit"),
        # Python 3.10's csv refuses any NUL byte; later versions pass it
        # on, and the cell is not a number.
        (b"1\x00", "big.csv: line 90: line contains NUL"
         if sys.version_info < (3, 11) else "non-numeric value '1\\x00' at row 89"),
    ], ids=["oversized field", "NUL byte"])
    def test_unreadable_csv_field_exits_2(self, table_csv, tmp_path, capsys,
                                          cell, message):
        path = tmp_path / "big.csv"
        with open(table_csv, "rb") as fh:
            path.write_bytes(fh.read() + b"extra," + cell + b",1.0" * 33 + b"\n")
        out = tmp_path / "out"
        rc = main(["factors", "--input", str(path), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("id_first", [True, False])
    def test_bom_is_not_part_of_the_first_header(self, tmp_path, id_first):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        ids, names, values = make_table()
        rows = [["community"] + list(names)]
        rows += [[cid] + [repr(float(v)) for v in row] for cid, row in zip(ids, values)]
        if not id_first:
            rows = [[row[1], row[0]] + row[2:] for row in rows]
        path = tmp_path / "bom.csv"
        with open(path, "w", encoding="utf-8-sig", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "out"
        rc = main(["factors", "--input", str(path), "--id-column", "community",
                   "--out-dir", str(out), "--format", "json"])
        assert rc == 0
        model = json.loads((out / "factor_model.json").read_text())
        assert sorted(model["indicator_names"]) == sorted(names)

    def test_every_flag_names_its_config_key(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        named = set()
        for subparser in subparsers.choices.values():
            for action in subparser._actions:
                if action.dest not in ("help", "config"):
                    assert action.help.endswith(")"), action.option_strings
                    named.add(action.help.rsplit("(config: ", 1)[1][:-1])
        document = config_from_dict({"input": "x.csv"}).to_dict()
        assert named == {key for key, _ in leaves(document)}

    def test_rotation_none_flag(self, table_csv, tmp_path):
        out = tmp_path / "unrotated"
        rc = main(["factors", "--input", table_csv, "--out-dir", str(out),
                   "--format", "json", "--rotation", "none"])
        assert rc == 0
        parsed = json.loads((out / "factor_model.json").read_text())
        assert parsed["rotation_method"] == "none"
        assert parsed["loadings_rotated"] == parsed["loadings_unrotated"]

    def test_listwise_policy_flag(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        path.write_text("id,a,b\nw,1,2\nx,3,\ny,5,6\nz,7,9\n")
        out = tmp_path / "out"
        rc = main(["factors", "--input", str(path), "--out-dir", str(out),
                   "--missing-policy", "listwise", "--retention", "fixed",
                   "--retention-k", "1"])
        assert rc == 0
        assert capsys.readouterr().err == \
            "warning: listwise deletion dropped 1 case(s): x\n"


def snapshot(directory):
    """Every entry of ``directory`` with its bytes (None for a directory)."""
    return {path.name: None if path.is_dir() else path.read_bytes()
            for path in sorted(directory.iterdir())}


def numbers(document, path=""):
    """(path, leaf) for every leaf of a JSON document, in document order."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield from numbers(value, f"{path}.{key}")
    elif isinstance(document, list):
        for i, value in enumerate(document):
            yield from numbers(value, f"{path}[{i}]")
    else:
        yield path, document


class TestRowOrder:
    """Shuffling the table's rows changes no result (20 seeded permutations).

    Under ``selected`` the comparison reads each group's rows in its id
    list's order, so its bytes hold; under ``all`` and in the factor model
    the column sums run in another order, so floats may move by rounding."""

    def analyze(self, tmp_path, order, scope):
        ids, names, values = make_table()
        path = write_table_csv(tmp_path / "shuffled.csv", [ids[i] for i in order],
                               names, values[order])
        out = tmp_path / "out"
        assert main(["analyze", "--input", path, "--out-dir", str(out),
                     "--standardize-scope", scope]) == 0
        return {name: (out / name).read_bytes() for name in
                ("factor_model.json", "ranking.json", "comparison.json")}

    @pytest.mark.parametrize("scope", ["selected", "all"])
    def test_shuffled_rows_give_the_same_results(self, tmp_path, scope):
        n = len(make_table()[0])
        base = self.analyze(tmp_path, np.arange(n), scope)
        base_ranking = json.loads(base["ranking.json"])
        for seed in range(20):
            run = self.analyze(tmp_path, np.random.RandomState(seed).permutation(n),
                               scope)
            ranking = json.loads(run["ranking.json"])
            for key in ("group1_ids", "group2_ids"):
                assert ranking[key] == base_ranking[key], seed
            assert ([e["case_id"] for e in ranking["entries"]]
                    == [e["case_id"] for e in base_ranking["entries"]]), seed
            if scope == "selected":
                assert run["comparison.json"] == base["comparison.json"], seed
                continue
            for name in ("factor_model.json", "comparison.json", "ranking.json"):
                got = list(numbers(json.loads(run[name])))
                want = list(numbers(json.loads(base[name])))
                assert [p for p, _ in got] == [p for p, _ in want], (seed, name)
                for (where, a), (_, b) in zip(got, want):
                    if isinstance(a, float):
                        assert abs(a - b) <= 1e-12, (seed, name, where, a, b)
                    else:
                        assert a == b, (seed, name, where)


def analyze_table(tmp_path, names, values):
    """factor_model.json, ranking.json and comparison.json of an ``analyze``
    run on make_table()'s cases with these columns."""
    path = write_table_csv(tmp_path / "table.csv", make_table()[0], names, values)
    out = tmp_path / "out"
    assert main(["analyze", "--input", path, "--out-dir", str(out)]) == 0
    return [json.loads((out / name).read_text()) for name in
            ("factor_model.json", "ranking.json", "comparison.json")]


class TestColumnOrder:
    """Reordering the table's columns permutes the indicator rows of the factor
    model and changes no other result (20 seeded permutations)."""

    def analyze(self, tmp_path, order):
        _, names, values = make_table()
        return analyze_table(tmp_path, [names[j] for j in order], values[:, order])

    def test_reordered_columns_permute_the_indicator_rows(self, tmp_path):
        p = len(make_table()[1])
        base_model, base_ranking, base_comparison = self.analyze(tmp_path,
                                                                 np.arange(p))
        base_records = {r["name"]: r for r in base_comparison["variables"]}
        for seed in range(20):
            order = np.random.RandomState(seed).permutation(p)
            model, ranking, comparison = self.analyze(tmp_path, order)
            assert model["retained"] == base_model["retained"], seed
            for key in ("loadings_unrotated", "loadings_rotated",
                        "score_coefficients"):
                np.testing.assert_allclose(model[key],
                                           np.asarray(base_model[key])[order],
                                           rtol=0, atol=1e-12, err_msg=f"{seed} {key}")
            np.testing.assert_allclose(model["eigenvalues"], base_model["eigenvalues"],
                                       rtol=0, atol=1e-12, err_msg=str(seed))
            for key in ("group1_ids", "group2_ids"):
                assert ranking[key] == base_ranking[key], seed
            assert ([e["case_id"] for e in ranking["entries"]]
                    == [e["case_id"] for e in base_ranking["entries"]]), seed
            np.testing.assert_allclose([e["score"] for e in ranking["entries"]],
                                       [e["score"] for e in base_ranking["entries"]],
                                       rtol=0, atol=1e-12, err_msg=str(seed))
            assert {r["name"]: r for r in comparison["variables"]} == base_records, seed


class TestRescaling:
    """Mapping each indicator by x -> a*x + b with a > 0 leaves every
    standardized result where it was (5 seeded draws, and every indicator
    scaled by 1e-12 and by 1e-13, below any absolute sd floor). Descriptives
    are in raw units and are not compared."""

    MODEL_KEYS = ("eigenvalues", "loadings_unrotated", "loadings_rotated",
                  "score_coefficients")

    def test_rescaled_indicators_give_the_same_results(self, tmp_path):
        _, names, values = make_table()
        base_model, base_ranking, base_comparison = analyze_table(tmp_path, names,
                                                                  values)
        maps = [(1e-12, 0.0), (1e-13, 0.0)]
        for seed in range(5):
            rng = np.random.RandomState(seed)
            maps.append((rng.uniform(0.01, 100.0, values.shape[1]),
                         rng.uniform(-1e3, 1e3, values.shape[1])))
        for case, (a, b) in enumerate(maps):
            model, ranking, comparison = analyze_table(tmp_path, names, values * a + b)
            for key in self.MODEL_KEYS:
                np.testing.assert_allclose(model[key], base_model[key], rtol=0,
                                           atol=1e-12, err_msg=f"{case} {key}")
            np.testing.assert_allclose(model["kmo"]["per_variable"],
                                       base_model["kmo"]["per_variable"],
                                       rtol=0, atol=1e-12, err_msg=str(case))
            assert ([e["case_id"] for e in ranking["entries"]]
                    == [e["case_id"] for e in base_ranking["entries"]]), case
            np.testing.assert_allclose([e["score"] for e in ranking["entries"]],
                                       [e["score"] for e in base_ranking["entries"]],
                                       rtol=0, atol=1e-12, err_msg=str(case))
            for key in ("group1_ids", "group2_ids"):
                assert ranking[key] == base_ranking[key], case
            for record, base in zip(comparison["variables"], base_comparison["variables"]):
                assert record["degenerate"] == base["degenerate"], (case, base["name"])
                if base["degenerate"]:
                    continue
                moved = [record["levene"][f] - base["levene"][f] for f in ("F", "p")]
                moved += [record[v][f] - base[v][f] for v in ("pooled", "welch")
                          for f in ("t", "df", "p_two_tailed")]
                assert max(map(abs, moved)) <= 1e-10, (case, base["name"])


class TestAllOrNone:
    """A run that fails in the write step leaves --out-dir as it found it;
    one that succeeds leaves it holding that run's files only."""

    ALL_FORMATS = ["--format", "json", "--format", "csv", "--format", "text"]

    def earlier_run(self, table_csv, out):
        assert main(["analyze", "--input", table_csv, "--out-dir", str(out)]
                    + self.ALL_FORMATS) == 0

    @pytest.mark.parametrize("name", ["factor_model.txt", "ranking.csv"])
    def test_a_directory_at_an_artifact_path_writes_nothing(self, table_csv, tmp_path,
                                                            capsys, name):
        out = tmp_path / "out"
        self.earlier_run(table_csv, out)
        (out / name).unlink()
        (out / name).mkdir()
        before = snapshot(out)
        capsys.readouterr()
        rc = main(["analyze", "--input", table_csv, "--out-dir", str(out),
                   "--k", "5", "--direction", "descending"] + self.ALL_FORMATS)
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: [Errno 21] Is a directory: {str(out / name)!r}\n"
        assert snapshot(out) == before

    @pytest.mark.parametrize("case", ["created", "existing", "shared"])
    def test_a_write_that_fails_part_way_writes_nothing(self, table_csv, tmp_path,
                                                        capsys, monkeypatch, case):
        # "shared": the run creates --out-dir, and another writer puts a
        # file into it before the run fails; that file must survive.
        out = tmp_path / "out"
        if case == "existing":
            self.earlier_run(table_csv, out)
            before = snapshot(out)

        def fail_part_way(ranked, model, streams):
            for stream in streams.values():
                stream.write("{\n")
            if case == "shared":
                (out / "notes.txt").write_text("kept\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(reports, "write_ranking", fail_part_way)
        capsys.readouterr()
        rc = main(["analyze", "--input", table_csv, "--out-dir", str(out),
                   "--k", "5"] + self.ALL_FORMATS)
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        if case == "existing":
            assert snapshot(out) == before
        elif case == "shared":
            assert sorted(os.listdir(out)) == ["notes.txt"]
        else:
            assert not out.exists()

    # After the moves, factorindex's artifact names that this run did not
    # write go from --out-dir: regular files and symlinks, never a directory.

    def factors_json(self, table_csv, out, capsys):
        capsys.readouterr()
        rc = main(["factors", "--input", table_csv, "--out-dir", str(out)])
        return rc, capsys.readouterr()

    def test_fewer_formats_leave_only_this_runs_files(self, table_csv, tmp_path,
                                                      capsys):
        out = tmp_path / "out"
        self.earlier_run(table_csv, out)
        (out / "notes.txt").write_text("kept\n")
        rc, captured = self.factors_json(table_csv, out, capsys)
        assert rc == 0
        written = ["factor_model.json", "run_summary.json"]
        assert captured.out.splitlines() == [str(out / name) for name in written]
        assert sorted(os.listdir(out)) == sorted(written + ["notes.txt"])
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_a_directory_at_a_stale_name_stays(self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        self.earlier_run(table_csv, out)
        (out / "ranking.csv").unlink()
        (out / "ranking.csv").mkdir()
        (out / "ranking.csv" / "inside.txt").write_text("kept\n")
        rc, captured = self.factors_json(table_csv, out, capsys)
        assert rc == 0
        assert str(out / "ranking.csv") not in captured.out.splitlines()
        assert (out / "ranking.csv" / "inside.txt").read_text() == "kept\n"
        assert sorted(os.listdir(out)) == ["factor_model.json", "ranking.csv",
                                           "run_summary.json"]

    @pytest.mark.parametrize("target", ["file", "directory", "dangling"])
    def test_a_symlink_at_a_stale_name_goes_and_its_target_stays(
            self, table_csv, tmp_path, capsys, target):
        out = tmp_path / "out"
        self.earlier_run(table_csv, out)
        kept = tmp_path / "kept"
        if target == "file":
            kept.write_text("kept\n")
        elif target == "directory":
            kept.mkdir()
        (out / "comparison.txt").unlink()
        (out / "comparison.txt").symlink_to(kept)
        rc, _ = self.factors_json(table_csv, out, capsys)
        assert rc == 0
        assert not os.path.lexists(out / "comparison.txt")
        if target == "file":
            assert kept.read_text() == "kept\n"
        assert kept.exists() == (target != "dangling")

    def test_a_run_stopped_by_the_directory_check_removes_nothing(
            self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        self.earlier_run(table_csv, out)
        (out / "factor_model.json").unlink()
        (out / "factor_model.json").mkdir()
        before = snapshot(out)
        rc, captured = self.factors_json(table_csv, out, capsys)
        assert rc == 2
        assert captured.err == ("error: [Errno 21] Is a directory: "
                                f"{str(out / 'factor_model.json')!r}\n")
        assert snapshot(out) == before

    def test_a_removal_that_fails_exits_2_with_one_line(self, table_csv, tmp_path,
                                                        capsys, monkeypatch):
        out = tmp_path / "out"
        self.earlier_run(table_csv, out)

        def refuse(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "remove", refuse)
        rc, captured = self.factors_json(table_csv, out, capsys)
        assert rc == 2
        assert captured.err == ("error: [Errno 13] Permission denied: "
                                f"{str(out / 'factor_model.csv')!r}\n")


def library_artifacts(model, ranked=None, comparison=None):
    """Each artifact's text, rendered by ``reports`` from library results."""
    results = {"model": model, "ranked": ranked, "comparison": comparison}
    texts, ranking = {}, {}
    for name, fmt, key, renderer in pipeline._ARTIFACTS:
        if fmt is None or results[key] is None:
            continue
        if renderer is None:
            ranking[fmt] = texts[name] = io.StringIO()
        else:
            texts[name] = getattr(reports, renderer)(results[key])
    if ranking:
        reports.write_ranking(ranked, model, ranking)
    return {name: text if isinstance(text, str) else text.getvalue()
            for name, text in texts.items()}


def library_ranking(path, variables=None):
    """The model and the ranking of the library path on a fresh load."""
    ds = load_csv(path)
    z = standardize(ds if variables is None else select_variables(ds, variables))
    model = build_factor_model(z)
    ranked = rank_by_factor(factor_scores(z, model.score_coefficients), 1,
                            "ascending")
    return model, with_groups(ranked, 10)


ALL_FORMATS = ["--format", "json", "--format", "csv", "--format", "text"]


class TestTheLoadedValuesGiveWayToTheZScores:
    """A table that no later step reads gets the z-scores over its values."""

    @pytest.mark.parametrize("stage", ["rank", "factors"])
    def test_the_peak_is_below_two_tables(self, tmp_path, monkeypatch, stage):
        # With the raw values alive beside the z-scores it is 2.3 tables.
        n, p = 4000, 60
        ids, names, values = make_table(n=n, p=p, n_factors=6)
        path = write_table_csv(tmp_path / "table.csv", ids, names, values)
        monkeypatch.setattr(dataset, "_SPLIT_BYTES", os.path.getsize(path) + 1)
        config = config_from_dict({"input": path,
                                   "output": {"dir": str(tmp_path / "out")}})
        tracemalloc.start()
        try:
            pipeline.run_pipeline(config, stage)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * values.nbytes, peak / values.nbytes

    def test_a_compare_run_peaks_below_one_and_a_half_tables(self, tmp_path,
                                                             monkeypatch):
        # The groups' block beside the table, and the table held through the
        # write, would take it to 1.7 tables.
        n, p = 20_000, 40
        ids, names, values = make_table(n=n, p=p, n_factors=4)
        path = write_table_csv(tmp_path / "table.csv", ids, names, values)
        monkeypatch.setattr(dataset, "_SPLIT_BYTES", os.path.getsize(path) + 1)
        config = config_from_dict({
            "input": path, "output": {"dir": str(tmp_path / "out")},
            "comparison": {"group1": list(ids[:2500]), "group2": list(ids[-2500:]),
                           "standardize_scope": "all"}})
        tracemalloc.start()
        try:
            pipeline.run_pipeline(config, "compare")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * values.nbytes, peak / values.nbytes

    @pytest.mark.parametrize("stage", ["rank", "factors"])
    def test_artifacts_are_those_of_the_library_path(self, table_csv, tmp_path,
                                                     stage):
        out = tmp_path / "out"
        assert main([stage, "--input", table_csv, "--out-dir", str(out)]
                    + ALL_FORMATS) == 0
        model, ranked = library_ranking(table_csv)
        expected = library_artifacts(model, ranked if stage == "rank" else None)
        assert sorted(expected) == sorted(set(os.listdir(out)) - {"run_summary.json"})
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode(), name

    @pytest.mark.parametrize("variables", [True, False])
    def test_the_comparison_reads_the_loaded_values(self, table_csv, tmp_path,
                                                    variables):
        # With --variables the model's copy is overwritten and the comparison
        # reads the whole table; without, the model's table is the compared
        # one and is not overwritten.
        _, names, _ = make_table()
        chosen = list(names[:12]) if variables else None
        compared = [names[20], names[2], names[30]]
        out = tmp_path / "out"
        flags = ["--variables", ",".join(chosen)] if variables else []
        assert main(["analyze", "--input", table_csv, "--out-dir", str(out),
                     "--compare-variables", ",".join(compared)] + flags) == 0
        _, ranked = library_ranking(table_csv, chosen)
        report = compare_groups(load_csv(table_csv), ranked.group1_ids,
                                ranked.group2_ids, variables=compared)
        assert (out / "comparison.json").read_bytes() == \
            reports.record_json(report).encode()


def test_readme_lists_every_artifact_in_listing_order():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Output files\n", 1)[1]
    rows = section.split("\n\n", 2)[1].splitlines()[2:]  # the table, no header
    documented = [name for row in rows
                  for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert documented == [name for name, *_ in pipeline._ARTIFACTS]


def test_every_exported_name_is_defined_once():
    exported = factorindex.__all__
    assert [name for name in exported if not hasattr(factorindex, name)] == []
    assert sorted(name for name in set(exported) if exported.count(name) > 1) == []


def test_numpy_is_the_only_runtime_dependency(table_csv, tmp_path):
    # scipy and mpmath are installed beside numpy for the tests; a run with
    # every format must not import either.
    src = os.path.dirname(os.path.dirname(factorindex.__file__))
    code = ("import sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; "
            "from factorindex.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--input", table_csv,
         "--out-dir", str(tmp_path / "out")] + TestAllOrNone.ALL_FORMATS,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_path_stdout_cannot_encode_is_escaped(table_csv, tmp_path, capsys):
    argv = ["factors", "--input", table_csv, "--retention", "fixed",
            "--retention-k", "1", "--out-dir", str(tmp_path / "out_\u00e9")]
    assert main(argv) == 0
    paths = capsys.readouterr().out.splitlines()
    src = os.path.dirname(os.path.dirname(factorindex.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "factorindex"] + argv,
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"),
        capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("ascii").splitlines() == [
        path.encode("ascii", "backslashreplace").decode("ascii") for path in paths]
    assert "out_\\xe9" in proc.stdout.decode("ascii")


class TestNotices:
    @pytest.mark.parametrize("filters", ["error", "ignore"])
    @pytest.mark.parametrize("flags, notice", [
        (["--missing-policy", "listwise"],
         "listwise deletion dropped 2 case(s): Community_04, Community_41"),
        (["--rotation-max-iter", "1"],
         "varimax did not reach a fixed point in 1 sweeps; returning best iterate"),
    ], ids=["listwise", "rotation"])
    def test_each_notice_is_one_line_under_any_filter(self, tmp_path, filters,
                                                      flags, notice):
        ids, names, values = make_table()
        if "listwise" in flags:
            values[[3, 40], 2] = np.nan
        path = write_table_csv(tmp_path / "table.csv", ids, names, values)
        src = os.path.dirname(os.path.dirname(factorindex.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=filters)
        proc = subprocess.run(
            [sys.executable, "-m", "factorindex", "analyze", "--input", path,
             "--out-dir", str(tmp_path / "out")] + flags,
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"warning: {notice}\n"

    @pytest.mark.parametrize("flags, notice, error", [
        (["--missing-policy", "listwise", "--k", "60"],
         "listwise deletion dropped 2 case(s): Community_04, Community_41",
         "group size k=60 out of range: need 1 <= k <= floor(n/2) = 43 (n = 86)"),
        (["--rotation-max-iter", "1", "--retention", "fixed", "--retention-k", "2",
          "--factor", "3"],
         "varimax did not reach a fixed point in 1 sweeps; returning best iterate",
         "factor selector 3 out of range: model retains 2"),
    ], ids=["listwise", "rotation"])
    def test_a_notice_prints_before_a_later_error(self, tmp_path, capsys, flags,
                                                  notice, error):
        ids, names, values = make_table()
        if "listwise" in flags:
            values[[3, 40], 2] = np.nan
        path = write_table_csv(tmp_path / "table.csv", ids, names, values)
        out = tmp_path / "out"
        assert main(["analyze", "--input", path, "--out-dir", str(out)] + flags) == 2
        assert capsys.readouterr().err == f"warning: {notice}\nerror: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, error", [
        ("w,1,2\nx,3,\ny,5,6\n",
         "{path}: fewer than 3 complete rows after loading (2 remain)"),
        ("w,1,2\nx,3,\nw,5,6\nz,7,8\n", "duplicate case id: 'w'"),
    ], ids=["too few rows", "duplicate id"])
    def test_a_load_that_fails_after_dropping_rows_prints_only_its_error(
            self, tmp_path, capsys, body, error):
        path = tmp_path / "gaps.csv"
        path.write_text("id,a,b\n" + body)
        rc = main(["factors", "--input", str(path), "--out-dir", str(tmp_path / "out"),
                   "--missing-policy", "listwise"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {error.format(path=path)}\n"

    def test_unconverged_rotation_is_named_in_the_text_report(self, table_csv,
                                                              tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["factors", "--input", table_csv, "--out-dir", str(out),
                   "--format", "text", "--format", "json",
                   "--rotation-max-iter", "1"])
        assert rc == 0
        assert capsys.readouterr().err == ("warning: varimax did not reach a fixed "
                                           "point in 1 sweeps; returning best iterate\n")
        text = (out / "factor_model.txt").read_text()
        assert "WARNING: rotation did not converge" in text
        assert json.loads((out / "factor_model.json").read_text())[
            "rotation_converged"] is False


class TestConfigFile:
    def test_config_driven_run(self, table_csv, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "input": table_csv,
            "retention": {"rule": "fixed", "k": 4},
            "ranking": {"factor": 1, "direction": "descending", "k": 8},
            "output": {"dir": str(out), "formats": ["json"]},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["config"]["retention"] == {"rule": "fixed", "k": 4}
        assert summary["config"]["ranking"]["k"] == 8
        ranking = json.loads((out / "ranking.json").read_text())
        assert ranking["direction"] == "descending"
        assert len(ranking["group1_ids"]) == 8

    def test_flags_override_config(self, table_csv, tmp_path):
        out = tmp_path / "out"
        cfg = {"input": table_csv,
               "ranking": {"k": 10},
               "output": {"dir": str(out), "formats": ["json"]}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(cfg_path), "--k", "5"]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["config"]["ranking"]["k"] == 5

    def test_summary_round_trips_to_config(self, table_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["analyze", "--input", table_csv, "--out-dir", str(out),
                   "--format", "json", "--alpha", "0.1"])
        assert rc == 0
        summary = json.loads((out / "run_summary.json").read_text())
        rebuilt = config_from_dict(summary["config"])
        assert rebuilt.input == table_csv
        assert rebuilt.alpha == 0.1
        assert rebuilt.to_dict() == summary["config"]

    def test_unknown_config_key_exits_2(self, table_csv, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"input": table_csv, "rotcfg": {}}))
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        assert "rotcfg" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        ({"input": ["table.csv"]}, "input must be a string"),
        ({"rotation": {"max_iter": 1.5}}, "rotation.max_iter must be an integer"),
        ({"retention": {"rule": "fixed", "k": 2.5}},
         "retention.k must be an integer"),
        ({"ranking": {"k": 5.0}}, "ranking.k must be an integer"),
        ({"ranking": {"factor": True}}, "ranking.factor must be an integer"),
        ({"variables": "Ind00,Ind01"}, "variables must be a list of strings"),
        ({"output": {"formats": "json"}},
         "output.formats must be a list of strings"),
        ({"comparison": {"group1": [1, 2]}},
         "comparison.group1 entries must be strings"),
        ({"rotation": {"kaiser_normalization": "false"}},
         "rotation.kaiser_normalization must be true or false"),
        ({"comparison": {"alpha": "0.1"}}, "comparison.alpha must be a finite number"),
        ({"rotation": {"tol": "1e-9"}}, "rotation.tol must be a finite number"),
        ({"rotation": {"tol": float("nan")}}, "rotation.tol must be a finite number"),
        ({"rotation": 5}, "config section 'rotation' must be an object"),
        ({"rotation": {"foo": 1}}, "unknown config key 'rotation.foo'"),
        ({"output": {"formats": []}}, "output.formats must not be empty"),
        ({"input": ""}, "an input CSV is required"),
        ({"input": 0}, "input must be a string, got 0"),
        ({"input": False}, "input must be a string, got False"),
    ])
    def test_wrongly_typed_value_exits_2(self, table_csv, tmp_path, capsys,
                                         document, message):
        document.setdefault("input", table_csv)
        document.setdefault("output", {})["dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(document))
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document, key, value", [
        ({"input": "a\u0000b.csv"}, "input", "'a\\x00b.csv'"),
        ({"output": {"dir": "o\u0000ut"}}, "output.dir", "'o\\x00ut'"),
    ])
    @pytest.mark.parametrize("command", ["factors", "analyze"])
    def test_a_nul_in_a_path_exits_2_naming_the_key(self, table_csv, tmp_path,
                                                    capsys, command, document,
                                                    key, value):
        document.setdefault("input", table_csv)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(document))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: {key} must be a path without a NUL character, got {value}\n"

    def test_a_nul_in_the_config_path_exits_2(self, capsys):
        assert main(["factors", "--config", "a\x00b.json"]) == 2
        assert capsys.readouterr().err == ("error: --config must be a path without "
                                           "a NUL character, got 'a\\x00b.json'\n")

    @pytest.mark.parametrize("document, message", [
        ([1, 2], "config document must be a JSON object"),
        ({"ranking": {"k": 3}},
         "an input CSV is required: --input or the config key input"),
    ])
    def test_unusable_document_exits_2(self, tmp_path, capsys, document, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(document))
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_retention_k_below_1_exits_2_under_kaiser(self, table_csv, tmp_path,
                                                      capsys):
        out = tmp_path / "out"
        rc = main(["factors", "--input", table_csv, "--out-dir", str(out),
                   "--retention", "kaiser", "--retention-k", "-2"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: retention.k must be an integer >= 1, got -2\n"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"input": table_csv, "retention": {"k": -3},
                                        "output": {"dir": str(out)}}))
        assert main(["factors", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == \
            "error: retention.k must be an integer >= 1, got -3\n"
        assert not out.exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json")
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, table_csv, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        out = tmp_path / "out"
        cfg_path.write_bytes(json.dumps({"input": table_csv, "id_column": "caf\u00e9",
                                         "output": {"dir": str(out)}},
                                        ensure_ascii=False).encode("latin-1"))
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "run.json: not UTF-8" in err
        assert not out.exists()

    def test_bom_config_is_read(self, table_csv, tmp_path):
        cfg_path = tmp_path / "run.json"
        out = tmp_path / "out"
        cfg_path.write_text(json.dumps({"input": table_csv, "output": {"dir": str(out)}}),
                            encoding="utf-8-sig")
        assert main(["factors", "--config", str(cfg_path)]) == 0
        assert out.is_dir()

    def test_every_wrongly_typed_leaf_exits_2(self, table_csv, tmp_path, capsys):
        # A value of the wrong JSON kind: a string for numbers and booleans,
        # a number for strings, an object for lists.
        wrong = {str: 1, int: "1", float: "0.5", bool: "true", tuple: {}}
        kinds = {f.metadata["key"]: f.type for f in fields(PipelineConfig)}
        out = tmp_path / "out"
        for key, _ in leaves(config_from_dict({"input": "x.csv"}).to_dict()):
            document = {"input": table_csv, "output": {"dir": str(out)}}
            section, _, leaf = key.rpartition(".")
            node = document.setdefault(section, {}) if section else document
            node[leaf] = wrong[kinds[key]]
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(document))
            assert main(["analyze", "--config", str(cfg_path)]) == 2, key
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{key} must be" in err, (key, err)
            assert not out.exists()


class TestConfigValidation:
    def test_enum_values_rejected(self):
        from factorindex.errors import ValidationError
        with pytest.raises(ValidationError, match="retention.rule"):
            config_from_dict({"input": "x.csv", "retention": {"rule": "scree"}})
        with pytest.raises(ValidationError, match="direction"):
            config_from_dict({"input": "x.csv", "ranking": {"direction": "up"}})
        with pytest.raises(ValidationError, match="formats"):
            config_from_dict({"input": "x.csv", "output": {"formats": ["yaml"]}})

    def test_numeric_bounds(self):
        from factorindex.errors import ValidationError
        with pytest.raises(ValidationError, match="alpha"):
            config_from_dict({"input": "x.csv", "comparison": {"alpha": 1.5}})
        with pytest.raises(ValidationError, match="ci_level"):
            config_from_dict({"input": "x.csv", "comparison": {"ci_level": 0.0}})
        with pytest.raises(ValidationError, match="ranking.k"):
            config_from_dict({"input": "x.csv", "ranking": {"k": 0}})

    def test_fixed_retention_needs_k(self):
        from factorindex.errors import ValidationError
        with pytest.raises(ValidationError, match="requires retention k"):
            config_from_dict({"input": "x.csv", "retention": {"rule": "fixed"}})

    def test_unknown_override(self):
        with pytest.raises(ValidationError) as exc:
            config_from_dict({"input": "x.csv"}, {"bogus": 1})
        assert str(exc.value) == "unknown config override 'bogus'"

    # The library call that branches on a choice names its own argument.
    @pytest.mark.parametrize("key, argument", [
        ("missing_policy", "missing_policy"),
        ("retention.rule", "retention rule"),
        ("rotation.method", "rotation_method"),
        ("ranking.direction", "direction"),
        ("comparison.standardize_scope", "standardize_scope"),
        ("comparison.levene_center", "levene_center"),
    ])
    def test_a_bad_choice_gets_one_message_from_library_and_config(self, key,
                                                                   argument):
        ds = dataset_from(*make_table(n=12, p=4, seed=7))
        z = standardize(ds)
        groups = (ds.case_ids[:3], ds.case_ids[3:6])
        library = {
            "missing_policy": lambda v: load_csv("x.csv", missing_policy=v),
            "retention.rule": lambda v: build_factor_model(z, retention_rule=v),
            "rotation.method": lambda v: build_factor_model(z, rotation_method=v),
            "ranking.direction": lambda v: rank_by_factor(
                FactorScores(z.case_ids, z.values), 1, direction=v),
            "comparison.standardize_scope": lambda v: compare_groups(
                ds, *groups, standardize_scope=v),
            "comparison.levene_center": lambda v: compare_groups(
                ds, *groups, levene_center=v),
        }
        section, _, leaf = key.rpartition(".")
        document = {"input": "x.csv"}
        (document.setdefault(section, {}) if section else document)[leaf] = "bogus"
        with pytest.raises(ValidationError) as from_config:
            config_from_dict(document)
        with pytest.raises(ValidationError) as from_library:
            library[key]("bogus")
        message = str(from_config.value)
        assert message.startswith(f"{key} must be one of '")
        assert message.endswith(", got 'bogus'")
        assert str(from_library.value) == argument + message[len(key):]

    # A numeric or boolean option and its library argument share one check.
    # A null in a config document means the default, so None goes only to
    # the library call.
    @pytest.mark.parametrize("key, argument, expected, value", [
        (key, argument, expected, value)
        for key, argument, expected, bad in [
            ("comparison.alpha", "alpha", "a finite number in (0, 1)",
             ("0.1", None, math.nan, math.inf, True, 2.5)),
            ("comparison.alpha_levene", "alpha_levene", "a finite number in (0, 1)",
             ("0.1", None, math.nan, math.inf, True, 2.5)),
            ("comparison.ci_level", "ci_level",
             "a number in (0, 1) with (1 + level) / 2 below 1",
             ("0.1", None, math.nan, math.inf, True, 2.5)),
            ("rotation.tol", "tol", "a finite number in (0, inf)",
             ("0.1", None, math.nan, math.inf, True)),
            ("rotation.kaiser_normalization", "kaiser_normalize", "true or false",
             ("0.1", None, math.nan, math.inf, 2.5)),
            ("ranking.factor", "factor", "an integer >= 1",
             ("0.1", None, math.nan, math.inf, True, 2.5)),
            ("ranking.k", "k", "an integer >= 1",
             ("0.1", None, math.nan, math.inf, True, 2.5)),
        ]
        for value in bad
    ])
    def test_a_bad_number_gets_one_message_from_library_and_config(
            self, key, argument, expected, value):
        ds = dataset_from(*make_table(n=12, p=4, seed=7))
        scores = FactorScores(ds.case_ids, standardize(ds).values)
        groups = (ds.case_ids[:3], ds.case_ids[3:6])
        library = {
            "comparison.alpha": lambda v: compare_groups(ds, *groups, alpha=v),
            "comparison.alpha_levene": lambda v: compare_groups(
                ds, *groups, alpha_levene=v),
            "comparison.ci_level": lambda v: compare_groups(ds, *groups, ci_level=v),
            "rotation.tol": lambda v: varimax(scores.scores[:, :2], tol=v),
            "rotation.kaiser_normalization": lambda v: varimax(
                scores.scores[:, :2], kaiser_normalize=v),
            "ranking.factor": lambda v: rank_by_factor(scores, v),
            "ranking.k": lambda v: with_groups(rank_by_factor(scores, 1), v),
        }
        with pytest.raises(ValidationError) as from_library:
            library[key](value)
        assert str(from_library.value) == f"{argument} must be {expected}, got {value!r}"
        if value is not None:
            section, leaf = key.split(".")
            with pytest.raises(ValidationError) as from_config:
                config_from_dict({"input": "x.csv", section: {leaf: value}})
            assert str(from_config.value) == f"{key} must be {expected}, got {value!r}"

    def test_module_docstring_shows_the_defaults(self):
        doc = config_module.__doc__
        example = json.loads(doc[doc.index("{"):doc.rindex("}") + 1])
        assert example == config_from_dict({"input": "table.csv"}).to_dict()

    def test_defaults_round_trip(self):
        cfg = config_from_dict({"input": "x.csv"})
        assert cfg.retention_rule == "kaiser"
        assert cfg.ranking_k == 10
        assert cfg.standardize_scope == "selected"
        assert config_from_dict(cfg.to_dict()) == cfg
