import argparse
import csv
import json
import os
import random
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import factorindex
from factorindex import config as config_module
from factorindex.cli import build_parser, main
from factorindex.config import PipelineConfig, config_from_dict

from conftest import make_table, write_table_csv


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
                "ranking.json", "ranking.csv", "ranking.txt",
                "comparison.json", "comparison.csv", "comparison.txt",
                "run_summary.json"} <= files
        printed = capsys.readouterr().out
        assert "run_summary.json" in printed

    def test_k_out_of_range_exits_2(self, table_csv, tmp_path, capsys):
        rc = main(["analyze", "--input", table_csv,
                   "--out-dir", str(tmp_path / "x"), "--k", "60"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "floor(n/2) = 44" in err and "88" in err
        assert not (tmp_path / "x").exists()  # no partial outputs

    def test_kaiser_with_identity_correlation_exits_3(self, tmp_path, capsys):
        path = write_identity_correlation_csv(tmp_path)
        rc = main(["analyze", "--input", path, "--out-dir",
                   str(tmp_path / "y"), "--k", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "extraction" in err
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

    def singular_run(self, tmp_path, capsys, ids, names, values):
        path = write_table_csv(tmp_path / "singular.csv", ids, names, values)
        rc = main(["analyze", "--input", path, "--out-dir", str(tmp_path / "s")])
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

    def test_other_singular_cause_keeps_the_eigenvalue(self, tmp_path, capsys):
        ids, names, values = make_table()
        values = np.column_stack([values, values[:, 0] + values[:, 1]])
        err = self.singular_run(tmp_path, capsys, ids, names + ("Sum01",), values)
        assert "smallest eigenvalue" in err

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

    def test_missing_input_exits_2(self, capsys):
        assert main(["analyze"]) == 2
        assert "input" in capsys.readouterr().err

    def test_nonexistent_file_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "nope.csv")])
        assert rc == 2


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

    def test_compare_rejects_a_repeated_id(self, table_csv, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", table_csv, "--out-dir", str(out),
                   "--group1", "Community_01,Community_01,Community_02,Community_03",
                   "--group2", "Community_80,Community_81,Community_82"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: group 1 repeats case id 'Community_01'\n"
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

    def test_listwise_policy_flag(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,a,b\nw,1,2\nx,3,\ny,5,6\nz,7,9\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="x"):
            rc = main(["factors", "--input", str(path), "--out-dir", str(out),
                       "--missing-policy", "listwise", "--retention", "fixed",
                       "--retention-k", "1"])
        assert rc == 0


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

    def test_unconverged_rotation_is_named_in_the_text_report(self, table_csv,
                                                              tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="fixed point"):
            rc = main(["factors", "--input", table_csv, "--out-dir", str(out),
                       "--format", "text", "--format", "json",
                       "--rotation-max-iter", "1"])
        assert rc == 0
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
        ({"rotation": {"foo": 1}}, "unknown config key rotation.'foo'"),
        ({"output": {"formats": []}}, "output.formats must not be empty"),
        ({"input": ""}, "an input CSV is required"),
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
