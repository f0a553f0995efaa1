"""Seeded fuzzing of the CLI exit-code contract.

Each case is a small generated CSV, valid or broken by a few mutations,
run through one subcommand with generated (sometimes bad) flags. The
contract: ``cli.main`` returns 0, 2 or 3, raises nothing, and leaves no
output directory behind after a non-zero exit. Some cases find an earlier
run's output directory with a directory where one artifact would go: a
run that fails then leaves that directory exactly as it was, and one that
reaches the write step fails there with one line naming the path, after
any notice. A run that succeeds prints at most the listwise notice, naming
the rows a plain ``csv`` read finds incomplete. Cases that the program
once accepted (a blank case id, ``retention.k`` < 1 under the Kaiser rule,
an id repeated within a compare group) must exit 2 for that reason, and
a numerical failure must name its cause rather than a bare eigenvalue.

The generator is deterministic in its seed and needs no hypothesis
database; :func:`fuzz_case` can also be called on its own to replay the
corpus against another build.
"""

import csv
import io
import math
import os
import random
import shutil

from factorindex.cli import main

from conftest import force_split

SEED = 2016
N_CASES = 400


def _table(rng, n, p):
    """Header and rows: ``n`` cases by ``p`` indicators on two latent factors."""
    weights = [(rng.uniform(0.5, 1.0), rng.randrange(2)) for _ in range(p)]
    rows = []
    for i in range(n):
        latent = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        rows.append([f"c{i:02d}"] + [repr(w * latent[k] + 0.5 * rng.gauss(0.0, 1.0))
                                     for w, k in weights])
    return ["id"] + [f"v{j}" for j in range(p)], rows


def _any_cell(rng, rows):
    row = rng.choice(rows)
    return row, rng.randrange(1, len(row)) if len(row) > 1 else 0


def _ragged(rng, header, rows):
    row = rng.choice(rows)
    if rng.random() < 0.5:
        row.pop()
    else:
        row.append("1.0")


def _cell(*values):
    def mutate(rng, header, rows):
        row, j = _any_cell(rng, rows)
        row[j] = rng.choice(values)
    return mutate


def _duplicate_id(rng, header, rows):
    rng.choice(rows)[0] = rng.choice(rows)[0]


def _blank_id(rng, header, rows):
    rng.choice(rows)[0] = rng.choice(("", "  "))


def _constant_column(rng, header, rows):
    j = rng.randrange(1, len(header))
    for row in rows:
        if j < len(row):
            row[j] = "3.5"


def _duplicate_column(rng, header, rows):
    a, b = rng.sample(range(1, len(header)), 2)
    for row in rows:
        if max(a, b) < len(row):
            row[b] = row[a]


def _duplicate_name(rng, header, rows):
    header[2] = header[1]


def _comma_id(rng, header, rows):
    rng.choice(rows)[0] = 'Town, "east"'


def _few_cases(rng, header, rows):
    del rows[rng.randint(1, len(header)):]


MUTATIONS = (
    _ragged, _cell("abc", "1,5"), _cell("", " "), _cell("nan", "NaN"),
    _cell("-inf", "inf", "1e999"), _duplicate_id, _blank_id, _constant_column,
    _duplicate_column, _duplicate_column, _duplicate_name, _comma_id, _few_cases,
    _few_cases,
)


def _csv_bytes(header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    return buf.getvalue().encode("utf-8")


def _damage(rng, data):
    """Sometimes empty the file, cut it to its header, add a BOM or a non-UTF-8 byte."""
    roll = rng.random()
    body = data.index(b"\n") + 1
    if roll < 0.02:
        return b""
    if roll < 0.04:
        return data[:body]
    if roll < 0.08:
        return b"\xef\xbb\xbf" + data
    if roll < 0.14:
        cut = rng.randrange(body, len(data))
        return data[:cut] + b"\xff" + data[cut:]
    return data


def _flags(rng, command, header, rows):
    """Generated flags for ``command``: mostly valid, some out of range or mistyped."""
    p = len(header) - 1
    argv = []
    if rng.random() < 0.3:
        argv += ["--missing-policy", "listwise"]
    if rng.random() < 0.1:
        argv += ["--id-column", rng.choice(("id", "v0", "nope"))]
    if rng.random() < 0.2:
        argv += ["--format", "csv", "--format", "text"]
    if command in ("analyze", "factors", "rank") and rng.random() < 0.2:
        argv += ["--retention", rng.choice(("fixed", "fixed", "kaiser")),
                 "--retention-k", rng.choice(("1", "2", str(p + 1), "0", "-2", "x"))]
    if command in ("analyze", "rank"):
        if rng.random() < 0.4:
            argv += ["--k", rng.choice(("1", "2", str(len(rows) // 2),
                                        str(len(rows) // 2 + 1), "0", "-1", "x"))]
        else:
            argv += ["--k", "2"]
        if rng.random() < 0.3:
            argv += ["--factor", rng.choice(("1", "2", "3", "0", "x"))]
    if command == "compare":
        ids = [row[0].strip() for row in rows if row]
        rng.shuffle(ids)
        half = max(1, len(ids) // 2)
        group1, group2 = ids[:half], ids[half:]
        roll = rng.random()
        if roll < 0.1 and group1:
            group1.append(group1[0])
        elif roll < 0.15 and group2:
            group1.append(group2[0])
        elif roll < 0.2:
            group2.append("nobody")
        argv += ["--group1", ",".join(group1), "--group2", ",".join(group2)]
    return argv


# The inputs the program once accepted, and the text each is now rejected with.
NEWLY_REJECTED = (
    ("blank id", "blank case id"),
    ("kaiser k", "retention.k must be an integer >= 1"),
    ("repeated id", "repeats case id"),
)


def fuzz_case(rng, directory, index):
    """Write case ``index`` under ``directory``; return ``(argv, expected)``.

    ``expected`` is None for a random case, or the stderr text that one of
    the once-accepted inputs must now exit 2 with.
    """
    path = os.path.join(directory, f"in{index}.csv")
    out = os.path.join(directory, f"out{index}")
    expected = None
    if index % 10 == 9:
        kind, expected = NEWLY_REJECTED[(index // 10) % len(NEWLY_REJECTED)]
        header, rows = _table(rng, rng.randint(8, 14), rng.randint(3, 5))
        command = rng.choice(("analyze", "factors", "rank"))
        flags = [] if command == "factors" else ["--k", "2"]
        if kind == "blank id":
            _blank_id(rng, header, rows)
        elif kind == "kaiser k":
            flags += ["--retention", "kaiser", "--retention-k", rng.choice(("0", "-2"))]
        else:
            ids = [row[0] for row in rows]
            command, flags = "compare", ["--group1", ",".join(ids[:3] + ids[1:2]),
                                         "--group2", ",".join(ids[3:6])]
        data = _csv_bytes(header, rows)
    else:
        header, rows = _table(rng, rng.randint(3, 16), rng.randint(2, 8))
        for mutate in rng.sample(MUTATIONS, rng.choice((0, 0, 1, 1, 2))):
            mutate(rng, header, rows)
        command = rng.choice(("analyze", "analyze", "factors", "rank", "compare"))
        flags = _flags(rng, command, header, rows)
        data = _damage(rng, _csv_bytes(header, rows))
    with open(path, "wb") as fh:
        fh.write(data)
    return [command, "--input", path, "--out-dir", out] + flags, expected


# Artifact paths a directory is put at, in turn, on every BLOCK_EVERY-th case.
BLOCKED = ("run_summary.json", "factor_model.txt", "ranking.csv")
BLOCK_EVERY = 4


def _block(out, name):
    """An earlier run's out-dir: one earlier file, and a directory at ``name``."""
    os.makedirs(os.path.join(out, name))
    with open(os.path.join(out, "comparison.json"), "w", encoding="utf-8") as fh:
        fh.write("earlier\n")
    return _snapshot(out)


def _snapshot(out):
    """Every entry of ``out`` with its bytes (None for a directory)."""
    entries = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if os.path.isdir(path):
            entries[name] = None
        else:
            with open(path, "rb") as fh:
                entries[name] = fh.read()
    return entries


def _listwise_notice(path):
    """The stderr a successful run on ``path`` prints: the listwise notice
    naming the rows with a blank or non-finite cell, in file order, or ""."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:]
                if any(cell.strip() for cell in row)]
    dropped = [row[0].strip() for row in rows
               if any(not cell.strip() or not math.isfinite(float(cell))
                      for cell in row[1:])]
    if not dropped:
        return ""
    return (f"warning: listwise deletion dropped {len(dropped)} case(s): "
            f"{', '.join(dropped)}\n")


def test_exit_code_contract_under_fuzzing(tmp_path, capsys):
    rng = random.Random(SEED)
    exits = {0: 0, 2: 0, 3: 0}
    stopped_at_block = noticed = 0
    for index in range(N_CASES):
        argv, expected = fuzz_case(rng, str(tmp_path), index)
        out = argv[argv.index("--out-dir") + 1]
        blocked = None
        if index % BLOCK_EVERY == 1:
            blocked = BLOCKED[index // BLOCK_EVERY % len(BLOCKED)]
            before = _block(out, blocked)
        rc = main(argv)
        captured = capsys.readouterr()
        err = captured.err
        assert rc in exits, (argv, rc, err)
        exits[rc] += 1
        assert "Traceback" not in err, (argv, err)
        if rc == 0:
            assert err == _listwise_notice(argv[argv.index("--input") + 1]), (argv, err)
            noticed += bool(err)
        if blocked is None:
            assert os.path.isdir(out) == (rc == 0), (argv, rc, err)
        elif rc == 0:
            assert os.path.isdir(os.path.join(out, blocked)), (argv, blocked)
            assert os.path.join(out, blocked) not in captured.out.splitlines()
        else:
            # All or none: no new file, and the earlier files untouched.
            assert _snapshot(out) == before, (argv, rc, err)
            if "Is a directory" in err:
                stopped_at_block += 1
                *notices, last, end = err.split("\n")
                assert last == ("error: [Errno 21] Is a directory: "
                                f"{os.path.join(out, blocked)!r}") and not end, (argv, err)
                assert all(line.startswith("warning: ") for line in notices), (argv, err)
        if expected is not None:
            assert rc == 2 and expected in err, (argv, rc, err)
        if rc == 3:
            # Every singular R in the corpus has a named cause.
            assert "smallest eigenvalue" not in err, (argv, err)
    # The corpus reaches every outcome, not just the input checks.
    assert min(exits.values()) >= 20, exits
    assert stopped_at_block >= 10, stopped_at_block
    assert noticed >= 3, noticed


# Every SPLIT_EVERY-th case is replayed with every input split in two.
SPLIT_EVERY = 10


def test_a_split_parse_changes_no_outcome(tmp_path, capsys, monkeypatch):
    """Exit code, stdout, stderr and artifact bytes of a run that parses its
    input on two cores are those of the run that parses it in one pass."""
    rng = random.Random(SEED)
    cases = []
    for index in range(N_CASES):
        argv, _ = fuzz_case(rng, str(tmp_path), index)
        if index % SPLIT_EVERY == 0:
            cases.append(argv)

    def run(argv):
        out = argv[argv.index("--out-dir") + 1]
        shutil.rmtree(out, ignore_errors=True)
        rc = main(argv)
        captured = capsys.readouterr()
        return (rc, captured.out, captured.err,
                _snapshot(out) if os.path.isdir(out) else None)

    serial = [run(argv) for argv in cases]
    started = force_split(monkeypatch)
    for argv, expected in zip(cases, serial):
        assert run(argv) == expected, argv
    assert len(started) >= len(cases) // 2, len(started)
