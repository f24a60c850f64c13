"""Complete stdout and exit code of every subcommand in every output format.

The fragments checked in test_cli.py say what a report must contain; this
file pins the whole report, byte for byte, so that a change to how reports
are rendered shows up as a diff against tests/cli_golden.json.  stderr is
not compared: it carries wall time.

To re-record after an intended output change, run from the repository root:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from treebound import bounds as bd
from treebound import cli

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

# Input files, written to a scratch directory that the commands run in, so
# that file names in the output do not depend on where the suite runs.
FILES = {
    "trees.g6": "# three small trees\nBg\nDkC\nFkE?G\n",
    "mixed.g6": "Ds_\nKhCGGC@?G?_@\n",
    "tree.txt": "6\n1 2\n2 3\n3 4\n2 5\n3 6\n",
}

CASES = {
    "table1-text": ["table1", "--n-max", "9", "--jobs", "1"],
    "table1-csv": ["table1", "--n-max", "9", "--jobs", "1", "--output", "csv"],
    "table1-json": ["table1", "--n-max", "9", "--jobs", "1", "--output", "json"],
    "table1-pairwise": ["table1", "--n-min", "10", "--n-max", "10", "--jobs", "1",
                        "--distsum", "pairwise"],
    "table1-pairwise-csv": ["table1", "--n-min", "10", "--n-max", "10", "--jobs", "1",
                            "--distsum", "pairwise", "--output", "csv"],
    "table1-jobs2": ["table1", "--n-min", "10", "--n-max", "10", "--jobs", "2"],
    "table1-one-bound": ["table1", "--n-max", "7", "--jobs", "1",
                         "--bound", "delta-prime-v1"],
    "table2-text": ["table2"],
    "table2-csv": ["table2", "--output", "csv"],
    "table2-json": ["table2", "--output", "json"],
    "table2-strict": ["table2", "--strict-pseudocode"],
    "verify-text": ["verify", "--n-max", "6"],
    "verify-json": ["verify", "--n-max", "6", "--output", "json"],
    "verify-csv": ["verify", "--n-max", "6", "--output", "csv"],
    "verify-pairwise": ["verify", "--n-min", "5", "--n-max", "6", "--distsum", "pairwise"],
    "bound-make-trace": ["bound", "--make", "full-binary:2", "--trace"],
    "bound-make-trace-json": ["bound", "--make", "spider:3,2", "--trace",
                              "--output", "json"],
    "bound-make-strict": ["bound", "--make", "full-binary:3", "--strict-pseudocode",
                          "--bound", "delta-star"],
    "bound-g6-csv": ["bound", "--input", "trees.g6", "--output", "csv"],
    "bound-g6-json": ["bound", "--input", "trees.g6", "--output", "json"],
    "bound-g6-pairwise": ["bound", "--input", "trees.g6", "--distsum", "pairwise"],
    "bound-edges": ["bound", "--input", "tree.txt", "--format", "edges"],
    "bound-edges-csv": ["bound", "--input", "tree.txt", "--format", "edges",
                        "--output", "csv", "--bound", "delta-prime-v2"],
    "enumerate-g6": ["enumerate", "--n", "7"],
    "enumerate-edges": ["enumerate", "--n", "5", "--format", "edges"],
    "oracle-text": ["oracle", "--make", "matchstick:3"],
    "oracle-csv": ["oracle", "--input", "trees.g6", "--output", "csv"],
    "oracle-json": ["oracle", "--input", "trees.g6", "--output", "json"],
    "oracle-edges": ["oracle", "--input", "tree.txt", "--format", "edges"],
    # the second tree is past the oracle's cap: exit 1 after the first tree
    "oracle-cap-text": ["oracle", "--input", "mixed.g6"],
    "oracle-cap-csv": ["oracle", "--input", "mixed.g6", "--output", "csv"],
    "oracle-cap-json": ["oracle", "--input", "mixed.g6", "--output", "json"],
}


def run_case(argv) -> dict:
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def _write_files(directory: pathlib.Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="ascii")


@pytest.fixture
def scratch_dir(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert all(golden[name]["argv"] == argv for name, argv in CASES.items())


# the batch reports take every value from batch.peel_sweep; the per-tree
# engine runs only where a trace can be printed
BATCH = ("table1", "table2", "verify")


def _per_tree_engine(*args, **kwargs):
    raise AssertionError("a batch report ran the per-tree engine")


@pytest.mark.parametrize("name", sorted(CASES))
def test_full_stdout(name, golden, scratch_dir, monkeypatch):
    if CASES[name][0] in BATCH:
        monkeypatch.setattr(bd, "_peel", _per_tree_engine)
    want = golden[name]
    got = run_case(CASES[name])
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


def _record() -> None:
    import tempfile

    here = os.getcwd()
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            for name, argv in CASES.items():
                doc[name] = {"argv": argv, **run_case(argv)}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
