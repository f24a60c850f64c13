"""Command line behavior: outputs, exit codes, byte stability."""

import argparse
import gc
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from treebound import _bfs_kernels as kern
from treebound import batch
from treebound import bounds as bd
from treebound import cli
from treebound import enumeration as en
from treebound import oracle as orc
from treebound import tree as tr


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_error(capsys, prefix, *argv):
    """Bad input: exit 1, nothing on stdout, one `error:` line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(prefix) and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# bound

def test_bound_make_star(capsys):
    code, out, _ = run(capsys, "bound", "--make", "star:8", "--bound", "delta-star")
    assert code == 0
    assert out == "tree star:8 n=8 delta-star=10\n"


def test_bound_on_a_deep_tree(capsys):
    # a path far deeper than the recursion limit: no step recurses per level
    code, out, _ = run(capsys, "bound", "--make", "path:2100", "--bound", "delta-star")
    assert code == 0
    assert out == f"tree path:2100 n=2100 delta-star={2100 * 2099 // 2}\n" == (
        "tree path:2100 n=2100 delta-star=2203950\n")


def test_bound_all_from_g6_file(capsys, tmp_path):
    path = tmp_path / "trees.g6"
    path.write_text("Bg\n")
    code, out, _ = run(capsys, "bound", "--input", str(path))
    assert code == 0
    assert "delta-star=3 delta-prime-v1=3 delta-prime-v2=3" in out


def test_bound_edges_file(capsys, tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("4\n1 2\n2 3\n3 4\n")
    code, out, _ = run(
        capsys, "bound", "--input", str(path), "--format", "edges",
        "--bound", "delta-star",
    )
    assert code == 0 and "delta-star=6" in out


def test_bound_trace_text(capsys):
    code, out, _ = run(
        capsys, "bound", "--make", "matchstick:3", "--trace",
        "--bound", "delta-star",
    )
    assert code == 0
    assert "trace delta-star:" in out
    assert "total = 11 moves" in out


def test_bound_json(capsys):
    code, out, _ = run(
        capsys, "bound", "--make", "path:6", "--output", "json",
        "--bound", "delta-prime-v2",
    )
    doc = json.loads(out)
    assert code == 0 and doc[0]["delta-prime-v2"] == 15
    assert "traces" not in doc[0]


def test_bound_csv(capsys):
    code, out, _ = run(
        capsys, "bound", "--make", "full-binary:2", "--output", "csv",
    )
    lines = out.splitlines()
    assert lines[0] == "tree,n,delta-star,delta-prime-v1,delta-prime-v2"
    assert lines[1] == "full-binary:2,7,15,15,15"


def test_bound_strict_pseudocode_leaves_the_baselines_alone(capsys, tmp_path):
    # the flag reaches every bound's engine call, but only delta-star reads it
    trees = [t for n in range(1, 10) for t in en.enumerate_free_trees(n)]
    path = tmp_path / "trees.g6"
    path.write_text("".join(en.encode_graph6(t) + "\n" for t in trees))
    docs = []
    for flags in ((), ("--strict-pseudocode",)):
        code, out, _ = run(capsys, "bound", "--input", str(path), "--bound", "all",
                           "--trace", "--output", "json", *flags)
        assert code == 0
        docs.append(json.loads(out))
    plain, strict = docs
    assert len(plain) == len(strict) == len(trees)
    for t, a, b in zip(trees, plain, strict):
        for name in ("delta-prime-v1", "delta-prime-v2"):
            assert (a[name], a["traces"][name]) == (b[name], b["traces"][name])
        value, trace = bd.delta_star(t, strict_pseudocode=True)
        assert (b["delta-star"], b["traces"]["delta-star"]) == (value.moves, trace.to_json())
    # and the flag does change delta-star on some of these trees
    assert any(a["delta-star"] != b["delta-star"] for a, b in zip(plain, strict))


def test_bound_bad_make_spec(capsys):
    for spec in ("pentagon:5", "spider:3"):
        assert_error(capsys, "error: bad --make spec", "bound", "--make", spec)


@pytest.mark.parametrize("spec, line", [
    ("star:0", "star needs at least 1 vertex"),
    ("path:0", "path needs at least 1 vertex"),
    ("full-binary:-1", "depth must be non-negative"),
    ("spider:0,2", "spider needs m >= 1 legs of k >= 1 edges"),
    ("matchstick:0", "matchstick needs k >= 1"),
    ("star:abc", "bad --make spec 'star:abc'; expected star:N, path:N, full-binary:D, "
                 "spider:M,K or matchstick:K"),
])
def test_bad_make_value_message(capsys, spec, line):
    assert run(capsys, "bound", "--make", spec) == (1, "", f"error: {line}\n")


def test_bound_missing_file(capsys):
    code, _, err = run(capsys, "bound", "--input", "/no/such/file.g6")
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------------------
# table1

def test_table1_small_matches_reference(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "8", "--jobs", "1")
    assert code == 0
    assert "n=6 trees=6 delta-star=63 delta-prime-v1=63 delta-prime-v2=63" in out
    assert "n=8 trees=23 delta-star=407 delta-prime-v1=409 delta-prime-v2=407" in out
    assert out.count("MISMATCH") == 0
    assert "ordering dstar<=v2<=v1: ok" in out


def test_table1_stdout_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "table1", "--n-max", "7", "--jobs", "1")
    _, out2, _ = run(capsys, "table1", "--n-max", "7", "--jobs", "1")
    assert out1 == out2


def test_table1_json_report(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "7", "--jobs", "1",
                       "--output", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["experiment"] == "table1"
    assert doc["rows"][0] == {
        "n": 6, "trees": 6, "delta-star": 63,
        "delta-prime-v1": 63, "delta-prime-v2": 63,
    }
    assert all(c["match"] for c in doc["comparisons"])
    assert "wall_time" not in doc


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "6", "--jobs", "1",
                       "--output", "csv")
    lines = out.splitlines()
    assert lines[0].startswith("n,trees,delta-star")
    assert lines[1].startswith("6,6,63,63,63")


def test_table1_sweep_skips_the_sort_key(monkeypatch):
    # table1 and verify only sum or count per size, so they take each
    # size's level sequences unsorted and never compute enumerate_free_trees'
    # sort key
    def no_sort_key(t):
        raise AssertionError("the sweep computed the enumeration sort key")

    with monkeypatch.context() as m:
        m.setattr(tr, "canonical_code", no_sort_key)
        seqs = (s for n in range(6, 12) for s in batch._free_level_sequences(n))
        sweep = list(batch.peel_sweep(seqs))
    assert [len(s) for s, _, _ in sweep] == sorted(len(s) for s, _, _ in sweep)
    assert {len(s) for s, _, _ in sweep} == set(range(6, 12))
    for n in range(6, 12):
        got = {en.encode_graph6(en._from_level_sequence(s)): v for s, _, v in sweep if len(s) == n}
        trees = en.enumerate_free_trees(n)
        swept = batch.peel_sweep(en.level_sequence(t)[0] for t in trees)
        want = {en.encode_graph6(t): v for t, (_, _, v) in zip(trees, swept)}
        assert sum(len(s) == n for s, _, _ in sweep) == len(trees)
        assert got == want, n


def test_table1_row_does_not_depend_on_the_smaller_sizes(capsys):
    # alone, n = 13 values every leftover on a memo miss, from a level
    # sequence; after n = 6..12, nearly all of them come out of the memo
    _, alone, _ = run(capsys, "table1", "--n-min", "13", "--n-max", "13")
    _, after, _ = run(capsys, "table1", "--n-min", "6", "--n-max", "13")
    row = [line for line in alone.splitlines() if line.startswith("n=13 ")]
    assert len(row) == 1 and row[0] in after.splitlines()


# ---------------------------------------------------------------------------
# table2

def test_table2_delta_star_column_clean(capsys):
    code, out, _ = run(capsys, "table2")
    # the main bound reproduces its recorded column; the baseline columns
    # are reconstructions and disagree with this table (they match the
    # cumulative table instead), so the run reports mismatches
    assert code == 2
    for val in (3, 15, 55, 167, 453, 1153, 2807):
        assert f"dstar={val} ok" in out
    assert "MISMATCH" in out
    for line in out.splitlines():
        if line.startswith("gap-check"):
            assert line.endswith("ok")


def test_table2_gap_checks_all_pass(capsys):
    _, out, _ = run(capsys, "table2")
    gaps = [l for l in out.splitlines() if l.startswith("gap-check")]
    assert len(gaps) == 12


def test_table2_csv(capsys):
    code, out, _ = run(capsys, "table2", "--d-max", "3", "--output", "csv")
    lines = out.splitlines()
    assert lines[1] == "1,3,2,3,3,3,"
    assert lines[2].startswith("2,7,4,15,15,15,")
    assert "v1" in lines[2].split(",")[-1]


# ---------------------------------------------------------------------------
# verify

def test_verify_no_violations(capsys):
    code, out, err = run(capsys, "verify", "--n-min", "3", "--n-max", "6")
    assert code == 0
    assert "violations-total=0" in out
    assert "slack,count" in out
    assert err.splitlines()[0] == "exact diameters: 12 pinned"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n-min", "3", "--n-max", "5",
                       "--output", "json")
    doc = json.loads(out)
    assert code == 0 and doc["violations"] == []
    assert sum(doc["slack_histogram"].values()) == 1 + 2 + 3


def test_verify_at_n_11_does_not_warn_of_a_bfs(capsys):
    # every diameter verify needs is pinned, so no BFS runs, none is
    # announced and no cap is needed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--n-min", "10", "--n-max", "11")
    assert code == 0 and err.startswith("exact diameters: 341 pinned\n")
    assert out.splitlines()[1:3] == ["n=10 trees=106", "n=11 trees=235"]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_oracle_builds_each_swap_table_once():
    # the 23 trees on 3..7 vertices have 116 edges between them, but their
    # swap tables span only 37 distinct (n, i, j)
    orc._depth_table_cached.cache_clear()
    kern._segment_table.cache_clear()
    for n in range(3, 8):
        for t in en.enumerate_free_trees(n):
            orc.cayley_diameter(t)
    info = kern._segment_table.cache_info()
    assert (info.hits + info.misses, info.misses) == (116, 37)


# ---------------------------------------------------------------------------
# enumerate / oracle

def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "8")
    assert code == 0
    assert len(out.splitlines()) == 23


def test_enumerate_edges_blocks(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "edges")
    blocks = out.strip().split("\n\n")
    assert code == 0 and len(blocks) == 2
    assert all(b.splitlines()[0] == "4" for b in blocks)


def test_oracle_matchstick(capsys):
    code, out, _ = run(capsys, "oracle", "--make", "matchstick:3")
    assert code == 0
    assert "diameter=11" in out
    assert "depth,count" in out


def test_oracle_csv(capsys):
    code, out, _ = run(capsys, "oracle", "--make", "path:3", "--output", "csv")
    assert out.splitlines() == [
        "tree,depth,count",
        "path:3,0,1",
        "path:3,1,2",
        "path:3,2,2",
        "path:3,3,1",
    ]


def test_oracle_cap_exceeded(capsys):
    code, _, err = run(capsys, "oracle", "--make", "path:12")
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------------------
# environment: the CLI reads no TREEBOUND_<FLAG> variable, so stdout and the
# exit code depend only on the flags

OLD_ENV_NAMES = ("BOUND", "CAP", "DISTSUM", "FORMAT", "JOBS", "OUTPUT", "STRICT_PSEUDOCODE")


@pytest.mark.parametrize("argv", [
    ("bound", "--make", "matchstick:4", "--trace"),
    ("table2", "--d-max", "3"),
    ("verify", "--n-max", "5"),
    ("oracle", "--make", "star:4"),
], ids=["bound", "table2", "verify", "oracle"])
def test_environment_changes_nothing(capsys, monkeypatch, argv):
    for name in OLD_ENV_NAMES:
        monkeypatch.delenv("TREEBOUND_" + name, raising=False)
    want = run(capsys, *argv)[:2]
    for name in OLD_ENV_NAMES:
        monkeypatch.setenv("TREEBOUND_" + name, "many")
    assert run(capsys, *argv)[:2] == want


def assert_env_ignored(capsys, monkeypatch, name, value, *argv):
    """TREEBOUND_<name>=value leaves stdout and the exit code as without it."""
    monkeypatch.delenv("TREEBOUND_" + name, raising=False)
    want = run(capsys, *argv)[:2]
    monkeypatch.setenv("TREEBOUND_" + name, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == want and "error" not in err, err


def test_env_output_json(capsys, monkeypatch):
    monkeypatch.setenv("TREEBOUND_OUTPUT", "json")
    _, out, _ = run(capsys, "bound", "--make", "path:3")
    assert out == "tree path:3 n=3 delta-star=3 delta-prime-v1=3 delta-prime-v2=3\n"


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("TREEBOUND_BOUND", "delta-star")
    code, out, _ = run(capsys, "bound", "--make", "star:5",
                       "--bound", "delta-prime-v1")
    assert out == "tree star:5 n=5 delta-prime-v1=6\n"


def _env_defaults():
    """(subcommand, action) for every flag that has one of the OLD_ENV_NAMES."""
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return [(cmd, action) for cmd, p in sub.choices.items()
            for action in p._actions if action.dest.upper() in OLD_ENV_NAMES]


ENV_DEFAULTS = _env_defaults()


@pytest.mark.parametrize("cmd, action", ENV_DEFAULTS,
                         ids=[f"{cmd}-{action.dest}" for cmd, action in ENV_DEFAULTS])
def test_env_default_acts_like_its_flag(monkeypatch, cmd, action):
    # each flag that TREEBOUND_<FLAG> once defaulted keeps its default and its
    # effect, and setting the variable to the flag's value no longer acts like it
    for name in OLD_ENV_NAMES:
        monkeypatch.delenv("TREEBOUND_" + name, raising=False)
    required = ["--n", "3"] if cmd == "enumerate" else []

    def parse(*argv):
        return vars(cli.build_parser().parse_args([cmd, *required, *argv]))

    flag = action.option_strings[0]
    if action.nargs == 0:  # a switch
        value, argv = "yes", [flag]
    elif action.type is int:
        value, argv = "3", [flag, "3"]
    else:
        value, argv = action.choices[-1], [flag, action.choices[-1]]
    fallback, flagged = parse(), parse(*argv)
    assert fallback[action.dest] == action.default and fallback != flagged

    monkeypatch.setenv("TREEBOUND_" + action.dest.upper(), value)
    assert parse() == fallback and parse(*argv) == flagged


@pytest.mark.parametrize("name, argv", [
    ("JOBS", ("table1", "--n-max", "6")),
    ("CAP", ("oracle", "--make", "star:3")),
], ids=["JOBS", "CAP"])
def test_env_non_integer(capsys, monkeypatch, name, argv):
    assert_env_ignored(capsys, monkeypatch, name, "many", *argv)


@pytest.mark.parametrize("name, argv", [
    ("JOBS", ("bound", "--make", "star:4")),
    ("CAP", ("bound", "--make", "star:4")),
    ("SEED", ("bound", "--make", "matchstick:4", "--trace")),
], ids=["JOBS", "CAP", "SEED"])
def test_env_non_integer_ignored_where_unread(capsys, monkeypatch, name, argv):
    assert_env_ignored(capsys, monkeypatch, name, "many", *argv)


@pytest.mark.parametrize("name, value, argv", [
    ("OUTPUT", "csv", ("verify", "--n-max", "4")),
    ("DISTSUM", "bogus", ("table1", "--n-max", "6")),
    ("FORMAT", "xml", ("oracle", "--make", "star:3")),
    ("BOUND", "nope", ("table1", "--n-max", "6")),
], ids=["verify-csv", "distsum", "format", "bound"])
def test_env_default_outside_choices(capsys, monkeypatch, name, value, argv):
    assert_env_ignored(capsys, monkeypatch, name, value, *argv)


def test_docs_name_only_resolved_variables():
    # the CLI resolves no TREEBOUND_<FLAG> variable, so the docs name none
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    for doc in (readme.read_text(encoding="utf-8"), cli.__doc__):
        named = set(re.findall(r"TREEBOUND_[A-Z_]+", doc))
        assert not named, named


def test_readme_library_use_runs(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(block, {})
    assert capsys.readouterr().out.startswith("55\n")


# ---------------------------------------------------------------------------
# --jobs is accepted and ignored: table1 runs in one process, and the
# benchmark still passes the flag

def test_table1_ignores_jobs(capsys):
    _, serial, _ = run(capsys, "table1", "--n-min", "10", "--n-max", "10",
                       "--jobs", "1")
    _, parallel, _ = run(capsys, "table1", "--n-min", "10", "--n-max", "10",
                         "--jobs", "4")
    assert serial == parallel


# ---------------------------------------------------------------------------
# error contract: one `error:` line and exit 1, never a traceback

def test_edge_list_non_integer_token(capsys, tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("2\n1 x\n")
    assert_error(capsys, "error: edge endpoints must be integers",
                 "bound", "--input", str(path), "--format", "edges")


@pytest.mark.parametrize("cmd", ["bound", "oracle"])
@pytest.mark.parametrize("fmt", ["g6", "edges"])
def test_tree_file_not_ascii(capsys, tmp_path, cmd, fmt):
    path = tmp_path / "trees.txt"
    path.write_bytes(b"2\n1 \xc3\n")
    assert_error(capsys, f"error: {path} is not an ASCII text file",
                 cmd, "--input", str(path), "--format", fmt)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "20"),
    ("enumerate", "--n", "0"),
    ("verify", "--n-min", "0", "--n-max", "3"),
], ids=["enumerate-20", "enumerate-0", "verify-n-min-0"])
def test_tree_size_out_of_range(capsys, argv):
    assert_error(capsys, "error: supported range is 1 <= n <= 16", *argv)


def test_unknown_bound(capsys):
    assert_error(capsys, "error: treebound bound: argument --bound: invalid choice: 'nope'",
                 "bound", "--make", "star:4", "--bound", "nope")


@pytest.mark.parametrize("argv, prefix", [
    (("enumerate", "--n", "abc"),
     "error: treebound enumerate: argument --n: invalid int value: 'abc'"),
    (("table2", "--output", "xml"), "error: treebound table2: argument --output"),
    (("bound", "--bogus"), "error: treebound: unrecognized arguments: --bogus"),
    ((), "error: treebound: the following arguments are required: command"),
    # each subcommand accepts only the flags it reads
    (("verify", "--seed", "3"), "error: treebound: unrecognized arguments: --seed 3"),
    (("bound", "--make", "star:4", "--cap", "5"),
     "error: treebound: unrecognized arguments: --cap 5"),
    (("oracle", "--make", "star:3", "--strict-pseudocode"),
     "error: treebound: unrecognized arguments: --strict-pseudocode"),
    # full ties leave isomorphic trees, so a seed could change no value
    (("table1", "--seed", "1"), "error: treebound: unrecognized arguments: --seed 1"),
    (("bound", "--make", "star:4", "--seed", "7"),
     "error: treebound: unrecognized arguments: --seed 7"),
    # one tree source at a time
    (("bound", "--make", "star:4", "--input", "/no/such/file.g6"),
     "error: treebound bound: argument --input: not allowed with argument --make"),
    (("oracle", "--input", "/no/such/file.g6", "--make", "star:3"),
     "error: treebound oracle: argument --make: not allowed with argument --input"),
    # verify's report has no csv form
    (("verify", "--output", "csv"),
     "error: treebound verify: argument --output: invalid choice: 'csv'"),
    # a trace has no csv form
    (("bound", "--make", "star:4", "--trace", "--output", "csv"),
     "error: --trace has no csv form"),
], ids=["bad-int", "bad-choice", "unknown-flag", "no-command",
        "verify-seed", "bound-cap", "oracle-strict-pseudocode", "table1-seed", "bound-seed",
        "bound-make-input", "oracle-input-make", "verify-csv", "bound-trace-csv"])
def test_argparse_errors_exit_1(capsys, argv, prefix):
    assert_error(capsys, prefix, *argv)


@pytest.mark.parametrize("argv, prefix", [
    (("table1", "--n-min", "6", "--n-max", "17"),
     "error: supported range is 1 <= n <= 16, got 17"),
    # verify reads pinned diameters, which stop at n = 11
    (("verify", "--n-max", "12"), "error: n=12 has no pinned exact diameter to verify against"),
], ids=["table1-size", "verify-unpinned"])
def test_bad_range_fails_before_any_tree_is_valued(capsys, monkeypatch, argv, prefix):
    def valued(*args, **kwargs):
        raise AssertionError("a tree was valued before the range was checked")

    monkeypatch.setattr(tr, "bfs_distances", valued)
    monkeypatch.setattr(batch, "_Rooted", valued)
    monkeypatch.setattr(orc, "cayley_diameter", valued)
    assert_error(capsys, prefix, *argv)


def _argvs():
    """Every argv of the golden cases and of perfbench's recorded runs."""
    root = pathlib.Path(__file__).parents[1]
    golden = json.loads((root / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    runs = json.loads((root / "perfbench" / "expected" / "outputs.json")
                      .read_text(encoding="utf-8"))["runs"]
    return [case["argv"] for case in golden.values()] + [key.split() for key in runs]


def _parsed(parser, argv):
    """The namespace parser reads from argv, func by name, or its error."""
    try:
        args = parser.parse_args(argv)
    except cli.UsageError as exc:
        return str(exc)
    return {**vars(args), "func": args.func.__name__}


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_each_subcommand_parses_alone_as_with_all(argv):
    # main() builds the named subcommand's arguments only; the whole parser
    # (no argv, as perfbench builds it) must read the command line the same
    assert _parsed(cli.build_parser(argv), argv) == _parsed(cli.build_parser(), argv)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: treebound enumerate")


@pytest.mark.parametrize("argv, flag", [
    (("table1", "--n-min", "8", "--n-max", "5"), "--n-min 8 > --n-max 5"),
    (("table2", "--d-min", "3", "--d-max", "2"), "--d-min 3 > --d-max 2"),
    (("verify", "--n-min", "5", "--n-max", "4"), "--n-min 5 > --n-max 4"),
], ids=["table1", "table2", "verify"])
def test_empty_range(capsys, argv, flag):
    assert_error(capsys, f"error: empty range: {flag}", *argv)


# ---------------------------------------------------------------------------
# runtime dependencies

def _run_python(code):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_import_loads_no_submodule():
    # each public name has one home, its module: the package re-exports none
    done = _run_python("import sys, treebound\n"
                       "print([m for m in sys.modules if m.startswith('treebound.')])\n")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_runtime_needs_neither_networkx_nor_numba():
    # None in sys.modules makes any import of the name raise ImportError
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "sys.modules['numba'] = None\n"
        "import treebound.cli as cli\n"
        "assert cli.main(['enumerate', '--n', '6']) == 0\n"
        "assert cli.main(['oracle', '--make', 'star:4']) == 0\n"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr


def test_subcommands_without_the_oracle_run_without_numpy():
    # None in sys.modules makes any import of the name raise ImportError, so
    # each subcommand is also run with the modules it must not load blocked
    runs = [
        ("numpy", "assert cli.main(['table1', '--n-min', '6', '--n-max', '8']) == 0\n"
                  "assert cli.main(['table2', '--d-max', '3']) == 2\n"
                  "assert cli.main(['bound', '--make', 'spider:3,2']) == 0\n"
                  "assert cli.main(['enumerate', '--n', '7']) == 0\n"
                  "assert cli.main(['verify']) == 0\n"),  # 3..8: every diameter is pinned
        # the batch path: table1 values level sequences, verify reads pinned codes
        ("treebound.tree treebound.oracle treebound.bounds treebound.enumeration",
         "assert cli.main(['table1', '--n-min', '6', '--n-max', '8']) == 0\n"),
        ("treebound.tree treebound.golden treebound.oracle treebound.bounds "
         "treebound.enumeration", "assert cli.main(['verify']) == 0\n"),
        # the traced layer is loaded only by bound and table2
        ("treebound.bounds", "assert cli.main(['enumerate', '--n', '7']) == 0\n"
                             "assert cli.main(['oracle', '--make', 'star:4']) == 0\n"),
        # the tree-side subcommands' module is loaded only by them
        ("treebound.treecli", "assert cli.main(['table1', '--n-min', '6', '--n-max', '8']) == 0\n"
                              "assert cli.main(['verify']) == 0\n"),
    ]
    for blocked, calls in runs:
        code = ("import sys\n"
                + "".join(f"sys.modules[{m!r}] = None\n" for m in blocked.split())
                + "import treebound.cli as cli\n" + calls)
        done = _run_python(code)
        assert done.returncode == 0, (blocked, done.stderr)


def test_oracle_loads_numpy_on_first_use():
    code = (
        "import sys\n"
        "import treebound, treebound.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['oracle', '--make', 'star:4']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert cli.main(['verify', '--n-min', '3', '--n-max', '5']) == 0\n"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr


_TEXT_RUNS = (
    "assert cli.main(['table1', '--n-min', '6', '--n-max', '7']) == 0\n"
    "assert cli.main(['table2', '--d-max', '3']) == 2\n"
    "assert cli.main(['bound', '--make', 'spider:3,2', '--trace']) == 0\n"
    "assert cli.main(['enumerate', '--n', '7']) == 0\n"
    "assert cli.main(['verify', '--n-max', '4']) == 0\n"
)
_ORACLE_RUNS = (
    "assert cli.main(['oracle', '--make', 'star:4']) == 0\n"
)


def test_text_output_runs_without_dataclasses_or_json():
    # numpy imports inspect itself, so only the numpy-free subcommands can
    # also run with inspect blocked
    # random is blocked too, so no import path brings back a random tie-break
    blocked = ("import sys\n"
               "sys.modules['dataclasses'] = sys.modules['json'] = sys.modules['random'] = None\n")
    done = _run_python(blocked + "import treebound.cli as cli\n" + _TEXT_RUNS + _ORACLE_RUNS)
    assert done.returncode == 0, done.stderr
    blocked += "sys.modules['inspect'] = sys.modules['numpy'] = None\n"
    done = _run_python(blocked + "import treebound.cli as cli\n" + _TEXT_RUNS)
    assert done.returncode == 0, done.stderr


def test_json_output_loads_json_on_demand():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import treebound.cli as cli\n"
        "assert not {'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)\n"
        "assert cli.main(['table1', '--n-min', '6', '--n-max', '6']) == 0\n"
        "assert 'json' not in sys.modules\n"
        "assert cli.main(['table1', '--n-min', '6', '--n-max', '6', '--output', 'json']) == 0\n"
        "assert 'json' in sys.modules\n"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# exit path: `python -m treebound.cli` and the `treebound` script go through
# cli.run(), which freezes the heap so the interpreter skips its shutdown
# collection

@pytest.mark.parametrize("argv, code", [
    (("table1", "--n-max", "8"), 0),
    (("table1", "--n-min", "12", "--n-max", "12"), 2),  # a recorded row mismatches
    (("bound", "--make", "pentagon:5"), 1),
], ids=["ok", "mismatch", "hard"])
def test_module_run_matches_main(capsys, argv, code):
    frozen = gc.get_freeze_count()
    want = run(capsys, *argv)
    assert gc.get_freeze_count() == frozen  # main() leaves its caller's heap collectable
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "treebound.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert (want[0], done.returncode) == (code, code)
    assert done.stdout == want[1].encode()
    if code == 1:
        assert done.stderr == want[2].encode()


def _module_run(*argv):
    """A `python -m treebound.cli` run under -X importtime, and the package
    modules it imported."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "treebound.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done, {m for m in imported if m.startswith("treebound.")}


_BATCH_ONLY = {"treebound.batch"}
_TREE_SIDE = {"treebound.batch", "treebound.bounds", "treebound.enumeration", "treebound.tree",
           "treebound.treecli"}


@pytest.mark.parametrize("argv, want", [
    (("verify", "--n-min", "3", "--n-max", "7"), _BATCH_ONLY),
    (("table1", "--n-min", "6", "--n-max", "7"), _BATCH_ONLY | {"treebound.golden"}),
    # treecli imports the running cli, which must not be compiled a second time
    (("bound", "--make", "star:4"), _TREE_SIDE),
    (("enumerate", "--n", "5"), _TREE_SIDE - {"treebound.bounds"}),
    (("oracle", "--make", "star:4"),
     _TREE_SIDE - {"treebound.bounds"} | {"treebound.oracle", "treebound._bfs_kernels"}),
], ids=["verify", "table1", "bound", "enumerate", "oracle"])
def test_module_run_imports_only_what_it_runs(argv, want):
    done, imported = _module_run(*argv)
    assert done.returncode == 0 and imported == want, done.stderr


@pytest.mark.parametrize("argv, error", [
    (("verify", "--n-max", "12"), "error: n=12 has no pinned exact diameter to verify against"),
    (("table1", "--n-max", "17"), "error: supported range is 1 <= n <= 16, got 17"),
], ids=["verify-unpinned", "table1-size"])
def test_refused_run_names_its_error_without_loading_more(argv, error):
    # main() names the exception classes of the modules a run loaded only
    done, imported = _module_run(*argv)
    lines = [line for line in done.stderr.splitlines() if not line.startswith("import time:")]
    assert (done.returncode, done.stdout, lines) == (1, "", [error])
    assert imported <= _BATCH_ONLY | {"treebound.golden"}, imported


def test_run_freezes_the_heap_and_still_runs_atexit():
    code = (
        "import atexit, gc, sys\n"
        "import treebound.cli as cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['treebound', 'enumerate', '--n', '4']\n"
        "cli.run()\n"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Cs\nCk\nfrozen True\n"
