"""The pinned exact diameters of every free tree with n <= 11.

src/treebound/exact_diameters.txt holds one "<graph6> <diameter> <code>"
line per free tree on 1..11 vertices, in enumerate_free_trees order, each
diameter computed by the oracle's BFS.  <code> is the tree's canonical code
in hex of its parenthesis bits ("(" = 1, ")" = 0), so batch.pinned_diameters
looks diameters up without parsing graph6; _line writes it, and only
pinned_diameters reads it back.  verify reads the file and runs no BFS.
These tests check that the file covers exactly those trees with their
codes, recompute a fixed sample with the oracle so the data cannot drift
from the kernel, and check every bound against the pinned diameters.

To re-record (about 8 minutes on two processes, most of it on n = 11),
run from the repository root:

    PYTHONPATH=src python3 tests/test_exact_diameters.py
"""

import multiprocessing
import pathlib
import sys
import time
import warnings

import pytest

from treebound import batch
from treebound import enumeration as en
from treebound import oracle as orc
from treebound import tree as tr

DATA = pathlib.Path(orc.__file__).with_name("exact_diameters.txt")
SIZES = range(1, orc.MAX_CAP + 1)
COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235)  # free trees on n = 1..11 vertices
# sum of the exact diameters over every free tree on n vertices, n = 8..11
CUMULATIVE = {8: 393, 9: 971, 10: 2607, 11: 6728}
HEADER = ("# exact Cayley-graph diameter of every free tree on 1..11 vertices, by BFS;\n"
          "# one '<graph6> <diameter> <code>' line per tree in enumerate_free_trees order,\n"
          "# <code> the canonical code in hex of its bits, '(' = 1 and ')' = 0.\n"
          "# Re-record: PYTHONPATH=src python3 tests/test_exact_diameters.py\n")


def _lines() -> list[tuple[str, int, str]]:
    out = []
    for line in DATA.read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            g6, diameter, code = line.split()
            out.append((g6, int(diameter), code))
    return out


def _line(g6: str, diameter: int) -> str:
    """The data file's line for one tree: its canonical code goes in hex."""
    code = tr.canonical_code(en.parse_graph6(g6))
    bits = int(code.translate(bytes.maketrans(b"()", b"10")), 2)
    return f"{g6} {diameter} {bits:x}\n"


@pytest.fixture(scope="module")
def pinned():
    return batch.pinned_diameters(SIZES)


def test_file_holds_every_tree_in_enumeration_order():
    lines = _lines()
    assert [sum(1 for g6, *_ in lines if en.parse_graph6(g6).n == n) for n in SIZES] \
        == list(COUNTS)
    trees = [en.parse_graph6(g6) for g6, *_ in lines]
    codes = [tr.canonical_code(t) for t in trees]
    assert len(set(codes)) == len(codes) == sum(COUNTS)
    want = [t for n in SIZES for t in en.enumerate_free_trees(n)]
    assert codes == [tr.canonical_code(t) for t in want]
    assert [g6 for g6, *_ in lines] == [en.encode_graph6(t) for t in want]
    assert DATA.stat().st_size < 10_000


def test_every_stored_code_is_its_trees_code():
    for g6, diameter, code in _lines():
        assert _line(g6, diameter) == f"{g6} {diameter} {code}\n"


def test_the_line_writer_reproduces_the_file():
    # what a re-record writes, given the committed diameters: no BFS runs
    text = HEADER + "".join(_line(g6, diameter) for g6, diameter, _ in _lines())
    assert text == DATA.read_text(encoding="ascii")


def test_loader_builds_no_tree(monkeypatch, pinned):
    want = {tr.canonical_code(en.parse_graph6(g6)): d for g6, d, _ in _lines()}

    def built(*args, **kwargs):
        raise AssertionError("pinned_diameters built a tree")

    monkeypatch.setattr(tr, "Tree", built)
    monkeypatch.setattr(tr, "bfs_distances", built)
    assert batch.pinned_diameters(range(1, 12)) == want == pinned


def test_loader_parses_only_the_requested_sizes(pinned):
    assert len(pinned) == sum(COUNTS)
    some = batch.pinned_diameters(range(3, 8))
    assert len(some) == 1 + 2 + 3 + 6 + 11 and some.items() <= pinned.items()
    assert batch.pinned_diameters([12, 13]) == {}


@pytest.mark.parametrize("n", range(1, 8))
def test_pinned_matches_the_oracle_below_8(pinned, n):
    for t in en.enumerate_free_trees(n):
        assert pinned[tr.canonical_code(t)] == orc.cayley_diameter(t), en.encode_graph6(t)


# the closed forms: star n has 3(n-1)//2, path n has n(n-1)//2, a spider
# with one or two legs is a path and one with legs of 1 a star, and the
# matchstick has the recorded k^2+k-1 at k = 3 (not at k = 4 or 5)
@pytest.mark.parametrize("make, exact", [
    (lambda: tr.make_path(8), 28),
    (lambda: tr.make_star(9), 12),
    (lambda: tr.make_spider(4, 2), 18),
    (lambda: tr.make_matchstick(5), 26),
    (lambda: tr.make_star(7), 9),
    (lambda: tr.make_path(6), 15),
    (lambda: tr.make_path(1), 0),
    (lambda: tr.make_spider(1, 5), 15),
    (lambda: tr.make_spider(2, 3), 21),
    (lambda: tr.make_spider(5, 1), 7),
    (lambda: tr.make_matchstick(3), 11),
], ids=["path:8", "star:9", "spider:4,2", "matchstick:5", "star:7", "path:6", "path:1",
        "spider:1,5", "spider:2,3", "spider:5,1", "matchstick:3"])
def test_pinned_matches_the_oracle_on_named_trees(pinned, make, exact):
    t = make()
    assert pinned[tr.canonical_code(t)] == orc.cayley_diameter(t) == exact


def test_every_bound_is_sound_against_the_pinned_diameters(pinned):
    violations = []
    trees = [t for n in SIZES for t in en.enumerate_free_trees(n)]
    for t, (_, _, values) in zip(trees, batch.peel_sweep(en.level_sequence(t)[0] for t in trees)):
        exact = pinned[tr.canonical_code(t)]
        violations += [(en.encode_graph6(t), v, exact) for v in values if v < exact]
    assert not violations


def test_cumulative_exact_diameters():
    sums = {}
    for g6, diameter, _ in _lines():
        n = en.parse_graph6(g6).n
        sums[n] = sums.get(n, 0) + diameter
    assert {n: sums[n] for n in CUMULATIVE} == CUMULATIVE


# ---------------------------------------------------------------------------
# re-record

def _diameter(g6: str) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)  # the n = 11 size warning
        return orc.cayley_diameter(en.parse_graph6(g6), cap=orc.MAX_CAP)


def _record() -> None:
    lines = []
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for n in SIZES:
            t0 = time.time()
            g6s = [en.encode_graph6(t) for t in en.enumerate_free_trees(n)]
            diameters = pool.map(_diameter, g6s, chunksize=1)
            lines += map(_line, g6s, diameters)
            print(f"n={n}: {len(g6s)} trees, diameters sum {sum(diameters)}, "
                  f"{time.time() - t0:.1f}s", file=sys.stderr, flush=True)
    DATA.write_text(HEADER + "".join(lines), encoding="ascii")
    print(f"recorded {len(lines)} diameters to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    _record()
