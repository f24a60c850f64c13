"""Exact Cayley-graph facts: permutation plumbing, BFS tables, diameters."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from treebound import _bfs_kernels as kern
from treebound import oracle as orc
from treebound import tree as tr
import reference as ref


# ---------------------------------------------------------------------------
# permutations

def test_identity_and_validation():
    assert ref.identity(4) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        orc.rank((1, 1, 2))
    with pytest.raises(ValueError):
        orc.sort_distance(tr.make_path(3), (1, 1, 2))


def test_apply_move_examples():
    assert ref.apply_move((7, 6, 5, 4, 3, 2, 1), (1, 7)) == (1, 6, 5, 4, 3, 2, 7)
    assert ref.apply_move((2, 1, 3), (1, 2)) == (1, 2, 3)
    with pytest.raises(ValueError):
        ref.apply_move((1, 2, 3), (0, 2))
    with pytest.raises(ValueError):
        ref.apply_move((1, 2, 3), (2, 2))


def test_apply_move_is_involution():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 9)
        p = tuple(rng.sample(range(1, n + 1), n))
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            continue
        assert ref.apply_move(ref.apply_move(p, (i, j)), (i, j)) == p


def test_rank_unrank():
    # rank is a bijection onto range(n!): identity first, reversal last
    for n in range(1, 8):
        perms = list(itertools.permutations(range(1, n + 1)))
        assert sorted(orc.rank(p) for p in perms) == list(range(math.factorial(n)))
        assert orc.rank(ref.identity(n)) == 0
        assert orc.rank(ref.identity(n)[::-1]) == math.factorial(n) - 1


# ---------------------------------------------------------------------------
# distances

def test_sort_distance_reversal_on_path3():
    assert orc.sort_distance(tr.make_path(3), (3, 2, 1)) == 3


def _inversions(p) -> int:
    return sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )


def test_path_distance_is_inversion_count():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 8)
        t = tr.make_path(n)
        p = tuple(rng.sample(range(1, n + 1), n))
        assert orc.sort_distance(t, p) == _inversions(p)


def test_inverse_symmetry():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(2, 8)
        t = tr.make_spider(2, (n - 1) // 2) if n % 2 and n >= 5 else tr.make_path(n)
        p = tuple(rng.sample(range(1, n + 1), n))
        inv = [0] * n
        for pos, val in enumerate(p):
            inv[val - 1] = pos + 1
        assert orc.sort_distance(t, p) == orc.sort_distance(t, tuple(inv))


def test_exact_diameters_of_named_trees():
    assert orc.cayley_diameter(tr.make_star(4)) == 4
    assert orc.cayley_diameter(tr.make_path(4)) == 6
    assert orc.cayley_diameter(tr.make_matchstick(3)) == 11
    assert orc.cayley_diameter(tr.make_spider(2, 2)) == 10


def test_oracle_agrees_with_closed_forms():
    for n in range(2, 8):
        assert orc.cayley_diameter(tr.make_star(n)) == 3 * (n - 1) // 2
        assert orc.cayley_diameter(tr.make_path(n)) == n * (n - 1) // 2


def test_recorded_formulas_refuted_by_search():
    # these two recorded closed forms overshoot the true diameter
    assert orc.cayley_diameter(tr.make_spider(3, 2)) == 14  # formula says 15
    assert orc.cayley_diameter(tr.make_matchstick(4)) == 18  # formula says 19


def test_depth_profile_path3():
    assert orc.depth_profile(tr.make_path(3)) == [1, 2, 2, 1]


@pytest.mark.parametrize("t, profile", [
    (tr.build_tree(1, []), [1]),
    (tr.make_path(2), [1, 1]),
])
def test_smallest_trees(t, profile):
    # one level with no moves, and one edge with a single move
    assert orc.depth_profile(t) == profile
    assert orc.cayley_diameter(t) == len(profile) - 1
    reversal = tuple(range(t.n, 0, -1))
    assert orc.sort_distance(t, reversal) == len(profile) - 1


def test_profile_csv():
    text = orc.profile_csv(tr.make_path(3))
    assert text.splitlines()[0] == "depth,count"
    assert text.splitlines()[1] == "0,1"


def test_depth_table_cache_keeps_one_table():
    # each caller asks for one tree's table at a time; holding more only
    # keeps n!-byte tables alive
    for t in (tr.make_path(5), tr.make_star(5), tr.make_spider(2, 2)):
        orc.depth_profile(t)
    before = orc._depth_table_cached.cache_info()
    orc.cayley_diameter(tr.make_spider(2, 2))  # same tree again: a hit
    after = orc._depth_table_cached.cache_info()
    assert after.currsize == 1
    assert after.hits == before.hits + 1


def test_every_state_reached(all_trees):
    for n in range(2, 9):
        for t in all_trees(n):
            assert sum(orc.depth_profile(t)) == math.factorial(n)


def test_profile_invariant_under_relabeling(random_tree):
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randrange(3, 8)
        t = random_tree(n, rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        t2 = tr.build_tree(
            n, [(perm[a - 1], perm[b - 1]) for a, b in t.label_edges()]
        )
        assert orc.depth_profile(t) == orc.depth_profile(t2)


def test_distance_conjugation_identity(random_tree):
    # relabeling the tree by sigma turns the distance of p into the
    # distance of sigma p sigma^-1
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randrange(3, 7)
        t = random_tree(n, rng)
        sigma = list(rng.sample(range(1, n + 1), n))
        t2 = tr.build_tree(
            n, [(sigma[a - 1], sigma[b - 1]) for a, b in t.label_edges()]
        )
        p = tuple(rng.sample(range(1, n + 1), n))
        sigma_inv = [0] * n
        for pos, val in enumerate(sigma):
            sigma_inv[val - 1] = pos + 1
        conj = tuple(sigma[p[sigma_inv[x] - 1] - 1] for x in range(n))
        assert orc.sort_distance(t2, conj) == orc.sort_distance(t, p)


# ---------------------------------------------------------------------------
# caps and failure modes

def test_too_large():
    with pytest.raises(orc.TooLargeError):
        orc.cayley_diameter(tr.make_path(12))
    with pytest.raises(orc.TooLargeError):
        orc.cayley_diameter(tr.make_path(4), cap=12)
    with pytest.raises(orc.TooLargeError):
        orc.cayley_diameter(tr.make_path(11))  # default cap is 10


def test_big_n_warns(monkeypatch):
    # the warning comes with the BFS, not with the cap check, and points at
    # the caller of the public function; the stub stands in for the 4 s BFS
    monkeypatch.setattr(orc, "_depth_table_cached",
                        lambda n, edges: orc._Table([0], (1,), tuple(range(n))))
    t = tr.make_path(11)
    for call in (orc.cayley_diameter, orc.depth_profile, orc.profile_csv,
                 lambda t, cap: orc.sort_distance(t, ref.identity(11), cap=cap)):
        with pytest.warns(ResourceWarning, match="n=11 touches 39916800 states") as caught:
            call(t, cap=11)
        assert caught[0].filename == __file__


def _profile_peak(t) -> int:
    """tracemalloc peak of building t's depth table and profile, cold."""
    orc._depth_table_cached.cache_clear()  # numpy is imported at module top
    tracemalloc.start()
    try:
        orc.depth_profile(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        orc._depth_table_cached.cache_clear()


def test_depth_profile_memory():
    # the profile comes from the BFS's own level sizes: building a table
    # and its profile must not need several more copies of the n!-byte table
    peak = _profile_peak(tr.make_path(10))
    assert peak < 6 * math.factorial(10), peak


def test_depth_profile_memory_star():
    # the star's widest level holds 30% of the states at n = 10, so the
    # frontier rebuild must hold neither a whole-table mask nor an int64
    # index of that level (5.8 bytes per state when it did, about 4.1 now)
    peak = _profile_peak(tr.make_star(10))
    assert peak < 5 * math.factorial(10), peak


def test_non_generating_edges_detected():
    # a strict subset of a tree's transpositions cannot generate S_n
    with pytest.raises(orc.NotGeneratingError):
        orc._depth_table_cached(3, ((1, 2),))


# ---------------------------------------------------------------------------
# BFS kernel

def test_backend_name():
    assert orc.backend_name() == "numpy"


def _reference_depths(n, edges):
    """Depth per Lehmer rank by a plain-Python BFS over permutation tuples."""
    depth = [kern.UNSEEN] * math.factorial(n)
    depth[0] = 0
    frontier = [ref.identity(n)]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for p in frontier:
            for i, j in edges:
                q = ref.apply_move(p, (i + 1, j + 1))
                r = orc.rank(q)
                if depth[r] == kern.UNSEEN:
                    depth[r] = level
                    nxt.append(q)
        frontier = nxt
    return np.array(depth, np.uint8)


def test_numpy_kernel_matches_reference_bfs(all_trees):
    trees = [t for n in range(2, 7) for t in all_trees(n)]
    trees += [tr.make_path(7), tr.make_star(7), tr.make_spider(2, 3)]
    for t in trees:
        forward = [(min(a, b) - 1, max(a, b) - 1) for a, b in t.label_edges()]
        expected = _reference_depths(t.n, forward)
        expected_sizes = np.bincount(expected).tolist()
        for edges in (forward, [(j, i) for i, j in forward]):
            depth, sizes = kern.bfs_numpy(t.n, edges)
            assert depth.dtype == np.uint8
            assert np.array_equal(depth, expected), (t.n, edges)
            assert sizes == expected_sizes, (t.n, edges)
        # the oracle runs the kernel in a relabeled frame and conjugates
        # each query into it
        if t.n <= 5:
            perms = itertools.permutations(range(1, t.n + 1))
        else:
            rng = random.Random(t.n)
            perms = [tuple(rng.sample(range(1, t.n + 1), t.n)) for _ in range(200)]
        for p in perms:
            assert orc.sort_distance(t, p) == expected[orc.rank(p)], (t.n, p)


def test_frame_keeps_swap_tables_small(all_trees):
    # the kernel's table for an edge across frame positions i < j has
    # (n - i)! / (n - 1 - j)! entries; the oracle's frame must keep their sum
    # small for every tree it accepts, n = 11 included
    for n in range(1, orc.MAX_CAP + 1):
        used = set()  # spans of all trees of this size
        for t in all_trees(n):
            edges = tuple(sorted((min(e), max(e)) for e in t.label_edges()))
            frame = kern.frame(n, edges)
            assert sorted(frame) == list(range(n))
            spans = [tuple(sorted((frame[a - 1], frame[b - 1]))) for a, b in edges]
            entries = sum(
                math.factorial(n - i) // math.factorial(n - 1 - j) for i, j in spans
            )
            assert entries <= 1 << 18, (n, edges, entries)
            used.update(spans)
        # the kernel keeps one table per span for the life of the process, so
        # a run over every tree of one size holds these (118,898 entries at n = 11)
        assert sum(kern.table_size(n, i, j) for i, j in used) <= 1 << 17, n


def test_segment_tables_are_memoised_and_read_only():
    # a table depends on (n, i, j) alone, so one build serves every tree
    # and every BFS; a writeable shared table could be corrupted by one
    for n in range(2, 9):
        for i, j in itertools.combinations(range(n), 2):
            table = kern._segment_table(n, i, j)
            assert not table.flags.writeable, (n, i, j)
            assert np.array_equal(table, kern._segment_table.__wrapped__(n, i, j)), (n, i, j)
            assert kern._segment_table(n, i, j) is table
