"""Tree construction, distances, clusters, deletion, canonical codes."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebound import DIST_SUM_MODES
from treebound import batch
from treebound import enumeration as en
from treebound import tree as tr
from conftest import prufer_tree
import reference as ref


def _nx_graph(t: tr.Tree) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges())
    return g


# ---------------------------------------------------------------------------
# construction

def test_build_tree_single_vertex():
    t = tr.build_tree(1, [])
    assert t.n == 1 and t.edges() == []


def test_tree_is_immutable():
    t = tr.make_path(3)
    with pytest.raises(AttributeError):
        t.n = 4
    with pytest.raises(AttributeError):
        t.labels = (3, 2, 1)
    assert t == tr.Tree(n=3, adj=((1,), (0, 2), (1,)), labels=(1, 2, 3))


def test_build_tree_rejects_wrong_edge_count():
    with pytest.raises(tr.NotATreeError):
        tr.build_tree(4, [(1, 2), (2, 3)])


def test_build_tree_rejects_cycle_plus_isolated():
    # right edge count, wrong shape
    with pytest.raises(tr.NotATreeError):
        tr.build_tree(4, [(1, 2), (2, 3), (1, 3)])


def test_build_tree_rejects_duplicates_and_loops():
    with pytest.raises(tr.DuplicateEdgeError):
        tr.build_tree(3, [(1, 2), (2, 1)])
    with pytest.raises(tr.DuplicateEdgeError):
        tr.build_tree(2, [(1, 1)])


def test_build_tree_rejects_bad_labels():
    with pytest.raises(tr.BadLabelError):
        tr.build_tree(3, [(1, 2), (2, 4)])
    with pytest.raises(tr.BadLabelError):
        tr.build_tree(0, [])


def test_index_of_label():
    t = tr.make_path(4)
    assert t.index_of_label(3) == 2
    with pytest.raises(tr.BadLabelError):
        t.index_of_label(9)


# ---------------------------------------------------------------------------
# distances and eccentricities

def test_bfs_distances_full_binary_depth_two():
    t = tr.make_full_binary(2)
    assert tr.bfs_distances(t, 0) == [0, 1, 1, 2, 2, 2, 2]


def test_eccentricities_path_five():
    assert tr.eccentricities(tr.make_path(5)) == [4, 3, 2, 3, 4]


def _diam(t: tr.Tree) -> int:
    return max(tr.eccentricities(t))


def test_diameter_named_classes():
    assert _diam(tr.make_star(7)) == 2
    assert _diam(tr.make_path(9)) == 8
    assert _diam(tr.make_full_binary(3)) == 6
    assert _diam(tr.make_matchstick(4)) == 5
    assert _diam(tr.make_spider(3, 4)) == 8
    assert _diam(tr.build_tree(1, [])) == 0


def test_eccentricities_match_networkx(random_tree):
    rng = random.Random(20260819)
    for _ in range(500):
        n = rng.randrange(2, 25)
        t = random_tree(n, rng)
        want = nx.eccentricity(_nx_graph(t))
        assert tr.eccentricities(t) == [want[v] for v in range(t.n)]


def _centers(t: tr.Tree) -> list[int]:
    # the vertices of least eccentricity
    ecc = tr.eccentricities(t)
    return [v for v in range(t.n) if ecc[v] == min(ecc)]


def test_center_path_five_and_four():
    # a center vertex for an even diameter, a central edge for an odd one
    t5 = tr.make_path(5)
    assert (_centers(t5), _diam(t5)) == ([2], 4)
    t4 = tr.make_path(4)
    assert (_centers(t4), _diam(t4)) == ([1, 2], 3)


def test_center_matchstick_two():
    t = tr.make_matchstick(2)
    assert (_centers(t), _diam(t)) == ([0, 1], 3)


def test_peripheral_set_examples():
    assert tr.peripheral_set(tr.make_path(6)) == [0, 5]
    assert tr.peripheral_set(tr.make_star(5)) == [1, 2, 3, 4]
    assert tr.peripheral_set(tr.make_full_binary(2)) == [3, 4, 5, 6]
    with pytest.raises(tr.TreeError):
        tr.peripheral_set(tr.build_tree(1, []))


# ---------------------------------------------------------------------------
# eccentricities, S and clusters against every BFS row, and against the
# groups of S the peel step ranks

def _rooted_groups(t: tr.Tree) -> tuple[list[list[int]], list[int]]:
    # the groups of S as batch._Rooted.pick forms them (one per branch of
    # the center, or per side of the central edge), as internal indices
    # ordered by least member, and pick's size of each group
    seq, labels = en.level_sequence(t)
    rooted = batch._Rooted(seq)
    starts, brs = rooted.starts, rooted.branches
    deep = [j for j, x in enumerate(rooted.in_s) if x]
    groups = ([[j] for j in deep] if rooted.second < 0 else
              [[rooted.second], [j for j in deep if j != rooted.second]])
    members = [sorted(t.index_of_label(labels[i]) for j in g
                      for i in range(starts[j], starts[j + 1]) if seq[i] == brs[j].height)
               for g in groups]
    return sorted(members), rooted.pick(False)[1]


def _check_periphery(t: tr.Tree) -> None:
    rows = [tr.bfs_distances(t, v) for v in range(t.n)]
    ecc = [max(row) for row in rows]
    diam = max(ecc)
    assert tr.eccentricities(t) == ecc
    s = [v for v in range(t.n) if ecc[v] == diam]
    if t.n < 2:
        return
    assert tr.peripheral_set(t) == s
    groups = tr._cluster_groups(t, s, diam)[0]
    # diam is reached in two branches of one center, and on both sides of two
    assert len(groups) >= 2
    if t.n > 2:  # at n = 2 S holds the root, which is in no branch
        rooted, sizes = _rooted_groups(t)
        assert rooted == groups and sorted(sizes) == sorted(map(len, groups))
    assert sorted(sorted(c.members) for c in tr.clusters(t, s)) == groups
    # the tree left by keeping one cluster, or by deleting all of S
    for kept in groups + ([[]] if t.n > 2 else []):
        left = tr.delete_vertices(t, [v for v in s if v not in kept])
        assert _diam(left) == diam - (1 if kept else 2)


def test_walk_matches_references(all_trees):
    for n in range(1, 13):
        for t in all_trees(n):
            _check_periphery(t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(0, 2**32))
def test_walk_matches_references_on_random_labellings(n, seed):
    _check_periphery(prufer_tree(n, random.Random(seed)))


# ---------------------------------------------------------------------------
# dist_sum and clusters

def _dist_sums(t, mode):
    return [c.dist_sum for c in tr.clusters(t, tr.peripheral_set(t), mode)]


def test_dist_sum_modes():
    # the ends of path(4) are one-vertex clusters, 0 + 1 + 2 + 3 = 6 from
    # all vertices each (12 over S) and in no pair; the leaf pairs of the
    # full binary tree of depth 2 are clusters, 2 apart
    assert _dist_sums(tr.make_path(4), "global") == [6, 6]
    assert _dist_sums(tr.make_path(4), "pairwise") == [0, 0]
    assert _dist_sums(tr.make_full_binary(2), "global") == [16 * 2, 16 * 2]
    assert _dist_sums(tr.make_full_binary(2), "pairwise") == [2, 2]
    with pytest.raises(ValueError):
        _dist_sums(tr.make_path(4), "median")


def test_cluster_keys_follow_dist_sum(all_trees):
    # distSums against distances networkx finds
    for t in all_trees(9):
        s = tr.peripheral_set(t)
        dist = dict(nx.all_pairs_shortest_path_length(_nx_graph(t)))
        for mode in DIST_SUM_MODES:
            for c in tr.clusters(t, s, dist_sum_mode=mode):
                if mode == "global":
                    assert c.dist_sum == sum(sum(dist[v].values()) for v in c.members)
                else:
                    assert c.dist_sum == sum(dist[u][v] for u in c.members
                                             for v in c.members if u < v)
        with pytest.raises(ValueError):
            tr.clusters(t, s, dist_sum_mode="median")


def test_clusters_path():
    t = tr.make_path(7)
    cs = tr.clusters(t, tr.peripheral_set(t))
    assert [c.size for c in cs] == [1, 1]
    assert {frozenset(c.members) for c in cs} == {frozenset({0}), frozenset({6})}
    with pytest.raises(tr.TreeError):  # only S is partitioned into clusters
        tr.clusters(t, [0])


def test_cluster_fields():
    t = tr.make_spider(3, 2)
    c = tr.clusters(t, tr.peripheral_set(t))[0]
    assert c == tr.Cluster(members=c.members, size=c.size, dist_sum=c.dist_sum,
                           canon_key=c.canon_key, min_label=c.min_label)
    # deleting the other two leg tips leaves one leg of 2 edges and two of 1
    left = tr.build_tree(5, [(1, 2), (2, 3), (1, 4), (1, 5)])
    assert (c.members, c.size, c.dist_sum, c.canon_key, c.min_label) == (
        frozenset({2}), 1, 17, tr.canonical_code(left), 3)
    with pytest.raises(AttributeError):
        c.size = 2


def test_clusters_star_leaves_are_singletons():
    # star leaves sit exactly at the diameter from each other, so the
    # strictly-closer relation never joins them
    t = tr.make_star(6)
    cs = tr.clusters(t, tr.peripheral_set(t))
    assert [c.size for c in cs] == [1, 1, 1, 1, 1]


def test_cluster_partition_properties(all_trees):
    for n in range(2, 11):
        for t in all_trees(n):
            s = tr.peripheral_set(t)
            cs = tr.clusters(t, s)
            members = [v for c in cs for v in c.members]
            assert sorted(members) == s, "clusters must partition S"
            assert sum(c.size for c in cs) == len(s)
            sizes = [c.size for c in cs]
            assert sizes == sorted(sizes, reverse=True)
            for c in cs:
                assert c.min_label == min(t.labels[v] for v in c.members)


def test_cluster_sort_is_total(all_trees):
    for t in all_trees(9):
        cs = tr.clusters(t, tr.peripheral_set(t))
        keys = [c.sort_key() for c in cs]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# deletion

def test_delete_peripheral_set_shrinks_diameter(all_trees):
    for n in range(3, 11):
        for t in all_trees(n):
            s = tr.peripheral_set(t)
            t2 = tr.delete_vertices(t, s)
            assert t2.n == t.n - len(s)
            assert _diam(t2) < _diam(t)
            assert set(t2.labels) < set(t.labels)


def test_delete_keeps_labels():
    t = tr.make_path(5)
    t2 = tr.delete_vertices(t, [0, 4])
    assert t2.labels == (2, 3, 4)
    assert t2.label_edges() == [(2, 3), (3, 4)]


def test_delete_rejects_internal_vertex():
    with pytest.raises(tr.NonLeafDeletionError):
        tr.delete_vertices(tr.make_path(3), [1])


def test_delete_rejects_emptying():
    with pytest.raises(tr.EmptyResultError):
        tr.delete_vertices(tr.make_path(2), [0, 1])


def test_delete_nothing_is_identity():
    t = tr.make_star(4)
    assert tr.delete_vertices(t, []) is t


# ---------------------------------------------------------------------------
# star predicate and canonical codes

def test_is_star():
    for n in range(1, 9):
        assert ref.is_star(tr.make_star(n))
    assert ref.is_star(tr.make_path(2))
    assert ref.is_star(tr.make_path(3))
    assert not ref.is_star(tr.make_path(4))
    assert not ref.is_star(tr.make_matchstick(2))


def test_canonical_code_invariant_under_relabeling(random_tree):
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(2, 20)
        t = random_tree(n, rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        shuffled_edges = [(perm[a - 1], perm[b - 1]) for a, b in t.label_edges()]
        t2 = tr.build_tree(n, shuffled_edges)
        assert tr.canonical_code(t) == tr.canonical_code(t2)


def test_canonical_code_separates_nonisomorphic(all_trees):
    for n in range(1, 14):
        codes = {tr.canonical_code(t) for t in all_trees(n)}
        assert len(codes) == len(all_trees(n))


def test_relabel():
    t = tr.make_path(3)
    t2 = ref.relabel(t, (3, 1, 2))
    assert sorted(tuple(sorted(e)) for e in t2.label_edges()) == [(1, 2), (1, 3)]
    with pytest.raises(tr.BadLabelError):
        ref.relabel(t, (1, 1, 2))


# ---------------------------------------------------------------------------
# constructors agree where classes overlap

def test_spider_degenerate_identities():
    for k in range(2, 9):
        assert tr.canonical_code(tr.make_spider(k - 1, 1)) == tr.canonical_code(
            tr.make_star(k)
        )
    for j in range(1, 8):
        assert tr.canonical_code(tr.make_spider(1, j)) == tr.canonical_code(
            tr.make_path(j + 1)
        )
        assert tr.canonical_code(tr.make_spider(2, j)) == tr.canonical_code(
            tr.make_path(2 * j + 1)
        )


def test_matchstick_shape():
    t = tr.make_matchstick(3)
    assert t.n == 6
    assert sorted(len(a) for a in t.adj) == [1, 1, 1, 2, 2, 3]


# ---------------------------------------------------------------------------
# edge-list text format

def test_edge_list_roundtrip(all_trees):
    for t in all_trees(7):
        again = tr.parse_edge_list(tr.format_edge_list(t))
        assert again.label_edges() == t.label_edges()


def test_edge_list_comments_and_blanks():
    t = tr.parse_edge_list("# a path\n3\n\n1 2  # first\n2 3\n")
    assert t.n == 3 and sorted(t.label_edges()) == [(1, 2), (2, 3)]


def test_edge_list_errors():
    with pytest.raises(tr.NotATreeError):
        tr.parse_edge_list("")
    with pytest.raises(tr.NotATreeError):
        tr.parse_edge_list("three\n1 2\n")
    with pytest.raises(tr.NotATreeError):
        tr.parse_edge_list("3\n1 2 3\n")
