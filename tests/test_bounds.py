"""Bound engine: peel algorithm, baselines, traces, closed forms, gaps."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebound import DIST_SUM_MODES
from treebound import batch
from treebound import bounds as bd
from treebound import cli
from treebound import enumeration as en
from treebound import golden
from treebound import tree as tr
from conftest import prufer_tree
import reference as ref


def dstar(t, **kw) -> int:
    return bd.delta_star(t, **kw)[0].moves


def dprime(t, variant, **kw) -> int:
    return bd.delta_prime(t, variant, **kw)[0].moves


# ---------------------------------------------------------------------------
# half-move arithmetic

def test_half_moves():
    a = bd.HalfMoves(6)
    b = bd.HalfMoves(7)
    assert a.units == 6 and a.is_whole and a.moves == 3
    assert not b.is_whole and str(b) == "3.5" and b.as_fraction() == (7, 2)
    # exact past float precision: no float division in the string form
    assert str(bd.HalfMoves(2**54 + 1)) == "9007199254740992.5"
    assert (a + b).units == 13 and (b - a).units == 1
    with pytest.raises(ValueError):
        _ = b.moves
    # an immutable, hashable value ordered by its units
    a, b = bd.HalfMoves(3), bd.HalfMoves(4)
    assert a < b and b > a and a <= bd.HalfMoves(3) and max(a, b) is b
    assert a + b == bd.HalfMoves(7) and b - a == bd.HalfMoves(1)
    assert a == bd.HalfMoves(3) and a != b
    assert hash(a) == hash(bd.HalfMoves(3)) and len({a, b, bd.HalfMoves(3)}) == 2
    assert repr(a) == "HalfMoves(units=3)"
    with pytest.raises(ValueError):
        bd.HalfMoves(-1)
    with pytest.raises(ValueError):
        _ = a - b
    with pytest.raises(AttributeError):
        a.units = 5
    with pytest.raises(TypeError):
        _ = 2 * a


def test_bound_trace_total_must_match_records():
    _, trace = bd.delta_star(tr.make_spider(3, 2))
    assert bd.BoundTrace(records=trace.records, total=trace.total) == trace
    assert pickle.loads(pickle.dumps(trace)) == trace
    with pytest.raises(ValueError):
        bd.BoundTrace(trace.records, trace.total + bd.HalfMoves(1))
    with pytest.raises(AttributeError):
        trace.total = bd.HalfMoves(0)


def test_star_bound_values():
    assert bd.star_bound(1).moves == 0
    assert bd.star_bound(2).moves == 1
    assert bd.star_bound(4).moves == 4
    assert bd.star_bound(7).moves == 9
    with pytest.raises(ValueError):
        bd.star_bound(0)


# ---------------------------------------------------------------------------
# named instances

def test_full_binary_values():
    want = {1: 3, 2: 15, 3: 55, 4: 167, 5: 453, 6: 1153, 7: 2807}
    for d, v in want.items():
        assert dstar(tr.make_full_binary(d)) == v


def test_full_binary_strict_pseudocode():
    # charging paired deletions at the post-deletion diameter loses a move
    assert dstar(tr.make_full_binary(3), strict_pseudocode=True) == 54
    assert dstar(tr.make_full_binary(3)) == 55


def test_full_binary_depth3_trace():
    val, trace = bd.delta_star(tr.make_full_binary(3))
    assert [r.cost.moves for r in trace.records] == [24, 10, 11, 6, 4]
    assert val.moves == 55
    assert trace.records[-1].case == bd.STAR


def test_paths():
    for n in range(2, 13):
        assert dstar(tr.make_path(n)) == n * (n - 1) // 2
        assert dprime(tr.make_path(n), "v1") == n * (n - 1) // 2
        assert dprime(tr.make_path(n), "v2") == n * (n - 1) // 2


def test_stars():
    for n in range(1, 10):
        assert dstar(tr.make_star(n)) == bd.star_bound(n).moves


def test_single_vertex_and_edge():
    assert dstar(tr.build_tree(1, [])) == 0
    assert dstar(tr.make_path(2)) == 1


def test_delta_prime_examples():
    # 6-vertex star: floor(3*5/2) = 7
    assert dprime(tr.make_star(6), "v1") == 7
    assert dprime(tr.make_star(6), "v2") == 7
    assert dprime(tr.make_path(4), "v1") == 6
    assert dprime(tr.make_path(4), "v2") == 6
    # depth-2 full binary: both baselines give 15 here
    assert dprime(tr.make_full_binary(2), "v1") == 15
    assert dprime(tr.make_full_binary(2), "v2") == 15


def test_delta_prime_variant_validation():
    with pytest.raises(ValueError):
        bd.delta_prime(tr.make_path(4), "v3")


def test_dist_sum_mode_validation():
    # a star is charged its closed form without reaching tr.clusters, so
    # an unknown mode must be refused before peeling starts
    star = tr.make_star(5)
    with pytest.raises(ValueError, match="bogus"):
        bd.delta_star(star, dist_sum_mode="bogus")
    for variant in ("v1", "v2"):
        with pytest.raises(ValueError, match="bogus"):
            bd.delta_prime(star, variant, dist_sum_mode="bogus")
    with pytest.raises(ValueError, match="bogus"):
        batch.peel_sweep([tr.level_sequence(star)[0]], dist_sum_mode="bogus")


# ---------------------------------------------------------------------------
# trace invariants over every small tree

def test_trace_invariants(all_trees):
    for n in range(2, 11):
        for t in all_trees(n):
            for val, trace in (
                bd.delta_star(t),
                bd.delta_prime(t, "v1"),
                bd.delta_prime(t, "v2"),
            ):
                assert val.is_whole, "totals are whole moves"
                assert val.units == sum(r.cost.units for r in trace.records)
                diams = [r.diameter for r in trace.records]
                assert diams == sorted(diams, reverse=True)
                assert len(set(diams)) == len(diams), "diameter strictly drops"
                assert trace.records[-1].case == bd.STAR
                assert trace.records[-1].deleted_labels == ()
                for r in trace.records[:-1]:
                    assert r.case in (batch.CASE1, batch.CASE2, batch.FULL_S)
                    assert r.deleted_labels
                    assert sum(r.cluster_sizes) == r.s_size
                sizes = [r.n for r in trace.records]
                assert sizes == sorted(sizes, reverse=True)


def test_deleted_labels_partition(all_trees):
    for t in all_trees(9):
        _, trace = bd.delta_star(t)
        seen = set()
        for r in trace.records:
            for lab in r.deleted_labels:
                assert lab not in seen
                seen.add(lab)
        assert len(seen) == 9 - trace.records[-1].n


# ---------------------------------------------------------------------------
# ordering and dominance on small trees

def test_bound_ordering(all_trees):
    for n in range(2, 11):
        for t in all_trees(n):
            ds = bd.delta_star(t)[0].units
            v1 = bd.delta_prime(t, "v1")[0].units
            v2 = bd.delta_prime(t, "v2")[0].units
            assert ds <= v2 <= v1


# ---------------------------------------------------------------------------
# the choice of C*

def _replay_against_clusters(t, mode) -> int:
    """Replay t's delta_star trace on the labelled tree, step by step, and
    check each step against tr.clusters, the independent reference for the
    cluster order: C*, the one cluster kept, is its first (least label
    included).  Returns the number of peel steps checked."""
    _, trace = bd.delta_star(t, dist_sum_mode=mode)
    for r in trace.records[:-1]:
        assert r.tree_code == tr.canonical_code(t)
        s = tr.peripheral_set(t)
        ranked = tr.clusters(t, s, mode)
        assert (r.s_size, r.cluster_sizes) == (len(s), tuple(c.size for c in ranked))
        deleted = {t.index_of_label(label) for label in r.deleted_labels}
        assert set(s) - deleted == ranked[0].members, (en.encode_graph6(t), mode)
        t = tr.delete_vertices(t, deleted)
    assert trace.records[-1].tree_code == tr.canonical_code(t)
    return len(trace.records) - 1


def test_c_star_is_the_first_cluster(all_trees):
    # the peel step (_Rooted.pick, then the least label) and Cluster.sort_key
    # write the cluster order twice; at every step of every trace, the
    # cluster kept must be the first of tr.clusters, and the batch path's
    # first step, which has no labels, must leave the tree that cluster leaves
    cases = steps = 0
    for n in range(3, 13):
        for t in all_trees(n):
            rooted = batch._Rooted(tr.level_sequence(t)[0])
            assert rooted.diam == max(tr.eccentricities(t))
            if rooted.diam <= 2:  # a star has no peel step
                continue
            s = tr.peripheral_set(t)
            assert rooted.left_code() == tr.canonical_code(tr.delete_vertices(t, s))
            for mode in DIST_SUM_MODES:
                ranked = tr.clusters(t, s, mode)
                tied, sizes, code = rooted.pick(mode == "pairwise")
                assert sorted(sizes, reverse=True) == [c.size for c in ranked]
                assert {rooted.left_code(g) for g in tied} == {ranked[0].canon_key}
                assert code in (None, ranked[0].canon_key)
                steps += _replay_against_clusters(t, mode)
                cases += 1
    assert cases == 1950 and steps == 7652


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 40), st.integers(0, 2**32), st.sampled_from(DIST_SUM_MODES))
def test_c_star_is_the_first_cluster_on_random_labellings(n, seed, mode):
    # labels that do not follow the level sequence: the least label among
    # tied clusters is the vertex's, not its position's
    rng = random.Random(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    _replay_against_clusters(ref.relabel(prufer_tree(n, rng), labels), mode)


def _sequences(sizes):
    return [seq for n in sizes for seq in batch._free_level_sequences(n)]


def test_sweep_codes_each_leftover_once(monkeypatch):
    # ranking a (size, distSum) tie joins each tied cluster's leftover code;
    # the step then looks the winner's up in the memo without joining it again
    calls, trees = [], []
    real = batch._Rooted.left_code

    def left_code(tree, keep=()):
        trees.append(tree)  # kept alive, so no id is reused
        calls.append((id(tree), tuple(keep)))
        return real(tree, keep)

    monkeypatch.setattr(batch._Rooted, "left_code", left_code)
    for _ in batch.peel_sweep(_sequences(range(6, 13))):
        pass
    assert len(set(calls)) == len(calls) == 1188


PEEL_RUNS = [
    lambda t: bd.delta_star(t),
    lambda t: bd.delta_star(t, strict_pseudocode=True),
    lambda t: bd.delta_star(t, dist_sum_mode="pairwise"),
    lambda t: bd.delta_prime(t, "v1"),
    lambda t: bd.delta_prime(t, "v2"),
]


def test_peel_derives_each_step_from_one_pass(monkeypatch, all_trees, capsys):
    trees = [t for n in range(1, 10) for t in all_trees(n)]
    trees.append(en.parse_graph6("IhCS?C@?G"))  # no (size, distSum) tie at any step

    def forbidden(*args, **kwargs):
        raise AssertionError("the peel loop recomputes what its step gave it")

    for name in ("peripheral_set", "clusters", "canonical_code", "_cluster_groups"):
        monkeypatch.setattr(tr, name, forbidden)
    eccs, rows, builds = [], [], []
    real_ecc, real_bfs, real_delete = tr.eccentricities, tr.bfs_distances, tr.delete_vertices
    monkeypatch.setattr(tr, "eccentricities", lambda t: eccs.append(t.n) or real_ecc(t))
    monkeypatch.setattr(tr, "bfs_distances", lambda t, v: rows.append(v) or real_bfs(t, v))
    monkeypatch.setattr(tr, "delete_vertices",
                        lambda t, xs: builds.append(t.n) or real_delete(t, xs))

    steps, real_rooted = [], batch._Rooted
    with monkeypatch.context() as m:
        m.setattr(batch, "_Rooted", lambda seq: steps.append(len(seq)) or real_rooted(seq))
        for run in PEEL_RUNS:
            for t in trees:
                eccs.clear()
                rows.clear()
                steps.clear()
                _, trace = run(t)
                # two BFS rows per trace, for its center, and no
                # eccentricities; one step summary per record, ties included;
                # no tree is built
                assert eccs == [] and len(rows) == 2, en.encode_graph6(t)
                assert steps == [r.n for r in trace.records], en.encode_graph6(t)
            assert len(trace.records) == 7 and len(rows) == 2
    assert builds == []

    # table1's sweep: no tree is built or BFS row made, and each distinct branch
    # of a root is summarised once; a leftover's code is joined from those
    # summaries, so only leftovers below the smallest size are built
    want = cli.main(["table1", "--n-min", "6", "--n-max", "12"]), capsys.readouterr().out
    eccs.clear()
    rows.clear()
    made, lefts = [], []
    real_branch, real_left = batch._Branch, batch._Rooted.left
    with monkeypatch.context() as m:
        m.setattr(tr, "Tree", forbidden)
        m.setattr(batch, "_BRANCHES", {})
        m.setattr(batch, "_Branch", lambda levels: made.append(levels) or real_branch(levels))
        m.setattr(batch._Rooted, "left", lambda *a: lefts.append(real_left(*a)) or lefts[-1])
        assert (cli.main(["table1", "--n-min", "6", "--n-max", "12"]),
                capsys.readouterr().out) == want
    assert eccs == builds == rows == []
    assert sorted(len(seq) for seq, _ in lefts) == [3, 4, 4, 5, 5, 5]
    lefts.clear()
    assert len(set(made)) == len(made) == 82
    # alone, the n = 9 trees value their leftovers on demand: each tree
    # summarised beyond one per input is a leftover built after a memo miss
    rooted = []
    real_rooted = batch._Rooted
    monkeypatch.setattr(batch._Rooted, "left", lambda *a: lefts.append(real_left(*a)) or lefts[-1])
    monkeypatch.setattr(batch, "_Rooted", lambda seq: rooted.append(seq) or real_rooted(seq))
    nine = _sequences([9])
    for strict in (False, True):
        assert len(list(batch.peel_sweep(nine, strict_pseudocode=strict))) == len(nine)
    assert lefts and len(rooted) == 2 * len(nine) + len(lefts)
    assert eccs == builds == rows == []


def test_peel_sweep_matches_engine():
    # Sizes 7..12 go first, so the leftovers below 7 are valued on demand,
    # from level sequences, and sizes 1..6 then come out of the memo: both
    # paths are checked, on every tree with n <= 12.
    seqs = _sequences((*range(7, 13), *range(1, 7)))
    trees = [tr._from_level_sequence(seq) for seq in seqs]
    for mode in ("global", "pairwise"):
        baselines = [(bd.delta_prime(t, "v1", dist_sum_mode=mode)[0].moves,
                      bd.delta_prime(t, "v2", dist_sum_mode=mode)[0].moves) for t in trees]
        for strict in (False, True):
            swept = batch.peel_sweep(seqs, dist_sum_mode=mode, strict_pseudocode=strict)
            for t, v12, (seq, code, (ds, *v)) in zip(trees, baselines, swept, strict=True):
                g6 = en.encode_graph6(t)
                assert code == tr.canonical_code(t), g6
                assert ds == bd.delta_star(t, dist_sum_mode=mode,
                                           strict_pseudocode=strict)[0].moves, (g6, mode, strict)
                assert tuple(v) == v12, (g6, mode)


def test_peel_sweep_matches_engine_on_full_binary_trees():
    # table2's trees, up to n = 255: far past the sizes enumerated above
    trees = [tr.make_full_binary(d) for d in range(1, 8)]
    for mode in ("global", "pairwise"):
        for strict in (False, True):
            swept = batch.peel_sweep((tr.level_sequence(t)[0] for t in trees),
                                     dist_sum_mode=mode, strict_pseudocode=strict)
            for t, (seq, _, values) in zip(trees, swept, strict=True):
                assert len(seq) == t.n
                assert values == (
                    bd.delta_star(t, dist_sum_mode=mode, strict_pseudocode=strict)[0].moves,
                    bd.delta_prime(t, "v1", dist_sum_mode=mode)[0].moves,
                    bd.delta_prime(t, "v2", dist_sum_mode=mode)[0].moves,
                ), (t.n, mode, strict)


def test_peel_sweep_refuses_a_half_integral_total(monkeypatch):
    # the memo is in half-move units and only whole totals leave the sweep:
    # one odd step charge makes a total half-integral, a ValueError as in
    # HalfMoves.moves on the traced path
    real = batch._charge

    def odd(*args):
        case, units = real(*args)
        return case, units + 1

    monkeypatch.setattr(batch, "_charge", odd)
    with pytest.raises(ValueError, match="not all whole moves"):
        list(batch.peel_sweep([tr.level_sequence(tr.make_path(4))[0]]))
    with pytest.raises(ValueError, match="not a whole number of moves"):
        _ = bd.delta_star(tr.make_path(4))[0].moves


def test_distsum_modes_diverge():
    # the two tie keys are genuinely different policies; totals agree on
    # small n but the pairwise mode is exercised for coverage
    t = tr.make_full_binary(3)
    assert dstar(t, dist_sum_mode="global") == 55
    assert dstar(t, dist_sum_mode="pairwise") == 55


# ---------------------------------------------------------------------------
# recorded closed forms

def test_peel_reproduces_recorded_formulas():
    # the recorded closed forms for these classes coincide with this
    # package's peel bound, not with the true Cayley diameter
    for k in range(3, 9):
        assert dstar(tr.make_matchstick(k)) == k * k + k - 1
    for m in (4, 6, 8):
        for k in (2, 3):
            assert dstar(tr.make_spider(m, k)) == m * k * (2 * k + 1) // 2


# ---------------------------------------------------------------------------
# gap formulas

def test_predicted_gap_values():
    want = {
        (2, "v1"): 2, (2, "v2"): 2,
        (3, "v1"): 3, (3, "v2"): 3,
        (4, "v1"): 4, (4, "v2"): 5,
        (5, "v1"): 7, (5, "v2"): 8,
        (6, "v1"): 12, (6, "v2"): 15,
        (7, "v1"): 23, (7, "v2"): 26,
    }
    for (d, variant), moves in want.items():
        assert golden.predicted_gap(d, variant) == moves


def test_predicted_gap_domain():
    with pytest.raises(ValueError):
        golden.predicted_gap(1, "v1")
    with pytest.raises(ValueError):
        golden.predicted_gap(3, "v9")
