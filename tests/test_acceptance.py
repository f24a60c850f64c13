"""Acceptance gates, one test per shipped criterion.

Each test prints a single [ACCEPT] PASS/FAIL line (visible with -s, or in
the failure report) plus the evidence behind it.  Three gates record
honest failures of the embedded reference data rather than of this
implementation:

* criterion 3: the cumulative reference rows for n = 12 and n = 13 cannot
  be reproduced under any tie policy or accounting convention this engine
  supports; the adjudication sweep is printed.
* criterion 5: exhaustive search refutes two recorded closed forms
  (general spiders, matchsticks past k = 3).
* criterion 10: the v2 baseline fails per-tree dominance on exactly one
  13-vertex tree.
"""

import math
import time
from fractions import Fraction

import pytest

from treebound import batch
from treebound import bounds as bd
from treebound import enumeration as en
from treebound import golden
from treebound import oracle as orc
from treebound import tree as tr
import reference as ref


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPT] {tag}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def sweep():
    """Per-tree (graph6, then each bound's moves in bounds.BOUNDS order) for
    every tree, n = 6..15, in generation order."""
    sweep = {n: [] for n in range(6, 16)}
    seqs = (s for n in range(6, 16) for s in batch._free_level_sequences(n))
    for seq, _, v in batch.peel_sweep(seqs):
        g6 = en.encode_graph6(en._from_level_sequence(seq))
        sweep[len(seq)].append((g6, *v))
    return sweep


# ---------------------------------------------------------------------------

def test_criterion_1_binary_tree_column():
    t0 = time.perf_counter()
    got = {d: bd.delta_star(tr.make_full_binary(d))[0].moves for d in range(1, 8)}
    elapsed = time.perf_counter() - t0
    want = {1: 3, 2: 15, 3: 55, 4: 167, 5: 453, 6: 1153, 7: 2807}
    ok = got == want and elapsed < 1.0
    _verdict("criterion 1 (binary-tree bound column, d=1..7)", ok,
             f"{list(got.values())} in {elapsed:.2f}s")
    assert got == want
    assert elapsed < 1.0


def test_criterion_2_gap_arithmetic():
    t0 = time.perf_counter()
    want_v1 = {2: 2, 3: 3, 4: 4, 5: 7, 6: 12, 7: 23}
    want_v2 = {2: 2, 3: 3, 4: 5, 5: 8, 6: 15, 7: 26}
    got_v1 = {d: bd.predicted_gap(d, "v1").moves for d in range(2, 8)}
    got_v2 = {d: bd.predicted_gap(d, "v2").moves for d in range(2, 8)}
    recorded = all(
        bd.predicted_gap(d, v).moves == golden.recorded_gap(d, v)
        for d in range(2, 8) for v in ("v1", "v2")
    )
    elapsed = time.perf_counter() - t0
    ok = got_v1 == want_v1 and got_v2 == want_v2 and recorded and elapsed < 1.0
    _verdict("criterion 2 (gap formula arithmetic)", ok,
             f"v1={list(got_v1.values())} v2={list(got_v2.values())}")
    assert got_v1 == want_v1 and got_v2 == want_v2
    assert recorded, "formula disagrees with recorded column differences"
    assert elapsed < 1.0


def test_criterion_3_cumulative_column(sweep):
    gate = {n: golden.CUMULATIVE[n].values["dstar"] for n in range(6, 14)}
    got = {n: sum(row[1] for row in sweep[n]) for n in range(6, 16)}

    print("cumulative main-bound column (moves):")
    for n in range(6, 16):
        note = ""
        if n in gate:
            note = "ok" if got[n] == gate[n] else f"MISMATCH (reference {gate[n]})"
        elif n == 14:
            note = f"target {golden.CUMULATIVE[14].values['dstar']}, not gated"
        else:
            note = "reported, reference row marked suspect"
        print(f"  n={n}: {got[n]} {note}")

    bad = sorted(n for n in gate if got[n] != gate[n])
    if bad:
        print("adjudication sweep over both tie keys and both pairing-diameter")
        print("conventions at the failing sizes:")
        trees_by_n = {n: [en.parse_graph6(row[0]) for row in sweep[n]] for n in bad}
        for mode in ("global", "pairwise"):
            for strict in (False, True):
                sums = {
                    n: sum(
                        bd.delta_star(t, dist_sum_mode=mode,
                                      strict_pseudocode=strict)[0].moves
                        for t in trees_by_n[n]
                    )
                    for n in bad
                }
                label = f"distsum={mode} case2={'post' if strict else 'pre'}"
                print(f"  {label}: " + " ".join(
                    f"n={n}:{sums[n]} (ref {gate[n]})" for n in bad))
        print("no configuration reproduces the failing reference rows; the")
        print("n=13 and n=15 rows also break the column's own growth trend")
    _verdict("criterion 3 (cumulative bound column, n=6..13 gated)", not bad,
             f"mismatches at {bad}" if bad else "all rows exact")
    assert not bad, f"cumulative reference mismatches at n={bad} (evidence above)"


def test_criterion_4_soundness(all_trees):
    violations = []
    checked = 0
    for n in range(2, 10):
        for t in all_trees(n):
            bound = bd.delta_star(t)[0].moves
            exact = orc.cayley_diameter(t)
            checked += 1
            if bound < exact:
                violations.append((en.encode_graph6(t), bound, exact))
    _verdict("criterion 4 (soundness vs exact diameters, n<=9)", not violations,
             f"{checked} trees checked")
    assert not violations, violations


def test_criterion_5_closed_forms_vs_oracle():
    rows = []  # (label, formula value as Fraction, oracle value)

    for n in range(2, 10):
        rows.append((f"star n={n}", Fraction(3 * (n - 1), 2).__floor__(),
                     orc.cayley_diameter(tr.make_star(n))))
        rows.append((f"path n={n}", n * (n - 1) // 2,
                     orc.cayley_diameter(tr.make_path(n))))

    spider_rows = []
    for m in range(1, 9):
        for k in range(1, 9):
            if m * k + 1 > 9:
                continue
            formula = Fraction(m * k * (2 * k + 1), 2)
            exact = orc.cayley_diameter(tr.make_spider(m, k))
            spider_rows.append((m, k, formula, exact))

    match_rows = [
        (3, 3 * 3 + 3 - 1, orc.cayley_diameter(tr.make_matchstick(3))),
        (4, 4 * 4 + 4 - 1, orc.cayley_diameter(tr.make_matchstick(4))),
    ]

    print("star/path closed forms vs oracle:")
    base_ok = all(f == e for _, f, e in rows)
    print(f"  {len(rows)} instances, all "
          + ("match" if base_ok else "DO NOT match"))

    print("recorded spider formula mk(2k+1)/2 vs oracle (mk+1 <= 9):")
    genuine_bad = []
    for m, k, formula, exact in spider_rows:
        status = "ok" if formula == exact else f"REFUTED (formula {formula})"
        kind = "path" if m <= 2 else ("star" if k == 1 else "genuine")
        print(f"  m={m} k={k} [{kind}]: oracle={exact} {status}")
        if m >= 2 and formula != exact:
            genuine_bad.append((m, k, formula, exact))

    print("recorded matchstick formula k^2+k-1 vs oracle:")
    match_ok = True
    for k, formula, exact in match_rows:
        status = "ok" if formula == exact else f"REFUTED (formula {formula})"
        print(f"  k={k}: oracle={exact} {status}")
        match_ok = match_ok and formula == exact

    ok = base_ok and not genuine_bad and match_ok
    _verdict("criterion 5 (closed forms vs oracle)", ok,
             "recorded spider and matchstick formulas are refuted by "
             "exhaustive search" if not ok else "")
    assert base_ok
    assert not genuine_bad, f"spider formula refuted at {genuine_bad}"
    assert match_ok, "matchstick formula refuted at k=4 (oracle 18, formula 19)"


def test_criterion_6_path_exactness():
    formula_ok = all(
        bd.delta_star(tr.make_path(n))[0].moves == n * (n - 1) // 2
        for n in range(3, 13)
    )
    oracle_ok = all(
        orc.cayley_diameter(tr.make_path(n)) == n * (n - 1) // 2
        for n in range(3, 10)
    )
    _verdict("criterion 6 (path bound exact, n=3..12)", formula_ok and oracle_ok)
    assert formula_ok and oracle_ok


def test_criterion_7_determinism(all_trees):
    import random

    def shape(trace):
        return [(r.tree_code, r.case, r.cluster_sizes, r.cost) for r in trace.records]

    # a relabelling moves the least label, which picks C* among full ties
    diverged = []
    for n in range(2, 11):
        for t in all_trees(n):
            base_val, base_trace = bd.delta_star(t)
            base_shape = shape(base_trace)
            for trial in range(100):
                labels = random.Random(trial).sample(t.labels, t.n)
                val, trace = bd.delta_star(ref.relabel(t, labels))
                if val != base_val or shape(trace) != base_shape:
                    diverged.append((n, en.encode_graph6(t), trial))
                    break
    _verdict("criterion 7 (100-relabelling determinism, n<=10)", not diverged,
             "values and step shapes identical across relabellings"
             if not diverged else str(diverged[:5]))
    assert not diverged


def test_criterion_8_enumeration_counts(sweep):
    got = {n: len(sweep[n]) for n in range(6, 16)}
    want = {n: golden.TREE_COUNTS[n] for n in range(6, 16)}
    _verdict("criterion 8 (free-tree counts, n=6..15)", got == want,
             str(list(got.values())))
    assert got == want


def test_criterion_9_graph6_roundtrip(all_trees):
    bad = 0
    for n in range(1, 11):
        for t in all_trees(n):
            line = en.encode_graph6(t)
            back = en.parse_graph6(line)
            if en.encode_graph6(back) != line or tr.canonical_code(
                back
            ) != tr.canonical_code(t):
                bad += 1
    _verdict("criterion 9 (graph6 round-trip, n<=10)", bad == 0)
    assert bad == 0


def test_criterion_10_baseline_reconstruction(sweep, all_trees):
    # per-tree dominance, n <= 13
    v1_bad, v2_bad = [], []
    for n in range(2, 6):
        for t in all_trees(n):
            ds = bd.delta_star(t)[0].units
            if ds > bd.delta_prime(t, "v1")[0].units:
                v1_bad.append((n, en.encode_graph6(t)))
            if ds > bd.delta_prime(t, "v2")[0].units:
                v2_bad.append((n, en.encode_graph6(t)))
    for n in range(6, 14):
        for g6, ds, v1, v2 in sweep[n]:
            if ds > v1:
                v1_bad.append((n, g6))
            if ds > v2:
                v2_bad.append((n, g6))

    # cumulative ordering, n = 6..13
    order_ok = True
    for n in range(6, 14):
        ds = sum(r[1] for r in sweep[n])
        v1 = sum(r[2] for r in sweep[n])
        v2 = sum(r[3] for r in sweep[n])
        if not ds <= v2 <= v1:
            order_ok = False

    # reference-match status is reported, never gated (exit-2 semantics)
    print("baseline columns vs cumulative reference (informational):")
    for n in range(6, 14):
        row = golden.CUMULATIVE[n].values
        v1 = sum(r[2] for r in sweep[n])
        v2 = sum(r[3] for r in sweep[n])
        print(
            f"  n={n}: v1={v1} (ref {row['v1']}"
            f"{', ok' if v1 == row['v1'] else ', differs'})"
            f" v2={v2} (ref {row['v2']}"
            f"{', ok' if v2 == row['v2'] else ', differs'})"
        )
    if v2_bad:
        print("v2 dominance counterexamples (bound pairs in moves):")
        for n, g6 in v2_bad:
            t = en.parse_graph6(g6)
            ds = bd.delta_star(t)[0]
            v2 = bd.delta_prime(t, "v2")[0]
            print(f"  n={n} {g6}: delta-star={ds} v2={v2}")

    ok = not v1_bad and not v2_bad and order_ok
    _verdict(
        "criterion 10 (baseline dominance and ordering, n<=13)", ok,
        f"v2 fails per-tree dominance on {len(v2_bad)} tree(s)" if v2_bad else "",
    )
    assert order_ok, "cumulative ordering violated"
    assert not v1_bad, v1_bad
    assert not v2_bad, f"v2 per-tree dominance fails: {v2_bad}"


# ---------------------------------------------------------------------------
# Passing regression tests for the values the three failing gates print:
# those gates are red by design, so a change in the values they report
# would otherwise go unnoticed.

def test_cumulative_values_past_reference(sweep):
    got = {n: sum(row[1] for row in sweep[n]) for n in range(12, 16)}
    assert got == {12: 20158, 13: 54793, 14: 151588, 15: 418971}


def test_v2_dominance_counterexample_values():
    t = en.parse_graph6("LhI?GCA_??_@?A")
    assert bd.delta_star(t)[0].moves == 48
    assert bd.delta_prime(t, "v2")[0].moves == 47


def test_oracle_values_refuting_closed_forms():
    assert orc.cayley_diameter(tr.make_spider(3, 2)) == 14
    assert orc.cayley_diameter(tr.make_matchstick(4)) == 18
    assert orc.cayley_diameter(tr.make_spider(4, 2)) == 18  # n = 9
    assert orc.cayley_diameter(tr.make_matchstick(5)) == 26  # n = 10
