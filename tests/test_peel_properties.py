"""Peel invariants on random labeled trees (Prufer sequences, n <= 60).

Examples are derandomized and no example database is written, so every run
checks the same trees.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from treebound import bounds as bd
from treebound import tree as tr
from conftest import prufer_tree
import reference as ref

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

BOUNDS = {
    "delta_star": lambda t: bd.delta_star(t),
    "delta_star-strict": lambda t: bd.delta_star(t, strict_pseudocode=True),
    "delta_star-pairwise": lambda t: bd.delta_star(t, dist_sum_mode="pairwise"),
    "delta_prime_v1": lambda t: bd.delta_prime(t, "v1"),
    "delta_prime_v2": lambda t: bd.delta_prime(t, "v2"),
}

trees = st.builds(
    lambda n, seed: prufer_tree(n, random.Random(seed)),
    st.integers(1, 60),
    st.integers(0, 2**32),
)
bounds = st.sampled_from(sorted(BOUNDS))


@PROPERTY
@given(trees, bounds)
def test_trace_replays_as_leaf_deletions(t, name):
    _, trace = BOUNDS[name](t)
    *steps, last = trace.records
    for rec in steps:
        assert tr.canonical_code(t) == rec.tree_code
        t = tr.delete_vertices(t, [t.index_of_label(label) for label in rec.deleted_labels])
    assert tr.canonical_code(t) == last.tree_code
    assert last.case == bd.STAR and ref.is_star(t)


@PROPERTY
@given(trees, bounds)
def test_costs_sum_to_total(t, name):
    value, trace = BOUNDS[name](t)
    assert value == trace.total
    assert sum(r.cost.units for r in trace.records) == value.units
    assert value.is_whole


@PROPERTY
@given(trees, bounds, st.integers(0, 2**32))
def test_invariant_under_relabel(t, name, seed):
    labels = list(t.labels)
    random.Random(seed).shuffle(labels)
    value, trace = BOUNDS[name](t)
    value2, trace2 = BOUNDS[name](ref.relabel(t, labels))
    assert value2 == value
    # ties on the whole key leave isomorphic trees, so only labels may differ
    shape = [(r.tree_code, r.case, r.cluster_sizes, r.cost) for r in trace.records]
    assert [(r.tree_code, r.case, r.cluster_sizes, r.cost) for r in trace2.records] == shape
