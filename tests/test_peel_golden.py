"""Digests of every peel trace over all small trees, per bound configuration.

A change to the peel engine that keeps every value but alters a trace (a
different tie choice, cluster order, recorded diameter or tree code) shows
up here as a digest mismatch.  Each digest is one sha256 over the traces of
every free tree with n <= 11, in enumeration order, followed by the full
binary trees of depth 1..7; each trace enters as
json.dumps(trace.to_json(), sort_keys=True) plus a newline.

Those trees carry the labels of their level sequences.  A second set of
digests covers random labellings: Pruefer trees on 1..60 vertices with
their labels shuffled, from fixed seeds, so that which labels a trace
deletes among isomorphic tied clusters (the least label) is pinned too.

To re-record after an intended trace change, run from the repository root:

    PYTHONPATH=src python3 tests/test_peel_golden.py
"""

import functools
import hashlib
import json
import pathlib
import random
import sys

import pytest

from treebound import bounds as bd
from treebound import enumeration as en
from treebound import tree as tr
from conftest import prufer_tree
import reference as ref

GOLDEN = pathlib.Path(__file__).with_name("peel_golden.json")

N_MAX = 11
DEPTHS = range(1, 8)
SEEDS = range(200)  # one relabelled Pruefer tree per seed


def _star(mode, strict):
    return lambda t: bd.delta_star(t, dist_sum_mode=mode, strict_pseudocode=strict)


def _prime(variant, mode):
    return lambda t: bd.delta_prime(t, variant, dist_sum_mode=mode)


CONFIGS = {
    "delta_star-global": _star("global", False),
    "delta_star-global-strict": _star("global", True),
    "delta_star-pairwise": _star("pairwise", False),
    "delta_star-pairwise-strict": _star("pairwise", True),
    "delta_prime_v1-global": _prime("v1", "global"),
    "delta_prime_v1-pairwise": _prime("v1", "pairwise"),
    "delta_prime_v2-global": _prime("v2", "global"),
    "delta_prime_v2-pairwise": _prime("v2", "pairwise"),
}


@functools.cache
def trees() -> list[tr.Tree]:
    """The trees in digest order."""
    out = [t for n in range(1, N_MAX + 1) for t in en.enumerate_free_trees(n)]
    out += [tr.make_full_binary(d) for d in DEPTHS]
    return out


def _relabelled(seed: int) -> tr.Tree:
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    t = prufer_tree(n, rng)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return ref.relabel(t, labels)


@functools.cache
def relabelled_trees() -> list[tr.Tree]:
    """The randomly labelled trees in digest order."""
    return [_relabelled(seed) for seed in SEEDS]


def digest(name: str, trees) -> str:
    h = hashlib.sha256()
    run = CONFIGS[name]
    for t in trees:
        _, trace = run(t)
        h.update(json.dumps(trace.to_json(), sort_keys=True).encode("ascii") + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_config(golden):
    assert sorted(golden["digests"]) == sorted(golden["relabelled"]["digests"]) == sorted(CONFIGS)
    assert golden["trees"] == len(trees())
    assert golden["relabelled"]["trees"] == len(relabelled_trees())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest(name, golden):
    assert digest(name, trees()) == golden["digests"][name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_relabelled_trace_digest(name, golden):
    assert digest(name, relabelled_trees()) == golden["relabelled"]["digests"][name]


def _record() -> None:
    doc = {
        "trees": len(trees()),
        "digests": {name: digest(name, trees()) for name in CONFIGS},
        "relabelled": {
            "trees": len(relabelled_trees()),
            "digests": {name: digest(name, relabelled_trees()) for name in CONFIGS},
        },
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(CONFIGS)} digests over {doc['trees']} trees and "
          f"{len(CONFIGS)} over {len(relabelled_trees())} relabelled trees to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    _record()
