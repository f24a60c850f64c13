"""Digests of every peel trace over all small trees, per bound configuration.

A change to the peel engine that keeps every value but alters a trace (a
different tie choice, cluster order, recorded diameter or tree code) shows
up here as a digest mismatch.  Each digest is one sha256 over the traces of
every free tree with n <= 11, in enumeration order, followed by the full
binary trees of depth 1..7; each trace enters as
json.dumps(trace.to_json(), sort_keys=True) plus a newline.

To re-record after an intended trace change, run from the repository root:

    PYTHONPATH=src python3 tests/test_peel_golden.py
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from treebound import bounds as bd
from treebound import enumeration as en
from treebound import tree as tr

GOLDEN = pathlib.Path(__file__).with_name("peel_golden.json")

N_MAX = 11
DEPTHS = range(1, 8)


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


def digest(name: str) -> str:
    h = hashlib.sha256()
    run = CONFIGS[name]
    for t in trees():
        _, trace = run(t)
        h.update(json.dumps(trace.to_json(), sort_keys=True).encode("ascii") + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_config(golden):
    assert sorted(golden["digests"]) == sorted(CONFIGS)
    assert golden["trees"] == len(trees())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest(name, golden):
    assert digest(name) == golden["digests"][name]


def _record() -> None:
    doc = {"trees": len(trees()), "digests": {name: digest(name) for name in CONFIGS}}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(CONFIGS)} digests over {doc['trees']} trees to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    _record()
