"""Exact ground truth: BFS over the Cayley graph of S_n for a transposition
tree, giving exact sorting distances and the exact diameter for small n.

States are permutations of n symbols over n positions; one move swaps the
symbols at the two endpoint positions of a tree edge.  A single BFS from
the identity suffices: the graph is vertex-transitive, and with involutive
generators the distance to the identity equals the distance from it, so
one depth table answers both diameter and per-permutation queries.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from math import factorial

import numpy as np

from . import _bfs_kernels as kernels
from . import tree as tr

# One-line external view: p[i] is the symbol at 1-based position i+1.
Permutation = tuple[int, ...]
PermRank = int

DEFAULT_CAP = 10
MAX_CAP = 11


class TooLargeError(ValueError):
    """Vertex count exceeds the oracle cap."""


class NotGeneratingError(RuntimeError):
    """BFS failed to visit all n! states (broken input or kernel bug)."""


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def _validate(p: Permutation) -> int:
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return n


def format_permutation(p: Permutation) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def parse_permutation(text: str) -> Permutation:
    p = tuple(int(x) for x in text.strip().strip("()").split(","))
    _validate(p)
    return p


def apply_move(p: Permutation, e: tuple[int, int]) -> Permutation:
    """Swap the symbols at positions i and j (1-based); an involution."""
    i, j = e
    n = len(p)
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"bad move {e} for n={n}")
    q = list(p)
    q[i - 1], q[j - 1] = q[j - 1], q[i - 1]
    return tuple(q)


def rank(p: Permutation) -> PermRank:
    """Lehmer rank in [0, n!); the identity ranks 0."""
    n = _validate(p)
    r = 0
    for k in range(n):
        smaller_after = sum(1 for l in range(k + 1, n) if p[l] < p[k])
        r += smaller_after * factorial(n - 1 - k)
    return r


def unrank(r: PermRank, n: int) -> Permutation:
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for n={n}")
    symbols = list(range(1, n + 1))
    out = []
    for k in range(n):
        f = factorial(n - 1 - k)
        d, r = divmod(r, f)
        out.append(symbols.pop(d))
    return tuple(out)


def _check_cap(n: int, cap: int | None) -> None:
    effective = DEFAULT_CAP if cap is None else cap
    if effective > MAX_CAP:
        raise TooLargeError(f"cap {effective} exceeds the hard maximum {MAX_CAP}")
    if n > effective:
        raise TooLargeError(
            f"n={n} exceeds the oracle cap {effective}; "
            f"pass a cap up to {MAX_CAP} to override"
        )
    if n > DEFAULT_CAP:
        warnings.warn(
            f"oracle BFS at n={n} touches {factorial(n)} states "
            f"(~{factorial(n) * 9 // 2 ** 20} MB); expect a long run",
            ResourceWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=1)
def _depth_table_cached(n: int, edges: tuple[tuple[int, int], ...]) -> np.ndarray:
    arr = np.array([(i - 1, j - 1) for i, j in edges], np.int64).reshape(-1, 2)
    depth = kernels.bfs_depth_table(n, arr)
    visited = int(np.count_nonzero(depth != kernels.UNSEEN))
    if visited != factorial(n):
        raise NotGeneratingError(
            f"BFS visited {visited} of {factorial(n)} states; "
            "the edge set does not generate the symmetric group"
        )
    return depth


def _depth_table(t: tr.Tree, cap: int | None) -> np.ndarray:
    _check_cap(t.n, cap)
    key = tuple(sorted((min(e), max(e)) for e in t.label_edges()))
    return _depth_table_cached(t.n, key)


def sort_distance(t: tr.Tree, p: Permutation, *, cap: int | None = None) -> int:
    """Exact minimum number of moves sorting p to the identity."""
    if _validate(p) != t.n:
        raise ValueError(f"permutation size {len(p)} != tree size {t.n}")
    return int(_depth_table(t, cap)[rank(p)])


def depth_profile(t: tr.Tree, *, cap: int | None = None) -> list[int]:
    """Count of states at each BFS depth; sums to n!."""
    depth = _depth_table(t, cap)
    return np.bincount(depth[depth != kernels.UNSEEN]).tolist()


def profile_csv(t: tr.Tree, *, cap: int | None = None) -> str:
    lines = ["depth,count"]
    lines += [f"{d},{c}" for d, c in enumerate(depth_profile(t, cap=cap))]
    return "\n".join(lines)


def cayley_diameter(t: tr.Tree, *, cap: int | None = None) -> int:
    """Exact diameter of the Cayley graph generated by the tree."""
    return len(depth_profile(t, cap=cap)) - 1


# perfbench records this; it goes with the benchmark-upkeep change (ROADMAP item 6)
def backend_name() -> str:
    return "numpy"
