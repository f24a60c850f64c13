"""Exact ground truth: BFS over the Cayley graph of S_n for a transposition
tree, giving exact sorting distances and the exact diameter for small n.

States are permutations of n symbols over n positions; one move swaps the
symbols at the two endpoint positions of a tree edge.  A single BFS from
the identity suffices: the graph is vertex-transitive, and with involutive
generators the distance to the identity equals the distance from it, so
one depth table answers both diameter and per-permutation queries.

Everything here but the BFS itself is plain Python.  The numpy kernel
module (_bfs_kernels) is imported on the first depth-table build, so
importing this module, or the CLI, does not load numpy.

The exact diameter of every free tree with n <= MAX_CAP is also pinned as
data, read by batch.pinned_diameters; verify reads that and never loads
this module.  cayley_diameter and depth_profile always run the BFS.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from . import Error
from . import tree as tr

# One-line external view: p[i] is the symbol at 1-based position i+1.
Permutation = tuple[int, ...]
PermRank = int

DEFAULT_CAP = 10
MAX_CAP = 11


class TooLargeError(Error, ValueError):
    """Vertex count exceeds the oracle cap."""


class NotGeneratingError(Error, RuntimeError):
    """BFS failed to visit all n! states (broken input or kernel bug)."""


def _validate(p: Permutation) -> int:
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return n


def rank(p: Permutation) -> PermRank:
    """Lehmer rank in [0, n!); the identity ranks 0."""
    n = _validate(p)
    r = 0
    for k in range(n):
        smaller_after = sum(1 for l in range(k + 1, n) if p[l] < p[k])
        r += smaller_after * factorial(n - 1 - k)
    return r


def _check_cap(n: int, cap: int | None) -> None:
    effective = DEFAULT_CAP if cap is None else cap
    if effective > MAX_CAP:
        raise TooLargeError(f"cap {effective} exceeds the hard maximum {MAX_CAP}")
    if n > effective:
        raise TooLargeError(
            f"n={n} exceeds the oracle cap {effective}; "
            f"pass a cap up to {MAX_CAP} to override"
        )


class _Table(NamedTuple):
    """One tree's BFS from the identity, run in a relabeled frame."""

    depth: Sequence[int]  # depth per Lehmer rank in the relabeled frame (uint8 numpy)
    profile: tuple[int, ...]  # count of states at each depth, the same in any frame
    # frame[v - 1] is label v's 0-based position in that frame (_bfs_kernels.frame);
    # sort_distance looks p up as the state with frame[p[i] - 1] + 1 at position frame[i]
    frame: tuple[int, ...]


@lru_cache(maxsize=1)
def _depth_table_cached(n: int, edges: tuple[tuple[int, int], ...]) -> _Table:
    from . import _bfs_kernels as kernels  # numpy loads with the first table

    frame = kernels.frame(n, edges)
    depth, sizes = kernels.bfs_numpy(n, [(frame[i - 1], frame[j - 1]) for i, j in edges])
    if sum(sizes) != factorial(n):
        raise NotGeneratingError(
            f"BFS visited {sum(sizes)} of {factorial(n)} states; "
            "the edge set does not generate the symmetric group"
        )
    return _Table(depth, tuple(sizes), frame)


def _depth_table(t: tr.Tree, cap: int | None) -> _Table:
    """The tree's depth table.  Every public function here calls this
    directly, so stacklevel=3 points the warning at that function's caller."""
    n = t.n
    _check_cap(n, cap)
    if n > DEFAULT_CAP:
        # 4.5 bytes per state: `oracle --make star:11 --cap 11` peaked at 162 MB
        # RSS (ru_maxrss), 4.3 per state; path:11 at 88.5 MB.  The uint8 table
        # plus a level's int32 frontier and the next level's int32 finds (the
        # star's two widest levels hold 30% and 27% of all states at n = 10).
        warnings.warn(
            f"oracle BFS at n={n} touches {factorial(n)} states "
            f"(~{factorial(n) * 9 // 2 ** 21} MB); expect a long run",
            ResourceWarning,
            stacklevel=3,
        )
    key = tuple(sorted((min(e), max(e)) for e in t.label_edges()))
    return _depth_table_cached(n, key)


def sort_distance(t: tr.Tree, p: Permutation, *, cap: int | None = None) -> int:
    """Exact minimum number of moves sorting p to the identity."""
    if _validate(p) != t.n:
        raise ValueError(f"permutation size {len(p)} != tree size {t.n}")
    table = _depth_table(t, cap)
    q = [0] * t.n
    for i, s in enumerate(p):
        q[table.frame[i]] = table.frame[s - 1] + 1
    return int(table.depth[rank(tuple(q))])


def depth_profile(t: tr.Tree, *, cap: int | None = None) -> list[int]:
    """Count of states at each BFS depth; sums to n!."""
    return list(_depth_table(t, cap).profile)


def profile_csv(t: tr.Tree, *, cap: int | None = None) -> str:
    lines = ["depth,count"]
    lines += [f"{d},{c}" for d, c in enumerate(_depth_table(t, cap).profile)]
    return "\n".join(lines)


def cayley_diameter(t: tr.Tree, *, cap: int | None = None) -> int:
    """Exact diameter of the Cayley graph generated by the tree."""
    return len(_depth_table(t, cap).profile) - 1


# perfbench records this; it goes with the benchmark-upkeep change (ROADMAP item 7)
def backend_name() -> str:
    return "numpy"
