"""BFS kernel over the n!-state permutation space.

A chunked, vectorized numpy kernel fills a dense uint8 depth table indexed
by Lehmer rank (identity = rank 0, unvisited = 255), one level at a time.
It decodes each frontier chunk to Lehmer digits and symbols once, then gets
every neighbour's rank from the few digits a swap changes (the digit-delta
rule below), with no re-ranking and no per-edge sort.  Each level's frontier
is exactly the set of states at that depth, so its size is that level's
count in the depth profile; the kernel returns these sizes with the table.
tests/test_oracle.py checks both against a plain-Python BFS.

This is the only module that imports numpy.  oracle.py imports it on its
first depth-table build, so subcommands that never run the oracle (table1,
table2, bound, enumerate) do not load numpy at all.
"""

from __future__ import annotations

from math import factorial

import numpy as np

UNSEEN = 255
# perfbench records this; it goes with the benchmark-upkeep change (ROADMAP item 6)
HAS_NUMBA = False
CHUNK = 1 << 15  # frontier states decoded at once
SCAN = 1 << 18  # depth-table entries scanned at once for the next frontier


# ---------------------------------------------------------------------------
# A frontier chunk held as (n, rows) Lehmer digits and symbols.
#
# Swapping positions i < j with symbols a = p[i], b = p[j] changes only the
# Lehmer digits i..j:
#   d_i' = d_j + #{i<l<j: p_l<b} + [a<b]
#   d_j' = d_i - [b<a] - #{i<l<j: p_l<a}
#   d_k' = d_k + [a<p_k] - [b<p_k] = d_k + [p_k<b] - [p_k<a]   (i < k < j)
# so the neighbour's rank is the state's rank plus O(j - i) weighted terms.

def bfs_numpy(n: int, edges: list[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
    """BFS from the identity over 0-based position pairs.

    Returns the depth table and the level sizes: sizes[d] is the size of
    the level-d frontier, which is exactly the set of states at depth d.
    """
    # int32 ranks: n! < 2**31 for every n up to 12, past the oracle's cap
    w = np.array([factorial(n - 1 - k) for k in range(n)], np.int32)  # weight of digit k
    pairs = [(min(e), max(e)) for e in edges]
    depth = np.full(factorial(n), UNSEEN, np.uint8)
    depth[0] = 0
    frontier = np.zeros(1, np.int32)
    sizes = []
    level = 0
    while frontier.size:
        sizes.append(frontier.size)
        found = 0  # states first reached at level + 1
        for lo in range(0, frontier.size, CHUNK):
            ranks = frontier[lo:lo + CHUNK]
            digits = np.stack([ranks // w[k] % (n - k) for k in range(n)])
            # right to left: symbol k is digit k among the symbols after it
            perms = digits.astype(np.int8)
            for k in range(n - 2, -1, -1):
                perms[k + 1:] += perms[k + 1:] >= perms[k]
            for i, j in pairs:
                a, b = perms[i], perms[j]
                nbr = ranks + (digits[j] - digits[i]) * (w[i] - w[j])
                nbr += (a < b) * (w[i] + w[j]) - w[j]
                for k in range(i + 1, j):
                    nbr += (perms[k] < b) * (w[i] + w[k])
                    nbr -= (perms[k] < a) * (w[j] + w[k])
                # found counts each new state once: a swap is a bijection, so
                # nbr has no repeats, and states an earlier swap marked fail
                # this filter
                nbr = nbr[depth[nbr] == UNSEEN]
                depth[nbr] = level + 1
                found += nbr.size
        level += 1
        frontier = _level_ranks(depth, level, found)
    return depth, sizes


def _level_ranks(depth: np.ndarray, level: int, count: int) -> np.ndarray:
    """Ascending int32 ranks of the count states at depth level, found by a
    block-wise scan that stops once all are found: no whole-table mask and
    no int64 index of the whole level."""
    out = np.empty(count, np.int32)
    at = 0
    for lo in range(0, depth.size, SCAN):
        if at == count:
            break
        idx = np.flatnonzero(depth[lo:lo + SCAN] == level)
        np.add(idx, lo, out=out[at:at + idx.size], casting="unsafe")
        at += idx.size
    return out
