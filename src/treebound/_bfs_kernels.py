"""BFS kernel over the n!-state permutation space.

A chunked, vectorized numpy kernel fills a dense uint8 depth table indexed
by Lehmer rank (identity = rank 0, unvisited = 255), one level at a time.
Each level's frontier is exactly the set of states at that depth, so its
size is that level's count in the depth profile; the kernel returns these
sizes with the table.  The next frontier is the states a level marks as
it expands, joined once the old frontier is released and sorted into
ascending rank.  tests/test_oracle.py checks both against a plain-Python
BFS.

Neighbours come from one table lookup per edge, not from decoding states.
Swapping positions i < j changes only the Lehmer digits i..j, and the
change depends only on those digits: among the states that agree on
digits j+1..n-1, digits i..j are in bijection with the ordered choice of
relative values that p_i..p_j take within the suffix p_i..p_{n-1}.  That
choice fixes both the relative order of p_i..p_j and how many later
symbols lie below each of them, and so every new digit.  Hence
rank(p∘(i j)) - rank(p) is a function of the mixed-radix segment value
    seg = r // w[j] - (r // w[i-1]) * M,   M = prod_{k=i..j} (n - k),
where w[k] = (n-1-k)! is the weight of digit k.  That function is
tabulated once per (n, i, j) in a process (M int32 entries, one per
representative rank seg * w[j], filled by decoding the representatives,
swapping and re-ranking them), and shared by every BFS whose tree has
that edge; then a frontier chunk costs a few floor divisions, shared
between edges, plus one take and one add per edge.  M grows with the span j - i and towards position 0, so frame
picks a labeling of the positions that keeps the tables small, and the
oracle runs the kernel in it; the kernel itself works in whatever frame
it is given.

This is the only module that imports numpy.  oracle.py imports it on its
first depth-table build, so subcommands that never run the oracle (table1,
table2, bound, enumerate, verify) do not load numpy at all.
"""

from __future__ import annotations

from functools import cache
from math import factorial

import numpy as np

UNSEEN = 255
# perfbench records this; it goes with the benchmark-upkeep change (ROADMAP item 7)
HAS_NUMBA = False
CHUNK = 1 << 15  # frontier states expanded at once


def bfs_numpy(n: int, edges: list[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
    """BFS from the identity over 0-based position pairs.

    Returns the depth table and the level sizes: sizes[d] is the size of
    the level-d frontier, which is exactly the set of states at depth d.
    """
    w = _weights(n)
    pairs = [(min(e), max(e)) for e in edges]
    tables = [_segment_table(n, i, j) for i, j in pairs]
    # seg = r // w[j] - (r // w[i-1]) * M; edges share most of these divisors
    divisors = {j for _, j in pairs} | {i - 1 for i, _ in pairs if i}
    depth = np.full(factorial(n), UNSEEN, np.uint8)
    depth[0] = 0
    frontier = np.zeros(1, np.int32)
    sizes = []
    level = 0
    while frontier.size:
        sizes.append(frontier.size)
        finds = []  # states first reached at level + 1
        for lo in range(0, frontier.size, CHUNK):
            ranks = frontier[lo:lo + CHUNK]
            quot = {k: ranks // w[k] for k in divisors}
            for (i, j), table in zip(pairs, tables):
                seg = quot[j] - quot[i - 1] * table.size if i else quot[j]
                nbr = ranks + table.take(seg)
                # each new state is kept once: a swap is a bijection, so nbr
                # has no repeats, and states an earlier swap marked fail
                # this filter
                nbr = nbr.compress(depth.take(nbr) == UNSEEN)
                # numpy scatters through intp indices faster than through
                # int32 ones, even counting the cast
                depth[nbr.astype(np.intp)] = level + 1
                finds.append(nbr)
        level += 1
        # ranks is a view of the old frontier: drop both before the join
        del frontier, ranks
        frontier = np.concatenate(finds) if finds else np.zeros(0, np.int32)
        frontier.sort()
    return depth, sizes


def _weights(n: int) -> np.ndarray:
    """w[k] = (n-1-k)!, the weight of Lehmer digit k.  int32 ranks: n! < 2**31
    for every n up to 12, past the oracle's cap."""
    return np.array([factorial(n - 1 - k) for k in range(n)], np.int32)


def table_size(n: int, i: int, j: int) -> int:
    """Entries in the table of a swap of positions i and j: the number of
    values digits min(i, j)..max(i, j) take together."""
    return factorial(n - min(i, j)) // factorial(n - 1 - max(i, j))


def frame(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """A relabeling of the positions that keeps the swap tables small.

    edges are the tree's label pairs; frame[v - 1] is label v's 0-based
    position.  An edge across positions i < j costs table_size(n, i, j)
    = (n - i)! / (n - 1 - j)! entries, so short edges at high positions are
    cheap and an edge across (0, n - 1) costs all n! states.  Relabeling
    the positions conjugates every state and so keeps every depth; the
    frame is picked by steepest descent over swaps of two labels'
    positions, from the identity, until no swap lowers the total entry
    count.
    """
    size = [[table_size(n, i, j) for j in range(n)] for i in range(n)]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i - 1].append(j - 1)
        nbrs[j - 1].append(i - 1)
    frame = list(range(n))

    def entries(u: int, at: int, v: int) -> int:
        """Entries of u's edges, but the one to v, with u at position at."""
        return sum(size[at][frame[x]] for x in nbrs[u] if x != v)

    while True:
        best, move = 0, None
        for u in range(n):
            for v in range(u + 1, n):
                gain = (entries(u, frame[u], v) + entries(v, frame[v], u)
                        - entries(u, frame[v], v) - entries(v, frame[u], u))
                if gain > best:
                    best, move = gain, (u, v)
        if move is None:
            return tuple(frame)
        u, v = move
        frame[u], frame[v] = frame[v], frame[u]


@cache
def _segment_table(n: int, i: int, j: int) -> np.ndarray:
    """delta[seg] = rank(p∘(i j)) - rank(p) for the states whose digits i..j
    have mixed-radix value seg, built CHUNK representatives at a time.

    Kept for the life of the process, read-only: a table depends on
    (n, i, j) alone, and trees share most of their edges' tables (23 trees
    on 3..7 vertices ask for 116 tables, 37 of them distinct).  The frame
    keeps the cache small: all 235 trees on 11 vertices leave 36 tables
    with 118,898 entries in all (0.5 MB)."""
    w = _weights(n)
    size = table_size(n, i, j)
    delta = np.empty(size, np.int32)
    for lo in range(0, size, CHUNK):
        ranks = np.arange(lo, min(lo + CHUNK, size), dtype=np.int32) * w[j]
        # right to left: symbol k is digit k among the symbols after it
        perms = np.stack([ranks // w[k] % (n - k) for k in range(n)]).astype(np.int8)
        for k in range(n - 2, -1, -1):
            perms[k + 1:] += perms[k + 1:] >= perms[k]
        perms[[i, j]] = perms[[j, i]]
        # digit k of the swapped state counts the later symbols below symbol k
        swapped = sum((perms[k + 1:] < perms[k]).sum(0) * w[k] for k in range(n - 1))
        delta[lo:lo + ranks.size] = swapped - ranks
    delta.flags.writeable = False
    return delta
