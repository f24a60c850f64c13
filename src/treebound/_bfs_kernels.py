"""BFS kernels over the n!-state permutation space.

Both backends fill a dense uint8 depth table indexed by Lehmer rank
(identity = rank 0, unvisited = 255), one level at a time, so their tables
are bit-identical:

  * a chunked, vectorized numpy kernel.  It decodes each frontier chunk to
    Lehmer digits and symbols once, then gets every neighbour's rank from
    the few digits a swap changes (the digit-delta rule below), with no
    re-ranking and no per-edge sort.  It needs only numpy and is the fast
    path of a default install.
  * a numba-jitted per-state kernel, selected when the optional numba
    package imports.

Setting the environment variable TREEBOUND_NO_NUMBA to anything non-empty
forces the numpy path.  tests/test_oracle.py checks the numpy kernel
against a plain-Python BFS, and the two backends against each other when
numba is installed.
"""

from __future__ import annotations

import os

import numpy as np

UNSEEN = 255


def _factorials(n: int) -> np.ndarray:
    fact = np.empty(n + 1, np.int64)
    fact[0] = 1
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k
    return fact


# ---------------------------------------------------------------------------
# numpy backend: a frontier chunk held as (n, rows) Lehmer digits and symbols.
#
# Swapping positions i < j with symbols a = p[i], b = p[j] changes only the
# Lehmer digits i..j:
#   d_i' = d_j + #{i<l<j: p_l<b} + [a<b]
#   d_j' = d_i - [b<a] - #{i<l<j: p_l<a}
#   d_k' = d_k + [a<p_k] - [b<p_k] = d_k + [p_k<b] - [p_k<a]   (i < k < j)
# so the neighbour's rank is the state's rank plus O(j - i) weighted terms.

def bfs_numpy(n: int, edges: np.ndarray, chunk: int = 1 << 15) -> np.ndarray:
    """Depth table via chunked vectorized BFS from the identity."""
    fact = _factorials(n)
    # int32 ranks: n! < 2**31 for every n up to 12, past the oracle's cap
    w = fact[n - 1::-1].astype(np.int32)  # w[k] = (n-1-k)!, weight of digit k
    pairs = [(min(e), max(e)) for e in edges.tolist()]
    depth = np.full(fact[n], UNSEEN, np.uint8)
    depth[0] = 0
    frontier = np.zeros(1, np.int32)
    level = 0
    while frontier.size:
        for lo in range(0, frontier.size, chunk):
            ranks = frontier[lo:lo + chunk]
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
                nbr = nbr[depth[nbr] == UNSEEN]
                depth[nbr] = level + 1
        level += 1
        frontier = np.flatnonzero(depth == level).astype(np.int32)
    return depth


# ---------------------------------------------------------------------------
# numba backend: per-state loop over a reusable rank frontier.

def _bfs_python_kernel(n, ei, ej, depth):  # pragma: no cover - jit fallback
    raise RuntimeError("numba backend unavailable")


try:
    from numba import njit

    @njit(cache=True)
    def _bfs_jit_kernel(n, ei, ej, depth):
        nfact = depth.shape[0]
        fact = np.empty(n + 1, np.int64)
        fact[0] = 1
        for k in range(1, n + 1):
            fact[k] = fact[k - 1] * k
        frontier = np.empty(nfact, np.uint32)
        nxt = np.empty(nfact, np.uint32)
        p = np.empty(n, np.uint8)
        avail = np.empty(n, np.bool_)
        depth[0] = 0
        frontier[0] = 0
        fsize = 1
        level = 0
        nedges = ei.shape[0]
        while fsize > 0:
            nsize = 0
            for fidx in range(fsize):
                rr = int(frontier[fidx])
                for k in range(n):
                    avail[k] = True
                for k in range(n):
                    f = fact[n - 1 - k]
                    d = rr // f
                    rr -= d * f
                    m = 0
                    while True:
                        if avail[m]:
                            if d == 0:
                                break
                            d -= 1
                        m += 1
                    avail[m] = False
                    p[k] = m
                for e in range(nedges):
                    i = ei[e]
                    j = ej[e]
                    tmp = p[i]
                    p[i] = p[j]
                    p[j] = tmp
                    r2 = 0
                    for k in range(n):
                        c = 0
                        for l in range(k + 1, n):
                            if p[l] < p[k]:
                                c += 1
                        r2 += c * fact[n - 1 - k]
                    if depth[r2] == UNSEEN:
                        depth[r2] = level + 1
                        nxt[nsize] = r2
                        nsize += 1
                    tmp = p[i]
                    p[i] = p[j]
                    p[j] = tmp
            tmpf = frontier
            frontier = nxt
            nxt = tmpf
            fsize = nsize
            level += 1

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _bfs_jit_kernel = _bfs_python_kernel
    HAS_NUMBA = False


def bfs_numba(n: int, edges: np.ndarray) -> np.ndarray:
    fact = _factorials(n)
    depth = np.full(fact[n], UNSEEN, np.uint8)
    ei = np.ascontiguousarray(edges[:, 0], np.int64)
    ej = np.ascontiguousarray(edges[:, 1], np.int64)
    _bfs_jit_kernel(n, ei, ej, depth)
    return depth


def use_numba() -> bool:
    return HAS_NUMBA and not os.environ.get("TREEBOUND_NO_NUMBA")


def backend_name() -> str:
    return "numba" if use_numba() else "numpy"


def bfs_depth_table(n: int, edges: np.ndarray) -> np.ndarray:
    """Depth per rank from the identity, on the selected backend.

    edges: (m, 2) int array of 0-based position pairs.
    """
    if n == 1:
        return np.zeros(1, np.uint8)
    if use_numba():
        return bfs_numba(n, edges)
    return bfs_numpy(n, edges)
