"""BFS kernels over the n!-state permutation space.

Two interchangeable backends fill a dense uint8 depth table indexed by
Lehmer rank (identity = rank 0, unvisited = 255):

  * a numba-jitted per-state kernel (default when numba imports),
  * a chunked, vectorized pure-numpy kernel.

Setting the environment variable TREEBOUND_NO_NUMBA to anything non-empty
forces the numpy path.  Both backends are level-synchronous and must
produce bit-identical depth tables; the benchmark under benchmarks/
asserts that on every run.
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
# numpy backend: whole frontier levels processed as (rows, n) matrices.

def _unrank_rows(ranks: np.ndarray, n: int, fact: np.ndarray) -> np.ndarray:
    """Decode ranks (int64) to permutation rows (uint8, symbols 0..n-1)."""
    rows = ranks.shape[0]
    digits = np.empty((rows, n), np.int64)
    rr = ranks.astype(np.int64, copy=True)
    for k in range(n):
        f = fact[n - 1 - k]
        digits[:, k] = rr // f
        rr %= f
    perms = np.empty((rows, n), np.uint8)
    avail = np.ones((rows, n), bool)
    ridx = np.arange(rows)
    for k in range(n):
        # index of the digits[:,k]-th still-available symbol per row:
        # first column where the running count of available cells hits it
        want = digits[:, k] + 1
        hit = np.cumsum(avail, axis=1) == want[:, None]
        idx = np.argmax(hit, axis=1)
        perms[:, k] = idx
        avail[ridx, idx] = False
    return perms


def _rank_rows(perms: np.ndarray, fact: np.ndarray) -> np.ndarray:
    """Lehmer ranks of permutation rows (inverse of _unrank_rows)."""
    n = perms.shape[1]
    p16 = perms.astype(np.int16)
    inversions = (p16[:, :, None] > p16[:, None, :]) & np.triu(np.ones((n, n), bool), 1)
    weights = fact[:n][::-1].copy()
    return (inversions.sum(axis=2) * weights).sum(axis=1)


def bfs_numpy(n: int, edges: np.ndarray, chunk: int = 1 << 15) -> np.ndarray:
    """Depth table via chunked vectorized BFS from the identity."""
    fact = _factorials(n)
    depth = np.full(fact[n], UNSEEN, np.uint8)
    depth[0] = 0
    frontier = np.zeros(1, np.int64)
    level = 0
    while frontier.size:
        parts = []
        for lo in range(0, frontier.size, chunk):
            perms = _unrank_rows(frontier[lo:lo + chunk], n, fact)
            for i, j in edges:
                swapped = perms.copy()
                swapped[:, [i, j]] = swapped[:, [j, i]]
                r2 = _rank_rows(swapped, fact)
                # unique() collapses same-state hits within this batch; the
                # depth mark keeps later batches from re-adding them
                fresh = np.unique(r2[depth[r2] == UNSEEN])
                if fresh.size:
                    depth[fresh] = level + 1
                    parts.append(fresh)
        frontier = np.concatenate(parts) if parts else np.empty(0, np.int64)
        level += 1
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
