"""Enumeration of non-isomorphic free trees and the graph6 text format.

Generation is delegated to networkx (write-once, well-tested WROM-style
generator); the test suite re-derives the counts and the isomorphism-class
uniqueness independently, so a generator defect cannot pass silently.
Emission is sorted by canonical code to keep downstream reports byte-stable
regardless of generator ordering.
"""

from __future__ import annotations

import networkx as nx

from . import tree as tr


class MalformedGraph6Error(ValueError):
    """Input line is not valid short-form graph6."""


class TreeSizeError(ValueError):
    """Requested tree size is outside what enumeration supports."""


class TreeStream:
    """Iterator over all free trees on n vertices, one per isomorphism
    class, in canonical-code order.  `count` tracks trees yielded so far;
    len() gives the total."""

    def __init__(self, n: int, trees: list[tr.Tree]):
        self.n = n
        self.count = 0
        self._trees = trees

    def __len__(self) -> int:
        return len(self._trees)

    def __iter__(self):
        for t in self._trees:
            self.count += 1
            yield t


def _from_networkx(n: int, g) -> tr.Tree:
    # networkx emits vertices 0..n-1; external labels are 1-based.
    return tr.build_tree(n, [(u + 1, v + 1) for u, v in g.edges()])


def enumerate_free_trees(n: int) -> TreeStream:
    """All free trees on n vertices, each isomorphism class exactly once."""
    if not 1 <= n <= 16:
        raise TreeSizeError(f"supported range is 1 <= n <= 16, got {n}")
    if n == 1:
        trees = [tr.build_tree(1, [])]
    elif n == 2:
        trees = [tr.build_tree(2, [(1, 2)])]
    else:
        trees = [_from_networkx(n, g) for g in nx.nonisomorphic_trees(n)]
    trees.sort(key=tr.canonical_code)
    return TreeStream(n, trees)


# ---------------------------------------------------------------------------
# graph6: 6-bit chunks of the upper adjacency triangle in column order,
# each chunk offset by 63 into printable ASCII.  Short form only (n <= 62).

_HEADER = ">>graph6<<"


def encode_graph6(t: tr.Tree) -> str:
    """Short-form graph6 line for the tree (internal vertex order)."""
    n = t.n
    if n > 62:
        raise MalformedGraph6Error("short-form graph6 supports at most 62 vertices")
    bits = []
    for j in range(1, n):
        row = set(t.adj[j])
        for i in range(j):
            bits.append(1 if i in row else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_graph6(line: str) -> tr.Tree:
    """Decode one short-form graph6 line; the graph must be a tree.

    An optional ">>graph6<<" header prefix is tolerated.  Raises
    MalformedGraph6Error for anything that is not clean short-form graph6
    and NotATreeError when the decoded graph is not a tree.
    """
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise MalformedGraph6Error("empty graph6 line")
    if s[0] in ":;&":
        raise MalformedGraph6Error("sparse6/digraph6 input is not supported")
    if any(not 63 <= ord(ch) <= 126 for ch in s):
        raise MalformedGraph6Error("character outside the graph6 alphabet")
    if ord(s[0]) == 126:
        raise MalformedGraph6Error("long-form graph6 (n > 62) is not supported")
    n = ord(s[0]) - 63
    if n < 1:
        raise tr.NotATreeError("graph6 line decodes to an empty graph")
    body = s[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6Error(
            f"expected {(nbits + 5) // 6} data characters for n={n}, got {len(body)}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise MalformedGraph6Error("nonzero padding bits")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i + 1, j + 1))
            pos += 1
    return tr.build_tree(n, edges)
