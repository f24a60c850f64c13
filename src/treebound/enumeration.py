"""Non-isomorphic free trees as tree.Tree, and the graph6 text format.

enumerate_free_trees builds the trees of batch._free_level_sequences
(tree._from_level_sequence) sorted by canonical code, so its output does
not depend on the generator's order.  The test suite re-derives the counts
and the isomorphism-class uniqueness independently, so a generator defect
cannot pass silently.  batch is imported only by enumerate_free_trees, so
oracle, which reads graph6 through this module, compiles neither the
generator nor the peel engine; table1 and verify value the level sequences
themselves and load this module only to name a violating tree.
"""

from __future__ import annotations

from . import Error
from . import tree as tr


class MalformedGraph6Error(Error, ValueError):
    """Input line is not valid short-form graph6."""


def enumerate_free_trees(n: int) -> list[tr.Tree]:
    """All free trees on n vertices, each isomorphism class exactly once,
    in canonical-code order."""
    from .batch import _free_level_sequences, _Rooted
    # each sequence is rooted at a center, so its _Rooted code is canonical
    seqs = sorted(_free_level_sequences(n), key=lambda seq: _Rooted(seq).code)
    return list(map(tr._from_level_sequence, seqs))


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
