"""Labeled free trees and the distance machinery (BFS rows,
eccentricities, clusters) the peel step is checked against; the canonical
code is the peel engine's (batch._Rooted).

Vertices are dense 0-based internal indices; every tree carries an external
label per index (1-based positions of the permutation being sorted).  All
operations are pure functions over immutable trees, so deleting vertices
never invalidates anybody else's labels and values can be shared freely
between workers.
"""

from __future__ import annotations

from typing import NamedTuple

from .batch import DIST_SUM_MODES, _Rooted
from .enumeration import level_sequence


class TreeError(Exception):
    """Base class for tree construction and manipulation errors."""


class NotATreeError(TreeError):
    """Edge set is cyclic, disconnected, or has the wrong edge count."""


class DuplicateEdgeError(TreeError):
    pass


class BadLabelError(TreeError):
    pass


class NonLeafDeletionError(TreeError):
    """A vertex scheduled for deletion still has degree > 1."""


class EmptyResultError(TreeError):
    """Deletion would remove every vertex."""


class NonCliqueComponentError(TreeError):
    """A component of the near-diameter relation is not a clique.

    The cluster extraction assumes the "closer than the diameter" relation
    is transitive on the peripheral set of a tree.  This error fires if an
    input ever falsifies that, instead of silently returning a non-cluster.
    """


class Tree(NamedTuple):
    """Immutable labeled tree: adjacency lists over internal indices 0..n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        """Internal-index edges, each once, endpoints ordered."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def label_edges(self) -> list[tuple[int, int]]:
        return [(self.labels[u], self.labels[v]) for u, v in self.edges()]

    def index_of_label(self, label: int) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadLabelError(f"no vertex labeled {label}") from None


def build_tree(n: int, edges) -> Tree:
    """Build a tree from 1..n labels and a list of label pairs.

    Raises BadLabelError / DuplicateEdgeError / NotATreeError when the input
    is not a spanning tree on n labeled vertices.
    """
    if n < 1:
        raise BadLabelError(f"vertex count must be positive, got {n}")
    edges = list(edges)
    if len(edges) != n - 1:
        raise NotATreeError(f"{n} vertices need {n - 1} edges, got {len(edges)}")
    neighbors: list[set[int]] = [set() for _ in range(n)]
    seen = set()
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise BadLabelError(f"edge ({a},{b}) outside 1..{n}")
        if a == b:
            raise DuplicateEdgeError(f"self-loop at {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateEdgeError(f"edge ({a},{b}) repeated")
        seen.add(key)
        neighbors[a - 1].add(b - 1)
        neighbors[b - 1].add(a - 1)
    t = Tree(
        n=n,
        adj=tuple(tuple(sorted(s)) for s in neighbors),
        labels=tuple(range(1, n + 1)),
    )
    if -1 in bfs_distances(t, 0):
        raise NotATreeError("edge set is disconnected (and therefore cyclic)")
    return t


# Distance table from one source: index = internal vertex, value = edge count,
# table[source] = 0.
DistanceTable = list[int]


def bfs_distances(t: Tree, v: int) -> DistanceTable:
    """Exact edge-count distances from internal vertex v to every vertex."""
    adj = t.adj
    dist = [-1] * t.n
    dist[v] = 0
    order = [v]
    for u in order:  # grows while it is walked: a FIFO queue without pops
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                order.append(w)
    return dist


def eccentricities(t: Tree) -> list[int]:
    """Per-vertex eccentricity from three BFS rows: the vertex farthest from
    any vertex ends a longest path, and each vertex's eccentricity is its
    distance to one of that path's two ends."""
    row = bfs_distances(t, 0)
    a = bfs_distances(t, row.index(max(row)))
    b = bfs_distances(t, a.index(max(a)))
    return [max(x, y) for x, y in zip(a, b)]


def _periphery(t: Tree) -> tuple[int, list[int]]:
    # the diameter, and the vertices of maximum eccentricity ascending
    ecc = eccentricities(t)
    diam = max(ecc)
    return diam, [v for v, e in enumerate(ecc) if e == diam]


def peripheral_set(t: Tree) -> list[int]:
    """Vertices of maximum eccentricity, ascending by internal index."""
    if t.n < 2:
        raise TreeError("peripheral set needs at least 2 vertices")
    return _periphery(t)[1]


class Cluster(NamedTuple):
    """Maximal peripheral subset whose members are pairwise closer than diam."""

    members: frozenset[int]
    size: int
    dist_sum: int
    canon_key: bytes
    min_label: int

    def sort_key(self):
        return (-self.size, self.dist_sum, self.canon_key, self.min_label)


def clusters(t: Tree, s, dist_sum_mode: str = "global") -> list[Cluster]:
    """Partition the peripheral set s by the "closer than diameter" relation.

    Components of the relation graph are extracted from BFS rows and each
    is asserted to be a clique under the relation (NonCliqueComponentError
    otherwise).  Every cluster carries its full key: its distSum, summed
    from the same BFS rows ("global": total distance from the members to
    every vertex; "pairwise": over unordered member pairs only), and the
    canonical code of the tree it would leave behind (delete_vertices).
    Returned sorted by (size desc, distSum asc, canonical key, min label),
    the order in which the peel step (batch._Rooted.pick, then the least
    label) picks C*: an independent reference for that step.
    """
    s = sorted(s)
    if not s:
        return []
    if dist_sum_mode not in DIST_SUM_MODES:
        raise ValueError(f"unknown dist_sum mode {dist_sum_mode!r}")
    diam, periphery = _periphery(t)
    if s != periphery:
        raise TreeError("clusters partition the peripheral set, not another vertex set")
    groups, rows = _cluster_groups(t, s, diam)
    out = []
    for members in groups:
        if dist_sum_mode == "pairwise":
            dist_sum = sum(rows[u][v] for u in members for v in members if u < v)
        else:
            dist_sum = sum(sum(rows[v]) for v in members)
        left = delete_vertices(t, [v for v in s if v not in members])
        out.append(
            Cluster(
                members=frozenset(members),
                size=len(members),
                dist_sum=dist_sum,
                canon_key=canonical_code(left),
                min_label=min(t.labels[v] for v in members),
            )
        )
    out.sort(key=Cluster.sort_key)
    return out


def _cluster_groups(t: Tree, s: list[int], diam: int) -> tuple[list[list[int]], dict]:
    """Member lists of the clusters of s (ascending), without their keys,
    and the BFS row of each vertex of s they were built from.

    Components of the "closer than diam" relation come out ordered by least
    member, members ascending; each is checked to be a clique under the
    relation.  On the peripheral set these must be the groups of S that the
    peel step ranks (batch._Rooted.pick: one per branch, or per side, of
    the center); the tests hold them to that.
    """
    rows = {v: bfs_distances(t, v) for v in s}
    parent = {v: v for v in s}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, u in enumerate(s):
        for v in s[i + 1 :]:
            if rows[u][v] < diam:
                parent[find(u)] = find(v)

    groups: dict[int, list[int]] = {}
    for v in s:
        groups.setdefault(find(v), []).append(v)

    for members in groups.values():
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rows[u][v] >= diam:
                    raise NonCliqueComponentError(
                        f"peripheral vertices {t.labels[u]} and {t.labels[v]} share a "
                        f"component but are {rows[u][v]} >= diam {diam} apart"
                    )
    return list(groups.values()), rows


def delete_vertices(t: Tree, xs) -> Tree:
    """Remove a set of leaves, keeping everyone else's external label."""
    xs = set(xs)
    if not xs:
        return t
    if len(xs) >= t.n:
        raise EmptyResultError("deletion would empty the tree")
    for v in xs:
        if len(t.adj[v]) != 1:
            raise NonLeafDeletionError(
                f"vertex labeled {t.labels[v]} has degree {len(t.adj[v])}, not a leaf"
            )
    keep = [v for v in range(t.n) if v not in xs]
    remap = [-1] * t.n
    for i, v in enumerate(keep):
        remap[v] = i
    # remap is increasing, so sorted adjacency stays sorted
    adj = tuple(tuple([remap[w] for w in t.adj[v] if remap[w] >= 0]) for v in keep)
    # Simultaneous leaf removal keeps a tree connected for n >= 3 (leaves are
    # never adjacent there); the n = 2 case degenerates to a single vertex.
    return Tree(n=len(keep), adj=adj, labels=tuple(t.labels[v] for v in keep))


def canonical_code(t: Tree) -> bytes:
    """AHU canonical form rooted at the center, the peel engine's
    (batch._Rooted); equal codes <=> isomorphic."""
    return _Rooted(level_sequence(t)[0]).code


# ---------------------------------------------------------------------------
# Constructors for the named tree classes.

def make_star(n: int) -> Tree:
    """K_{1,n-1}: vertex 1 adjacent to all others."""
    if n < 1:
        raise BadLabelError("star needs at least 1 vertex")
    return build_tree(n, [(1, k) for k in range(2, n + 1)])


def make_path(n: int) -> Tree:
    if n < 1:
        raise BadLabelError("path needs at least 1 vertex")
    return build_tree(n, [(k, k + 1) for k in range(1, n)])


def make_full_binary(d: int) -> Tree:
    """Full binary tree of depth d: 2^(d+1) - 1 vertices, heap numbering."""
    if d < 0:
        raise BadLabelError("depth must be non-negative")
    n = 2 ** (d + 1) - 1
    return build_tree(n, [(k // 2, k) for k in range(2, n + 1)])


def make_spider(m: int, k: int) -> Tree:
    """m legs of k edges each sharing a central vertex: mk + 1 vertices."""
    if m < 1 or k < 1:
        raise BadLabelError("spider needs m >= 1 legs of k >= 1 edges")
    edges = []
    nxt = 2
    for _ in range(m):
        prev = 1
        for _ in range(k):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_tree(m * k + 1, edges)


def make_matchstick(k: int) -> Tree:
    """Path on k vertices with one pendant leaf per path vertex: 2k vertices."""
    if k < 1:
        raise BadLabelError("matchstick needs k >= 1")
    edges = [(i, i + 1) for i in range(1, k)]
    edges += [(i, k + i) for i in range(1, k + 1)]
    return build_tree(2 * k, edges)


# ---------------------------------------------------------------------------
# Edge-list text format: first line n, then one "u v" pair per line,
# 1-based labels, '#' comments ignored.

def parse_edge_list(text: str) -> Tree:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise NotATreeError("empty edge-list input")
    try:
        n = int(rows[0])
    except ValueError:
        raise NotATreeError(f"first line must be the vertex count, got {rows[0]!r}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise NotATreeError(f"expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise NotATreeError(f"edge endpoints must be integers, got {line!r}") from None
    return build_tree(n, edges)


def format_edge_list(t: Tree) -> str:
    lines = [str(t.n)]
    lines += [f"{a} {b}" for a, b in sorted(t.label_edges())]
    return "\n".join(lines) + "\n"
