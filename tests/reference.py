"""Plain-Python references the tests check the package against.

Nothing in the package calls these: the engine reads star-ness off its
step's diameter, and the oracle works on Lehmer ranks, never on
permutation tuples.
"""

from treebound import tree as tr


def is_star(t: tr.Tree) -> bool:
    """True for n <= 2 and for K_{1,n-1} (one vertex adjacent to all others)."""
    if t.n <= 2:
        return True
    return any(len(t.adj[v]) == t.n - 1 for v in range(t.n))


def relabel(t: tr.Tree, new_labels) -> tr.Tree:
    """Same shape, different external labels (for relabeling experiments)."""
    new_labels = tuple(new_labels)
    if len(new_labels) != t.n or len(set(new_labels)) != t.n:
        raise tr.BadLabelError("relabeling must be a bijection on the vertices")
    return tr.Tree(n=t.n, adj=t.adj, labels=new_labels)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def apply_move(p: tuple[int, ...], e: tuple[int, int]) -> tuple[int, ...]:
    """Swap the symbols at positions i and j (1-based); an involution."""
    i, j = e
    n = len(p)
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"bad move {e} for n={n}")
    q = list(p)
    q[i - 1], q[j - 1] = q[j - 1], q[i - 1]
    return tuple(q)
