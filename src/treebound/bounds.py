"""Upper bounds on the Cayley-graph diameter of a transposition tree.

The main bound peels the peripheral set of the tree iteratively, charging
each deleted vertex either the full current diameter or the cheaper paired
cost (diameter minus a half move), depending on how the largest cluster
compares to the rest.  All arithmetic is exact, in integer half-move units;
no floating point enters any bound.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt
from typing import NamedTuple


class _HalfMovesFields(NamedTuple):
    units: int


class HalfMoves(_HalfMovesFields):
    """Exact move count in half-move units (1 move = 2 units).

    Immutable, hashable and ordered by units; + and - give HalfMoves.
    """

    __slots__ = ()

    def __new__(cls, units: int) -> "HalfMoves":
        if units < 0:
            raise ValueError("negative half-move count")
        return super().__new__(cls, units)

    @classmethod
    def from_moves(cls, moves: int) -> "HalfMoves":
        return cls(2 * moves)

    def __add__(self, other: "HalfMoves") -> "HalfMoves":
        return HalfMoves(self.units + other.units)

    def __sub__(self, other: "HalfMoves") -> "HalfMoves":
        return HalfMoves(self.units - other.units)

    def __mul__(self, other):
        # a TypeError, as for any product of HalfMoves, not tuple repetition
        return NotImplemented

    __rmul__ = __mul__

    @property
    def is_whole(self) -> bool:
        return self.units % 2 == 0

    @property
    def moves(self) -> int:
        """The value as whole moves; complete bounds are always whole."""
        if self.units % 2:
            raise ValueError(f"{self} is not a whole number of moves")
        return self.units // 2

    def __str__(self) -> str:
        return str(self.units // 2) if self.units % 2 == 0 else f"{self.units / 2:.1f}"

    def as_fraction(self) -> tuple[int, int]:
        """(numerator, denominator) in lowest terms, for serialization."""
        return (self.units // 2, 1) if self.units % 2 == 0 else (self.units, 2)


# Case tags recorded per iteration.
STAR = "Star"
CASE1 = "Case1"
CASE2 = "Case2"
FULL_S = "FullSDeletion"

# Every bound, in report order: its CLI name -> the step rule it peels with
# (_charge).  The rule name is also its column in golden's tables.
BOUNDS = {"delta-star": "dstar", "delta-prime-v1": "v1", "delta-prime-v2": "v2"}

# The cluster tie-break keys (tr.Walk.dist_sum) and the AHU code helpers
# live here, not in tree.py, which imports them: peel_sweep never loads tree.
DIST_SUM_MODES = ("global", "pairwise")


def _ahu(codes: list[bytes]) -> bytes:
    # AHU code of a rooted tree from its root's child codes
    return b"(" + b"".join(sorted(codes)) + b")"


def _pair(a: bytes, b: bytes) -> bytes:
    # code of a bicentered tree from its two sides' codes
    return a + b if a <= b else b + a


class IterationRecord(NamedTuple):
    tree_code: bytes          # canonical code of the tree entering this step
    n: int
    diameter: int             # diameter the costs were charged at
    s_size: int
    cluster_sizes: tuple[int, ...]
    case: str
    deleted_labels: tuple[int, ...]
    cost: HalfMoves


class _BoundTraceFields(NamedTuple):
    records: tuple[IterationRecord, ...]
    total: HalfMoves


class BoundTrace(_BoundTraceFields):
    """The iteration records of one bound; their costs sum to the total."""

    __slots__ = ()

    def __new__(cls, records: tuple[IterationRecord, ...], total: HalfMoves) -> "BoundTrace":
        if sum(r.cost.units for r in records) != total.units:
            raise ValueError("iteration costs do not sum to the trace total")
        return super().__new__(cls, records, total)

    def to_json(self) -> dict:
        """Structured document: iteration array plus whole-move total."""
        iterations = []
        for r in self.records:
            num, den = r.cost.as_fraction()
            iterations.append(
                {
                    "tree": r.tree_code.decode("ascii"),
                    "n": r.n,
                    "case": r.case,
                    "diameter": r.diameter,
                    "s_size": r.s_size,
                    "cluster_sizes": list(r.cluster_sizes),
                    "deleted": list(r.deleted_labels),
                    "cost": {"num": num, "den": den},
                }
            )
        return {
            "iterations": iterations,
            "total_moves": self.total.moves,
            "total_half_moves": self.total.units,
        }

    def to_text(self) -> str:
        """Line-oriented human-readable report."""
        lines = []
        for i, r in enumerate(self.records, 1):
            deleted = ",".join(map(str, r.deleted_labels)) or "-"
            sizes = "+".join(map(str, r.cluster_sizes)) or "-"
            lines.append(
                f"  it {i}: n={r.n} diam={r.diameter} |S|={r.s_size} "
                f"clusters={sizes} {r.case} deleted=[{deleted}] cost={r.cost}"
            )
        lines.append(f"  total = {self.total} moves")
        return "\n".join(lines)


def star_bound(n: int) -> HalfMoves:
    """Sorting bound for the star K_{1,n-1}: floor(3(n-1)/2) whole moves."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    return HalfMoves.from_moves(3 * (n - 1) // 2)


def _pick_largest_cluster(walk: tr.Walk, dist_sum_mode) -> list[int]:
    """C* among the clusters of S (walk.groups), as a member list: the first
    cluster in tr.clusters' order (size desc, distSum asc, canonical code of
    the tree C* would leave behind, least label).  Keys are lazy: distSum is
    summed only for the clusters tied with the leader on size, and the
    leftover's code (walk.left_code) read only for those tied on (size,
    distSum), since no other cluster can reach the front.

    The granularity matters: clusters tied through the canonical code leave
    isomorphic trees behind, so the least label, which picks among them,
    changes no value and no step's shape.  Ties on (size, distSum) alone do
    change the bound from n = 10 up, which is exactly why the order includes
    the canonical code.
    """
    big = max(map(len, walk.groups))
    lead = [m for m in walk.groups if len(m) == big]
    if len(lead) > 1:
        sums = [walk.dist_sum(m, dist_sum_mode) for m in lead]
        lead = [m for m, ds in zip(lead, sums) if ds == min(sums)]
    if len(lead) == 1:
        return lead[0]
    labels = walk.tree.labels
    # clusters are disjoint, so the least labels differ and m is never compared
    return min((walk.left_code(m), min(labels[v] for v in m), m) for m in lead)[2]


def delta_star(
    t: tr.Tree,
    *,
    dist_sum_mode: str = "global",
    strict_pseudocode: bool = False,
) -> tuple[HalfMoves, BoundTrace]:
    """Cluster-peeling upper bound with room-aware homing costs.

    Per iteration over a non-star tree: find the peripheral set S and its
    clusters, keep the largest cluster C* (least distSum on ties), and
    delete C = S - C*.  When C* holds at least half of S every deleted
    vertex is charged the full diameter; otherwise only |C*| of them are,
    and the remaining |C| - |C*| pair up at diameter - 1/2 each (minus
    another half move when their count is odd).  Stars are charged the
    closed form and terminate.

    By default all Case-2 terms use the pre-deletion diameter, which is the
    reading that reproduces the recorded full-binary-tree values; with
    strict_pseudocode=True the pairing term uses the post-deletion diameter
    instead.
    """
    return _peel(t, "dstar", dist_sum_mode=dist_sum_mode, strict_pseudocode=strict_pseudocode)


def delta_prime(
    t: tr.Tree,
    variant: str,
    *,
    dist_sum_mode: str = "global",
) -> tuple[HalfMoves, BoundTrace]:
    """Baseline bound that sometimes deletes the whole peripheral set.

    variant "v1" deletes all of S when |S - C*| > (2/3)|S|, variant "v2"
    when >=; the whole set then costs diameter - 1/2 per vertex, minus an
    extra half when |S| is odd.  Otherwise S - C* goes at the full diameter
    per vertex.  This is a best-effort reconstruction of the prior method;
    recorded historical values may disagree and are compared report-only.
    """
    if variant not in ("v1", "v2"):
        raise ValueError(f"variant must be 'v1' or 'v2', got {variant!r}")
    return _peel(t, variant, dist_sum_mode=dist_sum_mode, strict_pseudocode=False)


def _charge(rule: str, strict_pseudocode: bool, s: int, c: int, diam: int) -> tuple[str, int]:
    """(case, cost in half-move units) of one non-star peel step under the
    step rule of one bound (a BOUNDS value), where S has s vertices, C* has
    c of them and the tree entering the step has diameter diam.  The
    baselines' rules ignore strict_pseudocode.  Both engines charge here."""
    x = s - c
    if rule != "dstar":
        # |S - C*| > (2/3)|S|  (v1)  /  >= (v2), kept in integers.
        if 3 * x + (rule == "v2") > 2 * s:
            return FULL_S, s * (2 * diam - 1) - (s % 2)
        # Baselines never pair up partial deletions: flat diameter each.
        return CASE1, 2 * x * diam
    if c * 2 >= s:
        return CASE1, 2 * x * diam
    # Deleting S - C* leaves depth h in C*'s branch (side) alone: diameter - 1.
    pair_diam = diam - 1 if strict_pseudocode else diam
    return CASE2, 2 * c * diam + (x - c) * (2 * pair_diam - 1) - ((x - c) % 2)


def _peel(t, rule, *, dist_sum_mode, strict_pseudocode):
    """Peel t down to a star under the step rule `rule` (a BOUNDS value),
    one step per iteration record.

    Each step walks its tree from the center once (tr.Walk) and derives the
    rest from that walk: the diameter, whether the tree is a star (diameter
    <= 2), the peripheral set S, its clusters, their distSums and the tree
    code.  Canonical tie keys are lazy (see _pick_largest_cluster).
    """
    from . import tree as tr  # the batch path (peel_sweep) never loads it

    # checked up front: a star input never reaches a distSum
    if dist_sum_mode not in DIST_SUM_MODES:
        raise ValueError(f"unknown dist_sum mode {dist_sum_mode!r}")
    records = []
    total = 0  # half-move units
    walk = tr.Walk(t)
    guard = walk.diam + 2

    while True:
        t = walk.tree
        if walk.diam <= 2:  # n <= 2 or K_{1,n-1}
            cost = star_bound(t.n)
            records.append(
                IterationRecord(
                    tree_code=walk.code,
                    n=t.n,
                    diameter=walk.diam,
                    s_size=0,
                    cluster_sizes=(),
                    case=STAR,
                    deleted_labels=(),
                    cost=cost,
                )
            )
            total += cost.units
            break

        guard -= 1
        if guard < 0:
            raise AssertionError("peeling failed to terminate")

        c_star = _pick_largest_cluster(walk, dist_sum_mode)
        case, units = _charge(rule, strict_pseudocode, len(walk.s), len(c_star), walk.diam)
        deleted = walk.s if case == FULL_S else [v for v in walk.s if v not in c_star]
        records.append(
            IterationRecord(
                tree_code=walk.code,
                n=t.n,
                diameter=walk.diam,
                s_size=len(walk.s),
                cluster_sizes=tuple(sorted(map(len, walk.groups), reverse=True)),
                case=case,
                deleted_labels=tuple(sorted(t.labels[v] for v in deleted)),
                cost=HalfMoves(units),
            )
        )
        total += units
        walk = tr.Walk(tr.delete_vertices(t, deleted))

    return HalfMoves(total), BoundTrace(records=tuple(records), total=HalfMoves(total))


class _Branch:
    """One branch of a center-rooted level sequence: the subtree under one
    child of the root, as its slice of levels (that child at level 1).  A
    peel step reads off it its AHU code and height, the size of its deepest
    level (deep; S reaches no other), its root's child codes (kids), the
    branch less its deepest level (cut; None if that is all of it), and
    over the edges up from its vertices, with s vertices and k deepest ones
    below each, the sums of k * k (k2) and of k * s (ks)."""

    __slots__ = ("levels", "code", "height", "deep", "kids", "cut", "k2", "ks")

    def __init__(self, levels: tuple[int, ...]):
        self.levels, self.height = levels, max(levels)
        h = self.height
        self.deep = levels.count(h)
        # per level, what is not under a parent yet: codes, vertices, deepest ones
        done: list[list[bytes]] = [[] for _ in range(h + 2)]
        size, below, k2, ks = [0] * (h + 2), [0] * (h + 2), 0, 0
        for lev in reversed(levels):  # each vertex after its children
            kids, done[lev + 1] = done[lev + 1], []
            done[lev].append(_ahu(kids))
            s, k = size[lev + 1] + 1, below[lev + 1] + (lev == h)
            size[lev + 1] = below[lev + 1] = 0
            size[lev] += s
            below[lev] += k
            k2, ks = k2 + k * k, ks + k * s
        self.kids, self.code, self.k2, self.ks = kids, done[1][0], k2, ks
        self.cut = _branch(tuple(x for x in levels if x < h)) if h > 1 else None


# A summary depends on its slice alone, so each is made once per process.
_BRANCHES: dict[tuple[int, ...], _Branch] = {}


def _branch(levels: tuple[int, ...]) -> _Branch:
    got = _BRANCHES.get(levels)
    if got is None:
        got = _BRANCHES[levels] = _Branch(levels)
    return got


def _join(codes: list[bytes], second: int) -> bytes:
    """Tree code from its root's branch codes; branch second's root is the other center."""
    if second < 0:
        return _ahu(codes)
    return _pair(codes[second], _ahu(codes[:second] + codes[second + 1:]))


class _Rooted:
    """The batch path's tr.Walk: a level sequence rooted at a center, and
    what a peel step reads off its root's branches (_Branch).  If the two
    tallest branches reach level h, the root is the one center and S is
    level h.  Else the tallest, second, holds the other center at its root;
    S is its deepest level and level h elsewhere, h the next height.  So S
    meets a branch only at its deepest level (in_s), and each cluster of S
    is that of one branch, or of one side of the central edge.
    """

    __slots__ = ("n", "branches", "second", "in_s", "diam", "code")

    def __init__(self, seq):
        self.n = n = len(seq)
        starts = [i for i in range(1, n) if seq[i] == 1]
        self.branches = brs = [_branch(tuple(seq[a:b])) for a, b in zip(starts, starts[1:] + [n])]
        heights = [b.height for b in brs]
        top = max(heights, default=0)
        self.second = second = heights.index(top) if heights.count(top) == 1 else -1
        h = top - (second >= 0)
        self.in_s = [x == h or j == second for j, x in enumerate(heights)]
        self.diam = 2 * h + (second >= 0)
        self.code = _join([b.code for b in brs], second)

    def _left(self, keep) -> list[_Branch | None]:  # the branches left_code(keep) joins
        return [b if j in keep or not x else b.cut
                for j, (b, x) in enumerate(zip(self.branches, self.in_s))]

    def left_code(self, keep=()) -> bytes:
        """Code of the tree left by deleting S less the S vertices of keep
        (one group, or none): a join of branch codes (see tr.Walk.left_code)."""
        codes = [b.code if b else b"" for b in self._left(keep)]
        second = self.second
        if not keep:
            return _join(codes, second)
        if second < 0:
            return _join(codes, keep[0])
        if keep == [second]:
            rest = _join(codes[:second] + codes[second + 1:], -1)
            return _ahu(self.branches[second].kids + [rest])
        return _join(codes, -1)

    def left(self, keep=()) -> list[int]:
        """That tree's level sequence: the deleted entries dropped, and
        re-rooted when the root stops being a center."""
        parts = [b.levels if b else () for b in self._left(keep)]
        if self.second >= 0 and keep == [self.second]:
            top = parts.pop(self.second)
            return [0, *(x - 1 for x in top[1:]), 1, *(x + 1 for p in parts for x in p)]
        return [0, *(x for p in parts for x in p)]

    def pick(self, pairwise: bool) -> tuple[list[int], int, int, bytes | None]:
        """C*'s group as _pick_largest_cluster picks it, |S|, |C*|, and C*'s
        leftover code if a tie was ranked by it.  A full tie needs no label:
        its clusters leave isomorphic trees."""
        deep = [j for j, x in enumerate(self.in_s) if x]
        groups = ([[j] for j in deep] if self.second < 0 else
                  [[self.second], [j for j in deep if j != self.second]])
        sizes = [sum(self.branches[j].deep for j in g) for g in groups]
        big = max(sizes)
        lead = [g for g, z in zip(groups, sizes) if z == big]
        if len(lead) > 1:
            # distSum (tr.Walk.dist_sum) less what all clusters of size m
            # share.  Over the edges, each above s vertices and k members,
            # pairwise sums k(m - k) = mk - kk, global sums ms + k(n - 2s),
            # whose ms is shared; and a branch's sum of k is deep * height
            n, brs = self.n, self.branches
            sums = [sum(brs[j].deep * brs[j].height * (big if pairwise else n)
                        - (brs[j].k2 if pairwise else 2 * brs[j].ks) for j in g) for g in lead]
            lead = [g for g, ds in zip(lead, sums) if ds == min(sums)]
        if len(lead) == 1:
            return lead[0], sum(sizes), big, None
        code, keep = min((self.left_code(g), g) for g in lead)
        return keep, sum(sizes), big, code


def peel_sweep(
    seqs, *, dist_sum_mode: str = "global", strict_pseudocode: bool = False
) -> Iterator[tuple[list[int], bytes, tuple[HalfMoves, ...]]]:
    """(seq, code, values) for each level sequence of seqs, in order: the
    tree's canonical code, and per bound in BOUNDS order the value that
    delta_star or delta_prime would give it, without a trace.  Each seq is
    rooted at a center (enumeration._free_level_sequences and
    enumeration.level_sequence make them so).  This is the batch path of
    table1, table2 and verify; the per-tree engine (_peel) gives traces.

    Dynamic programming over isomorphism classes.  What a step charges is
    invariant, and C* is chosen by an invariant key whose full ties leave
    isomorphic trees, so value(T) = cost of T's first step +
    value(leftover), remembered under the canonical code.  Per tree that is
    one step, read off its root's branch summaries (_Rooted), and per
    deleted set a leftover code joined from branch codes.  Only a leftover
    not valued yet is built, as a level sequence; given every tree of each
    size in ascending order, that happens only below the smallest size.
    """
    if dist_sum_mode not in DIST_SUM_MODES:
        raise ValueError(f"unknown dist_sum mode {dist_sum_mode!r}")
    pairwise = dist_sum_mode == "pairwise"
    memo: dict[bytes, tuple[int, ...]] = {}

    def units(seq) -> tuple[bytes, tuple[int, ...]]:
        tree = _Rooted(seq)
        got = memo.get(tree.code)
        if got is None:
            if tree.diam <= 2:  # n <= 2 or K_{1,n-1}
                got = (star_bound(len(seq)).units,) * len(BOUNDS)
            else:
                keep, s, c, code = tree.pick(pairwise)
                # leftover code per deleted set (True: all of S), each joined
                # once; ranking a tie already joined the one of S - C*
                codes = {} if code is None else {False: code}
                got = []
                for i, rule in enumerate(BOUNDS.values()):
                    case, cost = _charge(rule, strict_pseudocode, s, c, tree.diam)
                    full = case == FULL_S
                    if full not in codes:
                        codes[full] = tree.left_code(() if full else keep)
                    left = memo.get(codes[full]) or units(tree.left(() if full else keep))[1]
                    got.append(cost + left[i])
                got = tuple(got)
            memo[tree.code] = got
        return tree.code, got

    def valued(seq):
        code, got = units(seq)
        return seq, code, tuple(map(HalfMoves, got))

    return map(valued, seqs)


def predicted_gap(d: int, baseline: str) -> HalfMoves:
    """Predicted excess of a baseline bound over the main bound on the full
    binary tree of depth d (m = 2^d leaves), exact in half-move units.

    v1: (m+1)/6 + 1 + 1/2 for odd d, (m+2)/6 + 1 for even d.
    v2: (m+1)/6 + sqrt(m/8) + 1/2 for odd d, (m+2)/6 + sqrt(m/4) for even d.
    """
    if d < 2:
        raise ValueError("gap formulas require depth d >= 2")
    if baseline not in ("v1", "v2"):
        raise ValueError(f"baseline must be 'v1' or 'v2', got {baseline!r}")
    m = 2 ** d
    if d % 2:
        assert (m + 1) % 3 == 0
        base = (m + 1) // 3  # 2*(m+1)/6 half-moves
        if baseline == "v1":
            units = base + 3
        else:
            root = isqrt(m // 8)
            assert root * root * 8 == m
            units = base + 2 * root + 1
    else:
        assert (m + 2) % 3 == 0
        base = (m + 2) // 3
        if baseline == "v1":
            units = base + 2
        else:
            root = isqrt(m // 4)
            assert root * root * 4 == m
            units = base + 2 * root
    return HalfMoves(units)
