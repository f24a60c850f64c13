"""Upper bounds on the Cayley-graph diameter of a transposition tree.

The main bound peels the peripheral set of the tree iteratively, charging
each deleted vertex either the full current diameter or the cheaper paired
cost (diameter minus a half move), depending on how the largest cluster
compares to the rest.  All arithmetic is exact, in integer half-move units;
no floating point enters any bound.

pinned_diameters reads the exact diameters of all trees with n <= 11, which
the oracle's BFS computed once, keyed by the peel engine's canonical code.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .enumeration import level_sequence

if TYPE_CHECKING:
    from . import tree as tr


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
        return str(self.units // 2) if self.units % 2 == 0 else f"{self.units // 2}.5"

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

# The cluster tie-break keys (_Rooted.pick, tr.clusters) live here, not in
# tree.py, which imports them: peel_sweep never loads tree.
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
    baselines' rules ignore strict_pseudocode."""
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

    Each step is peel_sweep's (_Rooted, _charge), run on t's level
    sequence with each entry's label carried along.  The labels pick C*
    among the clusters tied on its whole key, whose leftovers are
    isomorphic: the one holding the least label.  They name the deleted
    vertices, and follow the entries into the leftover's sequence.
    """
    # checked up front: a star input never reaches a distSum
    if dist_sum_mode not in DIST_SUM_MODES:
        raise ValueError(f"unknown dist_sum mode {dist_sum_mode!r}")
    pairwise = dist_sum_mode == "pairwise"
    seq, labels = level_sequence(t)
    records = []
    while True:
        tree = _Rooted(seq)
        if records and tree.diam >= records[-1].diameter:
            raise AssertionError("peeling failed to terminate")
        if tree.diam <= 2:  # n <= 2 or K_{1,n-1}
            records.append(IterationRecord(tree.code, tree.n, tree.diam, 0, (), STAR, (),
                                           star_bound(tree.n)))
            break
        tied, sizes, _ = tree.pick(pairwise)
        starts, brs = tree.starts, tree.branches
        # C*: the tied group whose S entries hold the least label (clusters
        # are disjoint, so labels differ and no two groups are compared)
        keep = min((labels[i], g) for g in tied for j in g
                   for i in range(starts[j], starts[j + 1]) if seq[i] == brs[j].height)[1]
        case, units = _charge(rule, strict_pseudocode, sum(sizes), max(sizes), tree.diam)
        seq, kept = tree.left(() if case == FULL_S else keep)
        gone = set(range(tree.n)).difference(kept)
        records.append(
            IterationRecord(
                tree_code=tree.code,
                n=tree.n,
                diameter=tree.diam,
                s_size=sum(sizes),
                cluster_sizes=tuple(sorted(sizes, reverse=True)),
                case=case,
                deleted_labels=tuple(sorted(labels[i] for i in gone)),
                cost=HalfMoves(units),
            )
        )
        labels = [labels[i] for i in kept]

    total = HalfMoves(sum(r.cost.units for r in records))
    return total, BoundTrace(records=tuple(records), total=total)


class _Branch:
    """One branch of a center-rooted level sequence: the subtree under one
    child of the root, as its slice of levels (that child at level 1).  A
    peel step reads off it its AHU code and height, the size of its deepest
    level (deep; S reaches no other), its root's child codes (kids), the
    code of the branch less its deepest level (cut_code; empty if that is
    all of it), and over the edges up from its vertices, with s vertices
    and k deepest ones below each, the sums of k * k (k2) and of k * s
    (ks).  One pass up the slice, with no recursion, however tall."""

    __slots__ = ("code", "height", "deep", "kids", "cut_code", "k2", "ks")

    def __init__(self, levels: tuple[int, ...]):
        self.height = h = max(levels)
        self.deep = levels.count(h)
        # per level, what is not under a parent yet: codes, the same with
        # level h left out, vertices, deepest ones
        done: list[list[bytes]] = [[] for _ in range(h + 2)]
        cut: list[list[bytes]] = [[] for _ in range(h + 2)]
        size, below, k2, ks = [0] * (h + 2), [0] * (h + 2), 0, 0
        for lev in reversed(levels):  # each vertex after its children
            kids, done[lev + 1] = done[lev + 1], []
            done[lev].append(_ahu(kids))
            if lev < h:
                cut[lev].append(_ahu(cut[lev + 1]))
                cut[lev + 1] = []
            s, k = size[lev + 1] + 1, below[lev + 1] + (lev == h)
            size[lev + 1] = below[lev + 1] = 0
            size[lev] += s
            below[lev] += k
            k2, ks = k2 + k * k, ks + k * s
        self.kids, self.code, self.k2, self.ks = kids, done[1][0], k2, ks
        self.cut_code = cut[1][0] if h > 1 else b""


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
    """A level sequence rooted at a center, and what a peel step reads off
    its root's branches (_Branch), branch j being seq[starts[j]:starts[j +
    1]].  If the two tallest branches reach level h, the root is the one
    center and S is level h.  Else the tallest, second, holds the other
    center at its root; S is its deepest level and level h elsewhere, h the
    next height.  So S meets a branch only at its deepest level (in_s), and
    each cluster of S is that of one branch, or of one side of the central
    edge.
    """

    __slots__ = ("seq", "n", "starts", "branches", "second", "in_s", "diam", "code")

    def __init__(self, seq):
        self.seq, self.n = seq, (n := len(seq))
        self.starts = starts = [i for i in range(1, n) if seq[i] == 1]
        starts.append(n)
        self.branches = brs = [_branch(tuple(seq[a:b])) for a, b in zip(starts, starts[1:])]
        heights = [b.height for b in brs]
        top = max(heights, default=0)
        self.second = second = heights.index(top) if heights.count(top) == 1 else -1
        h = top - (second >= 0)
        self.in_s = [x == h or j == second for j, x in enumerate(heights)]
        self.diam = 2 * h + (second >= 0)
        self.code = _join([b.code for b in brs], second)

    def left_code(self, keep=()) -> bytes:
        """Code of the tree left by deleting S less the S vertices of keep
        (one group, or none): a join of branch codes and their cuts.
        Keeping a group keeps h in its branch (side) alone, so one center
        becomes the central edge into that branch, and of two centers the
        group's one becomes the center."""
        codes = [b.code if j in keep or not x else b.cut_code
                 for j, (b, x) in enumerate(zip(self.branches, self.in_s))]
        second = self.second
        if not keep:
            return _join(codes, second)
        if second < 0:
            return _join(codes, keep[0])
        if keep == [second]:
            rest = _join(codes[:second] + codes[second + 1:], -1)
            return _ahu(self.branches[second].kids + [rest])
        return _join(codes, -1)

    def left(self, keep=()) -> tuple[list[int], list[int]]:
        """That tree's level sequence, and the position here of each of its
        entries: the deleted entries dropped, and re-rooted when the root
        stops being a center."""
        seq, starts = self.seq, self.starts
        # a branch keeps the levels below height + 1, or height where S is cut
        parts = [[i for i in range(starts[j], starts[j + 1])
                  if seq[i] < b.height + (j in keep or not x)]
                 for j, (b, x) in enumerate(zip(self.branches, self.in_s))]
        if self.second >= 0 and keep == [self.second]:
            top = parts.pop(self.second)
            kept = top + [0, *(i for p in parts for i in p)]
            return [seq[i] - 1 for i in top] + [seq[i] + 1 for i in kept[len(top):]], kept
        kept = [0, *(i for p in parts for i in p)]
        return [seq[i] for i in kept], kept

    def pick(self, pairwise: bool) -> tuple[list[list[int]], list[int], bytes | None]:
        """The groups of S (lists of branches) tied for C*, ascending, the
        size of every group, and the tied groups' leftover code if a tie
        was ranked by it.  Clusters rank by size desc, distSum asc and the
        canonical code of the tree they leave (tr.clusters' order, less its
        least label): the groups left are tied on all of it, so they leave
        isomorphic trees and any of them gives the same values."""
        deep = [j for j, x in enumerate(self.in_s) if x]
        groups = ([[j] for j in deep] if self.second < 0 else
                  [[self.second], [j for j in deep if j != self.second]])
        sizes = [sum(self.branches[j].deep for j in g) for g in groups]
        big = max(sizes)
        lead = [g for g, z in zip(groups, sizes) if z == big]
        if len(lead) > 1:
            # distSum less what all clusters of size m share.  Over the
            # edges, each above s vertices and k members, pairwise sums
            # k(m - k) = mk - kk, global sums k(n - s) + (m - k)s =
            # ms + k(n - 2s), whose ms is shared; a branch's sum of k is
            # deep * height
            n, brs = self.n, self.branches
            sums = [sum(brs[j].deep * brs[j].height * (big if pairwise else n)
                        - (brs[j].k2 if pairwise else 2 * brs[j].ks) for j in g) for g in lead]
            lead = [g for g, ds in zip(lead, sums) if ds == min(sums)]
        if len(lead) == 1:
            return lead, sizes, None
        codes = [self.left_code(g) for g in lead]
        code = min(codes)
        return sorted(g for g, c in zip(lead, codes) if c == code), sizes, code


def peel_sweep(
    seqs, *, dist_sum_mode: str = "global", strict_pseudocode: bool = False
) -> Iterator[tuple[list[int], bytes, tuple[HalfMoves, ...]]]:
    """(seq, code, values) for each level sequence of seqs, in order: the
    tree's canonical code, and per bound in BOUNDS order the value that
    delta_star or delta_prime would give it, without a trace.  Each seq is
    rooted at a center (enumeration._free_level_sequences and
    enumeration.level_sequence make them so).  This is the batch path of
    table1, table2 and verify; delta_star and delta_prime (_peel) run the
    same step to the end, for a trace.

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
                tied, sizes, code = tree.pick(pairwise)
                keep, s, c = tied[0], sum(sizes), max(sizes)
                # leftover code per deleted set (True: all of S), each joined
                # once; ranking a tie already joined the one of S - C*
                codes = {} if code is None else {False: code}
                got = []
                for i, rule in enumerate(BOUNDS.values()):
                    case, cost = _charge(rule, strict_pseudocode, s, c, tree.diam)
                    full = case == FULL_S
                    if full not in codes:
                        codes[full] = tree.left_code(() if full else keep)
                    left = memo.get(codes[full]) or units(tree.left(() if full else keep)[0])[1]
                    got.append(cost + left[i])
                got = tuple(got)
            memo[tree.code] = got
        return tree.code, got

    def valued(seq):
        code, got = units(seq)
        return seq, code, tuple(map(HalfMoves, got))

    return map(valued, seqs)


_PARENS = bytes.maketrans(b"10", b"()")  # a pinned code's bits back to parentheses


def pinned_diameters(sizes) -> dict[bytes, int]:
    """Pinned exact diameters of every free tree whose size is in `sizes`,
    keyed by canonical code (_Rooted's); only n <= 11 is pinned, so larger
    sizes have none.  Only the lines of the requested sizes are decoded: a
    graph6 line's first character encodes its tree's size.  A line is
    "<graph6> <diameter> <code>", the code in hex of its parenthesis bits,
    "(" = 1 and ")" = 0; it starts with "(", so the bits come back whole
    from the number."""
    heads = {chr(63 + n) for n in sizes}
    out = {}
    path = os.path.join(os.path.dirname(__file__), "exact_diameters.txt")
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line[0] in heads:
                _, diameter, code = line.split()
                out[bin(int(code, 16))[2:].encode().translate(_PARENS)] = int(diameter)
    return out


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
