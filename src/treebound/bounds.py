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
# (_Step.charge).  The rule name is also its column in golden's tables.
BOUNDS = {"delta-star": "dstar", "delta-prime-v1": "v1", "delta-prime-v2": "v2"}


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


def _pick_largest_cluster(walk: tr.Walk, dist_sum_mode) -> tuple[list[int], bytes | None]:
    """C* among the clusters of S (walk.groups), as a member list: the first
    cluster in tr.clusters' order (size desc, distSum asc, canonical code of
    the tree C* would leave behind, least label).  Keys are lazy: distSum is
    summed only for the clusters tied with the leader on size, and the
    leftover's code (walk.left_code) read only for those tied on (size,
    distSum), since no other cluster can reach the front.  Returned with
    C*'s leftover code when a tie was ranked by it, else None.

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
        return lead[0], None
    labels = walk.tree.labels
    # clusters are disjoint, so the least labels differ and m is never compared
    code, _, c_star = min((walk.left_code(m), min(labels[v] for v in m), m) for m in lead)
    return c_star, code


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


class _Step:
    """The part of one non-star peel step that every bound shares.

    Everything comes from the walk of the tree entering the step: its
    diameter, the peripheral set S, the clusters of S and C* (see
    _pick_largest_cluster).  The bounds differ only in the charge: which
    vertices go and what they cost (charge, deleted), and so in the tree
    the step leaves, whose canonical code left_code reads off the same walk.
    """

    def __init__(self, walk: tr.Walk, dist_sum_mode: str):
        self.walk = walk
        self.c_star, code = _pick_largest_cluster(walk, dist_sum_mode)
        self.c_rest = [v for v in walk.s if v not in self.c_star]
        # leftover code per deleted set (True: all of S), each read once;
        # ranking a tie already read the one of S - C*
        self._codes = {} if code is None else {False: code}

    def charge(self, rule: str, strict_pseudocode: bool) -> tuple[str, int]:
        """(case, cost in half-move units) of this step under the step rule
        of one bound (a BOUNDS value); the baselines' rules ignore
        strict_pseudocode."""
        s, diam = self.walk.s, self.walk.diam
        x = len(self.c_rest)
        if rule != "dstar":
            # |S - C*| > (2/3)|S|  (v1)  /  >= (v2), kept in integers.
            if 3 * x + (rule == "v2") > 2 * len(s):
                return FULL_S, len(s) * (2 * diam - 1) - (len(s) % 2)
            # Baselines never pair up partial deletions: flat diameter each.
            return CASE1, 2 * x * diam
        c = len(self.c_star)
        if c * 2 >= len(s):
            return CASE1, 2 * x * diam
        # Deleting S - C* leaves depth h in C*'s branch (side) alone: diameter - 1.
        pair_diam = diam - 1 if strict_pseudocode else diam
        return CASE2, 2 * c * diam + (x - c) * (2 * pair_diam - 1) - ((x - c) % 2)

    def deleted(self, case: str) -> list[int]:
        return self.walk.s if case == FULL_S else self.c_rest

    def left_code(self, case: str) -> bytes:
        """Canonical code of the tree this step leaves when it deletes per `case`."""
        full = case == FULL_S
        if full not in self._codes:
            self._codes[full] = self.walk.left_code(() if full else self.c_star)
        return self._codes[full]

    def left(self, case: str) -> tr.Walk:
        """Build and walk the tree this step leaves when it deletes per `case`."""
        return tr.Walk(tr.delete_vertices(self.walk.tree, self.deleted(case)))


def _peel(t, rule, *, dist_sum_mode, strict_pseudocode):
    """Peel t down to a star under the step rule `rule` (a BOUNDS value),
    one step per iteration record.

    Each step walks its tree from the center once (tr.Walk) and derives the
    rest from that walk: the diameter, whether the tree is a star (diameter
    <= 2), the peripheral set S, its clusters, their distSums and the tree
    code.  Canonical tie keys are lazy (see _pick_largest_cluster).
    """
    # checked up front: a star input never reaches a distSum
    if dist_sum_mode not in tr.DIST_SUM_MODES:
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

        step = _Step(walk, dist_sum_mode)
        case, units = step.charge(rule, strict_pseudocode)
        records.append(
            IterationRecord(
                tree_code=walk.code,
                n=t.n,
                diameter=walk.diam,
                s_size=len(walk.s),
                cluster_sizes=tuple(sorted(map(len, walk.groups), reverse=True)),
                case=case,
                deleted_labels=tuple(sorted(t.labels[v] for v in step.deleted(case))),
                cost=HalfMoves(units),
            )
        )
        total += units
        walk = step.left(case)

    return HalfMoves(total), BoundTrace(records=tuple(records), total=HalfMoves(total))


def peel_sweep(
    trees, *, dist_sum_mode: str = "global", strict_pseudocode: bool = False
) -> Iterator[tuple[tr.Tree, tuple[HalfMoves, ...]]]:
    """(tree, values) for each tree of the iterable trees, yielded in order
    as it is valued: one value per bound, in BOUNDS order, each the value
    delta_star(t, dist_sum_mode=..., strict_pseudocode=...) or
    delta_prime(t, variant, dist_sum_mode=...) would return, without
    traces.  This is the batch valuation path: table1, table2 and verify
    take their values from it, and the per-tree engine (_peel) runs only
    where a trace is wanted.

    Dynamic programming over isomorphism classes.  A bound's value depends
    only on the isomorphism class of its tree: what a step charges (the
    diameter, |S|, |C*|, the leftover's diameter) is invariant, and C* is
    chosen by an invariant key whose full ties leave isomorphic trees.  So
    value(T) = cost of T's first step + value(leftover), remembered under
    the canonical code.  Per tree that is one walk from the center, one step
    shared by every bound, and per distinct deleted set the leftover's
    code, read off the same walk (Walk.left_code).  Only a leftover not
    valued yet is built, walked and valued; given every tree of each size
    in ascending order, that happens only below the smallest size.
    """
    if dist_sum_mode not in tr.DIST_SUM_MODES:
        raise ValueError(f"unknown dist_sum mode {dist_sum_mode!r}")
    memo: dict[bytes, tuple[int, ...]] = {}

    def units(walk: tr.Walk) -> tuple[int, ...]:
        got = memo.get(walk.code)
        if got is None:
            if walk.diam <= 2:  # n <= 2 or K_{1,n-1}
                got = (star_bound(walk.tree.n).units,) * len(BOUNDS)
            else:
                step = _Step(walk, dist_sum_mode)
                got = []
                for i, rule in enumerate(BOUNDS.values()):
                    case, cost = step.charge(rule, strict_pseudocode)
                    left = memo.get(step.left_code(case)) or units(step.left(case))
                    got.append(cost + left[i])
                got = tuple(got)
            memo[walk.code] = got
        return got

    return ((t, tuple(map(HalfMoves, units(tr.Walk(t))))) for t in trees)


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
