"""Upper bounds on the Cayley-graph diameter of a transposition tree.

The main bound peels the peripheral set of the tree iteratively, charging
each deleted vertex either the full current diameter or the cheaper paired
cost (diameter minus a half move), depending on how the largest cluster
compares to the rest.  All arithmetic is exact, in integer half-move units;
no floating point enters any bound.

The typed, traced API: each bound with its iteration records, on the peel
engine of batch, whose peel_sweep values trees without this module.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from . import batch  # read as batch._Rooted: a test's substitute reaches both drivers
from .batch import DIST_SUM_MODES, FULL_S, STAR
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
    return HalfMoves(batch._star(n))


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


def _peel(t, rule, *, dist_sum_mode, strict_pseudocode):
    """Peel t down to a star under the step rule `rule` (a BOUNDS value),
    one step per iteration record.

    Each step is batch.peel_sweep's (_Rooted, _charge), run on t's level
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
        tree = batch._Rooted(seq)
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
        case, units = batch._charge(rule, strict_pseudocode, sum(sizes), max(sizes), tree.diam)
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
