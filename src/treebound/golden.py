"""Embedded reference tables for the two experiments.

Values are reproduced verbatim from the published record.  Each row keeps
its source tag so reports can cite per-cell provenance.  Rows that the
record itself cannot support are flagged: the cumulative row for n = 15 is
inconsistent with the tree-count growth (its per-tree mean falls below the
n = 10 mean), and computation shows the n = 13 row breaks the recorded
sequence's own growth trend, so both are carried as reference data and
reported, never treated as gates here.  predicted_gap is the closed form
that table2 checks the binary table's recorded gaps against.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple


class GoldenRow(NamedTuple):
    values: dict[str, int]    # column name -> recorded value
    source: str
    suspect: bool = False


# Cumulative bounds over all free trees on n vertices.
CUMULATIVE = {
    6: GoldenRow({"v1": 63, "v2": 63, "dstar": 63}, "cumulative-table"),
    7: GoldenRow({"v1": 154, "v2": 153, "dstar": 153}, "cumulative-table"),
    8: GoldenRow({"v1": 409, "v2": 407, "dstar": 407}, "cumulative-table"),
    9: GoldenRow({"v1": 1032, "v2": 1028, "dstar": 1027}, "cumulative-table"),
    10: GoldenRow({"v1": 2819, "v2": 2809, "dstar": 2805}, "cumulative-table"),
    11: GoldenRow({"v1": 7401, "v2": 7376, "dstar": 7361}, "cumulative-table"),
    12: GoldenRow({"v1": 20277, "v2": 20222, "dstar": 20175}, "cumulative-table"),
    13: GoldenRow({"v1": 50032, "v2": 49931, "dstar": 49820}, "cumulative-table",
                  suspect=True),
    14: GoldenRow({"v1": 152585, "v2": 152285, "dstar": 151855}, "cumulative-table"),
    15: GoldenRow({"v1": 212841, "v2": 212532, "dstar": 212217}, "cumulative-table",
                  suspect=True),
}

# Full binary tree of depth d (2^(d+1) - 1 vertices, 2^d leaves): recorded bounds.
BINARY = {
    1: GoldenRow({"v1": 3, "v2": 3, "dstar": 3}, "binary-table"),
    2: GoldenRow({"v1": 17, "v2": 17, "dstar": 15}, "binary-table"),
    3: GoldenRow({"v1": 58, "v2": 58, "dstar": 55}, "binary-table"),
    4: GoldenRow({"v1": 171, "v2": 172, "dstar": 167}, "binary-table"),
    5: GoldenRow({"v1": 460, "v2": 461, "dstar": 453}, "binary-table"),
    6: GoldenRow({"v1": 1165, "v2": 1168, "dstar": 1153}, "binary-table"),
    7: GoldenRow({"v1": 2830, "v2": 2833, "dstar": 2807}, "binary-table"),
}

# Free-tree isomorphism-class counts (independent combinatorial record).
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


def recorded_gap(d: int, variant: str) -> int:
    """Recorded baseline-minus-main difference from the binary table."""
    row = BINARY[d]
    return row.values[variant] - row.values["dstar"]


def predicted_gap(d: int, baseline: str) -> int:
    """Predicted excess, in whole moves, of a baseline bound over the main
    bound on the full binary tree of depth d (m = 2^d leaves), computed
    exactly in half-move units; table2 checks it against recorded_gap.

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
    # (m+1)/3 is odd for odd d and (m+2)/3 even for even d, so units is even
    assert units % 2 == 0
    return units // 2
