"""The batch path of table1 and verify: level sequences in, whole moves out.

Free trees come as level sequences from the algorithm of Wright, Richmond,
Odlyzko & McKay, "Constant time generation of free trees" (SIAM J. Comput.
15, 1986), which walks the rooted-tree successor of Beyer & Hedetniemi
(1980) and jumps over every sequence that is not the canonical one of its
free tree.  peel_sweep values them with the peel engine (_Rooted, _charge:
exact, in half-move units); bounds runs it for a trace.  pinned_diameters
reads the oracle's exact diameters of all trees with n <= 11, keyed by the
engine's canonical code.  No other module of the package is imported here;
the package itself holds DIST_SUM_MODES and the exception base Error.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

from . import DIST_SUM_MODES, Error


class TreeSizeError(Error, ValueError):
    """Requested tree size is outside what the generator supports."""


def _successor(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi: the next rooted level sequence, None after the last.

    Position p is advanced; by default the last vertex above level 1.
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = seq[:p]
    for i in range(p, len(seq)):
        out.append(out[i - p + q])
    return out


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree with that subtree removed."""
    m = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    return [x - 1 for x in seq[1:m]], [0] + seq[m:]


def _free_level_sequences(n: int) -> Iterator[list[int]]:
    """Preorder level sequences of every free tree on n vertices, one per
    isomorphism class, each rooted at a center; n is checked on the call."""
    if not 1 <= n <= 16:
        raise TreeSizeError(f"supported range is 1 <= n <= 16, got {n}")
    return _wrom(n) if n > 1 else iter([[0]])


def _wrom(n: int) -> Iterator[list[int]]:
    # the generator of Wright, Richmond, Odlyzko and McKay, for n >= 2
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # centred path
    while seq is not None:
        left, rest = _split(seq)
        # canonical when the first subtree is no higher than the rest, then
        # no larger, then not lexicographically later
        if (max(left), len(left), left) > (max(rest), len(rest), rest):
            # jump: advance at the first subtree's last vertex p and, when
            # needed, make the tail a path one level higher than that subtree
            p = len(left)
            jumped = _successor(seq, p)
            if seq[p] > 2:
                height = max(_split(jumped)[0])
                jumped[-height - 1:] = range(1, height + 2)
            seq = jumped
        yield seq
        seq = _successor(seq)


# Case tags recorded per iteration.
STAR = "Star"
CASE1 = "Case1"
CASE2 = "Case2"
FULL_S = "FullSDeletion"

# Every bound, in report order: its CLI name -> the step rule it peels with
# (_charge).  The rule name is also its column in golden's tables.
BOUNDS = {"delta-star": "dstar", "delta-prime-v1": "v1", "delta-prime-v2": "v2"}


def _ahu(codes: list[bytes]) -> bytes:
    # AHU code of a rooted tree from its root's child codes
    return b"(" + b"".join(sorted(codes)) + b")"


def _pair(a: bytes, b: bytes) -> bytes:
    # code of a bicentered tree from its two sides' codes
    return a + b if a <= b else b + a


def _star(n: int) -> int:  # half-move units of a star K_{1,n-1}: floor(3(n-1)/2) moves
    return 3 * (n - 1) // 2 * 2


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
) -> Iterator[tuple[list[int], bytes, tuple[int, ...]]]:
    """(seq, code, values) for each level sequence of seqs, in order: the
    tree's canonical code, and per bound in BOUNDS order the whole moves
    bounds.delta_star or delta_prime would give it (a ValueError if not
    whole).  Each seq is rooted at a center (_free_level_sequences and
    tree.level_sequence make them so).  This is the batch path of
    table1, table2 and verify; bounds._peel runs the same step to the end.

    Dynamic programming over isomorphism classes.  What a step charges is
    invariant, and C* is chosen by an invariant key whose full ties leave
    isomorphic trees, so value(T) = cost of T's first step + value(leftover),
    remembered in half-move units under the canonical code.  Per tree that
    is one step, read off its root's branch summaries (_Rooted), and per
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
                got = (_star(len(seq)),) * len(BOUNDS)
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
        if any(u % 2 for u in got):  # a complete bound is whole, as HalfMoves.moves checks
            raise ValueError(f"{code.decode()}: {got} half moves are not all whole moves")
        return seq, code, tuple(u // 2 for u in got)

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
    with open(path, encoding="utf-8") as fh:  # ASCII data; utf-8 is always loaded
        for line in fh:
            if line[0] in heads:
                _, diameter, code = line.split()
                out[bin(int(code, 16))[2:].encode().translate(_PARENS)] = int(diameter)
    return out

