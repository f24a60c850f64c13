"""Tree enumeration counts and the graph6 codec."""

import hashlib
import random

import networkx as nx
import pytest

from treebound import batch
from treebound import enumeration as en
from treebound import golden
from treebound import tree as tr
from conftest import prufer_tree


# ---------------------------------------------------------------------------
# counts

def test_stream_counts(all_trees):
    for n in range(1, 11):
        trees = en.enumerate_free_trees(n)
        assert len(trees) == golden.TREE_COUNTS[n]
        assert sum(1 for _ in trees) == golden.TREE_COUNTS[n]


def test_stream_range_check():
    with pytest.raises(ValueError):
        en.enumerate_free_trees(0)
    with pytest.raises(ValueError):
        en.enumerate_free_trees(17)


def _root_branch_heights(seq):
    # the height of each subtree of the root, tallest first
    starts = [i for i, level in enumerate(seq) if level == 1] + [len(seq)]
    return sorted((max(seq[a:b]) for a, b in zip(starts, starts[1:])), reverse=True)


def test_level_sequences_are_rooted_at_a_center():
    # batch.peel_sweep reads the centers off the root's branches: the root
    # is a center iff its two tallest branches differ in height by at most
    # one, and when they differ the taller one's root is the other center
    assert list(batch._free_level_sequences(1)) == [[0]]
    assert list(batch._free_level_sequences(2)) == [[0, 1]]
    for n in (0, 17):  # checked on the call, before any sequence is made
        with pytest.raises(batch.TreeSizeError):
            batch._free_level_sequences(n)
    for n in range(1, 15):
        seqs = list(batch._free_level_sequences(n))
        assert len(seqs) == golden.TREE_COUNTS[n]
        for seq in seqs:
            heights = _root_branch_heights(seq) + [0, 0]
            assert seq[0] == 0 and heights[0] - heights[1] <= 1, seq
            if n > 12:
                continue
            ecc = tr.eccentricities(tr._from_level_sequence(seq))
            centers = [v for v in range(n) if ecc[v] == min(ecc)]
            if heights[0] == heights[1]:
                assert centers == [0], seq
            else:  # the root of the branch that holds the top level
                top = seq.index(heights[0])
                assert centers == [0, max(i for i in range(top + 1) if seq[i] == 1)], seq


def _check_level_sequence(t):
    seq, labels = tr.level_sequence(t)
    again = tr._from_level_sequence(seq)  # entry i is labelled i + 1
    assert tr.canonical_code(again) == tr.canonical_code(t)
    heights = _root_branch_heights(seq) + [0, 0]
    assert heights[0] - heights[1] <= 1, seq
    ecc = tr.eccentricities(t)  # the root is the first vertex of least eccentricity
    assert labels[0] == t.labels[ecc.index(min(ecc))]
    # entry i is the vertex labelled labels[i]: the labelled edges agree
    assert sorted(labels) == sorted(t.labels)
    assert ({frozenset((labels[a - 1], labels[b - 1])) for a, b in again.label_edges()}
            == {frozenset(e) for e in t.label_edges()})


def test_level_sequence_of_a_tree(all_trees):
    # the one conversion of a tr.Tree, rooted at its first center
    for n in range(1, 10):
        for t in all_trees(n):
            _check_level_sequence(t)
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(1, 40)
        t = prufer_tree(n, rng)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        _check_level_sequence(tr.Tree(n=t.n, adj=t.adj, labels=tuple(labels)))


def test_level_sequence_of_a_deep_tree():
    # no recursion per level: a path far deeper than the recursion limit
    seq, labels = tr.level_sequence(tr.make_path(2100))
    assert seq == [0, *range(1, 1050), *range(1, 1051)]
    assert labels == [*range(1050, 0, -1), *range(1051, 2101)]


def test_counts_match_otter_recurrence():
    # independent re-derivation: rooted-tree counts by Euler transform,
    # free-tree counts by Otter's formula t(n) = r(n) - (sum of products
    # of rooted counts over unordered pairs) + (even-n correction)
    N = 16
    r = [0] * (N + 1)  # rooted trees on n vertices
    r[1] = 1
    for n in range(2, N + 1):
        total = 0
        for k in range(1, n):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k]
        r[n] = total // (n - 1)
    for n in range(1, N + 1):
        pair_sum = sum(r[i] * r[n - i] for i in range(1, n // 2 + 1 - (n % 2 == 0)))
        free = r[n] - pair_sum
        if n % 2 == 0:
            half = r[n // 2]
            free -= half * (half - 1) // 2
        assert free == golden.TREE_COUNTS[n], f"n={n}"


def test_all_prufer_trees_are_enumerated(all_trees):
    # brute force over every labeled tree: its isomorphism class must
    # appear exactly once in the enumeration
    for n in range(3, 8):
        codes = {tr.canonical_code(t) for t in all_trees(n)}
        seen = set()
        for idx in range(n ** (n - 2)):
            seq, x = [], idx
            for _ in range(n - 2):
                seq.append(x % n + 1)
                x //= n
            seen.add(tr.canonical_code(_tree_from_prufer(n, seq)))
        assert seen == codes


def _tree_from_prufer(n: int, seq) -> tr.Tree:
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tr.build_tree(n, edges)


def test_random_trees_hit_known_classes(all_trees):
    rng = random.Random(99)
    for n in (8, 9):
        codes = {tr.canonical_code(t) for t in all_trees(n)}
        for _ in range(2000):
            assert tr.canonical_code(prufer_tree(n, rng)) in codes


# sha256 of `treebound enumerate --n k` stdout: every graph6 line, each
# ending in a newline.  Pins the labelled representative of every class
# and the emission order, whatever generator produces them.
ENUMERATE_DIGESTS = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "881159da90c6f28631b6a3eafd6d6d13cda0d0e4cc09d828374719d272f3da34",
    4: "05d413031ea89bce8435a57103213f9eb735dfef1578231805d3296c4511b4b7",
    5: "efbe3b801f35b4c4f66df55ae8963debe14476e9c341979151f48c1f1625d4a5",
    6: "09ee6fec194bccb7a8ca7da81948cdd424301628d6ee1e2960d187af3ca16b69",
    7: "da0e641acc280eedcf998c8f94e86c5436a264230a21f25e034fca32b768c186",
    8: "5b8d19c6038e44daffd09bacec412da1a05a4450f2b97362fa941f7fb2067427",
    9: "0be20f37e5d000b010cb0ce5394eb8ad5a28430b31b43f20c1496f37639ef930",
    10: "b9c2f82cc9c2b4b44bc53a2df38d1812d2bad682cfa5e4ebd2b6076ac1fbab74",
    11: "0f62e25c4f5797fd7d6b371c32a98a472d307ed3205c62d3e82b27878550e7db",
    12: "e0d87a5a408a64f21c86803964d575f2007a5d331d6156c30a2c17f78295e259",
    13: "6e5dc1973d1480c6b40e4538d74619bf6120c11408b85173088b703d9d16e7a1",
    14: "7eed0f76885dc25bd3d2ae688abb2091d648c84732ef8843a625a86bbf627a03",
    15: "d85b290316e53560e44ae027fc161be71c0a85533369241cf291be27e0a66478",
    16: "e0c6643c9f4987abcc62006d73e6421469af1364e2c4f5e11ff184be43697b9a",
}


@pytest.mark.parametrize("n", sorted(ENUMERATE_DIGESTS))
def test_enumeration_output_digest(all_trees, n):
    text = "".join(en.encode_graph6(t) + "\n" for t in all_trees(n))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == ENUMERATE_DIGESTS[n]


def test_enumeration_codes_distinct_up_to_12():
    for n in (11, 12):
        codes = [tr.canonical_code(t) for t in en.enumerate_free_trees(n)]
        assert len(set(codes)) == golden.TREE_COUNTS[n]
        assert codes == sorted(codes), "emission is canonical-code ordered"


# ---------------------------------------------------------------------------
# graph6 encoding

def test_encode_path3():
    assert en.encode_graph6(tr.make_path(3)) == "Bg"


def test_encode_refuses_a_tree_past_the_short_form():
    # one header byte, 63 + n, must stay printable: n <= 62
    with pytest.raises(en.MalformedGraph6Error):
        en.encode_graph6(tr.make_path(63))


def test_parse_path3():
    t = en.parse_graph6("Bg")
    assert t.n == 3 and sorted(t.label_edges()) == [(1, 2), (2, 3)]


def test_parse_header_tolerated():
    assert en.parse_graph6(">>graph6<<Bg").n == 3


def test_parse_triangle_rejected():
    with pytest.raises(tr.NotATreeError):
        en.parse_graph6("Bw")


def test_roundtrip_byte_exact(all_trees):
    for n in range(1, 11):
        for t in all_trees(n):
            line = en.encode_graph6(t)
            again = en.parse_graph6(line)
            assert en.encode_graph6(again) == line
            assert tr.canonical_code(again) == tr.canonical_code(t)


def test_encoding_matches_networkx(all_trees):
    for n in range(2, 10):
        for t in all_trees(n):
            g = nx.Graph()
            g.add_nodes_from(range(t.n))
            g.add_edges_from(t.edges())
            want = nx.to_graph6_bytes(g, header=False).decode().strip()
            assert en.encode_graph6(t) == want


def test_malformed_inputs():
    cases = [
        "",  # empty
        "B!",  # character outside the alphabet
        "~~~B",  # long form marker
        "B",  # missing body
        "Bgg",  # body too long
        "Bh",  # nonzero padding bits
        ":Bg",  # sparse6
        ";Bg",  # incremental sparse6
        "&Bg",  # digraph6
    ]
    for line in cases:
        with pytest.raises(en.MalformedGraph6Error):
            en.parse_graph6(line)


def test_empty_graph_rejected():
    with pytest.raises(tr.NotATreeError):
        en.parse_graph6("?")


def test_disconnected_rejected():
    # two vertices, no edge
    with pytest.raises(tr.NotATreeError):
        en.parse_graph6("A?")
