"""Upper bounds on the diameter of Cayley graphs generated by transposition
trees, with an exact BFS oracle for small n, free-tree enumeration, and a
batch experiment CLI."""

# The cluster tie-break keys (batch._Rooted.pick, tree.clusters, --distsum).
# They live here, the one module every run loads, so the parser reads them
# without loading batch.
DIST_SUM_MODES = ("global", "pairwise")
