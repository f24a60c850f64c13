"""Upper bounds on the diameter of Cayley graphs generated by transposition
trees, with an exact BFS oracle for small n, free-tree enumeration, and a
batch experiment CLI."""

from .bounds import (
    BoundTrace,
    HalfMoves,
    IterationRecord,
    TreeClassSpec,
    UnsupportedClassError,
    closed_form_diameter,
    delta_prime,
    delta_star,
    predicted_gap,
    star_bound,
)
from .enumeration import (
    MalformedGraph6Error,
    encode_graph6,
    enumerate_free_trees,
    parse_graph6,
)
from .oracle import (
    DEFAULT_CAP,
    MAX_CAP,
    NotGeneratingError,
    Permutation,
    PermRank,
    TooLargeError,
    apply_move,
    cayley_diameter,
    depth_profile,
    format_permutation,
    identity,
    parse_permutation,
    profile_csv,
    rank,
    sort_distance,
    unrank,
)
from .tree import (
    BadLabelError,
    CenterInfo,
    Cluster,
    DistanceTable,
    DuplicateEdgeError,
    EmptyResultError,
    NonCliqueComponentError,
    NonLeafDeletionError,
    NotATreeError,
    Tree,
    TreeError,
    bfs_distances,
    build_tree,
    canonical_code,
    center,
    clusters,
    delete_vertices,
    diameter,
    eccentricities,
    format_edge_list,
    is_star,
    make_full_binary,
    make_matchstick,
    make_path,
    make_spider,
    make_star,
    parse_edge_list,
    peripheral_set,
    relabel,
)

__version__ = "0.1.0"
