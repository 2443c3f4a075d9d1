"""Feasible edge-replacement groups of labeled graphs.

A graph G on a label set X is a *local amoeba* when the group Fer(G)
generated by its feasible edge-replacement permutations is all of Sym(X),
and a *global amoeba* when G plus an isolated vertex is a local amoeba.
This package computes Fer groups exactly, classifies graphs, builds comb
products and named families, and cross-checks everything against
brute-force oracles.
"""

from .classify import (
    ClassificationReport,
    PreconditionError,
    check_big_corollary,
    check_fixed_wreath_embedding,
    check_global_transitive,
    check_hang_correspondence,
    check_theorem3,
    check_wreath_embedding,
    classify_graph,
    find_skew,
    has_root_similar_vertex,
    is_global_amoeba,
    is_hang_symmetric,
    is_local_amoeba,
    is_stem_symmetric,
    is_stem_transitive,
    pair_blocks,
)
from .construct import (
    comb_product,
    dagger,
    example,
    family,
    flatten_labels,
    fresh_label,
    glue,
    star,
)
from .fer import (
    EdgeReplacement,
    apply_replacement,
    feasible_replacements,
    fer_coset,
    fer_fixed_group,
    fer_group,
    generating_set,
    hang_group,
)
from .lgraph import (
    FormatError,
    GraphError,
    LabeledGraph,
    are_isomorphic,
    automorphism_generators,
    automorphism_group,
    disjoint_union,
    embed,
    first_isomorphism,
    from_json,
    label_isomorphisms,
    relabel,
    to_dot,
    to_json,
)
from .oracle import (
    ReachabilitySet,
    SizeGuardError,
    brute_automorphisms,
    brute_coset,
    corpus,
    reachability,
)
from .permgroup import (
    Permutation,
    PermutationError,
    PermutationGroup,
    compose,
    cycle_notation,
    group_from_generators,
    is_block_system,
    is_symmetric,
    is_transitive,
    minimal_block_system,
    parse_cycles,
    preserves_partition,
    symmetric_group,
    wreath_product,
)
