"""Brute-force oracle tests, and the oracle-vs-engine agreement sweeps.

The oracle filters all n! permutations and BFS-walks labeled copies, so it
shares no code path with the Sims-table engine; agreement here is what
lets the frozen orders elsewhere in the suite stand on two legs.
"""

import ast
import inspect
import math
from collections import deque
from itertools import islice
from itertools import permutations as all_orderings

import pytest

from amoebagraph import (
    EdgeReplacement,
    GraphError,
    LabeledGraph,
    Permutation,
    SizeGuardError,
    are_isomorphic,
    automorphism_group,
    brute_automorphisms,
    brute_coset,
    corpus,
    disjoint_union,
    family,
    feasible_replacements,
    fer_coset,
    fer_group,
    is_local_amoeba,
    reachability,
    relabel,
)
from amoebagraph import oracle
from amoebagraph.lgraph import _canonical_edge, _edge_key

K3_PLUS_K1 = LabeledGraph(("1", "2", "3", "4"), (("1", "2"), ("1", "3"), ("2", "3")))


# ------------------------------------------------------------- brute vs engine


def assert_same_members(listed, group):
    """A list of distinct members of group, as long as its order, is all of it."""
    assert len(set(listed)) == len(listed) == group.order
    assert all(p in group for p in listed)


def test_brute_automorphisms_agree_with_the_engine_up_to_five_labels():
    for n in (1, 2, 3, 4, 5):
        for g in corpus(n):
            assert_same_members(brute_automorphisms(g), automorphism_group(g))


def test_brute_automorphisms_agree_on_a_six_label_spot_check():
    mixed_components = disjoint_union(
        K3_PLUS_K1, relabel(family("path", 2), {"1": "5", "2": "6"})
    )
    for g in (family("path", 6), mixed_components):
        assert_same_members(brute_automorphisms(g), automorphism_group(g))


def test_brute_cosets_agree_with_the_engine_up_to_five_labels():
    """Every (edge, non-edge) swap, feasible or not, and the neutral one."""
    for n in (2, 3, 4, 5):
        for g in corpus(n):
            swaps = [EdgeReplacement(e, f) for e in g.edges for f in g.non_edges()]
            for r in (EdgeReplacement(), *swaps):
                assert set(brute_coset(g, r)) == set(fer_coset(g, r))
            feasible = [r for r in swaps if fer_coset(g, r)]
            assert feasible == list(feasible_replacements(g)[1:])


def test_brute_cosets_agree_on_sampled_six_label_graphs():
    # every tenth class keeps this sweep under a second; the n<=5 run is full
    for g in islice(corpus(6), 0, None, 10):
        for r in feasible_replacements(g):
            assert set(brute_coset(g, r)) == set(fer_coset(g, r))


def test_brute_coset_of_the_neutral_replacement_is_the_automorphism_filter():
    for g in corpus(4):
        assert set(brute_coset(g, EdgeReplacement())) == set(brute_automorphisms(g))


def test_brute_coset_of_an_infeasible_replacement_is_empty():
    p4 = family("path", 4)
    assert brute_coset(p4, EdgeReplacement(("1", "2"), ("1", "3"))) == []


@pytest.mark.parametrize("coset", [brute_coset, fer_coset])
def test_a_replacement_that_cannot_be_applied_raises_on_both_routes(coset):
    """In P3 the edge 13 is absent and 12, 23 present: GraphError, not an empty coset."""
    with pytest.raises(GraphError):
        coset(family("path", 3), EdgeReplacement(("1", "3"), ("1", "2")))
    with pytest.raises(GraphError):
        coset(family("path", 3), EdgeReplacement(("1", "2"), ("2", "3")))


def test_the_oracle_imports_nothing_from_fer():
    """The oracle is the route that checks fer, so it must not call into it."""
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "fer" in name.split(".")]


# --------------------------------------------------------------- reachability


def test_single_edge_graph_reaches_only_itself():
    rs = reachability(family("path", 2))
    assert rs.to_json() == {"reached": 1, "total_copies": 1}
    assert rs.transitions == 1  # the neutral move re-enters the same copy


def test_three_vertex_path_reaches_every_copy():
    rs = reachability(family("path", 3))
    assert rs.to_json() == {"reached": 3, "total_copies": 3}
    assert rs.transitions == 12


def test_triangle_with_spare_label_is_stuck_in_one_copy():
    # no single replacement turns one triangle into another, so BFS stalls
    rs = reachability(K3_PLUS_K1)
    assert rs.to_json() == {"reached": 1, "total_copies": 4}


def test_reachability_set_contains_its_start_as_labeled_copies():
    for g in (family("path", 4), K3_PLUS_K1, family("complete", 4)):
        rs = reachability(g)
        assert g.edges in rs.reached
        for state in rs.reached:
            assert are_isomorphic(LabeledGraph(g.labels, state), g)


def test_reached_count_is_the_fer_to_aut_index_up_to_five_labels():
    for n in (1, 2, 3, 4, 5):
        for g in corpus(n):
            rs = reachability(g)
            order = fer_group(g).order
            aut = automorphism_group(g).order
            assert len(rs.reached) == order // aut
            assert rs.total_copies == math.factorial(n) // aut


def test_local_amoebas_are_exactly_the_fully_reaching_graphs():
    for n in (2, 3, 4, 5):
        for g in corpus(n):
            rs = reachability(g)
            assert is_local_amoeba(g) == (len(rs.reached) == rs.total_copies)


# --------------------------------------------------------------------- corpus


def test_corpus_counts_match_the_isomorphism_class_sequence():
    assert [sum(1 for _ in corpus(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_rooted_corpus_yields_every_root_choice():
    assert sum(1 for _ in corpus(4, rooted=True)) == 44
    assert sum(1 for _ in corpus(5, rooted=True)) == 170
    roots = [g.root for g in corpus(2, rooted=True)]
    assert roots == ["1", "2", "1", "2"]


def test_corpus_members_are_pairwise_nonisomorphic():
    reps = list(corpus(4))
    for i, g in enumerate(reps):
        assert g.labels == ("1", "2", "3", "4")
        for h in reps[i + 1 :]:
            assert not are_isomorphic(g, h)


# ------------------------------------------- the tuple-state oracle, pinned
# The oracle as it was before it held graphs as edge masks, copied verbatim
# but for the names.  The mask routes must return the same corpus in the same
# order (bench/reference.json and the seeded relabelings key on it), the same
# reachability sets and counts, and the same permutation lists.


def tuple_canonical_state(edges) -> tuple:
    pairs = [_canonical_edge(u, v) for u, v in edges]
    return tuple(sorted(pairs, key=_edge_key))


def tuple_mapped_state(mapping: dict, edges) -> tuple:
    return tuple_canonical_state((mapping[u], mapping[v]) for u, v in edges)


def tuple_edge_filter(g: LabeledGraph, source_edges) -> list:
    if len(g.labels) > oracle.COSET_LIMIT:
        raise SizeGuardError(f"brute filter capped at {oracle.COSET_LIMIT} labels")
    edges = {frozenset(e) for e in g.edges}
    found = []
    for images in all_orderings(g.labels):
        mapping = dict(zip(g.labels, images))
        if all(frozenset((mapping[u], mapping[v])) in edges for u, v in source_edges):
            found.append(Permutation(g.labels, images))
    return found


def tuple_reachability(g: LabeledGraph) -> tuple:
    n = len(g.labels)
    if n > oracle.REACH_LIMIT:
        raise SizeGuardError(f"reachability capped at {oracle.REACH_LIMIT} labels")
    total = math.factorial(n) // len(tuple_edge_filter(g, g.edges))
    if total > oracle.COPY_LIMIT:
        raise SizeGuardError(f"too many labeled copies ({total} > {oracle.COPY_LIMIT})")
    copies = set()
    for images in all_orderings(g.labels):
        copies.add(tuple_mapped_state(dict(zip(g.labels, images)), g.edges))
    all_pairs = [
        (u, v)
        for k, u in enumerate(g.labels)
        for v in g.labels[k + 1 :]
    ]
    start = tuple_canonical_state(g.edges)
    visited = {start}
    queue = deque([start])
    transitions = 0
    while queue:
        state = queue.popleft()
        present = set(state)
        for removed in state:
            kept = present - {removed}
            for added in all_pairs:
                if added in kept:
                    continue
                candidate = tuple_canonical_state(kept | {added})
                if candidate in copies:
                    transitions += 1
                    if candidate not in visited:
                        visited.add(candidate)
                        queue.append(candidate)
    return g, frozenset(visited), transitions, total


def tuple_corpus(n: int, rooted: bool = False):
    if not 1 <= n <= oracle.CORPUS_LIMIT:
        raise SizeGuardError(f"corpus capped at {oracle.CORPUS_LIMIT} labels")
    labels = tuple(str(i) for i in range(1, n + 1))
    pairs = [
        (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
    ]
    index = {pair: k for k, pair in enumerate(pairs)}
    tables = []
    for images in all_orderings(range(n)):
        table = []
        for i in range(n):
            for j in range(i + 1, n):
                a, b = sorted((images[i], images[j]))
                table.append(index[(labels[a], labels[b])])
        tables.append(table)
    visited = bytearray(1 << len(pairs))
    for mask in range(1 << len(pairs)):
        if visited[mask]:
            continue
        for table in tables:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << table[low.bit_length() - 1]
                rest ^= low
            visited[image] = 1
        edges = tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
        g = LabeledGraph(labels, edges)
        if rooted:
            for x in labels:
                yield g.with_root(x)
        else:
            yield g


@pytest.mark.parametrize("rooted", [False, True])
def test_corpus_equals_the_relabeling_table_enumeration(rooted):
    for n in range(1, 7):
        assert list(corpus(n, rooted)) == list(tuple_corpus(n, rooted))


def test_reachability_equals_the_tuple_state_bfs():
    graphs = [g for n in range(1, 6) for g in corpus(n)]
    graphs += [family("path", 6), K3_PLUS_K1, *islice(corpus(6), 0, None, 10)]
    for g in graphs:
        rs = reachability(g)
        assert tuple(rs) == tuple_reachability(g)
        assert g.edges in rs.reached


def test_brute_filters_equal_the_frozenset_filter():
    """Same permutations in the same order: automorphisms of P8 and K8, and
    the coset of every swap of every five-label class, neutral included."""
    for g in (family("path", 8), family("complete", 8)):
        assert brute_automorphisms(g) == tuple_edge_filter(g, g.edges)
    for g in corpus(5):
        swaps = [EdgeReplacement(e, f) for e in g.edges for f in g.non_edges()]
        for r in (EdgeReplacement(), *swaps):
            replaced = g if r.removed is None else g.remove_edge(*r.removed).add_edge(*r.added)
            assert brute_coset(g, r) == tuple_edge_filter(g, replaced.edges)


# ---------------------------------------------------------------- size guards


def test_brute_filters_are_capped_at_eight_labels():
    big = LabeledGraph(tuple(str(i) for i in range(1, 10)))
    with pytest.raises(SizeGuardError):
        brute_automorphisms(big)
    with pytest.raises(SizeGuardError):
        brute_coset(big, EdgeReplacement())


def test_reachability_is_capped_at_six_labels():
    with pytest.raises(SizeGuardError):
        reachability(family("path", 7))


def test_corpus_is_capped_at_six_labels():
    with pytest.raises(SizeGuardError):
        list(corpus(7))
    with pytest.raises(SizeGuardError):
        list(corpus(0))
