"""Labeled graph, embedding, isomorphism search, and JSON format tests."""

import json
from collections import defaultdict
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebagraph import (
    FormatError,
    GraphError,
    LabeledGraph,
    Permutation,
    are_isomorphic,
    automorphism_generators,
    automorphism_group,
    compose,
    corpus,
    disjoint_union,
    embed,
    example,
    family,
    first_isomorphism,
    from_json,
    label_isomorphisms,
    parse_cycles,
    relabel,
    to_dot,
    to_json,
)
from amoebagraph.oracle import brute_automorphisms

DOM5 = tuple(str(k) for k in range(1, 6))
PAIRS5 = tuple(combinations(DOM5, 2))

FIG1 = LabeledGraph(DOM5, (("1", "3"), ("2", "3"), ("3", "4"), ("4", "5")))


def graphs_on_five():
    """Hypothesis strategy: a graph on labels 1..5 from a random edge mask."""
    return st.integers(0, 2 ** len(PAIRS5) - 1).map(
        lambda mask: LabeledGraph(
            DOM5, tuple(e for k, e in enumerate(PAIRS5) if mask >> k & 1)
        )
    )


def perms_on_five():
    return st.permutations(DOM5).map(lambda images: Permutation(DOM5, tuple(images)))


# --------------------------------------------------------------- construction


def test_edges_are_canonicalized_and_sorted():
    g = LabeledGraph(("2", "1", "3"), (("3", "1"), ("2", "1")))
    assert g.labels == ("1", "2", "3")
    assert g.edges == (("1", "2"), ("1", "3"))


def test_construction_rejects_bad_input():
    with pytest.raises(GraphError):
        LabeledGraph(())
    with pytest.raises(GraphError):
        LabeledGraph(("1", "2"), (("1", "1"),))
    with pytest.raises(GraphError):
        LabeledGraph(("1", "2"), (("1", "2"), ("2", "1")))
    with pytest.raises(GraphError):
        LabeledGraph(("1", "2"), (("1", "3"),))
    with pytest.raises(GraphError):
        LabeledGraph(("1", "2"), (), root="3")


def test_degree_and_leaves():
    assert FIG1.degree("3") == 3
    assert FIG1.neighbors("3") == frozenset({"1", "2", "4"})
    p4 = family("path", 4)
    assert p4.leaves() == ("1", "4")
    k3_k1 = LabeledGraph(("1", "2", "3", "4"), (("1", "2"), ("1", "3"), ("2", "3")))
    assert k3_k1.isolated() == ("4",)
    with pytest.raises(GraphError):
        FIG1.degree("9")


def test_edge_edits_round_trip():
    g = family("path", 3)
    assert g.add_edge("1", "3").remove_edge("3", "1") == g
    with pytest.raises(GraphError):
        g.add_edge("1", "2")
    with pytest.raises(GraphError):
        g.remove_edge("1", "3")


def test_non_edges_complement_the_edges():
    g = family("path", 3).unrooted()
    assert g.non_edges() == (("1", "3"),)


def test_root_bookkeeping():
    g = family("path", 3)
    assert g.root == "1" and g.unrooted().root is None
    assert g.with_root("2").root == "2"
    with pytest.raises(GraphError):
        g.with_root("9")


def test_disjoint_union():
    p2 = family("path", 2).unrooted()
    k1 = LabeledGraph(("3",))
    star = disjoint_union(p2, k1)
    assert star.labels == ("1", "2", "3") and star.edges == (("1", "2"),)
    with pytest.raises(GraphError):
        disjoint_union(p2, p2)


def test_relabel_requires_a_bijection():
    g = family("path", 2).unrooted()
    assert relabel(g, {"1": "b", "2": "a"}).edges == (("a", "b"),)
    with pytest.raises(GraphError):
        relabel(g, {"1": "a"})
    with pytest.raises(GraphError):
        relabel(g, {"1": "a", "2": "a"})


# ------------------------------------------------------------------ embedding


def test_embed_identity_is_the_graph():
    assert embed(FIG1, Permutation(DOM5, DOM5)) == FIG1


def test_embed_345_cycle_keeps_the_edge_labels():
    """sigma = (3 4 5) relocates the picture but reuses the same label pairs."""
    got = embed(FIG1, parse_cycles("(3 4 5)", DOM5))
    assert got.edges == (("1", "5"), ("2", "5"), ("3", "4"), ("3", "5"))
    assert set(got.edges) != set(FIG1.edges)
    assert {frozenset(e) for e in got.edges} != {frozenset(e) for e in FIG1.edges}


def test_embed_carries_the_root_unchanged():
    g = FIG1.with_root("3")
    assert embed(g, parse_cycles("(3 4 5)", DOM5)).root == "3"


def test_embed_rejects_foreign_domains():
    with pytest.raises(GraphError):
        embed(FIG1, parse_cycles("(1 2)", ("1", "2")))


@given(graphs_on_five(), perms_on_five(), perms_on_five())
@settings(max_examples=150)
def test_embed_is_a_right_action(g, tau, sigma):
    """embed(embed(g, tau), sigma) = embed(g, compose(tau, sigma))."""
    assert embed(embed(g, tau), sigma) == embed(g, compose(tau, sigma))


@given(graphs_on_five(), perms_on_five())
@settings(max_examples=100)
def test_embed_by_inverse_undoes(g, p):
    assert embed(embed(g, p), p.inverse()) == g


# ---------------------------------------------------------------- isomorphism


def test_label_isomorphisms_of_a_graph_with_itself_is_aut():
    p3 = family("path", 3).unrooted()
    assert label_isomorphisms(p3, p3) == tuple(
        sorted(brute_automorphisms(p3), key=lambda p: p.images)
    )


def test_label_isomorphisms_pinned_pair_of_paths():
    """Path 1-2-3 vs path 2-1-3 on the same labels: exactly two solutions."""
    p3 = family("path", 3).unrooted()
    h = LabeledGraph(("1", "2", "3"), (("2", "1"), ("1", "3")))
    got = label_isomorphisms(p3, h)
    assert len(got) == 2
    assert all(embed(h, p) == p3 for p in got)


def test_label_isomorphisms_exhaustive_cross_check():
    """Backtracking equals the 3!-filter on every pair of 3-vertex graphs."""
    dom = ("1", "2", "3")
    all_graphs = [
        LabeledGraph(dom, tuple(e for k, e in enumerate(combinations(dom, 2)) if m >> k & 1))
        for m in range(8)
    ]
    for g in all_graphs:
        for h in all_graphs:
            brute = {
                images
                for images in permutations(dom)
                if embed(g, Permutation(dom, images)) == h.unrooted()
            }
            assert {p.images for p in label_isomorphisms(h, g)} == brute


def test_label_isomorphisms_empty_on_different_edge_counts():
    g = family("path", 3).unrooted()
    assert label_isomorphisms(family("complete", 3), g) == ()


def test_label_isomorphisms_rejects_different_label_sets():
    with pytest.raises(GraphError):
        label_isomorphisms(family("path", 2).unrooted(), LabeledGraph(("a", "b")))


def test_label_isomorphism_count_is_the_automorphism_order():
    """Nonempty solution sets are cosets: same size as Aut, for 4-vertex graphs."""
    dom = ("1", "2", "3", "4")
    pairs = tuple(combinations(dom, 2))
    graphs = [
        LabeledGraph(dom, tuple(e for k, e in enumerate(pairs) if m >> k & 1))
        for m in range(2 ** len(pairs))
    ]
    for g in graphs[:32]:
        aut_order = automorphism_group(g).order
        for h in graphs[:32]:
            found = label_isomorphisms(h, g)
            assert len(found) in (0, aut_order)


def test_are_isomorphic_across_label_sets():
    p3 = family("path", 3).unrooted()
    other = LabeledGraph(("a", "b", "c"), (("b", "a"), ("b", "c")))
    assert are_isomorphic(p3, other)
    assert not are_isomorphic(family("complete", 3), other)


def test_label_isomorphisms_of_every_five_vertex_class_match_the_brute_filter():
    for g in corpus(5):
        assert {p.images for p in label_isomorphisms(g, g)} == {
            p.images for p in brute_automorphisms(g)
        }


def test_automorphism_generators_generate_the_brute_automorphism_group():
    """Strong generators against the n! filter: corpus(1..6) and small examples."""
    graphs = [g for n in range(1, 7) for g in corpus(n)]
    graphs += [
        example(name)
        for name in ("fig1", "hang_symm_8", "counterexample_G", "counterexample_H")
    ]
    for g in graphs:
        gens = automorphism_generators(g)
        assert all(embed(g, p).edges == g.edges for p in gens)
        assert automorphism_group(g).order == len(brute_automorphisms(g))


def test_first_isomorphism_honours_the_forced_pairs():
    p4 = family("path", 4).unrooted()
    assert first_isomorphism(p4, p4, (("1", "4"),)) == parse_cycles("(1 4)(2 3)", p4.labels)
    assert first_isomorphism(p4, p4, (("1", "2"),)) is None  # a leaf onto an inner vertex
    assert first_isomorphism(p4, p4, (("2", "2"), ("1", "4"))) is None
    moved = p4.remove_edge("1", "2").add_edge("1", "3")  # a star, not a path
    assert first_isomorphism(moved, p4) is None
    with pytest.raises(GraphError):
        first_isomorphism(p4, family("path", 5).unrooted())


def degree_profile(g):
    """Sorted (degree, sorted neighbour degrees) of every vertex."""
    return sorted(
        (g.degree(x), tuple(sorted(g.degree(y) for y in g.neighbors(x))))
        for x in g.labels
    )


def test_classes_with_equal_degree_profiles_are_told_apart():
    """Pairs that pass the invariant filter reach the search and are rejected."""
    by_profile = defaultdict(list)
    for g in corpus(6):
        by_profile[tuple(degree_profile(g))].append(g)
    pairs = [tuple(same[:2]) for same in by_profile.values() if len(same) > 1][:4]
    assert len(pairs) == 4
    for g, h in pairs:
        assert g != h and degree_profile(g) == degree_profile(h)
        assert not are_isomorphic(g, h) and not are_isomorphic(h, g)


@given(graphs_on_five(), perms_on_five())
@settings(max_examples=100)
def test_embedded_copies_are_isomorphic(g, p):
    assert are_isomorphic(embed(g, p), g)


def test_automorphism_orders():
    assert automorphism_group(family("path", 2).unrooted()).order == 2
    assert automorphism_group(family("complete", 4)).order == 24
    c4 = LabeledGraph(
        ("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"))
    )
    assert automorphism_group(c4).order == 8


def test_hang_symm_8_has_the_captioned_automorphism():
    g = example("hang_symm_8")
    aut = automorphism_group(g)
    assert aut.order == 2
    flip = parse_cycles("(1 4)(2 3)(5 8)(6 7)", g.labels)
    assert flip in aut


# ----------------------------------------------------------------------- JSON


def test_json_round_trip_and_stable_bytes():
    g = FIG1.with_root("3")
    text = to_json(g)
    assert from_json(text) == g
    assert to_json(from_json(text)) == text
    assert text.endswith("\n")


def test_json_omits_missing_root():
    assert '"root"' not in to_json(FIG1)
    assert '"root": "3"' in to_json(FIG1.with_root("3"))


@given(graphs_on_five())
@settings(max_examples=100)
def test_json_round_trips_arbitrary_graphs(g):
    assert from_json(to_json(g)) == g


def test_from_json_reports_the_bad_field():
    with pytest.raises(FormatError, match="labels"):
        from_json('{"labels": "abc"}')
    with pytest.raises(FormatError, match="edges"):
        from_json('{"labels": ["1", "2"], "edges": [["1"]]}')
    with pytest.raises(FormatError, match=r"edges\[0\]"):
        from_json('{"labels": ["1", "2"], "edges": [["1", "9"]]}')
    with pytest.raises(FormatError, match="root"):
        from_json('{"labels": ["1"], "edges": [], "root": "9"}')
    with pytest.raises(FormatError, match="unknown"):
        from_json('{"labels": ["1"], "edges": [], "colour": "red"}')
    with pytest.raises(FormatError, match="invalid JSON"):
        from_json("{")
    for bad in ("a b", "a\tb", "(a", "a)", "{a", "a}", "a,b"):
        with pytest.raises(FormatError, match="labels"):
            from_json(json.dumps({"labels": [bad, "c"], "edges": [[bad, "c"]]}))


def test_from_json_rejects_duplicate_labels_as_a_format_error():
    with pytest.raises(FormatError, match="duplicate labels"):
        from_json('{"labels": ["1", "1", "2"], "edges": []}')


def test_pair_labels_flatten_with_dots():
    g = LabeledGraph((("a", "1"), ("b", "1")), ((("a", "1"), ("b", "1")),))
    text = to_json(g)
    assert '"a.1"' in text and '"b.1"' in text
    back = from_json(text)
    assert back.labels == ("a.1", "b.1")  # flattened names stay plain strings


def test_to_dot_marks_the_root():
    dot = to_dot(family("path", 2))
    assert '"1" [root=true];' in dot
    assert '"1" -- "2";' in dot
    assert dot.startswith("graph {") and dot.endswith("}\n")
