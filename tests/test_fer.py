"""Feasible edge-replacement machinery tests.

The worked coset example and the group orders below were derived with the
exhaustive n!-filter oracle (see tests/test_oracle.py for the full sweep).
"""

from itertools import permutations

import pytest

from amoebagraph import (
    EdgeReplacement,
    GraphError,
    LabeledGraph,
    Permutation,
    apply_replacement,
    automorphism_generators,
    comb_product,
    compose,
    corpus,
    embed,
    example,
    family,
    feasible_replacements,
    first_isomorphism,
    fer_coset,
    fer_fixed_group,
    fer_group,
    generating_set,
    group_from_generators,
    hang_group,
    label_isomorphisms,
    parse_cycles,
    relabel,
    star,
    symmetric_group,
    wreath_product,
)
from amoebagraph.construct import EXAMPLE_NAMES
from amoebagraph.oracle import brute_automorphisms
from amoebagraph.permgroup import flat, label_key

P2_STAR = LabeledGraph(("1", "2", "3"), (("1", "2"),))  # P2 plus an isolated label


# --------------------------------------------------------------- replacements


def test_replacement_canonicalizes_and_collapses():
    r = EdgeReplacement(("2", "1"), ("3", "1"))
    assert r.removed == ("1", "2") and r.added == ("1", "3")
    assert EdgeReplacement(("1", "2"), ("2", "1")).is_neutral
    assert EdgeReplacement().is_neutral
    with pytest.raises(GraphError):
        EdgeReplacement(("1", "2"), None)


def test_apply_replacement():
    g = family("path", 3).unrooted()
    assert apply_replacement(g, EdgeReplacement()) == g
    moved = apply_replacement(g, EdgeReplacement(("1", "2"), ("1", "3")))
    assert moved.edges == (("1", "3"), ("2", "3"))
    with pytest.raises(GraphError):
        # 13 is not an edge of P3, so there is nothing to remove
        apply_replacement(g, EdgeReplacement(("1", "3"), ("1", "2")))


# ---------------------------------------------------------------- feasibility


def test_p2_admits_only_the_neutral_replacement():
    fr = feasible_replacements(family("path", 2).unrooted())
    assert [r.is_neutral for r in fr] == [True]


def test_p3_feasible_replacements_match_brute_candidates():
    """Every removed-edge/added-non-edge candidate is tried; 3 survive."""
    g = family("path", 3).unrooted()
    assert feasible_replacements(g) == (
        EdgeReplacement(),
        EdgeReplacement(("1", "2"), ("1", "3")),
        EdgeReplacement(("2", "3"), ("1", "3")),
    )


def test_p2_star_feasible_replacements():
    assert feasible_replacements(P2_STAR) == (
        EdgeReplacement(),
        EdgeReplacement(("1", "2"), ("1", "3")),
        EdgeReplacement(("1", "2"), ("2", "3")),
    )


def test_feasibility_matches_isomorphism_definition():
    """r is listed iff g - removed + added is isomorphic to g (4-vertex sweep)."""
    from amoebagraph import are_isomorphic

    for g in corpus(4):
        listed = {
            (r.removed, r.added) for r in feasible_replacements(g) if not r.is_neutral
        }
        brute = set()
        for e in g.edges:
            for f in g.non_edges() + (e,):
                if e == f:
                    continue
                candidate = g.remove_edge(*e).add_edge(*f)
                if are_isomorphic(candidate, g):
                    brute.add((e, f))
        assert listed == brute


def test_feasible_search_matches_networkx_on_every_candidate():
    """No swap the degree and component filters drop is feasible by VF2.

    Every (edge, absent pair) is tried with networkx, unfiltered, on the
    5-vertex classes, each also with an isolated label (where the component
    test decides), paths 2-8 and the named examples of at most 8 labels.
    """
    import networkx as nx

    def nx_graph(h):
        graph = nx.Graph()
        graph.add_nodes_from(h.labels)
        graph.add_edges_from(h.edges)
        return graph

    graphs = []
    for g in corpus(5):
        graphs += [g, LabeledGraph(g.labels + ("6",), g.edges)]
    graphs += [family("path", n).unrooted() for n in range(2, 9)]
    for name in EXAMPLE_NAMES:
        g = example(name).unrooted()
        if len(g.labels) <= 8:
            graphs.append(g)
    for g in graphs:
        target = nx_graph(g)
        brute = [EdgeReplacement()] + [
            EdgeReplacement(e, f)
            for e in g.edges
            for f in g.non_edges()
            if nx.is_isomorphic(nx_graph(g.remove_edge(*e).add_edge(*f)), target)
        ]
        assert feasible_replacements(g) == tuple(brute)


def test_feasible_search_isomorphism_calls_are_pinned(monkeypatch):
    """The filters leave 83, 126 and 19 candidates for the isomorphism test.

    Fresh labels keep the process-wide memo cold.  The unfiltered search
    tests 11,774, 728 and 224 candidates.
    """
    import amoebagraph.fer as fer_module
    from amoebagraph import relabel

    original = fer_module.are_isomorphic
    calls = []

    def counted(h, g):
        calls.append(h)
        return original(h, g)

    monkeypatch.setattr(fer_module, "are_isomorphic", counted)
    for g, expected in (
        (family("path", 30), 83),
        (example("counterexample_GH_labeled"), 126),
        (family("b_family", 3), 19),
    ):
        fresh = relabel(g.unrooted(), {x: f"iso-pin-{flat(x)}" for x in g.labels})
        calls.clear()
        feasible_replacements(fresh)
        assert len(calls) == expected


# --------------------------------------------------------------------- cosets


def test_neutral_coset_is_the_automorphism_group():
    for g in (family("path", 3).unrooted(), P2_STAR, example("fig1")):
        coset = fer_coset(g, EdgeReplacement())
        assert set(coset) == set(brute_automorphisms(g))


def test_worked_coset_example():
    """(P2 plus isolated vertex), 12->13: exactly {(2 3), (1 2 3)}."""
    coset = fer_coset(P2_STAR, EdgeReplacement(("1", "2"), ("1", "3")))
    assert {str(p) for p in coset} == {"(2 3)", "(1 2 3)"}


def test_coset_matches_exhaustive_filter():
    """Every sigma over all 3! permutations with embed(g, sigma) = g-12+13."""
    r = EdgeReplacement(("1", "2"), ("1", "3"))
    target = apply_replacement(P2_STAR, r)
    dom = P2_STAR.labels
    brute = {
        images
        for images in permutations(dom)
        if embed(P2_STAR, Permutation(dom, images)) == target
    }
    assert {p.images for p in fer_coset(P2_STAR, r)} == brute


def test_cosets_are_left_translates_of_aut():
    """|coset| = |A_G| and coset = {a . s0 : a in A_G} on all 4-vertex graphs."""
    for g in corpus(4):
        aut = brute_automorphisms(g)
        for r in feasible_replacements(g):
            coset = fer_coset(g, r)
            assert len(coset) == len(aut)
            s0 = coset[0]
            assert {p.images for p in coset} == {
                compose(a, s0).images for a in aut
            }


def test_isomorphisms_are_listed_in_label_key_order_on_pair_labels():
    """Python orders (b, x) pairs b-major but label_key x-major; listings follow label_key."""
    g = comb_product(family("path", 3).unrooted(), family("complete", 3, root="1"))
    r = EdgeReplacement((("1", "1"), ("1", "2")), (("2", "1"), ("1", "2")))
    coset = fer_coset(g, r)
    for perms in (label_isomorphisms(g, g), coset):
        keys = [[label_key(y) for y in p.images] for p in perms]
        assert keys == sorted(keys)
    assert [p.images for p in coset] != sorted(p.images for p in coset)


def test_infeasible_replacement_raises():
    """A swap that changes the isomorphism type has an empty coset, as in brute_coset."""
    g = family("path", 4).unrooted()
    # 12 -> 13 makes a star, not a path
    assert fer_coset(g, EdgeReplacement(("1", "2"), ("1", "3"))) == ()


# ------------------------------------------------------------- generating set


def test_generating_set_of_p2():
    assert [str(p) for p in generating_set(family("path", 2).unrooted())] == [
        "()",
        "(1 2)",
    ]


def test_generating_set_contains_aut_and_dedups():
    for g in corpus(4):
        egs = [p.images for p in generating_set(g)]
        assert len(egs) == len(set(egs))
        aut = {p.images for p in brute_automorphisms(g)}
        assert aut <= set(egs)


def test_generating_set_closed_under_left_multiplication_by_aut():
    for g in corpus(4):
        egs = {p.images for p in generating_set(g)}
        for a in brute_automorphisms(g):
            for p in generating_set(g):
                assert compose(a, p).images in egs


# --------------------------------------------------------------------- groups


def test_path_fer_orders_are_factorials():
    import math

    for n in (2, 3, 4, 5):
        g = family("path", n).unrooted()
        assert fer_group(g).order == math.factorial(n)


def test_complete_graph_fer_is_its_automorphisms():
    """K3 admits only the neutral replacement, so Fer(K3) = Aut(K3) = S3."""
    k3 = family("complete", 3)
    assert [r.is_neutral for r in feasible_replacements(k3)] == [True]
    assert fer_group(k3).order == 6


def test_four_cycle_fer_order():
    c4 = LabeledGraph(
        ("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"))
    )
    assert fer_group(c4).order == 8


def test_fer_group_ignores_the_root():
    g = family("path", 4)
    assert fer_group(g) is fer_group(g.unrooted())  # cached on the unrooted value


# --------------------------------------------------------- fixed / hang groups


def test_fixed_group_of_p2_is_trivial():
    fixed = fer_fixed_group(family("path", 2).unrooted(), "1")
    assert fixed.generators == () and fixed.order == 1


def test_fixed_group_generators_fix_the_label():
    for g in corpus(4):
        for i in g.labels:
            assert all(p(i) == i for p in fer_fixed_group(g, i).generators)


def test_fixed_group_of_p3_center():
    g = family("path", 3).unrooted()
    assert fer_fixed_group(g, "2").order == 2  # the leaf swap


def test_fixed_group_is_a_subgroup_of_fer():
    for g in corpus(4):
        full = fer_group(g)
        for i in g.labels:
            for p in fer_fixed_group(g, i).generators:
                assert p in full


def test_hang_symm_8_fixed_group_matches_the_listed_generators():
    """E^1 generates <(2 4)(6 8), (3 4)(7 8), (4 8), (4 7)>, which is not S7."""
    g = example("hang_symm_8")
    listed = [
        parse_cycles(text, g.labels)
        for text in ("(2 4)(6 8)", "(3 4)(7 8)", "(4 8)", "(4 7)")
    ]
    want = group_from_generators(listed, domain=g.labels)
    got = fer_fixed_group(g, "1")
    assert got.order == want.order == 720
    assert all(p in want for p in got.generators)
    assert all(p in got for p in want.generators)
    assert got.order < 5040  # not S7


def test_hang_symm_8_hang_group_is_full():
    g = example("hang_symm_8")
    assert hang_group(g, "1").order == 40320  # S8


def test_hang_group_of_p2():
    g = family("path", 2).unrooted()
    assert hang_group(g, "1").order == 2
    assert hang_group(g, "2").order == 2


def test_hang_group_of_comb_with_complete_copies():
    """The hang group of P3 * K3 at the root pair is exactly S3 wr S3."""
    from amoebagraph import comb_product

    p3 = family("path", 3).unrooted()
    k3 = family("complete", 3).with_root("1")
    product = comb_product(p3, k3)
    got = hang_group(product, ("1", "1"))
    want = wreath_product(symmetric_group(k3.labels), symmetric_group(p3.labels))
    assert got.order == want.order == 1296
    assert all(p in got for p in want.generators)
    assert all(p in want for p in got.generators)


def test_unknown_label_raises():
    g = family("path", 3).unrooted()
    with pytest.raises(GraphError):
        fer_fixed_group(g, "9")
    with pytest.raises(GraphError):
        hang_group(g, "9")


def test_leaf_extension_into_a_bridged_union():
    """alpha in E^x(H) extends by the identity on J into E^x((H u J) + xy)."""
    from amoebagraph import glue, relabel

    p3 = family("path", 3).unrooted()
    j2 = relabel(family("path", 2).unrooted(), {"1": "a", "2": "b"})
    j3 = relabel(p3, {"1": "a", "2": "b", "3": "c"})
    cases = [
        (p3, "1", j2, "a"),
        (p3, "2", j2, "a"),
        (family("complete", 3), "1", j2, "a"),
        (p3, "1", j3, "a"),
        (example("fig1"), "3", j2, "a"),
    ]
    for h, x, j, y in cases:
        g = glue(h, j, x, y)
        egs = {p.images for p in generating_set(g)}
        for alpha in (p for p in generating_set(h) if p(x) == x):
            extended = Permutation.from_mapping(
                dict(zip(alpha.domain, alpha.images)) | {z: z for z in j.labels}
            )
            assert extended(x) == x
            assert extended.images in egs


# ------------------------------------------- differential: listed E_G routes


def assert_same_group(a, b):
    """Equal order, and every generator of each is a member of the other."""
    assert a.order == b.order
    assert all(p in a for p in b.generators)
    assert all(p in b for p in a.generators)


def test_groups_from_representatives_match_the_listed_generating_sets():
    """Fer, Fer^i and hang groups against <E_G>, <E^i_G>, <E^i_G ∪ Aut>: corpus(1..6)."""
    for n in range(1, 7):
        for g in corpus(n):
            labels = g.labels
            assert_same_group(
                fer_group(g), group_from_generators(generating_set(g), domain=labels)
            )
            aut = fer_coset(g, EdgeReplacement())
            for i in labels:
                fixed = tuple(p for p in generating_set(g) if p(i) == i)
                assert_same_group(
                    fer_fixed_group(g, i), group_from_generators(fixed, domain=labels)
                )
                assert_same_group(
                    hang_group(g, i), group_from_generators(fixed + aut, domain=labels)
                )


def test_the_complement_has_the_reversed_swaps_and_the_same_groups():
    """Embedding commutes with complement, so g - e1 + e2 = embed(g, p) exactly
    when co-g - e2 + e1 = embed(co-g, p): Fer_G(e1 -> e2) = Fer_co-G(e2 -> e1),
    and Fer, Fer^i and the hang group of G and its complement are equal.
    corpus(1..6) and paths on 2-8 labels: 215 graphs."""
    graphs = [g for n in range(1, 7) for g in corpus(n)]
    graphs += [family("path", n).unrooted() for n in range(2, 9)]
    assert len(graphs) == 215
    for g in graphs:
        co = LabeledGraph(g.labels, g.non_edges())
        swaps = feasible_replacements(g)[1:]
        assert {(r.added, r.removed) for r in swaps} == {
            (r.removed, r.added) for r in feasible_replacements(co)[1:]
        }
        for r in (EdgeReplacement(), *swaps):
            reversed_ = EdgeReplacement(r.added, r.removed)
            assert fer_coset(g, r) == fer_coset(co, reversed_), (g, r)
        assert_same_group(fer_group(g), fer_group(co))
        for i in g.labels:
            assert_same_group(fer_fixed_group(g, i), fer_fixed_group(co, i))
            assert_same_group(hang_group(g, i), hang_group(co, i))


# ----------------------------------------------------------------------- memo


def test_classifying_every_root_never_lists_aut(monkeypatch):
    """Every 5-vertex class at every root, and four pair-labelled combs, list nothing.

    The labels are used by no other test, so the process-wide memo starts
    cold for them.  The 68 distinct unrooted graphs (each class, and each
    plus an isolated vertex) once listed Aut(G) 68 times, and the skew
    search once listed whole cosets of the combs: one on P2∗P2, five on
    P4∗P3 and one on P2∗E4.  Every call counts, since a coset listing
    compares a replaced graph with g.
    """
    import amoebagraph.fer as fer_module
    import amoebagraph.lgraph as lgraph_module
    from amoebagraph import classify_graph, relabel

    original = lgraph_module.label_isomorphisms
    listings = []

    def counted(h, g):
        listings.append(g.unrooted())
        return original(h, g)

    monkeypatch.setattr(fer_module, "label_isomorphisms", counted)
    monkeypatch.setattr(lgraph_module, "label_isomorphisms", counted)
    fresh = {str(k): f"aut-memo-{k}" for k in range(1, 6)}
    for g in corpus(5, rooted=True):
        classify_graph(relabel(g, fresh))
    edgeless = LabeledGraph(("1", "2", "3", "4"), root="1")
    combs = [
        (family("path", 2), family("path", 2)),
        (family("path", 4), family("path", 3)),
        (family("path", 3), family("complete", 3, root="1")),
        (family("path", 2), edgeless),
    ]
    for k, (g, h) in enumerate(combs):
        g, h = (relabel(f, {x: f"skew-memo-{k}-{x}" for x in f.labels}) for f in (g, h))
        classify_graph(comb_product(g, h))
    assert listings == []


def test_kept_coset_members_are_the_first_isomorphisms():
    """Fer(G)'s generators after Aut(G)'s are these σ_r, so this pins `amoeba fer`."""
    import amoebagraph.fer as fer_module

    graphs = [g for n in range(1, 7) for g in corpus(n)]
    graphs += [family("path", n) for n in range(2, 13)]
    graphs += [example(name) for name in EXAMPLE_NAMES]
    for g in graphs:
        for r, sigma in fer_module._memo(g).swaps.items():
            assert sigma == first_isomorphism(apply_replacement(g, r), g)


def test_classifying_every_root_never_rebuilds_the_graph(monkeypatch):
    """The memo is found by labels and edges, never through g.unrooted()."""
    from amoebagraph import classify_graph

    original = LabeledGraph.unrooted
    calls = []

    def counted(self):
        calls.append(self)
        return original(self)

    rooted = list(corpus(5, rooted=True))
    monkeypatch.setattr(LabeledGraph, "unrooted", counted)
    for g in rooted:
        classify_graph(g)
    assert calls == []


def test_large_fer_groups_have_few_generators():
    """K8 and K1,8 have 8! automorphisms and no feasible swap; Fer keeps 7 generators."""
    k8 = family("complete", 8)
    star8 = LabeledGraph(
        tuple("012345678"), tuple(("0", str(k)) for k in range(1, 9))
    )
    for g in (k8, star8):
        group = fer_group(g)
        assert group.order == 40320
        assert len(group.generators) == 7


# --------------------------------------------------------------- star records


def _prefixed(g, prefix):
    """g with prefix before every plain label, inside pairs too: the label order is kept."""

    def name(x):
        return (name(x[0]), name(x[1])) if isinstance(x, tuple) else prefix + x

    return relabel(g, {x: name(x) for x in g.labels})


def _searches(monkeypatch, g):
    """The are_isomorphic calls that g's swap stage makes."""
    import amoebagraph.fer as fer_module

    original = fer_module.are_isomorphic
    calls = []

    def counted(h, target):
        calls.append(h)
        return original(h, target)

    monkeypatch.setattr(fer_module, "are_isomorphic", counted)
    feasible_replacements(g)
    monkeypatch.setattr(fer_module, "are_isomorphic", original)
    return len(calls)


def test_star_record_from_g_record_matches_the_searches_on_g_star():
    """G*'s Aut generators, each σ_r and the swaps, taken from G's record, are
    what the searches on G* find.

    Fresh labels keep the memo cold; '!' sorts before the new label '*1' and
    '~' after it.  A "c-" copy of G* keeps the label order and has no parent
    record, so its swaps map back in the same order.
    """
    import amoebagraph.fer as fer_module

    graphs = [g for n in range(1, 7) for g in corpus(n)]
    graphs += [family("path", n) for n in range(2, 15)]
    graphs += [family("complete", n) for n in range(2, 9)]
    graphs += [example(name) for name in EXAMPLE_NAMES]
    graphs.append(comb_product(family("path", 4), family("path", 3)))
    derived = 0
    for k, g in enumerate(graphs):
        for mark in "!~":
            fresh = _prefixed(g.unrooted(), f"{mark}{k}-")
            feasible_replacements(fresh)
            s = star(fresh)
            record = fer_module._memo(s)
            if len(fresh.isolated()) == 0:
                assert record._parent == (fer_module._memo(fresh), s.isolated()[0])
                derived += 1
            else:
                assert record._parent == (None, None)
            assert record.aut_gens == automorphism_generators(s)
            for r, sigma in record.swaps.items():
                assert sigma == first_isomorphism(apply_replacement(s, r), s)
            cold = _prefixed(s, "c-")
            back = dict(zip(cold.labels, s.labels))
            assert [
                EdgeReplacement(tuple(map(back.get, r.removed)), tuple(map(back.get, r.added)))
                for r in fer_module._memo(cold).swaps
            ] == list(record.swaps)
    assert derived == 2 * 181  # the graphs with no isolated label, under both prefixes


def test_star_record_without_a_parent_record_is_searched_cold(monkeypatch):
    """No derivation for a G with an isolated label (G* has two), for a G
    holding an isolated '*1' (G* adds '*2'), or for a G* built before G,
    whose swap stage builds no record for G on demand."""
    import amoebagraph.fer as fer_module

    p3_isolated = LabeledGraph(("1", "2", "3", "4"), (("1", "2"), ("2", "3")))
    holds_star = star(_prefixed(family("path", 4).unrooted(), "cold-p4-"))
    for g in (_prefixed(p3_isolated, "cold-p3-"), holds_star):
        feasible_replacements(g)
        s = star(g)
        assert _searches(monkeypatch, s) == _searches(monkeypatch, _prefixed(s, "c-"))
    fresh = _prefixed(family("path", 6).unrooted(), "cold-first-")
    feasible_replacements(star(fresh))
    assert fer_module._memo(star(fresh))._parent == (None, None)
    assert (fresh.labels, fresh.edges) not in fer_module._records


def test_star_swap_stage_searches_only_swaps_at_the_new_label(monkeypatch):
    """With G's record built, G*'s swap stage tests 4, 12 and 17 candidates
    for path30, GH and b_family 3; searched cold, it tests 87, 138 and 36."""
    for g, expected in (
        (family("path", 30), 4),
        (example("counterexample_GH_labeled"), 12),
        (family("b_family", 3), 17),
    ):
        fresh = relabel(g.unrooted(), {x: f"star-pin-{flat(x)}" for x in g.labels})
        feasible_replacements(fresh)
        assert _searches(monkeypatch, star(fresh)) == expected
