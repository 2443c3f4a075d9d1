"""End-to-end acceptance suite.

Fifteen headline checks, one test each, in a fixed order; `pytest -v`
prints one pass/fail line per check.  Every frozen order here was computed
twice: once by the Sims-table engine under test and once by an independent
route (the n!-filter oracle, the reachability BFS, sympy, or networkx's
VF2 matcher for the 12-vertex graph, where a 12!-filter is out of reach).
Each test also enforces its wall-clock budget.
"""

import math
import time
from itertools import islice, permutations

from amoebagraph import (
    EdgeReplacement,
    LabeledGraph,
    Permutation,
    automorphism_group,
    brute_automorphisms,
    check_fixed_wreath_embedding,
    check_global_transitive,
    check_hang_correspondence,
    check_theorem3,
    check_wreath_embedding,
    classify_graph,
    comb_product,
    compose,
    corpus,
    embed,
    example,
    family,
    feasible_replacements,
    fer_coset,
    fer_fixed_group,
    fer_group,
    find_skew,
    generating_set,
    group_from_generators,
    hang_group,
    is_hang_symmetric,
    is_local_amoeba,
    is_stem_symmetric,
    pair_blocks,
    preserves_partition,
    reachability,
    symmetric_group,
    wreath_product,
)


def sympy_order(group) -> int:
    """Recompute a group's order with sympy's independent BSGS."""
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    index = {label: k for k, label in enumerate(group.domain)}
    gens = [
        SymPerm([index[p(label)] for label in group.domain])
        for p in group.generators
    ]
    return int(SymGroup(gens).order())


def test_twelve_vertex_counterexample_has_the_wreath_fer_group():
    started = time.perf_counter()
    gh = example("counterexample_GH_labeled")
    fer = fer_group(gh)
    assert not is_local_amoeba(gh)
    assert fer.order == 82944 == 24**3 * 6
    assert sympy_order(fer) == 82944

    # Fer equals the wreath of the full symmetric groups on copy and base,
    # transported to the flat 1..12 labels: order plus membership both ways.
    wreath = wreath_product(
        symmetric_group(("1", "2", "3", "4")), symmetric_group(("1", "2", "3"))
    )
    to_flat = {
        (b, x): str(4 * (int(x) - 1) + int(b))
        for b in ("1", "2", "3", "4")
        for x in ("1", "2", "3")
    }
    flat_wreath = group_from_generators(
        [g.relabeled(to_flat) for g in wreath.generators]
    )
    assert flat_wreath.order == fer.order
    assert all(g in fer for g in flat_wreath.generators)
    assert all(g in flat_wreath for g in fer.generators)

    # the replacement generators fixing label 1 move 2 only within its branch
    e1 = group_from_generators(p for p in generating_set(gh) if p("1") == "1")
    orbit_of_2 = next(part for part in e1.orbits if "2" in part)
    assert set(orbit_of_2) == {"2", "3", "4"}

    # the automorphism group is tiny; VF2 is the independent route at n = 12
    import networkx as nx

    matcher = nx.algorithms.isomorphism.GraphMatcher(
        nx.Graph(list(gh.edges)), nx.Graph(list(gh.edges))
    )
    assert automorphism_group(gh).order == 2
    assert sum(1 for _ in matcher.isomorphisms_iter()) == 2
    assert time.perf_counter() - started < 10


def test_eight_vertex_example_is_hang_symmetric_but_not_replacement_generated():
    started = time.perf_counter()
    g = example("hang_symm_8")
    assert hang_group(g, "1").order == 40320 == math.factorial(8)
    e1 = group_from_generators(p for p in generating_set(g) if p("1") == "1")
    assert e1.order < 5040
    assert e1.order == 720
    assert time.perf_counter() - started < 5


def test_paths_are_hang_symmetric_with_full_symmetric_fer_groups():
    started = time.perf_counter()
    for n in range(2, 9):
        path = family("path", n)
        assert is_hang_symmetric(path, "1")
        assert is_hang_symmetric(path, str(n))
        assert fer_group(path).order == math.factorial(n)
    assert time.perf_counter() - started < 30


def test_path_combs_are_local_amoebas_with_a_path_skew():
    started = time.perf_counter()
    for base_size in (2, 3):
        for n in (2, 3):
            g = family("path", base_size).unrooted()
            gh = comb_product(g, family("path", n, root="1"))
            fer = fer_group(gh)
            assert is_local_amoeba(gh)
            assert fer.order == math.factorial(base_size * n)

            blocks = pair_blocks(gh.labels)
            skew = find_skew(gh, blocks)
            assert skew is not None
            assert skew in fer
            assert not preserves_partition(skew, blocks)

            # the classic skew: cut the far end of the copy over the leaf x
            # and re-hang it on the copy over its neighbor y; the induced
            # permutation shifts one chain into the other across blocks
            x, y = "1", "2"
            r = EdgeReplacement(
                ((str(n - 1), x), (str(n), x)), ((str(n), x), (str(n), y))
            )
            assert r in feasible_replacements(gh)
            images = {label: label for label in gh.labels}
            for k in range(1, n):
                a, b = (str(k + 1), y), (str(k), x)
                images[a], images[b] = b, a
            sigma = Permutation.from_mapping(images)
            assert sigma in fer_coset(gh, r)
            assert not preserves_partition(sigma, blocks)
    assert time.perf_counter() - started < 60


def test_reachability_oracle_matches_the_group_criterion():
    """Every class on up to six labels: 1 + 2 + 4 + 11 + 34 + 156 graphs."""
    started = time.perf_counter()
    assert sum(1 for _ in corpus(6)) == 156
    for n in range(1, 7):
        for g in corpus(n):
            walked = reachability(g)
            aut = automorphism_group(g).order
            # identity one: the walk visits exactly one copy per coset
            assert len(walked.reached) == fer_group(g).order // aut
            assert walked.total_copies == math.factorial(n) // aut
            # identity two: local amoeba iff every labeled copy is reached
            assert is_local_amoeba(g) == (len(walked.reached) == walked.total_copies)
    assert time.perf_counter() - started < 120


def test_stem_symmetry_triple_is_internally_equal_for_every_root():
    started = time.perf_counter()
    swept = 0
    for n in range(1, 6):
        for g in corpus(n, rooted=True):
            a, b, c = check_theorem3(g)
            assert a == b == c
            swept += 1
    assert swept == 231
    assert time.perf_counter() - started < 300


def test_global_amoebas_are_exactly_the_transitive_fer_graphs():
    started = time.perf_counter()
    for n in range(1, 6):
        for g in corpus(n):
            is_global, is_trans = check_global_transitive(g)
            assert is_global == is_trans
    assert time.perf_counter() - started < 300


def test_hang_correspondence_holds_for_every_root():
    started = time.perf_counter()
    for n in range(1, 6):
        for g in corpus(n, rooted=True):
            assert check_hang_correspondence(g)
    assert time.perf_counter() - started < 300


def test_every_coset_is_a_left_translate_of_the_automorphisms():
    def assert_coset_law(g):
        aut = set(brute_automorphisms(g))
        for r in feasible_replacements(g):
            perms = fer_coset(g, r)
            assert len(perms) == len(aut)
            anchor = perms[0]
            assert set(perms) == {compose(a, anchor) for a in aut}

    for n in range(1, 6):
        for g in corpus(n):
            assert_coset_law(g)
    # the six-label corpus is sampled (every tenth class) to stay quick
    for g in islice(corpus(6), 0, None, 10):
        assert_coset_law(g)


def test_wreath_embeddings_including_the_fixed_point_variant():
    started = time.perf_counter()
    p2, p3 = family("path", 2).unrooted(), family("path", 3).unrooted()
    k3 = family("complete", 3)
    assert check_wreath_embedding(p2, family("path", 2, root="1"))
    assert check_wreath_embedding(p3, k3.with_root("1"))

    g, h = example("counterexample_G"), example("counterexample_H")
    assert check_wreath_embedding(g, h)
    # and there the embedding is onto: the wreath is the whole fer group
    wreath = wreath_product(hang_group(h, h.root), fer_group(g))
    assert fer_group(comb_product(g, h)).order == wreath.order == 82944

    rooted_k3 = k3.with_root("1")
    assert check_fixed_wreath_embedding(rooted_k3, rooted_k3)
    product = comb_product(rooted_k3, rooted_k3)
    fixed = fer_fixed_group(product, product.root)
    fixed_wreath = wreath_product(
        fer_fixed_group(rooted_k3, "1"), fer_fixed_group(rooted_k3, "1")
    )
    assert fixed.order == fixed_wreath.order == 16
    assert time.perf_counter() - started < 120


def test_doubled_binary_family_gives_a_ten_label_local_amoeba():
    started = time.perf_counter()
    for n in (2, 3):
        bn = family("b_family", n)
        assert bn.root == "+1"  # the newly added leaf
        assert is_stem_symmetric(bn)
    product = comb_product(family("path", 2).unrooted(), family("b_family", 2))
    fer = fer_group(product)
    assert is_local_amoeba(product)
    assert fer.order == math.factorial(10)
    assert sympy_order(fer) == math.factorial(10)
    assert time.perf_counter() - started < 120


def star_graph(labels) -> LabeledGraph:
    """K1,n-1 with centre labels[0]."""
    return LabeledGraph(labels, tuple((labels[0], x) for x in labels[1:]))


def test_worst_case_shapes_finish_with_exact_orders():
    """Shapes with huge automorphism groups, held by generators: Fer, Fer^i, hang."""
    labels = tuple(str(k) for k in range(1, 31))
    matching = LabeledGraph(labels, tuple(zip(labels[::2], labels[1::2])))
    cycle = LabeledGraph(labels, tuple(zip(labels, labels[1:] + labels[:1])))
    bipartite = LabeledGraph(labels, tuple((a, b) for a in labels[:15] for b in labels[15:]))
    f = math.factorial
    shapes = [
        (family("complete", 10), (f(10), f(9), f(10))),
        (LabeledGraph(labels), (f(30), f(29), f(30))),
        (family("complete", 30), (f(30), f(29), f(30))),
        (matching, (2**15 * f(15), 2**14 * f(14), 2**15 * f(15))),
        (star_graph(labels), (f(29), f(29), f(29))),
        (cycle, (60, 2, 60)),
        (bipartite, (2 * f(15) ** 2, f(14) * f(15), 2 * f(15) ** 2)),
    ]
    for g, orders in shapes:
        started = time.perf_counter()
        first = g.labels[0]
        groups = (fer_group(g), fer_fixed_group(g, first), hang_group(g, first))
        assert tuple(group.order for group in groups) == orders
        assert time.perf_counter() - started < 5
        assert tuple(sympy_order(group) for group in groups) == orders


def test_worst_case_shapes_classify_in_bounded_time():
    """K30 and K1,29, rooted at "1": the global check searches each plus an isolated label."""
    labels = tuple(str(k) for k in range(1, 31))
    for g in (family("complete", 30).with_root("1"), star_graph(labels).with_root("1")):
        started = time.perf_counter()
        classify_graph(g)
        assert time.perf_counter() - started < 5


def test_thirty_label_comb_reports_a_skew_in_bounded_time():
    """P2 combed with 15 isolated labels, the largest admitted size.

    Each of its Aut-cosets has 2·28! members, and classify lists none.
    """
    started = time.perf_counter()
    h = LabeledGraph(tuple(str(k) for k in range(1, 16)), root="1")
    gh = comb_product(family("path", 2), h)
    report = classify_graph(gh)
    blocks = pair_blocks(gh.labels)
    assert len(gh.labels) == 30 and report.block_system == blocks
    assert report.skew in fer_group(gh)
    assert not preserves_partition(report.skew, blocks)
    # independently of the engine, the skew lies in E_G: its embedding is gh
    # with at most one edge swapped
    moved = set(embed(gh, report.skew).edges) ^ set(gh.edges)
    assert len(moved) in (0, 2)
    assert time.perf_counter() - started < 5


def test_order_eight_wreath_subgroup_is_maximal_in_s4():
    started = time.perf_counter()
    domain = ("1", "2", "3", "4")
    everyone = [Permutation(domain, images) for images in permutations(domain)]
    ident = Permutation(domain, domain)

    def closed_over(seed):
        elems = set(seed) | {ident}
        frontier = list(elems)
        while frontier:
            fresh = []
            for a in list(elems):
                for b in frontier:
                    for c in (compose(a, b), compose(b, a)):
                        if c not in elems:
                            elems.add(c)
                            fresh.append(c)
            frontier = fresh
        return frozenset(elems)

    subgroups = {frozenset({ident})}
    queue = [frozenset({ident})]
    while queue:
        current = queue.pop()
        for extra in everyone:
            if extra not in current:
                bigger = closed_over(current | {extra})
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    queue.append(bigger)
    assert len(subgroups) == 30

    wreath = wreath_product(
        symmetric_group(("1", "2")), symmetric_group(("1", "2"))
    )
    to_flat = {
        (b, x): str(2 * (int(x) - 1) + int(b)) for b in ("1", "2") for x in ("1", "2")
    }
    embedded = closed_over(g.relabeled(to_flat) for g in wreath.generators)
    assert len(embedded) == 8 and embedded in subgroups
    full = frozenset(everyone)
    assert not any(embedded < k < full for k in subgroups)
    assert time.perf_counter() - started < 1
