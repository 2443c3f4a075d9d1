"""Amoeba classification predicates, theorem checkers, and reports."""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebagraph import (
    LabeledGraph,
    PreconditionError,
    check_big_corollary,
    check_fixed_wreath_embedding,
    check_global_transitive,
    check_hang_correspondence,
    check_theorem3,
    check_wreath_embedding,
    classify_graph,
    comb_product,
    corpus,
    cycle_notation,
    example,
    family,
    fer_fixed_group,
    fer_group,
    find_skew,
    generating_set,
    hang_group,
    is_global_amoeba,
    is_hang_symmetric,
    is_local_amoeba,
    is_stem_symmetric,
    is_stem_transitive,
    is_block_system,
    is_symmetric,
    is_transitive,
    has_root_similar_vertex,
    minimal_block_system,
    pair_blocks,
    preserves_partition,
    reachability,
    relabel,
    star,
)
from amoebagraph.construct import EXAMPLE_NAMES
from amoebagraph.permgroup import sorted_domain

C4 = LabeledGraph(("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")))
K1 = LabeledGraph(("1",))


def p(n, root=None):
    g = family("path", n)
    return g.unrooted() if root is None else g.with_root(root)


# ----------------------------------------------------------------- predicates


def test_paths_are_local_amoebas():
    for n in range(2, 8):
        assert is_local_amoeba(p(n))


def test_one_vertex_graph_is_a_local_amoeba():
    assert is_local_amoeba(K1) and is_global_amoeba(K1)


def test_counterexample_comb_is_not_a_local_amoeba():
    gh = comb_product(example("counterexample_G"), example("counterexample_H"))
    assert not is_local_amoeba(gh)


def test_four_cycle_is_neither_local_nor_global():
    assert not is_local_amoeba(C4)
    assert not is_global_amoeba(C4)


def test_p3_is_a_global_amoeba():
    assert is_global_amoeba(p(3))


def test_global_verdicts_match_the_reachability_oracle():
    """The paper's K_{n+1} definition: G is a global amoeba iff the BFS from
    G plus an isolated label reaches every labeled copy, on every class of up
    to five labels (K3 among them, whose copies in K4 stay stuck)."""
    verdicts = []
    for n in range(1, 6):
        for g in corpus(n):
            result = reachability(star(g))
            oracle_says = len(result.reached) == result.total_copies
            assert is_global_amoeba(g) == oracle_says, g
            verdicts.append(oracle_says)
    assert not is_global_amoeba(family("complete", 3))
    assert True in verdicts and False in verdicts


def test_paths_are_stem_symmetric_at_leaves():
    for n in range(2, 7):
        assert is_stem_symmetric(p(n), "1")
        assert is_stem_symmetric(p(n), str(n))


def test_k2_is_stem_symmetric_at_either_label():
    assert is_stem_symmetric(p(2), "1") and is_stem_symmetric(p(2), "2")


def test_hang_symm_8_splits_stem_and_hang():
    """The 8-vertex figure graph is hang- but not stem-symmetric at label 1."""
    g = example("hang_symm_8")
    assert not is_stem_symmetric(g, "1")
    assert is_hang_symmetric(g, "1")


def test_paths_are_hang_symmetric_at_leaves():
    for n in range(2, 7):
        assert is_hang_symmetric(p(n), "1")


def test_comb_with_path_copies_is_hang_symmetric_at_the_root_pair():
    gh = comb_product(p(2, root="1"), family("path", 3))
    assert is_hang_symmetric(gh, ("1", "1"))


def test_stem_transitive():
    assert is_stem_transitive(p(3, root="1"), "1")
    gh = example("counterexample_GH_labeled")
    assert not is_stem_transitive(gh, "1")
    assert is_stem_transitive(K1.with_root("1"), "1")


def test_root_similar_vertices():
    assert has_root_similar_vertex(p(3, root="1"))
    assert not has_root_similar_vertex(p(3, root="2"))
    assert has_root_similar_vertex(family("complete", 3).with_root("2"))
    assert not has_root_similar_vertex(K1.with_root("1"))


# ------------------------------------------------------------------- checkers


def test_theorem3_pinned_triples():
    assert check_theorem3(p(3, root="2")) == (True, True, True)
    assert check_theorem3(K1.with_root("1")) == (True, True, True)
    # K3 is not a global amoeba, so all three statements are false together.
    assert check_theorem3(family("complete", 3).with_root("1")) == (False, False, False)


def test_theorem3_triples_agree_on_rooted_four_vertex_graphs():
    for g in corpus(4, rooted=True):
        a, b, c = check_theorem3(g)
        assert a == b == c


def test_global_transitive_pairs():
    assert check_global_transitive(p(3)) == (True, True)
    assert check_global_transitive(K1) == (True, True)
    assert check_global_transitive(C4) == (False, False)


def test_hang_correspondence_pinned_cases():
    assert check_hang_correspondence(p(2, root="1"), "1")
    assert check_hang_correspondence(example("hang_symm_8").with_root("1"), "1")


def test_hang_correspondence_on_rooted_four_vertex_graphs():
    for g in corpus(4, rooted=True):
        assert check_hang_correspondence(g)


@st.composite
def random_rooted_graphs(draw):
    """G(n, p) on 7-9 labels, p in {0.15, 0.3, 0.5, 0.7}, at a random root."""
    n = draw(st.integers(7, 9))
    density = draw(st.sampled_from((0.15, 0.3, 0.5, 0.7)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(str(k) for k in range(1, n + 1))
    edges = tuple(
        (u, v) for k, u in enumerate(labels) for v in labels[k + 1 :] if rng.random() < density
    )
    return LabeledGraph(labels, edges, root=draw(st.sampled_from(labels)))


@given(random_rooted_graphs())
@settings(max_examples=80, deadline=None)
def test_theorem_checkers_agree_on_random_graphs(g):
    """Theorem 3's triple, the global/transitive pair and the hang
    correspondence, beyond the corpus sizes."""
    a, b, c = check_theorem3(g)
    assert a == b == c
    is_global, is_trans = check_global_transitive(g)
    assert is_global == is_trans
    assert check_hang_correspondence(g)


# ---------------------------------------------------------- wreath embeddings


def test_wreath_embeddings():
    assert check_wreath_embedding(p(2), p(2, root="1"))
    assert check_wreath_embedding(p(2), family("complete", 3).with_root("2"))
    assert check_wreath_embedding(p(3), example("counterexample_H"))


def test_wreath_embedding_requires_a_global_amoeba_copy():
    with pytest.raises(PreconditionError):
        check_wreath_embedding(p(2), p(2).unrooted())
    # the global-amoeba requirement sits on g; C4 is not one
    with pytest.raises(PreconditionError):
        check_wreath_embedding(C4, p(2, root="1"))


def test_fixed_wreath_embedding_on_complete_copies():
    k3 = family("complete", 3)
    assert check_fixed_wreath_embedding(k3.with_root("1"), k3.with_root("1"))
    with pytest.raises(PreconditionError):
        check_fixed_wreath_embedding(k3.unrooted(), k3.with_root("1"))


# ----------------------------------------------------------------------- skew


def test_pair_blocks_partition_by_second_coordinate():
    gh = comb_product(p(2), p(2, root="1"))
    assert pair_blocks(gh.labels) == (
        (("1", "1"), ("2", "1")),
        (("1", "2"), ("2", "2")),
    )


def test_find_skew_on_a_full_symmetric_comb():
    gh = comb_product(p(2), p(2, root="1"))
    blocks = pair_blocks(gh.labels)
    skew = find_skew(gh, blocks)
    assert skew is not None
    assert not preserves_partition(skew, blocks)
    assert skew in fer_group(gh)
    assert cycle_notation(skew) == "(1.1 2.1 2.2 1.2)"


def test_find_skew_via_the_copy_swapping_automorphism():
    """A disconnected copy graph has a skew even among plain automorphisms."""
    h = LabeledGraph(("1", "2", "3"), (("1", "2"),), root="1")
    gh = comb_product(p(2), h)
    skew = find_skew(gh, pair_blocks(gh.labels))
    assert skew is not None and not preserves_partition(skew, pair_blocks(gh.labels))


def test_skew_is_a_block_breaking_member_of_e_g():
    """Slow route: listing E_G finds a block breaker exactly when find_skew does.

    Every comb of a corpus graph on 1-3 labels with one on 1-4 labels at
    each root, up to 6 labels: 115 combs, 32 of them with a skew.
    """
    combs = skews = 0
    for m in range(1, 4):
        for n in range(1, min(4, 6 // m) + 1):
            for g in corpus(m):
                for h in corpus(n, rooted=True):
                    gh = comb_product(g, h)
                    blocks = pair_blocks(gh.labels)
                    members = generating_set(gh)
                    skew = find_skew(gh, blocks)
                    breaks = not all(preserves_partition(q, blocks) for q in members)
                    assert (skew is not None) == breaks
                    if skew is not None:
                        assert skew in set(members)
                    combs += 1
                    skews += skew is not None
    assert (combs, skews) == (115, 32)


def test_no_skew_in_the_counterexample():
    """Fer of the 12-vertex counterexample is exactly the wreath group."""
    gh = comb_product(example("counterexample_G"), example("counterexample_H"))
    assert find_skew(gh, pair_blocks(gh.labels)) is None


# -------------------------------------------------------------- big corollary


def test_big_corollary_verdicts():
    assert check_big_corollary(p(2), p(3, root="1")) == "full-symmetric"
    assert check_big_corollary(p(3), example("counterexample_H")) == "wreath"
    assert check_big_corollary(p(2), family("b_family", 2)) == "full-symmetric"


def test_big_corollary_checks_its_preconditions():
    with pytest.raises(PreconditionError):
        check_big_corollary(p(2), C4.with_root("1"))


THIRTY_LABEL_COMBS = [
    (("path", 3), ("path", 10), "full-symmetric"),
    (("path", 2), ("path", 15), "full-symmetric"),
    (("path", 5), ("path", 6), "full-symmetric"),
    (("path", 6), ("path", 5), "full-symmetric"),
    (("path", 2), ("complete", 15), "wreath"),
]


def test_comb_checkers_at_thirty_labels():
    """Both wreath embeddings hold and the big corollary's verdict is pinned
    for five 30-label combs; each Fer(g∗h) order agrees with sympy's BSGS."""
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    started = time.perf_counter()
    groups = []
    for (g_name, n), (h_name, m), verdict in THIRTY_LABEL_COMBS:
        g, h = family(g_name, n), family(h_name, m, root="1")
        assert check_wreath_embedding(g, h) and check_fixed_wreath_embedding(g, h)
        assert check_big_corollary(g, h) == verdict
        groups.append(fer_group(comb_product(g, h)))
    assert time.perf_counter() - started < 3  # the engine's share; sympy's is not timed
    f = math.factorial
    for group, ((_, n), (_, m), verdict) in zip(groups, THIRTY_LABEL_COMBS):
        order = f(m) ** n * f(n) if verdict == "wreath" else f(30)
        assert group.order == order
        assert SymGroup([SymPerm(list(x.perm)) for x in group.generators]).order() == order


# -------------------------------------------------------------------- reports


def test_classify_a_path():
    report = classify_graph(family("path", 4))
    data = report.to_json()
    assert data["fer_order"] == "24" and data["local_amoeba"] is True
    assert data["global_amoeba"] is True
    assert data["root"] == "1"
    assert data["stem_symmetric_at_root"] is True
    assert data["fer_orbits"] == [["1", "2", "3", "4"]]


def test_classify_unrooted_leaves_root_fields_null():
    data = classify_graph(C4).to_json()
    assert data["root"] is None
    assert data["stem_symmetric_at_root"] is None
    assert data["witnesses"]["block_system"] == [["1", "3"], ["2", "4"]]


def test_classify_the_counterexample():
    data = classify_graph(example("counterexample_GH_labeled")).to_json()
    assert data["fer_order"] == "82944"
    assert data["local_amoeba"] is False
    assert data["witnesses"]["skew"] is None
    assert data["witnesses"]["block_system"] == [
        ["1", "2", "3", "4"],
        ["10", "11", "12", "9"],
        ["5", "6", "7", "8"],
    ]


def test_classify_pair_labeled_graph_reports_its_skew():
    gh = comb_product(p(2), p(2, root="1"))
    data = classify_graph(gh).to_json()
    assert data["local_amoeba"] is True
    assert data["witnesses"]["skew"] is not None


def test_classify_non_transitive_graph_has_no_block_witness():
    g = LabeledGraph(("1", "2", "3", "4"), (("1", "2"), ("1", "3"), ("2", "3")))
    data = classify_graph(g).to_json()
    assert data["witnesses"]["block_system"] is None
    assert data["fer_orbits"] == [["1", "2", "3"], ["4"]]


def test_report_json_is_serializable_and_ordered():
    data = classify_graph(family("path", 3)).to_json()
    text = json.dumps(data)
    assert json.loads(text) == data
    assert isinstance(data["fer_order"], str)  # exact order, no float rounding


def test_fer_order_in_report_matches_group_engine():
    for g in corpus(4):
        assert int(classify_graph(g).to_json()["fer_order"]) == fer_group(g).order


# ------------------------------------------- classify's rules, by the slow route


def _rule_cases():
    # corpus(3) holds {1,2,3} with the edge 12 rooted at 3: stem-symmetric
    # there, but its hang group fixes 3, so only transitivity says "not Sym".
    for n in range(1, 7):
        yield from corpus(n, rooted=True)
    for n in range(2, 13):
        yield p(n, root="1")
    for n in range(2, 9):
        yield family("complete", n, root="1")
    for name in EXAMPLE_NAMES:
        g = example(name)
        yield g if g.root is not None else g.with_root(g.labels[0])
    yield comb_product(family("path", 4), family("path", 3))


def test_classify_flags_match_plain_table_orders():
    """Every flag classify decides by orbits and subgroup bounds equals the
    answer read off the group's full Sims table."""
    for g in _rule_cases():
        n, i = len(g.labels), g.root
        report = classify_graph(g)
        groups = {
            "local_amoeba": (fer_group(g), math.factorial(n)),
            "global_amoeba": (fer_group(star(g)), math.factorial(n + 1)),
            "stem_symmetric_at_root": (fer_fixed_group(g, i), math.factorial(n - 1)),
            "hang_symmetric_at_root": (hang_group(g, i), math.factorial(n)),
        }
        for flag, (group, full) in groups.items():
            assert getattr(report, flag) == (group.order == full), (g, flag)
            assert is_symmetric(group) == (group.order == math.factorial(len(group.domain)))
        # Stem-transitivity as first defined: every orbit of Fer^i off i is all of X - {i}.
        rest = {x for x in g.labels if x != i}
        off_root = [set(o) for o in fer_fixed_group(g, i).orbits if i not in o]
        assert report.stem_transitive_at_root == all(o == rest for o in off_root), g


# ---------------------------------------------------------------- relabelling


def _parts(parts) -> set:
    return None if parts is None else {frozenset(part) for part in parts}


def _witness_in_order(group, order):
    """group.block_witness with the domain read in the given order instead."""
    if not is_transitive(group):
        return None
    systems = (minimal_block_system(group, (order[0], x)) for x in order[1:])
    return next((system for system in systems if len(system) > 1), None)


def test_classify_does_not_depend_on_the_label_names():
    """Each graph of _rule_cases, renamed by a seeded random bijection onto
    fresh labels (so at other domain positions), has the same order, flags and
    orbits.  The block witness is the first system in domain order, so the
    renamed graph's, mapped back, is the one that order picks in g's group."""
    rng = random.Random(1)
    for g in _rule_cases():
        names = [f"relabel-{k}" for k in rng.sample(range(10_000), len(g.labels))]
        back = dict(zip(names, g.labels))
        a, b = classify_graph(g), classify_graph(relabel(g, dict(zip(g.labels, names))))
        assert back[b.root] == a.root
        for field in ("fer_order", "local_amoeba", "global_amoeba", "stem_symmetric_at_root",
                      "hang_symmetric_at_root", "stem_transitive_at_root",
                      "has_root_similar_vertex"):
            assert getattr(a, field) == getattr(b, field), (g, field)
        mapped = [[back[x] for x in o] for o in b.fer_orbits]
        assert _parts(mapped) == _parts(a.fer_orbits), g
        order = [back[x] for x in sorted_domain(names)]
        blocks = None if b.block_system is None else [[back[x] for x in o] for o in b.block_system]
        assert _parts(blocks) == _parts(_witness_in_order(fer_group(g), order)), g


def test_the_block_witness_of_c6_depends_on_the_label_order():
    """Fer(C6) is Aut(C6), with two nontrivial block systems through "1": the
    triangles and the antipodal pairs.  The witness joins domain[0] to the
    first label that gives a nontrivial system, so renaming 4 to sort second
    turns the witness from the triangles into the pairs; both are blocks."""
    c6 = LabeledGraph(tuple("123456"), tuple(zip("123456", "234561")))
    names = dict(zip("142356", "abcdef"))
    back = {y: x for x, y in names.items()}
    triangles = classify_graph(c6).block_system
    pairs = [[back[x] for x in o] for o in classify_graph(relabel(c6, names)).block_system]
    assert _parts(triangles) == _parts(["135", "246"])
    assert _parts(pairs) == _parts(["14", "25", "36"])
    assert is_block_system(fer_group(c6), triangles) and is_block_system(fer_group(c6), pairs)


def test_sims_tables_built_classifying_corpus5_at_every_root(sims_tables):
    """Work pin: a cold memo (fresh labels) classifies every 5-vertex class at
    every root with 19 Sims tables, where one table per Sym question takes 408:
    the others are settled by a transposition or 3-cycle generator whose merge
    certifies Alt, by intransitivity, or, for a hang group, by G not local."""
    for g in corpus(5, rooted=True):
        classify_graph(relabel(g, {x: "sims-pin-" + x for x in g.labels}))
    assert len(sims_tables) == 19


@pytest.mark.parametrize(
    "checker, tables",
    [(check_theorem3, 0), (check_hang_correspondence, 16)],
    ids=["thm3", "hangcorr"],
)
def test_sims_tables_built_checking_corpus4_and_5_at_every_root(sims_tables, checker, tables):
    """Work pin: a cold memo runs the checker on every 4- and 5-vertex class at
    every root with this many Sims tables."""
    for n in (4, 5):
        for g in corpus(n, rooted=True):
            checker(relabel(g, {x: f"{checker.__name__}-pin-" + x for x in g.labels}))
    assert len(sims_tables) == tables


def test_thirty_label_sym_shapes_classify_without_a_sims_table(sims_tables):
    """Work pin: every Sym question of path30, K30 and the edgeless graph on 30
    labels is answered by Jordan's certificate (cold memo, fresh labels)."""
    edgeless = LabeledGraph(tuple(str(k) for k in range(1, 31)))
    for g in (family("path", 30), family("complete", 30), edgeless):
        fresh = relabel(g, {x: "jordan-pin-" + x for x in g.labels})
        report = classify_graph(fresh.with_root("jordan-pin-1"))
        assert report.local_amoeba and report.fer_order == math.factorial(30)
    assert sims_tables == []
