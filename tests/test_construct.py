"""Builders for graph constructions and the named example graphs."""

import pytest

from amoebagraph import (
    GraphError,
    LabeledGraph,
    are_isomorphic,
    automorphism_group,
    comb_product,
    dagger,
    example,
    family,
    flatten_labels,
    glue,
    relabel,
    star,
)
from amoebagraph.construct import EXAMPLE_NAMES, FAMILY_NAMES, fresh_label

TRIANGLE_PENDANT = LabeledGraph(
    ("1", "2", "3", "4"), (("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"))
)


def test_fresh_label_skips_existing_names():
    assert fresh_label(("1", "2"), "*") == "*1"
    assert fresh_label(("1", "*1"), "*") == "*2"


# ----------------------------------------------------------------- star/dagger


def test_star_adds_one_isolated_vertex():
    g = family("path", 2)
    s = star(g)
    assert len(s.labels) == 3 and s.edges == g.edges
    assert s.isolated() == ("*1",) and s.root == g.root
    assert star(s).isolated() == ("*1", "*2")
    unrooted = star(g.unrooted())
    assert unrooted.isolated() == ("*1",) and unrooted.root is None
    assert unrooted.edges == g.edges


def test_dagger_hangs_a_leaf_at_the_root():
    g = family("path", 2)
    d = dagger(g)
    assert are_isomorphic(d, family("path", 3))
    assert d.root == "+1" and d.degree("+1") == 1
    assert d.degree(g.root) == g.degree(g.root) + 1
    with pytest.raises(GraphError):
        dagger(g.unrooted())


def test_dagger_of_a_family_is_b_family():
    for n in (1, 2, 3):
        assert dagger(family("a_family", n)) == family("b_family", n)


# --------------------------------------------------------------- comb product


def test_comb_product_shape():
    """|V| multiplies; |E(g*h)| = |E(g)| + |V(g)|*|E(h)|."""
    g = family("path", 3).unrooted()
    h = family("path", 2)
    gh = comb_product(g, h)
    assert len(gh.labels) == 6
    assert len(gh.edges) == len(g.edges) + len(g.labels) * len(h.edges)
    # spine between the root copies, teeth inside each copy
    assert gh.has_edge(("1", "1"), ("1", "2"))
    assert gh.has_edge(("1", "1"), ("2", "1"))
    assert not gh.has_edge(("2", "1"), ("2", "2"))


def test_comb_product_of_the_figure_sizes():
    """Triangle-with-pendant combed with the 6-vertex comb gives 24 vertices."""
    comb6 = comb_product(family("path", 3).unrooted(), family("path", 2))
    assert len(comb6.labels) == 6 and len(comb6.edges) == 5
    big = comb_product(TRIANGLE_PENDANT, flatten_labels(comb6).with_root("1.1"))
    assert len(big.labels) == 24
    assert len(big.edges) == 4 + 4 * 5


def test_comb_product_root_and_errors():
    g = family("path", 2)
    h = family("path", 2)
    assert comb_product(g, h).root == ("1", "1")
    assert comb_product(g.unrooted(), h).root is None
    with pytest.raises(GraphError):
        comb_product(g, h.unrooted())


def test_comb_product_is_associative_up_to_flattening():
    p2 = family("path", 2)
    left = comb_product(comb_product(p2.unrooted(), p2), p2)
    right = comb_product(p2.unrooted(), comb_product(p2.unrooted(), p2).with_root(("1", "1")))
    assert are_isomorphic(flatten_labels(left), flatten_labels(right))


def test_counterexample_figure_labeling():
    """The named 12-vertex graph is the comb product under (b, x) -> 4(x-1)+b."""
    gh = comb_product(example("counterexample_G"), example("counterexample_H"))
    mapping = {(b, x): str(4 * (int(x) - 1) + int(b)) for b, x in gh.labels}
    assert relabel(gh, mapping) == example("counterexample_GH_labeled")


# ----------------------------------------------------------------------- glue


def test_glue_two_paths_into_a_longer_one():
    p2 = family("path", 2).unrooted()
    other = relabel(p2, {"1": "3", "2": "4"})
    glued = glue(p2, other, "2", "3")
    assert glued.edges == (("1", "2"), ("2", "3"), ("3", "4"))
    assert are_isomorphic(glued, family("path", 4))


def test_glue_two_singletons_into_an_edge():
    k1a, k1b = LabeledGraph(("1",)), LabeledGraph(("2",))
    assert are_isomorphic(glue(k1a, k1b, "1", "2"), family("path", 2))


def test_glue_validates_endpoints_and_collisions():
    p2 = family("path", 2).unrooted()
    other = relabel(p2, {"1": "3", "2": "4"})
    with pytest.raises(GraphError):
        glue(p2, p2, "1", "2")
    with pytest.raises(GraphError):
        glue(p2, other, "9", "3")
    with pytest.raises(GraphError):
        glue(p2, other, "1", "9")


# ------------------------------------------------------------------- families


def test_path_family():
    g = family("path", 3)
    assert g.labels == ("1", "2", "3")
    assert g.edges == (("1", "2"), ("2", "3")) and g.root == "1"
    assert family("path", 1).labels == ("1",)
    assert family("path", 3, root="2").root == "2"


def test_complete_family():
    g = family("complete", 4)
    assert len(g.edges) == 6 and g.root is None
    assert all(g.degree(x) == 3 for x in g.labels)


def test_a_family_sizes_and_roots():
    for n in (1, 2, 3):
        a = family("a_family", n)
        assert len(a.labels) == 2**n
        assert a.root == ".".join(["1"] * n)


def test_b_family_sizes():
    for n in (1, 2, 3):
        b = family("b_family", n)
        assert len(b.labels) == 2**n + 1
        assert b.root == "+1" and b.degree("+1") == 1


def test_cube_family():
    q3 = family("cube")
    assert len(q3.labels) == 8 and len(q3.edges) == 12
    assert all(q3.degree(x) == 3 for x in q3.labels)
    assert automorphism_group(q3).order == 48
    with pytest.raises(GraphError):
        family("cube", 8)


def test_family_rejects_bad_requests():
    assert FAMILY_NAMES == ("path", "complete", "a_family", "b_family", "cube")
    with pytest.raises(GraphError):
        family("tree", 3)
    with pytest.raises(GraphError):
        family("path")
    with pytest.raises(GraphError):
        family("path", 0)


def test_flatten_labels_joins_pairs_with_dots():
    gh = comb_product(family("path", 2).unrooted(), family("path", 2))
    flat_gh = flatten_labels(gh)
    assert flat_gh.labels == ("1.1", "1.2", "2.1", "2.2")
    assert ("1.1", "2.1") in flat_gh.edges


# ------------------------------------------------------------------- examples


def test_example_names_are_fixed():
    assert EXAMPLE_NAMES == (
        "fig1",
        "hang_symm_8",
        "counterexample_G",
        "counterexample_H",
        "counterexample_GH_labeled",
    )
    with pytest.raises(GraphError):
        example("nope")


def test_fig1_shape():
    g = example("fig1")
    assert g.edges == (("1", "3"), ("2", "3"), ("3", "4"), ("4", "5"))
    assert g.degree("3") == 3 and g.root is None


def test_hang_symm_8_shape():
    g = example("hang_symm_8")
    assert len(g.labels) == 8
    assert sorted(g.leaves()) == ["5", "6", "7", "8"]


def test_counterexample_pieces():
    g = example("counterexample_G")
    assert g == family("path", 3)
    h = example("counterexample_H")
    assert len(h.labels) == 4 and len(h.edges) == 4
    assert h.leaves() == ("4",) and h.root == "1" and h.degree("1") == 2
    assert are_isomorphic(h, TRIANGLE_PENDANT)


def test_counterexample_gh_shape():
    gh = example("counterexample_GH_labeled")
    assert len(gh.labels) == 12 and len(gh.edges) == 14 and gh.root == "1"
    # three triangle-with-pendant copies chained by a spine through 1, 5, 9
    assert gh.has_edge("1", "5") and gh.has_edge("5", "9")
    triangles = [
        frozenset(t)
        for t in (("1", "2", "3"), ("5", "6", "7"), ("9", "10", "11"))
    ]
    for tri in triangles:
        nodes = sorted(tri)
        assert all(gh.has_edge(u, v) for u in nodes for v in nodes if u < v)
    assert sorted(gh.leaves(), key=int) == ["4", "8", "12"]
