"""The records' contract: read-only fields, equality and hashing by field
tuple, pickle and deepcopy round trips, and the repr format."""

import copy
import pickle

import pytest

from amoebagraph import (
    EdgeReplacement,
    GraphError,
    LabeledGraph,
    Permutation,
    PermutationError,
    PermutationGroup,
    are_isomorphic,
    classify_graph,
    family,
    fer_group,
    group_from_generators,
    reachability,
)

RECORDS = {
    "graph": (lambda: family("path", 4, root="1"), "labels"),
    "group": (lambda: fer_group(family("path", 4)), "generators"),
    "replacement": (lambda: EdgeReplacement(("2", "1"), ("3", "1")), "added"),
    "reachability": (lambda: reachability(family("path", 3)), "reached"),
    "report": (lambda: classify_graph(family("path", 4, root="1")), "fer_order"),
    "permutation": (lambda: Permutation(("1", "2", "3"), ("2", "3", "1")), "perm"),
}

REBUILDS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_new_attributes_cannot_be_assigned(name):
    make, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_with_equal_hashes(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)


def test_a_graph_is_its_field_tuple_and_another_root_makes_it_unequal():
    g = family("path", 4, root="1")
    # Equal hashes to the field tuple keep set and dict orders, and so output bytes.
    assert g == (g.labels, g.edges, g.root) and hash(g) == hash((g.labels, g.edges, g.root))
    assert len(g) == 3 and tuple(g) == (g.labels, g.edges, g.root)
    assert g != g.with_root("2") and g == g.with_root("2").with_root("1")


def test_a_permutation_is_its_field_tuple_of_domain_and_positions():
    p = Permutation(("1", "2", "3"), ("2", "3", "1"))
    assert p == (p.domain, p.perm) and hash(p) == hash((p.domain, p.perm))
    assert len(p) == 2 and tuple(p) == (("1", "2", "3"), (1, 2, 0))
    assert p != p.inverse() and p == p.inverse().inverse()


def test_replacing_positions_goes_through_the_checks():
    p = Permutation(("1", "2", "3"), ("2", "3", "1"))
    assert p._replace(perm=(0, 2, 1)) == Permutation(p.domain, ("1", "3", "2"))
    for bad in ((0, 0, 1), (0, 1, 3), (0, 1, -1)):
        with pytest.raises(PermutationError, match="not a bijection"):
            p._replace(perm=bad)


def test_a_group_keeps_each_generator_once_and_no_identity():
    domain = ("1", "2", "3")
    p = Permutation(domain, ("2", "1", "3"))
    identity = Permutation(domain, domain)
    group = PermutationGroup(domain, (identity, p, p))
    assert group.generators == (p,) and group == group_from_generators([p], domain)
    assert PermutationGroup(("3", "1", "2"), (p,)).domain == domain


def test_a_generator_on_another_domain_is_refused():
    p = Permutation(("1", "2", "3"), ("2", "1", "3"))
    q = Permutation(("1", "2"), ("2", "1"))
    for gens, domain in (([p], ("1", "2")), ([p, q], None)):
        with pytest.raises(PermutationError, match="generator domain"):
            group_from_generators(gens, domain)


def test_replace_goes_through_the_checks():
    g = family("path", 3)
    assert g._replace(root="2") == g.with_root("2")
    with pytest.raises(GraphError, match="root 'z' is not a label"):
        g._replace(root="z")
    with pytest.raises(PermutationError, match="generator domain"):
        fer_group(g)._replace(domain=("1", "2"))
    r = EdgeReplacement(("1", "2"), ("1", "3"))
    assert r._replace(added=("2", "1")).is_neutral


@pytest.mark.parametrize("rebuild", REBUILDS.values(), ids=REBUILDS)
@pytest.mark.parametrize("name", RECORDS)
def test_records_round_trip(name, rebuild):
    record = RECORDS[name][0]()
    copied = rebuild(record)
    assert copied == record and type(copied) is type(record)


@pytest.mark.parametrize("rebuild", REBUILDS.values(), ids=REBUILDS)
def test_graphs_and_groups_round_trip_with_their_caches_filled(rebuild):
    g = family("path", 5, root="1")
    edited = g.remove_edge("1", "2").add_edge("1", "5")
    group = fer_group(g)
    assert are_isomorphic(g, edited) and group.generators[-1] in group
    assert group.order == 120 and group.orbits and group.block_witness is None
    for graph in (g, edited):
        copied = rebuild(graph)
        assert copied == graph and copied.neighbors("3") == graph.neighbors("3")
        assert are_isomorphic(copied, g) and copied.add_edge("2", "5") == graph.add_edge("2", "5")
    copied = rebuild(group)
    assert copied == group and copied.order == 120 and copied.orbits == group.orbits
    assert group.generators[0] in copied


def test_reprs_keep_their_format():
    g = LabeledGraph(("2", "1", "3"), (("2", "1"), ("3", "2")), "1")
    assert repr(g) == (
        "LabeledGraph(labels=('1', '2', '3'), edges=(('1', '2'), ('2', '3')), root='1')"
    )
    r = EdgeReplacement(("2", "1"), ("3", "1"))
    assert repr(r) == "EdgeReplacement(removed=('1', '2'), added=('1', '3'))"
    assert repr(EdgeReplacement()) == "EdgeReplacement(removed=None, added=None)"
