"""The per-graph search plan against the per-search route it replaced.

The slow route below is the search as it stood before the plan was cached:
the matching order rebuilt for every search with tuple keys, the candidate
pools rebuilt by a scan over every label, and every edited graph fully
validated.  The fast route must give the same orders, the same matches in
the same order, and edited graphs equal to validated ones.
"""

from collections import Counter

import pytest

from amoebagraph import GraphError, LabeledGraph, comb_product, corpus, family
from amoebagraph.lgraph import _index_of, _isomorphisms, _matching_order


def _old_matching_order(h: LabeledGraph, first=()) -> list:
    """h's labels in search order: first, then by most matched neighbours,
    highest degree and first label."""
    adj = h._adjacency
    order = list(first)
    placed_nbrs = Counter(u for v in order for u in adj[v])
    skipped = set(order)
    rest = [v for v in h.labels if v not in skipped]
    while rest:
        v = max(rest, key=lambda v: (placed_nbrs[v], len(adj[v])))
        rest.remove(v)
        order.append(v)
        placed_nbrs.update(adj[v])
    return order


def _old_isomorphisms(h: LabeledGraph, g: LabeledGraph, fixed=()):
    """Yield each bijection m with edge ij in h iff m(i)m(j) in g, as images of h.labels.

    Each (x, y) in fixed forces m(x) = y; those x are matched first.
    """
    if len(h.labels) != len(g.labels) or len(h.edges) != len(g.edges):
        return
    inv_h, inv_g = h._invariants, g._invariants
    if sorted(inv_h.values()) != sorted(inv_g.values()):
        return
    # Which vertex comes next never depends on images, so one order serves every branch.
    adj_h, adj_g = h._adjacency, g._adjacency
    index = _index_of(h.labels)
    forced = dict(fixed)
    order, earlier, pools, placed = [], [], [], set()
    for v in _old_matching_order(h, forced):
        order.append(index[v])
        earlier.append(tuple(index[u] for u in adj_h[v] if u in placed))
        if v in forced:
            y = forced[v]
            pools.append([y] if inv_g.get(y) == inv_h[v] else [])
        else:
            pools.append([w for w in g.labels if inv_g[w] == inv_h[v]])
        placed.add(v)
    image = [None] * len(order)
    used = set()

    def extend(k):
        if k == len(order):
            yield tuple(image)
            return
        back = earlier[k]
        for w in pools[k]:
            # w sees the image of every earlier neighbour and no other image.
            if w in used or len(adj_g[w] & used) != len(back):
                continue
            if not all(image[j] in adj_g[w] for j in back):
                continue
            image[order[k]] = w
            used.add(w)
            yield from extend(k + 1)
            used.discard(w)

    yield from extend(0)


def _graphs():
    """corpus(1..6), paths 2-12, K2-K8 and the pair-labelled comb P4∗P3."""
    graphs = [g for n in range(1, 7) for g in corpus(n)]
    graphs += [family("path", n) for n in range(2, 13)]
    graphs += [family("complete", n) for n in range(2, 9)]
    graphs.append(comb_product(family("path", 4), family("path", 3)))
    return graphs


GRAPHS = _graphs()


def _validated(g: LabeledGraph, edges) -> LabeledGraph:
    return LabeledGraph(g.labels, tuple(edges), g.root)


def test_the_graph_set_includes_pair_labels():
    assert any(isinstance(x, tuple) for g in GRAPHS for x in g.labels)
    assert len(GRAPHS) > 200


def test_orders_match_the_per_search_order_with_and_without_forced_labels():
    for g in GRAPHS:
        order = _old_matching_order(g)
        assert list(g._order) == order == _matching_order(g)
        firsts = [order[:k] for k in range(len(order) + 1)]
        firsts += [[x] for x in g.labels] + [order[:2][::-1], order[::-1]]
        for first in firsts:
            forced = dict((x, x) for x in first)
            assert _matching_order(g, forced) == _old_matching_order(g, forced)


def test_replaced_graphs_yield_the_same_matches_in_the_same_order():
    searched = 0
    for g in GRAPHS:
        absent = g.non_edges()
        for removed in g.edges:
            base = g.remove_edge(*removed)
            kept = [e for e in g.edges if e != removed]
            for added in absent:
                replaced = base.add_edge(*added)
                slow = list(_old_isomorphisms(_validated(g, kept + [added]), g))
                assert list(_isomorphisms(replaced, g)) == slow
                searched += bool(slow)
    assert searched > 1000


def test_forced_searches_yield_the_same_matches_in_the_same_order():
    # One forced pair, which leads the cached order only for its first label;
    # every match is listed up to 6 labels, the first match beyond.
    for g in GRAPHS:
        for x in g.labels:
            for y in g.labels:
                fast, slow = _isomorphisms(g, g, [(x, y)]), _old_isomorphisms(g, g, [(x, y)])
                if len(g.labels) <= 6:
                    assert list(fast) == list(slow)
                else:
                    assert next(fast, None) == next(slow, None)


def test_prefix_forced_searches_find_the_same_first_match():
    # The searches of automorphism_generators, and the same pairs reordered
    # so that they no longer lead the cached order.
    for g in GRAPHS:
        order = g._order
        for k, v in enumerate(order):
            prefix = [(x, x) for x in order[:k]]
            for w in g.labels:
                for fixed in (prefix + [(v, w)], [(v, w)] + prefix[::-1]):
                    fast = next(_isomorphisms(g, g, fixed), None)
                    assert fast == next(_old_isomorphisms(g, g, fixed), None)


def _same_graph(edited: LabeledGraph, validated: LabeledGraph):
    assert edited.labels == validated.labels and edited.root == validated.root
    assert edited.edges == validated.edges
    assert edited._adjacency == validated._adjacency
    assert edited._invariants == validated._invariants
    assert edited == validated and hash(edited) == hash(validated)


def test_edited_graphs_equal_validated_ones():
    for g in GRAPHS:
        for u, v in g.edges:
            kept = [e for e in g.edges if e != (u, v)]
            _same_graph(g.remove_edge(u, v), _validated(g, kept))
            _same_graph(g.remove_edge(v, u), _validated(g, kept))
        for u, v in g.non_edges():
            _same_graph(g.add_edge(u, v), _validated(g, g.edges + ((u, v),)))
            _same_graph(g.add_edge(v, u), _validated(g, g.edges + ((v, u),)))
            for e in g.edges:
                kept = [x for x in g.edges if x != e] + [(v, u)]
                _same_graph(g.remove_edge(*e).add_edge(v, u), _validated(g, kept))


def test_edits_still_refuse_bad_edges():
    g = comb_product(family("path", 4), family("path", 3))
    (u, v), (x, y) = g.edges[0], g.non_edges()[0]
    for bad in (
        lambda: g.add_edge(u, v),
        lambda: g.add_edge(v, u),
        lambda: g.add_edge(x, x),
        lambda: g.add_edge(x, ("9", "9")),
        lambda: g.remove_edge(x, y),
        lambda: g.remove_edge(u, u),
        lambda: g.remove_edge(u, v).remove_edge(v, u),
        lambda: g.add_edge(x, y).add_edge(y, x),
    ):
        with pytest.raises(GraphError):
            bad()
