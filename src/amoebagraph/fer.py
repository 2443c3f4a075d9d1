"""Feasible edge-replacements, their permutation cosets, and Fer groups.

A replacement e1 -> e2 removes one present edge and adds one absent edge;
it is feasible when the result is isomorphic (as an unlabeled graph) to the
original.  Fer_G(e1 -> e2) is the set of permutations whose embedding
realizes the replaced graph; it is a left coset of Aut(G).  The union E_G
of all cosets generates the group Fer(G).

The feasible search runs the isomorphism test only on swaps that keep two
invariants every isomorphism keeps, each checked in constant time: the
degree multiset, which changes only at the swap's endpoints, and the number
of components, which changes only when e1 is a bridge of G or e2 joins two
components of G - e1 (labelled once per removed edge).  Dropping only swaps
that change an invariant keeps the search exact.

Each label set and edge set has one memo record, built on first use and
found without rebuilding the graph, so every root choice of one graph
shares it.  It holds the groups by generators, so no group is listed:
strong generators of Aut(G), and one pass over the swaps that keeps each
feasible replacement with one member of its coset; Fer(G) is generated by
both.  One entry per label i holds the fixed group and the hang group,
generated from the members of the cosets that a transversal of i's
Aut-orbit turns into members fixing i.  G* (G plus an isolated label)
reuses G's record, and searches only the swaps that add an edge at that
label.  Only fer_coset and generating_set list permutations: the explicit
cosets and E_G, built when asked for.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .lgraph import (
    GraphError,
    LabeledGraph,
    _canonical_edge,
    are_isomorphic,
    automorphism_generators,
    first_isomorphism,
    label_isomorphisms,
)
from .permgroup import (
    Permutation,
    PermutationGroup,
    flat,
    group_from_generators,
    schreier_generators,
    strip,
    transversal,
)


class EdgeReplacement(namedtuple("EdgeReplacement", "removed added")):
    """An edge swap removed -> added; both None is the neutral replacement.

    A swap of an edge for itself collapses to the neutral replacement.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, removed: tuple | None = None, added: tuple | None = None):
        if (removed is None) != (added is None):
            raise GraphError("replacement needs both edges, or neither")
        if removed is not None:
            removed = _canonical_edge(*removed)
            added = _canonical_edge(*added)
            if removed == added:
                removed = added = None
        return tuple.__new__(cls, (removed, added))

    @property
    def is_neutral(self) -> bool:
        return self.removed is None


def apply_replacement(g: LabeledGraph, r: EdgeReplacement) -> LabeledGraph:
    """The replaced graph g - removed + added; neutral returns g unchanged.

    The removed edge must be present and the added one absent (GraphError
    otherwise); whether the result is isomorphic to g is a separate question
    answered by feasible_replacements.
    """
    if r.is_neutral:
        return g
    return g.remove_edge(*r.removed).add_edge(*r.added)


def _components_without(g: LabeledGraph, removed: tuple) -> dict:
    """Each label's component number in g minus the edge removed."""
    component = {}
    number = 0
    for start in g.labels:
        if start in component:
            continue
        number += 1
        component[start] = number
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in component and removed not in ((x, y), (y, x)):
                    component[y] = number
                    stack.append(y)
    return component


def _fixing(p: Permutation, domain: tuple, z) -> Permutation:
    """p, a permutation of domain without z, extended by z -> z."""
    image = dict(zip(p.domain + (z,), p.images + (z,)))
    return Permutation(domain, [image[x] for x in domain])


class _GraphMemo:
    """Everything fer derives from one label set and edge set, each part built once.

    Roots play no part, so graphs that differ only in their root share one
    record.  Every coset is Aut(G)∘σ for any one member σ, so Fer(G) is
    generated by Aut(G)'s generators and one σ_r per feasible replacement r,
    found on the replaced graph the feasible search has just built.  For a
    label i with transversal u_j (u_j(i) = j) of its Aut-orbit, the members
    of coset r fixing i are Aut_i∘τ_r with τ_r = u_j^-1∘σ_r, j = σ_r(i),
    when j lies in the orbit, and there are none otherwise.  Hence Fer^i(G)
    is generated by Aut_i and the τ_r, and the hang group by Aut(G) and the
    τ_r; one entry per label holds both.  G* builds on G's record (_parent).
    """

    def __init__(self, g: LabeledGraph):
        self.g = g
        self.cosets = {}
        self.groups_at = {}

    def coset(self, r: EdgeReplacement) -> tuple:
        if r not in self.cosets:
            self.cosets[r] = label_isomorphisms(apply_replacement(self.g, r), self.g)
        return self.cosets[r]

    @cached_property
    def _parent(self) -> tuple:
        """(record of h = g - z, z) if z is g's only isolated label and h has a
        record, else (None, None).  Exact: for e1, e2 avoiding z, z stays
        isolated, so g - e1 + e2 ≅ g exactly when h - e1 + e2 ≅ h.  Neither h
        nor h - e1 + e2 (same degrees) has an isolated label, so
        _matching_order puts z (score 0, every other at least 1) last, every
        other pool is h's class list in the same order, and z's pool is {z}:
        each search on g, the prefix-forced ones of automorphism_generators
        too, visits h's nodes and then maps z to z."""
        z = self.g.isolated()
        parent = _records.get((tuple(x for x in self.g.labels if x not in z), self.g.edges))
        return (parent, z[0]) if len(z) == 1 and parent is not None else (None, None)

    @cached_property
    def swaps(self) -> dict:
        """Each non-neutral feasible replacement r, in edge order, to σ_r.  G*
        takes G's and searches only swaps adding an edge at z (so e1 a bridge)."""
        g = self.g
        parent, z = self._parent
        absent = g.non_edges()
        swaps, tried = {}, absent
        if parent is not None:
            swaps = {r: _fixing(s, g.labels, z) for r, s in parent.swaps.items()}
            tried = [added for added in absent if z in added]
        degree = {x: g.degree(x) for x in g.labels}
        for removed in g.edges:
            a, b = removed
            component = _components_without(g, removed)
            bridge = component[a] != component[b]
            base = None
            for added in tried:
                c, d = added
                # Skip swaps that change the component count or degree multiset.
                if bridge != (component[c] != component[d]):
                    continue
                change = {a: -1, b: -1}
                change[c] = change.get(c, 0) + 1
                change[d] = change.get(d, 0) + 1
                before = sorted(degree[x] for x in change)
                if before != sorted(degree[x] + s for x, s in change.items()):
                    continue
                if base is None:
                    base = g.remove_edge(*removed)
                replaced = base.add_edge(*added)
                if are_isomorphic(replaced, g):
                    swaps[EdgeReplacement(removed, added)] = first_isomorphism(replaced, g)
        at = {e: k for k, e in enumerate(g.edges + absent)}
        return dict(sorted(swaps.items(), key=lambda rs: (at[rs[0].removed], at[rs[0].added])))

    @cached_property
    def aut_gens(self) -> tuple:
        parent, z = self._parent
        if parent is not None:
            return tuple(_fixing(p, self.g.labels, z) for p in parent.aut_gens)
        return automorphism_generators(self.g)

    @cached_property
    def generating_set(self) -> tuple:
        # The cosets are disjoint: g - e1 + e2 determines e1 and e2.
        return tuple(p for r in (EdgeReplacement(), *self.swaps) for p in self.coset(r))

    @cached_property
    def group(self) -> PermutationGroup:
        gens = self.aut_gens + tuple(self.swaps.values())
        return group_from_generators(gens, domain=self.g.labels)

    def at(self, i) -> tuple:
        """Fer^i(G) and the hang group at i, both generated with the τ_r."""
        if i not in self.groups_at:
            labels = self.g.labels
            u = transversal(self.aut_gens, labels, i)
            aut_i = schreier_generators(self.aut_gens, u, i)
            taus = tuple(strip(u, i, s) for s in self.swaps.values() if s(i) in u)
            self.groups_at[i] = (
                group_from_generators(aut_i + taus, domain=labels),
                group_from_generators(self.aut_gens + taus, domain=labels),
            )
        return self.groups_at[i]


_records = {}


def _memo(g: LabeledGraph, *asked) -> _GraphMemo:
    """The record of g's labels and edges; each asked label must be one of them."""
    for i in asked:
        if i not in set(g.labels):
            raise GraphError(f"unknown label {flat(i)!r}")
    key = (g.labels, g.edges)
    if key not in _records:
        _records[key] = _GraphMemo(g)
    return _records[key]


def aut_generators(g: LabeledGraph) -> tuple:
    """Strong generators of Aut(G) (lgraph.automorphism_generators), kept per graph."""
    return _memo(g).aut_gens


def feasible_replacements(g: LabeledGraph) -> tuple:
    """The neutral replacement plus every feasible edge swap, in edge order."""
    return (EdgeReplacement(), *_memo(g).swaps)


def fer_coset(g: LabeledGraph, r: EdgeReplacement) -> tuple:
    """Fer_G(removed -> added): every p with embed(g, p) = g - removed + added,
    sorted as label_isomorphisms sorts them; empty when the replaced graph is
    not isomorphic to g."""
    return _memo(g).coset(r)


def generating_set(g: LabeledGraph) -> tuple:
    """E_G: the feasible cosets, concatenated in replacement order (neutral first)."""
    return _memo(g).generating_set


def fer_group(g: LabeledGraph) -> PermutationGroup:
    """Fer(G) = <E_G>, the feasible edge-replacement group."""
    return _memo(g).group


def fer_fixed_group(g: LabeledGraph, i) -> PermutationGroup:
    """Fer^i(G) = <E^i_G>, E^i_G being the members of E_G fixing label i."""
    return _memo(g, i).at(i)[0]


def hang_group(g: LabeledGraph, i) -> PermutationGroup:
    """The hang group <E^i_G ∪ Aut(G)>."""
    return _memo(g, i).at(i)[1]
