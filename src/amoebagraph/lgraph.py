"""Labeled graphs, embeddings under permutations, and isomorphism search.

A labeled graph is a simple graph whose vertices *are* its labels (strings,
or (b, x) pairs from comb products), plus an optional root label.  The JSON
file format is fixed: {"labels": [...], "edges": [[u, v], ...], "root": u}
with flattened labels, canonically ordered endpoints, and sorted lists.

One backtracking search answers every isomorphism question.  It matches
the vertices of h in an order fixed up front (most matched neighbours, then
highest degree, then first label), each to a vertex of g with the same
degree and neighbour degrees that sees exactly the images of its matched
neighbours.  The plan is built once per graph: h caches its order and g
its candidate pools, and add_edge/remove_edge patch the parent's adjacency
rather than re-validate.  are_isomorphic and first_isomorphism stop at the
first match.  Pairs forced up front let automorphism_generators find one
automorphism per new orbit point along its base, g's cached order: a
strong generating set of Aut(G) whose size grows with the number of
labels, not with |Aut(G)|.
"""

from __future__ import annotations

import bisect
import json
from collections import namedtuple
from functools import cached_property

from .permgroup import (
    Permutation,
    PermutationError,
    PermutationGroup,
    _index_of,
    _unchecked,
    flat,
    group_from_generators,
    label_key,
    sorted_domain,
    transversal,
)


class GraphError(ValueError):
    """Raised for structurally invalid graphs or graph edits."""


class FormatError(ValueError):
    """Raised for malformed graph JSON or DOT requests."""


def _canonical_edge(u, v) -> tuple:
    if u == v:
        raise GraphError(f"self-loop at {flat(u)!r}")
    return (u, v) if label_key(u) <= label_key(v) else (v, u)


def _edge_key(edge) -> tuple:
    return (label_key(edge[0]), label_key(edge[1]))


class LabeledGraph(namedtuple("LabeledGraph", "labels edges root")):
    """Simple graph on a label set, with an optional root label."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, labels: tuple, edges: tuple = (), root: object | None = None):
        domain = sorted_domain(labels)
        if not domain:
            raise GraphError("graph needs at least one label")
        label_set = set(domain)
        canon = []
        seen = set()
        for u, v in edges:
            if u not in label_set or v not in label_set:
                raise GraphError(f"edge endpoint not a label: {flat(u)!r}-{flat(v)!r}")
            pair = _canonical_edge(u, v)
            if pair in seen:
                raise GraphError(f"duplicate edge {flat(pair[0])!r}-{flat(pair[1])!r}")
            seen.add(pair)
            canon.append(pair)
        canon.sort(key=_edge_key)
        if root is not None and root not in label_set:
            raise GraphError(f"root {flat(root)!r} is not a label")
        return tuple.__new__(cls, (domain, tuple(canon), root))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    @cached_property
    def _adjacency(self) -> dict:
        adj = {x: set() for x in self.labels}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {x: frozenset(nbrs) for x, nbrs in adj.items()}

    @cached_property
    def _invariants(self) -> dict:
        """Each label's degree and sorted neighbour degrees; isomorphisms keep them."""
        adj = self._adjacency
        return {x: (len(adj[x]), tuple(sorted(len(adj[y]) for y in adj[x]))) for x in adj}

    @cached_property
    def _order(self) -> tuple:
        """The unforced matching order, built once for every search on this graph."""
        return tuple(_matching_order(self))

    @cached_property
    def _classes(self) -> dict:
        """Each invariant to its labels in domain order: the candidate pools."""
        classes = {}
        for x in self.labels:
            classes.setdefault(self._invariants[x], []).append(x)
        return classes

    def _edited(self, edges: list, pair: tuple, change) -> "LabeledGraph":
        """A copy that skips the checks, its adjacency patched at pair's endpoints."""
        u, v = pair
        adj = dict(self._adjacency)
        adj[u], adj[v] = change(adj[u], (v,)), change(adj[v], (u,))
        g = tuple.__new__(LabeledGraph, (self.labels, tuple(edges), self.root))
        g.__dict__["_adjacency"] = adj
        return g

    def neighbors(self, x) -> frozenset:
        try:
            return self._adjacency[x]
        except KeyError:
            raise GraphError(f"unknown label {flat(x)!r}") from None

    def degree(self, x) -> int:
        return len(self.neighbors(x))

    def has_edge(self, u, v) -> bool:
        u, v = _canonical_edge(u, v)
        return v in self._adjacency.get(u, ())

    def leaves(self) -> tuple:
        """Labels of degree exactly 1."""
        return tuple(x for x in self.labels if self.degree(x) == 1)

    def isolated(self) -> tuple:
        """Labels of degree 0."""
        return tuple(x for x in self.labels if self.degree(x) == 0)

    def non_edges(self) -> tuple:
        """Canonical absent pairs, in domain order."""
        out = []
        for i, u in enumerate(self.labels):
            for v in self.labels[i + 1 :]:
                if v not in self._adjacency[u]:
                    out.append((u, v))
        return tuple(out)

    def add_edge(self, u, v) -> "LabeledGraph":
        """A copy with the edge added; the edge must be absent."""
        pair = _canonical_edge(u, v)
        if u not in self._adjacency or v not in self._adjacency:
            raise GraphError(f"edge endpoint not a label: {flat(u)!r}-{flat(v)!r}")
        if v in self._adjacency[u]:
            raise GraphError(f"edge {flat(u)!r}-{flat(v)!r} already present")
        edges = list(self.edges)
        bisect.insort(edges, pair, key=_edge_key)
        return self._edited(edges, pair, frozenset.union)

    def remove_edge(self, u, v) -> "LabeledGraph":
        """A copy with the edge removed; the edge must be present."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge {flat(u)!r}-{flat(v)!r} not present")
        pair = _canonical_edge(u, v)
        edges = list(self.edges)
        edges.remove(pair)
        return self._edited(edges, pair, frozenset.difference)

    def with_root(self, x) -> "LabeledGraph":
        return LabeledGraph(self.labels, self.edges, x)

    def unrooted(self) -> "LabeledGraph":
        return self if self.root is None else LabeledGraph(self.labels, self.edges)


def embed(g: LabeledGraph, p: Permutation) -> LabeledGraph:
    """The embedding G_p: edge ij present iff p(i)p(j) is an edge of g.

    The root is metadata and carries over unchanged.
    """
    if p.domain != g.labels:
        raise GraphError("permutation domain does not match graph labels")
    pinv = p.inverse()
    return LabeledGraph(g.labels, tuple((pinv(u), pinv(v)) for u, v in g.edges), g.root)


def relabel(g: LabeledGraph, mapping: dict) -> LabeledGraph:
    """Rename every label through a bijective mapping."""
    if set(mapping) != set(g.labels) or len(set(mapping.values())) != len(g.labels):
        raise GraphError("relabeling is not a bijection on the labels")
    return LabeledGraph(
        tuple(mapping[x] for x in g.labels),
        tuple((mapping[u], mapping[v]) for u, v in g.edges),
        None if g.root is None else mapping[g.root],
    )


def disjoint_union(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """Union of two graphs on disjoint label sets; keeps g's root if any."""
    overlap = set(g.labels) & set(h.labels)
    if overlap:
        raise GraphError(f"label collision in union: {sorted(map(flat, overlap))}")
    return LabeledGraph(g.labels + h.labels, g.edges + h.edges, g.root)


def _matching_order(h: LabeledGraph, first=()) -> list:
    """h's labels in search order: first, then by most matched neighbours,
    highest degree and first label."""
    adj, n = h._adjacency, len(h.labels)
    # One int ranks both keys, placed neighbours * n + degree, as degree < n.
    score = {v: len(adj[v]) for v in h.labels}
    order, rest = list(first), list(h.labels)
    for k in range(n):
        if k == len(order):
            order.append(max(rest, key=score.__getitem__))
        for u in adj[order[k]]:
            score[u] += n
        rest.remove(order[k])
    return order


def _isomorphisms(h: LabeledGraph, g: LabeledGraph, fixed=()):
    """Yield each bijection m with edge ij in h iff m(i)m(j) in g, as images of h.labels.

    Each (x, y) in fixed forces m(x) = y; those x are matched first.
    """
    if len(h.labels) != len(g.labels) or len(h.edges) != len(g.edges):
        return
    inv_h, inv_g = h._invariants, g._invariants
    if sorted(inv_h.values()) != sorted(inv_g.values()):
        return
    # Which vertex comes next never depends on images, so one order serves every
    # branch, and h's cached order serves every search whose forced labels lead it.
    adj_h, adj_g = h._adjacency, g._adjacency
    index = _index_of(h.labels)
    forced = dict(fixed)
    plan = h._order
    if tuple(forced) != plan[: len(forced)]:
        plan = _matching_order(h, forced)
    order, earlier, pools, placed = [], [], [], set()
    for v in plan:
        order.append(index[v])
        earlier.append(tuple(index[u] for u in adj_h[v] if u in placed))
        if v in forced:
            y = forced[v]
            pools.append([y] if inv_g.get(y) == inv_h[v] else [])
        else:
            pools.append(g._classes[inv_h[v]])
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


def label_isomorphisms(h: LabeledGraph, g: LabeledGraph) -> tuple:
    """Every permutation p with embed(g, p) == h (roots ignored), sorted.

    Sorted by the domain positions of the images (label_key order, x-major
    on pairs).  The graphs must share one label set; use are_isomorphic for
    the unlabeled question across different label sets.
    """
    if set(h.labels) != set(g.labels):
        raise GraphError("label sets differ; no permutation can relate the graphs")
    position = _index_of(h.labels)
    # Each match is a bijection onto h.labels, so its positions need no check.
    found = sorted(tuple(position[y] for y in t) for t in _isomorphisms(h, g))
    return tuple(_unchecked(h.labels, perm) for perm in found)


def are_isomorphic(h: LabeledGraph, g: LabeledGraph) -> bool:
    """Whether some label bijection maps g onto h (roots ignored)."""
    return next(_isomorphisms(h, g), None) is not None


def first_isomorphism(h: LabeledGraph, g: LabeledGraph, fixed=()):
    """The first p the search finds with embed(g, p) == h and p(x) = y for
    each (x, y) in fixed, or None when there is none."""
    if set(h.labels) != set(g.labels):
        raise GraphError("label sets differ; no permutation can relate the graphs")
    found = next(_isomorphisms(h, g, fixed), None)
    return None if found is None else Permutation(h.labels, found)


def automorphism_generators(g: LabeledGraph) -> tuple:
    """A strong generating set of Aut(g), without listing the group.

    The base v_0, ..., v_{n-1} is the search's matching order.  From the
    last level k down to 0, each w with v_k's invariants that lies outside
    v_0..v_{k-1} and outside v_k's orbit under the generators found so far
    gets one prefix-forced search for an automorphism fixing v_0..v_{k-1}
    and sending v_k to w.  The generators from levels k to n-1 then
    generate the pointwise stabilizer of v_0..v_{k-1} (Sims).
    """
    base = g._order
    gens = []
    for k in reversed(range(len(base))):
        v = base[k]
        prefix = [(x, x) for x in base[:k]]
        skip = set(base[:k]) | transversal(gens, g.labels, v).keys()
        for w in g.labels:
            if w in skip or g._invariants[w] != g._invariants[v]:
                continue
            found = first_isomorphism(g, g, prefix + [(v, w)])
            if found is not None:
                gens.append(found)
                skip |= transversal(gens, g.labels, v).keys()
    return tuple(gens)


def automorphism_group(g: LabeledGraph) -> PermutationGroup:
    """Aut(g), generated by automorphism_generators(g)."""
    return group_from_generators(automorphism_generators(g), domain=g.labels)


def _flat_names(g: LabeledGraph) -> dict:
    """Each label's dotted name; GraphError when two labels share one."""
    by_name = {}
    for x in g.labels:
        if by_name.setdefault(flat(x), x) != x:
            raise GraphError(f"two labels flatten to {flat(x)!r}")
    return {x: name for name, x in by_name.items()}


def to_json(g: LabeledGraph) -> str:
    """Serialize in the canonical JSON format (stable bytes)."""
    names = _flat_names(g)
    edges = sorted(sorted((names[u], names[v])) for u, v in g.edges)
    obj = {"labels": sorted(names.values()), "edges": edges}
    if g.root is not None:
        obj["root"] = names[g.root]
    return json.dumps(obj, indent=2) + "\n"


def from_json(text: str) -> LabeledGraph:
    """Parse the canonical JSON format; labels stay plain strings."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"invalid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise FormatError("top level must be an object")
    labels = obj.get("labels")
    if not isinstance(labels, list) or not all(
        isinstance(x, str) and x for x in labels
    ):
        raise FormatError('field "labels" must be a list of non-empty strings')
    ambiguous = [x for x in labels if any(c.isspace() or c in "(){}," for c in x)]
    if ambiguous:
        raise FormatError(f'field "labels" has {ambiguous[0]!r}: no whitespace or ( ) {{ }} ,')
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError('field "edges" must be a list of label pairs')
    label_set = set(labels)
    parsed = []
    for k, edge in enumerate(edges):
        if (
            not isinstance(edge, list)
            or len(edge) != 2
            or not all(isinstance(x, str) for x in edge)
        ):
            raise FormatError(f'field "edges[{k}]" must be a pair of labels')
        if edge[0] not in label_set or edge[1] not in label_set:
            raise FormatError(f'field "edges[{k}]" uses an unknown label')
        parsed.append(tuple(edge))
    root = obj.get("root")
    if root is not None and (not isinstance(root, str) or root not in label_set):
        raise FormatError('field "root" must be one of the labels')
    extra = set(obj) - {"labels", "edges", "root"}
    if extra:
        raise FormatError(f"unknown fields: {sorted(extra)}")
    try:
        return LabeledGraph(tuple(labels), tuple(parsed), root)
    except (GraphError, PermutationError) as err:
        raise FormatError(str(err)) from None


def to_dot(g: LabeledGraph) -> str:
    """Plain DOT dump: one line per vertex and per edge."""
    names = _flat_names(g)
    lines = ["graph {"]
    for x in g.labels:
        mark = " [root=true]" if x == g.root else ""
        lines.append(f'  "{names[x]}"{mark};')
    for u, v in g.edges:
        lines.append(f'  "{names[u]}" -- "{names[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
