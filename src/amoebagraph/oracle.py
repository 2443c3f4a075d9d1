"""Brute-force ground truth, independent of the group engine.

Cosets and automorphisms come from filtering the full n! permutations;
reachability runs a BFS over labeled copies realizing the original
"sequence of feasible edge-replacements" definition.  Size guards are hard
errors — a silently truncated search would report false negatives.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import permutations as all_orderings

from .lgraph import LabeledGraph, _canonical_edge, _edge_key
from .permgroup import Permutation

COSET_LIMIT = 8
REACH_LIMIT = 6
COPY_LIMIT = 100_000
CORPUS_LIMIT = 6


class SizeGuardError(ValueError):
    """Raised when an input exceeds a brute-force size guard."""


def _canonical_state(edges) -> tuple:
    pairs = [_canonical_edge(u, v) for u, v in edges]
    return tuple(sorted(pairs, key=_edge_key))


def _mapped_state(mapping: dict, edges) -> tuple:
    return _canonical_state((mapping[u], mapping[v]) for u, v in edges)


def _edge_filter(g: LabeledGraph, source_edges) -> list:
    """Every permutation of g's labels that maps each source edge to an edge of g.

    With as many source edges as g has edges, a bijection sending every one
    of them to an edge of g sends them onto g's edge set.  Refused above
    COSET_LIMIT labels.
    """
    if len(g.labels) > COSET_LIMIT:
        raise SizeGuardError(f"brute filter capped at {COSET_LIMIT} labels")
    edges = {frozenset(e) for e in g.edges}
    found = []
    for images in all_orderings(g.labels):
        mapping = dict(zip(g.labels, images))
        if all(frozenset((mapping[u], mapping[v])) in edges for u, v in source_edges):
            found.append(Permutation(g.labels, images))
    return found


def brute_automorphisms(g: LabeledGraph) -> list:
    """Aut(g) by filtering all n! permutations (n <= 8)."""
    return _edge_filter(g, g.edges)


def brute_coset(g: LabeledGraph, r) -> list:
    """Fer_G(r) by the full n! filter (n <= 8), for a swap r with fields
    removed and added, both None for the neutral swap.

    Empty when g - removed + added is not isomorphic to g; GraphError, as from
    fer_coset, when the removed edge is absent or the added one present.
    """
    replaced = g if r.removed is None else g.remove_edge(*r.removed).add_edge(*r.added)
    return _edge_filter(g, replaced.edges)


class ReachabilitySet(namedtuple("ReachabilitySet", "start reached transitions total_copies")):
    """BFS closure of a graph under feasible edge-replacements."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"reached": len(self.reached), "total_copies": self.total_copies}


def reachability(g: LabeledGraph) -> ReachabilitySet:
    """All labeled copies of g reachable by feasible single-edge replacements.

    A move removes one present edge and adds one absent (or the same) edge
    such that the result is again a labeled copy of g.  The transition count
    tallies every accepted move, revisits included.
    """
    n = len(g.labels)
    if n > REACH_LIMIT:
        raise SizeGuardError(f"reachability capped at {REACH_LIMIT} labels")
    total = math.factorial(n) // len(brute_automorphisms(g))
    if total > COPY_LIMIT:
        raise SizeGuardError(f"too many labeled copies ({total} > {COPY_LIMIT})")
    copies = set()
    for images in all_orderings(g.labels):
        copies.add(_mapped_state(dict(zip(g.labels, images)), g.edges))
    all_pairs = [
        (u, v)
        for k, u in enumerate(g.labels)
        for v in g.labels[k + 1 :]
    ]
    start = _canonical_state(g.edges)
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
                candidate = _canonical_state(kept | {added})
                if candidate in copies:
                    transitions += 1
                    if candidate not in visited:
                        visited.add(candidate)
                        queue.append(candidate)
    return ReachabilitySet(g, frozenset(visited), transitions, total)


def corpus(n: int, rooted: bool = False) -> Iterator[LabeledGraph]:
    """One representative per isomorphism class on n vertices (n <= 6).

    Labels are "1".."n".  With rooted=True, each representative is yielded
    once per root choice.  Enumeration walks edge bitmasks in numeric order
    and marks whole relabeling orbits, so representatives are the
    lexicographically minimal members of their classes.
    """
    if not 1 <= n <= CORPUS_LIMIT:
        raise SizeGuardError(f"corpus capped at {CORPUS_LIMIT} labels")
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
