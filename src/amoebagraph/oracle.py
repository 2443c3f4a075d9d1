"""Brute-force ground truth, independent of the group engine.

Cosets and automorphisms come from filtering the full n! permutations;
reachability runs a BFS over labeled copies realizing the original
"sequence of feasible edge-replacements" definition.  Graphs are held as int
edge masks, one bit per label pair; the corpus marks each class's orbit of
masks by closure under a transposition and an n-cycle.  Size guards are hard
errors — a silently truncated search would report false negatives.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import combinations, permutations as all_orderings

from .lgraph import LabeledGraph
from .permgroup import Permutation

COSET_LIMIT = 8
REACH_LIMIT = 6
COPY_LIMIT = 100_000
CORPUS_LIMIT = 6


class SizeGuardError(ValueError):
    """Raised when an input exceeds a brute-force size guard."""


def _pair_bits(labels) -> tuple:
    """The label pairs in canonical edge order, and bits[i][j] = bits[j][i] =
    1 << k for the k-th pair, at positions i and j (i < j)."""
    n = len(labels)
    bits = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        bits[i][j] = bits[j][i] = 1 << k
    return list(combinations(labels, 2)), bits


def _edges(mask: int, pairs) -> tuple:
    return tuple(pair for k, pair in enumerate(pairs) if mask >> k & 1)


def _relabelings(g: LabeledGraph, edges) -> Iterator[int]:
    """The mask of the images of edges under each ordering of g's labels, in
    all_orderings(g.labels) order, so the identity's comes first."""
    spots = [(g.labels.index(u), g.labels.index(v)) for u, v in edges]
    _, bits = _pair_bits(g.labels)
    for images in all_orderings(range(len(g.labels))):
        mask = 0
        for i, j in spots:
            mask |= bits[images[i]][images[j]]
        yield mask


def _edge_filter(g: LabeledGraph, source_edges) -> list:
    """Every permutation of g's labels that maps each source edge to an edge of g.

    With as many source edges as g has edges, a bijection sending every one
    of them to an edge of g sends them onto g's edge set.  Refused above
    COSET_LIMIT labels.
    """
    if len(g.labels) > COSET_LIMIT:
        raise SizeGuardError(f"brute filter capped at {COSET_LIMIT} labels")
    target = next(_relabelings(g, g.edges))
    return [
        Permutation(g.labels, images)
        for images, mask in zip(all_orderings(g.labels), _relabelings(g, source_edges))
        if mask | target == target
    ]


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
    if len(g.labels) > REACH_LIMIT:
        raise SizeGuardError(f"reachability capped at {REACH_LIMIT} labels")
    copies = set(_relabelings(g, g.edges))
    if len(copies) > COPY_LIMIT:
        raise SizeGuardError(f"too many labeled copies ({len(copies)} > {COPY_LIMIT})")
    pairs, _ = _pair_bits(g.labels)
    singles = [1 << k for k in range(len(pairs))]
    visited = {next(_relabelings(g, g.edges))}
    queue = deque(visited)
    transitions = 0
    while queue:
        state = queue.popleft()
        for kept in [state ^ removed for removed in singles if state & removed]:
            for candidate in [kept | added for added in singles if not kept & added]:
                if candidate in copies:
                    transitions += 1
                    if candidate not in visited:
                        visited.add(candidate)
                        queue.append(candidate)
    reached = frozenset(_edges(mask, pairs) for mask in visited)
    return ReachabilitySet(g, reached, transitions, len(copies))


def corpus(n: int, rooted: bool = False) -> Iterator[LabeledGraph]:
    """One representative per isomorphism class on n vertices (n <= 6).

    Labels are "1".."n".  With rooted=True, each representative is yielded
    once per root choice.  Enumeration walks edge bitmasks in numeric order;
    each mask not yet marked is a representative, and a closure under the
    transposition (1 2) and the n-cycle, which generate Sym(n), marks its
    whole orbit.  So representatives are the numerically least masks of
    their classes.
    """
    if not 1 <= n <= CORPUS_LIMIT:
        raise SizeGuardError(f"corpus capped at {CORPUS_LIMIT} labels")
    labels = tuple(str(i) for i in range(1, n + 1))
    pairs, bits = _pair_bits(labels)
    tables = []
    for images in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        image = [0]  # image[mask] is mask's image; pass k adds the masks topped by bit k
        for bit in [bits[images[i]][images[j]] for i, j in combinations(range(n), 2)]:
            image += [member | bit for member in image]
        tables.append(image)
    visited = bytearray(len(tables[0]))
    for mask in range(len(visited)):
        if visited[mask]:
            continue
        stack = [mask]
        while stack:
            member = stack.pop()
            if not visited[member]:
                visited[member] = 1
                stack.extend(image[member] for image in tables)
        g = LabeledGraph(labels, _edges(mask, pairs))
        if rooted:
            for x in labels:
                yield g.with_root(x)
        else:
            yield g
