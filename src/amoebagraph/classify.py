"""Amoeba classification flags and theorem checkers.

Checkers recompute their stated preconditions (raising PreconditionError on
violation) and report falsifications as data: a disagreeing tuple or a
"violated" verdict is a result, never an exception.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple

from .construct import comb_product, dagger, star
from .fer import (
    aut_generators,
    fer_fixed_group,
    fer_group,
    hang_group,
)
from .lgraph import GraphError, LabeledGraph
from .permgroup import (
    Permutation,
    cycle_notation,
    flat,
    is_block_system,
    is_symmetric,
    is_transitive,
    label_key,
    preserves_partition,
    wreath_product,
)


class PreconditionError(ValueError):
    """Raised when a checker's recomputed precondition fails."""


def _pick_root(g: LabeledGraph, given):
    if given is None:
        if g.root is None:
            raise GraphError("graph has no root; pass a label explicitly")
        return g.root
    if given not in set(g.labels):
        raise GraphError(f"unknown label {flat(given)!r}")
    return given


def is_local_amoeba(g: LabeledGraph) -> bool:
    """Whether Fer(G) is all of Sym(labels)."""
    return is_symmetric(fer_group(g))


def is_global_amoeba(g: LabeledGraph) -> bool:
    """Whether G plus a fresh isolated vertex is a local amoeba."""
    return is_local_amoeba(star(g))


def is_stem_symmetric(g: LabeledGraph, b=None) -> bool:
    """Whether Fer^b(G) has order (n-1)! — full symmetry off the stem label."""
    b = _pick_root(g, b)
    if not is_stem_transitive(g, b):
        return False
    return fer_fixed_group(g, b).order == math.factorial(len(g.labels) - 1)


def is_hang_symmetric(g: LabeledGraph, i=None) -> bool:
    """Whether <E^i ∪ Aut(G)> is all of Sym(labels); it lies in Fer(G), so
    only a local amoeba can be."""
    i = _pick_root(g, i)
    return is_local_amoeba(g) and is_symmetric(hang_group(g, i))


def is_stem_transitive(g: LabeledGraph, i=None) -> bool:
    """Whether <E^i> acts transitively on the labels other than i."""
    i = _pick_root(g, i)
    # Fer^i(G) fixes i, so {i} is one orbit and the rest must be at most one more.
    return len(fer_fixed_group(g, i).orbits) <= 2


def has_root_similar_vertex(g: LabeledGraph, k=None) -> bool:
    """Whether some automorphism moves label k (default: the root)."""
    k = _pick_root(g, k)
    return any(a(k) != k for a in aut_generators(g))


def check_theorem3(g: LabeledGraph, i=None) -> tuple:
    """The stem-symmetry triple for g rooted at i; the parts must agree.

    a: G plus a fresh isolated vertex is stem-symmetric at i.
    b: the same Fer^i acts transitively off i.
    c: every orbit of Fer^i(G) away from i contains a label of degree <= 1.
    """
    i = _pick_root(g, i)
    starred = star(g)
    a = is_stem_symmetric(starred, i)
    b = is_stem_transitive(starred, i)
    low = {x for x in g.labels if g.degree(x) <= 1}
    c = all(
        any(x in low for x in orbit)
        for orbit in fer_fixed_group(g, i).orbits
        if set(orbit) != {i}
    )
    return (a, b, c)


def check_global_transitive(g: LabeledGraph) -> tuple:
    """(global amoeba?, Fer of G-plus-isolated-vertex transitive?); must agree."""
    starred = star(g)
    return (is_local_amoeba(starred), is_transitive(fer_group(starred)))


def check_hang_correspondence(g: LabeledGraph, j=None) -> bool:
    """Whether stem-symmetry of G† at the new leaf equals hang-symmetry at j."""
    j = _pick_root(g, j)
    daggered = dagger(g.with_root(j))
    return is_stem_symmetric(daggered, daggered.root) == is_hang_symmetric(g, j)


def pair_blocks(labels) -> tuple:
    """The block partition {B×{x}} of a pair-labeled domain, grouped by x."""
    if not labels or not all(isinstance(x, tuple) for x in labels):
        raise GraphError("labels are not (b, x) pairs")
    groups = defaultdict(list)
    for b, x in labels:
        groups[x].append((b, x))
    blocks = [tuple(sorted(block, key=label_key)) for block in groups.values()]
    return tuple(sorted(blocks, key=lambda block: label_key(block[0])))


def check_wreath_embedding(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Whether Hang(h) ≀ Fer(g) sits inside Fer(g∗h) with blocks {B×{x}}."""
    if h.root is None:
        raise PreconditionError("h must be rooted")
    if not is_global_amoeba(g):
        raise PreconditionError("g is not a global amoeba")
    target = fer_group(comb_product(g, h))
    w = wreath_product(hang_group(h, h.root), fer_group(g))
    blocks = pair_blocks(w.domain)
    return all(gen in target for gen in w.generators) and is_block_system(w, blocks)


def check_fixed_wreath_embedding(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Whether Fer^j(h) ≀ Fer^i(g) sits inside Fer^{(j,i)}(g∗h)."""
    if g.root is None or h.root is None:
        raise PreconditionError("both graphs must be rooted")
    product = comb_product(g, h)
    target = fer_fixed_group(product, product.root)
    w = wreath_product(fer_fixed_group(h, h.root), fer_fixed_group(g, g.root))
    return all(gen in target for gen in w.generators)


def find_skew(gh: LabeledGraph, blocks) -> Permutation | None:
    """First generator of Fer(gh), in `amoeba fer` order, that breaks the blocks.

    Each generator lies in E_G, and Fer(gh) = <E_G> keeps the blocks exactly
    when every generator does, so None means no member of E_G breaks them.
    """
    breakers = (p for p in fer_group(gh).generators if not preserves_partition(p, blocks))
    return next(breakers, None)


def check_big_corollary(g: LabeledGraph, h: LabeledGraph) -> str:
    """Verdict on |Fer(g∗h)|: "wreath", "full-symmetric", or "violated"."""
    if not is_local_amoeba(g) or not g.leaves():
        raise PreconditionError("g must be a local amoeba with a leaf")
    if h.root is None or not is_hang_symmetric(h, h.root):
        raise PreconditionError("h must be hang-symmetric at its root")
    n, m = len(g.labels), len(h.labels)
    got = fer_group(comb_product(g, h)).order
    if got == math.factorial(m) ** n * math.factorial(n):
        return "wreath"
    if got == math.factorial(m * n):
        return "full-symmetric"
    return "violated"


class ClassificationReport(
    namedtuple(
        "ClassificationReport",
        "root fer_order fer_orbits local_amoeba global_amoeba stem_symmetric_at_root"
        " hang_symmetric_at_root stem_transitive_at_root has_root_similar_vertex"
        " skew block_system",
    )
):
    """Everything classify computes for one graph, JSON-serializable; the root
    flags are None when unrooted, and skew and block_system without a witness."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "root": None if self.root is None else flat(self.root),
            "fer_order": str(self.fer_order),
            "fer_orbits": [[flat(x) for x in orbit] for orbit in self.fer_orbits],
            "local_amoeba": self.local_amoeba,
            "global_amoeba": self.global_amoeba,
            "stem_symmetric_at_root": self.stem_symmetric_at_root,
            "hang_symmetric_at_root": self.hang_symmetric_at_root,
            "stem_transitive_at_root": self.stem_transitive_at_root,
            "has_root_similar_vertex": self.has_root_similar_vertex,
            "witnesses": {
                "skew": None if self.skew is None else cycle_notation(self.skew),
                "block_system": None
                if self.block_system is None
                else [[flat(x) for x in block] for block in self.block_system],
            },
        }


def classify_graph(g: LabeledGraph) -> ClassificationReport:
    """Full classification; root-dependent flags are None for unrooted graphs.

    Witnesses: pair-labeled graphs carry the canonical {B×{x}} partition and
    its skew (if some generator breaks it); otherwise a transitive,
    non-symmetric Fer group is probed for a nontrivial minimal block system.
    The local, global, stem and hang flags are the four predicates' answers.
    """
    group = fer_group(g)
    local = is_local_amoeba(g)
    skew = blocks = None
    if all(isinstance(x, tuple) for x in g.labels):
        blocks = pair_blocks(g.labels)
        skew = find_skew(g, blocks)
    elif not local:
        blocks = group.block_witness
    global_ = is_global_amoeba(g)
    at_root = (is_stem_symmetric, is_hang_symmetric, is_stem_transitive, has_root_similar_vertex)
    stem, hang, transitive, similar = (None if g.root is None else f(g) for f in at_root)
    return ClassificationReport(
        root=g.root,
        fer_order=group.order,
        fer_orbits=group.orbits,
        local_amoeba=local,
        global_amoeba=global_,
        stem_symmetric_at_root=stem,
        hang_symmetric_at_root=hang,
        stem_transitive_at_root=transitive,
        has_root_similar_vertex=similar,
        skew=skew,
        block_system=blocks,
    )
