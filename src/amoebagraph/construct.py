"""Graph builders: star, dagger, comb products, glued graphs, named families.

Fresh labels are deterministic: star vertices take the first unused "*k",
dagger leaves the first unused "+k", so repeated constructions are stable.
Comb products keep structured (b, x) pair labels in memory; the named
family constructors flatten them to dotted strings before returning.
"""

from __future__ import annotations

from .lgraph import GraphError, LabeledGraph, disjoint_union, relabel
from .permgroup import flat


def fresh_label(labels, prefix: str) -> str:
    """First label of the form prefix + k not already present."""
    taken = set(labels)
    k = 1
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


def star(g: LabeledGraph) -> LabeledGraph:
    """G*: g plus a fresh isolated vertex; the root, if any, carries over."""
    return LabeledGraph(g.labels + (fresh_label(g.labels, "*"),), g.edges, g.root)


def dagger(g: LabeledGraph) -> LabeledGraph:
    """G†: g plus a fresh leaf joined to the root, rerooted at the new leaf."""
    if g.root is None:
        raise GraphError("dagger needs a rooted graph")
    leaf = fresh_label(g.labels, "+")
    return LabeledGraph(g.labels + (leaf,), g.edges + ((g.root, leaf),), leaf)


def comb_product(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """G ∗ H: a copy of h glued by its root at every vertex of g.

    Vertices are pairs (b, x) with b from h and x from g; the spine copy of
    g sits on the pairs (root_h, x).  Rooted at (root_h, root_g) when g is
    rooted, unrooted otherwise.
    """
    if h.root is None:
        raise GraphError("comb product needs h rooted")
    labels = tuple((b, x) for x in g.labels for b in h.labels)
    edges = [((h.root, u), (h.root, v)) for u, v in g.edges]
    edges += [((w, x), (w2, x)) for x in g.labels for w, w2 in h.edges]
    root = None if g.root is None else (h.root, g.root)
    return LabeledGraph(labels, tuple(edges), root)


def glue(h1: LabeledGraph, j1: LabeledGraph, u, v) -> LabeledGraph:
    """Disjoint union of h1 and j1 plus the bridging edge u-v."""
    if u not in set(h1.labels):
        raise GraphError(f"bridge endpoint {flat(u)!r} is not in the first graph")
    if v not in set(j1.labels):
        raise GraphError(f"bridge endpoint {flat(v)!r} is not in the second graph")
    return disjoint_union(h1.unrooted(), j1.unrooted()).add_edge(u, v)


def flatten_labels(g: LabeledGraph) -> LabeledGraph:
    """Replace structured pair labels by their dotted string forms."""
    return relabel(g, {x: flat(x) for x in g.labels})


def _path(n: int) -> LabeledGraph:
    labels = tuple(str(i) for i in range(1, n + 1))
    edges = tuple((str(i), str(i + 1)) for i in range(1, n))
    return LabeledGraph(labels, edges, "1")


def _complete(n: int) -> LabeledGraph:
    labels = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        (str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return LabeledGraph(labels, edges)


def _a_family(n: int) -> LabeledGraph:
    rung = _path(2)
    g = rung
    for _ in range(n - 1):
        g = comb_product(g, rung)
    return flatten_labels(g)


def _cube() -> LabeledGraph:
    labels = tuple(str(i + 1) for i in range(8))
    edges = tuple(
        (str(i + 1), str(j + 1))
        for i in range(8)
        for j in range(i + 1, 8)
        if bin(i ^ j).count("1") == 1
    )
    return LabeledGraph(labels, edges)


FAMILY_NAMES = ("path", "complete", "a_family", "b_family", "cube")


def family(name: str, n: int | None = None, root=None) -> LabeledGraph:
    """Named family member: path(n), complete(n), a_family(n), b_family(n), cube.

    path(n) is rooted at the leaf "1"; a_family/b_family follow the comb and
    dagger root conventions; complete and cube are unrooted.  An explicit
    root overrides the default.
    """
    if name == "cube":
        if n is not None:
            raise GraphError("cube does not take a size parameter")
        g = _cube()
    else:
        if name not in FAMILY_NAMES:
            raise GraphError(f"unknown family {name!r}")
        if n is None or n < 1:
            raise GraphError(f"family {name!r} needs a size n >= 1")
        if name == "path":
            g = _path(n)
        elif name == "complete":
            g = _complete(n)
        elif name == "a_family":
            g = _a_family(n)
        else:
            g = dagger(_a_family(n))
    if root is not None:
        g = g.with_root(root)
    return g


EXAMPLE_NAMES = (
    "fig1",
    "hang_symm_8",
    "counterexample_G",
    "counterexample_H",
    "counterexample_GH_labeled",
)


def example(name: str) -> LabeledGraph:
    """Named example graph.

    - fig1: 5 vertices with edge labels {13, 23, 34, 45}.
    - hang_symm_8: ladder-like tree — top path 1-2-3-4 with rungs 15, 26,
      37, 48; hang-symmetric at 1 but not stem-symmetric there.
    - counterexample_G: P3 rooted at a leaf.
    - counterexample_H: triangle 1-2-3 with pendant 4 on 2, rooted at the
      degree-2 vertex 1.
    - counterexample_GH_labeled: their comb product with (b, x) named
      4(x-1)+b, so on labels 1..12 (spine 1-5-9, one triangle-with-pendant
      per spine vertex), rooted at 1 — the comb product whose Fer group is
      exactly S4 ≀ S3.
    """
    if name == "fig1":
        labels = tuple(str(i) for i in range(1, 6))
        return LabeledGraph(labels, (("1", "3"), ("2", "3"), ("3", "4"), ("4", "5")))
    if name == "hang_symm_8":
        labels = tuple(str(i) for i in range(1, 9))
        edges = (("1", "2"), ("2", "3"), ("3", "4"),
                 ("1", "5"), ("2", "6"), ("3", "7"), ("4", "8"))
        return LabeledGraph(labels, edges)
    if name == "counterexample_G":
        return _path(3)
    if name == "counterexample_H":
        return LabeledGraph(
            ("1", "2", "3", "4"),
            (("1", "2"), ("1", "3"), ("2", "3"), ("2", "4")),
            "1",
        )
    if name == "counterexample_GH_labeled":
        gh = comb_product(example("counterexample_G"), example("counterexample_H"))
        return relabel(gh, {(b, x): str(4 * int(x) + int(b) - 4) for b, x in gh.labels})
    raise GraphError(f"unknown example {name!r}")
