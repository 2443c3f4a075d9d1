"""Write bench/reference.json: the answers every benchmark op is checked against.

Run once, from the repository root:  python3 bench/make_reference.py

None of these answers comes from the group engine being timed.  Each graph's
replacement set E_G is rebuilt with networkx's VF2 matcher, and group orders,
orbits and primitivity come from sympy's BSGS.  For graphs of at most six
labels, the Fer order is also recomputed by the package's brute-force oracle
(reachability walk times the n!-filtered automorphisms).  The frozen values
of tests/test_acceptance.py and closed forms (n! for paths, complete graphs
and stars) are asserted on top.  The table is keyed by graph identity before
relabeling; the benchmark maps every answer back through its relabeling.
Needs sympy and networkx (the package's test extras).
"""

from __future__ import annotations

import json
import math
import os
import sys

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from amoebagraph import brute_automorphisms, corpus, reachability  # noqa: E402
from amoebagraph.permgroup import flat  # noqa: E402

import workloads  # noqa: E402


class Graph:
    """A graph as flat label strings and edges, with its replacement set."""

    def __init__(self, labels, edges, root=None):
        self.labels = [flat(x) for x in labels]
        self.index = {x: k for k, x in enumerate(self.labels)}
        self.edges = [(flat(u), flat(v)) for u, v in edges]
        self.root = None if root is None else flat(root)
        self.n = len(self.labels)
        self.nx = self._nx(self.edges)
        self.aut = self._isos(self.nx)
        self.E = set(self.aut)
        self.feasible = 0
        present = {frozenset(e) for e in self.edges}
        absent = [
            (u, v)
            for k, u in enumerate(self.labels)
            for v in self.labels[k + 1 :]
            if frozenset((u, v)) not in present
        ]
        for removed in self.edges:
            kept = [e for e in self.edges if e != removed]
            for added in absent:
                replaced = self._nx(kept + [added])
                if nx.is_isomorphic(replaced, self.nx):
                    self.feasible += 1
                    self.E.update(self._isos(replaced))
        self.fer = group(self.E, self.n)
        self.order = order(self.E, self.fer, only_aut=self.feasible == 0)

    def _nx(self, edges):
        g = nx.Graph()
        g.add_nodes_from(self.labels)
        g.add_edges_from(edges)
        return g

    def _isos(self, replaced) -> list:
        """Every p (index tuples) mapping `replaced` onto this graph."""
        matcher = GraphMatcher(replaced, self.nx)
        return [
            tuple(self.index[m[x]] for x in self.labels)
            for m in matcher.isomorphisms_iter()
        ]

    def degree(self, x) -> int:
        return self.nx.degree(x)

    def orbits(self, grp) -> list:
        parts = grp.orbits() if grp is not None else [{k} for k in range(self.n)]
        return sorted(sorted(self.labels[k] for k in part) for part in parts)

    def fixed(self, i):
        k = self.index[i]
        return [p for p in self.E if p[k] == k]


def group(perms, n):
    """sympy group of the given index tuples, generators reduced by sifting."""
    kept = []
    grp = None
    for p in sorted(perms):
        if p == tuple(range(n)):
            continue
        q = SymPerm(list(p))
        if grp is None or not grp.contains(q):
            kept.append(q)
            grp = SymGroup(kept)
    return grp


def order(perms, grp, only_aut=False) -> int:
    """|<perms>|; when perms is Aut alone, its VF2 count must agree."""
    got = 1 if grp is None else int(grp.order())
    if only_aut:
        assert got == len(set(perms)), "Aut listed by VF2 is not closed"
    return got


def order_of(perms, n) -> int:
    return order(perms, group(perms, n))


def orbit_parts(perms, n) -> list:
    grp = group(perms, n)
    return [{k} for k in range(n)] if grp is None else grp.orbits()


def with_isolated(g: Graph, name: str) -> Graph:
    return Graph(g.labels + [name], g.edges, g.root)


def profile(g: Graph, roots, cli: bool = False) -> dict:
    """Everything classify (and, with cli, the check verbs) should answer."""
    n = g.n
    star = with_isolated(g, "*1")
    transitive = g.fer is not None and g.fer.is_transitive() if n > 1 else True
    local = g.order == math.factorial(n)
    block = n >= 2 and not local and transitive and not g.fer.is_primitive()
    out = {
        "order": str(g.order),
        "aut": len(g.aut),
        "orbits": g.orbits(g.fer),
        "local": local,
        "global": star.order == math.factorial(n + 1),
        "block": bool(block),
        "skew": False,
        "roots": {},
    }
    if cli:
        out["star_transitive"] = len(star.orbits(star.fer)) == 1
    for i in roots:
        k = g.index[i]
        fixed = g.fixed(i)
        fixed_order = order_of(fixed, n)
        rest = [part for part in orbit_parts(fixed, n) if k not in part]
        hang_order = order_of(set(fixed) | set(g.aut), n)
        at = {
            "fixed_order": str(fixed_order),
            "hang_order": str(hang_order),
            "stem": fixed_order == math.factorial(n - 1),
            "hang": hang_order == math.factorial(n),
            "transitive": len(rest) <= 1,
            "similar": any(p[k] != k for p in g.aut),
        }
        if cli:
            at.update(cli_root_checks(g, star, i, fixed))
        out["roots"][i] = at
    return out


def cli_root_checks(g: Graph, star: Graph, i, fixed) -> dict:
    """Expected parts of `check thm3` and `check hangcorr` at root i."""
    n = g.n
    star_fixed = star.fixed(i)
    k = star.index[i]
    a = order_of(star_fixed, n + 1) == math.factorial(n)
    b = len([part for part in orbit_parts(star_fixed, n + 1) if k not in part]) <= 1
    low = {x for x in g.labels if g.degree(x) <= 1}
    c = all(
        any(g.labels[j] in low for j in part)
        for part in orbit_parts(fixed, n)
        if part != {g.index[i]}
    )
    leaf = Graph(g.labels + ["+1"], g.edges + [(i, "+1")], "+1")
    dagger_stem = order_of(leaf.fixed("+1"), n + 1) == math.factorial(n)
    hang = order_of(set(fixed) | set(g.aut), n) == math.factorial(n)
    return {"thm3": [a, b, c], "hangcorr": dagger_stem == hang}


def product_graph(g: Graph, h: Graph) -> Graph:
    """G*H on "b.x" labels: a copy of h hung by its root at each vertex of g."""
    labels = [f"{b}.{x}" for x in g.labels for b in h.labels]
    edges = [(f"{h.root}.{u}", f"{h.root}.{v}") for u, v in g.edges]
    edges += [(f"{w}.{x}", f"{w2}.{x}") for x in g.labels for w, w2 in h.edges]
    return Graph(labels, edges, f"{h.root}.{g.root}")


def lifts(gh: Graph, g: Graph, h: Graph, copy_gens, base_gens) -> list:
    """Wreath generators: copy_gens on one copy of h, base_gens across g."""
    out = []
    for x in g.labels:
        for s in copy_gens:
            out.append(tuple(
                gh.index[f"{h.labels[s[h.index[b]]] if y == x else b}.{y}"]
                for b, y in (label.split(".", 1) for label in gh.labels)
            ))
    for t in base_gens:
        out.append(tuple(
            gh.index[f"{b}.{g.labels[t[g.index[y]]]}"]
            for b, y in (label.split(".", 1) for label in gh.labels)
        ))
    return out


def pair_profile(g: Graph, h: Graph) -> dict:
    gh = product_graph(g, h)
    target = gh.fer
    wreath = all(target.contains(SymPerm(list(p))) for p in lifts(
        gh, g, h, set(h.fixed(h.root)) | set(h.aut), g.E))
    fixed_target = group(gh.fixed(gh.root), gh.n)
    fixed_lifts = lifts(gh, g, h, h.fixed(h.root), g.fixed(g.root))
    fixedwreath = all(
        p == tuple(range(gh.n)) or (fixed_target is not None and fixed_target.contains(SymPerm(list(p))))
        for p in fixed_lifts
    )
    n, m = g.n, h.n
    if gh.order == math.factorial(m) ** n * math.factorial(n):
        bigcor = "wreath"
    elif gh.order == math.factorial(m * n):
        bigcor = "full-symmetric"
    else:
        bigcor = "violated"
    hang_h = order_of(set(h.fixed(h.root)) | set(h.aut), m) == math.factorial(m)
    g_global = with_isolated(g, "*1").order == math.factorial(n + 1)
    g_local_leaf = g.order == math.factorial(n) and any(g.degree(x) == 1 for x in g.labels)
    assert g_global and hang_h and g_local_leaf, "a pair breaks a checker precondition"
    return {
        "labels": gh.n,
        "edges": len(gh.edges),
        "wreath": wreath,
        "fixedwreath": fixedwreath,
        "bigcor": bigcor,
    }


def from_labeled(g) -> Graph:
    return Graph(g.labels, g.edges, g.root)


def oracle_order(g) -> int:
    return len(reachability(g).reached) * len(brute_automorphisms(g))


def main() -> None:
    table = {"corpus": {}, "named": {}, "pairs": {}}
    for n in (5, 6):
        for rep in corpus(n):
            g = from_labeled(rep)
            entry = profile(g, g.labels)
            assert int(entry["order"]) == oracle_order(rep), workloads.corpus_key(rep)
            table["corpus"][workloads.corpus_key(rep)] = entry
        print(f"corpus {n}: done", file=sys.stderr)

    cli_singles = {x for x, _o, _p in workloads.CLI_CYCLES}
    cli_oracle = {o for _x, o, _p in workloads.CLI_CYCLES}
    for name in workloads.LARGE_FER:
        g = from_labeled(workloads.NAMED[name]())
        table["named"][name] = {"order": str(g.order), "aut": len(g.aut)}
        assert g.order == math.factorial(g.n - 1 if name.startswith("K1,") else g.n), name
    for name in dict.fromkeys(workloads.LARGE_CLASSIFY + tuple(sorted(cli_singles | cli_oracle))):
        if name in workloads.PRODUCTS:
            gname, hname = workloads.PRODUCTS[name]
            g = product_graph(
                from_labeled(workloads.NAMED[gname]()), from_labeled(workloads.NAMED[hname]())
            )
            entry = profile(g, [g.root])
            # pair labels always carry the canonical {B x {x}} partition
            entry["block"] = True
            blocks = {}
            for label in g.labels:
                blocks.setdefault(label.split(".", 1)[1], set()).add(g.index[label])
            parts = list(blocks.values())
            entry["skew"] = any(
                any({p[k] for k in part} not in [set(q) for q in parts] for part in parts)
                for p in g.E
            )
        else:
            labeled = workloads.NAMED[name]()
            g = from_labeled(labeled)
            entry = profile(g, [g.root], cli=name in cli_singles)
            if g.n <= 6:
                assert int(entry["order"]) == oracle_order(labeled), name
        table["named"][name] = entry
        print(f"{name}: done", file=sys.stderr)
    for _x, _o, (gname, hname) in workloads.CLI_CYCLES:
        g = from_labeled(workloads.NAMED[gname]())
        h = from_labeled(workloads.NAMED[hname]())
        table["pairs"][f"{gname}*{hname}"] = pair_profile(g, h)

    # Frozen values of tests/test_acceptance.py and closed forms.
    named = table["named"]
    assert named["GH"]["order"] == "82944" and named["GH"]["aut"] == 2
    assert named["hang8"]["roots"]["1"]["hang_order"] == "40320"
    assert named["hang8"]["roots"]["1"]["fixed_order"] == "720"
    assert named["b3"]["roots"]["+1"]["stem"]
    for name in ("P2", "P4", "P5", "P6", "P14"):
        assert named[name]["order"] == str(math.factorial(int(name[1:]))), name
    assert table["pairs"]["cG*cH"]["bigcor"] == "wreath"

    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
