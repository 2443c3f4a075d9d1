"""Spans, counters and the staged layer calls of a traced pass.

Staging calls the public functions of each layer in dependency order on one
graph object.  Every result is memoised per unrooted graph inside `fer`, so
each stage's span holds only that stage's own work, and the operation called
last is left with its own module's self time.  Counters come from wrappers
the benchmark installs around public functions; nothing in the package
changes.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from amoebagraph import construct, fer, permgroup
from amoebagraph import (
    EdgeReplacement,
    feasible_replacements,
    fer_coset,
    fer_fixed_group,
    fer_group,
    generating_set,
    hang_group,
)


class Tracer:
    """Spans kept in memory: [name, layer, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self._counted = set()

    def begin(self, name: str, layer: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self.stack.pop()][3] = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str):
        self.begin(name, layer)
        try:
            yield
        finally:
            self.end()

    def wrap(self, func, name: str, layer: str):
        """func, recorded as a span of its own on every call."""

        def traced(*args, **kwargs):
            self.begin(name, layer)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()

        return traced

    def install(self) -> None:
        """Count compose calls, and span the isomorphism calls fer makes."""
        counts = self.counts
        compose = permgroup.compose
        are_isomorphic = fer.are_isomorphic
        label_isomorphisms = fer.label_isomorphisms

        def counted_compose(a, b):
            counts["permgroup.compose_calls"] += 1
            return compose(a, b)

        def counted_iso(h, g):
            counts["lgraph.iso_calls"] += 1
            return are_isomorphic(h, g)

        def counted_label_iso(h, g):
            counts["lgraph.label_iso_calls"] += 1
            found = label_isomorphisms(h, g)
            if h == g:
                counts["lgraph.aut_elements"] += len(found)
            return found

        permgroup.compose = counted_compose
        fer.are_isomorphic = self.wrap(counted_iso, "iso", "lgraph")
        fer.label_isomorphisms = self.wrap(counted_label_iso, "label_iso", "lgraph")

    def stage(self, g, root=None, base=True, order=False, fixed=False, hang=False, star=False):
        """Run the layers an operation on g needs, one span per stage.

        base: Aut(g) as the neutral coset, the feasible replacements and E_G;
        order: the Schreier-Sims order of Fer(g); fixed/hang: the groups
        derived at `root` and their orders; star: the same for G* (g plus
        an isolated vertex), whose order decides the global flag.
        """
        if base:
            with self.span("aut", "lgraph"):
                fer_coset(g, EdgeReplacement())
            with self.span("feasible", "fer"):
                feasible = feasible_replacements(g)
            with self.span("generating_set", "fer"):
                gens = generating_set(g)
                group = fer_group(g)
            key = g.unrooted()
            if key not in self._counted:
                self._counted.add(key)
                n, m = len(g.labels), len(g.edges)
                self.counts["fer.candidates"] += m * (n * (n - 1) // 2 - m)
                self.counts["fer.feasible"] += len(feasible) - 1
                self.counts["fer.generators"] += len(gens)
            if order:
                with self.span("order", "permgroup"):
                    group.order
        for wanted, derive in ((fixed, fer_fixed_group), (hang, hang_group)):
            if wanted:
                with self.span("derived", "fer"):
                    derived = derive(g, root)
                with self.span("order", "permgroup"):
                    derived.order
        if star:
            with self.span("star", "construct"):
                starred = construct.star(g)
            self.stage(starred, order=True)
