"""Feasible edge-replacements, their permutation cosets, and Fer groups.

A replacement e1 -> e2 removes one present edge and adds one absent edge;
it is feasible when the result is isomorphic (as an unlabeled graph) to the
original.  Fer_G(e1 -> e2) is the set of permutations whose embedding
realizes the replaced graph; it is a left coset of Aut(G).  The union E_G
of all cosets generates the group Fer(G).

Each unrooted graph has one memo record, built on first use: its cosets by
replacement (the neutral one is Aut(G), listed once), the feasible list,
E_G and Fer(G), and per label the fixed set, fixed group and hang group.
Queries over every root choice of one graph share that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .lgraph import (
    FormatError,
    GraphError,
    LabeledGraph,
    _canonical_edge,
    are_isomorphic,
    label_isomorphisms,
)
from .permgroup import (
    PermutationGroup,
    cycle_notation,
    flat,
    group_from_generators,
)

NEUTRAL = "∅"


class InfeasibleReplacementError(ValueError):
    """Raised when a replacement cannot be applied or breaks the isomorphism type."""


@dataclass(frozen=True)
class EdgeReplacement:
    """An edge swap removed -> added; both None is the neutral replacement.

    A swap of an edge for itself collapses to the neutral replacement.
    """

    removed: Optional[tuple] = None
    added: Optional[tuple] = None

    def __post_init__(self):
        if (self.removed is None) != (self.added is None):
            raise GraphError("replacement needs both edges, or neither")
        if self.removed is not None:
            removed = _canonical_edge(*self.removed)
            added = _canonical_edge(*self.added)
            if removed == added:
                removed = added = None
            object.__setattr__(self, "removed", removed)
            object.__setattr__(self, "added", added)

    @property
    def is_neutral(self) -> bool:
        return self.removed is None

    def __str__(self) -> str:
        return replacement_notation(self)


def replacement_notation(r: EdgeReplacement) -> str:
    """Render as "12->13" (single-char labels), "a,b->c,d" otherwise, "∅->∅"."""
    if r.is_neutral:
        return f"{NEUTRAL}->{NEUTRAL}"
    names = [flat(x) for x in (*r.removed, *r.added)]
    if all(len(name) == 1 for name in names):
        return f"{names[0]}{names[1]}->{names[2]}{names[3]}"
    return f"{names[0]},{names[1]}->{names[2]},{names[3]}"


def parse_replacement(text: str, labels) -> EdgeReplacement:
    """Parse replacement notation over the given label set."""
    by_flat = {flat(x): x for x in labels}
    left, arrow, right = text.partition("->")
    if not arrow:
        raise FormatError(f"not a replacement: {text!r}")

    def side(chunk: str):
        chunk = chunk.strip()
        if chunk in (NEUTRAL, "0"):
            return None
        if "," in chunk:
            names = [name.strip() for name in chunk.split(",")]
        elif len(chunk) == 2:
            names = [chunk[0], chunk[1]]
        else:
            raise FormatError(f"cannot read edge {chunk!r} in {text!r}")
        if len(names) != 2:
            raise FormatError(f"cannot read edge {chunk!r} in {text!r}")
        try:
            return (by_flat[names[0]], by_flat[names[1]])
        except KeyError as err:
            raise FormatError(f"unknown label {err.args[0]!r} in {text!r}") from None

    removed, added = side(left), side(right)
    if (removed is None) != (added is None):
        raise FormatError(f"half-neutral replacement: {text!r}")
    return EdgeReplacement(removed, added)


def apply_replacement(g: LabeledGraph, r: EdgeReplacement) -> LabeledGraph:
    """The replaced graph g - removed + added; neutral returns g unchanged.

    The removed edge must be present and the added one absent (GraphError
    otherwise); whether the result is isomorphic to g is a separate question
    answered by feasible_replacements.
    """
    if r.is_neutral:
        return g
    return g.remove_edge(*r.removed).add_edge(*r.added)


@dataclass(frozen=True)
class FerCoset:
    """All permutations realizing one feasible replacement (a left Aut-coset)."""

    replacement: EdgeReplacement
    perms: tuple

    @property
    def size(self) -> int:
        return len(self.perms)

    def to_json(self) -> dict:
        return {
            "replacement": replacement_notation(self.replacement),
            "perms": [cycle_notation(p) for p in self.perms],
        }


class _GraphMemo:
    """Everything fer derives from one unrooted graph, each part built once.

    Aut(G) is the neutral coset, E_G the concatenation of the cosets, and
    the fixed set, fixed group and hang group are kept per label.
    """

    def __init__(self, g: LabeledGraph):
        self.g = g
        self.cosets = {}
        self.fixed_sets = {}
        self.fixed_groups = {}
        self.hang_groups = {}

    def coset(self, r: EdgeReplacement) -> FerCoset:
        if r not in self.cosets:
            perms = label_isomorphisms(apply_replacement(self.g, r), self.g)
            if not perms:
                raise InfeasibleReplacementError(
                    f"replacement {replacement_notation(r)} changes the isomorphism type"
                )
            self.cosets[r] = FerCoset(r, perms)
        return self.cosets[r]

    @cached_property
    def feasible(self) -> tuple:
        g = self.g
        replacements = [EdgeReplacement()]
        absent = g.non_edges()
        for removed in g.edges:
            base = g.remove_edge(*removed)
            for added in absent:
                if are_isomorphic(base.add_edge(*added), g):
                    replacements.append(EdgeReplacement(removed, added))
        return tuple(replacements)

    @cached_property
    def generating_set(self) -> tuple:
        # The cosets are disjoint: g - e1 + e2 determines e1 and e2.
        return tuple(p for r in self.feasible for p in self.coset(r).perms)

    @cached_property
    def group(self) -> PermutationGroup:
        return group_from_generators(self.generating_set, domain=self.g.labels)

    def fixed_set(self, i) -> tuple:
        if i not in self.fixed_sets:
            self.fixed_sets[i] = tuple(p for p in self.generating_set if p(i) == i)
        return self.fixed_sets[i]

    def fixed_group(self, i) -> PermutationGroup:
        if i not in self.fixed_groups:
            gens = self.fixed_set(i)
            self.fixed_groups[i] = group_from_generators(gens, domain=self.g.labels)
        return self.fixed_groups[i]

    def hang_group(self, i) -> PermutationGroup:
        if i not in self.hang_groups:
            gens = self.fixed_set(i) + self.coset(EdgeReplacement()).perms
            self.hang_groups[i] = group_from_generators(gens, domain=self.g.labels)
        return self.hang_groups[i]


@lru_cache(maxsize=None)
def _memo(g: LabeledGraph) -> _GraphMemo:
    return _GraphMemo(g)


def _memo_at(g: LabeledGraph, i) -> _GraphMemo:
    if i not in set(g.labels):
        raise GraphError(f"unknown label {flat(i)!r}")
    return _memo(g.unrooted())


def feasible_replacements(g: LabeledGraph) -> tuple:
    """The neutral replacement plus every feasible edge swap, in edge order."""
    return _memo(g.unrooted()).feasible


def fer_coset(g: LabeledGraph, r: EdgeReplacement) -> FerCoset:
    """Fer_G(removed -> added): every p with embed(g, p) = g - removed + added."""
    return _memo(g.unrooted()).coset(r)


def generating_set(g: LabeledGraph) -> tuple:
    """E_G: the feasible cosets, concatenated in replacement order (neutral first)."""
    return _memo(g.unrooted()).generating_set


def fer_group(g: LabeledGraph) -> PermutationGroup:
    """Fer(G) = <E_G>, the feasible edge-replacement group."""
    return _memo(g.unrooted()).group


def fixed_generating_set(g: LabeledGraph, i) -> tuple:
    """E^i_G: the members of E_G fixing label i."""
    return _memo_at(g, i).fixed_set(i)


def fer_fixed_group(g: LabeledGraph, i) -> PermutationGroup:
    """Fer^i(G) = <E^i_G>."""
    return _memo_at(g, i).fixed_group(i)


def hang_group(g: LabeledGraph, i) -> PermutationGroup:
    """The hang group <E^i_G ∪ Aut(G)>."""
    return _memo_at(g, i).hang_group(i)
