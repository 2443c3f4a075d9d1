"""Permutations and permutation groups over finite label domains.

Labels are strings, or nested (b, x) pairs coming from comb products.
Permutations are immutable bijections on a canonically ordered domain;
groups carry a deterministic Sims table, built by Knuth's sift-and-close
algorithm, giving exact orders (arbitrary-precision ints), membership tests
and element listings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator


class PermutationError(ValueError):
    """Raised for malformed permutations, domain mismatches and bad parses."""


def label_key(label):
    """Sort key: plain labels first (lexicographic), pairs in x-major order."""
    if isinstance(label, tuple):
        b, x = label
        return (1, label_key(x), label_key(b))
    return (0, label)


def flat(label) -> str:
    """Flatten a possibly nested (b, x) pair to its dotted form "b.x"."""
    if isinstance(label, tuple):
        b, x = label
        return f"{flat(b)}.{flat(x)}"
    return label


def sorted_domain(labels) -> tuple:
    """Canonically ordered domain tuple from an iterable of labels."""
    labels = list(labels)
    domain = tuple(sorted(labels, key=label_key))
    if len(set(domain)) != len(domain):
        raise PermutationError(f"duplicate labels in domain: {domain}")
    return domain


@lru_cache(maxsize=None)
def _index_of(domain: tuple) -> dict:
    """Position of each label; checks once per distinct domain that it is canonical."""
    index = {label: k for k, label in enumerate(domain)}
    if len(index) != len(domain) or list(domain) != sorted(domain, key=label_key):
        raise PermutationError(f"domain is not canonically sorted and distinct: {domain}")
    return index


@dataclass(frozen=True)
class Permutation:
    """Immutable bijection on a canonically ordered label domain.

    ``images[k]`` is the image of ``domain[k]``.
    """

    domain: tuple
    images: tuple

    def __post_init__(self):
        index = _index_of(self.domain)
        if len(self.images) != len(index) or index.keys() != set(self.images):
            raise PermutationError("images are not a bijection of the domain")

    @classmethod
    def identity(cls, labels) -> "Permutation":
        domain = sorted_domain(labels)
        return cls(domain, domain)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Permutation":
        domain = sorted_domain(mapping)
        return cls(domain, tuple(mapping[x] for x in domain))

    def __call__(self, label):
        try:
            return self.images[_index_of(self.domain)[label]]
        except KeyError:
            raise PermutationError(f"label {flat(label)!r} not in domain") from None

    @property
    def is_identity(self) -> bool:
        return self.images == self.domain

    def moved(self) -> tuple:
        """Labels not fixed by this permutation, in domain order."""
        return tuple(x for x, y in zip(self.domain, self.images) if x != y)

    def inverse(self) -> "Permutation":
        idx = _index_of(self.domain)
        inv = [None] * len(self.domain)
        for k, y in enumerate(self.images):
            inv[idx[y]] = self.domain[k]
        return Permutation(self.domain, tuple(inv))

    def extended(self, extra_labels) -> "Permutation":
        """The same bijection on a larger domain, fixing every extra label."""
        mapping = dict(zip(self.domain, self.images))
        for x in extra_labels:
            if x in mapping:
                raise PermutationError(f"label {x!r} already in domain")
            mapping[x] = x
        return Permutation.from_mapping(mapping)

    def restricted(self, labels) -> "Permutation":
        """Restriction to an invariant subset of the domain."""
        keep = set(labels)
        mapping = {x: y for x, y in zip(self.domain, self.images) if x in keep}
        if set(mapping.values()) != keep:
            raise PermutationError("subset is not invariant under the permutation")
        return Permutation.from_mapping(mapping)

    def relabeled(self, mapping: dict) -> "Permutation":
        """Conjugate by a relabeling: acts on mapped labels as self on old ones."""
        return Permutation.from_mapping(
            {mapping[x]: mapping[y] for x, y in zip(self.domain, self.images)}
        )

    def __str__(self) -> str:
        return cycle_notation(self)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Composition acting right-to-left: compose(a, b)(x) = a(b(x))."""
    if a.domain != b.domain:
        raise PermutationError("cannot compose permutations on different domains")
    idx = _index_of(a.domain)
    ai = a.images
    return Permutation(a.domain, tuple(ai[idx[y]] for y in b.images))


def cycle_notation(p: Permutation) -> str:
    """Cycle notation over flattened labels, e.g. "(1 4)(2 3)"; identity "()"."""
    seen = set()
    parts = []
    for start in p.domain:
        if start in seen or p(start) == start:
            continue
        cycle = [start]
        seen.add(start)
        x = p(start)
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = p(x)
        parts.append("(" + " ".join(flat(c) for c in cycle) + ")")
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, domain) -> Permutation:
    """Parse cycle notation back to a permutation on the given domain."""
    domain = sorted_domain(domain)
    by_flat = {flat(x): x for x in domain}
    mapping = {x: x for x in domain}
    body = text.strip()
    if body in ("", "()"):
        return Permutation(domain, domain)
    if not (body.startswith("(") and body.endswith(")")):
        raise PermutationError(f"not cycle notation: {text!r}")
    for chunk in body[1:-1].split(")("):
        names = chunk.split()
        if len(names) < 2:
            raise PermutationError(f"cycle too short in {text!r}")
        try:
            cycle = [by_flat[name] for name in names]
        except KeyError as err:
            raise PermutationError(f"unknown label {err.args[0]!r} in {text!r}") from None
        if len(set(cycle)) != len(cycle):
            raise PermutationError(f"repeated label in {text!r}")
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            if mapping[x] != x:
                raise PermutationError(f"label {flat(x)!r} appears in two cycles")
            mapping[x] = y
    return Permutation.from_mapping(mapping)


class _UnionFind:
    """Union-find over a fixed label set."""

    def __init__(self, labels):
        self.parent = {x: x for x in labels}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def classes(self) -> list:
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


@dataclass(frozen=True)
class PermutationGroup:
    """Permutation group given by generators, with a lazy Sims table."""

    domain: tuple
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.domain != self.domain:
                raise PermutationError("generator domain does not match group domain")

    @cached_property
    def _table(self) -> dict:
        return _sims_table(self.domain, self.generators)

    @cached_property
    def order(self) -> int:
        return math.prod(len(reps) + 1 for reps in self._table.values())

    def __contains__(self, p: Permutation) -> bool:
        if p.domain != self.domain:
            raise PermutationError("permutation domain does not match group domain")
        return _sift(self._table, 0, p).is_identity

    def elements(self) -> Iterator[Permutation]:
        """All group elements, as products of one entry (or the identity) per level."""

        def walk(levels, acc):
            if not levels:
                yield acc
                return
            yield from walk(levels[1:], acc)
            for u, _inverse in levels[0].values():
                yield from walk(levels[1:], compose(acc, u))

        yield from walk(list(self._table.values()), self.identity())

    def identity(self) -> Permutation:
        return Permutation.identity(self.domain)

    def to_json(self) -> dict:
        return {
            "domain": [flat(x) for x in self.domain],
            "generators": [cycle_notation(g) for g in self.generators],
            "order": str(self.order),
        }


def _sift(table: dict, k: int, h: Permutation) -> Permutation:
    """Strip h, which fixes the first k labels, through levels k, k+1, ...

    Returns the identity exactly when h lies in the group those levels hold;
    otherwise the residue at the first level whose entries miss its image.
    """
    domain = h.domain
    for level in range(k, len(domain)):
        image = h.images[level]
        if image != domain[level]:
            reps = table.get(level)
            if reps is None or image not in reps:
                return h
            h = compose(reps[image][1], h)
    return h


def _sims_table(domain: tuple, generators) -> dict:
    """Knuth's sift-and-close Sims table (Combinatorica 11, 1991, Algorithms A/B).

    Level k maps each image j != domain[k] of domain[k] under the stabilizer
    of domain[:k] to a pair (u, u^-1) with u(domain[k]) = j and u fixing
    domain[:k]; only levels with entries are stored, in level order.  The
    generators S_k of level k are kept only while building: every member of
    S_{k+1} is a Schreier generator of <S_k>, so the levels k, k+1, ... hold
    <S_k> once its orbit is closed and every residue has been added below.
    """
    table = {}
    level_gens = {}

    def add(k, p):
        # Levels k, k+1, ... are closed whenever add is entered, so the
        # sift decides membership in the group they hold.
        if _sift(table, k, p).is_identity:
            return
        gens = level_gens.setdefault(k, [])
        gens.append(p)
        reps = table.get(k, {})
        base = domain[k]
        stack = [p] + [compose(p, u) for u, _inverse in reps.values()]
        while stack:
            q = stack.pop()
            image = q.images[k]
            if image == base:
                add(k + 1, q)
            elif image in reps:
                add(k + 1, compose(reps[image][1], q))
            else:
                reps[image] = (q, q.inverse())
                table[k] = reps
                stack.extend(compose(s, q) for s in gens)

    for g in generators:
        add(0, g)
    return dict(sorted(table.items()))


def group_from_generators(gens, domain=None) -> PermutationGroup:
    """Group generated by gens; an empty list needs an explicit domain."""
    gens = list(gens)
    if domain is None:
        if not gens:
            raise PermutationError("empty generating set requires an explicit domain")
        domain = gens[0].domain
    else:
        domain = sorted_domain(domain)
    unique = []
    seen = set()
    for g in gens:
        if g.domain != domain:
            raise PermutationError("generators live on different domains")
        if g.is_identity or g.images in seen:
            continue
        seen.add(g.images)
        unique.append(g)
    return PermutationGroup(domain, tuple(unique))


def symmetric_group(labels) -> PermutationGroup:
    """Sym(labels), generated by a transposition and a full cycle."""
    domain = sorted_domain(labels)
    if len(domain) < 2:
        return PermutationGroup(domain, ())
    swap = {x: x for x in domain}
    swap[domain[0]], swap[domain[1]] = domain[1], domain[0]
    cycle = {x: y for x, y in zip(domain, domain[1:] + domain[:1])}
    gens = [Permutation.from_mapping(swap), Permutation.from_mapping(cycle)]
    if len(domain) == 2:
        gens = gens[:1]
    return PermutationGroup(domain, tuple(gens))


def order(group: PermutationGroup) -> int:
    """Exact group order as an arbitrary-precision integer."""
    return group.order


def contains(group: PermutationGroup, p: Permutation) -> bool:
    """Membership test: p sifts to the identity through the group's Sims table."""
    return p in group


def orbits(group: PermutationGroup) -> tuple:
    """Orbit partition of the domain, canonically sorted."""
    uf = _UnionFind(group.domain)
    for g in group.generators:
        for x, y in zip(g.domain, g.images):
            uf.union(x, y)
    parts = [tuple(sorted(part, key=label_key)) for part in uf.classes()]
    return tuple(sorted(parts, key=lambda part: label_key(part[0])))


def is_transitive(group: PermutationGroup) -> bool:
    return len(orbits(group)) == 1


def is_symmetric(group: PermutationGroup) -> bool:
    """Whether the group is all of Sym(domain), by exact order comparison."""
    return group.order == math.factorial(len(group.domain))


def _check_partition(domain: tuple, partition) -> tuple:
    blocks = tuple(tuple(sorted(block, key=label_key)) for block in partition)
    seen = [x for block in blocks for x in block]
    if not all(blocks) or len(seen) != len(set(seen)) or set(seen) != set(domain):
        raise PermutationError("not a partition of the domain")
    return tuple(sorted(blocks, key=lambda block: label_key(block[0])))


def is_block_system(group: PermutationGroup, partition) -> bool:
    """Whether every generator maps each block onto a block."""
    blocks = _check_partition(group.domain, partition)
    return all(preserves_partition(g, blocks) for g in group.generators)


def preserves_partition(p: Permutation, partition) -> bool:
    """Whether p maps every block of the partition onto a block."""
    blocks = _check_partition(p.domain, partition)
    block_set = {frozenset(block) for block in blocks}
    return all(frozenset(p(x) for x in block) in block_set for block in blocks)


def minimal_block_system(group: PermutationGroup, seed) -> tuple:
    """Finest block system with all seed labels in one block (group transitive)."""
    if not is_transitive(group):
        raise PermutationError("minimal_block_system requires a transitive group")
    seed = list(seed)
    if len(seed) < 2:
        raise PermutationError("seed needs at least two labels")
    uf = _UnionFind(group.domain)
    for x in seed[1:]:
        uf.union(seed[0], x)
    changed = True
    while changed:
        changed = False
        for g in group.generators:
            for x in group.domain:
                rep = uf.find(x)
                if uf.find(g(x)) != uf.find(g(rep)):
                    uf.union(g(x), g(rep))
                    changed = True
    return _check_partition(group.domain, uf.classes())


def wreath_product(s: PermutationGroup, t: PermutationGroup) -> PermutationGroup:
    """Imprimitive wreath product of s (on B) by t (on X), acting on B x X.

    Domain elements are pairs (b, x), ordered x-major; generators are the
    per-copy lifts of s's generators followed by the lifts of t's.
    """
    pairs = sorted_domain((b, x) for x in t.domain for b in s.domain)
    gens = []
    for x in t.domain:
        for g in s.generators:
            gens.append(
                Permutation.from_mapping(
                    {(b, y): (g(b) if y == x else b, y) for (b, y) in pairs}
                )
            )
    for g in t.generators:
        gens.append(Permutation.from_mapping({(b, y): (b, g(y)) for (b, y) in pairs}))
    return group_from_generators(gens, domain=pairs)
