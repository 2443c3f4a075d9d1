"""Permutations and permutation groups over finite label domains.

Labels are strings, or nested (b, x) pairs coming from comb products.  A
permutation is the named tuple (domain, perm) of a canonically ordered
domain and its image positions, the only stored form.  Groups are held by
their generators, each kept once and never the identity, and carry a
deterministic Sims table, built by Knuth's sift-and-close algorithm, giving
exact orders (arbitrary-precision ints) and membership tests without listing
any element; a group that moves one orbit and has a transposition or 3-cycle
among its generators whose block-system merge joins that orbit holds Alt of
it (Jordan), and gets its order without one.  Each group also caches its
orbit partition, found by one breadth-first walk over positions, so orbit and
transitivity questions never build a table.  Minimal block systems come from
Atkinson's merge over positions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache


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


class Permutation(namedtuple("Permutation", "domain perm")):
    """Immutable bijection on a canonically ordered label domain.

    ``perm[k]`` is the domain position of the image of ``domain[k]``; it is
    the only stored form, and ``images`` reads the labels off it.  Public
    constructors validate; products and inverses of valid ones skip the check.
    """

    __slots__ = ()

    def __new__(cls, domain: tuple, images: tuple):
        index = _index_of(domain)
        try:
            perm = tuple([index[y] for y in images])
        except (KeyError, TypeError):
            raise PermutationError("images are not a bijection of the domain") from None
        if len(perm) != len(index) or len(set(perm)) != len(perm):
            raise PermutationError("images are not a bijection of the domain")
        return tuple.__new__(cls, (domain, perm))

    @classmethod
    def _make(cls, fields):
        # so _replace checks too: a position off the domain shortens the images
        domain, perm = fields
        return cls(domain, [domain[k] for k in perm if k in range(len(domain))])

    def __repr__(self) -> str:
        return f"Permutation(domain={self.domain!r}, images={self.images!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor, from images
        return (Permutation, (self.domain, self.images))

    @property
    def images(self) -> tuple:
        return tuple([self.domain[k] for k in self.perm])

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Permutation":
        domain = sorted_domain(mapping)
        return cls(domain, tuple(mapping[x] for x in domain))

    def __call__(self, label):
        try:
            return self.domain[self.perm[_index_of(self.domain)[label]]]
        except KeyError:
            raise PermutationError(f"label {flat(label)!r} not in domain") from None

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.perm)
        for k, j in enumerate(self.perm):
            inv[j] = k
        return _unchecked(self.domain, tuple(inv))

    def relabeled(self, mapping: dict) -> "Permutation":
        """Conjugate by a relabeling: acts on mapped labels as self on old ones."""
        return Permutation.from_mapping(
            {mapping[x]: mapping[y] for x, y in zip(self.domain, self.images)}
        )

    def __str__(self) -> str:
        return cycle_notation(self)


def _unchecked(domain: tuple, perm: tuple) -> Permutation:
    """A permutation from image positions already known to be a bijection."""
    return tuple.__new__(Permutation, (domain, perm))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Composition acting right-to-left: compose(a, b)(x) = a(b(x))."""
    if a.domain is not b.domain and a.domain != b.domain:
        raise PermutationError("cannot compose permutations on different domains")
    ap = a.perm
    return _unchecked(a.domain, tuple([ap[j] for j in b.perm]))


def _cycles(perm: tuple) -> list:
    """Cycles of length >= 2 of image positions, each from its smallest one."""
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        k = perm[start]
        while k != start:
            cycle.append(k)
            k = perm[k]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def cycle_notation(p: Permutation) -> str:
    """Cycle notation over flattened labels, e.g. "(1 4)(2 3)"; identity "()"."""
    parts = ["(" + " ".join(flat(p.domain[k]) for k in c) + ")" for c in _cycles(p.perm)]
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


class PermutationGroup(namedtuple("PermutationGroup", "domain generators")):
    """Permutation group given by generators, with a lazy Sims table."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, domain: tuple, generators: tuple):
        # Canonical domain order; each generator once, in first-seen order, no identity.
        domain = sorted_domain(domain)
        kept = {}
        for g in generators:
            if g.domain != domain:
                raise PermutationError("generator domain does not match group domain")
            if not g.is_identity:
                kept.setdefault(g.perm, g)
        return tuple.__new__(cls, (domain, tuple(kept.values())))

    def __setattr__(self, name, value):
        raise AttributeError("PermutationGroup is immutable")

    @cached_property
    def _table(self) -> dict:
        return _sims_table(self.domain, self.generators)

    @cached_property
    def order(self) -> int:
        return _jordan_order(self) or math.prod(len(reps) + 1 for reps in self._table.values())

    @cached_property
    def orbits(self) -> tuple:
        """Orbit partition: each orbit, and the orbits by first label, in domain order."""
        perms = [g.perm for g in self.generators]
        seen = [False] * len(self.domain)
        parts = []
        for start in range(len(seen)):
            if not seen[start]:
                seen[start] = True
                orbit = [start]
                for k in orbit:
                    for p in perms:
                        if not seen[p[k]]:
                            seen[p[k]] = True
                            orbit.append(p[k])
                parts.append(tuple(self.domain[k] for k in sorted(orbit)))
        return tuple(parts)

    @cached_property
    def block_witness(self) -> tuple | None:
        """First nontrivial minimal block system joining domain[0] to another
        label, tried in domain order; None if primitive or intransitive."""
        if not is_transitive(self):
            return None
        systems = (minimal_block_system(self, (self.domain[0], x)) for x in self.domain[1:])
        return next((system for system in systems if len(system) > 1), None)

    def __contains__(self, p: Permutation) -> bool:
        if p.domain != self.domain:
            raise PermutationError("permutation domain does not match group domain")
        return _sift(self._table, 0, p)

    def to_json(self) -> dict:
        return {
            "domain": [flat(x) for x in self.domain],
            "generators": [cycle_notation(g) for g in self.generators],
            "order": str(self.order),
        }


def _jordan_order(group: PermutationGroup) -> int | None:
    """m! or m!/2 if the group holds Alt of the one orbit it moves, of m labels,
    by Jordan's theorem (Dixon & Mortimer, Section 3.3) on its first generator
    that is a transposition or a 3-cycle: the supports of that generator's
    conjugates join into the blocks of a block system, so when the finest one
    joining its points is the whole orbit, they generate Sym or Alt of it, and
    the order is m! exactly when a generator is odd.  Alt is primitive, so a
    later short generator would decide the same.  None: nothing certified."""
    moved = [orbit for orbit in group.orbits if len(orbit) > 1]
    gens = [g.perm for g in group.generators]
    shorts = (c[0] for c in map(_cycles, gens) if len(c) == 1 and len(c[0]) <= 3)
    short = len(moved) == 1 and next(shorts, None)
    if not short:
        return None
    n, m = len(group.domain), len(moved[0])
    if len(set(_merge(gens, n, short, m - 1))) > n - m + 1:  # < m - 1 joins: orbit split
        return None
    odd = len(short) == 2 or any(sum(len(c) - 1 for c in _cycles(g)) % 2 for g in gens)
    return math.factorial(m) // (1 if odd else 2)


def _sift(table: dict, k: int, h: Permutation) -> bool:
    """Whether h, which fixes the first k positions, lies in the group that
    levels k, k+1, ... hold: h strips through every level exactly when the
    residue is the identity, and stops at the first level missing its image."""
    for level in range(k, len(h.perm)):
        image = h.perm[level]
        if image != level:
            reps = table.get(level)
            if reps is None or image not in reps:
                return False
            h = compose(reps[image][1], h)
    return True


def _sims_table(domain: tuple, generators) -> dict:
    """Knuth's sift-and-close Sims table (Combinatorica 11, 1991, Algorithms A/B).

    Level k maps each position j != k that the stabilizer of positions
    0..k-1 sends k to, to a pair (u, u^-1) with u(k) = j and u fixing
    0..k-1; only levels with entries are stored, in level order.  The
    generators S_k of level k are kept only while building: every member of
    S_{k+1} is a Schreier generator of <S_k>, so the levels k, k+1, ... hold
    <S_k> once its orbit is closed and every residue has been added below.
    """
    table = {}
    level_gens = {}

    def add(k, p):
        # Levels k, k+1, ... are closed whenever add is entered, so the
        # sift decides membership in the group they hold.
        if _sift(table, k, p):
            return
        gens = level_gens.setdefault(k, [])
        gens.append(p)
        reps = table.get(k, {})
        stack = [p] + [compose(p, u) for u, _inverse in reps.values()]
        while stack:
            q = stack.pop()
            image = q.perm[k]
            if image == k:
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
    gens = tuple(gens)
    if domain is None:
        if not gens:
            raise PermutationError("empty generating set requires an explicit domain")
        domain = gens[0].domain
    return PermutationGroup(domain, gens)


def transversal(generators, domain: tuple, point) -> dict:
    """For each label j in the orbit of point, some u_j in <generators> with
    u_j(point) = j, found breadth-first from u_point, the identity."""
    found = {point: _unchecked(domain, tuple(range(len(domain))))}
    todo = [point]
    for j in todo:
        for a in generators:
            k = a(j)
            if k not in found:
                found[k] = compose(a, found[j])
                todo.append(k)
    return found


def strip(reps: dict, point, p: Permutation) -> Permutation:
    """u_j^-1 p for j = p(point) and u_j = reps[j], a transversal of point's
    orbit; the result fixes point.  j must lie in the orbit."""
    return compose(reps[p(point)].inverse(), p)


def schreier_generators(generators, reps: dict, point) -> tuple:
    """Schreier's lemma: over every generator a and every u_j in reps, a
    transversal of point's orbit, the products u_{a(j)}^-1 a u_j generate
    the stabilizer of point.  Each u_j is inverted once."""
    inverses = {j: u.inverse() for j, u in reps.items()}
    products = (compose(a, u) for u in reps.values() for a in generators)
    return tuple(compose(inverses[au(point)], au) for au in products)


def symmetric_group(labels) -> PermutationGroup:
    """Sym(labels), generated by a transposition and a full cycle."""
    domain = sorted_domain(labels)
    if len(domain) < 2:
        return PermutationGroup(domain, ())
    swap = {x: x for x in domain}
    swap[domain[0]], swap[domain[1]] = domain[1], domain[0]
    cycle = {x: y for x, y in zip(domain, domain[1:] + domain[:1])}
    gens = (Permutation.from_mapping(swap), Permutation.from_mapping(cycle))
    return PermutationGroup(domain, gens)


def is_transitive(group: PermutationGroup) -> bool:
    return len(group.orbits) == 1


def is_symmetric(group: PermutationGroup) -> bool:
    """Whether the group is all of Sym(domain): never when intransitive,
    otherwise by exact order comparison."""
    return len(group.orbits) <= 1 and group.order == math.factorial(len(group.domain))


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
    """Finest block system with all seed labels in one block (group transitive).

    Atkinson's merge over positions (_merge); reading the classes in domain
    order lists them, and the labels in each, canonically.
    """
    if not is_transitive(group):
        raise PermutationError("minimal_block_system requires a transitive group")
    seed = list(seed)
    if len(seed) < 2:
        raise PermutationError("seed needs at least two labels")
    index = _index_of(group.domain)
    try:
        seed = [index[x] for x in seed]
    except KeyError as err:
        raise PermutationError(f"unknown label {flat(err.args[0])!r}") from None
    blocks = {}
    for x, c in zip(group.domain, _merge([g.perm for g in group.generators], len(index), seed)):
        blocks.setdefault(c, []).append(x)
    return tuple(tuple(block) for block in blocks.values())


def _merge(perms: list, size: int, seed: list, most: int | None = None) -> list:
    """Atkinson's merge (Math. Comp. 29, 1975) over positions 0..size-1: join
    the seed positions, and whenever two classes are joined, queue the pairs
    of their representatives' images under every permutation; stop after
    `most` joins, if given.  Returns each position's class representative."""
    parent = list(range(size))
    joins = 0

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    pending = [(seed[0], k) for k in seed[1:]]
    for a, b in pending:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
            joins += 1
            if joins == most:
                break
            pending.extend((p[a], p[b]) for p in perms)
    return [find(k) for k in range(size)]


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
