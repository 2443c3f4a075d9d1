"""Permutation and permutation-group engine tests.

Frozen group orders were cross-checked against naive closure enumeration
(see test_order_matches_naive_closure) and, for the big wreath orders,
against the product formula |s|^|domain(t)| * |t|.
"""

import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebagraph import (
    LabeledGraph,
    Permutation,
    PermutationError,
    comb_product,
    compose,
    corpus,
    cycle_notation,
    example,
    family,
    fer_fixed_group,
    fer_group,
    generating_set,
    group_from_generators,
    hang_group,
    is_block_system,
    is_symmetric,
    is_transitive,
    minimal_block_system,
    parse_cycles,
    preserves_partition,
    star,
    symmetric_group,
    wreath_product,
)
from amoebagraph import permgroup
from amoebagraph.construct import EXAMPLE_NAMES
from amoebagraph.fer import aut_generators
from amoebagraph.permgroup import label_key

DOM3 = ("1", "2", "3")
DOM6 = tuple("123456")
DOM7 = tuple(str(k) for k in range(1, 8))
DOM29 = tuple(str(k) for k in range(1, 30))


def perm(text, domain=DOM3):
    return parse_cycles(text, domain)


def perms_on(labels):
    """Hypothesis strategy: a uniformly random permutation of the labels."""
    return st.permutations(labels).map(lambda images: Permutation(labels, tuple(images)))


def naive_closure(gens, domain):
    """Independent group oracle: image tuples of all BFS products until closed."""
    frontier = {Permutation(domain, domain).images}
    gens = [g.images for g in gens]
    seen = set(frontier)
    while frontier:
        nxt = set()
        for images in frontier:
            lookup = dict(zip(domain, images))
            for g in gens:
                prod = tuple(lookup[x] for x in g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.add(prod)
        frontier = nxt
    return seen


# ---------------------------------------------------------------- Permutation


def test_construction_validates():
    with pytest.raises(PermutationError):
        Permutation(DOM3, ("1", "1", "2"))
    with pytest.raises(PermutationError):
        Permutation(("1", "1", "2"), ("2", "1", "1"))  # repeated domain label
    with pytest.raises(PermutationError):
        Permutation(("2", "1"), ("1", "2"))  # domain not canonically sorted
    with pytest.raises(PermutationError):
        Permutation(DOM3, ("1", "2"))
    with pytest.raises(PermutationError):
        Permutation(DOM3, ("1", "2", "4"))


def test_identity_and_call():
    e = Permutation(DOM3, DOM3)
    assert e.is_identity and e("2") == "2"
    p = perm("(1 2)")
    assert p("1") == "2" and p("2") == "1" and p("3") == "3"
    with pytest.raises(PermutationError):
        p("9")


def test_compose_identity_cases():
    """compose(id, p) = p and an involution squares to the identity."""
    p = perm("(1 2)")
    assert compose(Permutation(DOM3, DOM3), p) == p
    assert compose(p, Permutation(DOM3, DOM3)) == p
    assert compose(p, p).is_identity


def test_compose_applies_right_factor_first():
    """compose((1 2), (2 3)) sends 1->2, 2->3, 3->1: the 3-cycle (1 2 3)."""
    got = compose(perm("(1 2)"), perm("(2 3)"))
    assert got == perm("(1 2 3)")
    assert [got(x) for x in DOM3] == ["2", "3", "1"]


def test_inverse():
    p = perm("(1 2 3)")
    assert compose(p, p.inverse()).is_identity
    assert p.inverse() == perm("(1 3 2)")


def test_relabeled():
    p = perm("(1 2)").relabeled({"1": "a", "2": "b", "3": "c"})
    assert p.domain == ("a", "b", "c") and p("a") == "b"


def test_cycle_notation():
    assert cycle_notation(Permutation(DOM3, DOM3)) == "()"
    assert cycle_notation(perm("(1 2 3)")) == "(1 2 3)"
    dom4 = ("1", "2", "3", "4")
    assert cycle_notation(parse_cycles("(1 4)(2 3)", dom4)) == "(1 4)(2 3)"


def test_permutations_survive_pickle_and_deepcopy():
    import copy
    import pickle

    p = perm("(1 2 3)")
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert q == p and q.images == ("2", "3", "1") and q("3") == "1"
    g = symmetric_group(DOM3)
    g.order
    assert pickle.loads(pickle.dumps(g)).order == 6


def test_parse_cycles_rejects_garbage():
    for text in ("(1 2", "(1 1)", "(1 9)", "(1 2)(2 3)"):
        with pytest.raises(PermutationError):
            parse_cycles(text, DOM3)


@given(perms_on(DOM7), perms_on(DOM7), perms_on(DOM7))
@settings(max_examples=100)
def test_compose_is_associative(a, b, c):
    """compose is associative on random permutations."""
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perms_on(DOM7), perms_on(DOM7))
@settings(max_examples=100)
def test_inverse_antihomomorphism(a, b):
    """(a b)^-1 = b^-1 a^-1."""
    assert compose(a, b).inverse() == compose(b.inverse(), a.inverse())


@given(perms_on(DOM7))
@settings(max_examples=100)
def test_cycle_notation_round_trips(p):
    """parse_cycles(cycle_notation(p)) recovers p."""
    assert parse_cycles(cycle_notation(p), DOM7) == p


# ---------------------------------------------------------------------- group


def test_empty_generators_need_a_domain():
    g = group_from_generators([], domain=DOM3)
    assert g.order == 1 and Permutation(DOM3, DOM3) in g
    with pytest.raises(PermutationError):
        group_from_generators([])


def test_two_generators_make_s3():
    g = group_from_generators([perm("(1 2)"), perm("(1 2 3)")])
    assert g.order == 6
    assert is_symmetric(g) and is_transitive(g)


def test_symmetric_group_orders():
    assert symmetric_group(DOM3).order == 6
    assert symmetric_group(tuple(str(k) for k in range(1, 13))).order == 479001600


def assert_table_matches_closure(gens, domain):
    """Order and membership of <gens> against naive closure."""
    g = group_from_generators(gens, domain=domain)
    closure = naive_closure(gens, domain)
    assert g.order == len(closure)
    for images in permutations(domain):
        assert (Permutation(domain, images) in g) == (images in closure)


@given(st.lists(perms_on(DOM6), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_order_matches_naive_closure(gens):
    """Sims-table order and membership equal brute-force closure."""
    assert_table_matches_closure(gens, DOM6)


PAIRS6 = wreath_product(symmetric_group(("a", "b")), symmetric_group(DOM3)).domain


@pytest.mark.parametrize(
    "texts, domain",
    [
        (["(5 6)"], DOM6),  # only the last level has entries
        (["(5 6)", "(1 2)"], DOM6),  # a deep generator, then a shallow one
        (["(4 5 6)", "(1 2)(5 6)", "(2 3)"], DOM6),  # levels 0, 1, 3 and 4 only
        (["(a.1 b.1)", "(a.1 a.2 a.3)(b.1 b.2 b.3)", "(a.1 a.2)(b.1 b.2)"], PAIRS6),
    ],
)
def test_sparse_tables_match_naive_closure(texts, domain):
    assert_table_matches_closure([parse_cycles(t, domain) for t in texts], domain)


def test_compose_count_of_the_counterexample_order_is_pinned(monkeypatch):
    """Deterministic work: compose calls to order <E_G> for the 12-label graph."""
    gh = example("counterexample_GH_labeled")
    gens = generating_set(gh)
    calls = []
    compose_ = permgroup.compose

    def counted(a, b):
        calls.append(None)
        return compose_(a, b)

    monkeypatch.setattr(permgroup, "compose", counted)
    assert group_from_generators(gens, domain=gh.labels).order == 82944
    assert len(calls) == 416


def test_contains():
    g = symmetric_group(DOM3)
    assert Permutation(DOM3, DOM3) in g
    a3 = group_from_generators([perm("(1 2 3)")])
    assert perm("(1 2)") not in a3  # odd permutation, even group
    assert perm("(1 3 2)") in a3


def test_orbits():
    trivial = group_from_generators([], domain=DOM3)
    assert trivial.orbits == (("1",), ("2",), ("3",))
    g = group_from_generators([perm("(1 2)")])
    assert g.orbits == (("1", "2"), ("3",))


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


def union_find_orbits(group) -> tuple:
    """Orbit partition of the domain, canonically sorted."""
    uf = _UnionFind(group.domain)
    for g in group.generators:
        for x, y in zip(g.domain, g.images):
            uf.union(x, y)
    parts = [tuple(sorted(part, key=label_key)) for part in uf.classes()]
    return tuple(sorted(parts, key=lambda part: label_key(part[0])))


# Plain domains of 1..8 labels ("10" sorts before "3"), and pair domains of up
# to 8 labels, whose x-major order differs from the order of the tuples.
ORBIT_DOMAINS = [tuple(sorted(str(k) for k in range(3, n + 3))) for n in range(1, 9)] + [
    wreath_product(symmetric_group(bs), symmetric_group(xs)).domain
    for bs in (("a",), ("a", "b"), ("a", "b", "c", "d"))
    for xs in (("1", "2"), ("1", "2", "3", "10"))
    if len(bs) * len(xs) <= 8
]


@st.composite
def generator_sets(draw):
    """A domain and up to three generators, each a full random permutation or
    a product of a few transpositions, so that many groups are intransitive."""
    domain = draw(st.sampled_from(ORBIT_DOMAINS))
    n = len(domain)

    def swaps(pairs):
        images = list(domain)
        for j, k in pairs:
            images[j], images[k] = images[k], images[j]
        return Permutation(domain, tuple(images))

    few = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)
    return domain, draw(st.lists(st.one_of(perms_on(domain), few.map(swaps)), max_size=3))


@given(generator_sets())
@settings(max_examples=150, deadline=None)
def test_cached_orbits_equal_the_union_find_partition(case):
    """The breadth-first orbits over positions give the union-find partition
    in the same canonical order, and a second call returns the cached tuple."""
    domain, gens = case
    group = group_from_generators(gens, domain=domain)
    first = group.orbits
    assert first == union_find_orbits(group)
    assert group.orbits is first
    assert is_transitive(group) == (len(first) == 1)


def test_singleton_domain_is_symmetric():
    g = group_from_generators([], domain=("1",))
    assert is_symmetric(g) and is_transitive(g)


def test_trivial_group_on_two_labels_is_not_symmetric():
    assert not is_symmetric(group_from_generators([], domain=("1", "2")))


# -------------------------------------------------------------- block systems


def test_singletons_are_always_blocks():
    g = symmetric_group(DOM3)
    assert is_block_system(g, (("1",), ("2",), ("3",)))


def test_block_systems_of_the_wreath_action():
    w = wreath_product(symmetric_group(("a", "b")), symmetric_group(("1", "2")))
    blocks = ((("a", "1"), ("b", "1")), (("a", "2"), ("b", "2")))
    assert w.order == 8
    assert is_block_system(w, blocks)
    members = naive_closure(w.generators, w.domain)
    assert len(members) == 8
    assert all(preserves_partition(Permutation(w.domain, p), blocks) for p in members)
    assert minimal_block_system(w, (("a", "1"), ("b", "1"))) == blocks


def test_symmetric_group_is_primitive():
    g = symmetric_group(("1", "2", "3", "4"))
    assert minimal_block_system(g, ("1", "2")) == (("1", "2", "3", "4"),)


def test_minimal_block_system_needs_transitivity():
    g = group_from_generators([perm("(1 2)")])
    with pytest.raises(PermutationError):
        minimal_block_system(g, ("1", "2"))


def test_minimal_block_system_names_an_unknown_seed_label():
    with pytest.raises(PermutationError, match="unknown label 'zz'"):
        minimal_block_system(symmetric_group("1234"), ["1", "zz"])
    w = wreath_product(symmetric_group(("a", "b")), symmetric_group(("1", "2")))
    with pytest.raises(PermutationError, match=r"unknown label 'c\.1'"):
        minimal_block_system(w, (("a", "1"), ("c", "1")))


def union_find_minimal_block_system(group, seed) -> tuple:
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
    return permgroup._check_partition(group.domain, uf.classes())


def full_cycle(domain, order) -> Permutation:
    """The cycle visiting the labels in the given order."""
    step = dict(zip(order, order[1:] + order[:1]))
    return Permutation(domain, tuple(step[x] for x in domain))


def power(p, k) -> Permutation:
    q = p
    for _ in range(k - 1):
        q = compose(q, p)
    return q


def cyclic_group(labels):
    domain = permgroup.sorted_domain(labels)
    return group_from_generators([full_cycle(domain, domain)], domain=domain)


# Transitive factors for wreath products of at most 8 labels, so that blocks
# B x {x}, and finer ones inside a cyclic base, occur.
BASES = [f(bs) for bs in ("a", "ab", "abc", "abcd") for f in (symmetric_group, cyclic_group)]
TOPS = [f(xs) for xs in (("1", "2"), ("1", "2", "3"), ("1", "2", "3", "10"))
        for f in (symmetric_group, cyclic_group)]
WREATHS = [wreath_product(s, t) for s in BASES for t in TOPS
           if len(s.domain) * len(t.domain) <= 8]


@st.composite
def transitive_generator_sets(draw):
    """A transitive group on at most 8 labels with a seed list: either a full
    cycle plus up to two generators on a plain or pair domain, or a wreath
    product's generators, conjugated by a random permutation or not.  The
    seeds are every (domain[0], x) and two drawn 3-label seeds."""
    if draw(st.booleans()):
        domain = draw(st.sampled_from(ORBIT_DOMAINS[1:]))  # two labels or more
        order = draw(st.permutations(domain))
        cycle = full_cycle(domain, order)
        # Powers of the cycle and the reflection of its order keep the blocks
        # of cyclic and dihedral groups; a random permutation usually does not.
        flip = {x: order[-j] for j, x in enumerate(order)}
        reflection = Permutation(domain, tuple(flip[x] for x in domain))
        powers = st.integers(1, len(domain)).map(lambda k: power(cycle, k))
        extra = st.one_of(perms_on(domain), powers, st.just(reflection))
        gens = [cycle] + draw(st.lists(extra, max_size=2))
    else:
        w = draw(st.sampled_from(WREATHS))
        domain, gens = w.domain, list(w.generators)
        if draw(st.booleans()):
            c = draw(perms_on(domain))
            gens = [compose(compose(c, g), c.inverse()) for g in gens]
    seeds = [(domain[0], x) for x in domain[1:]]
    if len(domain) >= 3:
        triple = st.lists(st.sampled_from(domain), min_size=3, max_size=3, unique=True)
        seeds += draw(st.lists(triple, min_size=2, max_size=2))
    return group_from_generators(gens, domain=domain), seeds


def assert_blocks_match_the_union_find(group, seeds):
    for seed in seeds:
        assert minimal_block_system(group, seed) == union_find_minimal_block_system(
            group, seed
        ), (group, seed)


@given(transitive_generator_sets())
@settings(max_examples=120, deadline=None)
def test_atkinson_blocks_equal_the_union_find_fixpoint(case):
    """Atkinson's merge over positions gives the old label-level fixpoint's
    partition, in the same canonical order."""
    assert_blocks_match_the_union_find(*case)


def test_atkinson_blocks_of_transitive_fer_groups_equal_the_union_find_fixpoint():
    graphs = [g for n in range(1, 7) for g in corpus(n)]
    graphs.append(comb_product(family("path", 4), family("path", 3)))
    tried = 0
    for g in graphs:
        group = fer_group(g)
        if is_transitive(group) and len(group.domain) > 1:
            assert_blocks_match_the_union_find(
                group, [(group.domain[0], x) for x in group.domain[1:]]
            )
            tried += 1
    assert tried > 0


def test_wreath_orders():
    s2 = symmetric_group(("a", "b"))
    s4 = symmetric_group(("a", "b", "c", "d"))
    s3 = symmetric_group(DOM3)
    assert wreath_product(s2, s2_copy := symmetric_group(("1", "2"))).order == 8
    assert wreath_product(s4, s3).order == 82944 == 24**3 * 6


def test_wreath_of_trivial_base_acts_like_the_top():
    trivial = group_from_generators([], domain=("a",))
    t = symmetric_group(DOM3)
    w = wreath_product(trivial, t)
    assert w.order == t.order
    assert w.orbits == ((("a", "1"), ("a", "2"), ("a", "3")),)


@given(
    st.sampled_from([1, 2, 3]).flatmap(
        lambda k: st.tuples(st.just(k), st.sampled_from([1, 2, 3]))
    )
)
@settings(max_examples=9, deadline=None)
def test_wreath_order_law(sizes):
    """|s wr t| = |s|^|domain(t)| * |t| for full symmetric factors."""
    m, n = sizes
    s = symmetric_group(tuple(f"a{k}" for k in range(m)))
    t = symmetric_group(tuple(str(k) for k in range(n)))
    assert wreath_product(s, t).order == s.order**n * t.order


def test_wreath_elements_preserve_their_blocks():
    s = symmetric_group(("a", "b"))
    t = symmetric_group(("1", "2", "3"))
    w = wreath_product(s, t)
    blocks = tuple(tuple((b, x) for b in ("a", "b")) for x in ("1", "2", "3"))
    assert is_block_system(w, blocks)


# ------------------------------------------------------- Jordan's certificate


def table_order(group) -> int:
    table = permgroup._sims_table(group.domain, group.generators)
    return math.prod(len(reps) + 1 for reps in table.values())


def fer_type_groups(g):
    """Fer(G), Fer(G plus an isolated label), and Fer^i and the hang group at every label."""
    yield fer_group(g)
    yield fer_group(star(g))
    for i in g.labels:
        yield fer_fixed_group(g, i)
        yield hang_group(g, i)


def test_certified_orders_equal_the_table_orders():
    """Every order the certificate gives equals the built table's; and every
    group here that holds Alt of its one moved orbit is certified, so each of
    them has a transposition or a 3-cycle among its generators."""
    graphs = [family("path", n) for n in range(8, 17)]
    graphs += [family("complete", n) for n in range(8, 13)]
    graphs += [example(name) for name in EXAMPLE_NAMES] + [family("b_family", 3)]
    certified = 0
    for g in graphs:
        for group in fer_type_groups(g):
            cert, order = permgroup._jordan_order(group), table_order(group)
            moved = [orbit for orbit in group.orbits if len(orbit) > 1]
            m = len(moved[0]) if len(moved) == 1 else 0
            assert cert in (None, order), g
            assert (cert is not None) == (m >= 2 and 2 * order >= math.factorial(m)), g
            certified += cert is not None
    assert certified == 397


def test_certified_orders_of_thirty_label_shapes_equal_sympy():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup

    labels = tuple(f"v{k:02d}" for k in range(30))
    for g in (family("path", 30), family("complete", 30), LabeledGraph(labels)):
        first = g.labels[0]
        groups = (fer_group(g), fer_group(star(g)), fer_fixed_group(g, first), hang_group(g, first))
        for group in groups:
            cert = permgroup._jordan_order(group)
            assert cert is not None
            assert cert == SymGroup([SymPerm(list(p.perm)) for p in group.generators]).order()


@pytest.mark.parametrize("graph", ["complete", "edgeless"])
def test_the_certificate_does_not_depend_on_the_generator_order(graph):
    """Aut(K30) and Aut of the edgeless graph on 29 labels, each given by its
    transpositions in 40 seeded shuffled orders: every order is certified."""
    g = family("complete", 30) if graph == "complete" else LabeledGraph(DOM29)
    gens = list(aut_generators(g))
    for seed in range(40):
        random.Random(seed).shuffle(gens)
        group = group_from_generators(gens)
        assert permgroup._jordan_order(group) == math.factorial(len(g.labels)), seed


def test_alternating_group_by_three_cycles_is_certified_without_a_table(sims_tables):
    """Alt(4), Alt(5) and Alt(9), each by the 3-cycles (1 2 k)."""
    for built, n in enumerate((4, 5, 9)):
        domain = tuple(str(k) for k in range(1, n + 1))
        alt = group_from_generators([perm(f"(1 2 {k})", domain) for k in domain[2:]])
        assert alt.order == math.factorial(n) // 2 and not is_symmetric(alt), n
        assert len(sims_tables) == built
        assert perm("(1 2)", domain) not in alt and perm("(1 2)(3 4)", domain) in alt
    assert len(sims_tables) == 3  # membership still reads the table


M11 = ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]
PGL27 = ["(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)", "(0 inf)(1 6)(2 3)(4 5)"]  # x+1, 3x, -1/x
C3_WR_C2 = ["(1 2 3)", "(4 5 6)", "(1 4)(2 5)(3 6)"]


@pytest.mark.parametrize(
    "group, order",
    [
        (group_from_generators([perm(t, [str(k) for k in range(1, 12)]) for t in M11]), 7920),
        (group_from_generators([perm(t, [*"0123456", "inf"]) for t in PGL27]), 336),
        (wreath_product(symmetric_group(tuple("abcd")), symmetric_group(("1", "2"))), 1152),
        (group_from_generators([perm(t, DOM6) for t in C3_WR_C2]), 18),
        (wreath_product(symmetric_group(("a", "b")), symmetric_group(DOM3)), 48),
    ],
    ids=["M11", "PGL(2,7)", "S4 wr S2", "C3 wr C2", "S2 wr S3"],
)
def test_transitive_groups_without_alt_are_never_certified(group, order):
    """M11 and PGL(2,7) have no transposition or 3-cycle among their
    generators; the wreath products have one, but its merge stops at the
    blocks they preserve, so none of them is certified."""
    assert is_transitive(group)
    assert permgroup._jordan_order(group) is None
    assert group.order == order == len(naive_closure(group.generators, group.domain))


def test_a_group_moving_two_orbits_is_never_certified():
    """Sym(9) on nine labels and a swap of two more: 9!·2, not 9! or 11!."""
    domain = tuple("abcdefghijk")
    gens = [perm("(a b)", domain), perm("(a b c d e f g h i)", domain), perm("(j k)", domain)]
    group = group_from_generators(gens)
    assert permgroup._jordan_order(group) is None
    assert group.order == math.factorial(9) * 2
