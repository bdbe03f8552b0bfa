"""Endomorphisms, automorphism enumeration, ambivalence, symmetry checks."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest

from gaugecount import (
    BadParams,
    GroupMismatch,
    InvalidGammaSet,
    NotAHomomorphism,
    NotAnAutomorphism,
    ParseError,
    analyze_automorphisms,
    binary_icosahedral_group,
    binary_octahedral_group,
    binary_tetrahedral_group,
    builtin_group,
    center,
    class_image,
    compose,
    conjugacy_classes,
    constant_identity_endo,
    cyclic_group,
    dihedral_group,
    direct_product,
    endo_from_image,
    endo_from_text,
    endo_to_text,
    enumerate_automorphisms,
    first_proper_subgroup,
    generated_subgroup,
    group_from_table,
    group_from_text,
    group_to_text,
    hamiltonian_symmetry_check,
    identity_endo,
    inner_automorphism,
    inversion_endo,
    is_ambivalent,
    is_automorphism,
    is_class_inverting,
    is_endomorphism,
    is_inner,
    is_involutory,
    quaternion_group,
    subgroup_as_group,
    symmetric_group,
    trivial_group,
)


def test_basic_endomorphisms():
    G = cyclic_group(4)
    assert identity_endo(G).image == (0, 1, 2, 3)
    assert constant_identity_endo(G).image == (G.identity,) * 4
    inv = inversion_endo(G)
    assert inv.image[1] == 3
    assert is_involutory(inv)
    with pytest.raises(BadParams):
        inversion_endo(symmetric_group(3))


def test_endo_from_image_validates():
    G = cyclic_group(4)
    sq = endo_from_image(G, [G.mul(g, g) for g in range(4)])
    assert not is_automorphism(sq)  # squaring is 2-to-1 on Z4
    with pytest.raises(NotAHomomorphism):
        endo_from_image(G, [0, 2, 1, 3])
    assert not is_endomorphism(G, [0, 2, 1, 3])


def test_inner_automorphisms():
    G = symmetric_group(3)
    t = next(g for g in range(G.order) if G.element_order(g) == 2)
    phi = inner_automorphism(G, t)
    assert is_automorphism(phi)
    assert is_inner(phi)
    assert is_involutory(phi)
    Z4 = cyclic_group(4)
    assert inner_automorphism(Z4, 2).image == (0, 1, 2, 3)


def test_compose():
    G = cyclic_group(5)
    two = endo_from_image(G, [(2 * g) % 5 for g in range(5)])
    four = compose(two, two)
    assert four.image == tuple((4 * g) % 5 for g in range(5))


def test_enumeration_counts():
    assert len(enumerate_automorphisms(cyclic_group(5)).automorphisms) == 4
    assert len(enumerate_automorphisms(cyclic_group(6)).automorphisms) == 2
    assert len(enumerate_automorphisms(symmetric_group(3)).automorphisms) == 6
    assert len(enumerate_automorphisms(dihedral_group(4)).automorphisms) == 8
    assert len(enumerate_automorphisms(quaternion_group()).automorphisms) == 24
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(enumerate_automorphisms(klein).automorphisms) == 6


def test_enumeration_is_deterministic_and_identity_first():
    G = dihedral_group(4)
    search = enumerate_automorphisms(G)
    assert search.complete
    assert search.work > 0
    assert search.automorphisms[0].image == tuple(range(G.order))
    again = enumerate_automorphisms(G)
    assert [p.image for p in again.automorphisms] == [p.image for p in search.automorphisms]


def test_enumeration_budget_truncation():
    G = dihedral_group(4)
    search = enumerate_automorphisms(G, budget=10)
    assert not search.complete
    assert len(search.automorphisms) < 8


def _reference_search(G, budget):
    """The documented search, written out with all-pairs checks: candidates
    for each generator are the elements of equal order and centralizer size,
    tried in itertools.product order at n * (generators + 1) work each; a
    candidate counts when the map it induces is well defined, sends every
    generator to its image, is multiplicative on every pair and bijective."""
    n, gens = G.order, G.generators
    orders = [G.element_order(x) for x in range(n)]
    cents = [sum(G.mul(x, h) == G.mul(h, x) for h in range(n)) for x in range(n)]
    candidates = [[x for x in range(n) if (orders[x], cents[x]) == (orders[g], cents[g])]
                  for g in gens]
    leaf_cost = n * (len(gens) + 1)
    work, complete, found = 0, True, []
    for images in itertools.product(*candidates):
        if work + leaf_cost > budget:
            complete = False
            break
        work += leaf_cost
        f = {G.identity: G.identity}
        frontier = [G.identity]
        while frontier:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y = G.mul(x, g)
                if y not in f:
                    f[y] = G.mul(f[x], img)
                    frontier.append(y)
        if any(f[g] != img for g, img in zip(gens, images)):
            continue
        if all(f[G.mul(a, b)] == G.mul(f[a], f[b]) for a in range(n) for b in range(n)) \
                and len(set(f.values())) == n:
            found.append(tuple(f[x] for x in range(n)))
    return sorted(found), complete, work


def test_enumeration_matches_all_pairs_reference():
    """Full and truncated searches find the same automorphisms, completeness
    and work as the all-pairs reference, on built-in groups, a file-loaded
    group and tables given explicit generating sets."""
    S4 = symmetric_group(4)
    Z2 = cyclic_group(2)
    groups = [(S4, 24), (dihedral_group(6), 12), (quaternion_group(), 24),
              (binary_tetrahedral_group(), 24),
              (direct_product(direct_product(Z2, Z2), Z2), 168),
              (group_from_text(group_to_text(S4)), 24)]
    # generating sets on which some candidates build a bijective map that is
    # not multiplicative, so only the multiplicativity check rejects them; in
    # Z8 the image of the repeated generator is never used to build the map
    Z4xZ2 = direct_product(cyclic_group(4), Z2)
    Z3xS3 = direct_product(cyclic_group(3), symmetric_group(3))
    groups += [(group_from_table(Z4xZ2.mul_table, generators=(5, 2, 1)), 8),
               (group_from_table(Z3xS3.mul_table, generators=(9, 10)), 12),
               (group_from_table(cyclic_group(8).mul_table, generators=(1, 1)), 4)]
    for G, aut_order in groups:
        leaf_cost = G.order * (len(G.generators) + 1)
        full = _reference_search(G, 10**9)
        assert len(full[0]) == aut_order and full[1]
        total = full[2]
        for budget in (10**9, leaf_cost, total // 2, total - 1):
            search = enumerate_automorphisms(G, budget)
            expected = _reference_search(G, budget)
            assert ([phi.image for phi in search.automorphisms], search.complete,
                    search.work) == expected, (G.name, budget)


def _per_candidate_search(G, budget):
    """The search deciding every candidate on its own, with the
    right-multiplication check f o col_s == col_t o f on the transposed
    table: (sorted images, complete, work)."""
    n, gens, t = G.order, G.generators, G.mul_table
    if not gens:
        return [tuple(range(n))], True, 1
    classes = conjugacy_classes(G)
    orders = [G.element_order(x) for x in range(n)]
    cents = [classes.centralizer_sizes[c] for c in classes.class_of]
    candidates = [[x for x in range(n) if (orders[x], cents[x]) == (orders[g], cents[g])]
                  for g in gens]
    pairs = [(a, b, orders[t[gens[a]][gens[b]]])
             for a, b in itertools.combinations(range(len(gens)), 2)]
    cols = tuple(zip(*t))  # cols[s][x] = x * s
    leaf_cost = n * (len(gens) + 1)
    work, found = 0, []
    for images in itertools.product(*candidates):
        if work + leaf_cost > budget:
            return sorted(found), False, work
        work += leaf_cost
        if any(orders[t[images[a]][images[b]]] != k for a, b, k in pairs):
            continue
        f = [G.identity] * n
        for y, x, i in G.generator_tree:
            f[y] = t[f[x]][images[i]]
        if all([f[y] for y in cols[s]] == [cols[img][v] for v in f]
               for s, img in zip(gens, images)) and len(set(f)) == n:
            found.append(tuple(f))
    return sorted(found), True, work


def _frobenius_21():
    """Z7 x| Z3 with (a, b)(c, d) = (a + 2^b c, b + d), read from its table."""
    elems = [(a, b) for b in range(3) for a in range(7)]
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[((a + 2 ** b * c) % 7, (b + d) % 3)] for c, d in elems] for a, b in elems]
    return group_from_table(table, name="F21")


def test_orbit_decided_search_matches_per_candidate_search():
    """Deciding one key per inner orbit finds the same automorphisms,
    completeness and work as deciding every candidate, and the streamed
    analysis reads the same report off them, at full and truncating budgets."""
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    groups = [symmetric_group(k) for k in range(2, 7)]
    groups += [dihedral_group(k) for k in (4, 6, 12)]
    groups += [cyclic_group(k) for k in (1, 2, 7, 12)]
    groups += [group_from_table([[0]], generators=(0,), name="Z1 on its identity"),
               quaternion_group(), binary_tetrahedral_group(), binary_octahedral_group(),
               binary_icosahedral_group(), direct_product(Z2, symmetric_group(3)),
               direct_product(quaternion_group(), Z3), direct_product(Z2, Z2), _frobenius_21()]
    for G in groups:
        classes = conjugacy_classes(G)
        inner = G.order // center(G).order
        leaf_cost = G.order * (len(G.generators) + 1)
        for budget in (leaf_cost, 7 * leaf_cost, 100 * leaf_cost, 4629 * leaf_cost,
                       10**7, 10**9):
            images, complete, work = _per_candidate_search(G, budget)
            search = enumerate_automorphisms(G, budget)
            assert ([phi.image for phi in search.automorphisms], search.complete,
                    search.work) == (images, complete, work), (G.name, budget)
            inverting = [f for f in images if classes.inverse_class
                         == tuple(classes.class_of[f[r]] for r in classes.reps)]
            involutions = [f for f in inverting if all(f[f[x]] == x for x in range(G.order))]
            rep = analyze_automorphisms(G, classes, budget)
            assert (rep.aut_order, rep.inner_order, rep.outer_order, rep.ambivalent,
                    rep.quasi_ambivalent, rep.complete) == (
                len(images), inner, len(images) // inner if complete else 0,
                is_ambivalent(classes), True if involutions else (False if complete else None),
                complete), (G.name, budget)
            witness = rep.class_inverting_witness
            assert (witness and witness.image) == (inverting[0] if inverting else None)
            assert [phi.image for phi in rep.charge_conjugations] == involutions


def test_analyze_trivial_group():
    for G in (trivial_group(), group_from_table([[0]], generators=(0,))):
        rep = analyze_automorphisms(G, conjugacy_classes(G))
        assert (rep.aut_order, rep.quasi_ambivalent, rep.class_inverting_witness.image,
                len(rep.charge_conjugations)) == (1, True, (0,), 1)


def test_analysis_streams_the_automorphisms():
    """S6's analysis holds no table per automorphism, nor a transposed table:
    its traced memory rises by at most half of 1.5 tables of 8-byte cells."""
    G = symmetric_group(6)
    classes = conjugacy_classes(G)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        analyze_automorphisms(G, classes)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rise <= 0.5 * 1.5 * G.order ** 2 * 8


def test_analyze_cyclic():
    G = cyclic_group(3)
    rep = analyze_automorphisms(G, conjugacy_classes(G))
    assert rep.aut_order == 2
    assert rep.inner_order == 1
    assert rep.outer_order == 2
    assert not rep.ambivalent
    assert rep.quasi_ambivalent is True  # inversion is an involutory class inverter
    assert rep.class_inverting_witness is not None
    assert all(is_involutory(cc) for cc in rep.charge_conjugations)


def test_analyze_ambivalent_group():
    G = symmetric_group(3)
    cls = conjugacy_classes(G)
    rep = analyze_automorphisms(G, cls)
    assert rep.ambivalent
    assert rep.quasi_ambivalent is True
    assert rep.class_inverting_witness.image == tuple(range(G.order))
    assert rep.outer_order == 1


def test_analyze_binary_tetrahedral():
    G = binary_tetrahedral_group()
    cls = conjugacy_classes(G)
    rep = analyze_automorphisms(G, cls)
    assert rep.aut_order == 24
    assert rep.inner_order == 12
    assert rep.outer_order == 2
    assert not rep.ambivalent
    assert rep.quasi_ambivalent is True
    assert len(rep.charge_conjugations) == 6
    inverting = [phi for phi in enumerate_automorphisms(G).automorphisms
                 if is_class_inverting(phi, cls)]
    assert len(inverting) == 12
    assert all(not is_inner(phi) for phi in inverting)


def test_analyze_truncated_budget_gives_unknown():
    G = dihedral_group(4)
    rep = analyze_automorphisms(G, conjugacy_classes(G), budget=10)
    assert not rep.complete
    assert rep.quasi_ambivalent is None
    assert rep.outer_order == 0


def test_is_class_inverting_requires_automorphism():
    G = cyclic_group(4)
    with pytest.raises(NotAnAutomorphism):
        is_class_inverting(constant_identity_endo(G), conjugacy_classes(G))


def test_ambivalence_matches_identity_class_inversion():
    for G in (cyclic_group(2), cyclic_group(5), symmetric_group(3),
              dihedral_group(4), quaternion_group()):
        cls = conjugacy_classes(G)
        assert is_ambivalent(cls) == is_class_inverting(identity_endo(G), cls)


def test_analyze_automorphisms_refuses_another_groups_classes():
    with pytest.raises(GroupMismatch):
        analyze_automorphisms(cyclic_group(3), conjugacy_classes(cyclic_group(4)))
    with pytest.raises(GroupMismatch):
        analyze_automorphisms(symmetric_group(3), conjugacy_classes(cyclic_group(6)))


def test_analyze_automorphisms_refuses_another_groups_classes_before_searching():
    # budget 1 finds no map, so no class image can catch the mismatch
    with pytest.raises(GroupMismatch):
        analyze_automorphisms(cyclic_group(3), conjugacy_classes(symmetric_group(3)), budget=1)


def test_inner_order_reads_the_centre_off_the_class_table():
    for G in (cyclic_group(6), symmetric_group(3), symmetric_group(4), dihedral_group(4),
              dihedral_group(5), quaternion_group(), binary_tetrahedral_group()):
        rep = analyze_automorphisms(G, conjugacy_classes(G), budget=1)
        assert rep.inner_order == G.order // center(G).order, G.name


def test_class_image():
    G = cyclic_group(4)
    cls = conjugacy_classes(G)
    cmap = class_image(inversion_endo(G), cls)
    assert cmap == (0, 3, 2, 1)
    # maps with a kernel are served too: x -> x^2 and the constant map
    square = endo_from_image(G, [G.mul(g, g) for g in range(G.order)])
    assert class_image(square, cls) == (0, 2, 0, 2)
    assert class_image(constant_identity_endo(G), cls) == (0, 0, 0, 0)
    with pytest.raises(GroupMismatch):
        class_image(identity_endo(cyclic_group(3)), conjugacy_classes(symmetric_group(3)))


def test_hamiltonian_symmetry_check():
    G = cyclic_group(4)
    cls = conjugacy_classes(G)
    inv = inversion_endo(G)
    assert hamiltonian_symmetry_check(inv, cls, {1: Fraction(1), 3: Fraction(1)})
    assert hamiltonian_symmetry_check(identity_endo(G), cls, {2: 1})
    with pytest.raises(InvalidGammaSet):
        hamiltonian_symmetry_check(inv, cls, {1: 1, 3: 2})
    with pytest.raises(InvalidGammaSet):
        hamiltonian_symmetry_check(inv, cls, {1: 1})
    with pytest.raises(InvalidGammaSet):
        hamiltonian_symmetry_check(inv, cls, {9: 1})
    with pytest.raises(NotAnAutomorphism):
        hamiltonian_symmetry_check(constant_identity_endo(G), cls, {0: 1})


def test_hamiltonian_symmetry_check_detects_breaking():
    G = dihedral_group(4)
    cls = conjugacy_classes(G)
    outer = next(phi for phi in enumerate_automorphisms(G).automorphisms
                 if class_image(phi, cls)[3] == 4)
    # couple only one reflection class: the outer automorphism moves it
    assert not hamiltonian_symmetry_check(outer, cls, {3: 1})
    inner = inner_automorphism(G, 1)
    assert hamiltonian_symmetry_check(inner, cls, {3: 1})


def test_greedy_generating_set():
    """Every group's stored generators generate it; tables read without
    generators get the greedy set (first element outside the subgroup
    generated so far), so automorphism searches keep their generators."""
    groups = [builtin_group(fam, p) for fam, p in (
        ("trivial", ()), ("cyclic", (6,)), ("dihedral", (1,)), ("dihedral", (5,)),
        ("symmetric", (4,)), ("quaternion", ()), ("binary_tetrahedral", ()),
        ("binary_octahedral", ()))]
    S4 = symmetric_group(4)
    groups += [group_from_text(group_to_text(S4)),
               subgroup_as_group(S4, first_proper_subgroup(S4))[0],
               direct_product(quaternion_group(), cyclic_group(3)),
               direct_product(trivial_group(), trivial_group())]
    for G in groups:
        assert generated_subgroup(G, G.generators).order == G.order
    expected = {"S4": (1, 2), "D6": (1, 6), "2T": (1, 2)}
    for G in (S4, dihedral_group(6), binary_tetrahedral_group()):
        loaded = group_from_text(group_to_text(G))
        assert loaded.generators == expected[G.name]


def test_endo_text_roundtrip():
    G = cyclic_group(4)
    inv = inversion_endo(G)
    back = endo_from_text(endo_to_text(inv), G)
    assert back.image == inv.image
    with pytest.raises(ParseError):
        endo_from_text("endo 5\n0 4 3 2 1\n", G)
    with pytest.raises(ParseError):
        endo_from_text("", G)
