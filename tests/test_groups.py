"""Group construction, validation, conjugacy classes, subgroups, cosets."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from gaugecount import (
    BadParams,
    ClosureOverflow,
    Cyclotomic,
    GroupAction,
    NotAGroup,
    NotAHomomorphism,
    NotASubgroup,
    ParseError,
    UnknownFamily,
    action_coset,
    action_left_mult,
    action_product,
    action_trivial,
    binary_icosahedral_group,
    binary_octahedral_group,
    binary_tetrahedral_group,
    build_from_generators,
    builtin_group,
    center,
    centralizer_order,
    conjugacy_classes,
    coset_space,
    cyclic_group,
    det_rep,
    dihedral_group,
    direct_product,
    enumerate_automorphisms,
    first_proper_subgroup,
    generated_subgroup,
    group_from_table,
    group_from_text,
    group_to_text,
    is_endomorphism,
    normalizer,
    one_dim_from_values,
    permutation_rep,
    quaternion_group,
    subgroup_as_group,
    subgroup_from_elements,
    symmetric_group,
    trivial_group,
    validate_action,
)

import cyclo_reference as ref

# latin square with identity 0 but no associativity: (1*1)*2 = 2, 1*(1*2) = 4
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_builtin_orders_and_flags():
    assert trivial_group().order == 1
    assert cyclic_group(6).order == 6 and cyclic_group(6).is_abelian()
    assert dihedral_group(4).order == 8 and not dihedral_group(4).is_abelian()
    assert symmetric_group(3).order == 6 and not symmetric_group(3).is_abelian()
    assert symmetric_group(4).order == 24
    assert quaternion_group().order == 8
    assert binary_tetrahedral_group().order == 24
    assert binary_octahedral_group().order == 48
    assert binary_icosahedral_group().order == 120


def test_exponents():
    assert cyclic_group(6).exponent() == 6
    assert symmetric_group(3).exponent() == 6
    assert dihedral_group(4).exponent() == 4
    assert quaternion_group().exponent() == 4
    assert binary_tetrahedral_group().exponent() == 12


def test_builtin_group_dispatch():
    assert builtin_group("cyclic", (5,)).order == 5
    assert builtin_group("quaternion").order == 8
    with pytest.raises(UnknownFamily):
        builtin_group("sporadic")
    with pytest.raises(BadParams):
        builtin_group("cyclic")
    with pytest.raises(BadParams):
        builtin_group("quaternion", (3,))


def test_validate_table_rejects_nonassociative_loop():
    with pytest.raises(NotAGroup):
        group_from_table(LOOP5)


def test_validate_table_rejects_broken_latin_square():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(NotAGroup):
        group_from_table(bad)
    with pytest.raises(NotAGroup):
        group_from_table([])


def test_validate_table_rejects_missing_identity():
    # subtraction mod 3: a latin square with a right identity but no left one
    sub3 = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(NotAGroup):
        group_from_table(sub3)


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]], r"^row 1 has length 1, expected 2$"),
    ([[0, 1], [1, 2]], r"^row 1 is not a permutation of 0\.\.1$"),
    ([[0, -1], [-1, 0]], r"^row 0 is not a permutation of 0\.\.1$"),
    ([[0, 1], [1, 1]], r"^row 1 is not a permutation of 0\.\.1$"),  # no identity in row 1
    ([[0, Fraction(1)], [Fraction(1), 0]], r"^row 0 has an entry that is not an int$"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1.0]], r"^row 2 has an entry that is not an int$"),
])
def test_group_from_table_refuses_bad_rows(table, message):
    with pytest.raises(NotAGroup, match=message):
        group_from_table(table)


def test_rows_without_latin_columns_fail_associativity():
    # every row is a permutation and 0 is a two-sided identity, but column 2 repeats 2
    with pytest.raises(NotAGroup, match="associativity"):
        group_from_table([[0, 1, 2], [1, 0, 2], [2, 1, 0]])


def test_row_permutation_tables_accepted_iff_group():
    # every table of order <= 3 whose rows are permutations, against the axioms checked directly
    for n in (1, 2, 3):
        r = range(n)
        groups = 0
        for t in itertools.product(itertools.permutations(r), repeat=n):
            ids = [e for e in r if all(t[e][x] == x == t[x][e] for x in r)]
            is_group = (bool(ids) and all(any(t[a][b] == ids[0] == t[b][a] for b in r) for a in r)
                        and all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r))
            try:
                group_from_table(t)
                accepted = True
            except NotAGroup:
                accepted = False
            assert accepted == is_group, t
            groups += accepted
        assert groups == n  # Z_n, once per choice of identity


def _intercalate_table(n, a, c):
    """Z_n with the 2x2 subsquare at rows a, a+n/2 and columns c, c+n/2 swapped:
    still a latin square with identity and inverses, but not associative."""
    t = [[(x + y) % n for y in range(n)] for x in range(n)]
    h = n // 2
    for x in (a, a + h):
        t[x][c], t[x][c + h] = t[x][c + h], t[x][c]
    return t


def test_large_nonassociative_table_is_rejected():
    # (36*124)*1 = 673 but 36*(124*1) = 161; order 1024 is past any cheap all-triples check
    t = _intercalate_table(1024, 36, 124)
    assert t[t[36][124]][1] == 673 and t[36][t[124][1]] == 161
    with pytest.raises(NotAGroup, match="associativity"):
        group_from_table(t)
    text = "order 1024\n" + "".join(" ".join(map(str, row)) + "\n" for row in t)
    with pytest.raises(NotAGroup, match="associativity"):
        group_from_text(text)


def test_group_from_table_checks_generators():
    z6 = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    assert group_from_table(z6, generators=(2, 3)).generators == (2, 3)
    assert group_from_table(z6).generators == (1,)
    for gens in ((2,), (3,), (0,), (6,)):
        with pytest.raises(BadParams):
            group_from_table(z6, generators=gens)


def test_group_from_table_roundtrip():
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    G = group_from_table(z3, name="Z3manual")
    assert G.identity == 0
    assert G.inv(1) == 2
    assert G.name == "Z3manual"
    with pytest.raises(BadParams):
        group_from_table(z3, labels=("a", "b"))


def test_dihedral_relations():
    n = 4
    G = dihedral_group(n)
    r, s = 1, n
    assert G.element_order(r) == n
    assert G.element_order(s) == 2
    assert G.mul(G.mul(s, r), s) == G.inv(r)
    rk = G.identity
    for _ in range(n):
        rk = G.mul(rk, r)
    assert rk == G.identity


def test_symmetric_group_bounds():
    with pytest.raises(BadParams):
        symmetric_group(7)
    with pytest.raises(BadParams):
        symmetric_group(0)
    assert symmetric_group(1).order == 1


def test_quaternion_structure():
    G = quaternion_group()
    order2 = [g for g in range(G.order) if G.element_order(g) == 2]
    assert len(order2) == 1
    minus_one = order2[0]
    order4 = [g for g in range(G.order) if G.element_order(g) == 4]
    assert len(order4) == 6
    for g in order4:
        assert G.mul(g, g) == minus_one


def test_binary_groups_have_unique_involution():
    for G in (binary_tetrahedral_group(), binary_octahedral_group(),
              binary_icosahedral_group()):
        assert sum(1 for g in range(G.order) if G.element_order(g) == 2) == 1
        assert center(G).order == 2


# sha256 of repr((mul_table, inv_table, identity, generators)) as the groups
# numbered their elements when closed from unit quaternions over Q[sqrt2, sqrt5]:
# class representatives, automorphism witnesses and report bytes all read it
SU2_NUMBERING = {
    "quaternion": "cb2660b16e375ce5320aab68bd3b4489e84c6d2a2e99c3d1b680d144e018df75",
    "binary_tetrahedral": "860925b9020eca673310a56ef8142c59444e1b6c28294827655f6e0911cf0ef2",
    "binary_octahedral": "83f03f4e47408a7875862d13c2c2dbfd03f1a32fb5ab6af4ae6722cbd45e2a9d",
    "binary_icosahedral": "127e1a78db1e8d4d31d41d80dfa211eada0edc39294de82318a35994d1986685",
}


@pytest.mark.parametrize("family", SU2_NUMBERING)
def test_su2_groups_keep_their_numbering(family):
    G = builtin_group(family)
    tables = repr((G.mul_table, G.inv_table, G.identity, G.generators)).encode()
    assert hashlib.sha256(tables).hexdigest() == SU2_NUMBERING[family]


def _reference_matrix(m):
    """An engine matrix read into the Fraction-coefficient reference arithmetic."""
    return tuple(tuple(ref.Cyclotomic(v.order, tuple(Fraction(c, v.den) for c in v.num))
                       for v in row) for row in m)


def _reference_product(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ref.Cyclotomic.zero())
                       for j in range(len(b[0]))) for i in range(len(a)))


def test_su2_matrices_multiply_like_the_table():
    """Read into the reference arithmetic, independent of the engine's, the
    stored matrices are distinct, unitary and of determinant 1, and x*s lands
    on the table's entry for every generator s."""
    one, zero = ref.Cyclotomic.one(), ref.Cyclotomic.zero()
    for G in map(builtin_group, SU2_NUMBERING):
        mats = [_reference_matrix(m) for m in G.matrices]
        n = lcm(*(v.order for m in mats for row in m for v in row))
        assert len({tuple(v._to_order(n) for row in m for v in row) for m in mats}) == G.order
        for (a, b), (c, d) in mats:
            adjoint = ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))
            assert _reference_product(((a, b), (c, d)), adjoint) == ((one, zero), (zero, one))
            assert a * d - b * c == one
        for s in G.generators:
            for x in range(G.order):
                assert _reference_product(mats[x], mats[s]) == mats[G.mul(x, s)]


def test_conjugacy_classes_cyclic():
    cls = conjugacy_classes(cyclic_group(5))
    assert cls.n_classes == 5
    assert cls.sizes == (1,) * 5
    assert cls.reps == (0, 1, 2, 3, 4)
    assert cls.inverse_class == (0, 4, 3, 2, 1)


def test_conjugacy_classes_s3():
    G = symmetric_group(3)
    cls = conjugacy_classes(G)
    assert sorted(cls.sizes) == [1, 2, 3]
    assert cls.sizes[0] == 1
    assert cls.class_of[G.identity] == 0
    assert sum(cls.sizes) == 6


def test_conjugacy_classes_d4():
    cls = conjugacy_classes(dihedral_group(4))
    assert cls.sizes == (1, 2, 1, 2, 2)
    assert cls.reps == (0, 1, 2, 4, 5)


def test_class_ordering_contract():
    S4 = symmetric_group(4)
    shift = [(i + 5) % 24 for i in range(24)]  # relabelling: identity lands at 5
    back = sorted(range(24), key=shift.__getitem__)
    loaded = group_from_text(group_to_text(group_from_table(
        [[shift[S4.mul(back[a], back[b])] for b in range(24)] for a in range(24)])))
    assert loaded.identity == 5
    for G in (S4, dihedral_group(6), quaternion_group(), cyclic_group(9), loaded):
        cls = conjugacy_classes(G)
        assert cls.reps[0] == G.identity
        assert list(cls.reps[1:]) == sorted(cls.reps[1:])
        for c in range(cls.n_classes):
            # the stored members are the conjugation orbit of the representative
            scan = tuple(g for g in range(G.order) if cls.class_of[g] == c)
            assert cls.class_members[c] == scan and len(scan) == cls.sizes[c]
            assert set(scan) == {G.conj(h, cls.reps[c]) for h in range(G.order)}
            assert min(scan) == cls.reps[c]


def test_power_orbits_match_all_powers_coprime_to_the_exponent():
    """Each class C^j (j prime to the order of C's elements) points at its orbit's
    lowest-numbered class c and an exponent taking c's representative into it."""
    from math import gcd

    for G in (cyclic_group(12), dihedral_group(8), symmetric_group(5), quaternion_group(),
              binary_icosahedral_group(), direct_product(cyclic_group(5), cyclic_group(3))):
        cls = conjugacy_classes(G)
        n = G.exponent()

        def power(g, j):
            x = G.identity
            for _ in range(j):
                x = G.mul(x, g)
            return x
        orbit = [{cls.class_of[power(r, j)] for j in range(1, n) if gcd(j, n) == 1}
                 for r in cls.reps]
        for d in range(cls.n_classes):
            c, j = cls._power_orbits.get(d, (d, 1))
            assert c == min(orbit[d]) and cls.class_of[power(cls.reps[c], j)] == d
            assert gcd(j, G.element_order(cls.reps[c])) == 1
        assert len(cls._power_orbits) == cls.n_classes - len({min(o) for o in orbit})


def test_centralizer_product_law():
    for G in (symmetric_group(4), dihedral_group(5), binary_tetrahedral_group()):
        cls = conjugacy_classes(G)
        for c in range(cls.n_classes):
            assert cls.sizes[c] * cls.centralizer_sizes[c] == G.order
            assert centralizer_order(G, cls.reps[c]) == cls.centralizer_sizes[c]


def test_inverse_class_is_involution():
    for G in (symmetric_group(4), quaternion_group(), cyclic_group(7)):
        cls = conjugacy_classes(G)
        for c in range(cls.n_classes):
            assert cls.inverse_class[cls.inverse_class[c]] == c
            g = cls.reps[c]
            assert cls.class_of[G.inv(g)] == cls.inverse_class[c]


def test_center_and_normalizer():
    D4 = dihedral_group(4)
    Z = center(D4)
    assert Z.order == 2
    assert 2 in Z  # r^2
    assert normalizer(D4, Z).order == 8
    assert center(symmetric_group(3)).order == 1


def test_subgroup_from_elements():
    Z6 = cyclic_group(6)
    H = subgroup_from_elements(Z6, [0, 2, 4])
    assert H.order == 3
    assert H.elements == (0, 2, 4)
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(Z6, [0, 1, 3])
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(Z6, [2, 4])  # identity missing
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(Z6, [])


def test_generated_subgroup():
    D4 = dihedral_group(4)
    assert generated_subgroup(D4, [1]).order == 4
    assert generated_subgroup(D4, [1, 4]).order == 8
    assert generated_subgroup(D4, []).order == 1


def test_coset_space():
    D4 = dihedral_group(4)
    H = generated_subgroup(D4, [1])
    cs = coset_space(D4, H)
    assert cs.n_cosets == 2
    assert cs.reps == (0, 4)
    for cid, members in enumerate(cs.cosets):
        assert members[0] == cs.reps[cid]
        for g in members:
            assert cs.coset_of[g] == cid


def test_subgroup_as_group():
    Z4 = cyclic_group(4)
    H = subgroup_from_elements(Z4, [0, 2])
    sub, embed = subgroup_as_group(Z4, H)
    assert sub.order == 2
    assert sub.mul_table == ((0, 1), (1, 0))
    assert embed == (0, 2)


def test_first_proper_subgroup():
    assert first_proper_subgroup(cyclic_group(4)).order == 2
    assert first_proper_subgroup(cyclic_group(5)).order == 1  # fallback
    assert first_proper_subgroup(dihedral_group(4)).order == 4


def test_direct_product():
    G = direct_product(cyclic_group(2), cyclic_group(3))
    assert G.order == 6
    assert G.is_abelian()
    assert G.exponent() == 6


def test_group_text_roundtrip():
    G = symmetric_group(3)
    text = group_to_text(G)
    H = group_from_text(text, name="roundtrip")
    assert H.mul_table == G.mul_table
    assert H.labels == G.labels


def test_group_text_parse_errors():
    with pytest.raises(ParseError):
        group_from_text("")
    with pytest.raises(ParseError) as e:
        group_from_text("order x\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        group_from_text("order 2\n0 1\n1 9\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        group_from_text("order 3\n0 1 2\n")  # missing rows


def test_build_from_generators():
    def mul(p, q):
        return tuple(p[q[x]] for x in range(3))

    G = build_from_generators([(1, 0, 2), (1, 2, 0)], mul, max_order=6)
    assert G.order == 6
    assert not G.is_abelian()
    with pytest.raises(ClosureOverflow):
        build_from_generators([(1, 0, 2), (1, 2, 0)], mul, max_order=4)


def test_closure_rows_are_the_products():
    """Rows built along the closure's parent links hold every product."""
    def mul(p, q):
        return tuple(p[q[x]] for x in range(4))

    G = build_from_generators([(1, 0, 2, 3), (1, 2, 3, 0), (0, 1, 3, 2)], mul, labeler=tuple)
    index = {x: i for i, x in enumerate(G.labels)}
    assert G.order == 24
    assert all(G.mul_table[a][b] == index[mul(x, y)]
               for a, x in enumerate(G.labels) for b, y in enumerate(G.labels))


def test_symmetric_six_builds_within_one_and_a_half_tables():
    """The closure holds one table of rows and no transposed copy: S6's
    traced peak stays within 1.5 tables of 8-byte cells."""
    tracemalloc.start()
    try:
        symmetric_group.__wrapped__(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 720 ** 2 * 8


def test_cyclic_bounds():
    with pytest.raises(BadParams):
        cyclic_group(0)
    with pytest.raises(BadParams):
        dihedral_group(0)


# ---------------------------------------------------------------------------
# the generator-based law checks against an all-pairs reference

def _all_pairs_ok(G, f, op):
    return all(f[G.mul(a, b)] == op(f[a], f[b])
               for a in range(G.order) for b in range(G.order))


def _action_all_pairs_ok(G, rows):
    return (all(rows[G.identity][s] == s for s in range(len(rows[0])))
            and all(rows[g1][rows[g2][s]] == rows[G.mul(g1, g2)][s]
                    for g1 in range(G.order) for g2 in range(G.order)
                    for s in range(len(rows[0]))))


def _twisted(G, f, g, pick, op):
    """f with each left coset of <g>, other than the identity's, multiplied on
    the left by its own pick(): the law still holds at g, but rarely elsewhere."""
    coset = coset_space(G, generated_subgroup(G, [g])).coset_of
    twist = {c: pick() for c in set(coset) if c != coset[G.identity]}
    return tuple(op(twist[coset[x]], fx) if coset[x] in twist else fx
                 for x, fx in enumerate(f))


def test_law_checks_match_all_pairs_reference():
    """is_endomorphism, one_dim_from_values and validate_action agree with the
    all-pairs definitions on true, perturbed, generator-twisted and random maps
    (seeded)."""
    rng = random.Random(20261018)
    roots = [Cyclotomic.root_of_unity(4, k) for k in range(4)]
    verdicts = {"endo": set(), "one_dim": set(), "action": set()}
    for G in (trivial_group(), cyclic_group(4), symmetric_group(3),
              dihedral_group(4), quaternion_group()):
        n = G.order
        cyclic = [generated_subgroup(G, [g]) for g in range(n)]

        endos = [tuple(a.image) for a in enumerate_automorphisms(G).automorphisms]
        endos.append((G.identity,) * n)
        images = endos + [tuple(rng.randrange(n) for _ in range(n)) for _ in range(6)]
        for img in endos[:6]:
            bad = list(img)
            bad[rng.randrange(n)] = rng.randrange(n)
            images.append(tuple(bad))
            images += [_twisted(G, img, g, lambda: rng.randrange(n), G.mul)
                       for g in G.generators]
        for img in images:
            want = _all_pairs_ok(G, img, G.mul)
            assert is_endomorphism(G, img) == want, (G, img)
            verdicts["endo"].add(want)

        chars = [det_rep(permutation_rep(action_coset(G, H))).values for H in cyclic]
        chars.append(det_rep(permutation_rep(action_left_mult(G))).values)
        value_lists = chars + [tuple(rng.choice(roots) for _ in range(n)) for _ in range(4)]
        for vals in chars[:6]:
            bad = list(vals)
            bad[rng.randrange(n)] = rng.choice(roots[1:]) * bad[0]
            value_lists.append(tuple(bad))
            value_lists += [_twisted(G, vals, g, lambda: rng.choice(roots), lambda a, b: a * b)
                            for g in G.generators]
        for vals in value_lists:
            want = _all_pairs_ok(G, vals, lambda a, b: a * b)
            try:
                one_dim_from_values(G, vals)
                got = True
            except NotAHomomorphism:
                got = False
            assert got == want, (G, vals)
            verdicts["one_dim"].add(want)

        actions = [action_left_mult(G), action_trivial(G, 2)]
        actions += [action_coset(G, H) for H in cyclic[:4]]
        actions.append(action_product(actions[0], actions[-1]))
        tables = [A.table for A in actions]
        for table in tables[:5]:
            m = len(table[0])
            rows = [list(r) for r in table]
            x, i, j = rng.randrange(n), rng.randrange(m), rng.randrange(m)
            rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
            tables.append(tuple(tuple(r) for r in rows))
            tables.append(tuple(table[rng.randrange(n)] for _ in range(n)))
            tables += [_twisted(G, table, g, lambda: tuple(rng.sample(range(m), m)),
                                lambda p, q: tuple(p[v] for v in q))
                       for g in G.generators]
        for _ in range(4):
            m = rng.randrange(1, 5)
            tables.append(tuple(tuple(rng.sample(range(m), m)) for _ in range(n)))
        for table in tables:
            want = _action_all_pairs_ok(G, table)
            bad = validate_action(GroupAction(G, len(table[0]), table))
            assert (bad is None) == want, (G, table)
            if bad is not None and bad[0] == "compatibility":
                g1, g2, s = bad[1]
                assert table[g1][table[g2][s]] != table[G.mul(g1, g2)][s]
            verdicts["action"].add(want)
    assert all(v == {True, False} for v in verdicts.values())
