"""Acceptance suite: oracle agreement, closed forms, automorphism tables,
structural invariants, action structure theorems, and integrality guarantees.

Each criterion test emits one PASS line on the live terminal; the two
strict-xfail tests document a closed-form display that overcounts by the
central rotation class whose Fock weight vanishes.
"""

import random
import time
from fractions import Fraction

import pytest

from gaugecount import (
    ClassFunction,
    Cyclotomic,
    FermionMatter,
    GroupAction,
    NonIntegralResult,
    PureGauge,
    ScalarMatter,
    action_coset,
    action_left_mult,
    action_product,
    action_trivial,
    analyze_automorphisms,
    binary_icosahedral_group,
    binary_octahedral_group,
    binary_tetrahedral_group,
    center,
    conjugacy_classes,
    constant_class_function,
    constant_identity_endo,
    count,
    count_fermion_parity_split,
    count_general,
    count_zn_closed_form,
    cyclic_group,
    dangling_boundary_extension,
    dihedral_group,
    dihedral_rotation_rep,
    fermion_site_character,
    first_proper_subgroup,
    free_to_product,
    generated_subgroup,
    identity_endo,
    inner_automorphism,
    inversion_endo,
    is_class_inverting,
    lattice_chain,
    lattice_hypercubic,
    make_twist,
    one_dim_to_rep,
    oracle_count,
    quaternion_group,
    rep_from_generator_images,
    su2_fundamental_rep,
    subgroup_as_group,
    symmetric_group,
    transitive_to_coset,
    twist_on_wrap_edges,
    zn_charge_rep,
    zn_site_characters,
)


def _say(capsys, line: str) -> None:
    with capsys.disabled():
        print("\n" + line)


# ---------------------------------------------------------------------------
# shared engine-vs-oracle grid (criteria 1 and 7)

def _perm_matrix(p):
    z, o = Cyclotomic.zero(), Cyclotomic.one()
    n = len(p)
    return tuple(tuple(o if i == p[j] else z for j in range(n))
                 for i in range(n))


def _faithful_rep(G):
    if G.name.startswith("Z"):
        return one_dim_to_rep(zn_charge_rep(G, 1))
    if G.name == "S3":
        w = Cyclotomic.root_of_unity(3)
        z, o = Cyclotomic.zero(), Cyclotomic.one()
        return rep_from_generator_images(
            G, (((z, o), (o, z)), ((w, z), (z, w * w))))
    if G.name == "S4":
        return rep_from_generator_images(
            G, (_perm_matrix((1, 0, 2, 3)), _perm_matrix((1, 2, 3, 0))))
    if G.name.startswith("D"):
        return dihedral_rotation_rep(G, int(G.name[1:]))
    return su2_fundamental_rep(G)


def _grid_groups():
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(5),
            cyclic_group(6), symmetric_group(3), dihedral_group(4),
            quaternion_group(), binary_tetrahedral_group()]


def _grid_lattices():
    return [lattice_chain(2), lattice_chain(2, periodic=True),
            lattice_hypercubic((1, 1)), lattice_hypercubic((2, 2)),
            lattice_chain(3)]


def _noncentral_element(G):
    return next(g for g in range(G.order)
                if any(G.mul(g, x) != G.mul(x, g) for x in range(G.order)))


@pytest.fixture(scope="module")
def grid_results():
    runs = []
    t0 = time.monotonic()
    for G in _grid_groups():
        rep = _faithful_rep(G)
        for L in _grid_lattices():
            matters = [PureGauge(),
                       ScalarMatter(action_left_mult(G)),
                       ScalarMatter(action_coset(G, first_proper_subgroup(G))),
                       FermionMatter((rep,), 1, "trivial"),
                       FermionMatter((rep,), 2, "trivial")]
            if L.site_count % 2 == 0:
                matters.append(FermionMatter((rep,), 1, "staggered"))
            twists = [None,
                      make_twist(L, identity_endo(G), [0]),
                      make_twist(L, constant_identity_endo(G), [0])]
            if L.wrap_edges and L.wrap_edges[0]:
                endo = (inversion_endo(G) if G.is_abelian()
                        else inner_automorphism(G, _noncentral_element(G)))
                twists.append(twist_on_wrap_edges(L, endo, 0))
            for matter in matters:
                for tw in twists:
                    label = (G.name, L.name, type(matter).__name__,
                             "none" if tw is None else "twist")
                    report = count(G, L, matter, twist=tw)
                    oracle = oracle_count(G, L, matter, twist=tw)
                    runs.append((label, report.total, oracle, report.witness))
    return runs, time.monotonic() - t0


def test_criterion_1_formula_matches_oracle_grid(grid_results, capsys):
    runs, elapsed = grid_results
    bad = [(label, e, o) for label, e, o, _ in runs if e != o]
    assert bad == []
    assert len(runs) >= 300
    assert elapsed < 300
    _say(capsys, f"PASS criterion 1: formula == element oracle on {len(runs)} "
                 f"group/lattice/matter/twist combinations "
                 f"(disconnected bulk included, none skipped), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: cyclic-group closed forms

def test_criterion_2_cyclic_closed_forms(capsys):
    t0 = time.monotonic()
    checked = 0
    lattices = [lattice_chain(2, periodic=True), lattice_chain(3, periodic=True),
                lattice_hypercubic((2, 2))]
    for N in range(1, 7):
        G = cyclic_group(N)
        cls = conjugacy_classes(G)
        for L in lattices:
            V = L.site_count
            patterns = [(0,) * V, (1,) + (0,) * (V - 1), (1,) * V,
                        (2, 1) + (0,) * (V - 2)]
            for charges in patterns:
                chars = zn_site_characters(N, charges, cls)
                closed = count_zn_closed_form(N, charges, L)
                assert count_general(G, cls, L, chars).total == closed
                checked += 1

                ctw = twist_on_wrap_edges(L, inversion_endo(G), 0)
                cclosed = count_zn_closed_form(N, charges, L,
                                               boundary="cperiodic")
                assert count_general(G, cls, L, chars, twist=ctw).total == cclosed
                checked += 1

        open3 = lattice_chain(3)
        for charges in ((0, 0, 0), (1, 0, 0), (2, 2, 1)):
            ext, tw = dangling_boundary_extension(open3, (0, 2), G)
            chars = zn_site_characters(N, charges, cls)
            chars = chars + [constant_class_function(cls, 1)]
            closed = count_zn_closed_form(N, charges, ext, boundary="dangling")
            assert count_general(G, cls, ext, chars, twist=tw).total == closed
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _say(capsys, f"PASS criterion 2: {checked} cyclic-group counts match the "
                 f"periodic/dangling/charge-conjugated closed forms, "
                 f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: dihedral fermion closed form
#
# The three-term display 8^(E-V) 4^V + 8^(E-V) 2^V + 4^(E-V) 2^V includes the
# central half-turn rotation class, but that class carries Fock weight
# det(1 + rho(half-turn)) = det(1 - 1) = 0, so the true dimension keeps only
# the first and third terms.  The two strict-xfail tests record the displayed
# claims; the passing test verifies the corrected two-term form.

def _d4_fermion():
    D4 = dihedral_group(4)
    return D4, FermionMatter((dihedral_rotation_rep(D4, 4),), 1, "trivial")


def _d4_shapes():
    return {(2, 1): lattice_chain(2),
            (2, 2): lattice_chain(2, periodic=True),
            (1, 2): lattice_hypercubic((1, 1)),
            (3, 2): lattice_chain(3),
            (3, 3): lattice_chain(3, periodic=True)}


def _three_term_display(V: int, E: int) -> Fraction:
    return (Fraction(8) ** (E - V) * 4 ** V
            + Fraction(8) ** (E - V) * 2 ** V
            + Fraction(4) ** (E - V) * 2 ** V)


def _two_term_corrected(V: int, E: int) -> int:
    val = Fraction(8) ** (E - V) * 4 ** V + Fraction(4) ** (E - V) * 2 ** V
    assert val.denominator == 1
    return int(val)


@pytest.mark.xfail(strict=True,
                   reason="three-term closed form counts the central rotation "
                          "class whose Fock weight vanishes; the computed "
                          "dimension drops that term")
def test_criterion_3_displayed_three_term_form():
    D4, matter = _d4_fermion()
    L = lattice_chain(2, periodic=True)
    assert count(D4, L, matter).total == _three_term_display(2, 2)


@pytest.mark.xfail(strict=True,
                   reason="the element oracle gives 20 on the periodic "
                          "two-site chain, not the displayed 24")
def test_criterion_3_displayed_value_24():
    D4, matter = _d4_fermion()
    L = lattice_chain(2, periodic=True)
    assert oracle_count(D4, L, matter) == 24


def test_criterion_3_corrected_two_term_form(capsys):
    D4, matter = _d4_fermion()
    for (V, E), L in _d4_shapes().items():
        engine = count(D4, L, matter).total
        oracle = oracle_count(D4, L, matter)
        corrected = _two_term_corrected(V, E)
        assert engine == oracle == corrected
        middle = Fraction(8) ** (E - V) * 2 ** V
        assert _three_term_display(V, E) - middle == corrected
    assert count(D4, lattice_chain(2, periodic=True), matter).total == 20
    _say(capsys, "PASS criterion 3: corrected two-term dihedral fermion form "
                 "== formula == oracle at 5 lattice shapes (displayed "
                 "three-term value 24 recorded as strict xfails; true count "
                 "is 20)")


# ---------------------------------------------------------------------------
# criterion 4: binary polyhedral automorphism tables

def test_criterion_4_binary_group_tables(capsys):
    expected = {
        "2T": (24, 24, 12, 2, False, True, 6),
        "2O": (48, 48, 24, 2, True, True, 10),
        "2I": (120, 120, 60, 2, True, True, 16),
    }
    builders = {"2T": binary_tetrahedral_group,
                "2O": binary_octahedral_group,
                "2I": binary_icosahedral_group}
    t0 = time.monotonic()
    for name, build in builders.items():
        G = build()
        order, aut, inner, outer, amb, quasi, n_cc = expected[name]
        classes = conjugacy_classes(G)
        report = analyze_automorphisms(G, classes)
        assert report.complete
        assert G.order == order
        assert center(G).order == 2
        assert report.aut_order == aut
        assert report.inner_order == inner
        assert report.outer_order == outer
        assert report.ambivalent is amb
        assert report.quasi_ambivalent is quasi
        assert len(report.charge_conjugations) == n_cc
        for phi in report.charge_conjugations:
            assert is_class_inverting(phi, classes)
            composed = tuple(phi.image[phi.image[g]] for g in range(G.order))
            assert composed == tuple(range(G.order))
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _say(capsys, f"PASS criterion 4: 2T/2O/2I automorphism tables (orders, "
                 f"inner/outer split, ambivalence, involutory conjugation "
                 f"counts) reproduced with complete enumeration, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: structural invariants

def test_criterion_5_invariants(capsys):
    t0 = time.monotonic()
    groups = [cyclic_group(5), cyclic_group(6), symmetric_group(3),
              symmetric_group(4), dihedral_group(4), dihedral_group(5),
              quaternion_group(), binary_tetrahedral_group()]
    for G in groups:
        cls = conjugacy_classes(G)
        assert sum(cls.sizes) == G.order
        assert cls.reps[0] == G.identity
        assert all(G.order % s == 0 for s in cls.sizes)
        # multiplication table is a Latin square
        full = set(range(G.order))
        for a in range(G.order):
            assert set(G.mul_table[a]) == full
            assert {G.mul_table[b][a] for b in range(G.order)} == full
        for c in range(cls.n_classes):
            assert cls.sizes[c] * cls.centralizer_sizes[c] == G.order
            assert cls.sizes[cls.inverse_class[c]] == cls.sizes[c]

        # ambivalence is exactly the identity map being class-inverting
        report = analyze_automorphisms(G, cls)
        assert report.ambivalent == is_class_inverting(identity_endo(G), cls)

        # Fock weights: rational values nonnegative, complex ones paired
        # with their conjugate on the inverse class
        chi = fermion_site_character(_faithful_rep(G), cls)
        for c, v in enumerate(chi.values):
            if v.is_rational():
                assert v.rational_value() >= 0
            assert chi.values[cls.inverse_class[c]] == v.conjugate()

        # trees confine everything to a single invariant
        assert count(G, lattice_chain(4), PureGauge()).total == 1
        # zero-deficit periodic chains count conjugacy classes
        assert count(G, lattice_chain(3, periodic=True), PureGauge()).total \
            == cls.n_classes
        # identity twists never change the answer
        L = lattice_chain(2, periodic=True)
        tw = make_twist(L, identity_endo(G), [1])
        assert count(G, L, PureGauge(), twist=tw).total \
            == count(G, L, PureGauge()).total

    # parity sectors assemble into the plain trace
    for G in (quaternion_group(), dihedral_group(4)):
        m = FermionMatter((_faithful_rep(G),), 1, "trivial")
        sp = count_fermion_parity_split(G, lattice_chain(2, periodic=True), m)
        assert sp.dim_even + sp.dim_odd == sp.trace_plain
        assert sp.dim_even - sp.dim_odd == sp.trace_weighted
        assert sp.dim_even >= 0 and sp.dim_odd >= 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _say(capsys, f"PASS criterion 5: class-size, centralizer, ambivalence, "
                 f"Fock-weight, tree, zero-deficit, identity-twist, and "
                 f"parity-split invariants hold on {len(groups)} groups, "
                 f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: structure theorems on randomized actions

def _relabelled(A: GroupAction, rng: random.Random) -> GroupAction:
    perm = list(range(A.set_size))
    rng.shuffle(perm)
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    table = tuple(tuple(perm[A.table[g][inv[s]]] for s in range(A.set_size))
                  for g in range(A.group.order))
    return GroupAction(A.group, A.set_size, table)


def test_criterion_6_randomized_structure_theorems(capsys):
    rng = random.Random(20260825)
    t0 = time.monotonic()
    pool = [cyclic_group(6), cyclic_group(8), symmetric_group(3),
            symmetric_group(4), dihedral_group(4), dihedral_group(6),
            quaternion_group(), binary_tetrahedral_group()]

    n_transitive = 0
    while n_transitive < 20:
        G = rng.choice(pool)
        H = generated_subgroup(G, [rng.randrange(G.order) for _ in range(2)])
        if G.order // H.order > 12:
            continue
        A = _relabelled(action_coset(G, H), rng)
        stab, coset_action, mapping = transitive_to_coset(A)
        assert stab.order * A.set_size == G.order
        assert sorted(mapping) == list(range(A.set_size))
        for _ in range(20):
            g, s = rng.randrange(G.order), rng.randrange(A.set_size)
            assert mapping[A.table[g][s]] == coset_action.table[g][mapping[s]]
        n_transitive += 1

    n_free = 0
    while n_free < 20:
        G = rng.choice(pool)
        k = rng.choice((1, 2))
        A = _relabelled(action_product(action_left_mult(G),
                                       action_trivial(G, k)), rng)
        orbit_count, mapping = free_to_product(A)
        assert orbit_count == k
        assert A.set_size == G.order * k
        assert sorted(mapping) == sorted((g, o) for o in range(k)
                                         for g in range(G.order))
        for _ in range(20):
            g, s = rng.randrange(G.order), rng.randrange(A.set_size)
            gs, orb = mapping[s]
            assert mapping[A.table[g][s]] == (G.mul(g, gs), orb)
        n_free += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _say(capsys, f"PASS criterion 6: {n_transitive} relabelled transitive "
                 f"actions identified with coset actions and {n_free} free "
                 f"actions with regular-orbit products, seed 20260825, "
                 f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: integrality witnesses

def test_criterion_7_integrality(grid_results, capsys):
    runs, _ = grid_results
    assert all(w.passed for _, _, _, w in runs)
    assert all(w.denominator == 1 and w.is_rational for _, _, _, w in runs)

    # corrupted characters must be caught, not rounded
    Z3 = cyclic_group(3)
    cls = conjugacy_classes(Z3)
    with pytest.raises(NonIntegralResult):
        count_general(Z3, cls, lattice_chain(2, periodic=True),
                      [constant_class_function(cls, Fraction(1, 3))] * 2)
    z = Cyclotomic.root_of_unity(3)
    with pytest.raises(NonIntegralResult):
        count_general(Z3, cls, lattice_chain(1),
                      [ClassFunction(Z3, (Cyclotomic.one(), z, z))])
    Z2 = cyclic_group(2)
    cls2 = conjugacy_classes(Z2)
    with pytest.raises(NonIntegralResult):
        count_general(Z2, cls2, lattice_chain(1),
                      [constant_class_function(cls2, -1)])
    _say(capsys, f"PASS criterion 7: every one of {len(runs)} grid counts "
                 f"carries a passing integrality witness; fractional, "
                 f"irrational, and negative corruptions raise")
