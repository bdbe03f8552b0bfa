"""Element-level oracle, Fock traces, and action structure theorems."""

from fractions import Fraction

import pytest

from gaugecount import (
    BadParams,
    BudgetExceeded,
    Cyclotomic,
    DimTooLarge,
    FermionMatter,
    GroupAction,
    LatticeGraph,
    NonIntegralResult,
    NotFree,
    NotTransitive,
    OddSitesForStaggered,
    PureGauge,
    ScalarMatter,
    ScalarMatterPerSite,
    action_coset,
    action_left_mult,
    action_product,
    action_trivial,
    binary_tetrahedral_group,
    burnside_count,
    count,
    cyclic_group,
    dihedral_group,
    dihedral_rotation_rep,
    fermion_element_weight,
    first_proper_subgroup,
    fock_site_matrix,
    fock_site_trace,
    free_action_closed_form,
    free_orbit_decomposition,
    free_to_product,
    inversion_endo,
    lattice_chain,
    lattice_hypercubic,
    mat_mul_exact,
    one_dim_to_rep,
    oracle_count,
    pair_count_table,
    quaternion_group,
    subgroup_from_elements,
    su2_fundamental_rep,
    symmetric_group,
    transitive_to_coset,
    trivial_rep,
    twist_on_wrap_edges,
    zn_charge_rep,
)
from gaugecount import oracle


def test_pair_count_table_abelian_is_diagonal():
    G = cyclic_group(4)
    M = pair_count_table(G)
    for a in range(4):
        for b in range(4):
            assert M[a][b] == (4 if a == b else 0)


def test_pair_count_table_structure():
    from gaugecount import conjugacy_classes
    G = symmetric_group(3)
    M = pair_count_table(G)
    cls = conjugacy_classes(G)
    for a in range(6):
        assert sum(M[a]) == 6
        assert M[G.identity][a] == (6 if a == G.identity else 0)
        for b in range(6):
            same = cls.class_of[a] == cls.class_of[b]
            assert (M[a][b] > 0) == same


def test_pair_count_table_matches_the_definition():
    for G in (symmetric_group(3), dihedral_group(4), quaternion_group(),
              binary_tetrahedral_group(), symmetric_group(5)):
        n, mul = G.order, G.mul_table
        brute = tuple(tuple(sum(mul[a][g] == mul[g][b] for g in range(n)) for b in range(n))
                      for a in range(n))
        assert pair_count_table(G) == brute, G.name


def test_burnside_checks_the_budget_before_the_pair_table(monkeypatch):
    def refuse(G):
        raise AssertionError("pair table built before the budget check")

    monkeypatch.setattr(oracle, "pair_count_table", refuse)
    S3 = symmetric_group(3)
    with pytest.raises(BudgetExceeded):
        burnside_count(S3, lattice_chain(2, periodic=True), [(1,) * 6] * 2, budget=35)


def test_burnside_pure_gauge():
    S3 = symmetric_group(3)
    ones = [(1,) * 6] * 2
    assert burnside_count(S3, lattice_chain(2, periodic=True), ones) == 3
    assert burnside_count(S3, lattice_chain(2), ones) == 1


def test_burnside_rejects_bad_rows():
    Z2 = cyclic_group(2)
    with pytest.raises(BadParams):
        burnside_count(Z2, lattice_chain(2), [(1, 1)])
    with pytest.raises(BadParams):
        burnside_count(Z2, lattice_chain(2), [(1, 1), (1,)])


def test_burnside_budget():
    S3 = symmetric_group(3)
    rows = [(1,) * 6] * 4
    with pytest.raises(BudgetExceeded):
        burnside_count(S3, lattice_chain(4, periodic=True), rows, budget=100)


def test_burnside_integrality_and_sign():
    Z2 = cyclic_group(2)
    iso = LatticeGraph(1, ())
    with pytest.raises(NonIntegralResult):
        burnside_count(Z2, iso, [(Fraction(1, 3), Fraction(1, 3))])
    with pytest.raises(NonIntegralResult):
        burnside_count(Z2, iso, [(-1, -1)])
    assert burnside_count(Z2, iso, [(-1, -1)], require_nonnegative=False) == -1


def test_fock_trace_identity_and_involution():
    Q8 = quaternion_group()
    rep = su2_fundamental_rep(Q8)
    e = Q8.identity
    assert fock_site_trace(rep, e) == 4  # 2^dim states
    assert fock_site_trace(rep, e, parity_sign=-1) == 0
    minus_one = next(g for g in range(8) if g != e and Q8.mul(g, g) == e)
    assert fock_site_trace(rep, minus_one) == 0
    assert fock_site_trace(rep, minus_one, parity_sign=-1) == 4


def test_fock_trace_parameter_checks():
    Q8 = quaternion_group()
    rep = su2_fundamental_rep(Q8)
    with pytest.raises(BadParams):
        fock_site_trace(rep, Q8.identity, parity_sign=2)
    with pytest.raises(DimTooLarge):
        fock_site_trace(trivial_rep(Q8, 7), Q8.identity)
    with pytest.raises(DimTooLarge):
        fock_site_matrix(trivial_rep(Q8, 7), Q8.identity)


def test_fock_matrix_is_a_representation():
    D4 = dihedral_group(4)
    rep = dihedral_rotation_rep(D4, 4)
    zero = Cyclotomic.zero()
    for g in (1, 4):
        F = fock_site_matrix(rep, g)
        assert len(F) == 4 and all(len(r) == 4 for r in F)
        assert F[0][0] == Cyclotomic.one()  # empty occupation is invariant
        # occupation-number grading: no mixing between subset sizes
        for i, j in ((0, 1), (1, 0), (3, 1), (2, 3)):
            if bin(i).count("1") != bin(j).count("1"):
                assert F[i][j] == zero
        diag = zero
        for k in range(4):
            diag = diag + F[k][k]
        assert diag == fock_site_trace(rep, g)
    for g in range(8):
        for h in range(8):
            lhs = mat_mul_exact(fock_site_matrix(rep, g), fock_site_matrix(rep, h))
            assert lhs == fock_site_matrix(rep, D4.mul(g, h))


def test_fermion_element_weight_multiplies_flavours():
    Q8 = quaternion_group()
    rep = su2_fundamental_rep(Q8)
    m2 = FermionMatter(flavours=(rep, rep), spinor_count=1, vacuum="trivial")
    m1 = FermionMatter(flavours=(rep,), spinor_count=2, vacuum="trivial")
    for g in range(8):
        one_flavour = fermion_element_weight(
            FermionMatter(flavours=(rep,), spinor_count=1, vacuum="trivial"), g)
        assert fermion_element_weight(m2, g) == one_flavour * one_flavour
        assert fermion_element_weight(m1, g) == one_flavour * one_flavour


def test_mat_det_exact_small_sizes():
    r = Cyclotomic.rational
    w = Cyclotomic.root_of_unity(3)
    assert oracle.mat_det_exact(()) == 1
    assert oracle.mat_det_exact(((w,),)) == w
    assert oracle.mat_det_exact(((Cyclotomic.zero(),),)).is_zero()
    assert oracle.mat_det_exact(((r(2), r(3)), (r(5), r(7)))) == -1
    assert oracle.mat_det_exact(((Cyclotomic.zero(), w), (w, r(4)))) == -(w * w)
    assert oracle.mat_det_exact(((w, r(3)), (Cyclotomic.zero(), w))) == w * w
    assert oracle.mat_det_exact(((r(0), r(0)), (r(5), r(7)))).is_zero()
    # a zero in the first row skips its cofactor
    three = ((r(0), r(2), r(1)), (r(3), w, r(0)), (r(1), r(0), r(4)))
    assert oracle.mat_det_exact(three) == -(r(24) + w)


def test_oracle_matches_engine_across_matter_kinds():
    S3 = symmetric_group(3)
    D4 = dihedral_group(4)
    Q8 = quaternion_group()
    Z4 = cyclic_group(4)
    Lp = lattice_chain(2, periodic=True)

    cases = [
        (S3, lattice_hypercubic((1, 1)), PureGauge(), None, None),
        (D4, lattice_chain(2), ScalarMatter(action_coset(D4, first_proper_subgroup(D4))), None, None),
        (S3, lattice_chain(2), ScalarMatterPerSite((action_left_mult(S3), action_trivial(S3, 2))), None, None),
        (Q8, Lp, FermionMatter(flavours=(su2_fundamental_rep(Q8),), spinor_count=1, vacuum="trivial"), None, None),
        (D4, Lp, FermionMatter(flavours=(dihedral_rotation_rep(D4, 4),), spinor_count=1, vacuum="staggered"), None, None),
        (Z4, Lp, PureGauge(), twist_on_wrap_edges(Lp, inversion_endo(Z4), 0), None),
        (cyclic_group(3), lattice_chain(2), PureGauge(), None, [1]),
    ]
    for G, L, matter, tw, attach in cases:
        engine = count(G, L, matter, twist=tw, dangling_attach=attach).total
        oracle = oracle_count(G, L, matter, twist=tw, dangling_attach=attach)
        assert engine == oracle


def test_oracle_signed_trace():
    Z2 = cyclic_group(2)
    iso = LatticeGraph(1, ())
    m = FermionMatter(flavours=(one_dim_to_rep(zn_charge_rep(Z2, 1)),),
                      spinor_count=1, vacuum=zn_charge_rep(Z2, 1))
    assert oracle_count(Z2, iso, m, parity_sign=1) == 1
    assert oracle_count(Z2, iso, m, parity_sign=-1) == -1


def test_oracle_rejects_unknown_matter_and_combines_boundaries():
    Z2 = cyclic_group(2)
    with pytest.raises(BadParams):
        oracle_count(Z2, lattice_chain(2), object())
    Z4 = cyclic_group(4)
    L = lattice_chain(2, periodic=True)
    tw = twist_on_wrap_edges(L, inversion_endo(Z4), 0)
    both = oracle_count(Z4, L, PureGauge(), twist=tw, dangling_attach=[0])
    assert both == count(Z4, L, PureGauge(), twist=tw, dangling_attach=[0]).total


def test_staggered_vacuum_on_odd_sites_is_one_refusal():
    Q8 = quaternion_group()
    m = FermionMatter((su2_fundamental_rep(Q8),), vacuum="staggered")
    L = lattice_chain(3)
    with pytest.raises(OddSitesForStaggered):
        count(Q8, L, m)
    with pytest.raises(OddSitesForStaggered):
        oracle_count(Q8, L, m)


def test_transitive_to_coset_left_mult():
    S3 = symmetric_group(3)
    H, CA, mapping = transitive_to_coset(action_left_mult(S3))
    assert H.order == 1
    assert CA.set_size == 6
    assert sorted(mapping) == list(range(6))


def test_transitive_to_coset_proper_quotient():
    Z4 = cyclic_group(4)
    H0 = subgroup_from_elements(Z4, [0, 2])
    H, CA, mapping = transitive_to_coset(action_coset(Z4, H0))
    assert H.order == 2 and set(H.elements) == {0, 2}
    assert CA.set_size == 2 and sorted(mapping) == [0, 1]


def test_transitive_to_coset_single_point():
    D4 = dihedral_group(4)
    H, CA, mapping = transitive_to_coset(action_trivial(D4, 1))
    assert H.order == D4.order
    assert mapping == (0,)


def test_transitive_to_coset_rejects_intransitive():
    with pytest.raises(NotTransitive):
        transitive_to_coset(action_trivial(symmetric_group(3), 2))


def _relabel(A: GroupAction, perm: list[int]) -> GroupAction:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    table = tuple(tuple(perm[A.table[g][inv[s]]] for s in range(A.set_size))
                  for g in range(A.group.order))
    return GroupAction(A.group, A.set_size, table)


def test_free_orbit_decomposition_two_blocks():
    Z3 = cyclic_group(3)
    A = action_product(action_left_mult(Z3), action_trivial(Z3, 2))
    B = _relabel(A, [3, 0, 5, 1, 4, 2])
    bases, tables = free_orbit_decomposition(B)
    assert len(bases) == len(tables) == 2
    for base, reach in zip(bases, tables):
        assert reach[Z3.identity] == base
        assert sorted(set(reach)) == sorted(reach)


def test_free_to_product_bijection():
    Z3 = cyclic_group(3)
    A = action_product(action_left_mult(Z3), action_trivial(Z3, 2))
    B = _relabel(A, [3, 0, 5, 1, 4, 2])
    k, mapping = free_to_product(B)
    assert k == 2
    assert B.set_size == Z3.order * k
    assert sorted(mapping) == sorted((g, o) for o in range(2) for g in range(3))


def test_free_decomposition_rejects_non_free():
    Z4 = cyclic_group(4)
    with pytest.raises(NotFree):
        free_orbit_decomposition(action_coset(Z4, subgroup_from_elements(Z4, [0, 2])))
    with pytest.raises(NotFree):
        free_to_product(action_trivial(Z4, 2))


def test_free_action_closed_form_matches_engine_and_oracle():
    S3 = symmetric_group(3)
    L = lattice_chain(2)
    acts = (action_left_mult(S3),
            action_product(action_left_mult(S3), action_trivial(S3, 2)))
    closed = free_action_closed_form(S3, L, acts)
    assert closed == 6 * 1 * 2
    m = ScalarMatterPerSite(acts)
    assert count(S3, L, m).total == closed
    assert oracle_count(S3, L, m) == closed
    with pytest.raises(BadParams):
        free_action_closed_form(S3, lattice_chain(3), acts)
    with pytest.raises(BadParams, match="^2 actions for 3 sites$"):
        oracle_count(S3, lattice_chain(3), m)
