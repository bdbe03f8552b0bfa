"""Scalar actions, unitary representations, exact characters, matter specs."""

import cmath
from fractions import Fraction

import pytest

from gaugecount import (
    BadParams,
    ClassInconsistency,
    Cyclotomic,
    DimTooLarge,
    FermionMatter,
    GroupAction,
    GroupMismatch,
    NotAHomomorphism,
    OneDimRep,
    ParseError,
    PureGauge,
    ScalarMatter,
    ScalarMatterPerSite,
    SnapFailure,
    UnitaryRep,
    action_coset,
    action_from_text,
    action_left_mult,
    action_principal_chiral,
    action_product,
    action_to_text,
    action_trivial,
    binary_icosahedral_group,
    binary_octahedral_group,
    binary_tetrahedral_group,
    conjugacy_classes,
    constant_class_function,
    count,
    cyclic_group,
    det_character,
    det_rep,
    dihedral_group,
    dihedral_rotation_rep,
    fermion_site_character,
    first_proper_subgroup,
    fixed_point_character,
    fixed_point_count,
    group_from_table,
    group_from_text,
    group_to_text,
    lattice_chain,
    lattice_hypercubic,
    one_dim_class_values,
    one_dim_from_values,
    one_dim_to_rep,
    oracle_count,
    orbits,
    permutation_rep,
    quaternion_group,
    rep_character,
    rep_direct_sum,
    rep_from_exact,
    rep_from_generator_images,
    rep_from_numeric,
    rep_from_text,
    rep_restrict,
    rep_to_text,
    site_characters,
    spinor_components_for_dirac,
    su2_fundamental_rep,
    subgroup_from_elements,
    symmetric_group,
    trivial_one_dim,
    trivial_rep,
    validate_action,
    zn_charge_rep,
)
from gaugecount import matter
from gaugecount.matter import mat_identity_exact, mat_mul_exact
from gaugecount.oracle import mat_det_exact


# ---------------------------------------------------------------------------
# actions

def test_left_mult_action_is_free_and_transitive():
    G = dihedral_group(4)
    A = action_left_mult(G)
    assert validate_action(A) is None
    assert len(orbits(A)) == 1
    for g in range(1, G.order):
        assert fixed_point_count(A, g) == 0
    assert fixed_point_count(A, G.identity) == G.order


def test_coset_action():
    G = dihedral_group(4)
    A = action_coset(G, first_proper_subgroup(G))
    assert A.set_size == 2
    assert validate_action(A) is None
    assert len(orbits(A)) == 1


def test_trivial_and_product_actions():
    G = cyclic_group(3)
    T = action_trivial(G, 4)
    assert validate_action(T) is None
    assert fixed_point_count(T, 1) == 4
    P = action_product(action_left_mult(G), T)
    assert P.set_size == 12
    assert validate_action(P) is None
    assert len(orbits(P)) == 4
    with pytest.raises(BadParams):
        action_trivial(G, 0)
    with pytest.raises(GroupMismatch):
        action_product(action_left_mult(G), action_left_mult(cyclic_group(4)))


def test_principal_chiral_action():
    G = symmetric_group(3)
    A = action_principal_chiral(G)
    assert A.group.order == 36
    assert A.set_size == 6
    assert validate_action(A) is None
    assert len(orbits(A)) == 1


def test_validate_action_flags_violations():
    G = cyclic_group(3)
    A = action_left_mult(G)
    rows = list(A.table)
    rows[0] = (1, 2, 0)  # identity no longer fixes points
    bad = GroupAction(G, 3, tuple(rows))
    kind, where = validate_action(bad)
    assert kind == "identity"
    rows = list(A.table)
    rows[2] = (0, 1, 2)  # g^2 acts trivially: compatibility breaks
    bad = GroupAction(G, 3, tuple(rows))
    kind, where = validate_action(bad)
    assert kind == "compatibility"
    bad = GroupAction(G, 3, A.table[:2])
    assert validate_action(bad) == ("shape", ())


def test_scalar_matter_checks_its_actions():
    # a table that is no action: row 1 is not a bijection, so (1, 1) breaks
    # compatibility at point 0.  The engine and the oracle agree on a count
    # of it (13), so only the spec's own check can refuse it.
    Z3 = cyclic_group(3)
    bad = GroupAction(Z3, 3, ((0, 1, 2), (1, 1, 2), (2, 0, 1)))
    with pytest.raises(NotAHomomorphism, match=r"compatibility violated at \(1, 1, 0\)"):
        ScalarMatter(bad)
    good = action_left_mult(Z3)
    with pytest.raises(NotAHomomorphism, match="compatibility"):
        ScalarMatterPerSite((good, bad))
    with pytest.raises(NotAHomomorphism, match="shape"):
        ScalarMatter(GroupAction(Z3, 3, good.table[:2]))
    m = ScalarMatterPerSite((good, good))
    L = lattice_chain(2, periodic=True)
    assert count(Z3, L, m).total == oracle_count(Z3, L, m)


def test_scalar_sites_share_one_character_per_distinct_action(monkeypatch):
    S3 = symmetric_group(3)
    cls = conjugacy_classes(S3)
    left, coset = action_left_mult(S3), action_coset(S3, first_proper_subgroup(S3))
    built = []
    original = matter.fixed_point_character

    def counted(A, classes):
        built.append(A)
        return original(A, classes)
    monkeypatch.setattr(matter, "fixed_point_character", counted)
    L = lattice_hypercubic((8, 8))
    mixed = ScalarMatterPerSite(tuple(coset if x % 3 else left for x in range(L.site_count)))
    chars = site_characters(mixed, cls, L.site_count)
    assert len({id(ch) for ch in chars}) == 2
    assert len(built) == 2
    assert [chars[x] is chars[1 if x % 3 else 0] for x in range(L.site_count)] == [True] * 64
    shared = ScalarMatterPerSite((coset,) * L.site_count)
    assert count(S3, L, shared, classes=cls).total == count(S3, L, ScalarMatter(coset),
                                                             classes=cls).total
    small = lattice_chain(3, periodic=True)
    m = ScalarMatterPerSite((coset, left, coset))
    assert count(S3, small, m, classes=cls).total == oracle_count(S3, small, m)


def test_a_bad_action_is_validated_once_and_refused_by_every_reader(monkeypatch):
    calls = []
    original = matter.validate_action

    def counted(A):
        calls.append(A)
        return original(A)
    monkeypatch.setattr(matter, "validate_action", counted)
    Z3 = cyclic_group(3)
    bad = GroupAction(Z3, 3, ((0, 1, 2), (1, 1, 2), (2, 0, 1)))
    for build in (ScalarMatter, lambda A: ScalarMatterPerSite((A,) * 5), ScalarMatter):
        with pytest.raises(NotAHomomorphism, match="compatibility"):
            build(bad)
    assert calls == [bad]
    with pytest.raises(ParseError, match="compatibility"):
        action_from_text(action_to_text(bad), Z3)


def test_fixed_point_character_values():
    G = dihedral_group(4)
    cls = conjugacy_classes(G)
    chi = fixed_point_character(action_coset(G, first_proper_subgroup(G)), cls)
    assert [v.integer_value() for v in chi.values] == [2, 2, 2, 0, 0]


def test_fixed_point_character_detects_inconsistency():
    G = symmetric_group(3)
    cls = conjugacy_classes(G)
    A = action_left_mult(G)
    transposition = next(g for g in range(G.order) if G.element_order(g) == 2)
    rows = list(A.table)
    rows[transposition] = tuple(range(G.order))  # now fixes everything
    bad = GroupAction(G, G.order, tuple(rows))
    with pytest.raises(ClassInconsistency):
        fixed_point_character(bad, cls)

    # a corruption past the third member of the six transpositions of S4
    S4 = symmetric_group(4)
    cls4 = conjugacy_classes(S4)
    c = next(c for c in range(cls4.n_classes) if cls4.sizes[c] == 6
             and S4.element_order(cls4.reps[c]) == 2)
    rows = list(action_left_mult(S4).table)
    rows[cls4.class_members[c][-1]] = tuple(range(S4.order))
    with pytest.raises(ClassInconsistency):
        fixed_point_character(GroupAction(S4, S4.order, tuple(rows)), cls4)


# ---------------------------------------------------------------------------
# exact matrices

def test_exact_matrix_helpers():
    i = Cyclotomic.root_of_unity(4)
    m = ((Cyclotomic.one(), i), (Cyclotomic.zero(), Cyclotomic.rational(2)))
    assert mat_det_exact(m).integer_value() == 2
    eye = mat_identity_exact(2)
    assert mat_mul_exact(m, eye) == m
    three = (
        (Cyclotomic.rational(1), Cyclotomic.rational(2), Cyclotomic.rational(3)),
        (Cyclotomic.rational(4), Cyclotomic.rational(5), Cyclotomic.rational(6)),
        (Cyclotomic.rational(7), Cyclotomic.rational(8), Cyclotomic.rational(10)),
    )
    assert mat_det_exact(three).integer_value() == -3


# ---------------------------------------------------------------------------
# representations

def test_dihedral_rotation_rep_is_exact_and_faithful():
    G = dihedral_group(4)
    rep = dihedral_rotation_rep(G, 4)
    assert rep.dim == 2 and rep.is_exact
    for a in range(G.order):
        for b in range(a + 1, G.order):
            assert max(abs(x - y) for ra, rb in zip(rep.numeric[a], rep.numeric[b])
                       for x, y in zip(ra, rb)) > 1e-9
    with pytest.raises(BadParams):
        dihedral_rotation_rep(G, 3)


def test_dihedral_rotation_character():
    G = dihedral_group(4)
    cls = conjugacy_classes(G)
    chi = rep_character(dihedral_rotation_rep(G, 4), cls)
    assert [v.integer_value() for v in chi.values] == [2, 0, -2, 0, 0]


def test_su2_fundamental_character():
    G = quaternion_group()
    cls = conjugacy_classes(G)
    chi = rep_character(su2_fundamental_rep(G), cls)
    vals = sorted(v.integer_value() for v in chi.values)
    assert vals == [-2, 0, 0, 0, 2]
    total = sum(s * v.integer_value() for s, v in zip(cls.sizes, chi.values))
    assert total == 0  # no trivial component
    with pytest.raises(BadParams):
        su2_fundamental_rep(cyclic_group(4))


def test_rep_from_generator_images():
    G = cyclic_group(4)
    i = Cyclotomic.root_of_unity(4)
    rep = rep_from_generator_images(G, [((i,),)])
    chi = one_dim_class_values(zn_charge_rep(G, 1), conjugacy_classes(G))
    for g in range(4):
        assert rep.exact[g][0][0] == chi.values[g]
    with pytest.raises(NotAHomomorphism):
        rep_from_generator_images(G, [((Cyclotomic.root_of_unity(3),),)])


def test_rep_from_generator_images_on_a_loaded_group():
    D4 = dihedral_group(4)
    rot = dihedral_rotation_rep(D4, 4)
    G = group_from_text(group_to_text(D4))
    rep = rep_from_generator_images(G, [rot.exact[g] for g in G.generators])
    assert rep.exact == rot.exact
    with pytest.raises(NotAHomomorphism):
        rep_from_generator_images(G, [rot.exact[g] for g in reversed(G.generators)])
    # a generator equal to the identity must get the identity matrix
    Z3 = group_from_table([[(a + b) % 3 for b in range(3)] for a in range(3)],
                          generators=(0, 1))
    w = Cyclotomic.root_of_unity(3)
    assert rep_from_generator_images(Z3, [((1,),), ((w,),)]).exact[2] == ((w * w,),)
    with pytest.raises(NotAHomomorphism):
        rep_from_generator_images(Z3, [((w,),), ((w,),)])


def test_rep_from_exact_validation():
    G = cyclic_group(2)
    with pytest.raises(NotAHomomorphism):
        rep_from_exact(G, [((2,),), ((1,),)])  # identity not mapped to identity
    with pytest.raises(NotAHomomorphism):
        rep_from_exact(G, [((1,),), ((2,),)])  # image not unitary
    with pytest.raises(BadParams):
        rep_from_exact(G, [((1,),)])  # wrong count


@pytest.mark.parametrize("build", [rep_from_exact, rep_from_numeric])
def test_rep_constructors_refuse_wrong_counts_and_shapes(build):
    Z2 = cyclic_group(2)
    one = 1 if build is rep_from_exact else 1 + 0j
    for n in (1, 3):
        with pytest.raises(BadParams, match=rf"^{n} matrices for group of order 2$"):
            build(Z2, [((one,),)] * n)
    for mats in ([((one, 0), (0, one)), ((one,),)],  # unequal dimensions
                 [((one, 0),), ((one, 0),)],  # one row of two entries
                 [((one, 0), (0,)), ((one, 0), (0, one))]):  # a short row
        with pytest.raises(BadParams, match="^matrices are not all square of equal dimension$"):
            build(Z2, mats)
    for mats in ([(), ()], [[], []]):
        with pytest.raises(BadParams, match="^representation dimension must be positive, got 0$"):
            build(Z2, mats)


def test_rep_from_generator_images_refuses_a_wrong_image_count():
    G = dihedral_group(4)
    rot = dihedral_rotation_rep(G, 4)
    images = [rot.exact[g] for g in G.generators]
    n = len(images)
    for wrong in (images[:-1], images + images[:1]):
        with pytest.raises(BadParams, match=rf"^{len(wrong)} images for {n} generators$"):
            rep_from_generator_images(G, wrong)


def test_rep_direct_sum_refuses_reps_of_different_groups():
    a, b = su2_fundamental_rep(quaternion_group()), trivial_rep(cyclic_group(8), 2)
    a_num, b_num = rep_from_numeric(a.group, a.numeric), rep_from_numeric(b.group, b.numeric)
    for x, y in ((a, b), (a_num, b), (a, b_num), (a_num, b_num)):
        with pytest.raises(GroupMismatch, match="^representations live over different groups$"):
            rep_direct_sum(x, y)


def _folds(rep, classes):
    return (rep_character(rep, classes).values, det_character(rep, classes).values,
            det_character(rep, classes, inverse=True).values,
            fermion_site_character(rep, classes, 1).values,
            fermion_site_character(rep, classes, -1).values)


def test_complex_reps_sum_and_restrict_to_complex_reps_with_the_exact_characters():
    T = binary_tetrahedral_group()
    su2 = su2_fundamental_rep(T)
    back = rep_from_text(rep_to_text(su2), T)
    with pytest.raises(BadParams, match="^representation has no exact entries$"):
        back.exact_matrix_of(T.identity)
    cls = conjugacy_classes(T)
    exact_sum = rep_direct_sum(su2, su2)
    for s in (rep_direct_sum(back, su2), rep_direct_sum(su2, back), rep_direct_sum(back, back)):
        assert not s.is_exact and s.dim == 4
        assert _folds(s, cls) == _folds(exact_sum, cls)
    H = first_proper_subgroup(T)
    (sub_rep, sub), (exact_sub_rep, exact_sub) = rep_restrict(back, H), rep_restrict(su2, H)
    assert not sub_rep.is_exact and exact_sub_rep.is_exact
    assert sub.mul_table == exact_sub.mul_table
    assert _folds(sub_rep, conjugacy_classes(sub)) == \
        _folds(exact_sub_rep, conjugacy_classes(exact_sub))
    with pytest.raises(BadParams, match="^representation has no exact entries$"):
        sub_rep.exact_matrix_of(sub.identity)


def test_permutation_rep_character_counts_fixed_points():
    G = symmetric_group(3)
    cls = conjugacy_classes(G)
    A = action_left_mult(G)
    chi = rep_character(permutation_rep(A), cls)
    fixed = fixed_point_character(A, cls)
    assert chi.values == fixed.values


def test_rep_direct_sum_and_restrict():
    G = quaternion_group()
    rep = su2_fundamental_rep(G)
    double = rep_direct_sum(rep, rep)
    assert double.dim == 4
    cls = conjugacy_classes(G)
    chi2 = rep_character(double, cls)
    chi1 = rep_character(rep, cls)
    for a, b in zip(chi2.values, chi1.values):
        assert a == b + b
    i_elem = next(g for g in range(G.order) if G.element_order(g) == 4)
    H = subgroup_from_elements(G, [G.identity, i_elem, G.mul(i_elem, i_elem),
                                   G.inv(i_elem)])
    sub_rep, sub = rep_restrict(rep, H)
    assert sub.order == 4 and sub_rep.dim == 2


# ---------------------------------------------------------------------------
# one-dimensional representations

def test_one_dim_from_values():
    G = cyclic_group(3)
    w = Cyclotomic.root_of_unity(3)
    chi = one_dim_from_values(G, [1, w, w ** 2])
    assert chi.values[1] == w
    with pytest.raises(NotAHomomorphism):
        one_dim_from_values(G, [1, w, w])
    with pytest.raises(BadParams):
        one_dim_from_values(G, [1, w])


def test_zn_charge_rep():
    G = cyclic_group(4)
    chi = zn_charge_rep(G, 1)
    assert chi.values[1] == Cyclotomic.root_of_unity(4)
    assert zn_charge_rep(G, 5).values == chi.values  # charge mod n via exponents
    with pytest.raises(BadParams):
        zn_charge_rep(dihedral_group(2), 1)


def test_det_rep_of_rotation_rep():
    G = dihedral_group(4)
    chi = det_rep(dihedral_rotation_rep(G, 4))
    for g in range(G.order):
        expected = 1 if g < 4 else -1
        assert chi.values[g] == Cyclotomic.rational(expected)


def test_det_rep_of_regular_rep_is_sign_like():
    G = symmetric_group(3)
    chi = det_rep(permutation_rep(action_left_mult(G)))
    for g in range(G.order):
        expected = -1 if G.element_order(g) == 2 else 1
        assert chi.values[g] == Cyclotomic.rational(expected)


def test_one_dim_to_rep_and_trivial():
    G = cyclic_group(3)
    rep = one_dim_to_rep(zn_charge_rep(G, 1))
    assert rep.dim == 1 and rep.is_exact
    assert trivial_one_dim(G).values == (Cyclotomic.one(),) * 3
    assert trivial_rep(G, 2).dim == 2
    with pytest.raises(BadParams):
        trivial_rep(G, 0)


def test_trivial_rep_too_large_to_index_is_refused_at_once():
    # a dim * dim identity past sys.maxsize is refused before any row is built
    with pytest.raises(BadParams, match="too large to index"):
        trivial_rep(cyclic_group(2), 10 ** 30)


def test_mid_range_sizes_are_refused_at_once():
    # past the caps on |G| * dim^2 matrix entries and on modes per site: refused
    # before anything is built, where dim 99999 would run for minutes
    with pytest.raises(BadParams, match="too large to index"):
        trivial_rep(cyclic_group(2), 99999)
    with pytest.raises(BadParams, match="too large to index"):  # 120 * 67^2 entries
        trivial_rep(binary_icosahedral_group(), 67)
    rep = trivial_rep(cyclic_group(2), 8)
    with pytest.raises(BadParams, match="too many modes"):
        FermionMatter((rep,), spinor_count=matter.MAX_SITE_MODES // 8 + 1)
    assert FermionMatter((rep,), matter.MAX_SITE_MODES // 8).spinor_count == 2 ** 14


def test_one_dim_class_values_detects_inconsistency():
    G = symmetric_group(3)
    cls = conjugacy_classes(G)
    sign = det_rep(permutation_rep(action_left_mult(G)))
    vals = list(sign.values)
    t = next(g for g in range(G.order) if G.element_order(g) == 2)
    vals[t] = Cyclotomic.one()
    broken = OneDimRep(G, tuple(vals))
    with pytest.raises(ClassInconsistency):
        one_dim_class_values(broken, cls)

    # a corruption past the third member of the six transpositions of S4
    S4 = symmetric_group(4)
    cls4 = conjugacy_classes(S4)
    c = next(c for c in range(cls4.n_classes) if cls4.sizes[c] == 6
             and S4.element_order(cls4.reps[c]) == 2)
    vals = list(trivial_one_dim(S4).values)
    vals[cls4.class_members[c][-1]] = Cyclotomic.rational(-1)
    with pytest.raises(ClassInconsistency):
        one_dim_class_values(OneDimRep(S4, tuple(vals)), cls4)


# ---------------------------------------------------------------------------
# spectra

def _spectrum_reps():
    """Every built-in rep over the built-in groups, direct sums, permutation reps."""
    reps = [su2_fundamental_rep(G) for G in (quaternion_group(), binary_tetrahedral_group(),
                                             binary_octahedral_group(),
                                             binary_icosahedral_group())]
    reps += [dihedral_rotation_rep(dihedral_group(n), n) for n in (3, 4, 5, 6)]
    reps += [one_dim_to_rep(zn_charge_rep(cyclic_group(n), q))
             for n in (2, 5, 6, 9, 12) for q in (1, n - 1)]
    reps.append(trivial_rep(cyclic_group(4), 3))
    D4, T = dihedral_group(4), binary_tetrahedral_group()
    rot, su2 = dihedral_rotation_rep(D4, 4), su2_fundamental_rep(T)
    reps += [rep_direct_sum(rot, one_dim_to_rep(det_rep(rot))),
             rep_direct_sum(su2, trivial_rep(T)), rep_direct_sum(su2, su2)]
    S3, S4 = symmetric_group(3), symmetric_group(4)
    reps += [permutation_rep(action_left_mult(S3)),
             permutation_rep(action_coset(S4, first_proper_subgroup(S4)))]
    return reps


def test_spectra_have_the_exact_power_traces():
    # the power sums p_t for t = 1..d fix the eigenvalue multiset (Newton's identities)
    for rep in _spectrum_reps():
        G, d = rep.group, rep.dim
        for g in range(G.order):
            k, exponents = rep.spectra[g]
            assert len(exponents) == d
            gt = G.identity
            for t in range(1, d + 1):
                gt = G.mul(gt, g)
                m = rep.exact_matrix_of(gt)
                trace = sum((m[i][i] for i in range(d)), Cyclotomic.zero())
                power_sum = sum((Cyclotomic.root_of_unity(k, e * t) for e in exponents),
                                Cyclotomic.zero())
                assert power_sum == trace, (G.name, g, t)


@pytest.mark.parametrize("n, q", [(97, 5), (256, 3), (360, 7)])
def test_spectra_of_long_cyclic_groups(n, q):
    # prime, power-of-two and mixed-radix transforms of one long cyclic group
    rep = one_dim_to_rep(zn_charge_rep(cyclic_group(n), q))
    for g in range(n):
        k, (e,) = rep.spectra[g]
        assert Cyclotomic.root_of_unity(k, e) == rep.exact[g][0][0]


def test_spectra_snap_a_perturbed_rep():
    T = binary_tetrahedral_group()
    rep = su2_fundamental_rep(T)
    noisy = rep_from_numeric(T, [[[v + 1e-11j for v in row] for row in m] for m in rep.numeric])
    assert noisy.spectra == rep.spectra
    cls = conjugacy_classes(T)
    assert rep_character(noisy, cls).values == rep_character(rep, cls).values


class _Scalar:
    """A number known only through __complex__, as array scalars are."""

    def __init__(self, z):
        self.z = z

    def __complex__(self):
        return self.z


def test_rep_from_numeric_takes_any_nested_sequence_of_numbers():
    T = binary_tetrahedral_group()
    rep = su2_fundamental_rep(T)
    back = rep_from_numeric(T, [[list(map(_Scalar, row)) for row in m] for m in rep.numeric])
    assert back.numeric == rep.numeric
    assert all(type(v) is complex for m in back.numeric for row in m for v in row)
    Z2 = cyclic_group(2)
    mixed = rep_from_numeric(Z2, ([(1,)], ((Fraction(-1), ),)))
    assert mixed.numeric == (((1 + 0j,),), ((-1 + 0j,),))


def _unchecked_rep(G, matrices):
    """A UnitaryRep built directly, without validation."""
    numeric = tuple(tuple(tuple(complex(v) for v in row) for row in m) for m in matrices)
    return UnitaryRep(G, len(numeric[0]), None, numeric)


def test_snap_failure_for_a_matrix_of_no_finite_order():
    Z2 = cyclic_group(2)
    rep = _unchecked_rep(Z2, [[[1]], [[cmath.exp(1j)]]])
    with pytest.raises(SnapFailure):
        rep_character(rep, conjugacy_classes(Z2))


def test_snap_failure_for_bad_multiplicities():
    Z2 = cyclic_group(2)
    cls = conjugacy_classes(Z2)
    eye = [[1, 0], [0, 1]]
    # diag(1, i) has order 4, not 2: the multiplicity of 1 is (3 + i) / 2
    with pytest.raises(SnapFailure, match="non-negative integer"):
        fermion_site_character(_unchecked_rep(Z2, [eye, [[1, 0], [0, 1j]]]), cls)
    # traces 2, 0 give multiplicities 1, 1, which sum to 2 in dimension 1
    with pytest.raises(SnapFailure, match="sum to 2"):
        det_character(_unchecked_rep(Z2, [[[2]], [[0]]]), cls)
    # a NaN trace is no multiplicity at all
    with pytest.raises(SnapFailure):
        det_rep(_unchecked_rep(Z2, [[[1]], [[float("nan")]]]))


def test_rep_from_numeric_checks_every_product_with_a_generator():
    Z3 = cyclic_group(3)
    # unitary, identity-preserving, and rho(1)^2 == rho(2), but rho(2) rho(1) != rho(0)
    with pytest.raises(NotAHomomorphism, match=r"multiplicativity fails at \(2, 1\)"):
        rep_from_numeric(Z3, [[[1]], [[-1]], [[1]]])
    S3 = symmetric_group(3)
    perm = permutation_rep(action_left_mult(S3))
    swapped = list(perm.numeric)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(NotAHomomorphism):
        rep_from_numeric(S3, swapped)


def test_rep_from_numeric_rejects_non_finite_entries():
    Z2 = cyclic_group(2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NotAHomomorphism):
            rep_from_numeric(Z2, [[[1]], [[bad]]])
        with pytest.raises(NotAHomomorphism):
            rep_from_numeric(Z2, [[[bad]], [[1]]])


# ---------------------------------------------------------------------------
# fermionic characters

def test_fermion_site_character_d4():
    G = dihedral_group(4)
    cls = conjugacy_classes(G)
    rep = dihedral_rotation_rep(G, 4)
    plus = fermion_site_character(rep, cls, sign=1)
    assert [v.integer_value() for v in plus.values] == [4, 2, 0, 0, 0]
    minus = fermion_site_character(rep, cls, sign=-1)
    assert [v.integer_value() for v in minus.values] == [0, 2, 4, 0, 0]
    with pytest.raises(BadParams):
        fermion_site_character(rep, cls, sign=2)


def test_det_character_inverse_flag():
    G = cyclic_group(5)
    cls = conjugacy_classes(G)
    rep = one_dim_to_rep(zn_charge_rep(G, 2))
    plain = det_character(rep, cls)
    inv = det_character(rep, cls, inverse=True)
    for c in range(cls.n_classes):
        assert inv.values[c] == plain.values[cls.inverse_class[c]]


def test_det_character_rejects_class_table_of_another_group():
    # D4 and Q8 both have order 8 and five classes
    rep = dihedral_rotation_rep(dihedral_group(4), 4)
    with pytest.raises(GroupMismatch):
        det_character(rep, conjugacy_classes(quaternion_group()))
    with pytest.raises(GroupMismatch):
        det_character(rep, conjugacy_classes(quaternion_group()), inverse=True)


def test_constant_class_function():
    cls = conjugacy_classes(symmetric_group(3))
    f = constant_class_function(cls, Fraction(1, 2))
    assert len(f.values) == 3
    assert f.values[cls.class_of[0]] == Cyclotomic.rational(Fraction(1, 2))


# ---------------------------------------------------------------------------
# matter specifications

def test_fermion_matter_validation():
    G = cyclic_group(2)
    rep = one_dim_to_rep(zn_charge_rep(G, 1))
    with pytest.raises(BadParams):
        FermionMatter((rep,), spinor_count=0)
    with pytest.raises(BadParams):
        FermionMatter((), spinor_count=1)
    with pytest.raises(BadParams):
        FermionMatter((rep,), vacuum="weird")
    m = FermionMatter((rep,), 2, zn_charge_rep(G, 1))
    assert m.spinor_count == 2


def test_flavour_past_the_oracle_fock_cap_counts():
    # a trivial 7-dim flavour puts 2^7 = 128 singlet states on every site
    G = dihedral_group(3)
    L = lattice_hypercubic((2, 2))
    flavour = trivial_rep(G, 7)
    pure = count(G, L, PureGauge()).total
    assert count(G, L, FermionMatter((flavour,))).total == 128 ** L.site_count * pure
    with pytest.raises(DimTooLarge):
        oracle_count(G, L, FermionMatter((flavour,)))


def test_spinor_components_for_dirac():
    assert spinor_components_for_dirac(1) == 2
    assert spinor_components_for_dirac(2) == 2
    assert spinor_components_for_dirac(3) == 4
    with pytest.raises(BadParams):
        spinor_components_for_dirac(0)


# ---------------------------------------------------------------------------
# text formats

def test_action_text_roundtrip():
    G = dihedral_group(4)
    A = action_coset(G, first_proper_subgroup(G))
    B = action_from_text(action_to_text(A), G)
    assert B.table == A.table
    with pytest.raises(ParseError):
        action_from_text("action 4 2\n0 1\n", G)  # wrong group order
    with pytest.raises(ParseError) as e:
        action_from_text("nonsense\n", G)
    assert e.value.line == 1


def test_rep_text_roundtrip():
    G = quaternion_group()
    rep = su2_fundamental_rep(G)
    back = rep_from_text(rep_to_text(rep), G)
    assert back.dim == 2
    cls = conjugacy_classes(G)
    assert rep_character(back, cls).values == rep_character(rep, cls).values
    with pytest.raises(ParseError):
        rep_from_text("rep 8\n", G)
    with pytest.raises(ParseError):
        rep_from_text("rep 4 2\n", G)  # wrong group order


def _numeric_reps():
    T = binary_tetrahedral_group()
    D3 = dihedral_group(3)
    perm = permutation_rep(action_coset(D3, subgroup_from_elements(D3, [D3.identity, 3])))
    assert perm.dim == 3
    return [su2_fundamental_rep(T), perm]


@pytest.mark.parametrize("rep", _numeric_reps(), ids=["2T_su2", "D3_perm3"])
def test_numeric_only_rep_gives_the_exact_rep_characters(rep):
    back = rep_from_text(rep_to_text(rep), rep.group)
    assert rep.is_exact and not back.is_exact
    cls = conjugacy_classes(rep.group)
    for sign in (1, -1):
        assert (fermion_site_character(back, cls, sign=sign).values
                == fermion_site_character(rep, cls, sign=sign).values)
    for inverse in (False, True):
        assert (det_character(back, cls, inverse=inverse).values
                == det_character(rep, cls, inverse=inverse).values)
    assert det_rep(back).values == det_rep(rep).values
