"""Exact counting engine: hand values, twists, boundaries, integrality."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from gaugecount import (
    BadParams,
    ClassFunction,
    CountReport,
    Cyclotomic,
    FermionMatter,
    GroupMismatch,
    LatticeGraph,
    NonIntegralResult,
    OddSitesForStaggered,
    OneDimRep,
    PureGauge,
    ScalarMatter,
    ScalarMatterPerSite,
    SiteCharacters,
    TwistSpec,
    action_coset,
    action_left_mult,
    action_trivial,
    binary_icosahedral_group,
    binary_octahedral_group,
    binary_tetrahedral_group,
    burnside_count,
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
    endo_from_image,
    fermion_site_characters,
    first_proper_subgroup,
    fixed_point_character,
    fixed_point_count,
    identity_endo,
    inner_automorphism,
    inversion_endo,
    lattice_chain,
    lattice_hypercubic,
    make_twist,
    one_dim_to_rep,
    oracle_count,
    site_characters,
    quaternion_group,
    su2_fundamental_rep,
    symmetric_group,
    total_hilbert_dim,
    twist_on_wrap_edges,
    zn_charge_rep,
    zn_site_characters,
)
from gaugecount.groups import extend_generator_images
from gaugecount.lattice import component_labels


def test_pure_gauge_periodic_chain_counts_classes():
    # E - V = 0 on a periodic chain, so the sum collapses to one per class
    for G, n_cls in ((symmetric_group(3), 3), (cyclic_group(4), 4),
                     (dihedral_group(4), 5)):
        r = count(G, lattice_chain(2, periodic=True), PureGauge())
        assert r.total == n_cls
        assert conjugacy_classes(G).n_classes == n_cls
        assert r.witness.passed and r.twist_kind == "none"


def test_pure_gauge_tree_is_one():
    for G in (symmetric_group(3), dihedral_group(4)):
        for L in (lattice_chain(3), lattice_chain(5),
                  lattice_hypercubic((2, 2), periodic=False)):
            if L.edge_count == L.site_count - 1:
                assert count(G, L, PureGauge()).total == 1


def test_pure_gauge_torus_values():
    assert count(cyclic_group(2), lattice_hypercubic((2, 2)),
                 PureGauge()).total == 32
    assert count(symmetric_group(3), lattice_hypercubic((1, 1)),
                 PureGauge()).total == 11


def test_empty_lattice_counts_one():
    r = count(symmetric_group(3), LatticeGraph(0, ()), PureGauge())
    assert r.total == 1 and r.bulk_site_count == 0


def test_scalar_left_mult_chain():
    S3 = symmetric_group(3)
    r = count(S3, lattice_chain(2), ScalarMatter(action_left_mult(S3)))
    assert r.total == 6


def test_scalar_coset_chain():
    D4 = dihedral_group(4)
    H = first_proper_subgroup(D4)
    r = count(D4, lattice_chain(2), ScalarMatter(action_coset(D4, H)))
    assert r.total == 2


def test_scalar_per_site():
    S3 = symmetric_group(3)
    m = ScalarMatterPerSite((action_left_mult(S3), action_trivial(S3, 2)))
    assert count(S3, lattice_chain(2), m).total == 2
    with pytest.raises(BadParams):
        count(S3, lattice_chain(3), m)


def test_fermion_hand_values():
    L = lattice_chain(2, periodic=True)
    Q8 = quaternion_group()
    m8 = FermionMatter(flavours=(su2_fundamental_rep(Q8),),
                       spinor_count=1, vacuum="trivial")
    assert count(Q8, L, m8).total == 28
    s8 = count_fermion_parity_split(Q8, L, m8)
    assert (s8.dim_even, s8.dim_odd) == (28, 0)

    D4 = dihedral_group(4)
    m4 = FermionMatter(flavours=(dihedral_rotation_rep(D4, 4),),
                       spinor_count=1, vacuum="trivial")
    assert count(D4, L, m4).total == 20
    s4 = count_fermion_parity_split(D4, L, m4)
    assert (s4.dim_even, s4.dim_odd) == (20, 0)
    assert s4.trace_plain == 20 and s4.trace_weighted == 20
    assert total_hilbert_dim(D4, L, m4) == 1024


def test_fermion_staggered_vacuum():
    D4 = dihedral_group(4)
    m = FermionMatter(flavours=(dihedral_rotation_rep(D4, 4),),
                      spinor_count=1, vacuum="staggered")
    assert count(D4, lattice_chain(2, periodic=True), m).total == 20
    with pytest.raises(OddSitesForStaggered):
        count(D4, lattice_chain(3), m)


def test_fermion_signed_trace_on_isolated_site():
    # a charged one-dimensional vacuum flips the sign of the weighted trace
    Z2 = cyclic_group(2)
    iso = LatticeGraph(1, ())
    m = FermionMatter(flavours=(one_dim_to_rep(zn_charge_rep(Z2, 1)),),
                      spinor_count=1, vacuum=zn_charge_rep(Z2, 1))
    assert count(Z2, iso, m, parity_sign=1).total == 1
    assert count(Z2, iso, m, parity_sign=-1).total == -1
    sp = count_fermion_parity_split(Z2, iso, m)
    assert (sp.dim_even, sp.dim_odd) == (0, 1)
    assert (sp.trace_plain, sp.trace_weighted) == (1, -1)


@pytest.mark.parametrize("counter", [count, oracle_count])
def test_parity_sign_must_be_plus_or_minus_one(counter):
    with pytest.raises(BadParams, match="parity_sign"):
        counter(cyclic_group(2), lattice_chain(2), PureGauge(), parity_sign=7)


def test_parity_split_sums_to_plain_trace():
    Q8 = quaternion_group()
    m = FermionMatter(flavours=(su2_fundamental_rep(Q8),),
                      spinor_count=2, vacuum="trivial")
    L = lattice_hypercubic((2,), periodic=True)
    sp = count_fermion_parity_split(Q8, L, m)
    assert sp.dim_even + sp.dim_odd == sp.trace_plain
    assert sp.dim_even - sp.dim_odd == sp.trace_weighted
    assert sp.dim_even >= 0 and sp.dim_odd >= 0


def test_fermion_site_characters_shapes():
    D4 = dihedral_group(4)
    cls = conjugacy_classes(D4)
    m = FermionMatter(flavours=(dihedral_rotation_rep(D4, 4),),
                      spinor_count=1, vacuum="staggered")
    chars = fermion_site_characters(m, cls, 4)
    assert len(chars) == 4
    assert chars[0].values == chars[2].values
    assert chars[1].values == chars[3].values
    with pytest.raises(OddSitesForStaggered):
        fermion_site_characters(m, cls, 3)

    # on a charged flavour the filled odd sites carry a visibly different weight
    Z4 = cyclic_group(4)
    cls4 = conjugacy_classes(Z4)
    mz = FermionMatter(flavours=(one_dim_to_rep(zn_charge_rep(Z4, 1)),),
                       spinor_count=1, vacuum="staggered")
    even, odd = fermion_site_characters(mz, cls4, 2)
    assert even.values != odd.values


def test_identity_twist_is_normalized():
    S3 = symmetric_group(3)
    L = lattice_chain(2, periodic=True)
    tw = make_twist(L, identity_endo(S3), [1])
    r = count(S3, L, PureGauge(), twist=tw)
    assert r.total == 3 and r.twist_kind == "none"
    assert any("identity twist" in w for w in r.warnings)


def test_sink_twist_frees_head_site():
    Z3 = cyclic_group(3)
    L = lattice_chain(2)
    tw = make_twist(L, constant_identity_endo(Z3), [0])
    r = count(Z3, L, PureGauge(), twist=tw)
    assert r.total == 1
    assert r.twist_kind == "sink" and r.free_sites == (1,)


def test_dangling_attach_equals_manual_extension():
    Z3 = cyclic_group(3)
    L = lattice_chain(2)
    via_arg = count(Z3, L, PureGauge(), dangling_attach=[1])
    L2, tw = dangling_boundary_extension(L, (1,), Z3)
    manual = count(Z3, L2, PureGauge(), twist=tw)
    assert via_arg.total == manual.total == 1
    # a twist on the physical links combines with the dangling boundary
    inv = make_twist(L, inversion_endo(Z3), [0])
    both = count(Z3, L, PureGauge(), twist=inv, dangling_attach=[1])
    assert both.total == oracle_count(Z3, L, PureGauge(), twist=inv, dangling_attach=[1])
    L3, tw3 = dangling_boundary_extension(L, (1,), Z3, inv)
    assert count(Z3, L3, PureGauge(), twist=tw3) == both
    assert both.twist_kind == "proper" and both.free_sites == (2,)


def test_inversion_twist_alpha_and_total():
    Z4 = cyclic_group(4)
    L = lattice_chain(2, periodic=True)
    tw = twist_on_wrap_edges(L, inversion_endo(Z4), 0)
    r = count(Z4, L, PureGauge(), twist=tw)
    assert r.total == 2
    assert r.twist_kind == "proper" and r.twisted_head_count == 1
    assert r.alpha == (1, 0, 1, 0) and all(type(a) is int for a in r.alpha)


def test_twisted_self_loop_warns():
    Z3 = cyclic_group(3)
    L = lattice_hypercubic((1,), periodic=True)
    tw = make_twist(L, inversion_endo(Z3), [0])
    r = count(Z3, L, PureGauge(), twist=tw)
    assert r.total == 1
    assert any("self-loop" in w for w in r.warnings)


def test_sink_links_keep_their_report_fields():
    # sink links are counted through a sink site, yet the report still reads
    # the input maps and the physical sites, and a sink self-loop still warns
    D4 = dihedral_group(4)
    L = LatticeGraph(3, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 0)))
    sink = constant_identity_endo(D4)
    tw = TwistSpec({0: sink, 1: identity_endo(D4), 2: inner_automorphism(D4, 1), 4: sink})
    fermions = FermionMatter((dihedral_rotation_rep(D4, 4),))
    r = count(D4, L, fermions, twist=tw)
    assert r.total == oracle_count(D4, L, fermions, twist=tw) == 4096
    assert r.twist_kind == "proper" and r.twisted_head_count == 1 and r.free_sites == ()
    assert r.warnings == ("identity twist normalized to untwisted links",
                          "twisted link 0 is a self-loop", "twisted link 2 is a self-loop")
    loop = LatticeGraph(2, ((0, 0),))
    r = count(D4, loop, PureGauge(), twist=TwistSpec({0: sink}))
    assert r.total == 1 and r.twist_kind == "sink"
    assert r.free_sites == (1,) and r.bulk_site_count == 1
    assert r.warnings == ("twisted link 0 is a self-loop",)


def test_disconnected_bulk_matches_oracle():
    # both sites are constrained, each in its own untwisted component
    Z4 = cyclic_group(4)
    L = lattice_chain(2)
    tw = make_twist(L, inversion_endo(Z4), [0])
    r = count(Z4, L, PureGauge(), twist=tw)
    assert r.total == oracle_count(Z4, L, PureGauge(), twist=tw) == 1
    assert r.bulk_site_count == 2 and r.free_sites == ()


def _kernel_maps(G):
    """Every endomorphism with a kernel that is not constant, from all
    generator images."""
    found = (extend_generator_images(G, imgs, G.mul, G.identity)
             for imgs in itertools.product(range(G.order), repeat=len(G.generators)))
    return [endo_from_image(G, f) for f in found
            if f is not None and 1 < len(set(f)) < G.order]


def _boundary_maps(G):
    """The identity, the constant map, inversion when abelian, every inner
    automorphism and every non-constant map with a kernel, one endomorphism
    per distinct image."""
    endos = [identity_endo(G), constant_identity_endo(G)]
    endos += [inner_automorphism(G, h) for h in range(G.order)]
    if G.is_abelian():
        endos.append(inversion_endo(G))
    return list({e.image: e for e in endos + _kernel_maps(G)}.values())


def _per_link_twist(rng, maps, n_links, p=0.5):
    """Each link is twisted with probability p, under its own map."""
    return TwistSpec({i: rng.choice(maps) for i in range(n_links) if rng.random() < p})


def _distinct_maps(tw):
    return len({e.image for e in tw.maps.values() if e.image != tuple(range(e.group.order))})


def test_random_multigraphs_match_burnside_oracle():
    rng = random.Random(2173)
    groups = (cyclic_group(2), cyclic_group(3), cyclic_group(4),
              symmetric_group(3), dihedral_group(4), quaternion_group())
    cases = []
    for G in groups:
        actions = [action_left_mult(G), action_trivial(G, 1), action_trivial(G, 2),
                   action_coset(G, first_proper_subgroup(G))]
        cases.append((G, conjugacy_classes(G), _boundary_maps(G), actions))
    multi = mixed = 0
    for _ in range(400):
        G, cls, maps, actions = rng.choice(cases)
        V = rng.randint(1, 4)
        edges = tuple((rng.randrange(V), rng.randrange(V))
                      for _ in range(rng.randint(0, 6)))
        L = LatticeGraph(V, edges)
        tw = _per_link_twist(rng, maps, len(edges), p=0.7)
        site_actions = [rng.choice(actions) for _ in range(V)]
        chars = [fixed_point_character(a, cls) for a in site_actions]
        rows = [[fixed_point_count(a, g) for g in range(G.order)]
                for a in site_actions]
        assert (count_general(G, cls, L, chars, twist=tw).total
                == burnside_count(G, L, rows, twist=tw)), (G.name, edges, tw)
        untwisted = [e for i, e in enumerate(edges) if i not in tw.maps]
        multi += len(component_labels(V, untwisted)[1]) > 1
        mixed += _distinct_maps(tw) >= 2
    assert multi >= 200 and mixed >= 400 // 3


def test_dangling_boundary_with_twist_matches_oracle():
    rng = random.Random(907)
    Z3, Z4, D3, Q8 = cyclic_group(3), cyclic_group(4), dihedral_group(3), quaternion_group()
    cases = []
    for G, rep in ((Z3, one_dim_to_rep(zn_charge_rep(Z3, 1))),
                   (Z4, one_dim_to_rep(zn_charge_rep(Z4, 1))),
                   (D3, dihedral_rotation_rep(D3, 3)), (Q8, su2_fundamental_rep(Q8))):
        matters = [PureGauge(), ScalarMatter(action_coset(G, first_proper_subgroup(G))),
                   FermionMatter(flavours=(rep,), spinor_count=1, vacuum="trivial")]
        cases.append((G, _boundary_maps(G), matters))
    proper = 0
    for _ in range(60):
        G, maps, matters = rng.choice(cases)
        V = rng.randint(1, 3)
        edges = tuple((rng.randrange(V), rng.randrange(V))
                      for _ in range(rng.randint(0, 4)))
        L = LatticeGraph(V, edges)
        tw = _per_link_twist(rng, maps, len(edges), p=0.6)
        attach = rng.sample(range(V), rng.randint(1, V))
        matter = rng.choice(matters)
        report = count(G, L, matter, twist=tw, dangling_attach=attach)
        assert report.total == oracle_count(G, L, matter, twist=tw, dangling_attach=attach), \
            (G.name, edges, attach, tw)
        assert report.free_sites[-1:] == (V,)
        proper += report.twist_kind == "proper"
    assert proper >= 20


def test_twist_link_index_out_of_range_is_refused():
    Z3 = cyclic_group(3)
    L = lattice_chain(2)
    cls = conjugacy_classes(Z3)
    tw = TwistSpec({5: inversion_endo(Z3)})
    with pytest.raises(BadParams):
        count(Z3, L, PureGauge(), twist=tw)
    with pytest.raises(BadParams):
        count_general(Z3, cls, L, [constant_class_function(cls, 1)] * 2, twist=tw)
    with pytest.raises(BadParams):
        oracle_count(Z3, L, PureGauge(), twist=tw)
    with pytest.raises(BadParams):
        burnside_count(Z3, L, [[1] * 3] * 2, twist=tw)
    # a twist built for the dangling extension names a sink link, not one of L's
    ext, sinks = dangling_boundary_extension(L, (1,), Z3)
    with pytest.raises(BadParams):
        count(Z3, L, PureGauge(), twist=sinks, dangling_attach=[1])
    with pytest.raises(BadParams):
        oracle_count(Z3, L, PureGauge(), twist=sinks, dangling_attach=[1])


def _noncentral(G):
    return next(g for g in range(G.order)
                if any(G.mul(g, x) != G.mul(x, g) for x in range(G.order)))


def _inner_twist_everywhere(G, L):
    return make_twist(L, inner_automorphism(G, _noncentral(G)), range(L.edge_count))


@pytest.fixture
def count_muls(monkeypatch):
    """Run a thunk and return (its result, Cyclotomic multiplications made)."""
    calls = [0]
    plain = Cyclotomic.__mul__

    def counted(self, other):
        calls[0] += 1
        return plain(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counted)

    def run(thunk):
        calls[0] = 0
        result = thunk()
        return result, calls[0]
    return run


def test_contraction_work_grows_slower_than_the_lattice(count_muls):
    # one power per distinct site character: 16x the sites, under 3x the work
    G = binary_icosahedral_group()
    cls = conjugacy_classes(G)
    m = FermionMatter((su2_fundamental_rep(G),), 2, "staggered")
    _, small = count_muls(lambda: count(G, lattice_hypercubic((16, 16)), m, classes=cls))
    _, large = count_muls(lambda: count(G, lattice_hypercubic((64, 64)), m, classes=cls))
    assert large < 3 * small
    # every link twisted makes every site its own component; eliminating over
    # nonzero table entries keeps the work linear in sites (4x here), where a
    # dense sweep over class tuples grows with n_classes^(lattice width)
    O = binary_octahedral_group()
    cls = conjugacy_classes(O)
    m = FermionMatter((su2_fundamental_rep(O),), 2, "staggered")
    muls = []
    for n in (4, 8):
        L = lattice_hypercubic((n, n))
        muls.append(count_muls(lambda: count(O, L, m, twist=_inner_twist_everywhere(O, L),
                                             classes=cls))[1])
    assert muls[1] < 4 * muls[0]


def test_inner_twist_everywhere_is_gauge_equivalent_to_none():
    # g -> g.a on the twisted links carries the twisted sum onto the untwisted one
    S5 = symmetric_group(5)
    O = binary_octahedral_group()
    L = lattice_hypercubic((8, 8))
    for G, m in ((O, FermionMatter((su2_fundamental_rep(O),), 2, "staggered")),
                 (S5, ScalarMatter(action_coset(S5, first_proper_subgroup(S5))))):
        r = count(G, L, m, twist=_inner_twist_everywhere(G, L))
        assert r.twist_kind == "proper"
        assert r.total == count(G, L, m).total
    L = lattice_hypercubic((2, 3))
    S3, Q8 = symmetric_group(3), quaternion_group()
    for G, m in ((S3, ScalarMatter(action_coset(S3, first_proper_subgroup(S3)))),
                 (Q8, FermionMatter((su2_fundamental_rep(Q8),), 1, "staggered"))):
        tw = _inner_twist_everywhere(G, L)
        assert count(G, L, m, twist=tw).total == oracle_count(G, L, m, twist=tw)


def test_equal_site_characters_are_grouped_by_value(count_muls):
    O = binary_octahedral_group()
    m = FermionMatter((su2_fundamental_rep(O),), 2, "trivial")
    one = count(O, LatticeGraph(1, ()), m).total
    assert count(O, LatticeGraph(400, ()), m).total == one ** 400
    # separately built, equal characters collapse into one power: 16x the
    # sites of a shared-character count, under 3x its work
    S3 = symmetric_group(3)
    cls = conjugacy_classes(S3)
    L = lattice_hypercubic((64, 64))
    actions = tuple(action_coset(S3, first_proper_subgroup(S3)) for _ in range(L.site_count))
    _, small = count_muls(lambda: count(S3, lattice_hypercubic((16, 16)),
                                        ScalarMatter(actions[0]), classes=cls))
    per_site, muls = count_muls(lambda: count(S3, L, ScalarMatterPerSite(actions), classes=cls))
    assert per_site.total == count(S3, L, ScalarMatter(actions[0]), classes=cls).total
    assert muls < 3 * small


# ---------------------------------------------------------------------------
# hypercubic lattices kept as their shape, and the tally of site characters

def _assert_same_report(a, b):
    """Equal reports, and every exact value in the same ring: Cyclotomic
    equality holds across ring orders, which follow the order of operations."""
    assert a == b
    assert [v.order for v in a.per_class] == [v.order for v in b.per_class]
    assert a.free_factor.order == b.free_factor.order


@pytest.mark.parametrize("dims, periodic", [((4, 4), True), ((3, 4), (True, False)),
                                            ((2, 2, 2), True), ((4, 2), False)])
def test_shape_kept_lattice_counts_as_its_explicit_copy(dims, periodic):
    T, Z4 = binary_tetrahedral_group(), cyclic_group(4)
    fermion = FermionMatter((su2_fundamental_rep(T),), 2, "staggered")
    charged = FermionMatter((one_dim_to_rep(zn_charge_rep(Z4, 1)),), 1, "staggered")
    row = range(dims[-1])  # row 0 in row-major order
    for G, matter, wrap_twist, attach in ((Z4, PureGauge(), False, None),
                                          (T, fermion, False, None),
                                          (Z4, charged, True, None),
                                          (Z4, PureGauge(), False, row),
                                          (T, fermion, False, row)):
        built, reports = lattice_hypercubic(dims, periodic), []
        for L in (lattice_hypercubic(dims, periodic),
                  LatticeGraph(built.site_count, built.edges, built.name, built.wrap_edges)):
            # an open dimension 0 has no wraps to twist, and is refused
            tw = (twist_on_wrap_edges(L, inversion_endo(G), 0)
                  if wrap_twist and L.wrap_edges[0] else None)
            reports.append(count(G, L, matter, twist=tw, dangling_attach=attach))
        _assert_same_report(*reports)


def test_shape_kept_boundaries_count_as_their_explicit_copies(union_find_calls):
    """Seeded: wrap twists (inner, inversion, constant and identity maps, on one
    or more dimensions) and dangling rows on lattices kept as their shape give
    the reports of copies built from pairs, and run union-find only when a twist
    also moves or removes a grid link, the fallback."""
    rng = random.Random(20261020)
    T, S3, Z4 = binary_tetrahedral_group(), symmetric_group(3), cyclic_group(4)
    setups = []
    for G, rep in ((T, su2_fundamental_rep(T)), (S3, None),
                   (Z4, one_dim_to_rep(zn_charge_rep(Z4, 1)))):
        g = next((g for g in range(G.order)
                  if any(G.mul(g, x) != G.mul(x, g) for x in range(G.order))), 1)
        maps = [identity_endo(G), constant_identity_endo(G), inner_automorphism(G, g)]
        matters = [PureGauge(), ScalarMatter(action_coset(G, first_proper_subgroup(G)))]
        if G.is_abelian():
            maps.append(inversion_endo(G))
        if rep is not None:
            matters.append(FermionMatter((rep,), 1, "trivial"))
        setups.append((G, conjugacy_classes(G), maps, matters))
    moved = 0
    for _ in range(150):
        G, cls, maps, matters = rng.choice(setups)
        d = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 4) for _ in range(d))
        periodic = tuple(rng.random() < 0.7 for _ in range(d))
        matter = rng.choice(matters)
        ref = lattice_hypercubic(dims, periodic)
        pick = {k: rng.choice(maps) for k in range(d) if ref.wrap_edges[k] and rng.random() < 0.6}
        grid = sorted(set(range(ref.edge_count)) - {i for w in ref.wrap_edges for i in w})
        cut = rng.choice(grid) if grid and rng.random() < 0.2 else None  # the fallback
        cut_map = rng.choice(maps[1:])
        V = ref.site_count
        attach = rng.choices(range(V), k=rng.randint(1, V + 1)) if rng.random() < 0.5 else None
        # twist the dangling links of an extension anew, as count_general allows
        redo = {i: rng.choice(maps) for i in range(ref.edge_count, ref.edge_count + len(attach))
                if rng.random() < 0.5} if attach and rng.random() < 0.4 else None
        reports, calls = [], []
        for L in (lattice_hypercubic(dims, periodic),
                  LatticeGraph(V, ref.edges, ref.name, ref.wrap_edges)):
            tw = {i: phi for k, phi in pick.items() for i in L.wrap_edges[k]}
            tw.update({cut: cut_map} if cut is not None else {})
            before = len(union_find_calls)
            if redo is None:
                reports.append(count(G, L, matter, twist=TwistSpec(tw), dangling_attach=attach))
            else:
                L2, sinks = dangling_boundary_extension(L, attach, G, TwistSpec(tw))
                chars = [*site_characters(matter, cls, V), constant_class_function(cls, 1)]
                reports.append(count_general(G, cls, L2, chars, TwistSpec({**sinks.maps, **redo})))
            calls.append(len(union_find_calls) - before)
        _assert_same_report(*reports)
        fallback = cut is not None and cut_map.image != identity_endo(G).image
        assert (calls[0] > 0) == fallback, (dims, periodic, pick, cut, attach, redo)
        moved += bool(pick or attach) and not fallback
    assert moved > 50


@pytest.fixture
def union_find_calls(monkeypatch):
    """The site counts of every component_labels call, cached components included."""
    calls = []
    plain = component_labels

    def spy(site_count, edges):
        calls.append(site_count)
        return plain(site_count, edges)

    monkeypatch.setattr("gaugecount.lattice.component_labels", spy)
    monkeypatch.setattr("gaugecount.counting.component_labels", spy)
    return calls


def test_untwisted_hypercubic_count_reads_no_link(union_find_calls):
    S5, T, Z4 = symmetric_group(5), binary_tetrahedral_group(), cyclic_group(4)
    links = {"tails", "heads", "edges", "wrap_edges"}
    for G, matter in ((Z4, PureGauge()),
                      (S5, ScalarMatter(action_coset(S5, first_proper_subgroup(S5)))),
                      (T, FermionMatter((su2_fundamental_rep(T),), 2, "staggered"))):
        for dims, periodic in (((8, 8), True), ((4, 6), (True, False)), ((2, 3, 4), False)):
            L = lattice_hypercubic(dims, periodic)
            count(G, L, matter)
            # identity maps leave every link in place
            count(G, L, matter, twist=make_twist(L, identity_endo(G), range(L.edge_count)))
            assert not links & L.__dict__.keys(), (G.name, dims, periodic)
    assert union_find_calls == []
    # a wrap twist removes links, and a dangling row moves them to the sink site,
    # but the open grid still joins every physical site: the ends of the links
    # removed come from the shape, and no link tuple is built
    Z6, O = cyclic_group(6), binary_octahedral_group()
    inner = inner_automorphism(O, next(g for g in range(O.order)
                                       if any(O.mul(g, x) != O.mul(x, g) for x in range(O.order))))
    for G, matter, dims, periodic, phi, attach in (  # the ladder's boundary jobs, and mixes
            (Z4, PureGauge(), (64, 64), False, None, range(64)),
            (Z6, FermionMatter((one_dim_to_rep(zn_charge_rep(Z6, 1)),), 1, "trivial"),
             (64, 64), True, inversion_endo(Z6), None),
            (O, FermionMatter((su2_fundamental_rep(O),), 2, "staggered"), (32, 32), True,
             inner, None),
            (Z4, PureGauge(), (6, 5), (True, False), inversion_endo(Z4), (0, 3, 3, 29)),
            (Z4, PureGauge(), (4, 4), True, constant_identity_endo(Z4), range(16))):
        L, cls = lattice_hypercubic(dims, periodic), conjugacy_classes(G)
        tw = twist_on_wrap_edges(L, phi, 0) if phi is not None else None
        count(G, L, matter, twist=tw, dangling_attach=attach)
        # the extension that count builds, counted as count counts it
        L2, sinks = dangling_boundary_extension(L, attach or (), G, tw)
        count_general(G, cls, L2, [*site_characters(matter, cls, L.site_count)]
                      + [constant_class_function(cls, 1)] * (L2.site_count - L.site_count), sinks)
        assert not {"tails", "heads", "edges"} & (L.__dict__.keys() | L2.__dict__.keys())
    assert union_find_calls == []
    # a twist on a grid link may cut the grid: it reads the links and runs union-find
    L = lattice_hypercubic((8, 8))
    count(Z4, L, PureGauge(), twist=make_twist(L, inversion_endo(Z4), [0]))
    assert {"tails", "heads"} <= L.__dict__.keys()
    assert union_find_calls == [64]
    # so does a dangling row of a lattice built from pairs, for the virtual
    # site and the sink site, and it runs union-find once, on its first count
    P = LatticeGraph(L.site_count, L.edges)
    count(Z4, P, PureGauge(), dangling_attach=range(8))
    assert union_find_calls == [64, 66]
    for _ in range(2):
        count(Z4, P, PureGauge())
    assert union_find_calls == [64, 66, 64]


class _ReadPerSite(SiteCharacters):
    """Site characters that refuse to be read site by site: only the tally."""

    def __iter__(self):
        raise AssertionError("site characters read per site")

    def __getitem__(self, x):
        raise AssertionError("site characters read per site")


def test_site_tally_matches_a_counter():
    """Every matter kind's tally, and the tails a dangling count adds, are a
    Counter of site character ids, in first-seen order; counts from the tally
    are those from a plain list of the same objects, and a connected count
    reads no site at all."""
    S3, Z4, T = symmetric_group(3), cyclic_group(4), binary_tetrahedral_group()
    L = lattice_hypercubic((4, 6))
    V = L.site_count
    coset, left = action_coset(S3, first_proper_subgroup(S3)), action_left_mult(S3)
    spin = su2_fundamental_rep(T)
    charged = one_dim_to_rep(zn_charge_rep(Z4, 1))
    cases = (
        (Z4, PureGauge()),
        (S3, ScalarMatter(coset)),
        (T, FermionMatter((spin,), 2, "trivial")),
        (T, FermionMatter((spin,), 1, "staggered")),
        (Z4, FermionMatter((charged,), 1, zn_charge_rep(Z4, 3))),  # an explicit vacuum
        (S3, ScalarMatterPerSite(tuple((coset, left, action_coset(S3, first_proper_subgroup(S3)),
                                         left)[x * 5 // 7 % 4] for x in range(V)))),
    )

    def assert_tallied(chars):
        assert [(id(ch), m) for ch, m in chars.tally] == list(Counter(map(id, chars)).items())

    for G, matter in cases:
        cls = conjugacy_classes(G)
        chars = site_characters(matter, cls, V)
        assert isinstance(chars, SiteCharacters) and len(chars) == V
        assert_tallied(chars)
        # the virtual site and the sink site, new objects or ones already there
        virtual = constant_class_function(cls, 1)
        regular = fixed_point_character(action_left_mult(G), cls)
        for tail in ((virtual,), (virtual, chars[0]), (chars[-1], regular), (virtual,) * 3):
            longer = chars.extended(*tail)
            assert [*longer] == [*chars, *tail]
            assert_tallied(longer)
        assert_tallied(chars)  # extending made copies
        _assert_same_report(count_general(G, cls, L, chars), count_general(G, cls, L, [*chars]))
        attach = range(0, V, 5)
        L2, sinks = dangling_boundary_extension(L, attach, G)
        _assert_same_report(count(G, L, matter, dangling_attach=attach, classes=cls),
                            count_general(G, cls, L2, [*chars, virtual], sinks))
    # connected counts, untwisted and wrap-twisted, read the tally alone
    for G, matter in cases[:5]:
        cls = conjugacy_classes(G)
        pattern = site_characters(matter, cls, 2)
        hidden = _ReadPerSite(pattern, V // 2)
        plain = [*pattern] * (V // 2)
        flip = (inversion_endo(G) if G.is_abelian() else
                inner_automorphism(G, next(g for g in range(G.order)
                                           if G.mul(g, 1) != G.mul(1, g))))
        for twist in (None, twist_on_wrap_edges(L, flip, 1),
                      twist_on_wrap_edges(L, constant_identity_endo(G), 0)):
            _assert_same_report(count_general(G, cls, L, hidden, twist),
                                count_general(G, cls, L, plain, twist))
            _assert_same_report(count(G, L, matter, twist=twist, classes=cls, site_chars=hidden),
                                count(G, L, matter, twist=twist, classes=cls))
    # a plain sequence is tallied by one pass of its own, in first-seen order
    Z6 = cyclic_group(6)
    one_each = zn_site_characters(6, [x * x % 6 for x in range(V)], conjugacy_classes(Z6))
    assert not isinstance(one_each, SiteCharacters)
    assert_tallied(SiteCharacters.of(one_each))
    assert SiteCharacters.of(chars) is chars


def test_site_characters_of_another_length_are_refused():
    """count and total_hilbert_dim refuse a site character list of the wrong
    length alike, naming the physical site count, dangling row or not."""
    C4 = cyclic_group(4)
    cls = conjugacy_classes(C4)
    L = lattice_hypercubic((3, 3), periodic=False)
    fermion = FermionMatter((one_dim_to_rep(zn_charge_rep(C4, 1)),))
    assert total_hilbert_dim(C4, L, fermion, cls) == 2 ** 33  # 4^12 links, 2 states a site
    chars = site_characters(fermion, cls, L.site_count)
    for wrong in (chars[:4], [], [*chars, chars[0]]):
        message = f"{len(wrong)} site characters for 9 sites"
        with pytest.raises(BadParams, match=message):
            total_hilbert_dim(C4, L, fermion, cls, site_chars=wrong)
        for attach in (None, (0, 4)):
            with pytest.raises(BadParams, match=message):
                count(C4, L, fermion, classes=cls, dangling_attach=attach, site_chars=wrong)


# ---------------------------------------------------------------------------
# one potential per Galois orbit of classes, and characters kept on the spec

def _outcome(thunk):
    """A report, or the type and message of the integrality error raised."""
    try:
        return thunk()
    except NonIntegralResult as exc:
        return type(exc), str(exc)


def _direct(monkeypatch, cls):
    """cls with its orbit table emptied: every class potential made directly."""
    monkeypatch.setitem(cls.__dict__, "_power_orbits", {})
    return cls


def test_galois_shortcut_matches_the_direct_path(monkeypatch):
    """Seeded: every report, ring labels included, is the one made with no class
    potential taken from another by sigma_j, on untwisted, wrap-twisted,
    every-link-inner, kernel-map and dangling counts, parity-weighted traces and
    random class functions, which mostly take the direct path."""
    rng = random.Random(29)
    Z8, D5, T = cyclic_group(8), dihedral_group(5), binary_tetrahedral_group()
    setups = []
    for G, reps in ((Z8, [one_dim_to_rep(zn_charge_rep(Z8, q)) for q in (1, 3)]),
                    (D5, [dihedral_rotation_rep(D5, 5)]), (T, [su2_fundamental_rep(T)])):
        matters = [PureGauge(), ScalarMatter(action_coset(G, first_proper_subgroup(G)))]
        matters += [FermionMatter(tuple(reps[:n]), s, vac) for n in range(1, len(reps) + 1)
                    for s in (1, 2) for vac in ("trivial", "staggered")]
        inner = [inner_automorphism(G, h) for h in range(G.order)]
        maps = inner + ([inversion_endo(G)] if G.is_abelian() else []) + _kernel_maps(G)
        setups.append((G, conjugacy_classes(G), _direct(monkeypatch, conjugacy_classes(G)),
                       matters, inner, maps))
    assert [len(cls._power_orbits) for _, cls, *_ in setups] == [4, 1, 2]
    kinds, shortcut = Counter(), Counter()  # cases, and those that raised fewer powers
    for _ in range(240):
        G, cls, direct, matters, inner, maps = rng.choice(setups)
        dims = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 2)))
        periodic = tuple(rng.random() < 0.7 for _ in dims)
        L = lattice_hypercubic(dims, periodic)
        kind = rng.choice(("none", "wrap", "inner_all", "kernel", "dangling", "random"))
        twist = attach = None
        if kind == "wrap" and any(periodic):
            k = rng.choice([k for k, p in enumerate(periodic) if p])
            twist = twist_on_wrap_edges(L, rng.choice(maps), k)
        elif kind == "inner_all":
            twist = make_twist(L, rng.choice(inner), range(L.edge_count))
        elif kind == "kernel":
            twist = _per_link_twist(rng, maps, L.edge_count)
        if kind == "dangling" or rng.random() < 0.2:
            attach = rng.sample(range(L.site_count), rng.randint(1, L.site_count))
        matter = rng.choice([m for m in matters if not (
            isinstance(m, FermionMatter) and m.vacuum == "staggered" and L.site_count % 2)])
        sign = rng.choice((1, -1)) if isinstance(matter, FermionMatter) else 1
        if kind == "random":  # a few class functions of random cyclotomic values
            pool = [ClassFunction(G, tuple(
                Cyclotomic.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                + rng.randint(-2, 2) * Cyclotomic.root_of_unity(rng.choice((1, 2, 4, 5, 8)),
                                                                 rng.randrange(8))
                for _ in range(cls.n_classes))) for _ in range(rng.randint(1, 2))]
            chars = [rng.choice(pool) for _ in range(L.site_count)]
            runs = [lambda c=c: count_general(G, c, L, chars, twist=twist,
                                              require_nonnegative=False)
                    for c in (cls, direct)]
        else:
            runs = [lambda c=c: count(G, L, matter, twist=twist, dangling_attach=attach,
                                      classes=c, parity_sign=sign) for c in (cls, direct)]
        pows, galois = [], []
        with monkeypatch.context() as m:  # the powers raised and the sigma_j taken by each
            m.setattr(Cyclotomic, "__pow__", lambda v, k, _p=Cyclotomic.__pow__: (
                pows.append(k), _p(v, k))[1])
            m.setattr(Cyclotomic, "galois", lambda v, j, _g=Cyclotomic.galois: (
                galois.append(j), _g(v, j))[1])
            fast = _outcome(runs[0])
            work = len(pows), len(galois)
            slow = _outcome(runs[1])
        assert len(galois) == work[1]  # the direct path checks nothing and takes no sigma_j
        assert work[0] <= len(pows) - work[0]
        if isinstance(fast, CountReport):
            _assert_same_report(fast, slow)
            assert [v.num for v in fast.per_class] == [v.num for v in slow.per_class]
        else:
            assert fast == slow
        kinds[kind] += 1
        shortcut[kind] += work[0] < len(pows) - work[0]
    assert min(kinds.values()) >= 30
    assert min(shortcut[k] for k in kinds if k != "random") >= 15 and shortcut["random"] <= 5


@pytest.fixture
def count_pows(monkeypatch):
    """The values raised to a power, in order."""
    raised = []
    plain = Cyclotomic.__pow__

    def counted(self, k):
        raised.append(self)
        return plain(self, k)
    monkeypatch.setattr(Cyclotomic, "__pow__", counted)
    return raised


def test_one_power_per_orbit_of_classes_unless_a_class_function_fails(count_pows):
    """Untwisted 2I staggered fermions: 9 classes in 7 Galois orbits, so the one
    distinct site character (det rho = 1 leaves the filled sites' equal) is raised at
    7 classes; a class function that is not a character is raised at all 9."""
    G = binary_icosahedral_group()
    cls = conjugacy_classes(G)
    L = lattice_hypercubic((4, 4))
    chars = site_characters(FermionMatter((su2_fundamental_rep(G),), 2, "staggered"), cls,
                            L.site_count)
    count_pows.clear()
    count_general(G, cls, L, chars)
    assert len(count_pows) == 7 == cls.n_classes - len(cls._power_orbits)
    rng = random.Random(9)
    noise = ClassFunction(G, tuple(map(Cyclotomic.rational, rng.sample(range(1, 100), 9))))
    count_pows.clear()
    _outcome(lambda: count_general(G, cls, L, [noise] * L.site_count))
    assert len(count_pows) == 9


def test_site_characters_are_built_once_per_spec_table_and_sign(monkeypatch):
    from gaugecount import matter as matter_mod

    built = Counter()
    for name in ("fermion_site_character", "fixed_point_character"):
        def counted(*args, _plain=getattr(matter_mod, name), _name=name, **kwargs):
            built[_name] += 1
            return _plain(*args, **kwargs)
        monkeypatch.setattr(matter_mod, name, counted)
    T = binary_tetrahedral_group()
    cls = conjugacy_classes(T)
    rep, left = su2_fundamental_rep(T), action_left_mult(T)
    coset = action_coset(T, first_proper_subgroup(T))

    def specs():
        return (FermionMatter((rep, rep), 2, "staggered"), ScalarMatter(coset),
                ScalarMatterPerSite((coset, left) * 8))
    kept = specs()
    small, large = lattice_hypercubic((4, 4)), lattice_hypercubic((2, 8))
    first = [count(T, small, m, classes=cls) for m in kept]
    assert built == {"fermion_site_character": 2, "fixed_point_character": 3}
    built.clear()
    again = [count(T, large, m, classes=cls) for m in kept]
    assert not built
    # another table of the same group, and the parity-weighted trace, build their own
    other = conjugacy_classes(T)
    count(T, small, kept[0], classes=other)
    count(T, small, kept[0], classes=cls, parity_sign=-1)
    assert built == {"fermion_site_character": 4}
    count(T, small, kept[0], classes=cls, parity_sign=-1)
    assert built == {"fermion_site_character": 4}
    # the reports are those of freshly built specs
    for a, b, f, g in zip(first, again, specs(), specs()):
        _assert_same_report(a, count(T, small, f, classes=cls))
        _assert_same_report(b, count(T, large, g, classes=cls))


def test_zn_closed_forms_match_engine():
    for N in (2, 3, 4):
        G = cyclic_group(N)
        cls = conjugacy_classes(G)
        for charges in ((0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)):
            L = lattice_chain(3, periodic=True)
            chars = zn_site_characters(N, charges, cls)
            closed = count_zn_closed_form(N, charges, L)
            if closed == 0:
                total = count_general(G, cls, L, chars).total
                assert total == 0
            else:
                assert count_general(G, cls, L, chars).total == closed

            open3 = lattice_chain(3)
            ext, tw = dangling_boundary_extension(open3, (2,), G)
            padded = chars + [constant_class_function(cls, 1)]
            assert (count_general(G, cls, ext, padded, twist=tw).total
                    == count_zn_closed_form(N, charges, ext, boundary="dangling"))

            ctw = twist_on_wrap_edges(L, inversion_endo(G), 0)
            assert (count_general(G, cls, L, chars, twist=ctw).total
                    == count_zn_closed_form(N, charges, L, boundary="cperiodic"))


def test_ladder_scale_totals_match_closed_forms():
    # 64x64 lattices: an inversion twist on the dimension-0 wraps, and an
    # open lattice whose row 0 hangs from the dangling site
    Z6 = cyclic_group(6)
    torus = lattice_hypercubic((64, 64))
    ctw = twist_on_wrap_edges(torus, inversion_endo(Z6), 0)
    zeros = [0] * torus.site_count
    assert (count(Z6, torus, PureGauge(), twist=ctw).total
            == count_zn_closed_form(6, zeros, torus, boundary="cperiodic"))
    Z4 = cyclic_group(4)
    plane = lattice_hypercubic((64, 64), periodic=False)
    row0 = tuple(range(64))
    ext, _ = dangling_boundary_extension(plane, row0, Z4)
    assert (count(Z4, plane, PureGauge(), dangling_attach=row0).total
            == count_zn_closed_form(4, zeros, ext, boundary="dangling"))


def test_zn_closed_form_parameter_errors():
    L = lattice_chain(3, periodic=True)
    with pytest.raises(BadParams):
        count_zn_closed_form(0, (0, 0, 0), L)
    with pytest.raises(BadParams):
        count_zn_closed_form(3, (0, 0), L)
    with pytest.raises(BadParams):
        count_zn_closed_form(3, (0, 0, 0), L, boundary="moebius")
    with pytest.raises(BadParams):
        count_zn_closed_form(3, (), LatticeGraph(1, ()), boundary="dangling")
    with pytest.raises(BadParams, match="^3 charges for 2 physical sites$"):
        count_zn_closed_form(3, (0, 0, 0), L, boundary="dangling")
    with pytest.raises(BadParams, match="^2 charges for 3 sites$"):
        count_zn_closed_form(3, (0, 0), L, boundary="cperiodic")


def test_fractional_class_sum_is_rejected():
    Z2 = cyclic_group(2)
    cls = conjugacy_classes(Z2)
    bad = constant_class_function(cls, Fraction(1, 3))
    with pytest.raises(NonIntegralResult) as e:
        count_general(Z2, cls, lattice_chain(2), [bad] * 2)
    assert "denominator" in str(e.value)


def test_irrational_class_sum_is_rejected():
    Z3 = cyclic_group(3)
    cls = conjugacy_classes(Z3)
    z = Cyclotomic.root_of_unity(3)
    lopsided = ClassFunction(Z3, (Cyclotomic.one(), z, z))
    with pytest.raises(NonIntegralResult) as e:
        count_general(Z3, cls, LatticeGraph(1, ()), [lopsided])
    assert "rational=False" in str(e.value)


def test_negative_total_needs_explicit_opt_in():
    Z2 = cyclic_group(2)
    cls = conjugacy_classes(Z2)
    minus = constant_class_function(cls, -1)
    L = LatticeGraph(1, ())
    with pytest.raises(NonIntegralResult):
        count_general(Z2, cls, L, [minus])
    r = count_general(Z2, cls, L, [minus], require_nonnegative=False)
    assert r.total == -1 and not r.witness.nonnegative


def test_group_mismatch_is_rejected():
    S3 = symmetric_group(3)
    Z3 = cyclic_group(3)
    cls3 = conjugacy_classes(Z3)
    with pytest.raises(GroupMismatch):
        count_general(S3, cls3, lattice_chain(2),
                      [constant_class_function(cls3, 1)] * 2)
    clsS = conjugacy_classes(S3)
    with pytest.raises(GroupMismatch):
        count_general(S3, clsS, lattice_chain(2),
                      [constant_class_function(cls3, 1)] * 2)
    tw = make_twist(lattice_chain(2, periodic=True), inversion_endo(Z3), [1])
    with pytest.raises(GroupMismatch):
        count(S3, lattice_chain(2, periodic=True), PureGauge(), twist=tw)


def test_site_character_count_must_match():
    Z2 = cyclic_group(2)
    cls = conjugacy_classes(Z2)
    with pytest.raises(BadParams):
        count_general(Z2, cls, lattice_chain(3),
                      [constant_class_function(cls, 1)] * 2)


def test_unknown_matter_is_rejected():
    with pytest.raises(BadParams):
        count(cyclic_group(2), lattice_chain(2), object())


def test_count_dispatch_matches_direct_entry_points():
    D4 = dihedral_group(4)
    L = lattice_chain(2, periodic=True)
    fm = FermionMatter(flavours=(dihedral_rotation_rep(D4, 4),),
                       spinor_count=1, vacuum="trivial")
    cls = conjugacy_classes(D4)
    chars = fermion_site_characters(fm, cls, L.site_count)
    assert count(D4, L, fm).total == count_general(D4, cls, L, chars).total


def test_free_factor_of_isolated_fermion_sites():
    """Each isolated site and the dangling virtual site is free; the free
    factor is the product of their mean characters, an integer of ring 1."""
    D4 = dihedral_group(4)
    L = LatticeGraph(4, ((0, 1), (1, 0)))
    fm = FermionMatter(flavours=(dihedral_rotation_rep(D4, 4),), spinor_count=2,
                       vacuum="trivial")
    for sign in (1, -1):
        r = count(D4, L, fm, dangling_attach=[0], parity_sign=sign)
        assert r.free_sites == (2, 3, 4)
        assert r.free_factor == 9 and r.free_factor.order == 1
        assert r.total == oracle_count(D4, L, fm, dangling_attach=[0], parity_sign=sign)
    assert count(D4, L, fm, dangling_attach=[0]).total == 6144 * 3


def test_report_structure():
    S3 = symmetric_group(3)
    r = count(S3, lattice_chain(2, periodic=True), PureGauge())
    assert len(r.per_class) == len(r.class_sizes) == 3
    assert r.free_factor == Cyclotomic.one()
    assert r.site_count == 2 and r.edge_count == 2 and r.bulk_site_count == 2
    assert r.alpha is None and r.free_sites == ()
    assert r.witness.ring_order >= 1 and r.witness.denominator == 1


def test_per_site_action_count_must_match_the_sites():
    S3 = symmetric_group(3)
    per = ScalarMatterPerSite((action_left_mult(S3),) * 5)
    for run in (count, total_hilbert_dim):
        with pytest.raises(BadParams, match="5 actions for 2 physical sites"):
            run(S3, lattice_chain(2), per)


def test_total_hilbert_dim_values():
    S3 = symmetric_group(3)
    L = lattice_chain(2)
    assert total_hilbert_dim(S3, L, PureGauge()) == 6
    assert total_hilbert_dim(S3, L, ScalarMatter(action_left_mult(S3))) == 216
    per = ScalarMatterPerSite((action_left_mult(S3), action_trivial(S3, 2)))
    assert total_hilbert_dim(S3, L, per) == 72
    Q8 = quaternion_group()
    fermion = FermionMatter((su2_fundamental_rep(Q8),), 2, "staggered")
    L4 = lattice_chain(4)
    assert total_hilbert_dim(Q8, L4, fermion, conjugacy_classes(Q8)) == 8 ** 3 * 16 ** 4


def test_staggered_fermions_on_odd_sites_have_no_total_dim():
    Q8 = quaternion_group()
    fermion = FermionMatter((su2_fundamental_rep(Q8),), 1, "staggered")
    for run in (count, total_hilbert_dim):
        with pytest.raises(OddSitesForStaggered):
            run(Q8, lattice_chain(3), fermion)


def test_action_of_another_group_has_no_total_dim():
    S3 = symmetric_group(3)
    scalar = ScalarMatter(action_left_mult(cyclic_group(3)))
    for run in (count, total_hilbert_dim):
        with pytest.raises(GroupMismatch):
            run(S3, lattice_chain(2), scalar)
    with pytest.raises(GroupMismatch):
        total_hilbert_dim(S3, lattice_chain(2), PureGauge(), conjugacy_classes(cyclic_group(6)))
