"""Seeded metamorphic tests: rewrites of a job that cannot change its count.

Each relation rebuilds a generated job (group, torus or open grid, per-site
characters, per-link boundary maps, optionally a dangling boundary whose
virtual site carries its own character) and checks that `count_general`
gives the same total for both:

- subdividing a link t -> x through a new site s of character 1, splitting
  its map phi into psi o chi across t -> s (psi) and s -> x (chi), one of
  them an automorphism: summing over s's element gives |G| times the old
  link's weight;
- relabelling the sites and shuffling the link order;
- an inner-automorphism coboundary: site x moved by c_{k_x} turns each
  link's map phi into c_{k_t} o phi o c_{k_x}^-1, which induces the same
  class map, so it counts as the untouched twist (as no twist when there
  was none);
- a gauge move by any automorphism psi at one site x: its group element
  g_x = psi(g'_x) turns each map phi on a link into x into phi o psi, on a
  link out of x into psi^-1 o phi (both on a loop at x), and chi_x into
  chi_x o psi;
- sink links as a site: a dangling boundary counts as the untwisted links
  from its attach sites into one new site carrying the regular character;
- products: untwisted pure gauge over a direct product G x H counts as the
  product of the counts over G and over H;
- disjoint unions: two jobs side by side, their dangling boundaries sharing
  one virtual site, count as the product of their counts.
"""

import functools
import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaugecount import (  # noqa: E402
    ClassFunction,
    FermionMatter,
    GroupEndomorphism,
    LatticeGraph,
    PureGauge,
    ScalarMatter,
    TwistSpec,
    action_coset,
    action_left_mult,
    action_product,
    binary_tetrahedral_group,
    class_image,
    conjugacy_classes,
    constant_class_function,
    constant_identity_endo,
    count,
    count_general,
    cyclic_group,
    dangling_boundary_extension,
    dihedral_group,
    dihedral_rotation_rep,
    direct_product,
    enumerate_automorphisms,
    fermion_site_character,
    first_proper_subgroup,
    fixed_point_character,
    identity_endo,
    inner_automorphism,
    inversion_endo,
    lattice_hypercubic,
    one_dim_to_rep,
    permutation_rep,
    quaternion_group,
    site_characters,
    su2_fundamental_rep,
    symmetric_group,
    zn_charge_rep,
)
from gaugecount.groups import extend_generator_images  # noqa: E402

GROUPS = ("Z4", "Z6", "D4", "Q8", "2T", "S3")
MAX_SIDE = 6
MAX_TWISTED = 5
SETTINGS = settings(derandomize=True, max_examples=20, deadline=None, database=None)


@functools.lru_cache(maxsize=None)
def _flavour(name):
    """The named group and a rep of it with a nontrivial Fock character."""
    if name.startswith("Z"):
        G = cyclic_group(int(name[1:]))
        return G, one_dim_to_rep(zn_charge_rep(G, 1))
    if name == "D4":
        G = dihedral_group(4)
        return G, dihedral_rotation_rep(G, 4)
    if name == "S3":
        G = symmetric_group(3)
        return G, permutation_rep(action_coset(G, first_proper_subgroup(G)))
    G = quaternion_group() if name == "Q8" else binary_tetrahedral_group()
    return G, su2_fundamental_rep(G)


@functools.lru_cache(maxsize=None)
def _setup(name):
    """(group, class table, character pool, boundary maps, automorphisms)."""
    G, rep = _flavour(name)
    cls = conjugacy_classes(G)
    coset = action_coset(G, first_proper_subgroup(G))
    # means 1, 1 or 2, 1 and at least 2: a free site's factor is not always 1
    pool = (constant_class_function(cls, 1), fermion_site_character(rep, cls),
            fixed_point_character(coset, cls),
            fixed_point_character(action_product(coset, coset), cls))
    found = (extend_generator_images(G, imgs, G.mul, G.identity)
             for imgs in itertools.product(range(G.order), repeat=len(G.generators)))
    kernel = [GroupEndomorphism(G, tuple(f)) for f in found
              if f is not None and 1 < len(set(f)) < G.order]
    # inner, inversion and outer maps; Hypothesis draws early entries more
    # often, so the identity, first in the enumeration, goes last
    autos = enumerate_automorphisms(G).automorphisms[::-1]
    return G, cls, pool, (*kernel, constant_identity_endo(G), *autos), autos


def _compose(*phis):
    """phis[0] o phis[1] o ..."""
    image = tuple(range(phis[0].group.order))
    for phi in reversed(phis):
        image = tuple(phi.image[g] for g in image)
    return GroupEndomorphism(phis[0].group, image)


def _inverse(alpha):
    image = [0] * alpha.group.order
    for g, v in enumerate(alpha.image):
        image[v] = g
    return GroupEndomorphism(alpha.group, tuple(image))


@st.composite
def jobs(draw, name):
    """(lattice, site characters, link -> map) over the named group."""
    G, cls, pool, maps, _ = _setup(name)
    dims = draw(st.lists(st.integers(1, MAX_SIDE), min_size=1, max_size=2))
    L = lattice_hypercubic(dims, draw(st.sampled_from((True, False))))  # mostly tori
    twisted = draw(st.lists(st.integers(0, max(L.edge_count - 1, 0)), max_size=MAX_TWISTED,
                            unique=True)) if L.edge_count else []
    twist = TwistSpec({i: draw(st.sampled_from(maps)) for i in twisted})
    if draw(st.booleans()):  # dangling: the virtual site is free until rewritten
        attach = draw(st.lists(st.integers(0, L.site_count - 1), min_size=1,
                               max_size=3, unique=True))
        L, twist = dangling_boundary_extension(L, attach, G, twist)
    chars = [draw(st.sampled_from(pool)) for _ in range(L.site_count)]
    return L, chars, dict(twist.maps)


def _total(name, L, chars, maps):
    G, cls, *_ = _setup(name)
    return count_general(G, cls, L, chars, twist=TwistSpec(maps)).total


@pytest.mark.parametrize("name", GROUPS)
@SETTINGS
@given(data=st.data())
def test_subdividing_links_keeps_the_count(name, data):
    """Every twisted link and one more link are subdivided."""
    L, chars, maps = data.draw(jobs(name))
    G, cls, _, _, autos = _setup(name)
    if not L.edge_count:
        return
    links = sorted(set(maps) | {data.draw(st.integers(0, L.edge_count - 1))})
    edges, sub_maps, V = list(L.edges), dict(maps), L.site_count
    for i in links:
        phi = maps.get(i, identity_endo(G))
        alpha = data.draw(st.sampled_from(autos))
        psi, chi = ((_compose(phi, _inverse(alpha)), alpha) if data.draw(st.booleans())
                    else (alpha, _compose(_inverse(alpha), phi)))
        t, x = edges[i]
        edges[i] = (t, V)
        edges.append((V, x))
        sub_maps[i], sub_maps[len(edges) - 1] = psi, chi
        V += 1
    ones = [constant_class_function(cls, 1)] * (V - L.site_count)
    assert _total(name, LatticeGraph(V, tuple(edges)), chars + ones, sub_maps) == \
        _total(name, L, chars, maps)


@pytest.mark.parametrize("name", GROUPS)
@SETTINGS
@given(data=st.data())
def test_relabelling_sites_and_links_keeps_the_count(name, data):
    L, chars, maps = data.draw(jobs(name))
    G, cls, *_ = _setup(name)
    site = data.draw(st.permutations(range(L.site_count)))
    order = data.draw(st.permutations(range(L.edge_count)))
    edges = tuple((site[L.edges[k][0]], site[L.edges[k][1]]) for k in order)
    new_chars = [None] * L.site_count
    for x, ch in enumerate(chars):
        new_chars[site[x]] = ch
    new_maps = {j: maps[k] for j, k in enumerate(order) if k in maps}
    before = count_general(G, cls, L, chars, twist=TwistSpec(maps))
    after = count_general(G, cls, LatticeGraph(L.site_count, edges), new_chars,
                          twist=TwistSpec(new_maps))
    assert after.total == before.total
    assert after.free_factor == before.free_factor
    assert after.free_sites == tuple(sorted(site[x] for x in before.free_sites))
    assert (after.twist_kind, after.twisted_head_count) == \
        (before.twist_kind, before.twisted_head_count)


@pytest.mark.parametrize("name", GROUPS)
@SETTINGS
@given(data=st.data())
def test_inner_coboundary_keeps_the_count(name, data):
    L, chars, maps = data.draw(jobs(name))
    G, cls, *_ = _setup(name)
    moved = data.draw(st.lists(st.integers(0, L.site_count - 1), unique=True))
    k = [G.identity] * L.site_count
    for x in moved:
        k[x] = data.draw(st.integers(0, G.order - 1))
    identity = identity_endo(G)
    new_maps = {}
    for i, (t, x) in enumerate(L.edges):
        phi = _compose(inner_automorphism(G, k[t]), maps.get(i, identity),
                       inner_automorphism(G, G.inv(k[x])))
        if phi.image != identity.image:
            new_maps[i] = phi
    assert _total(name, L, chars, new_maps) == _total(name, L, chars, maps)


@pytest.mark.parametrize("name", ("Z5", "Z6", "D4", "Q8", "2T"))
@settings(SETTINGS, max_examples=80)
@given(data=st.data())
def test_gauge_move_by_an_automorphism_keeps_the_count(name, data):
    """psi moves classes (inner moves are the coboundary above); on Z5
    (x -> 2x) and Q8 its class map can have order 3 or 4, so using psi for
    psi^-1, or chi_x o psi^-1 for chi_x o psi, fails."""
    L, chars, maps = data.draw(jobs(name))
    G, cls, _, _, autos = _setup(name)
    x = data.draw(st.integers(0, L.site_count - 1))
    psi = data.draw(st.sampled_from([a for a in autos
                                     if class_image(a, cls) != tuple(range(cls.n_classes))]))
    identity = identity_endo(G)
    new_maps = {}
    for i, (t, h) in enumerate(L.edges):
        phi = _compose(*[_inverse(psi)] * (t == x), maps.get(i, identity),
                       *[psi] * (h == x))
        if phi.image != identity.image:
            new_maps[i] = phi
    new_chars = list(chars)
    new_chars[x] = ClassFunction(G, tuple(chars[x].values[c] for c in class_image(psi, cls)))
    assert _total(name, L, new_chars, new_maps) == _total(name, L, chars, maps)


@functools.lru_cache(maxsize=None)
def _sink_case(name):
    """(group, class table, matter) of a sink-relation case."""
    if name == "S4":
        G = symmetric_group(4)
        return G, conjugacy_classes(G), PureGauge()
    G = binary_tetrahedral_group() if name == "2T" else dihedral_group(4)
    rep = su2_fundamental_rep(G) if name == "2T" else dihedral_rotation_rep(G, 4)
    return G, conjugacy_classes(G), FermionMatter((rep,))


@pytest.mark.parametrize("name", ("2T", "D4", "S4"))
@pytest.mark.parametrize("side", (2, 4))
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_sink_links_count_as_untwisted_links_into_a_regular_site(name, side, data):
    G, cls, matter = _sink_case(name)
    L = lattice_hypercubic((side, side), False)
    V = L.site_count
    attach = data.draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=V, unique=True))
    extended = LatticeGraph(V + 1, L.edges + tuple((a, V) for a in attach))
    # the regular character: the fixed points of G acting on itself
    chars = site_characters(matter, cls, V) + [fixed_point_character(action_left_mult(G), cls)]
    assert count_general(G, cls, extended, chars).total == \
        count(G, L, matter, dangling_attach=attach, classes=cls).total


@pytest.mark.parametrize("factors", [
    (lambda: cyclic_group(2), lambda: symmetric_group(3)),
    (quaternion_group, lambda: cyclic_group(3)),
    (lambda: dihedral_group(4), lambda: cyclic_group(2)),
], ids=["Z2xS3", "Q8xZ3", "D4xZ2"])
def test_pure_gauge_over_a_direct_product_counts_as_the_product(factors):
    G, H = (make() for make in factors)
    for L in (lattice_hypercubic((3,)), lattice_hypercubic((2, 2)),
              LatticeGraph(3, ((0, 1), (1, 2), (2, 0), (0, 1), (2, 2)))):
        assert count(direct_product(G, H), L, PureGauge()).total == \
            count(G, L, PureGauge()).total * count(H, L, PureGauge()).total


@functools.lru_cache(maxsize=None)
def _union_case(name):
    """(group, class table, matter specs, boundary maps) of a disjoint-union case:
    identity, constant and inner maps, and inversion on an abelian group."""
    G, rep = _flavour(name)
    maps = (identity_endo(G), constant_identity_endo(G),
            *(inner_automorphism(G, g) for g in range(G.order)),
            *((inversion_endo(G),) if G.is_abelian() else ()))
    return (G, conjugacy_classes(G),
            (PureGauge(), ScalarMatter(action_left_mult(G)), FermionMatter((rep,))), maps)


@st.composite
def union_sides(draw, name):
    """(lattice, link -> map, attach sites): a multigraph of 1 to 3 sites and
    0 to 4 links, with per-link maps and a dangling attach list."""
    *_, maps = _union_case(name)
    V = draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)),
                          max_size=4))
    twisted = draw(st.lists(st.integers(0, len(edges) - 1), unique=True)) if edges else []
    attach = draw(st.lists(st.integers(0, V - 1), max_size=V, unique=True))
    return (LatticeGraph(V, edges), {i: draw(st.sampled_from(maps)) for i in twisted},
            attach)


@pytest.mark.parametrize("name", ("Z4", "D4", "Q8", "2T", "S3"))
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_disjoint_union_multiplies_the_counts(name, data):
    """L2's sites shift by V1 and its links by E1; the attach lists join, so
    both dangling boundaries feed one virtual site."""
    G, cls, matters, _ = _union_case(name)
    matter = data.draw(st.sampled_from(matters))
    (L1, maps1, attach1), (L2, maps2, attach2) = (data.draw(union_sides(name)) for _ in "12")
    V1, E1 = L1.site_count, L1.edge_count
    union = LatticeGraph(V1 + L2.site_count,
                         L1.edges + tuple((t + V1, h + V1) for t, h in L2.edges))
    maps = {**maps1, **{i + E1: phi for i, phi in maps2.items()}}

    def total(L, maps, attach):
        return count(G, L, matter, twist=TwistSpec(maps), dangling_attach=attach,
                     classes=cls).total
    assert total(union, maps, attach1 + [a + V1 for a in attach2]) == \
        total(L1, maps1, attach1) * total(L2, maps2, attach2)
