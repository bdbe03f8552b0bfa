"""Seeded property test: the class-sum count equals the element-level oracle
on generated groups, multigraphs, matter, per-link boundary maps (kernel
maps included) and dangling boundaries."""

import functools
import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaugecount import (  # noqa: E402
    Cyclotomic,
    FermionMatter,
    LatticeGraph,
    PureGauge,
    ScalarMatter,
    TwistSpec,
    action_coset,
    action_left_mult,
    conjugacy_classes,
    constant_identity_endo,
    count,
    cyclic_group,
    dihedral_group,
    dihedral_rotation_rep,
    endo_from_image,
    first_proper_subgroup,
    identity_endo,
    inner_automorphism,
    inversion_endo,
    one_dim_to_rep,
    oracle_count,
    quaternion_group,
    rep_from_generator_images,
    su2_fundamental_rep,
    symmetric_group,
    trivial_rep,
    zn_charge_rep,
)
from gaugecount.groups import extend_generator_images  # noqa: E402

GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D4", "Q8")
MAX_SITES = 4  # the virtual site of a dangling boundary included
MAX_LINKS = 6
MAP_KINDS = ("untwisted", "identity", "constant", "inversion", "inner", "kernel")


def _s3_standard_rep(G):
    """The 2-dim irrep of S3: a transposition swaps, a 3-cycle is diag(w, w^2)."""
    w = Cyclotomic.root_of_unity(3)
    z, o = Cyclotomic.zero(), Cyclotomic.one()
    return rep_from_generator_images(G, (((z, o), (o, z)), ((w, z), (z, w * w))))


def _kernel_maps(G):
    """Every endomorphism with a kernel that is not constant, from all
    generator images."""
    found = (extend_generator_images(G, imgs, G.mul, G.identity)
             for imgs in itertools.product(range(G.order), repeat=len(G.generators)))
    return [endo_from_image(G, f) for f in found
            if f is not None and 1 < len(set(f)) < G.order]


@functools.lru_cache(maxsize=None)
def _setup(name):
    """(group, class table, scalar actions, flavour reps, kernel maps) for one
    group name."""
    if name.startswith("Z"):
        G = cyclic_group(int(name[1:]))
        reps = (one_dim_to_rep(zn_charge_rep(G, 1)), one_dim_to_rep(zn_charge_rep(G, 2)))
    elif name == "S3":
        G = symmetric_group(3)
        reps = (_s3_standard_rep(G),)
    elif name == "D4":
        G = dihedral_group(4)
        reps = (dihedral_rotation_rep(G, 4),)
    else:
        G = quaternion_group()
        reps = (su2_fundamental_rep(G),)
    actions = (action_left_mult(G), action_coset(G, first_proper_subgroup(G)))
    return G, conjugacy_classes(G), actions, reps + (trivial_rep(G),), _kernel_maps(G)


def _boundary_map(G, kind, h):
    if kind == "identity":
        return identity_endo(G)
    if kind == "constant":
        return constant_identity_endo(G)
    if kind == "inversion" and G.is_abelian():
        return inversion_endo(G)
    return inner_automorphism(G, h % G.order)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(GROUPS))
    G, cls, actions, reps, kernel = _setup(name)
    matter_kind = draw(st.sampled_from(("fermion", "scalar", "pure")))
    vacuum = draw(st.sampled_from(("trivial", "staggered")))
    dangling = draw(st.booleans())
    max_sites = MAX_SITES - 1 if dangling else MAX_SITES
    if matter_kind == "fermion" and vacuum == "staggered":
        sites = draw(st.sampled_from(range(2, max_sites + 1, 2)))
    else:
        sites = draw(st.integers(1, max_sites))
    point = st.integers(0, sites - 1)
    edges = tuple(draw(st.lists(st.tuples(point, point), max_size=MAX_LINKS)))
    maps = {}
    for i in range(len(edges)):
        kind = draw(st.sampled_from(MAP_KINDS))
        if kind == "kernel" and kernel:
            maps[i] = draw(st.sampled_from(kernel))
        elif kind != "untwisted":
            maps[i] = _boundary_map(G, kind, draw(st.integers(0, G.order - 1)))
    attach = (tuple(draw(st.lists(point, min_size=1, max_size=sites, unique=True)))
              if dangling else None)
    parity_sign = 1
    if matter_kind == "pure":
        matter = PureGauge()
    elif matter_kind == "scalar":
        matter = ScalarMatter(draw(st.sampled_from(actions)))
    else:
        flavours = tuple(draw(st.lists(st.sampled_from(reps), min_size=1, max_size=2)))
        matter = FermionMatter(flavours, vacuum=vacuum)
        parity_sign = draw(st.sampled_from((1, -1)))
    return G, cls, LatticeGraph(sites, edges), matter, TwistSpec(maps), attach, parity_sign


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(cases())
def test_count_matches_oracle_on_generated_inputs(case):
    G, cls, L, matter, twist, attach, parity_sign = case
    formula = count(G, L, matter, twist=twist, dangling_attach=attach, classes=cls,
                    parity_sign=parity_sign).total
    assert formula == oracle_count(G, L, matter, twist=twist, dangling_attach=attach,
                                   parity_sign=parity_sign)
