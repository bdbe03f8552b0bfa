"""Independent brute-force oracles for cross-checking the class-sum engine.

Everything here works at the level of individual group elements and exact
minors, sharing no reduction steps with the engine: the gauge projector is
averaged over all site-transformation tuples, link weights come from a
directly enumerated pair-count table, and fermionic weights are sums of
exact matrix minors over occupation subsets (never the determinant identity
the engine uses).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cyclo import Cyclotomic
from .errors import (
    BadParams,
    BudgetExceeded,
    DimTooLarge,
    NonIntegralResult,
    NotFree,
    NotTransitive,
    OddSitesForStaggered,
)
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    coset_space,
    subgroup_from_elements,
)
from .lattice import LatticeGraph, TwistSpec, dangling_boundary_extension
from .matter import (
    ExactMatrix,
    FermionMatter,
    GroupAction,
    MatterSpec,
    OneDimRep,
    PureGauge,
    ScalarMatter,
    ScalarMatterPerSite,
    UnitaryRep,
    fixed_point_count,
    orbits,
)

DEFAULT_ORACLE_BUDGET = 10_000_000
FOCK_DIM_CAP = 6  # the Fock matrix has 2^dim rows; the engine has no such cap

Weight = Union[int, Fraction, Cyclotomic]


def pair_count_table(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """M[a][b] = #{g : a g = g b}, by direct enumeration of g and a: the one
    b that each pair admits is g^-1 a g."""
    n, mul = G.order, G.mul_table
    counts = [[0] * n for _ in range(n)]
    for g in range(n):
        for a in range(n):
            counts[a][mul[G.inv(g)][mul[a][g]]] += 1
    return tuple(map(tuple, counts))


def _canonical_weight(w: Weight) -> Weight:
    if isinstance(w, Cyclotomic) and w.is_rational():
        w = w.rational_value()
    if isinstance(w, Fraction) and w.denominator == 1:
        return int(w)
    return w


def burnside_count(G: FiniteGroup, L: LatticeGraph,
                   site_weights: Sequence[Sequence[Weight]],
                   twist: Optional[TwistSpec] = None,
                   budget: int = DEFAULT_ORACLE_BUDGET,
                   require_nonnegative: bool = True) -> int:
    """Average of prod_links #fixed link variables times site weights.

    site_weights[x][g] is the character of the site-x matter space at the
    group element g.  The result must be an integer, nonnegative unless the
    weights encode a signed trace.
    """
    n, V, E = G.order, L.site_count, L.edge_count
    if len(site_weights) != V:
        raise BadParams(f"{len(site_weights)} weight rows for {V} sites")
    weights = [tuple(_canonical_weight(w) for w in row) for row in site_weights]
    if any(len(row) != n for row in weights):
        raise BadParams("each weight row must cover every group element")
    maps = {i: endo.image for i, endo in twist.maps.items()} if twist is not None else {}
    if any(not 0 <= i < E for i in maps):
        raise BadParams(f"twist names a link outside the {E} links of the lattice")
    supports = [tuple(g for g in range(n) if row[g] != 0) for row in weights]
    volume = 1
    for s in supports:
        volume *= len(s)
    if volume * max(E, 1) > budget:
        raise BudgetExceeded(
            f"{volume} configurations x {E} links exceeds budget {budget}")
    M = pair_count_table(G)

    edges = L.edges
    total: Weight = 0
    for h in itertools.product(*supports):
        link_prod = 1
        for i, (t, hd) in enumerate(edges):
            b = maps[i][h[hd]] if i in maps else h[hd]
            link_prod *= M[h[t]][b]
            if not link_prod:
                break
        if not link_prod:
            continue
        term: Weight = link_prod
        for x in range(V):
            term = term * weights[x][h[x]]
        total = total + term

    if isinstance(total, Cyclotomic):
        if not total.is_rational():
            raise NonIntegralResult("oracle sum is not rational")
        total = total.rational_value()
    result = Fraction(total) / Fraction(G.order) ** V
    if result.denominator != 1 or (require_nonnegative and result < 0):
        raise NonIntegralResult(f"oracle average is {result}, not a nonnegative integer")
    return int(result)


# ---------------------------------------------------------------------------
# exact Fock-space traces from matrix minors

def mat_det_exact(m: ExactMatrix) -> Cyclotomic:
    """Determinant by cofactor expansion; fine for the small dims used here."""
    n = len(m)
    if n == 0:
        return Cyclotomic.one()
    total = Cyclotomic.zero()
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = tuple(tuple(row[c] for c in range(n) if c != j) for row in m[1:])
        term = m[0][j] * mat_det_exact(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _minor_det(m: ExactMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> Cyclotomic:
    sub = tuple(tuple(m[i][j] for j in cols) for i in rows)
    return mat_det_exact(sub)


def fock_site_matrix(rep: UnitaryRep, g: int) -> tuple[tuple[Cyclotomic, ...], ...]:
    """Matrix of rho(g) on the exterior algebra, basis = occupation subsets.

    Entry (S, T) is the minor of rho(g) with rows S and columns T when the
    subsets have equal size, else zero.  Subsets are ordered by bitmask.
    """
    if rep.dim > FOCK_DIM_CAP:
        raise DimTooLarge(
            f"Fock oracle caps matrix dimension at {FOCK_DIM_CAP}, got {rep.dim}")
    m = rep.exact_matrix_of(g)
    d = rep.dim
    subsets = [tuple(i for i in range(d) if mask >> i & 1) for mask in range(1 << d)]
    zero = Cyclotomic.zero()
    out = []
    for S in subsets:
        row = []
        for T in subsets:
            row.append(_minor_det(m, S, T) if len(S) == len(T) else zero)
        out.append(tuple(row))
    return tuple(out)


def fock_site_trace(rep: UnitaryRep, g: int, parity_sign: int = 1) -> Cyclotomic:
    """Sum of principal minors, optionally weighted by (-1)^occupation."""
    if rep.dim > FOCK_DIM_CAP:
        raise DimTooLarge(
            f"Fock oracle caps matrix dimension at {FOCK_DIM_CAP}, got {rep.dim}")
    if parity_sign not in (1, -1):
        raise BadParams(f"parity_sign must be +1 or -1, got {parity_sign}")
    m = rep.exact_matrix_of(g)
    d = rep.dim
    total = Cyclotomic.zero()
    for mask in range(1 << d):
        S = tuple(i for i in range(d) if mask >> i & 1)
        term = _minor_det(m, S, S)
        if parity_sign == -1 and len(S) % 2:
            term = -term
        total = total + term
    return total


def fermion_element_weight(matter: FermionMatter, g: int,
                           parity_sign: int = 1) -> Weight:
    """Fock trace at one element: prod_f (minor sum)^spinor_count."""
    w: Weight = 1
    for rep in matter.flavours:
        w = w * fock_site_trace(rep, g, parity_sign) ** matter.spinor_count
    return _canonical_weight(w)


def _staggered_weight(matter: FermionMatter, G: FiniteGroup, g: int) -> Weight:
    """prod_f det(rho_f(g^-1))^spinor_count by cofactor expansion."""
    w: Weight = 1
    ginv = G.inv(g)
    for rep in matter.flavours:
        w = w * mat_det_exact(rep.exact_matrix_of(ginv)) ** matter.spinor_count
    return _canonical_weight(w)


def oracle_count(G: FiniteGroup, L: LatticeGraph, matter: MatterSpec,
                 twist: Optional[TwistSpec] = None,
                 dangling_attach: Optional[Sequence[int]] = None,
                 parity_sign: int = 1,
                 budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Element-level count for any matter specification (engine cross-check)."""
    if parity_sign not in (1, -1):
        raise BadParams(f"parity_sign must be +1 or -1, got {parity_sign}")
    n_phys = L.site_count
    if dangling_attach is not None:
        L, twist = dangling_boundary_extension(L, tuple(dangling_attach), G, twist)
    ones = (1,) * G.order

    if isinstance(matter, PureGauge):
        rows: list[Sequence[Weight]] = [ones] * n_phys
    elif isinstance(matter, (ScalarMatter, ScalarMatterPerSite)):
        actions = (matter.actions if isinstance(matter, ScalarMatterPerSite)
                   else (matter.action,) * n_phys)
        if len(actions) != n_phys:
            raise BadParams(f"{len(actions)} actions for {n_phys} sites")
        fixed = {id(a): tuple(fixed_point_count(a, g) for g in range(G.order))
                 for a in {id(a): a for a in actions}.values()}
        rows = [fixed[id(a)] for a in actions]
    elif isinstance(matter, FermionMatter):
        base = tuple(fermion_element_weight(matter, g, parity_sign)
                     for g in range(G.order))
        rows = [base] * n_phys
        if isinstance(matter.vacuum, OneDimRep):
            vac = matter.vacuum.values
            rows = [tuple(b * vac[g] for g, b in enumerate(row)) for row in rows]
        elif matter.vacuum == "staggered":
            if n_phys % 2:
                raise OddSitesForStaggered(
                    f"staggered vacuum needs an even site count, got {n_phys}")
            stag = tuple(_staggered_weight(matter, G, g) for g in range(G.order))
            rows = [tuple(b * stag[g] for g, b in enumerate(base)) if x % 2 else base
                    for x in range(n_phys)]
    else:
        raise BadParams(f"unknown matter specification {matter!r}")

    rows = rows + [ones] * (L.site_count - n_phys)
    return burnside_count(G, L, rows, twist=twist, budget=budget,
                          require_nonnegative=(parity_sign == 1))


# ---------------------------------------------------------------------------
# structure theorems for scalar actions

def transitive_to_coset(A: GroupAction) -> tuple[SubgroupHandle, GroupAction, tuple[int, ...]]:
    """Identify a transitive action with the coset action of a point stabilizer.

    Returns the stabilizer of point 0, the coset action, and the bijection
    sending each point to its coset index; equivariance is verified on every
    (element, point) pair.  Raises NotTransitive otherwise.
    """
    G, n = A.group, A.set_size
    orbit0 = orbits(A)[0]
    if len(orbit0) != n:
        raise NotTransitive(f"orbit of point 0 has size {len(orbit0)}, set has {n}")
    H = subgroup_from_elements(G, [g for g in range(G.order) if A.table[g][0] == 0])
    cs = coset_space(G, H)
    CA = GroupAction(G, cs.n_cosets, tuple(
        tuple(cs.coset_of[G.mul(g, r)] for r in cs.reps) for g in range(G.order)))
    carrier = {A.table[g][0]: cs.coset_of[g] for g in range(G.order)}
    mapping = tuple(carrier[s] for s in range(n))
    if sorted(mapping) != list(range(n)):
        raise NotTransitive("point-to-coset map is not a bijection")
    for g in range(G.order):
        for s in range(n):
            if mapping[A.table[g][s]] != CA.table[g][mapping[s]]:
                raise NotTransitive(f"equivariance fails at element {g}, point {s}")
    return H, CA, mapping


def free_orbit_decomposition(A: GroupAction) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Split a free action into regular orbits with unique translations.

    Returns the orbit base points and, per orbit, the translation table:
    entry g is the point g.base.  Uniqueness of the translation reaching
    each point is exactly freeness; violations raise NotFree.
    """
    G, n = A.group, A.set_size
    for g in range(G.order):
        if g == G.identity:
            continue
        for s in range(n):
            if A.table[g][s] == s:
                raise NotFree(f"element {g} fixes point {s}")
    blocks = orbits(A)
    for block in blocks:
        if len(block) != G.order:
            raise NotFree(f"orbit of point {block[0]} is not regular")
    bases = tuple(block[0] for block in blocks)
    return bases, tuple(tuple(row[s] for row in A.table) for s in bases)


def free_to_product(A: GroupAction) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Identify a free action with left multiplication on G x orbit-labels.

    Returns the orbit count and the bijection sending each point s to
    (g_s, orbit index), where g_s is the unique translation carrying the
    orbit's base point (its minimal-index element) to s.  Equivariance
    f(g.s) = (g g_s, orbit) is checked on every (element, point) pair.
    """
    G = A.group
    bases, tables = free_orbit_decomposition(A)
    mapping: list[tuple[int, int]] = [(0, 0)] * A.set_size
    for o, reach in enumerate(tables):
        for g, p in enumerate(reach):
            mapping[p] = (g, o)
    out = tuple(mapping)
    for g in range(G.order):
        for s in range(A.set_size):
            gs, o = out[s]
            if out[A.table[g][s]] != (G.mul(g, gs), o):
                raise NotFree(f"equivariance fails at element {g}, point {s}")
    return len(bases), out


def free_action_closed_form(G: FiniteGroup, L: LatticeGraph,
                            actions: Sequence[GroupAction]) -> int:
    """Count with one free scalar per site: |G|^E * prod_x (orbit count at x).

    A free action leaves only the identity with fixed points, so the class
    sum collapses to the identity class; each site keeps its orbit count and
    the gauge freedom is fully used up.
    """
    if len(actions) != L.site_count:
        raise BadParams(f"{len(actions)} actions for {L.site_count} sites")
    dim = G.order ** L.edge_count
    for a in actions:
        bases, _ = free_orbit_decomposition(a)
        dim *= len(bases)
    return dim
