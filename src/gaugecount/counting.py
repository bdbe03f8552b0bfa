"""Exact dimension counting for gauge-invariant Hilbert spaces.

The engine averages the gauge projector over site transformations h_x.  A
link l: t -> x keeps #{g : h_t g = g phi_l(h_x)} of its values: |G|/|C| when
h_t lies in the class C of phi_l(h_x), and zero otherwise (phi_l is the
identity on untwisted links).  Untwisted links thus pin every site of a
connected component K of the untwisted links to one class C_K, and the
dimension is a single contraction of exact class sums

    dim = sum_{C_K}  prod_links |G|/|C_K(tail)|
            * prod_x chi_x(C_K(x)) * |C_K(x)|/|G|
            * prod_{twisted links l: t -> x} [phi_l(C_K(x)) = C_K(t)]

over cyclotomic numbers, phi_l(C) being the class that the endomorphism
phi_l sends the class C into.  Boundary conditions are the per-link maps
phi_l, fed to this one sum as data.  A sink link t -> x (constant phi_l) pins
h_t to the identity and ignores h_x, as the untwisted link t -> s into one
shared sink site s of regular character (|G| on the identity class, 0
elsewhere) does.  A twisted link inside a component keeps the classes C of
its head with phi_l(C) = C (alpha(C) = 1); a free site (only sink links
in, if any) is a component alone, the factor sum_C chi_x(C)|C|/|G|; twisted
links between components become 0/1 factor tables, read off the class maps
into a head and summed out by bucket elimination onto the component of the
lowest-numbered constrained site, whose classes give the per-class breakdown.
The cost follows distinct characters, Galois orbits of classes and nonzero
entries, not sites or class tuples: sites with equal character values share
one power, and elimination joins only the nonzero entries of the tables it
sums out.  A class C^j (j prime to the order of C's elements) takes sigma_j of
C's potentials, as chi(g^j) = sigma_j(chi(g)) for characters, only when an exact
check finds each distinct site character's value at C^j, ring order included, to
be sigma_j of its value at C; sigma_j commutes with every step of a potential, so
reports are bit for bit those of the direct path.  A count that
removes no link (no non-constant map, no sink link) takes the lattice's cached
components; one that removes or moves only wraparound and dangling links of a
hypercubic lattice takes them from its shape (the open grid still joins every
physical site, the virtual site alone once all its links are gone), so neither
reads a link tuple; any other twist takes one union-find step per link.  A
lone component reads the sites' tally (`matter.SiteCharacters`), not the
sites; only two or more components from union-find add a label per site and
a tally of links out.

The result must come out a nonnegative integer; anything else raises
NonIntegralResult with the failed witness attached.  The site characters
come from `matter.site_characters`; this module holds the contraction,
`count` on top of it, the fermion parity split and the Z_N closed forms.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import attrgetter
from typing import Optional, Sequence

from ._values import frozen
from .autos import class_image
from .cyclo import Cyclotomic, _int_pow
from .errors import BadParams, GroupMismatch, NonIntegralResult
from .groups import ConjugacyClassTable, FiniteGroup, conjugacy_classes, same_group
from .lattice import LatticeGraph, TwistSpec, component_labels, dangling_boundary_extension
from .matter import (
    ClassFunction,
    FermionMatter,
    MatterSpec,
    SiteCharacters,
    constant_class_function,
    one_dim_class_values,
    site_characters,
    zn_charge_rep,
)


@frozen
class IntegralityWitness:
    """Evidence that the exact class sum reduced to a nonnegative integer."""

    ring_order: int
    is_rational: bool
    denominator: int
    nonnegative: bool

    @property
    def passed(self) -> bool:
        return self.is_rational and self.denominator == 1 and self.nonnegative


@frozen
class CountReport:
    """Exact count with its per-class breakdown and the integrality witness."""

    total: int
    group_name: str
    lattice_name: str
    site_count: int
    edge_count: int
    bulk_site_count: int
    free_sites: tuple[int, ...]
    twist_kind: str  # "none" | "sink" (constant maps only) | "proper"
    twisted_head_count: int  # heads of links under a non-constant map
    class_sizes: tuple[int, ...]
    per_class: tuple[Cyclotomic, ...]
    alpha: Optional[tuple[int, ...]]  # 0/1: every non-constant map fixes the class
    free_factor: Cyclotomic
    witness: IntegralityWitness
    warnings: tuple[str, ...]


_exact = attrgetter("order", "num", "den")  # a value's tuple, ring order included


def count_general(G: FiniteGroup,
                  classes: ConjugacyClassTable,
                  L: LatticeGraph,
                  site_chars: Sequence[ClassFunction],
                  twist: Optional[TwistSpec] = None,
                  require_nonnegative: bool = True) -> CountReport:
    """Exact gauge-invariant dimension for arbitrary per-site characters.

    require_nonnegative=False admits signed totals; parity-weighted traces
    are differences of dimensions and may legitimately be negative.
    """
    if not same_group(G, classes.group):
        raise GroupMismatch("group and class table disagree")
    V, E = L.site_count, L.edge_count
    # the twist as data: each distinct map, interned by its image, is read once
    # as a class map; identity maps leave their links untwisted, and a sink
    # link t -> x (constant map) becomes the untwisted link t -> V, V the sink site
    maps = twist.maps if twist is not None else {}
    index: dict[tuple[int, ...], int] = {}  # image -> map number
    cmaps: list[tuple[int, ...]] = []  # map number -> its class map
    map_of: dict[int, int] = {}  # link under a non-constant map -> map number
    sink: set[int] = set()  # links under the constant map
    identity, sink_image = tuple(range(G.order)), (G.identity,) * G.order
    keep = bytearray(b"\1") * E  # 0 at the links under a non-constant map
    for i, endo in sorted(maps.items()):
        if not 0 <= i < E:
            raise BadParams(f"twisted link index {i} out of range for {E} links")
        if not same_group(endo.group, G):
            raise GroupMismatch("twist endomorphism lives over a different group")
        if endo.image == sink_image != identity:  # the trivial group's one map is the identity
            sink.add(i)
        elif endo.image != identity:
            if endo.image not in index:
                index[endo.image] = len(cmaps)
                cmaps.append(class_image(endo, classes))
            map_of[i], keep[i] = index[endo.image], 0
    warnings: list[str] = []
    if len(map_of) + len(sink) < len(maps):
        warnings.append("identity twist normalized to untwisted links")

    n_cls, sizes = classes.n_classes, classes.sizes
    chars = SiteCharacters.of(site_chars)
    if len(chars) != V:
        raise BadParams(f"{len(chars)} site characters for {V} sites")
    lone = None  # the virtual site of a lattice kept as its shape, if left no link
    if sink or map_of:  # only a twist that moves or removes links reads them
        removed = sorted(sink | map_of.keys())
        shaped = L._shape_ends(removed)
        if sink:  # the sink site V: its regular character on a copy
            chars = chars.extended(ClassFunction(G, (Cyclotomic.rational(G.order),)
                                                 + (Cyclotomic.zero(),) * (n_cls - 1)))
        if shaped is None:  # V as every sink head, and union-find over the links kept
            tails, heads = L.tails, L.heads
            ends = {i: (tails[i], heads[i]) for i in removed}
            hs = map({i: V for i in sink}.get, range(E), heads) if sink else heads
            untwisted = compress(zip(tails, hs), keep) if map_of else zip(tails, hs)  # mapped out
            labels, roots = component_labels(len(chars), untwisted)
        else:  # only wraparound and dangling links gone: the open grid joins every
            # physical site, and the sink site with them
            (ends, lone), labels, roots = shaped, [0] * len(chars), [0]
        warnings += [f"twisted link {i} is a self-loop" for i, (t, h) in ends.items() if t == h]
    else:
        labels, roots = L.components
    # sites per (component, character object) in first-seen order; a lone
    # component holds every site, and every link leads out of it
    if len(roots) == 1:
        counts = {id(ch): m for ch, m in chars.tally}
        tally, out_links = {}, [E]
        if lone is not None:  # but the virtual site alone: component 1, with no link out
            counts[id(chars[lone])] -= 1
            labels[lone], tally[1, id(chars[lone])], out_links = 1, 1, [E, 0]
            roots.append(lone)
        tally.update(((0, key), m) for key, m in counts.items() if m)
    else:
        tally = Counter(zip(labels, map(id, chars)))
        out_links = Counter(map(labels.__getitem__, L.tails))
    # same maps the id of each distinct object, in first-seen order, to the
    # first equal character, so each value is raised once
    by_value: dict[tuple, ClassFunction] = {}
    same: dict[int, ClassFunction] = {}
    for ch, _ in chars.tally:
        if not same_group(ch.group, G):
            raise GroupMismatch("site character lives over a different group")
        same[id(ch)] = by_value.setdefault(tuple(map(_exact, ch.values)), ch)

    multiplicity = [defaultdict(int) for _ in roots]  # id of first equal character -> sites
    for (k, key), m in tally.items():
        multiplicity[k][id(same[key])] += m
    into: dict[int, set[tuple[int, int]]] = {}  # head site -> (map, tail component)
    for i, m in map_of.items():
        into.setdefault(ends[i][1], set()).add((m, labels[ends[i][0]]))
    # free: only sink links into it, if any; such a site is a component with
    # no links out, and its own root (never the sink site, which has links in)
    free = [x for k, x in enumerate(roots) if not out_links[k] and x not in into]
    free_set = set(free)

    # rational weight per component and class: (|G|/|C|)^(links out - sites),
    # times every factor that involves this component alone.  Components with
    # one exponent share one row, so no row is changed in place: the fold
    # below gives a component a fresh row.  A row holds one integer power per
    # distinct class size, a Fraction only for a negative exponent
    exponents = [out_links[k] - sum(mult.values()) for k, mult in enumerate(multiplicity)]
    power = {(s, e): _int_pow(G.order // s, abs(e)) for s in set(sizes) for e in set(exponents)}
    row_of = {e: [power[s, e] if e >= 0 else Fraction(1, power[s, e]) for s in sizes]
              for e in set(exponents)}
    weight = [row_of[e] for e in exponents]
    # one 0/1 factor per twisted head, over its component and its tails'
    # components: head class C admits exactly the tail class cmaps[m][C] under
    # map m; equal factors are kept once, in first-seen order
    factors: list[tuple[tuple[int, ...], dict]] = []
    for head, pairs in dict.fromkeys((labels[x], frozenset(pairs)) for x, pairs in into.items()):
        scope = tuple(sorted({head} | {k for _, k in pairs}))
        table = {}
        for c in range(n_cls):
            at = {head: c}
            if all(at.setdefault(k, cmaps[m][c]) == cmaps[m][c] for m, k in pairs):
                table[tuple(at[v] for v in scope)] = 1
        if len(scope) == 1:
            weight[scope[0]] = [w * table.get((c,), 0) for c, w in enumerate(weight[scope[0]])]
        else:
            factors.append((scope, table))

    zero = Cyclotomic.zero()
    # class d = C^j of an earlier class c: a potential at d is sigma_j of the one at c
    # when every distinct character has at d exactly the tuple of sigma_j of its value
    # at c, and the rational weights agree (|C^j| = |C|, and class maps commute with powers)
    sigma_of = {d: (c, j) for d, (c, j) in classes._power_orbits.items()
                if all(gcd(j, ch.values[c].order) == 1
                       and _exact(ch.values[c].galois(j)) == exact[d]
                       for exact, ch in by_value.items())}

    def potentials(k: int) -> list[Cyclotomic]:
        """Component k's potential at each class, in class order."""
        out: list[Cyclotomic] = []
        for c, w in enumerate(weight[k]):
            src, j = sigma_of.get(c, (c, 1))
            if w == 0:
                out.append(zero)
            elif src != c and weight[k][src] == w:
                out.append(out[src].galois(j))
            else:
                term = Cyclotomic.rational(w)
                for i, m in multiplicity[k].items():
                    term = term * same[i].values[c] ** m
                out.append(term)
        return out

    # sum out every constrained component but the root, fewest neighbours first
    root = next((labels[x] for x in range(V) if x not in free_set), None)
    rest = set(range(len(roots))) - {labels[x] for x in free} - {root}
    nbrs: dict[int, set[int]] = {}  # component -> itself and its factor neighbours
    for s, _ in factors:
        for v in s:
            nbrs.setdefault(v, set()).update(s)
    while rest:
        k = min(rest, key=lambda j: (len(nbrs.get(j, ())), j))
        rest.remove(k)
        bucket = [f for f in factors if k in f[0]]
        factors = [f for f in factors if k not in f[0]]
        scope = tuple(sorted({v for s, _ in bucket for v in s} - {k}))
        # join the nonzero table entries: one row per consistent assignment
        # of classes to the components bound so far (pos: component -> column)
        pos = {k: 0}
        rows = [((c,), p) for c, p in enumerate(potentials(k)) if not p.is_zero()]
        for s, t in bucket:
            index: dict[tuple, list] = {}
            for key, val in t.items():
                index.setdefault(tuple(c for v, c in zip(s, key) if v in pos), []).append(
                    (tuple(c for v, c in zip(s, key) if v not in pos), val))
            on = [pos[v] for v in s if v in pos]
            rows = [(at + ext, term * val) for at, term in rows
                    for ext, val in index.get(tuple(at[j] for j in on), ())]
            for v in s:
                pos.setdefault(v, len(pos))
        table: dict[tuple, Cyclotomic] = {}
        for at, term in rows:
            key = tuple(at[pos[v]] for v in scope)
            table[key] = table.get(key, zero) + term
        for v in scope:
            nbrs[v] = (nbrs[v] | nbrs[k]) - {k}
        factors.append((scope, {key: t for key, t in table.items() if not t.is_zero()}))

    # class-independent factor: a free site's mean character sums its potentials,
    # which depend on its character alone, so each distinct one is summed once
    means: dict[int, Cyclotomic] = {}
    free_factor = Cyclotomic.one()
    for x in free:
        i = id(same[id(chars[x])])
        if i not in means:
            means[i] = sum(potentials(labels[x]), zero)
        free_factor = free_factor * means[i]

    per_class: list[Cyclotomic] = []
    for c, term in enumerate(potentials(root) if root is not None else [zero] * n_cls):
        for s, t in factors:
            term = term * t.get((c,) * len(s), 0)
        per_class.append(term)

    total_cyc = sum(per_class, zero)
    # nothing but free sites (or the empty lattice): only their factor remains
    total_cyc = free_factor * total_cyc if root is not None else free_factor

    rational = total_cyc.is_rational()
    denom = total_cyc.rational_value().denominator if rational else 0
    nonneg = rational and total_cyc.rational_value() >= 0
    witness = IntegralityWitness(total_cyc.order, rational, denom, nonneg)
    if not (rational and denom == 1) or (require_nonnegative and not nonneg):
        raise NonIntegralResult(
            f"class sum is not a nonnegative integer: ring order {witness.ring_order}, "
            f"rational={witness.is_rational}, denominator={witness.denominator}, "
            f"nonnegative={witness.nonnegative}")
    total = int(total_cyc.rational_value())

    # alpha(C): whether every non-constant map keeps C in place
    alpha = tuple(int(all(cmap[c] == c for cmap in cmaps))
                  for c in range(n_cls)) if cmaps else None

    return CountReport(
        total=total,
        group_name=G.name,
        lattice_name=L.name,
        site_count=V,
        edge_count=E,
        bulk_site_count=V - len(free),
        free_sites=tuple(free),
        twist_kind="proper" if cmaps else "sink" if sink else "none",
        twisted_head_count=len(into),
        class_sizes=classes.sizes,
        per_class=tuple(per_class),
        alpha=alpha,
        free_factor=free_factor,
        witness=witness,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# entry points

@frozen
class ParitySplit:
    """Dimensions of the even and odd fermion-parity sectors."""

    dim_even: int
    dim_odd: int
    trace_plain: int
    trace_weighted: int


def count_fermion_parity_split(G: FiniteGroup, L: LatticeGraph,
                               matter: FermionMatter,
                               twist: Optional[TwistSpec] = None,
                               classes: Optional[ConjugacyClassTable] = None) -> ParitySplit:
    cls = classes or conjugacy_classes(G)
    t_plus = count(G, L, matter, twist=twist, classes=cls, parity_sign=1).total
    t_minus = count(G, L, matter, twist=twist, classes=cls, parity_sign=-1).total
    if (t_plus + t_minus) % 2 or (t_plus - t_minus) % 2 or t_plus < abs(t_minus):
        raise NonIntegralResult(
            f"parity split is not a pair of nonnegative integers: "
            f"traces {t_plus}, {t_minus}")
    return ParitySplit((t_plus + t_minus) // 2, (t_plus - t_minus) // 2,
                       t_plus, t_minus)


def count(G: FiniteGroup, L: LatticeGraph, matter: MatterSpec,
          twist: Optional[TwistSpec] = None,
          dangling_attach: Optional[Sequence[int]] = None,
          classes: Optional[ConjugacyClassTable] = None,
          parity_sign: int = 1,
          site_chars: Optional[Sequence[ClassFunction]] = None) -> CountReport:
    """Count for any matter specification.

    dangling_attach extends the lattice by one unconstrained virtual site fed
    by sink links (links under the constant map) from the listed sites; they
    join the maps of `twist`, whose link indices refer to L.  Matter always
    lives on the physical sites only.  parity_sign=-1 weights fermion modes
    by parity, giving a signed trace.  site_chars: the physical sites'
    `site_characters`, when already built.
    """
    if parity_sign not in (1, -1):
        raise BadParams(f"parity_sign must be +1 or -1, got {parity_sign}")
    cls = classes or conjugacy_classes(G)
    n_phys = L.site_count
    if dangling_attach is not None:
        L, twist = dangling_boundary_extension(L, tuple(dangling_attach), G, twist)
    chars = SiteCharacters.of(site_characters(matter, cls, n_phys, sign=parity_sign)
                              if site_chars is None else site_chars)
    if len(chars) != n_phys:
        raise BadParams(f"{len(chars)} site characters for {n_phys} sites")
    if L.site_count > n_phys:  # the virtual site's trivial character, on a copy
        chars = chars.extended(constant_class_function(cls, 1))
    return count_general(G, cls, L, chars, twist=twist,
                         require_nonnegative=(parity_sign == 1))


# ---------------------------------------------------------------------------
# cyclic-group closed forms

def zn_site_characters(N: int, charges: Sequence[int],
                       classes: ConjugacyClassTable) -> list[ClassFunction]:
    """Background charge characters chi_x(k) = omega^(q_x k) for Z_N."""
    G = classes.group
    return [one_dim_class_values(zn_charge_rep(G, q % N), classes) for q in charges]


def count_zn_closed_form(N: int, charges: Sequence[int], L: LatticeGraph,
                         boundary: str = "periodic") -> int:
    """Closed-form count for Z_N gauge theory with background charges.

    boundary = "periodic": untwisted; the count is N^(E-V+1) when the total
    charge vanishes mod N and zero otherwise.  boundary = "dangling": the
    lattice must already carry the virtual site as its last site (as built by
    the dangling extension), with sink links included in E; the Gauss
    constraint disappears and the count is N^(E-V+1) for every total charge,
    the physical site count being V-1.  boundary = "cperiodic":
    charge-conjugation (inversion) twisted wraps; odd N keeps only the zero
    class, even N also the half-period class, giving N^(E-V) and
    N^(E-V)(1+(-1)^Q) respectively.
    """
    if N < 1:
        raise BadParams(f"cyclic order must be positive, got {N}")
    V, E = L.site_count, L.edge_count
    Q = sum(charges)
    if boundary == "periodic":
        if len(charges) != V:
            raise BadParams(f"{len(charges)} charges for {V} sites")
        return N ** (E - V + 1) if Q % N == 0 else 0
    if boundary == "dangling":
        if V < 2:
            raise BadParams("dangling closed form needs the extended lattice")
        if len(charges) != V - 1:
            raise BadParams(f"{len(charges)} charges for {V - 1} physical sites")
        return N ** (E - (V - 1))
    if boundary == "cperiodic":
        if len(charges) != V:
            raise BadParams(f"{len(charges)} charges for {V} sites")
        if N % 2 == 1:
            return N ** (E - V)
        return N ** (E - V) * (1 + (-1) ** (Q % 2))
    raise BadParams(f"unknown boundary kind {boundary!r}")
