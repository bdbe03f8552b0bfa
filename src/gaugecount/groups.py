"""Finite groups as explicit multiplication tables.

Element 0 is the identity for every group constructed here; groups loaded
from files may place the identity elsewhere and record it in `identity`.
Every group carries a verified generating set, and every group law is
checked by `law_break` over it: exhaustively, in O(|G| * |generators|)
steps; for associativity this is Light's test (Clifford & Preston, The
Algebraic Theory of Semigroups I, section 1.2).  A table passes when its
rows are permutations, it has a two-sided identity, and Light's test holds:
each row holds the identity, and right inverses in a monoid are two-sided.
Only the identity's column check refuses x*y = y, which passes the rest.
Conjugacy classes are ordered with the identity class first and the rest
ascending by their smallest element index, so all derived tables are
deterministic.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import getitem, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from ._values import field, frozen
from .cyclo import Cyclotomic, mat_mul_exact
from .errors import (
    BadParams,
    ClosureOverflow,
    NotAGroup,
    NotASubgroup,
    ParseError,
    UnknownFamily,
)
from .textio import end_line, read_ints, read_records, write_records


@frozen
class FiniteGroup:
    """A finite group given by its full multiplication table; `generators` generate it."""

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    inv_table: tuple[int, ...]
    identity: int
    labels: tuple[str, ...]
    generators: tuple[int, ...]
    name: str = "G"
    # the exact matrix of each element, for groups closed from matrices
    # (the SU(2) matrices of Q8, 2T, 2O and 2I)
    matrices: Optional[tuple] = field(default=None, compare=False)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conj(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mul_table[self.mul_table[h][g]][self.inv_table[h]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul_table[x][a]
            k += 1
        return k

    def exponent(self) -> int:
        return lcm(*(self.element_order(a) for a in range(self.order)))

    def is_abelian(self) -> bool:
        t = self.mul_table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    @functools.cached_property
    def generator_tree(self) -> list[tuple[int, int, int]]:
        """Steps (y, x, i) with y = x * generators[i]: a breadth-first tree
        from the identity that reaches every other element once."""
        return _spanning_steps(self.mul_table, self.identity, self.generators)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or (a.order == b.order and a.mul_table == b.mul_table)


# ---------------------------------------------------------------------------
# the group-law check over generators

def law_break(G: FiniteGroup, f: Sequence, op: Callable) -> Optional[tuple[int, int]]:
    """First (x, s) with f[x*s] != op(f[x], f[s]), or None when there is none.

    s runs over G.generators, x over all of G.  The s that pass for every x
    are closed under products, and the generators generate G, so this
    accepts exactly the maps that pass on all pairs: for an associative op
    that is multiplicativity, and for f = the table's rows under
    `compose_maps` it is Light's associativity test.  The identity needs no
    pass of its own, being a power of any generator; a group without
    generators is trivial, and s runs over its identity alone.
    """
    t = G.mul_table
    for s in G.generators or (G.identity,):
        fs = f[s]
        for x in range(G.order):
            if f[t[x][s]] != op(f[x], fs):
                return x, s
    return None


def compose_maps(p: Sequence, q: Sequence[int]) -> tuple:
    """The map y -> p[q[y]], as a tuple."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[y] for y in q)


def extend_generator_images(G: FiniteGroup, images: Sequence, op: Callable,
                            one) -> Optional[list]:
    """The map f with f[identity] = one, f[g] = image of each generator g and
    f[x*s] = op(f[x], f[s]), or None when the images admit no such map.

    Built along `G.generator_tree` and checked by `law_break`; `one` must be
    an identity for op.
    """
    f = [one] * G.order
    for y, x, i in G.generator_tree:
        f[y] = op(f[x], images[i])
    # a generator repeated or equal to the identity is reached before its image is used
    if any(f[g] != img for g, img in zip(G.generators, images)):
        return None
    return f if law_break(G, f, op) is None else None


# ---------------------------------------------------------------------------
# validation

def _find_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            return e
    raise NotAGroup("no identity element")


def _spanning_steps(table: Sequence[Sequence[int]], e: int,
                    gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """Breadth-first search from e by right multiplication with gens: one step
    (y, x, i) with y = x * gens[i] for each element reached after e."""
    steps = []
    seen = {e}
    queue = [e]
    for x in queue:
        row = table[x]
        for i, g in enumerate(gens):
            y = row[g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
                steps.append((y, x, i))
    return steps


def _greedy_generating_set(table: Sequence[Sequence[int]], e: int) -> tuple[int, ...]:
    """Add the first element outside the generated subgroup until none is left."""
    gens: list[int] = []
    reached = {e}
    while len(reached) < len(table):
        gens.append(next(x for x in range(len(table)) if x not in reached))
        reached = {e}.union(y for y, _, _ in _spanning_steps(table, e, gens))
    return tuple(gens)


def group_from_table(
    table: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    generators: Sequence[int] = (),
    name: str = "G",
) -> FiniteGroup:
    """Check the group axioms and wrap the table as a FiniteGroup.

    Given generators must generate the group (BadParams otherwise); with
    none, a greedy generating set is chosen.  Every row must be a permutation
    of 0..n-1 with int entries, so lookups stay in range and each row holds
    the identity, which gives every element a right inverse.  A two-sided
    identity and Light's test over the generators (associativity on every
    triple) then make the table a group, whose right inverses are two-sided
    and whose table is a Latin square: its columns need no check.
    """
    if not table:
        raise NotAGroup("empty table")
    table = tuple(tuple(row) for row in table)
    n = len(table)
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if set(map(type, row)) != {int}:
            raise NotAGroup(f"row {i} has an entry that is not an int")
        if frozenset(row) != full:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    e = _find_identity(table)
    inv = tuple(row.index(e) for row in table)
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    elif len(labels) != n:
        raise BadParams(f"{len(labels)} labels for {n} elements")
    gens = tuple(generators) or _greedy_generating_set(table, e)
    G = FiniteGroup(n, table, inv, e, tuple(labels), gens, name)
    if any(not 0 <= g < n for g in gens) or len(G.generator_tree) != n - 1:
        raise BadParams(f"generators {gens} do not generate the group")
    bad = law_break(G, table, compose_maps)
    if bad is not None:
        a, b = bad
        c = next(c for c in range(n) if table[table[a][b]][c] != table[a][table[b][c]])
        raise NotAGroup(f"associativity fails at ({a}, {b}, {c})")
    return G


# ---------------------------------------------------------------------------
# generic closure construction

def _generated_elements(gens: Sequence, mul: Callable, max_order: int, key: Callable):
    """BFS closure with the identity first: (elems, index, parent links,
    gen_cols), where index maps key(x) to the index of x and gen_cols[gi][x]
    is the index of elems[x] * gens[gi]."""
    g0 = gens[0]
    k0 = key(g0)
    prev, cur = g0, mul(g0, g0)
    steps = 1
    while key(cur) != k0:
        prev, cur = cur, mul(cur, g0)
        steps += 1
        if steps > max_order:
            raise ClosureOverflow(f"generator order exceeds max_order={max_order}")
    ident = prev  # g^ord(g) just before the power walk revisits g
    elems = [ident]
    index = {key(ident): 0}
    parent: list[tuple[int, int]] = [(-1, -1)]
    gen_cols: list[list[int]] = [[] for _ in gens]
    head = 0
    while head < len(elems):
        x = elems[head]
        for gi, g in enumerate(gens):
            y = mul(x, g)
            k = key(y)
            if k not in index:
                if len(elems) >= max_order:
                    raise ClosureOverflow(f"closure exceeds max_order={max_order}")
                index[k] = len(elems)
                elems.append(y)
                parent.append((head, gi))
            gen_cols[gi].append(index[k])
        head += 1
    return elems, index, parent, gen_cols


def build_from_generators(
    gens: Sequence,
    mul: Callable,
    max_order: int = 10_000,
    labeler: Callable = str,
    name: str = "G",
) -> FiniteGroup:
    """Close abstract generators under multiplication and index the result.

    Elements must be hashable with exact equality.  An empty generator list
    yields the trivial group.  Raises ClosureOverflow past max_order.
    """
    grp, _ = _build_from_generators(gens, mul, max_order, labeler, name)
    return grp


def _build_from_generators(gens, mul, max_order, labeler, name, key=lambda x: x):
    """The group and its elements in index order; key(x) is x's exact, hashable form."""
    if not gens:
        return trivial_group(), [None]
    elems, index, parent, gen_cols = _generated_elements(gens, mul, max_order, key)
    gen_idx = tuple(index[key(g)] for g in gens)
    # parents precede their children, and y = p * s gives g*y = (g*p)*s for
    # each generator g, then y*z = p*(s*z) for every row
    gen_rows = [[g] for g in gen_idx]
    for p, si in parent[1:]:
        for row in gen_rows:
            row.append(gen_cols[si][row[p]])
    rows = [tuple(range(len(elems)))]
    for p, si in parent[1:]:
        rows.append(compose_maps(rows[p], gen_rows[si]))
    labels = tuple(labeler(x) for x in elems)
    return group_from_table(rows, labels, gen_idx, name), elems


# ---------------------------------------------------------------------------
# built-in families

def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), (0,), 0, ("e",), (), "Z1")


@functools.lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    if n < 1 or n > 1024:
        raise BadParams(f"cyclic order {n} out of range 1..1024")
    if n == 1:
        return trivial_group()
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    labels = ("e",) + tuple(f"g^{k}" if k > 1 else "g" for k in range(1, n))
    return FiniteGroup(n, table, inv, 0, labels, (1,), f"Z{n}")


@functools.lru_cache(maxsize=None)
def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are r^a, n..2n-1 are s r^a."""
    if n < 1 or n > 512:
        raise BadParams(f"dihedral parameter {n} out of range 1..512")

    def mul(p: int, q: int) -> int:
        f1, a1 = divmod(p, n)
        f2, a2 = divmod(q, n)
        # (s^f1 r^a1)(s^f2 r^a2) = s^(f1+f2) r^(a2-a1 if f2 else a1+a2)
        a = (a2 - a1) % n if f2 else (a1 + a2) % n
        return ((f1 + f2) % 2) * n + a

    table = tuple(tuple(mul(p, q) for q in range(2 * n)) for p in range(2 * n))

    def label(p):
        f, a = divmod(p, n)
        r = "e" if a == 0 else ("r" if a == 1 else f"r^{a}")
        return r if not f else ("s" if a == 0 else f"s*{r}")

    labels = tuple(label(p) for p in range(2 * n))
    gens = (1, n) if n >= 2 else (n,)
    return group_from_table(table, labels, gens, f"D{n}")


@functools.lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    if n < 1 or n > 6:
        raise BadParams(f"symmetric parameter {n} out of range 1..6")
    if n == 1:
        return trivial_group()

    def mul(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    def label(p):
        seen, cycles = set(), []
        for s in range(n):
            if s in seen or p[s] == s:
                seen.add(s)
                continue
            cyc, x = [], s
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = p[x]
            cycles.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(cycles) if cycles else "e"

    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    gens = [transposition, cycle] if n > 2 else [transposition]
    import math
    return build_from_generators(gens, mul, max_order=math.factorial(n),
                                 labeler=label, name=f"S{n}")


def _su2(w, x, y, z) -> tuple:
    """The SU(2) matrix [[w+ix, y+iz], [-y+iz, w-ix]] of the unit quaternion w+xi+yj+zk."""
    i = Cyclotomic.root_of_unity(4)
    return ((w + i * x, y + i * z), (-y + i * z, w - i * x))


_HALF = Fraction(1, 2)
_OMEGA = _su2(_HALF, _HALF, _HALF, _HALF)  # (1+i+j+k)/2
_I = _su2(0, 1, 0, 0)


@functools.lru_cache(maxsize=None)
def quaternion_group() -> FiniteGroup:
    return _su2_closure([_I, _su2(0, 0, 1, 0)], 8, 4, "Q8")


@functools.lru_cache(maxsize=None)
def binary_tetrahedral_group() -> FiniteGroup:
    return _su2_closure([_OMEGA, _I], 24, 4, "2T")


@functools.lru_cache(maxsize=None)
def binary_octahedral_group() -> FiniteGroup:
    hr2 = (Cyclotomic.root_of_unity(8) - Cyclotomic.root_of_unity(8, 3)) * _HALF  # sqrt2/2
    return _su2_closure([_OMEGA, _su2(hr2, hr2, 0, 0)], 48, 8, "2O")  # (1+i)/sqrt2


@functools.lru_cache(maxsize=None)
def binary_icosahedral_group() -> FiniteGroup:
    # t = (phi + i/phi + j)/2 with phi the golden ratio: 1/phi = phi - 1 = (sqrt5 - 1)/2
    h = (Cyclotomic.root_of_unity(5) + Cyclotomic.root_of_unity(5, 4)) * _HALF  # 1/(2 phi)
    return _su2_closure([_OMEGA, _su2(h + _HALF, h, _HALF, 0)], 120, 20, "2I")


def _su2_closure(gens: list, expected_order: int, n: int, name: str) -> FiniteGroup:
    """The group the SU(2) matrices gens generate, their entries in Q(zeta_n).
    An element is keyed by its entries' numerators at order n and their
    denominators, and labelled by its first row, which fixes an SU(2) matrix."""
    def key(m):
        return tuple((v._to_order(n), v.den) for row in m for v in row)

    grp, elems = _build_from_generators(gens, mat_mul_exact, expected_order,
                                        lambda m: str(m[0]), name, key)
    if grp.order != expected_order:
        raise NotAGroup(f"{name} closed at order {grp.order}, expected {expected_order}")
    return FiniteGroup(grp.order, grp.mul_table, grp.inv_table, grp.identity, grp.labels,
                       grp.generators, name, tuple(elems))


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    n = A.order * B.order
    if n > 4096:
        raise BadParams(f"product order {n} exceeds 4096")
    nb = B.order

    def enc(a, b):
        return a * nb + b

    table = tuple(
        tuple(enc(A.mul_table[a1][a2], B.mul_table[b1][b2])
              for a2 in range(A.order) for b2 in range(nb))
        for a1 in range(A.order) for b1 in range(nb)
    )
    inv = tuple(enc(A.inv_table[a], B.inv_table[b])
                for a in range(A.order) for b in range(nb))
    labels = tuple(f"({A.labels[a]},{B.labels[b]})"
                   for a in range(A.order) for b in range(nb))
    gens = tuple(enc(g, B.identity) for g in A.generators) + \
        tuple(enc(A.identity, g) for g in B.generators)
    e = enc(A.identity, B.identity)
    return FiniteGroup(n, table, inv, e, labels, gens, f"{A.name}x{B.name}")


_FAMILIES = {
    "trivial": (trivial_group, 0),
    "cyclic": (cyclic_group, 1),
    "dihedral": (dihedral_group, 1),
    "symmetric": (symmetric_group, 1),
    "quaternion": (quaternion_group, 0),
    "binary_tetrahedral": (binary_tetrahedral_group, 0),
    "binary_octahedral": (binary_octahedral_group, 0),
    "binary_icosahedral": (binary_icosahedral_group, 0),
}


def builtin_group(family: str, params: Sequence[int] = ()) -> FiniteGroup:
    """Construct a named built-in group, e.g. builtin_group("cyclic", [4])."""
    if family == "direct_product":
        raise BadParams("build factors separately and call direct_product")
    if family not in _FAMILIES:
        raise UnknownFamily(f"unknown group family {family!r}")
    ctor, arity = _FAMILIES[family]
    params = list(params)
    if len(params) != arity:
        raise BadParams(f"{family} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)


# ---------------------------------------------------------------------------
# orbit partitions: conjugacy classes and cosets

def orbit_partition(n: int, scan: Iterable[int], orbit: Callable[[int], Iterable[int]]
                    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The orbits of 0..n-1, each sorted, in the order of their first scanned
    point, and the orbit index of every point (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, section 4.1)."""
    index = [-1] * n
    blocks: list[tuple[int, ...]] = []
    for x in scan:
        if index[x] < 0:
            block = tuple(sorted(set(orbit(x))))
            for y in block:
                index[y] = len(blocks)
            blocks.append(block)
    return tuple(blocks), tuple(index)


@frozen
class ConjugacyClassTable:
    """Conjugacy classes, identity class first; `class_members[c]` stores the
    sorted members of class c as the class walk found them."""

    group: FiniteGroup
    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    centralizer_sizes: tuple[int, ...]
    class_members: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    @functools.cached_property
    def _power_orbits(self) -> dict[int, tuple[int, int]]:
        """Class d -> (c, j) with d the class of r^j, j prime to the order of r, for r
        the representative of c, the lowest-numbered class of d's orbit under C -> C^j;
        each orbit's first class is left out, and its powers are walked once."""
        orbits: dict[int, tuple[int, int]] = {}
        for c, r in enumerate(self.reps):
            powers = [r]  # r^1 .. r^order, unless c is in an earlier orbit
            while c not in orbits and powers[-1] != self.group.identity:
                powers.append(self.group.mul_table[powers[-1]][r])
            for j in range(2, len(powers)):
                if gcd(j, len(powers)) == 1 and self.class_of[powers[j - 1]] != c:
                    orbits.setdefault(self.class_of[powers[j - 1]], (c, j))
        return orbits


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassTable:
    n, t = G.order, G.mul_table

    def conjugates(g: int) -> Iterable[int]:  # h g h^-1 for every h
        return map(getitem, compose_maps(t, [row[g] for row in t]), G.inv_table)

    scan = [G.identity] + [g for g in range(n) if g != G.identity]
    members, class_of = orbit_partition(n, scan, conjugates)
    reps, sizes = tuple(m[0] for m in members), tuple(map(len, members))
    return ConjugacyClassTable(G, class_of, reps, sizes, tuple(class_of[G.inv(r)] for r in reps),
                               tuple(n // s for s in sizes), members)


def centralizer_order(G: FiniteGroup, g: int) -> int:
    """|C_G(g)| by direct enumeration."""
    return sum(1 for h in range(G.order) if G.mul(h, g) == G.mul(g, h))


# ---------------------------------------------------------------------------
# subgroups and cosets

@frozen
class SubgroupHandle:
    parent: FiniteGroup
    member_mask: tuple[bool, ...]
    order: int

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.member_mask) if m)

    def __contains__(self, g: int) -> bool:
        return self.member_mask[g]


def subgroup_from_elements(G: FiniteGroup, elems: Iterable[int]) -> SubgroupHandle:
    members = sorted(set(elems))
    if not members:
        raise NotASubgroup("empty element set")
    mask = [False] * G.order
    for g in members:
        if not 0 <= g < G.order:
            raise NotASubgroup(f"element {g} out of range")
        mask[g] = True
    if not mask[G.identity]:
        raise NotASubgroup("identity missing")
    for a in members:
        if not mask[G.inv(a)]:
            raise NotASubgroup(f"inverse of {a} missing")
        for b in members:
            if not mask[G.mul(a, b)]:
                raise NotASubgroup(f"product {a}*{b} escapes the subset")
    return SubgroupHandle(G, tuple(mask), len(members))


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> SubgroupHandle:
    seen = {G.identity}.union(
        y for y, _, _ in _spanning_steps(G.mul_table, G.identity, list(gens)))
    mask = tuple(i in seen for i in range(G.order))
    return SubgroupHandle(G, mask, len(seen))


def center(G: FiniteGroup) -> SubgroupHandle:
    elems = [g for g in range(G.order)
             if all(G.mul(g, h) == G.mul(h, g) for h in range(G.order))]
    return subgroup_from_elements(G, elems)


def normalizer(G: FiniteGroup, H: SubgroupHandle) -> SubgroupHandle:
    if not same_group(G, H.parent):
        raise NotASubgroup("subgroup belongs to a different group")
    members = H.elements
    elems = [g for g in range(G.order)
             if all(H.member_mask[G.conj(g, h)] for h in members)]
    return subgroup_from_elements(G, elems)


@frozen
class CosetSpace:
    """Left cosets gH, ordered by smallest member; representative = smallest."""

    group: FiniteGroup
    subgroup: SubgroupHandle
    cosets: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    coset_of: tuple[int, ...]

    @property
    def n_cosets(self) -> int:
        return len(self.cosets)


def coset_space(G: FiniteGroup, H: SubgroupHandle) -> CosetSpace:
    if not same_group(G, H.parent):
        raise NotASubgroup("subgroup belongs to a different group")
    hs = H.elements
    cosets, coset_of = orbit_partition(
        G.order, range(G.order), lambda g: compose_maps(G.mul_table[g], hs))
    return CosetSpace(G, H, cosets, tuple(c[0] for c in cosets), coset_of)


def subgroup_as_group(G: FiniteGroup, H: SubgroupHandle) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as a standalone group; returns (group, embedding)."""
    if not same_group(G, H.parent):
        raise NotASubgroup("subgroup belongs to a different group")
    embed = [G.identity] + [g for g in H.elements if g != G.identity]
    pos = {g: i for i, g in enumerate(embed)}
    table = tuple(tuple(pos[G.mul(a, b)] for b in embed) for a in embed)
    labels = tuple(G.labels[g] for g in embed)
    sub = group_from_table(table, labels, name=f"{G.name}.sub{H.order}")
    return sub, tuple(embed)


def first_proper_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """Deterministic choice: first cyclic subgroup that is proper and nontrivial.

    Falls back to the trivial subgroup when none exists (e.g. prime cyclic).
    """
    for g in range(G.order):
        if g == G.identity:
            continue
        H = generated_subgroup(G, [g])
        if 1 < H.order < G.order:
            return H
    return subgroup_from_elements(G, [G.identity])


# ---------------------------------------------------------------------------
# text format: "order N", N table rows, optional "labels" section (see textio)

def group_to_text(G: FiniteGroup) -> str:
    return write_records("order", (G.order,), (*G.mul_table, ("labels",), *zip(G.labels)))


def group_from_text(text: str, name: str = "G") -> FiniteGroup:
    head, (n,), records = read_records(text, "order", 1)
    if n < 1:
        raise ParseError(f"bad order {n}", head)
    if len(records) < n:
        raise ParseError(f"expected {n} table rows", end_line(head, records))
    table = []
    for line, ln in records[:n]:
        row = read_ints(ln.split(), line, "table entry", bound=n)
        if len(row) != n:
            raise ParseError(f"row must be {n} indices", line)
        table.append(row)
    labels = None
    if records[n:]:
        line, ln = records[n]
        if ln.strip() != "labels":
            raise ParseError("expected 'labels' section", line)
        labels = [lb for _, lb in records[n + 1:]]
        if len(labels) != n:
            raise ParseError(f"expected {n} labels", line)
    return group_from_table(table, labels, name=name)
