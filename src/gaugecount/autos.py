"""Endomorphisms and automorphisms of finite groups.

Multiplicativity is checked by `groups.law_break` on every (element,
generator) pair, which forces it everywhere; `is_endomorphism` goes
through it.  The automorphism search is the generator-image method
(Holt, Eick & O'Brien, Handbook of Computational Group Theory): it tries
images of the group's stored generators, filtered by element order
and by centralizer size from the class table, rejects a candidate that
changes the order of a product of two generators, builds each remaining
map along the generator tree by table lookups, and checks f(x*s) =
f(x)*f(s) for every x and generator s at once, as the permutation
equation f o col_s == col_f(s) o f on the table's columns.  The search
budget caps the weighted work; an exhausted budget marks the result
incomplete rather than raising.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .errors import (
    BadParams,
    GroupMismatch,
    InvalidGammaSet,
    NotAHomomorphism,
    NotAnAutomorphism,
    ParseError,
)
from .groups import (
    ConjugacyClassTable,
    FiniteGroup,
    conjugacy_classes,
    law_break,
    same_group,
)
from .textio import end_line, read_ints, read_records, write_records

DEFAULT_AUT_BUDGET = 10_000_000


@dataclass(frozen=True)
class GroupEndomorphism:
    """A multiplicative self-map, stored as its full image table."""

    group: FiniteGroup
    image: tuple[int, ...]


def is_endomorphism(G: FiniteGroup, image: Sequence[int]) -> bool:
    n = G.order
    if len(image) != n or any(not 0 <= v < n for v in image):
        return False
    return law_break(G, image, G.mul) is None


def endo_from_image(G: FiniteGroup, image: Sequence[int]) -> GroupEndomorphism:
    img = tuple(image)
    if not is_endomorphism(G, img):
        raise NotAHomomorphism("image table is not multiplicative")
    return GroupEndomorphism(G, img)


def identity_endo(G: FiniteGroup) -> GroupEndomorphism:
    return GroupEndomorphism(G, tuple(range(G.order)))


def constant_identity_endo(G: FiniteGroup) -> GroupEndomorphism:
    return GroupEndomorphism(G, (G.identity,) * G.order)


def inversion_endo(G: FiniteGroup) -> GroupEndomorphism:
    """x -> x^-1; multiplicative only on abelian groups."""
    if not G.is_abelian():
        raise BadParams("inversion is not an endomorphism of a nonabelian group")
    return GroupEndomorphism(G, G.inv_table)


def inner_automorphism(G: FiniteGroup, h: int) -> GroupEndomorphism:
    if not 0 <= h < G.order:
        raise BadParams(f"element index {h} out of range")
    return GroupEndomorphism(G, tuple(G.conj(h, g) for g in range(G.order)))


def compose(outer: GroupEndomorphism, inner: GroupEndomorphism) -> GroupEndomorphism:
    if not same_group(outer.group, inner.group):
        raise GroupMismatch("endomorphisms live over different groups")
    return GroupEndomorphism(outer.group,
                             tuple(outer.image[v] for v in inner.image))


def is_automorphism(phi: GroupEndomorphism) -> bool:
    return len(set(phi.image)) == phi.group.order


def is_involutory(phi: GroupEndomorphism) -> bool:
    return all(phi.image[phi.image[g]] == g for g in range(phi.group.order))


def is_inner(phi: GroupEndomorphism) -> bool:
    G = phi.group
    return any(all(phi.image[g] == G.conj(h, g) for g in range(G.order))
               for h in range(G.order))


def is_class_inverting(phi: GroupEndomorphism, classes: ConjugacyClassTable) -> bool:
    """True when phi sends every conjugacy class to its inverse class."""
    if not is_automorphism(phi):
        raise NotAnAutomorphism("class-inverting test needs a bijective map")
    return class_image(phi, classes) == classes.inverse_class


def is_ambivalent(classes: ConjugacyClassTable) -> bool:
    return all(classes.inverse_class[c] == c for c in range(classes.n_classes))


def class_image(phi: GroupEndomorphism, classes: ConjugacyClassTable) -> tuple[int, ...]:
    """The class each class is sent into: phi(h g h^-1) = phi(h) phi(g) phi(h)^-1,
    so a class lands inside one class.  The map is a bijection exactly when
    phi is an automorphism."""
    if not same_group(phi.group, classes.group):
        raise GroupMismatch("endomorphism and class table use different groups")
    return tuple(classes.class_of[phi.image[r]] for r in classes.reps)


# ---------------------------------------------------------------------------
# automorphism enumeration

@dataclass(frozen=True)
class AutomorphismSearch:
    """Enumerated automorphisms plus a completeness flag and work counter."""

    automorphisms: tuple[GroupEndomorphism, ...]
    complete: bool
    work: int


def enumerate_automorphisms(G: FiniteGroup,
                            budget: int = DEFAULT_AUT_BUDGET) -> AutomorphismSearch:
    """All automorphisms (deterministic order); incomplete when budget runs out.

    Each candidate assigns every generator an element of the same order and
    centralizer size, and costs `leaf_cost` work whether or not it is
    rejected.  A candidate that changes the order of a product of two
    generators is rejected at once; any other is extended along
    `G.generator_tree` by table lookups and kept when it is multiplicative,
    f o col_s == col_t o f for every generator s and its image t, and
    bijective.
    """
    n = G.order
    gens = G.generators
    if not gens:  # trivial group
        return AutomorphismSearch((identity_endo(G),), True, 1)
    t = G.mul_table
    classes = conjugacy_classes(G)
    orders = [G.element_order(x) for x in range(n)]
    cents = [classes.centralizer_sizes[c] for c in classes.class_of]
    candidates = [
        tuple(x for x in range(n) if orders[x] == orders[g] and cents[x] == cents[g])
        for g in gens
    ]
    pairs = [(a, b, orders[t[gens[a]][gens[b]]])
             for a in range(len(gens)) for b in range(a + 1, len(gens))]
    cols = tuple(zip(*t))  # cols[s][x] = x * s
    right = [itemgetter(*cols[s]) for s in gens]  # f -> f o col_s
    steps = G.generator_tree
    leaf_cost = n * (len(gens) + 1)
    work = 0
    complete = True
    found: list[tuple[int, ...]] = []
    for images in itertools.product(*candidates):
        if work + leaf_cost > budget:
            complete = False
            break
        work += leaf_cost
        if any(orders[t[images[a]][images[b]]] != k for a, b, k in pairs):
            continue
        f = [G.identity] * n
        for y, x, i in steps:
            f[y] = t[f[x]][images[i]]
        # at x = identity this also checks f(s) == image for a generator s
        # that is repeated or the identity, which the tree never steps by
        after_f = itemgetter(*f)  # h -> h o f
        if all(r(f) == after_f(cols[img]) for r, img in zip(right, images)) \
                and len(set(f)) == n:
            found.append(tuple(f))
    found.sort()
    autos = tuple(GroupEndomorphism(G, m) for m in found)
    return AutomorphismSearch(autos, complete, work)


@dataclass(frozen=True)
class AutReport:
    """Structure of the automorphism group as seen by the enumeration."""

    group_name: str
    aut_order: int
    inner_order: int
    outer_order: int
    ambivalent: bool
    quasi_ambivalent: Optional[bool]
    class_inverting_witness: Optional[GroupEndomorphism]
    charge_conjugations: tuple[GroupEndomorphism, ...]
    complete: bool


def analyze_automorphisms(G: FiniteGroup,
                          classes: ConjugacyClassTable,
                          budget: int = DEFAULT_AUT_BUDGET) -> AutReport:
    """Aut/Inn/Out orders, ambivalence, and charge-conjugation candidates.

    quasi_ambivalent is True when some involutory automorphism inverts every
    class (such a map is a charge conjugation), False when the complete
    enumeration rules one out, None when the search was truncated before
    finding one.
    """
    if not same_group(G, classes.group):
        raise GroupMismatch("group and class table disagree")
    search = enumerate_automorphisms(G, budget)
    ambiv = is_ambivalent(classes)
    witness = None
    conjugations = []
    # the enumeration yields only automorphisms of G, so no bijectivity check
    for phi in search.automorphisms:
        if class_image(phi, classes) == classes.inverse_class:
            if witness is None:
                witness = phi
            if is_involutory(phi):
                conjugations.append(phi)
    if conjugations:
        quasi: Optional[bool] = True
    elif search.complete:
        quasi = False
    else:
        quasi = None
    inner = G.order // classes.sizes.count(1)  # the centre: the one-element classes
    return AutReport(
        group_name=G.name,
        aut_order=len(search.automorphisms),
        inner_order=inner,
        outer_order=(len(search.automorphisms) // inner if search.complete else 0),
        ambivalent=ambiv,
        quasi_ambivalent=quasi,
        class_inverting_witness=witness,
        charge_conjugations=tuple(conjugations),
        complete=search.complete,
    )


# ---------------------------------------------------------------------------
# Hamiltonian symmetry check

def hamiltonian_symmetry_check(tau: GroupEndomorphism,
                               classes: ConjugacyClassTable,
                               couplings: Mapping[int, Fraction | int | float]) -> bool:
    """Whether the magnetic couplings are invariant under the automorphism tau.

    `couplings` maps conjugacy-class indices to real coefficients.  A valid
    coupling set must pair each class with its inverse class at the same
    coefficient (hermiticity); violations raise InvalidGammaSet.  Returns
    True when tau permutes the coupled classes preserving coefficients.
    """
    if not same_group(tau.group, classes.group):
        raise GroupMismatch("automorphism and class table use different groups")
    if not is_automorphism(tau):
        raise NotAnAutomorphism("symmetry check needs a bijective map")
    for c, h in couplings.items():
        if not 0 <= c < classes.n_classes:
            raise InvalidGammaSet(f"class index {c} out of range")
        cinv = classes.inverse_class[c]
        if cinv not in couplings:
            raise InvalidGammaSet(f"class {c} coupled but its inverse class {cinv} is not")
        if couplings[cinv] != h:
            raise InvalidGammaSet(
                f"classes {c} and {cinv} carry different coefficients")
    cmap = class_image(tau, classes)
    for c, h in couplings.items():
        ci = cmap[c]
        if ci not in couplings or couplings[ci] != h:
            return False
    return True


# ---------------------------------------------------------------------------
# text format (line grammar in textio)

def endo_to_text(phi: GroupEndomorphism) -> str:
    return write_records("endo", (phi.group.order,), (phi.image,))


def endo_from_text(text: str, G: FiniteGroup) -> GroupEndomorphism:
    head, (order,), records = read_records(text, "endo", 1)
    if order != G.order:
        raise ParseError(f"file is for group order {order}, expected {G.order}", head)
    image: list[int] = []
    for line, ln in records:
        image += read_ints(ln.split(), line, "image entry", bound=order)
        if len(image) > order:
            raise ParseError(f"more than {order} image entries", line)
    if len(image) < order:
        raise ParseError(f"expected {order} image entries, got {len(image)}",
                         end_line(head, records))
    return endo_from_image(G, image)
