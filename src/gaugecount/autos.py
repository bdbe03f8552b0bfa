"""Endomorphisms and automorphisms of finite groups.

Multiplicativity is checked by `groups.law_break` on every (element,
generator) pair, which forces it everywhere; `is_endomorphism` goes
through it.  The automorphism search is the generator-image method
(Holt, Eick & O'Brien, Handbook of Computational Group Theory): it tries
images of the group's stored generators, filtered by element order
and by centralizer size from the class table, and rejects a candidate that
changes the order of a product of two generators.  Conjugating every image
by one element maps automorphisms onto automorphisms, so each remaining
candidate is decided once per inner orbit: its key is its images conjugated
by the first element that sends its first image to that image's class
representative.  A key's map is built along the generator tree by table
lookups and checked on the left, f(s*x) = f(s)*f(x) for every x and
generator s at once, as the permutation equation f o row_s == row_f(s) o f
on the table's rows; no transposed table is made.  The search hands each
automorphism to its caller: `enumerate_automorphisms` collects and sorts
them, `analyze_automorphisms` keeps only what it reports.  The search
budget caps the weighted work; an exhausted budget marks the result
incomplete rather than raising.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

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
    compose_maps,
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


def _search(G: FiniteGroup, classes: ConjugacyClassTable, budget: int,
            visit: Callable[[tuple[int, ...]], object]) -> tuple[bool, int]:
    """Hand each automorphism's image table to `visit`; return (complete, work).

    Each candidate assigns every generator an element of the same order and
    centralizer size, and costs `leaf_cost` work whether or not it is
    rejected.  The candidates of one inner orbit share the decision on its
    key, whose first image is a class representative; a key is kept when
    its map is multiplicative, f o row_s == row_t o f for every generator s
    and its image t, and bijective.
    """
    n, gens, t = G.order, G.generators, G.mul_table
    if not gens:  # trivial group
        visit((G.identity,))
        return True, 1
    orders = [G.element_order(x) for x in range(n)]
    cents = [classes.centralizer_sizes[c] for c in classes.class_of]
    candidates = [
        tuple(x for x in range(n) if orders[x] == orders[g] and cents[x] == cents[g])
        for g in gens
    ]
    pairs = [(a, b, orders[t[gens[a]][gens[b]]])
             for a in range(len(gens)) for b in range(a + 1, len(gens))]
    left = [itemgetter(*t[s]) for s in gens]  # f -> f o row_s
    leaf_cost = n * (len(gens) + 1)

    def decide(images):
        f = [G.identity] * n
        for y, x, i in G.generator_tree:
            f[y] = t[f[x]][images[i]]
        # at x = identity this also checks f(s) == image for a generator s
        # that is repeated or the identity, which the tree never steps by
        after_f = itemgetter(*f)  # m -> m o f
        if all(lf(f) == after_f(t[img]) for lf, img in zip(left, images)) \
                and len(set(f)) == n:
            return tuple(f)
        return None

    # a key is looked up again only when the budget reaches the block of
    # candidates of a second first image in its class: only such keys are kept
    reach = -(-max(budget // leaf_cost, 0) // math.prod(map(len, candidates[1:])))
    seen = Counter(classes.class_of[a] for a in candidates[0][:reach])
    reused = {c for c, m in seen.items() if m > 1}
    decided = {}  # key -> its map, or None when it is no automorphism
    work = 0
    first = rep = None
    for images in itertools.product(*candidates):
        if work + leaf_cost > budget:
            return False, work
        work += leaf_cost
        if any(orders[t[images[a]][images[b]]] != k for a, b, k in pairs):
            continue
        if images[0] != first:  # a conjugator only for first images the budget reaches
            first = images[0]
            rep = classes.reps[classes.class_of[first]]
            if first != rep:
                h = next(h for h in range(n) if t[t[h][first]][G.inv_table[h]] == rep)
                hinv = G.inv_table[h]
                undo = tuple(t[t[hinv][x]][h] for x in range(n))  # x -> h^-1 x h
        if first == rep:
            f = decide(images)
            if classes.class_of[rep] in reused:
                decided[images] = f
        else:
            f = decided[tuple(t[t[h][x]][hinv] for x in images)]
            if f is not None:
                f = compose_maps(undo, f)
        if f is not None:
            visit(f)
    return True, work


def enumerate_automorphisms(G: FiniteGroup,
                            budget: int = DEFAULT_AUT_BUDGET) -> AutomorphismSearch:
    """All automorphisms (deterministic order); incomplete when budget runs out."""
    found: list[tuple[int, ...]] = []
    complete, work = _search(G, conjugacy_classes(G), budget, found.append)
    found.sort()
    return AutomorphismSearch(tuple(GroupEndomorphism(G, m) for m in found),
                              complete, work)


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
    finding one.  The witness is the smallest class-inverting image table.
    """
    if not same_group(G, classes.group):
        raise GroupMismatch("group and class table disagree")
    identity = tuple(range(G.order))
    count, witness, conjugations = 0, None, []

    def visit(f):
        nonlocal count, witness
        count += 1
        # the search yields only automorphisms of G, so no bijectivity check
        if compose_maps(classes.class_of, compose_maps(f, classes.reps)) \
                == classes.inverse_class:
            witness = f if witness is None else min(witness, f)
            if compose_maps(f, f) == identity:
                conjugations.append(f)

    complete, _ = _search(G, classes, budget, visit)
    conjugations.sort()
    inner = G.order // classes.sizes.count(1)  # the centre: the one-element classes
    return AutReport(
        group_name=G.name,
        aut_order=count,
        inner_order=inner,
        outer_order=(count // inner if complete else 0),
        ambivalent=is_ambivalent(classes),
        quasi_ambivalent=True if conjugations else (False if complete else None),
        class_inverting_witness=witness and GroupEndomorphism(G, witness),
        charge_conjugations=tuple(GroupEndomorphism(G, m) for m in conjugations),
        complete=complete,
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
