"""Matter content: group actions on finite sets, unitary representations,
and the per-site characters of each matter kind.

Character values are exact cyclotomic numbers.  Actions, one-dimensional
reps and reps from generator images are checked exactly, over the group's
generators, by `groups.law_break`.  One constructor takes exact and complex
matrices alike, keeps every matrix also as a tuple of complex numbers and
validates those to 1e-9 in plain complex arithmetic.  Every character of a
representation is one fold over one spectrum: the eigenvalues of rho(g)
are k-th roots of unity for k the order of g, and their multiplicities are
the inner products of the character restricted to <g> with the characters
of that cyclic group, read off the traces of the powers of rho(g) by one
discrete Fourier transform per maximal cyclic subgroup and each snapped
(tolerance 1e-6) to an integer.  The trace, the determinant and the Fock
trace det(1 + sign * rho) fold the exact roots into a sum or a product.
`site_characters` gives each site's class function: 1 for pure gauge,
fixed-point counts for scalars, and for fermions every flavour's Fock
trace, raised to the spinor count and dressed by the vacuum.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ._values import frozen
from .cyclo import Cyclotomic
from .errors import (
    BadParams,
    ClassInconsistency,
    GroupMismatch,
    NotAHomomorphism,
    OddSitesForStaggered,
    ParseError,
    SnapFailure,
)
from .groups import (
    ConjugacyClassTable,
    FiniteGroup,
    SubgroupHandle,
    compose_maps,
    conjugacy_classes,
    coset_space,
    direct_product,
    extend_generator_images,
    law_break,
    orbit_partition,
    same_group,
    subgroup_as_group,
)
from .textio import end_line, read_floats, read_ints, read_records, write_records

if TYPE_CHECKING:
    from .lattice import LatticeGraph

NUMERIC_TOL = 1e-9
SNAP_TOL = 1e-6
# Size caps (README, exit codes): at either one a 2-site count takes about a second
MAX_TRIVIAL_REP_ENTRIES = 2 ** 19
MAX_SITE_MODES = 2 ** 17


# ---------------------------------------------------------------------------
# class functions

@frozen
class ClassFunction:
    """One exact value per conjugacy class."""

    group: FiniteGroup
    values: tuple[Cyclotomic, ...]


def constant_class_function(classes: ConjugacyClassTable, value=1) -> ClassFunction:
    return ClassFunction(classes.group, (_as_cyclo(value),) * classes.n_classes)


# ---------------------------------------------------------------------------
# group actions on finite sets

@frozen
class GroupAction:
    """Left action of a group on {0..set_size-1} as a full lookup table."""

    group: FiniteGroup
    set_size: int
    table: tuple[tuple[int, ...], ...]  # table[g][s] = g . s

    @functools.cached_property
    def _violation(self) -> Optional[ActionViolation]:
        """validate_action(self), worked out once per action."""
        return validate_action(self)


ActionViolation = tuple[str, tuple[int, ...]]


def validate_action(A: GroupAction) -> Optional[ActionViolation]:
    """Exhaustive check of the action axioms; None when valid.  Compatibility
    is checked over the generators by `law_break`, which covers every pair."""
    G, n = A.group, A.set_size
    if len(A.table) != G.order or any(len(r) != n for r in A.table):
        return ("shape", ())
    e = G.identity
    for s in range(n):
        if A.table[e][s] != s:
            return ("identity", (s,))
    rows = tuple(tuple(r) for r in A.table)
    bad = law_break(G, rows, compose_maps)
    if bad is None:
        return None
    g1, g2 = bad
    g12 = G.mul(g1, g2)
    s = next(s for s in range(n) if rows[g1][rows[g2][s]] != rows[g12][s])
    return ("compatibility", (g1, g2, s))


def action_left_mult(G: FiniteGroup) -> GroupAction:
    """G acting on itself by left multiplication (free and transitive)."""
    return GroupAction(G, G.order, G.mul_table)


def action_coset(G: FiniteGroup, H: SubgroupHandle) -> GroupAction:
    """G acting on left cosets of H (transitive)."""
    cs = coset_space(G, H)
    table = tuple(compose_maps(cs.coset_of, compose_maps(row, cs.reps))
                  for row in G.mul_table)
    return GroupAction(G, cs.n_cosets, table)


def action_trivial(G: FiniteGroup, n_points: int) -> GroupAction:
    if n_points < 1:
        raise BadParams(f"need at least one point, got {n_points}")
    row = tuple(range(n_points))
    return GroupAction(G, n_points, (row,) * G.order)


def action_product(A: GroupAction, B: GroupAction) -> GroupAction:
    """Diagonal action on the cartesian product of the two sets."""
    if not same_group(A.group, B.group):
        raise GroupMismatch("actions live over different groups")
    nb = B.set_size
    table = tuple(
        tuple(A.table[g][sa] * nb + B.table[g][sb]
              for sa in range(A.set_size) for sb in range(nb))
        for g in range(A.group.order)
    )
    return GroupAction(A.group, A.set_size * nb, table)


def action_principal_chiral(G: FiniteGroup) -> GroupAction:
    """G x G acting on G by (a,b) . x = a x b^-1; kernel is the diagonal center."""
    GG = direct_product(G, G)
    n = G.order
    table = tuple(
        tuple(G.mul(G.mul(a, x), G.inv(b)) for x in range(n))
        for a in range(n) for b in range(n)
    )
    return GroupAction(GG, n, table)


def orbits(A: GroupAction) -> tuple[tuple[int, ...], ...]:
    blocks, _ = orbit_partition(A.set_size, range(A.set_size),
                                lambda s: [row[s] for row in A.table])
    return blocks


def fixed_point_count(A: GroupAction, g: int) -> int:
    return sum(map(operator.eq, A.table[g], range(A.set_size)))


def fixed_point_character(A: GroupAction, classes: ConjugacyClassTable) -> ClassFunction:
    """Per-class fixed-point counts, verified constant on every class member."""
    if not same_group(A.group, classes.group):
        raise GroupMismatch("action and class table use different groups")
    counts = _class_values(classes, lambda g: fixed_point_count(A, g), "fixed-point counts")
    return ClassFunction(A.group, tuple(map(Cyclotomic.rational, counts)))


def _class_values(classes: ConjugacyClassTable, value_at, what: str) -> tuple:
    """value_at(g) once per class, checked equal at every member of the class;
    ClassInconsistency otherwise."""
    out = []
    for c, members in enumerate(classes.class_members):
        v = value_at(members[0])
        if any(value_at(g) != v for g in members[1:]):
            raise ClassInconsistency(f"{what} vary inside class {c}")
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# matrix helpers

ExactMatrix = tuple[tuple[Cyclotomic, ...], ...]
ComplexMatrix = tuple[tuple[complex, ...], ...]


def _as_cyclo(v) -> Cyclotomic:
    if isinstance(v, Cyclotomic):
        return v
    return Cyclotomic.rational(v)


def exact_matrix(rows: Sequence[Sequence]) -> ExactMatrix:
    return tuple(tuple(_as_cyclo(v) for v in row) for row in rows)


def mat_mul_exact(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _mat_mul(a, b, Cyclotomic.zero())


def mat_identity_exact(n: int) -> ExactMatrix:
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_to_complex(m: ExactMatrix) -> ComplexMatrix:
    return tuple(tuple(v.to_complex() for v in row) for row in m)


def _mat_mul(a, b, zero):
    """a @ b, skipping zero entries of a: a permutation matrix costs d^2."""
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, b):
            if x != zero:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def _adjoint(m: ComplexMatrix) -> ComplexMatrix:
    return tuple(tuple(v.conjugate() for v in col) for col in zip(*m))


def _close(a: ComplexMatrix, b: ComplexMatrix) -> bool:
    """Entrywise within NUMERIC_TOL; false when an entry is NaN."""
    return all(abs(x - y) <= NUMERIC_TOL for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# unitary representations

@frozen
class UnitaryRep:
    """A unitary matrix representation, one matrix per group element.

    `exact` carries cyclotomic entries when available; `numeric` always
    holds every matrix as a tuple of row tuples of complex numbers (for
    exact reps, the entries' `to_complex`).  One constructor validates both
    kinds alike, and every character is one fold over `spectra`, exact
    roots of unity read off the numeric traces.
    """

    group: FiniteGroup
    dim: int
    exact: Optional[tuple[ExactMatrix, ...]]
    numeric: tuple[ComplexMatrix, ...]

    def exact_matrix_of(self, g: int) -> ExactMatrix:
        if self.exact is None:
            raise BadParams("representation has no exact entries")
        return self.exact[g]

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @functools.cached_property
    def spectra(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per element g, (k, exponents): the eigenvalues of rho(g) are
        zeta_k^e for e in exponents, in ascending order of e."""
        return _cyclic_spectra(self)


def rep_from_exact(G: FiniteGroup, matrices: Sequence[Sequence[Sequence]]) -> UnitaryRep:
    return _rep(G, matrices, _as_cyclo)


def rep_from_numeric(G: FiniteGroup,
                     matrices: Sequence[Sequence[Sequence[complex]]]) -> UnitaryRep:
    """A rep from complex matrices, each a sequence of rows of anything
    `complex()` accepts (array types included)."""
    return _rep(G, matrices, complex)


def _rep(G: FiniteGroup, matrices: Sequence[Sequence[Sequence]], entry) -> UnitaryRep:
    """The validated rep of `matrices`, each entry converted by `entry`."""
    if len(matrices) != G.order:
        raise BadParams(f"{len(matrices)} matrices for group of order {G.order}")
    mats = tuple(tuple(tuple(map(entry, row)) for row in m) for m in matrices)
    dim = len(mats[0])
    if dim < 1:
        raise BadParams(f"representation dimension must be positive, got {dim}")
    if any(len(m) != dim or any(len(r) != dim for r in m) for m in mats):
        raise BadParams("matrices are not all square of equal dimension")
    exact = None if entry is complex else mats
    rep = UnitaryRep(G, dim, exact, mats if exact is None else tuple(map(mat_to_complex, mats)))
    _validate_rep_numeric(rep)
    return rep


def _matrices(*reps: UnitaryRep):
    """Each rep's matrices and their entry conversion: exact when every rep is."""
    exact = all(rep.is_exact for rep in reps)
    return [rep.exact if exact else rep.numeric for rep in reps], (_as_cyclo if exact else complex)


def _validate_rep_numeric(rep: UnitaryRep) -> None:
    G, d = rep.group, rep.dim
    eye = tuple(tuple(1 + 0j if i == j else 0j for j in range(d)) for i in range(d))
    if not _close(rep.numeric[G.identity], eye):
        raise NotAHomomorphism("identity element is not mapped to the identity matrix")
    for g in range(G.order):
        U = rep.numeric[g]
        if not _close(_mat_mul(U, _adjoint(U), 0j), eye):
            raise NotAHomomorphism(f"matrix for element {g} is not unitary")
    for g in G.generators:
        Ug = rep.numeric[g]
        for a in range(G.order):
            if not _close(_mat_mul(rep.numeric[a], Ug, 0j), rep.numeric[G.mul(a, g)]):
                raise NotAHomomorphism(f"multiplicativity fails at ({a}, {g})")


def rep_from_generator_images(G: FiniteGroup, images: Sequence[Sequence[Sequence]]) -> UnitaryRep:
    """Extend exact matrices on G's stored generators to the whole group."""
    gens = G.generators
    if len(images) != len(gens):
        raise BadParams(f"{len(images)} images for {len(gens)} generators")
    imgs = [exact_matrix(m) for m in images]
    dim = len(imgs[0]) if imgs else 1
    mats = extend_generator_images(G, imgs, mat_mul_exact, mat_identity_exact(dim))
    if mats is None:
        raise NotAHomomorphism("generator images do not extend to a homomorphism")
    return rep_from_exact(G, mats)


def trivial_rep(G: FiniteGroup, dim: int = 1) -> UnitaryRep:
    if dim < 1:
        raise BadParams(f"representation dimension must be positive, got {dim}")
    if G.order * dim * dim > MAX_TRIVIAL_REP_ENTRIES:  # refused before anything is allocated
        raise BadParams(f"a representation of dimension {dim} is too large to index")
    eye = mat_identity_exact(dim)
    return rep_from_exact(G, (eye,) * G.order)


def permutation_rep(A: GroupAction) -> UnitaryRep:
    mats = []
    for g in range(A.group.order):
        row = A.table[g]
        mats.append(tuple(tuple(1 if row[j] == i else 0 for j in range(A.set_size))
                          for i in range(A.set_size)))
    return rep_from_exact(A.group, mats)


def dihedral_rotation_rep(G: FiniteGroup, n: int) -> UnitaryRep:
    """Faithful 2-dim rep of the order-2n dihedral group built by dihedral_group."""
    if G.order != 2 * n:
        raise BadParams("group order does not match dihedral parameter")
    half = Fraction(1, 2)
    i_unit = Cyclotomic.root_of_unity(4)
    mats = []
    for p in range(2 * n):
        f, a = divmod(p, n)
        c = half * (Cyclotomic.root_of_unity(n, a) + Cyclotomic.root_of_unity(n, (-a) % n))
        s = -i_unit * half * (Cyclotomic.root_of_unity(n, a) - Cyclotomic.root_of_unity(n, (-a) % n))
        if not f:
            mats.append(((c, -s), (s, c)))
        else:
            # reflection times rotation: diag(1,-1) . R(a)
            mats.append(((c, -s), (-s, -c)))
    return rep_from_exact(G, mats)


def su2_fundamental_rep(G: FiniteGroup) -> UnitaryRep:
    """2-dim rep from stored unit-quaternion coordinates (Q8 and binary groups)."""
    from .quaternions import DENOM, QN

    coords = G.quaternion_coords
    if coords is None:
        raise BadParams("group carries no quaternion coordinates")

    r2 = Cyclotomic.root_of_unity(8) - Cyclotomic.root_of_unity(8, 3)
    r5 = 2 * (Cyclotomic.root_of_unity(5) + Cyclotomic.root_of_unity(5, 4)) + 1
    r10 = r2 * r5

    def qn_cyclo(p: QN) -> Cyclotomic:
        a, b, c, d = (Fraction(v, DENOM) for v in p)
        return Cyclotomic.rational(a) + b * r2 + c * r5 + d * r10

    i_unit = Cyclotomic.root_of_unity(4)
    mats = []
    for (w, x, y, z) in coords:
        cw, cx, cy, cz = qn_cyclo(w), qn_cyclo(x), qn_cyclo(y), qn_cyclo(z)
        mats.append(((cw + i_unit * cx, cy + i_unit * cz),
                     (-cy + i_unit * cz, cw - i_unit * cx)))
    return rep_from_exact(G, mats)


def rep_direct_sum(a: UnitaryRep, b: UnitaryRep) -> UnitaryRep:
    if not same_group(a.group, b.group):
        raise GroupMismatch("representations live over different groups")
    (mas, mbs), entry = _matrices(a, b)
    zero = entry(0)
    mats = [[row + (zero,) * b.dim for row in ma] + [(zero,) * a.dim + row for row in mb]
            for ma, mb in zip(mas, mbs)]
    return _rep(a.group, mats, entry)


def rep_restrict(rep: UnitaryRep, H: SubgroupHandle) -> tuple[UnitaryRep, FiniteGroup]:
    """Restrict to a subgroup, reindexed as its own group."""
    sub, embed = subgroup_as_group(rep.group, H)
    (mats,), entry = _matrices(rep)
    return _rep(sub, [mats[g] for g in embed], entry), sub


# ---------------------------------------------------------------------------
# one-dimensional representations

@frozen
class OneDimRep:
    """A homomorphism into roots of unity, one exact value per element."""

    group: FiniteGroup
    values: tuple[Cyclotomic, ...]


def one_dim_from_values(G: FiniteGroup, values: Sequence) -> OneDimRep:
    vals = tuple(_as_cyclo(v) for v in values)
    if len(vals) != G.order:
        raise BadParams(f"{len(vals)} values for group of order {G.order}")
    bad = law_break(G, vals, operator.mul)
    if bad is not None:
        raise NotAHomomorphism(f"values are not multiplicative at {bad}")
    return OneDimRep(G, vals)


def trivial_one_dim(G: FiniteGroup) -> OneDimRep:
    one = Cyclotomic.one()
    return OneDimRep(G, (one,) * G.order)


def zn_charge_rep(G: FiniteGroup, q: int) -> OneDimRep:
    """Charge-q character of the built-in cyclic group (element k is g^k)."""
    n = G.order
    expected = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    if G.mul_table != expected:
        raise BadParams("zn_charge_rep needs the built-in cyclic group layout")
    return OneDimRep(G, tuple(Cyclotomic.root_of_unity(n, (q * k) % n) for k in range(n)))


def one_dim_to_rep(chi: OneDimRep) -> UnitaryRep:
    return rep_from_exact(chi.group, [((v,),) for v in chi.values])


# ---------------------------------------------------------------------------
# characters from representations

def _dft(values: Sequence[complex]) -> list[complex]:
    """[sum_t values[t] zeta_k^(-jt) for j < k], k = len(values), by mixed-radix
    Cooley-Tukey on k's smallest prime factor r: O(k * (sum of k's prime
    factors)) complex operations."""
    k = len(values)
    w = [cmath.exp(-2j * cmath.pi * m / k) for m in range(k)]
    r = next((q for q in range(2, math.isqrt(k) + 1) if k % q == 0), k)
    if r == k:  # k is 1 or prime
        return [sum(v * w[j * t % k] for t, v in enumerate(values)) for j in range(k)]
    parts = [_dft(values[s::r]) for s in range(r)]
    n = k // r
    return [sum(parts[s][j % n] * w[j * s % k] for s in range(r)) for j in range(k)]


def _root_multiplicities(traces: Sequence[complex], d: int) -> list[int]:
    """The exponents j, each repeated m_j times, of the eigenvalues zeta_k^j
    of a d-dim matrix M of order dividing k = len(traces), from
    traces[t] = tr M^t: m_j = (1/k) sum_t traces[t] zeta_k^(-jt) is the
    multiplicity of zeta_k^j.  Each m_j must lie within SNAP_TOL of a
    non-negative integer and the m_j must sum to d."""
    k = len(traces)
    exponents = []
    for j, total in enumerate(_dft(traces)):
        m = total / k
        n = round(m.real) if cmath.isfinite(m) else -1
        if n < 0 or abs(m - n) > SNAP_TOL:
            raise SnapFailure(f"multiplicity {m} of the eigenvalue zeta_{k}^{j} "
                              f"is not within {SNAP_TOL} of a non-negative integer")
        exponents += [j] * n
    if len(exponents) != d:
        raise SnapFailure(f"eigenvalue multiplicities sum to {len(exponents)}, "
                          f"not to the dimension {d}")
    return exponents


def _cyclic_spectra(rep: UnitaryRep) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every element's spectrum, one transform per maximal cyclic subgroup.

    Elements are walked by descending order; each one c not yet covered
    has its eigenvalue multiplicities read off the traces of its powers
    (the restriction of the character to <c>, decomposed into the
    characters of that cyclic group), and every power c^a takes the
    exponents a * j.
    """
    G = rep.group
    orders = [G.element_order(g) for g in range(G.order)]
    spectra: list = [None] * G.order
    for c in sorted(range(G.order), key=orders.__getitem__, reverse=True):
        if spectra[c] is not None:
            continue
        k = orders[c]
        powers = [G.identity]
        for _ in range(k - 1):
            powers.append(G.mul(powers[-1], c))
        traces = [sum(rep.numeric[x][i][i] for i in range(rep.dim)) for x in powers]
        exponents = _root_multiplicities(traces, rep.dim)
        for a, x in enumerate(powers):
            if spectra[x] is None:
                spectra[x] = (k, tuple(sorted(a * j % k for j in exponents)))
    return tuple(spectra)


def _spectrum(rep: UnitaryRep, g: int) -> list[Cyclotomic]:
    """The eigenvalues of rho(g) as exact roots of unity, by ascending angle."""
    k, exponents = rep.spectra[g]
    return [Cyclotomic.root_of_unity(k, e) for e in exponents]


def _fold(rep: UnitaryRep, classes: Optional[ConjugacyClassTable],
          fold) -> tuple[Cyclotomic, ...]:
    """fold(spectrum) of rho at each class representative (at every element
    when classes is None)."""
    G = rep.group
    if classes is not None and not same_group(G, classes.group):
        raise GroupMismatch("representation and class table use different groups")
    return tuple(fold(_spectrum(rep, r))
                 for r in (classes.reps if classes is not None else range(G.order)))


# 1 * v1 * v2 * ..., multiplied left to right
_product = functools.partial(math.prod, start=Cyclotomic.one())


def rep_character(rep: UnitaryRep, classes: ConjugacyClassTable) -> ClassFunction:
    """Per-class trace, exact (sums of the exact spectrum)."""
    return ClassFunction(rep.group, _fold(rep, classes,
                                          lambda spectrum: sum(spectrum, Cyclotomic.zero())))


def fermion_site_character(rep: UnitaryRep, classes: ConjugacyClassTable,
                           sign: int = 1) -> ClassFunction:
    """Per-class det(1 + sign * rho), the trace over the mode Fock space.

    sign=+1 gives the plain Fock trace; sign=-1 the fermion-parity-weighted
    one.  Values are exact products of (1 + sign * root of unity).
    """
    if sign not in (1, -1):
        raise BadParams(f"sign must be +1 or -1, got {sign}")
    return ClassFunction(rep.group, _fold(
        rep, classes, lambda spectrum: _product(1 + sign * lam for lam in spectrum)))


def det_character(rep: UnitaryRep, classes: ConjugacyClassTable,
                  inverse: bool = False) -> ClassFunction:
    """Per-class determinant of rho (or of rho at the inverse class)."""
    values = _fold(rep, classes, _product)
    if inverse:
        values = tuple(values[c] for c in classes.inverse_class)
    return ClassFunction(rep.group, values)


def det_rep(rep: UnitaryRep) -> OneDimRep:
    """Determinant character, exact (products of the exact spectrum)."""
    return OneDimRep(rep.group, _fold(rep, None, _product))


def one_dim_class_values(chi: OneDimRep, classes: ConjugacyClassTable) -> ClassFunction:
    if not same_group(chi.group, classes.group):
        raise GroupMismatch("character and class table use different groups")
    return ClassFunction(chi.group, _class_values(classes, chi.values.__getitem__,
                                                  "one-dim values"))


# ---------------------------------------------------------------------------
# matter specifications

@frozen
class PureGauge:
    """No matter: every site carries the trivial character."""


def _check_actions(actions: Sequence[GroupAction]) -> None:
    """NotAHomomorphism unless every action is valid; each is checked once."""
    for A in actions:
        if (bad := A._violation) is not None:
            raise NotAHomomorphism(f"not a group action: {bad[0]} violated at {bad[1]}")


@frozen
class ScalarMatter:
    action: GroupAction

    def __post_init__(self):
        _check_actions((self.action,))


@frozen
class ScalarMatterPerSite:
    actions: tuple[GroupAction, ...]

    def __post_init__(self):
        _check_actions(self.actions)


Vacuum = Union[str, OneDimRep]  # "trivial" | "staggered" | explicit character


@frozen
class FermionMatter:
    flavours: tuple[UnitaryRep, ...]
    spinor_count: int = 1
    vacuum: Vacuum = "trivial"

    def __post_init__(self):
        if self.spinor_count < 1:
            raise BadParams(f"spinor_count must be >= 1, got {self.spinor_count}")
        if not self.flavours:
            raise BadParams("at least one flavour representation is required")
        if self.spinor_count * sum(f.dim for f in self.flavours) > MAX_SITE_MODES:
            raise BadParams(f"{self.spinor_count} spinors are too many modes to index")
        if isinstance(self.vacuum, str) and self.vacuum not in ("trivial", "staggered"):
            raise BadParams(f"unknown vacuum {self.vacuum!r}")


MatterSpec = Union[PureGauge, ScalarMatter, ScalarMatterPerSite, FermionMatter]


def spinor_components_for_dirac(d: int) -> int:
    """Spinor component count 2^floor((d+1)/2) for naive or Wilson fermions in d space dims."""
    if d < 1:
        raise BadParams(f"need at least one spatial dimension, got {d}")
    return 2 ** ((d + 1) // 2)


# ---------------------------------------------------------------------------
# per-site characters of each matter kind

def fermion_site_characters(matter: FermionMatter, classes: ConjugacyClassTable,
                            n_sites: int, sign: int = 1) -> list[ClassFunction]:
    """Per-site Fock characters with the vacuum weight folded into each site.

    Each site carries prod_f det(1 + sign * rho_f)^spinor_count.  A
    one-dimensional background vacuum multiplies every site; the staggered
    vacuum fills every mode on odd-indexed sites only, so exactly those sites
    pick up the factor prod_f det(rho_f(C^-1))^spinor_count.  Folding the
    weight per site (rather than as one global factor) keeps the count right
    even when some sites decouple from the class sum.
    """
    G, s = classes.group, matter.spinor_count
    fock = [fermion_site_character(rep, classes, sign=sign).values for rep in matter.flavours]
    plain = ClassFunction(G, tuple(_product(v ** s for v in vs) for vs in zip(*fock)))
    if matter.vacuum == "trivial":
        return [plain] * n_sites
    if matter.vacuum == "staggered":
        if n_sites % 2 != 0:
            raise OddSitesForStaggered(
                f"staggered vacuum needs an even site count, got {n_sites}")
        dets = [det_character(rep, classes, inverse=True).values for rep in matter.flavours]
        weight = tuple(_product(v ** s for v in vs) for vs in zip(*dets))
    else:
        weight = one_dim_class_values(matter.vacuum, classes).values
    dressed = ClassFunction(G, tuple(map(operator.mul, plain.values, weight)))
    if matter.vacuum == "staggered":
        return [plain, dressed] * (n_sites // 2)
    return [dressed] * n_sites


def site_characters(matter: MatterSpec, classes: ConjugacyClassTable,
                    n_sites: int, sign: int = 1) -> list[ClassFunction]:
    """The class function of each site's matter space; sign=-1 weights
    fermion modes by parity."""
    if isinstance(matter, PureGauge):
        return [constant_class_function(classes, 1)] * n_sites
    if isinstance(matter, (ScalarMatter, ScalarMatterPerSite)):
        actions = (matter.actions if isinstance(matter, ScalarMatterPerSite)
                   else (matter.action,) * n_sites)
        if len(actions) != n_sites:
            raise BadParams(f"{len(actions)} actions for {n_sites} physical sites")
        # one character per distinct action object, one list repetition per run of it
        made: dict[int, ClassFunction] = {}
        chars = []
        for key, run in itertools.groupby(actions, id):
            run = list(run)
            ch = made[key] = made.get(key) or fixed_point_character(run[0], classes)
            chars += [ch] * len(run)
        return chars
    if isinstance(matter, FermionMatter):
        return fermion_site_characters(matter, classes, n_sites, sign=sign)
    raise BadParams(f"unknown matter specification {matter!r}")


def total_hilbert_dim(G: FiniteGroup, L: LatticeGraph, matter: MatterSpec,
                      classes: Optional[ConjugacyClassTable] = None,
                      site_chars: Optional[Sequence[ClassFunction]] = None) -> int:
    """Dimension of the full unconstrained space: |G| per link times each
    site's dimension, its character at the identity class.  The site
    characters (site_chars, if built) are `count`'s, so both validate alike."""
    classes = classes or conjugacy_classes(G)
    if not same_group(G, classes.group):
        raise GroupMismatch("group and class table disagree")
    chars = site_characters(matter, classes, L.site_count) if site_chars is None else site_chars
    # each distinct character object is read once; ClassFunction is unhashable
    first = dict(zip(map(id, chars), chars))
    dim = G.order ** L.edge_count
    for key, m in collections.Counter(map(id, chars)).items():
        dim *= first[key].values[0].integer_value() ** m
    return dim


# ---------------------------------------------------------------------------
# text formats (line grammar in textio)

def action_to_text(A: GroupAction) -> str:
    return write_records("action", (A.group.order, A.set_size), A.table)


def action_from_text(text: str, G: FiniteGroup) -> GroupAction:
    head, (order, n), records = read_records(text, "action", 2)
    if order != G.order:
        raise ParseError(f"file is for group order {order}, expected {G.order}", head)
    if n < 1:
        raise ParseError(f"bad set size {n}", head)
    if len(records) != order:
        raise ParseError(f"expected {order} rows", end_line(head, records))
    table = []
    for line, ln in records:
        row = read_ints(ln.split(), line, "table entry", bound=n)
        if len(row) != n:
            raise ParseError(f"row must be {n} indices", line)
        table.append(tuple(row))
    A = GroupAction(G, n, tuple(table))
    if (bad := A._violation) is not None:  # cached: the matter spec reads this result
        raise ParseError(f"not a group action: {bad[0]} violated at {bad[1]}", head)
    return A


def rep_to_text(rep: UnitaryRep) -> str:
    rows = (row for g in range(rep.group.order) for row in rep.numeric[g])
    return write_records("rep", (rep.group.order, rep.dim),
                         ([f"{v.real:.17g} {v.imag:.17g}" for v in row] for row in rows))


def rep_from_text(text: str, G: FiniteGroup) -> UnitaryRep:
    head, (order, dim), records = read_records(text, "rep", 2)
    if order != G.order:
        raise ParseError(f"file is for group order {order}, expected {G.order}", head)
    if dim < 1:
        raise ParseError(f"bad dimension {dim}", head)
    if len(records) != order * dim:
        raise ParseError(f"expected {order * dim} matrix rows", end_line(head, records))
    rows = []
    for line, ln in records:
        vals = read_floats(ln.split(), line, "matrix entry")
        if len(vals) != 2 * dim:
            raise ParseError(f"expected {2 * dim} numbers", line)
        rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(dim)])
    return rep_from_numeric(G, [rows[g * dim:(g + 1) * dim] for g in range(order)])
