"""Seeded property test: the integer-numerator `Cyclotomic` gives the same
order, coefficients, repr, rational value and complex value as the
`Fraction`-coefficient reference in `cyclo_reference.py`, for every
operation, on values of mixed orders up to 60; sigma_j, squaring and
rational powers keep every tuple the counting engine relies on."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cyclo_reference as ref  # noqa: E402
from gaugecount import Cyclotomic  # noqa: E402
from gaugecount.cyclo import _divisors  # noqa: E402

IMPLS = (Cyclotomic, ref.Cyclotomic)
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)
NONZERO = SMALL.filter(bool)


@st.composite
def value_specs(draw, n: int):
    """A value of an order dividing n: either a coefficient vector, or a
    rational plus small multiples of n-th roots of unity."""
    m = draw(st.sampled_from(_divisors(n)))
    if draw(st.booleans()):
        return ("coeffs", m, tuple(draw(SMALL) for _ in range(ref.euler_phi(m))))
    return ("terms", draw(SMALL), tuple(draw(st.lists(
        st.tuples(st.integers(0, m - 1), SMALL), max_size=4))), m)


@st.composite
def root_specs(draw, n: int):
    """A nonzero rational times a root of unity of order dividing n."""
    m = draw(st.sampled_from(_divisors(n)))
    return ("terms", Fraction(0), ((draw(st.integers(0, m - 1)), draw(NONZERO)),), m)


@st.composite
def operands(draw):
    """Two values whose orders divide one n <= 60, and a plain rational."""
    n = draw(st.integers(1, 60))
    kind = st.one_of(value_specs(n), root_specs(n))
    return draw(kind), draw(kind), draw(SMALL)


def build(cls, spec):
    if spec[0] == "coeffs":
        return cls(spec[1], spec[2])
    _, c0, terms, m = spec
    v = cls.rational(c0)
    for e, c in terms:
        v = v + c * cls.root_of_unity(m, e)
    return v


def outcome(f, *args):
    """What f returns, or the type of what it raises."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def assert_same(new, old):
    if isinstance(old, type):
        assert new is old
        return
    if isinstance(old, bool):
        assert new is old
        return
    assert isinstance(new, Cyclotomic) and isinstance(old, ref.Cyclotomic)
    assert new.order == old.order
    assert new.coeff_pairs() == old.coeff_pairs()
    assert repr(new) == repr(old)
    assert new.to_complex() == old.to_complex()  # bit for bit
    r_new = outcome(Cyclotomic.rational_value, new)
    r_old = outcome(ref.Cyclotomic.rational_value, old)
    assert r_new == r_old and type(r_new) is type(r_old)


OPS = {
    "add": lambda a, b, q: a + b,
    "add_rational": lambda a, b, q: q + a,
    "sub": lambda a, b, q: a - b,
    "rsub_rational": lambda a, b, q: q - a,
    "mul": lambda a, b, q: a * b,
    "mul_rational": lambda a, b, q: q * a,
    "mul_int": lambda a, b, q: a * q.numerator,
    "neg": lambda a, b, q: -a,
    "pow": lambda a, b, q: a ** (q.numerator % 5),
    "pow_negative": lambda a, b, q: b ** -(1 + q.numerator % 4),
    "conjugate": lambda a, b, q: a.conjugate(),
    "inverse": lambda a, b, q: b.inverse(),
    "eq": lambda a, b, q: a == b,
    "eq_rational": lambda a, b, q: a == q,
    "eq_roundtrip": lambda a, b, q: (a + b) - b == a,
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(operands())
def test_matches_fraction_reference(case):
    a_spec, b_spec, q = case
    args = [(build(cls, a_spec), build(cls, b_spec), q) for cls in IMPLS]
    for name, op in OPS.items():
        try:
            assert_same(*(outcome(op, *a) for a in args))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


@st.composite
def galois_cases(draw):
    """Two values whose orders divide one n <= 60, and two exponents prime to n."""
    n = draw(st.integers(1, 60))
    unit = st.integers(-2 * n, 2 * n).filter(lambda j: gcd(j, n) == 1)
    kind = st.one_of(value_specs(n), root_specs(n))
    return draw(kind), draw(kind), draw(unit), draw(unit)


def exact(v):
    return v.order, v.num, v.den


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(galois_cases())
def test_galois_and_squares_keep_every_tuple(case):
    a_spec, b_spec, j, k = case
    a, b, ref_a = build(Cyclotomic, a_spec), build(Cyclotomic, b_spec), build(ref.Cyclotomic, a_spec)
    assert_same(a.galois(j), ref_a.galois(j))
    assert a.galois(j).order == a.order
    # tuple for tuple, ring orders included: multiplicative, additive, and
    # sigma_j after sigma_k is sigma_jk
    assert exact((a * b).galois(j)) == exact(a.galois(j) * b.galois(j))
    assert exact((a + b).galois(j)) == exact(a.galois(j) + b.galois(j))
    assert exact(a.galois(k).galois(j)) == exact(a.galois(j * k))
    assert exact(a.conjugate()) == exact(a.galois(-1))
    if a.order > 1:  # an exponent sharing a prime with the order is refused by both
        p = next(p for p in range(2, a.order + 1) if a.order % p == 0)
        assert outcome(a.galois, p * j) is outcome(ref_a.galois, p * j) is ValueError
    # a square takes its own branch: the tuple of a product of two equal copies
    copy = Cyclotomic(a.order, [Fraction(n, d) for n, d in a.coeff_pairs()])
    assert copy is not a and exact(copy) == exact(a)
    assert exact(a * a) == exact(a * copy) == exact(copy * a)
    assert_same(a * a, ref_a * build(ref.Cyclotomic, a_spec))


RATIONAL_BASES = st.one_of(st.just(0), st.integers(-30, 30),
                           st.fractions(min_value=-30, max_value=30, max_denominator=40))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(RATIONAL_BASES, st.integers(-5, 300))
def test_rational_powers_are_one_integer_power(base, k):
    """A rational p/q to the k is p^k over q^k: the value of k products (of the
    inverse, below 0) and of the reference, in lowest terms with a positive
    denominator; zero to a negative power is refused."""
    v, ref_v = Cyclotomic.rational(base), ref.Cyclotomic.rational(base)
    if base == 0 and k < 0:
        assert outcome(pow, v, k) is outcome(pow, ref_v, k) is ZeroDivisionError
        return
    got, want = v ** k, ref_v ** k
    step, by_products = v if k >= 0 else v.inverse(), Cyclotomic.one()
    for _ in range(abs(k)):
        by_products = by_products * step
    assert exact(got) == exact(by_products)
    assert got.order == want.order == 1 and got.coeff_pairs() == want.coeff_pairs()
    assert got.den > 0 and gcd(got.num[0], got.den) == 1
    assert got.rational_value() == Fraction(base) ** k


def test_divisors_in_ascending_order():
    for n in range(1, 400):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_rational_one_returns_the_other_operand():
    z = Cyclotomic.root_of_unity(12, 5)
    assert Cyclotomic.one() * z is z
    assert z * Fraction(1) is z


def test_values_are_reduced_integer_numerators():
    half = Fraction(1, 2)
    v = half * Cyclotomic.root_of_unity(5) + Fraction(3, 4)
    assert (v.order, v.num, v.den) == (5, (3, 2, 0, 0), 4)
    w = v * 4
    assert (w.order, w.num, w.den) == (5, (3, 2, 0, 0), 1)
    assert ((v - v).order, (v - v).num, (v - v).den) == (1, (0,), 1)
