"""Exact cyclotomic arithmetic: construction and reduction."""

import cmath
import math
import random
from fractions import Fraction

from gaugecount import Cyclotomic, cyclotomic_poly, euler_phi
from gaugecount.cyclo import _int_pow


def test_rational_constructors():
    z = Cyclotomic.rational(Fraction(3, 4))
    assert z.is_rational()
    assert not z.is_integer()
    assert z.rational_value() == Fraction(3, 4)
    w = Cyclotomic.rational(5)
    assert w.is_integer()
    assert w.integer_value() == 5
    assert Cyclotomic.zero().is_zero()
    assert Cyclotomic.one().integer_value() == 1


def test_root_of_unity_powers():
    z = Cyclotomic.root_of_unity(5)
    assert z ** 5 == Cyclotomic.one()
    assert z ** 2 * z ** 3 == Cyclotomic.one()
    total = Cyclotomic.zero()
    for k in range(5):
        total = total + Cyclotomic.root_of_unity(5, k)
    assert total.is_zero()


def test_basis_reduction_to_rationals():
    i = Cyclotomic.root_of_unity(4)
    assert (i * i).rational_value() == -1
    assert Cyclotomic.root_of_unity(6, 3) == Cyclotomic.rational(-1)
    assert Cyclotomic.root_of_unity(2) == Cyclotomic.rational(-1)


def test_mixed_order_promotion():
    m1 = Cyclotomic.root_of_unity(2)
    z3 = Cyclotomic.root_of_unity(3)
    prod = m1 * z3
    assert prod == Cyclotomic.root_of_unity(6, 5)
    s = m1 + z3
    assert abs(s.to_complex() - (-1 + cmath.exp(2j * cmath.pi / 3))) < 1e-12


def test_conjugate_and_inverse():
    z = Cyclotomic.root_of_unity(7, 3)
    assert z.conjugate() == z.inverse()
    assert z * z.inverse() == Cyclotomic.one()
    r = Cyclotomic.rational(Fraction(-2, 3))
    assert r.conjugate() == r
    assert r.inverse().rational_value() == Fraction(-3, 2)


def test_subtraction_and_negation():
    z = Cyclotomic.root_of_unity(8)
    assert (z - z).is_zero()
    assert (-z) + z == Cyclotomic.zero()
    assert 1 - Cyclotomic.rational(Fraction(1, 2)) == Cyclotomic.rational(Fraction(1, 2))


def test_golden_ratio_identity():
    z = Cyclotomic.root_of_unity(5)
    val = (z + z ** 4).to_complex()
    assert abs(val - (math.sqrt(5) - 1) / 2) < 1e-12


def test_to_complex():
    z = Cyclotomic.root_of_unity(8)
    assert abs(z.to_complex() - cmath.exp(2j * cmath.pi / 8)) < 1e-12


def test_coeff_pairs_rational():
    z = Cyclotomic.rational(Fraction(3, 2))
    pairs = z.coeff_pairs()
    assert pairs[0] == [3, 2]
    assert all(p == [0, 1] for p in pairs[1:])


def test_cyclotomic_poly_small_orders():
    assert tuple(cyclotomic_poly(3)) == (1, 1, 1)
    assert tuple(cyclotomic_poly(4)) == (1, 0, 1)
    assert tuple(cyclotomic_poly(6)) == (1, -1, 1)
    assert tuple(cyclotomic_poly(12)) == (1, 0, -1, 0, 1)


def test_euler_phi():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4, 12: 4}
    for n, phi in expected.items():
        assert euler_phi(n) == phi


def test_root_of_unity_order_reduction():
    # non-primitive indices reduce to a smaller ring
    z = Cyclotomic.root_of_unity(6, 2)
    assert z == Cyclotomic.root_of_unity(3, 1)


def test_equality_against_plain_ints():
    assert Cyclotomic.rational(2) == 2
    assert Cyclotomic.root_of_unity(4) != 1


def test_int_pow_matches_the_builtin_power():
    """Seeded: the power of two taken out as a shift leaves b ** e unchanged,
    on zero, units, odd bases, powers of two, 120 and negatives."""
    rng = random.Random(2025)
    bases = [0, 1, -1, 3, -3, 7, 2 ** 61 - 1, 120, -120, 12, -40]
    bases += [sign * 2 ** k for k in (1, 2, 7, 64) for sign in (1, -1)]
    bases += [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(12)]
    for b in bases:
        for e in [0, 1, 2, 3, 5000] + [rng.randrange(5001) for _ in range(8)]:
            assert _int_pow(b, e) == b ** e, (b, e)
