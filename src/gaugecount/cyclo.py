"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value of order n is a tuple of phi(n) integer numerators over one positive
denominator, read in the power basis 1, x, ..., x^(phi(n)-1) of Q[x]/Phi_n(x),
with x standing for the primitive n-th root of unity exp(2*pi*i/n).  The
gcd of the denominator and every numerator is divided out after each
operation, and reduction modulo the minimal polynomial Phi_n makes the basis
expansion unique, so equal values of one order have equal tuples.  A value
is rational if and only if every non-constant numerator vanishes, which is
what exact integrality checks rely on.  Mixed-order operands are promoted to
the lcm order automatically, and an order drops only to 1 (a rational), not
to the smallest field that holds the value: the ring order of a result
follows the order of the operations that made it.  `galois(j)`, sigma_j:
zeta -> zeta^j for j prime to the order, keeps order, gcd and rationality, so
sigma_j of a sum or product has the exact tuple of that of the images.
`mat_mul_exact` is the one product of matrices of such values.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

Rational = int | Fraction


def _divisors(n: int) -> list[int]:
    """Divisors of n, ascending, from the pairs (d, n // d) with d <= sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials exactly; den must be monic and divide num."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ValueError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n < 1:
        raise ValueError(f"bad cyclotomic order {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _polydiv_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k reduced mod Phi_n for k = 0 .. n-1, as sparse (index, coeff) rows."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    # x^d == -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})
    top = tuple(-c for c in phi[:d])
    rows: list[tuple[tuple[int, int], ...]] = []
    cur = [0] * d
    if d > 0:
        cur[0] = 1
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        carry = cur[d - 1] if d > 0 else 0
        nxt = [0] * d
        for i in range(d - 1, 0, -1):
            nxt[i] = cur[i - 1]
        if carry:
            for i in range(d):
                nxt[i] += carry * top[i]
        cur = nxt
    return tuple(rows)


def _reduce_pairs(n: int, pairs) -> tuple[int, ...]:
    """Reduce sum of coeff * x^exponent (integer coeffs) into the order-n basis."""
    d = euler_phi(n)
    rows = _power_table(n)
    out = [0] * d
    for e, c in pairs:
        if not c:
            continue
        e %= n
        if e < d:
            out[e] += c
        else:
            for i, v in rows[e]:
                out[i] += c * v
    return tuple(out)


_set = object.__setattr__


def _reduced(order: int, num: tuple[int, ...], den: int) -> "Cyclotomic":
    """The value num/den of the given order: the order drops to 1 when every
    non-constant numerator is 0, and the gcd of den and num is divided out."""
    if order > 1 and not any(num[1:]):
        order, num = 1, num[:1]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return _value(order, num, den)


def _value(order: int, num: tuple[int, ...], den: int) -> "Cyclotomic":  # reduced already
    v = object.__new__(Cyclotomic)
    _set(v, "order", order)
    _set(v, "num", num)
    _set(v, "den", den)
    return v


class Cyclotomic:
    """An exact element of Q(zeta_order): numerators `num` over `den`."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """The value with rational coefficients `coeffs` over the order basis."""
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        v = _reduced(order, tuple(f.numerator * (den // f.denominator) for f in fracs), den)
        _set(self, "order", v.order)
        _set(self, "num", v.num)
        _set(self, "den", v.den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclotomic is immutable")

    @staticmethod
    def rational(value: Rational) -> "Cyclotomic":
        if type(value) is int:
            return _reduced(1, (value,), 1)
        q = value if isinstance(value, Fraction) else Fraction(value)
        return _reduced(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "Cyclotomic":
        return _ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _ONE

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        """Exact zeta_n^k."""
        if n < 1:
            raise ValueError(f"bad root order {n}")
        k %= n
        g = gcd(k, n) if k else n
        n2, k2 = n // g, k // g
        return _reduced(n2, _reduce_pairs(n2, [(k2, 1)]), 1)

    # -- coercion helpers -------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Cyclotomic | None":
        if isinstance(v, Cyclotomic):
            return v
        if isinstance(v, (int, Fraction)):
            return Cyclotomic.rational(v)
        return None

    def _to_order(self, m: int) -> tuple[int, ...]:
        """Numerators of self re-expressed in the order-m basis (order | m)."""
        if m == self.order:
            return self.num
        step = m // self.order
        return _reduce_pairs(m, [(i * step, c) for i, c in enumerate(self.num)])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        m = lcm(self.order, o.order)
        a, b = self._to_order(m), o._to_order(m)
        da, db = self.den, o.den
        if da == db:
            return _reduced(m, tuple(x + y for x, y in zip(a, b)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _reduced(m, tuple(x * fa + y * fb for x, y in zip(a, b)), da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        if o.order == 1 or self.order == 1:  # scale the numerators by a rational p/q
            v, r = (self, o) if o.order == 1 else (o, self)
            p, q = r.num[0], r.den
            if p == q:  # the rational 1
                return v
            if not p:
                return _ZERO
            return _reduced(v.order, tuple(c * p for c in v.num), v.den * q)
        m = lcm(self.order, o.order)
        a, b = self._to_order(m), o._to_order(m)
        d = len(a)
        prod = [0] * (2 * d - 1)
        nz = [(j, cb) for j, cb in enumerate(b) if cb]
        if o is self:  # a square: each cross product once, doubled
            for k, (i, ca) in enumerate(nz):
                prod[2 * i] += ca * ca
                ca2 = 2 * ca
                for j, cb in nz[k + 1:]:
                    prod[i + j] += ca2 * cb
        else:
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in nz:
                        prod[i + j] += ca * cb
        rows = _power_table(m)
        for e in range(d, 2 * d - 1):
            c = prod[e]
            if c:
                for i, v in rows[e % m]:
                    prod[i] += c * v
        return _reduced(m, tuple(prod[:d]), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** -k
        if self.order == 1:  # p/q in lowest terms: p^k and q^k are coprime too
            return _value(1, (_int_pow(self.num[0], k),), _int_pow(self.den, k))
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return _ONE if result is None else result

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; currently only for rationals and roots of unity."""
        if self.is_rational():
            if not self.num[0]:
                raise ZeroDivisionError("inverse of zero")
            return Cyclotomic.rational(Fraction(self.den, self.num[0]))
        conj = self.conjugate()
        norm = self * conj
        if not norm.is_rational():
            raise ValueError("inverse only supported when z * conj(z) is rational")
        return conj * Fraction(norm.den, norm.num[0])

    def galois(self, j: int) -> "Cyclotomic":
        """sigma_j(self), zeta_n -> zeta_n^j for j prime to the order n, at order n."""
        n = self.order
        if gcd(j, n) != 1:
            raise ValueError(f"sigma_{j} is not an automorphism of Q(zeta_{n})")
        if n == 1:
            return self
        return _reduced(n, _reduce_pairs(n, [(i * j, c) for i, c in enumerate(self.num)]),
                        self.den)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    # -- predicates and conversions ---------------------------------------

    def is_rational(self) -> bool:
        return self.order == 1

    def is_zero(self) -> bool:
        return self.order == 1 and not self.num[0]

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    def integer_value(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise ValueError(f"not an integer: {self}")
        return v.numerator

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        p = 1 + 0j
        for c in self.num:
            if c:
                total += (c / self.den) * p  # int / int rounds once, as float(Fraction) does
            p *= z
        return total

    def coeff_pairs(self) -> list[list[int]]:
        """Serializable form: [[numerator, denominator], ...] over the basis."""
        return [[f.numerator, f.denominator] for f in self._fractions()]

    def _fractions(self) -> list[Fraction]:
        return [Fraction(c, self.den) for c in self.num]

    def __eq__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        if self.den != o.den:
            return False
        if self.order == o.order:
            return self.num == o.num
        # promotion keeps the gcd of the numerators, so reduced forms compare
        m = lcm(self.order, o.order)
        return self._to_order(m) == o._to_order(m)

    __hash__ = None  # equal values may carry different orders

    def __repr__(self):
        coeffs = self._fractions()
        if self.is_rational():
            return str(coeffs[0])
        terms = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z{self.order}^{i}")
            else:
                terms.append(f"({c})*z{self.order}^{i}")
        return " + ".join(terms)


_ZERO = _reduced(1, (0,), 1)
_ONE = _reduced(1, (1,), 1)


def _int_pow(b: int, e: int) -> int:
    """b ** e for e >= 0, b's power of two raised as one shift, which int's power does not do."""
    if not b:
        return 0 ** e
    t = (b & -b).bit_length() - 1  # the 2-adic valuation of b
    return (b >> t) ** e << (t * e)


def _mat_mul(a, b, zero):
    """a @ b, each sum from its first term, skipping zero entries of a: a
    permutation matrix costs d^2."""
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x != zero:
                acc = [x * y for y in brow] if acc is None else \
                    [s + x * y for s, y in zip(acc, brow)]
        out.append((zero,) * len(b[0]) if acc is None else tuple(acc))
    return tuple(out)


def mat_mul_exact(a, b):
    """The product of two matrices of Cyclotomic entries, as row tuples."""
    return _mat_mul(a, b, _ZERO)
