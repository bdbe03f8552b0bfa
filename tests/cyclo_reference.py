"""Reference implementation for tests: the cyclotomic arithmetic that kept a
tuple of `Fraction` coefficients per value, kept verbatim (below this
docstring) so that `test_cyclo_reference.py` can check the integer-numerator
`gaugecount.cyclo` against it, operation by operation.  `galois`, added
later, makes sigma_j from this module's own products and sums.

Values are coefficient vectors over the power basis 1, x, ..., x^(phi(n)-1)
of Q[x]/Phi_n(x), with x standing for the primitive n-th root of unity
exp(2*pi*i/n).  Reduction modulo the minimal polynomial Phi_n makes the
representation canonical: a value is rational if and only if every
non-constant coefficient vanishes, which is what exact integrality checks
rely on.  Mixed-order operands are promoted to the lcm order automatically.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = int | Fraction


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


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
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k reduced mod Phi_n for k = 0 .. 2n, as integer coefficient rows."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    # x^d == -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})
    top = tuple(-c for c in phi[:d])
    rows: list[tuple[int, ...]] = []
    cur = [0] * d
    if d > 0:
        cur[0] = 1
    for _ in range(2 * n + 1):
        rows.append(tuple(cur))
        carry = cur[d - 1] if d > 0 else 0
        nxt = [0] * d
        for i in range(d - 1, 0, -1):
            nxt[i] = cur[i - 1]
        if carry:
            for i in range(d):
                nxt[i] += carry * top[i]
        cur = nxt
    return tuple(rows)


def _reduce_pairs(n: int, pairs: list[tuple[int, Rational]]) -> tuple[Fraction, ...]:
    """Reduce sum of coeff * x^exponent into the canonical basis of order n."""
    d = euler_phi(n)
    table = _power_table(n)
    out = [Fraction(0)] * d
    for e, c in pairs:
        if not c:
            continue
        e %= n
        if e < d:
            out[e] += c
        else:
            row = table[e]
            for i in range(d):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


class Cyclotomic:
    """An exact element of Q(zeta_order)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...], _canonical: bool = False):
        if not _canonical:
            if len(coeffs) != euler_phi(order):
                raise ValueError("coefficient vector has wrong length")
            coeffs = tuple(Fraction(c) for c in coeffs)
            if order > 1 and not any(coeffs[1:]):
                order, coeffs = 1, (coeffs[0] if coeffs else Fraction(0),)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclotomic is immutable")

    @staticmethod
    def rational(value: Rational) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(value),), _canonical=True)

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
        coeffs = _reduce_pairs(n2, [(k2, 1)])
        return Cyclotomic(n2, coeffs)

    # -- coercion helpers -------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Cyclotomic | None":
        if isinstance(v, Cyclotomic):
            return v
        if isinstance(v, (int, Fraction)):
            return Cyclotomic.rational(v)
        return None

    def _to_order(self, m: int) -> tuple[Fraction, ...]:
        """Coefficients of self re-expressed in the order-m basis (order | m)."""
        if m == self.order:
            return self.coeffs
        step = m // self.order
        pairs = [(i * step, c) for i, c in enumerate(self.coeffs)]
        return _reduce_pairs(m, pairs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        m = self.order * o.order // gcd(self.order, o.order)
        a, b = self._to_order(m), o._to_order(m)
        return Cyclotomic(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs), _canonical=True)

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
        if o.order == 1 or self.order == 1:
            v, q = (self, o.coeffs[0]) if o.order == 1 else (o, self.coeffs[0])
            if not q:
                return _ZERO
            return Cyclotomic(v.order, tuple(c * q for c in v.coeffs))
        m = self.order * o.order // gcd(self.order, o.order)
        a, b = self._to_order(m), o._to_order(m)
        pairs: dict[int, Fraction] = {}
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                pairs[i + j] = pairs.get(i + j, Fraction(0)) + ca * cb
        return Cyclotomic(m, _reduce_pairs(m, list(pairs.items())))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            inv = self.inverse()
            return inv ** (-k)
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
            q = self.coeffs[0]
            if not q:
                raise ZeroDivisionError("inverse of zero")
            return Cyclotomic.rational(Fraction(1) / q)
        conj = self.conjugate()
        norm = self * conj
        if not norm.is_rational():
            raise ValueError("inverse only supported when z * conj(z) is rational")
        return conj * (Fraction(1) / norm.coeffs[0])

    def galois(self, j: int) -> "Cyclotomic":
        """sigma_j, zeta_n -> zeta_n^j for j prime to the order n: the sum of
        c_i * (zeta_n^j)^i, made one power at a time and lifted back to order n unless it is rational."""
        n = self.order
        if gcd(j, n) != 1:
            raise ValueError(f"sigma_{j} is not an automorphism of Q(zeta_{n})")
        z, zi = Cyclotomic.root_of_unity(n, j), Cyclotomic.rational(1)
        total = Cyclotomic.rational(0)
        for c in self.coeffs:
            total, zi = total + c * zi, zi * z
        return total if total.is_rational() else Cyclotomic(n, total._to_order(n))

    def conjugate(self) -> "Cyclotomic":
        n = self.order
        pairs = [((n - i) % n, c) for i, c in enumerate(self.coeffs)]
        return Cyclotomic(n, _reduce_pairs(n, pairs))

    # -- predicates and conversions ---------------------------------------

    def is_rational(self) -> bool:
        return self.order == 1

    def is_zero(self) -> bool:
        return self.order == 1 and not self.coeffs[0]

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def integer_value(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise ValueError(f"not an integer: {self}")
        return v.numerator

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        p = 1 + 0j
        for c in self.coeffs:
            if c:
                total += float(c) * p
            p *= z
        return total

    def coeff_pairs(self) -> list[list[int]]:
        """Serializable form: [[numerator, denominator], ...] over the basis."""
        return [[c.numerator, c.denominator] for c in self.coeffs]

    def __eq__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return self.coeffs == o.coeffs
        m = self.order * o.order // gcd(self.order, o.order)
        return self._to_order(m) == o._to_order(m)

    __hash__ = None  # mutable-unfriendly equality across orders

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z{self.order}^{i}")
            else:
                terms.append(f"({c})*z{self.order}^{i}")
        return " + ".join(terms)


_ZERO = Cyclotomic(1, (Fraction(0),), _canonical=True)
_ONE = Cyclotomic(1, (Fraction(1),), _canonical=True)

