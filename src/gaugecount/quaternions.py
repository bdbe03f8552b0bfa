"""Exact unit-quaternion arithmetic over the ring Q[sqrt2, sqrt5].

A number a + b*sqrt2 + c*sqrt5 + d*sqrt10 is stored as the four integers
(4a, 4b, 4c, 4d).  Every coordinate of Q8, 2T, 2O and 2I lies on that
lattice of denominator 4, so equality is exact, a product is integer
arithmetic with one exact division by 4 per coordinate, and the binary
polyhedral groups close without any floating-point tolerance.  A product
that leaves the lattice raises NotAGroup.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAGroup

DENOM = 4

# scalar in Q[sqrt2, sqrt5]: tuple (a, b, c, d) == (a + b*r2 + c*r5 + d*r10) / DENOM
QN = tuple[int, int, int, int]
# quaternion w + x*i + y*j + z*k
Quat = tuple[QN, QN, QN, QN]

QN_ZERO: QN = (0, 0, 0, 0)
QN_ONE: QN = (DENOM, 0, 0, 0)


def _coordinate(pairs, signs) -> QN:
    """The sum of sign * p * q over the pairs, back over the denominator."""
    a = b = c = d = 0
    for (p, q), sign in zip(pairs, signs):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        a += sign * (a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2)
        b += sign * (a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2))
        c += sign * (a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2))
        d += sign * (a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)
    out = []
    for v in (a, b, c, d):
        quo, rem = divmod(v, DENOM)
        if rem:
            raise NotAGroup(f"quaternion product leaves the lattice of denominator {DENOM}")
        out.append(quo)
    return tuple(out)


def quat_mul(p: Quat, q: Quat) -> Quat:
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        _coordinate(((w1, w2), (x1, x2), (y1, y2), (z1, z2)), (1, -1, -1, -1)),
        _coordinate(((w1, x2), (x1, w2), (y1, z2), (z1, y2)), (1, 1, 1, -1)),
        _coordinate(((w1, y2), (x1, z2), (y1, w2), (z1, x2)), (1, -1, 1, 1)),
        _coordinate(((w1, z2), (x1, y2), (y1, x2), (z1, w2)), (1, 1, -1, 1)),
    )


def _qn_str(p: QN) -> str:
    parts = []
    for num, sym in zip(p, ("", "r2", "r5", "r10")):
        if not num:
            continue
        coef = Fraction(num, DENOM)
        if sym and coef == 1:
            parts.append(sym)
        elif sym:
            parts.append(f"{coef}{sym}")
        else:
            parts.append(str(coef))
    if not parts:
        return "0"
    return "+".join(parts).replace("+-", "-")


def quat_label(q: Quat) -> str:
    parts = []
    for comp, axis in zip(q, ("", "i", "j", "k")):
        if comp == QN_ZERO:
            continue
        s = _qn_str(comp)
        if axis:
            s = axis if s == "1" else ("-" + axis if s == "-1" else f"({s}){axis}")
        parts.append(s)
    if not parts:
        return "0"
    return "+".join(parts).replace("+-", "-")
