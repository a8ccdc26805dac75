"""Exact scalars: rationals, real quadratic field elements, big floats.

Everything upstream of the final numeric checks is exact.  Rationals are
stdlib ``fractions.Fraction`` (already gcd-reduced with positive
denominator).  ``QuadExt`` implements Q(sqrt(d)) for a square-free d > 1
carried per value; production runs use d = 105.  ``BigFloat`` is an
``mpmath.mpf`` produced at an explicitly requested binary precision
(default 128 bits).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

Rational = Fraction

DEFAULT_PRECISION = 128


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


class QuadExt:
    """rat + surd*sqrt(d) with rat, surd rational and d square-free, d > 1.

    The surd tag d travels with the value; operations on operands with
    different d raise ValueError.  Plain ints and Fractions mix freely
    (they are lifted to surd part 0).
    """

    __slots__ = ("rat", "surd", "d")

    def __init__(self, rat, surd=0, d: int = 105):
        if not (isinstance(d, int) and d > 1 and _is_squarefree(d)):
            raise ValueError("d must be a square-free integer > 1, got %r" % (d,))
        object.__setattr__(self, "rat", Fraction(rat))
        object.__setattr__(self, "surd", Fraction(surd))
        object.__setattr__(self, "d", d)

    @classmethod
    def _trusted(cls, rat: Fraction, surd: Fraction, d: int) -> "QuadExt":
        """Arithmetic results: parts already Fractions, d already checked."""
        x = object.__new__(cls)
        object.__setattr__(x, "rat", rat)
        object.__setattr__(x, "surd", surd)
        object.__setattr__(x, "d", d)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(
                    "mixed surds: sqrt(%d) and sqrt(%d)" % (self.d, other.d)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._trusted(Fraction(other), _ZERO, self.d)
        return None

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._trusted(self.rat + o.rat, self.surd + o.surd, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._trusted(-self.rat, -self.surd, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._trusted(self.rat - o.rat, self.surd - o.surd, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._trusted(
            self.rat * o.rat + self.d * self.surd * o.surd,
            self.rat * o.surd + self.surd * o.rat,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        return QuadExt._trusted(self.rat / n, -self.surd / n, self.d)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExt._trusted(_ONE, _ZERO, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- field-specific ------------------------------------------------

    def conj(self) -> "QuadExt":
        """Galois conjugate: sqrt(d) -> -sqrt(d)."""
        return QuadExt._trusted(self.rat, -self.surd, self.d)

    def norm(self) -> Fraction:
        """Product with the conjugate, an ordinary rational."""
        return self.rat * self.rat - self.d * self.surd * self.surd

    def is_rational(self) -> bool:
        return self.surd == 0

    def to_rational(self) -> Fraction:
        if self.surd != 0:
            raise ValueError("%s is irrational" % self)
        return self.rat

    # -- comparisons / hashing ------------------------------------------

    def __bool__(self):
        return bool(self.rat) or bool(self.surd)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.surd == 0 and self.rat == other
        if isinstance(other, QuadExt):
            if other.d != self.d:
                return self.surd == 0 and other.surd == 0 and self.rat == other.rat
            return self.rat == other.rat and self.surd == other.surd
        return NotImplemented

    def __hash__(self):
        if self.surd == 0:
            return hash(self.rat)
        return hash((self.rat, self.surd, self.d))

    def sign(self) -> int:
        """Sign under the real embedding sqrt(d) > 0."""
        if self.surd == 0:
            return (self.rat > 0) - (self.rat < 0)
        if self.rat == 0:
            return 1 if self.surd > 0 else -1
        # compare rat with -surd*sqrt(d); squares keep the comparison exact
        lhs = self.rat * self.rat
        rhs = self.d * self.surd * self.surd
        if self.rat > 0 and self.surd > 0:
            return 1
        if self.rat < 0 and self.surd < 0:
            return -1
        big_is_rat = lhs > rhs
        if self.rat > 0:
            return 1 if big_is_rat else -1
        return -1 if big_is_rat else 1

    def __str__(self):
        if self.surd == 0:
            return str(self.rat)
        tail = "sqrt(%d)" % self.d
        if abs(self.surd) != 1:
            tail = "%s*%s" % (str(abs(self.surd)), tail)
        sign = "-" if self.surd < 0 else "+"
        if self.rat == 0:
            return tail if sign == "+" else "-" + tail
        return "%s%s%s" % (str(self.rat), sign, tail)

    def __repr__(self):
        return "QuadExt(%r, %r, %d)" % (str(self.rat), str(self.surd), self.d)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def quad_mul(x: QuadExt, y: QuadExt) -> QuadExt:
    """Product in Q(sqrt(d)); operands must carry the same d."""
    return x * y


def integer_sqrt_exact(n: int):
    """Exact integer square root of n, or None when n is not a perfect square.

    The candidate root comes from math.isqrt; the proof is multiplication.
    """
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt_exact(q):
    """Exact rational square root, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = integer_sqrt_exact(q.numerator)
    if rn is None:
        return None
    rd = integer_sqrt_exact(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def quadext_sqrt(x: QuadExt):
    """Square root of x in Q(sqrt(d)) if one exists, else None.

    The returned root is the one that is positive under the real embedding.
    Splitting (u + v*sqrt(d))^2 = x reduces to testing whether the norm of x
    is a rational square, then whether (rat(x) +- sqrt(norm))/2 is.
    """
    if not x:
        return QuadExt(0, 0, x.d)
    if x.sign() < 0:
        return None
    if x.surd == 0:
        r = rational_sqrt_exact(x.rat)
        if r is not None:
            return QuadExt(r, 0, x.d)
        r = rational_sqrt_exact(x.rat / x.d)
        if r is not None:
            return QuadExt(0, abs(r), x.d)
        return None
    e = rational_sqrt_exact(x.norm())
    if e is None:
        return None
    for s in (e, -e):
        u2 = (x.rat + s) / 2
        u = rational_sqrt_exact(u2)
        if u is not None and u != 0:
            v = x.surd / (2 * u)
            cand = QuadExt(u, v, x.d)
            if cand.sign() < 0:
                cand = -cand
            if cand * cand == x:
                return cand
    return None


BigFloat = mpmath.mpf


def _mpf_from_fraction(q: Fraction, bits: int):
    data = mpmath.libmp.from_rational(
        q.numerator, q.denominator, bits, mpmath.libmp.round_nearest
    )
    return mpmath.mp.make_mpf(data)


def to_bigfloat(x, bits: int = DEFAULT_PRECISION):
    """Round x (int | Fraction | QuadExt | mpf) to a binary float of
    the given precision.  Rational input is correctly rounded; QuadExt
    goes through guard digits before the final rounding."""
    if isinstance(x, QuadExt):
        with mpmath.workprec(bits + 32):
            val = _mpf_from_fraction(x.rat, bits + 32)
            val += _mpf_from_fraction(x.surd, bits + 32) * mpmath.sqrt(x.d)
        with mpmath.workprec(bits):
            return +val
    if isinstance(x, Fraction):
        return _mpf_from_fraction(x, bits)
    with mpmath.workprec(bits):
        return mpmath.mpf(x)


def rational_to_float(q, bits: int = DEFAULT_PRECISION):
    """Correctly rounded binary float of a rational at the given precision."""
    return to_bigfloat(Fraction(q), bits)
