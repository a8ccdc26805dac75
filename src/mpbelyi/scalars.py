"""Exact scalars: rationals, quadratic extensions, big floats, and the
arithmetic protocol every exact element type of the package shares.

Everything upstream of the final numeric checks is exact.  Rationals are
stdlib ``fractions.Fraction`` (already gcd-reduced with positive
denominator).  ``BranchExt`` is the one quadratic-extension element, a + b*w
over any base field, with w^2 a fixed non-square of that field; its domain
is ``poly.BranchExtDomain``.  ``QuadExt`` is the ``BranchExt`` over QQ with
w = sqrt(d) for a square-free d > 1 (production runs use d = 105): it adds
only its public constructor, the ``rat``/``surd``/``d`` views, the sign
under the real embedding and its sqrt(d) rendering.  ``quadext_sqrt`` is
the one square root in any extension.  ``to_bigfloat`` is the one
conversion from exact scalars to ``mpmath`` numbers, at an explicitly
requested binary precision (default 128 bits).

``RingOps`` writes ``-``, its reflection and integer ``**`` once, and
``FieldOps`` adds ``/`` and its reflection, for the package's exact element
types: ``BranchExt`` (and ``QuadExt``), ``poly.MultiPoly`` (a ring),
``poly.RationalFunction``, ``series.LaurentSeries`` and
``curve.FunctionFieldElement``.  A type provides ``_wrap`` (the other
operand as an element of its own ring, or None), ``+``, unary ``-``, ``*``
and, on a field, ``inverse()``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

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


class RingOps:
    """``-``, its reflection and ``**`` from ``_wrap``, ``+``, unary ``-``
    and ``*``.  Powers take ints only and start from the first factor, so a
    series of negative valuation keeps its precision; a negative power
    inverts, which on a ring raises ``ValueError``."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def inverse(self):
        raise ValueError("%s has no inverses" % type(self).__name__)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self._wrap(1)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base


class FieldOps(RingOps):
    """``RingOps`` plus ``/`` and its reflection, through ``inverse()``."""

    __slots__ = ()

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()


class BranchExt(FieldOps):
    """a + b*w with a, b in the base field of ``ext`` (a
    ``poly.BranchExtDomain``) and w^2 = ext.radicand, a non-square there.

    Results of arithmetic have the class of the operand they were computed
    from, so a subclass such as ``QuadExt`` stays closed under it.
    Elements of one extension mix freely with anything its domain coerces;
    two extensions neither of which holds the other raise ValueError.
    """

    __slots__ = ("a", "b", "ext")

    def __init__(self, a, b, ext):
        _set_a(self, a)
        _set_b(self, b)
        _set_ext(self, ext)

    @classmethod
    def _trusted(cls, a, b, ext):
        """Arithmetic results: a and b already lie in ext's base."""
        x = object.__new__(cls)
        _set_a(x, a)
        _set_b(x, b)
        _set_ext(x, ext)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _wrap(self, other):
        ext = self.ext
        if isinstance(other, BranchExt) and other.ext is ext:
            return other
        try:
            return ext.coerce(other)
        except TypeError:
            if not isinstance(other, BranchExt):
                return None
        # an extension of this one takes over through the reflected operator
        try:
            other.ext.coerce(self)
        except TypeError:
            raise ValueError(
                "mixed extensions: %s and %s" % (ext.name, other.ext.name)
            ) from None
        return None

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self._trusted(self.a + o.a, self.b + o.b, self.ext)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(-self.a, -self.b, self.ext)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self._trusted(
            self.a * o.a + self.ext.radicand * (self.b * o.b),
            self.a * o.b + self.b * o.a,
            self.ext,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in %s" % self.ext.name)
        return self._trusted(self.a / n, -self.b / n, self.ext)

    # -- field-specific ------------------------------------------------

    def conj(self):
        """Galois conjugate: w -> -w."""
        return self._trusted(self.a, -self.b, self.ext)

    def norm(self):
        """Product with the conjugate, an element of the base field."""
        return self.a * self.a - self.ext.radicand * (self.b * self.b)

    # -- comparisons / hashing ------------------------------------------

    def __bool__(self):
        # base elements, like every element type here, are false when zero
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        # not _wrap: comparing elements of two extensions is no error
        ext = self.ext
        if isinstance(other, BranchExt) and (other.ext is ext or other.ext == ext):
            return self.a == other.a and self.b == other.b
        try:
            a = ext.base.coerce(other)
        except TypeError:
            return NotImplemented
        return not self.b and self.a == a

    def __hash__(self):
        # equal to its base element when b is zero, so hash like it
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __str__(self):
        base = self.ext.base
        if base.is_zero(self.b):
            return base.render(self.a)
        bs = base.render(self.b)
        body = "w" if bs == "1" else ("-w" if bs == "-1" else "%s*w" % bs)
        if base.is_zero(self.a):
            return body
        sign = "" if body.startswith("-") else "+"
        return "%s%s%s" % (base.render(self.a), sign, body)

    def __repr__(self):
        return "BranchExt(%s | w^2=%s)" % (self, self.ext.base.render(self.ext.radicand))


# the slots' own setters, past the __setattr__ that keeps elements immutable;
# they take half the time of object.__setattr__, and every result sets three
_set_a, _set_b, _set_ext = BranchExt.a.__set__, BranchExt.b.__set__, BranchExt.ext.__set__


class QuadExt(BranchExt):
    """rat + surd*sqrt(d) with rat, surd rational and d square-free, d > 1:
    the ``BranchExt`` over QQ whose extension is ``poly.QuadDomain(d)``.

    Plain ints and Fractions mix freely (they are lifted to surd part 0).
    """

    __slots__ = ()

    def __init__(self, rat, surd=0, d: int = 105):
        if not (isinstance(d, int) and d > 1 and _is_squarefree(d)):
            raise ValueError("d must be a square-free integer > 1, got %r" % (d,))
        from .poly import QuadDomain  # poly imports this module

        BranchExt.__init__(self, Fraction(rat), Fraction(surd), QuadDomain(d))

    # perfbench/tracing.py counts calls of the methods in a class's own
    # __dict__, so the counted ones are bound here too
    __add__ = BranchExt.__add__
    __radd__ = BranchExt.__radd__
    __neg__ = BranchExt.__neg__
    __mul__ = BranchExt.__mul__
    __rmul__ = BranchExt.__rmul__
    inverse = BranchExt.inverse

    @property
    def rat(self) -> Fraction:
        return self.a

    @property
    def surd(self) -> Fraction:
        return self.b

    @property
    def d(self) -> int:
        return self.ext.d

    def sign(self) -> int:
        """Sign under the real embedding sqrt(d) > 0."""
        rat, surd = self.a, self.b
        s, t = (rat > 0) - (rat < 0), (surd > 0) - (surd < 0)
        if s == t or not t:
            return s
        if not s:
            return t
        # opposite signs: the larger of rat^2 and d*surd^2 (never equal) wins
        return s if rat * rat > self.ext.radicand * surd * surd else t

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        tail = "sqrt(%d)" % self.d
        if abs(self.b) != 1:
            tail = "%s*%s" % (str(abs(self.b)), tail)
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return tail if sign == "+" else "-" + tail
        return "%s%s%s" % (str(self.a), sign, tail)

    def __repr__(self):
        return "QuadExt(%r, %r, %d)" % (str(self.a), str(self.b), self.d)


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


def quadext_sqrt(x: BranchExt):
    """A square root of x in its extension base(w), or None.

    (u + v*w)^2 = x splits into u^2 + r*v^2 = a and 2*u*v = b, so the norm
    a^2 - r*b^2 is the square of u^2 - r*v^2 and u^2 is (a +- sqrt(norm))/2.
    Which of the two roots comes back is up to the base's square root;
    ``poly.QuadDomain.sqrt`` picks the positive one.
    """
    ext = x.ext
    base = ext.base
    if base.is_zero(x.b):
        r = base.sqrt(x.a)
        if r is not None:
            return x._trusted(r, base.zero, ext)
        r = base.sqrt(base.div(x.a, ext.radicand))
        return None if r is None else x._trusted(base.zero, r, ext)
    e = base.sqrt(x.norm())
    if e is None:
        return None
    for s in (e, -e):
        u = base.sqrt(base.div(x.a + s, base.coerce(2)))
        if u is not None and not base.is_zero(u):
            return x._trusted(u, base.div(x.b, u * 2), ext)
    return None


def _mpf_from_fraction(q: Fraction, bits: int):
    data = mpmath.libmp.from_rational(
        q.numerator, q.denominator, bits, mpmath.libmp.round_nearest
    )
    return mpmath.mp.make_mpf(data)


def to_bigfloat(x, bits: int = DEFAULT_PRECISION):
    """Round an exact scalar (int, Fraction or BranchExt, whose parts may
    themselves be extension elements) or an mpmath number to the given
    binary precision.

    Rational input is correctly rounded.  a + b*sqrt(r) is evaluated with
    32 guard bits and rounded once; a negative radicand gives an mpc."""
    if isinstance(x, BranchExt):
        parts = x.a, x.b, x.ext.radicand
    elif isinstance(x, Fraction):
        return _mpf_from_fraction(x, bits)
    else:
        with mpmath.workprec(bits):
            return +mpmath.mpmathify(x)
    guard = bits + 32
    a, b, r = (to_bigfloat(v, guard) for v in parts)
    with mpmath.workprec(guard):
        val = a + b * mpmath.sqrt(r)
    with mpmath.workprec(bits):
        return +val
