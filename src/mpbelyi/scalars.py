"""Exact scalars: rationals, quadratic extensions, big floats, and the
arithmetic protocol every exact element type of the package shares.

Everything upstream of the final numeric checks is exact.  Rationals are
stdlib ``fractions.Fraction`` (already gcd-reduced with positive
denominator).  ``BranchExt`` is the one quadratic-extension element, a + b*w
over any base field, with w^2 a fixed non-square of that field; its domain
is ``poly.BranchExtDomain``.  ``QuadExt`` is the ``BranchExt`` over QQ with
w = sqrt(d) for a square-free d > 1, which ``poly.QuadDomain`` checks
(production runs use d = 105).  It holds (n + s*sqrt(d))/q on integers with
q > 0 and gcd(n, s, q) = 1, the standard number-field representation (H.
Cohen, "A Course in Computational Algebraic Number Theory", 1993, sec. 4.2;
W. Hart's ANTIC, ``qnf_elem``): the form is canonical, so ``==`` and
``hash`` compare integers, and every sum, product and inverse costs one
integer gcd instead of about ten inside ``Fraction``.  Its rational parts
``a``/``rat`` and ``b``/``surd`` are read-only Fraction views.  The generic
``BranchExt`` arithmetic serves every other base: a tower over Q(sqrt(d)),
whose parts are ``QuadExt``, and the function field of a curve y^2 = f(x),
the extension of Frac(K[x]) with w = y, whose elements P(x) + y*Q(x) are
``curve.FunctionFieldElement``.  ``quadext_sqrt`` is the one square root in
any extension.  ``to_bigfloat`` is the one conversion from exact scalars to
``mpmath`` numbers, at an explicitly requested binary precision (default
128 bits).

``RingOps`` writes ``-``, its reflection and integer ``**`` once, and
``FieldOps`` adds ``/`` and its reflection, for the package's exact element
types: ``BranchExt`` (with ``QuadExt`` and ``curve.FunctionFieldElement``),
``poly.MultiPoly`` (a ring), ``poly.RationalFunction`` and
``series.LaurentSeries``.  A type provides ``_wrap`` (the other
operand as an element of its own ring, or None), ``+``, unary ``-``, ``*``
and, on a field, ``inverse()``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

DEFAULT_PRECISION = 128


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
        inv = self.ext.base.inv(n)
        return self._trusted(self.a * inv, -self.b * inv, self.ext)

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
    """(n + s*sqrt(d))/q with n, s, q ints, q > 0 and gcd(n, s, q) == 1, d
    square-free and d > 1: the ``BranchExt`` over QQ whose extension is
    ``poly.QuadDomain(d)``.

    The integer form is canonical, so ``==`` and ``hash`` compare integers
    and every result costs one ``math.gcd(n, s, q)``; zero is (0, 0, 1).
    ``a``/``rat`` and ``b``/``surd`` are the rational parts n/q and s/q, as
    read-only Fractions.  The public constructor takes int or Fraction
    parts; plain ints and Fractions mix freely (lifted to surd part 0).
    """

    __slots__ = ("n", "s", "q")

    def __init__(self, rat, surd=0, d: int = 105):
        for part in (rat, surd):
            if not isinstance(part, (int, Fraction)):
                raise TypeError("QuadExt parts must be int or Fraction, got %r" % (part,))
        from .poly import QuadDomain  # poly imports this module

        _set_parts(self, rat, surd, QuadDomain(d))

    @classmethod
    def _trusted(cls, a, b, ext):
        """The element a + b*sqrt(d) from rational parts a and b, as the
        domain's coercions and ``quadext_sqrt`` build it."""
        x = object.__new__(cls)
        _set_parts(x, a, b, ext)
        return x

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        q, oq = self.q, o.q
        if q == oq:
            return _reduced(self.n + o.n, self.s + o.s, q, self.ext)
        return _reduced(self.n * oq + o.n * q, self.s * oq + o.s * q, q * oq, self.ext)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.n, -self.s, self.q, self.ext)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        n, s, on, os = self.n, self.s, o.n, o.s
        return _reduced(
            n * on + self.ext.d * s * os, n * os + s * on, self.q * o.q, self.ext
        )

    __rmul__ = __mul__

    def inverse(self):
        # q/(n + s*sqrt(d)) = q*(n - s*sqrt(d))/(n^2 - d*s^2)
        n, s, q = self.n, self.s, self.q
        m = n * n - self.ext.d * s * s
        if not m:
            raise ZeroDivisionError("division by zero in %s" % self.ext.name)
        if m < 0:
            m, q = -m, -q
        return _reduced(q * n, -q * s, m, self.ext)

    # -- field-specific ------------------------------------------------

    def conj(self):
        """Galois conjugate: sqrt(d) -> -sqrt(d)."""
        return _reduced(self.n, -self.s, self.q, self.ext)

    def norm(self) -> Fraction:
        """(n^2 - d*s^2)/q^2, the product with the conjugate."""
        n, s, q = self.n, self.s, self.q
        return Fraction(n * n - self.ext.d * s * s, q * q)

    @property
    def a(self) -> Fraction:
        return Fraction(self.n, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.s, self.q)

    rat, surd = a, b

    @property
    def d(self) -> int:
        return self.ext.d

    def sign(self) -> int:
        """Sign under the real embedding sqrt(d) > 0."""
        n, s = self.n, self.s
        u, t = (n > 0) - (n < 0), (s > 0) - (s < 0)
        if u == t or not t:
            return u
        if not u:
            return t
        # opposite signs: the larger of n^2 and d*s^2 (never equal) wins
        return u if n * n > self.ext.d * s * s else t

    # -- comparisons / hashing ------------------------------------------

    def __bool__(self):
        return bool(self.n or self.s)

    def __eq__(self, other):
        # not _wrap: comparing elements of two extensions is no error
        ext = self.ext
        if isinstance(other, QuadExt) and (other.ext is ext or other.ext == ext):
            return self.n == other.n and self.s == other.s and self.q == other.q
        try:
            a = ext.base.coerce(other)
        except TypeError:
            return NotImplemented
        return not self.s and self.n == a.numerator and self.q == a.denominator

    def __hash__(self):
        # equal to its rational part when s is zero, so hash like it
        if not self.s:
            return hash(self.n) if self.q == 1 else hash(Fraction(self.n, self.q))
        return hash((self.n, self.s, self.q))

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        tail = "sqrt(%d)" % self.d
        if abs(b) != 1:
            tail = "%s*%s" % (str(abs(b)), tail)
        sign = "-" if b < 0 else "+"
        if a == 0:
            return tail if sign == "+" else "-" + tail
        return "%s%s%s" % (str(a), sign, tail)

    def __repr__(self):
        return "QuadExt(%r, %r, %d)" % (str(self.a), str(self.b), self.d)


# QuadExt keeps BranchExt's a and b slots unused: its a and b are views
_set_n, _set_s, _set_q = QuadExt.n.__set__, QuadExt.s.__set__, QuadExt.q.__set__
_new = object.__new__


def _reduced(n, s, q, ext):
    """The QuadExt (n + s*sqrt(d))/q, q > 0: one gcd makes it canonical."""
    g = math.gcd(n, s, q)
    if g != 1:
        n, s, q = n // g, s // g, q // g
    x = _new(QuadExt)
    _set_n(x, n)
    _set_s(x, s)
    _set_q(x, q)
    _set_ext(x, ext)
    return x


def _set_parts(x, a, b, ext):
    # over the lcm of two reduced denominators n, s and q share no factor
    ad, bd = a.denominator, b.denominator
    q = ad if ad == bd else math.lcm(ad, bd)
    _set_n(x, a.numerator * (q // ad))
    _set_s(x, b.numerator * (q // bd))
    _set_q(x, q)
    _set_ext(x, ext)


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
