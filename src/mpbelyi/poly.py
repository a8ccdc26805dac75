"""Sparse multivariate polynomial arithmetic over exact coefficient domains.

Polynomials are dicts mapping exponent tuples to nonzero coefficients,
ordered graded-lex for rendering and division.  Coefficient domains are
instances of ``Field``: QQ (Fraction), FractionFieldDomain (coefficients
that are themselves rational functions, used for series with symbolic
parameters) and the quadratic extensions BranchExtDomain (base(w), elements
``scalars.BranchExt``).  QuadDomain(d), Q(sqrt(d)) with elements
``scalars.QuadExt``, is the one over QQ, and ``curve.CurveModel``, the
function field of y^2 = f(x) with elements ``curve.FunctionFieldElement``,
the one over Frac(K[x]) with w = y.  The one ring is ZZ (Python ints),
which products over QQ and the elimination layer run on.

The elimination-theory layer (gcd, resultants, fraction-free determinants,
nullspaces) runs on these polynomials with divisions that are exact by
construction; nothing here ever rounds.  ``resultant`` and
``det_fraction_free`` clear the denominators of QQ input (per polynomial,
per matrix row), run on ZZ, where every exact division is an integer
``//``, and scale the result back to QQ once; ``discriminant`` reaches ZZ
through ``resultant``.  A product of two QQ polynomials does the same: it
multiplies their cleared integer forms and scales each output term back
once, and so does a whole sum of products over Frac(Q[a,c]) whose
denominators are one (``FractionFieldDomain.lincomb``, one series
coefficient).  On the benchmark's eliminations and series expansions
that removes nearly all ``Fraction`` arithmetic.  On ZZ, resultants
evaluate at integer points, take the subresultant PRS (G. E. Collins
1967; W. S. Brown 1971) of dense univariate integer polynomials and
interpolate (Collins 1971), and determinants run Bareiss's elimination
(E. H. Bareiss 1968).

One normal-form rule covers every domain: a nonzero polynomial is
``unit * normal form`` with the unit ``dom.normal_unit(p)``, its leading
coefficient, so the normal form is monic.  QQ alone takes the content with
the sign of the leading coefficient as its unit, which leaves the
primitive-integer form (integer coefficients with gcd 1 and a positive
leading coefficient) that the elimination goldens are stored in.  That is
the form of gcds, of ``primitive`` parts and of the denominator of a
``RationalFunction``, so equal rational functions have identical num and
den, and ``==`` compares those parts.  A constant is coprime to any
polynomial, so normalising runs no gcd when num or den is constant: num/k
is num*(1/k) over one.  Over Frac(Q[a,c]) every coefficient of the ansatz
curve's frames has a constant denominator.

Univariate products, derivatives, gcds and exact divisions over
Q(sqrt(d)) run on integers (``_quad_mul``, ``_quad_gcd``,
``_quad_divide_out``): a polynomial is two dense int lists N and S and a
common denominator L, coefficient k being (N[k] + S[k]*sqrt(d))/L.  A
product is four integer convolutions, as a product over QQ runs on ZZ.  A
divisor is multiplied by the conjugate of its lead, so that the lead is a
positive integer m, and a division step scales by m/gcd(m, lead of the
remainder) only; the gcd's remainders lose their integer content.  A
``QuadExt`` is built once per output coefficient, so the loops do no
element arithmetic and no gcd per coefficient operation, and each
polynomial keeps its pairs: it is converted once, and what a kernel builds
starts with them.
Everything else (QQ, multivariate input, the other fields) runs the
subresultant PRS: over Frac(Q[a,c]) a monic remainder would cost one
multivariate gcd per coefficient, and on gcd(f, f') of the ansatz quartic
monic Euclid took about 3.5 s against 0.03 s for the PRS (Python 3.11 on a
2-vCPU Xeon).

Every exact sparse division (gcd cofactors, contents, PRS quotients,
``divide_out`` for orders along a divisor) goes through ``exact_divide``.
It keeps the remainder in place, as a dict plus a heap of its monomials in
graded-lex order, so a division costs about |quotient|*|divisor|
coefficient operations plus the heap work instead of one full remainder
rebuild per quotient term.

Both kernels, the product ``_mul_terms`` and ``exact_divide``, work on
packed monomials (M. Monagan and R. Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): each
exponent tuple is packed once per call into one int, a bit field per
variable with the first variable highest, so a monomial product is one int
addition and the inner loops build no tuples.  A product's fields are wide
enough for the largest exponent sum, so no field carries into the next.
The division key puts the total degree in a field above the exponents
(for more than one variable), so int order is graded-lex order, and gives
every field one guard bit above its value: lead(q) divides a monomial
exactly when subtracting its key from the monomial's, with every guard bit
set, leaves every guard bit set.  ``MultiPoly.terms`` keeps its tuple keys;
each result monomial is unpacked once.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import reduce
from itertools import count, repeat
from operator import add, itemgetter, mul, sub

from .scalars import BranchExt, FieldOps, QuadExt, RingOps, _reduced, quadext_sqrt, rational_sqrt_exact


# --------------------------------------------------------------------------
# coefficient domains


class Field:
    """Coefficient domain protocol.  Every domain in the package is a field,
    except ``ZZ``, the one ring, which QQ products and the elimination
    layer run on.

    Subclasses provide ``name``, ``zero``, ``one``, ``coerce`` (which returns
    the domain's own elements unchanged) and ``sqrt``, and override the rest
    only where they differ.

    ``lincomb(items)`` is the sum of w*x*y over items (w, x, y), with w an
    int or a ``Fraction`` and x, y elements of the domain; y None stands for
    one.  No items give ``zero``.  The result is the element the same sum of
    products gives, in its normal form, so a domain may compute it any way
    it likes.  The default sums the products of each run of equal weights,
    then multiplies the run's sum by its weight once (not at all for 1 and
    -1, which add and subtract).
    """

    def is_zero(self, x) -> bool:
        return not x

    def div(self, x, y):
        return x / y

    def inv(self, x):
        """1/x for a nonzero element x: one inversion."""
        return x.inverse()

    def quo(self, x, y):
        """x/y when y divides x, else None; in a field y always does."""
        return x / y

    def content_gcd(self, x, y):
        # every nonzero element of a field is a unit
        return self.one

    def normal_unit(self, p: "MultiPoly"):
        """The unit u of nonzero p whose quotient p/u is p's normal form:
        the leading coefficient, so the normal form is monic."""
        return p.leading()[1]

    def divide_terms(self, terms: dict, u) -> dict:
        """The terms divided by the unit u: one inversion, then a product
        per term."""
        inv = self.inv(u)
        return {e: k * inv for e, k in terms.items()}

    def lincomb(self, items):
        total = run = weight = None
        for w, x, y in items:
            p = x if y is None else x * y
            if run is not None and (w is weight or w == weight):
                run = run + p
            else:
                total = _add_weighted(total, run, weight)
                run, weight = p, w
        total = _add_weighted(total, run, weight)
        return self.zero if total is None else total

    def render(self, x) -> str:
        return "(%s)" % x

    def __repr__(self):
        return self.name


def _add_weighted(total, run, w):
    """total + w*run, where a None total or run stands for zero."""
    if run is None:
        return total
    if w == -1:
        return -run if total is None else total - run
    if w != 1:
        run = run * w
    return run if total is None else total + run


class RationalDomain(Field):
    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, BranchExt) and isinstance(x.ext.base, RationalDomain) and not x.b:
            return x.a
        raise TypeError("cannot coerce %r into QQ" % (x,))

    def inv(self, x):
        return self.one / x

    def content_gcd(self, x, y):
        # gcd of two rationals: gcd of numerators over lcm of denominators
        return Fraction(
            math.gcd(x.numerator, y.numerator),
            math.lcm(x.denominator, y.denominator),
        )

    def normal_unit(self, p: "MultiPoly"):
        """The content with the sign of the leading coefficient, so the
        normal form is primitive-integer with a positive leading coefficient."""
        n, d = 0, 1
        for c in p.terms.values():
            n = math.gcd(n, c.numerator)
            d = math.lcm(d, c.denominator)
        return Fraction(n if p.leading()[1] > 0 else -n, d)

    def sqrt(self, x):
        return rational_sqrt_exact(x)

    def render(self, x) -> str:
        return str(x)


class BranchExtDomain(Field):
    """base(w), w^2 = radicand (a non-square of base), with elements of
    class ``element_class``."""

    element_class = BranchExt

    def __init__(self, base, radicand):
        self.base = base
        self.radicand = radicand
        self.name = "%s(w)" % base.name
        self.zero = self.element_class._trusted(base.zero, base.zero, self)
        self.one = self.element_class._trusted(base.one, base.zero, self)

    def w(self):
        return self.element_class._trusted(self.base.zero, self.base.one, self)

    def coerce(self, x):
        if isinstance(x, BranchExt) and (x.ext is self or x.ext == self):
            return x
        try:
            a = self.base.coerce(x)
        except TypeError:
            raise TypeError("cannot coerce %r into %s" % (x, self.name)) from None
        return self.element_class._trusted(a, self.base.zero, self)

    def div(self, x, y):
        return self.coerce(x) / self.coerce(y)

    def sqrt(self, x):
        return quadext_sqrt(self.coerce(x))

    def render(self, x) -> str:
        s = str(x)
        return "(%s)" % s if ("+" in s[1:] or "-" in s[1:]) else s

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.base == self.base
            and other.radicand == self.radicand
        )

    def __hash__(self):
        return hash(("BranchExtDomain", repr(self.base), self.radicand))


class QuadDomain(BranchExtDomain):
    """Q(sqrt(d)): the branch extension of QQ with radicand d, elements
    ``QuadExt``.  d must be a square-free integer > 1 (else ValueError).
    There is one instance per d, so the elements of one field share their
    ``ext``."""

    # univariate products, derivatives, gcds and exact divisions run on
    # integer pairs (_quad_mul, _quad_gcd, _quad_divide_out), not on these
    # elements
    element_class = QuadExt
    _by_d: dict = {}

    def __new__(cls, d: int):
        # d = 4 has zero divisors, (w-2)(w+2) = 0; d = 12 is a second Q(sqrt(3))
        if not (isinstance(d, int) and d > 1
                and all(d % (p * p) for p in range(2, math.isqrt(d) + 1))):
            raise ValueError("d must be a square-free integer > 1, got %r" % (d,))
        self = cls._by_d.get(d)
        if self is None:
            self = cls._by_d[d] = super().__new__(cls)
            self.d = d
            BranchExtDomain.__init__(self, QQ, Fraction(d))
            self.name = "Q(sqrt(%d))" % d
        return self

    def __init__(self, d: int):
        pass  # set up once per d, in __new__

    def sqrt(self, x):
        r = super().sqrt(x)
        return -r if r is not None and r.sign() < 0 else r


class FractionFieldDomain(Field):
    """Coefficients that are RationalFunction over an inner polynomial ring."""

    def __init__(self, inner_dom, inner_vars: tuple):
        self.inner_dom = inner_dom
        self.inner_vars = tuple(inner_vars)
        self.name = "Frac(%s[%s])" % (inner_dom.name, ",".join(self.inner_vars))
        base = MultiPoly.const(inner_dom, self.inner_vars, inner_dom.one)
        self.one = RationalFunction(base, base)
        self.zero = RationalFunction(base * 0, base)
        # the exponents of a constant, when lincomb can run on integers: over
        # QQ, in at least one variable
        self._unit_exp = None
        if inner_dom is QQ and self.inner_vars:
            self._unit_exp = (0,) * len(self.inner_vars)

    def lincomb(self, items):
        """Over QQ, when every operand's denominator is one (the normal form
        of a constant denominator), the sum is a polynomial over one, and it
        runs on integers with one normalisation per output term: delayed
        normalisation (M. Monagan and R. Pearce, CASC 2007) on the integer
        numerator and common denominator of FLINT's ``fmpq_poly`` (W. Hart,
        ICMS 2010).  Each operand's numerator is cleared to ZZ once, on its
        first use, and kept with the operand (``RationalFunction._cleared``);
        every product w*(D/d)*X*Y goes into one dict keyed by packed
        monomials over the common denominator D, and each output coefficient
        is built once as Fraction(k, D).  The output keeps its own cleared
        form, the sums and D divided by their gcd, so the next ``lincomb``
        does not clear it again.  Any other denominator takes the
        default."""
        items = list(items)
        e0 = self._unit_exp
        dens = [x.den.terms for _, x, _ in items]
        dens += [y.den.terms for _, _, y in items if y is not None]
        if e0 is None or not all(len(t) == 1 and e0 in t for t in dens):
            return super().lincomb(items)
        one = self.one
        parts, top = [], 0
        for w, x, y in items:
            lx, zx, tx = x._cleared()
            ly, zy, ty = (one if y is None else y)._cleared()
            if zx and zy:
                top = max(top, tx + ty)
                parts.append((w.numerator, w.denominator * lx * ly, zx, zy))
        if not parts:
            return self.zero
        D = math.lcm(*(d for _, d, _, _ in parts))
        # packed as in _mul_terms: no field of a sum exceeds ``top``
        width = max(top.bit_length(), 1)
        acc: dict = {}
        for wn, d, xt, yt in parts:
            c = wn * (D // d)
            xk = [(_pack(e, width), c * k) for e, k in xt.items()]
            for kb, b in [(_pack(e, width), k) for e, k in yt.items()]:
                for ka, a in xk:
                    k = ka + kb
                    s = acc.get(k)
                    acc[k] = a * b if s is None else s + a * b
        # the cleared form of the sum, kept as its _zz: what _cleared would
        # compute from the Fractions
        g = math.gcd(D, *acc.values())
        L = D // g
        zt = _unpack_terms({k: v // g for k, v in acc.items() if v}, width, len(e0))
        num = MultiPoly._nonzero(QQ, self.inner_vars, {e: Fraction(v, L) for e, v in zt.items()})
        out = RationalFunction._reduced(num, self.one.den)
        object.__setattr__(out, "_zz", (L, zt, max(map(max, zt), default=0)))
        return out

    def coerce(self, x):
        # a polynomial or rational function of another ring may be a scalar
        # of inner_dom: one in a, c is, when inner_dom is Frac(Q[a,c])
        if isinstance(x, RationalFunction):
            if x.num.vars == self.inner_vars and x.num.dom == self.inner_dom:
                return x
        elif isinstance(x, MultiPoly):
            if x.vars == self.inner_vars and x.dom == self.inner_dom:
                return RationalFunction(x)
        c = self.inner_dom.coerce(x)
        if self.inner_dom.is_zero(c):
            return self.zero
        if c == self.inner_dom.one:
            return self.one
        # a constant over one is already reduced
        return RationalFunction._reduced(
            MultiPoly.const(self.inner_dom, self.inner_vars, c), self.one.den
        )

    def sqrt(self, x):
        return ratfunc_sqrt(x)

    def __eq__(self, other):
        return (
            isinstance(other, FractionFieldDomain)
            and other.inner_dom == self.inner_dom
            and other.inner_vars == self.inner_vars
        )

    def __hash__(self):
        return hash(("FractionFieldDomain", repr(self.inner_dom), self.inner_vars))


class IntegerRing:
    """ZZ: Python ints, the coefficient ring that QQ products, ``resultant``
    and ``det_fraction_free`` run on after clearing the denominators of
    their QQ input.  It is not a field:
    ``quo`` is exact integer division, None when a remainder is left, and
    the normal unit is the content with the sign of the leading
    coefficient."""

    name = "ZZ"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        raise TypeError("cannot coerce %r into ZZ" % (x,))

    def is_zero(self, x) -> bool:
        return not x

    def quo(self, x, y):
        q, r = divmod(x, y)
        return None if r else q

    def content_gcd(self, x, y):
        return math.gcd(x, y)

    def normal_unit(self, p: "MultiPoly"):
        n = math.gcd(*p.terms.values())
        return n if p.leading()[1] > 0 else -n

    def divide_terms(self, terms: dict, u) -> dict:
        return {e: k // u for e, k in terms.items()}

    def render(self, x) -> str:
        return str(x)

    def __repr__(self):
        return self.name


QQ = RationalDomain()
ZZ = IntegerRing()


# --------------------------------------------------------------------------
# polynomials


def _grlex_key(exps):
    return (sum(exps), exps)


def _pack(fields, width: int) -> int:
    """The fields as one int, ``width`` bits each, the first one highest."""
    key = 0
    for x in fields:
        key = (key << width) | x
    return key


def _unpack_terms(terms: dict, width: int, n: int) -> dict:
    """``terms`` with each packed key read back as the tuple of its n lowest
    ``width``-bit fields, highest first; a column of fields at a time."""
    mask = (1 << width) - 1
    cols = [[(k >> s) & mask for k in terms] for s in range(width * (n - 1), -1, -width)]
    return dict(zip(zip(*cols) if n else repeat(()), terms.values()))


def _grlex_pack(exps, width: int) -> int:
    """The exponent tuple packed so that int order is graded-lex order:
    the total degree in the highest field, then the exponents; a univariate
    exponent is its own degree and stands alone."""
    return _pack((sum(exps),) + exps if len(exps) > 1 else exps, width)


def _mul_terms(p: dict, q: dict) -> dict:
    """The schoolbook product of two term dicts; sums that cancel stay in
    as zeros for the ``MultiPoly`` constructor to drop.

    A one-term factor scales and shifts the other directly.  Otherwise each
    exponent tuple is packed once into an int (Monagan and Pearce 2007), a
    field of W = bit_length(max_p + max_q) bits per variable, first
    variable highest, with max_p and max_q the largest exponents of the two
    factors: no field of a sum exceeds max_p + max_q, so no sum carries
    into the next field and a monomial product is one int addition.  A
    univariate key is the exponent itself.  Each output monomial is
    unpacked once.
    """
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        ((ea, ca),) = p.items()
        return {tuple(map(add, ea, eb)): ca * cb for eb, cb in q.items()}
    n = len(next(iter(p)))
    w = (max(map(max, p)) + max(map(max, q))).bit_length()
    pk = [(_pack(e, w), c) for e, c in p.items()]
    qk = [(_pack(e, w), c) for e, c in q.items()]
    out: dict = {}
    for ka, ca in pk:
        for kb, cb in qk:
            k = ka + kb
            s = out.get(k)
            if s is None:
                out[k] = ca * cb
            else:
                out[k] = s + ca * cb
    return _unpack_terms(out, w, n)


class MultiPoly(RingOps):
    """Sparse polynomial: {exponent tuple: nonzero coefficient}.

    Univariate over Q(sqrt(d)), ``_pairs`` holds its integer-pair form once
    ``_quad_ints`` has computed it or a pair kernel has built it
    (``_quad_poly``); terms are never changed in place, so it never goes
    stale."""

    __slots__ = ("dom", "vars", "terms", "_pairs")

    def __init__(self, dom, variables, terms: dict):
        self.dom = dom
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if not dom.is_zero(c)}

    # -- constructors ----------------------------------------------------

    @classmethod
    def _nonzero(cls, dom, variables: tuple, terms: dict) -> "MultiPoly":
        """A polynomial from terms whose coefficients are all nonzero, so
        no term is tested for zero again."""
        out = object.__new__(cls)
        out.dom = dom
        out.vars = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, dom, variables):
        return cls(dom, variables, {})

    @classmethod
    def const(cls, dom, variables, c):
        c = dom.coerce(c)
        zero_exp = (0,) * len(tuple(variables))
        return cls(dom, variables, {zero_exp: c})

    @classmethod
    def var(cls, dom, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise KeyError("undeclared variable %r" % name)
        e = tuple(1 if v == name else 0 for v in variables)
        return cls(dom, variables, {e: dom.one})

    @classmethod
    def from_univariate(cls, dom, varname, coeffs):
        """coeffs[k] multiplies varname**k."""
        return cls(dom, (varname,), {(k,): dom.coerce(c) for k, c in enumerate(coeffs)})

    # -- bookkeeping ------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        # the same domain object on both sides is the common case: no __eq__
        if self.vars != other.vars or not (self.dom is other.dom or self.dom == other.dom):
            raise ValueError(
                "incompatible polynomial rings %s[%s] vs %s[%s]"
                % (self.dom, self.vars, other.dom, other.vars)
            )

    def _wrap(self, x):
        if isinstance(x, MultiPoly):
            self._check_compatible(x)
            return x
        try:
            return MultiPoly.const(self.dom, self.vars, x)
        except TypeError:
            return None

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.dom.zero
        if not self.is_constant():
            raise ValueError("%s is not constant" % self)
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def uses(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def leading(self):
        """(exponent tuple, coefficient) largest in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                out[e] = s + c
        return MultiPoly(self.dom, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.dom, self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return MultiPoly.zero(self.dom, self.vars)
        if len(self.terms) > 1 and len(o.terms) > 1:
            if self.dom is QQ:
                # an integer product, scaled back once per output term
                (la, (za,)), (lb, (zb,)) = _clear_denominators([self]), _clear_denominators([o])
                zp = MultiPoly(ZZ, self.vars, _mul_terms(za.terms, zb.terms))
                return _to_qq(zp, Fraction(1, la * lb))
            if len(self.vars) == 1 and isinstance(self.dom, QuadDomain):
                return _quad_mul(self, o)
        # a one-term factor only scales: no cheaper on integers
        return MultiPoly(self.dom, self.vars, _mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def scale(self, c):
        c = self.dom.coerce(c)
        if self.dom.is_zero(c):
            return MultiPoly.zero(self.dom, self.vars)
        return MultiPoly(self.dom, self.vars, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                (self.dom is other.dom or self.dom == other.dom)
                and self.vars == other.vars
                and self.terms == other.terms
            )
        try:
            o = MultiPoly.const(self.dom, self.vars, other)
        except TypeError:
            return NotImplemented
        return self.terms == o.terms

    # -- coefficient extraction / substitution ------------------------------

    def coeff_of_power(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name**k, as a polynomial with that variable absent."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1 :]] = c
        return MultiPoly(self.dom, self.vars, out)

    def coefficient(self, exps: dict):
        """Coefficient of the monomial prod(var**e); exps maps names to powers."""
        target = tuple(exps.get(v, 0) for v in self.vars)
        return self.terms.get(target, self.dom.zero)

    def univariate_coeffs(self, name: str):
        """Dense coefficient list [c0..cN] in name; other variables must be absent."""
        i = self.vars.index(name)
        for e in self.terms:
            if any(e[j] for j in range(len(e)) if j != i):
                raise ValueError("polynomial is not univariate in %s" % name)
        n = self.degree_in(name)
        out = [self.dom.zero] * (n + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    def subs(self, mapping: dict) -> "MultiPoly":
        """Substitute variables; values are MultiPoly (all over one target ring)
        or coercible scalars.  Unmapped variables must exist in the target ring."""
        targets = {}
        out_vars = None
        out_dom = None
        for name, val in mapping.items():
            if name not in self.vars:
                raise KeyError("undeclared variable %r" % name)
            if isinstance(val, MultiPoly):
                if out_vars is None:
                    out_vars, out_dom = val.vars, val.dom
                elif val.vars != out_vars or val.dom != out_dom:
                    raise ValueError("substitution targets live in different rings")
                targets[name] = val
        if out_vars is None:
            out_vars, out_dom = self.vars, self.dom
        for name, val in mapping.items():
            if not isinstance(val, MultiPoly):
                targets[name] = MultiPoly.const(out_dom, out_vars, val)
        for name in self.vars:
            if name not in targets:
                if name not in out_vars:
                    raise ValueError("variable %r missing from target ring" % name)
                targets[name] = MultiPoly.var(out_dom, out_vars, name)
        acc = MultiPoly.zero(out_dom, out_vars)
        pow_cache = {name: {0: MultiPoly.const(out_dom, out_vars, out_dom.one)} for name in self.vars}
        for e, c in self.terms.items():
            term = MultiPoly.const(out_dom, out_vars, c)
            for i, name in enumerate(self.vars):
                k = e[i]
                if k == 0:
                    continue
                cache = pow_cache[name]
                if k not in cache:
                    top = max(cache)
                    cur = cache[top]
                    while top < k:
                        cur = cur * targets[name]
                        top += 1
                        cache[top] = cur
                term = term * cache[k]
            acc = acc + term
        return acc

    def eval_scalars(self, values: dict):
        """Fully evaluate at scalar values; returns a domain element."""
        acc = self.dom.zero
        vals = {v: self.dom.coerce(values[v]) for v in self.vars}
        for e, c in self.terms.items():
            t = c
            for i, v in enumerate(self.vars):
                if e[i]:
                    t = t * vals[v] ** e[i]
            acc = acc + t
        return acc

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        if len(self.vars) == 1 and isinstance(self.dom, QuadDomain) and not self.is_constant():
            # k*N[k] + k*S[k]*sqrt(d) over the same L
            N, S, L = _quad_ints(self)
            ks = range(1, len(N))
            return _quad_poly(self, [k * N[k] for k in ks], [k * S[k] for k in ks], 1, L)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
        return MultiPoly(self.dom, self.vars, out)

    def with_vars(self, new_vars) -> "MultiPoly":
        """Reinterpret over a different variable tuple (embedding or projection);
        dropped variables must not occur."""
        new_vars = tuple(new_vars)
        pos = {v: i for i, v in enumerate(new_vars)}
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, v in enumerate(self.vars):
                if e[i]:
                    if v not in pos:
                        raise ValueError("variable %r still occurs" % v)
                    ne[pos[v]] = e[i]
            out[tuple(ne)] = c
        return MultiPoly(self.dom, new_vars, out)

    # -- content / normalization -------------------------------------------

    def primitive(self):
        """(unit, normal form) with self = unit * normal form.

        The unit is ``dom.normal_unit(self)``: the leading coefficient, so
        the normal form is monic, except over QQ, where it is the content
        with the sign of the leading coefficient and the normal form is
        primitive-integer (over ZZ likewise).  The zero polynomial gives
        (0, 0)."""
        if not self.terms:
            return self.dom.zero, self
        u = self.dom.normal_unit(self)
        if u == self.dom.one:
            return u, self
        return u, MultiPoly(self.dom, self.vars, self.dom.divide_terms(self.terms, u))

    def primitive_part(self):
        return self.primitive()[1]

    # -- rendering -----------------------------------------------------------

    def _render_monomial(self, e):
        parts = []
        for i, v in enumerate(self.vars):
            if e[i] == 1:
                parts.append(v)
            elif e[i] > 1:
                parts.append("%s^%d" % (v, e[i]))
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        chunks = []
        for e, c in items:
            mono = self._render_monomial(e)
            cs = self.dom.render(c)
            neg = cs.startswith("-")
            body = cs[1:] if neg else cs
            if mono:
                if body == "1":
                    body = mono
                else:
                    body = "%s*%s" % (body, mono)
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("-" if neg else "+") + body)
        return "".join(chunks)

    def __repr__(self):
        return "MultiPoly(%s; %s)" % (",".join(self.vars), self)


# --------------------------------------------------------------------------
# exact division


def exact_divide(p: MultiPoly, q: MultiPoly):
    """Quotient p/q when q divides p exactly, else None.  q must be nonzero.

    Sparse division with the remainder kept in place (S. C. Johnson 1974;
    Monagan and Pearce 2007): a dict of its terms plus a max-heap of its
    monomials in graded-lex order.  Each quotient term c*x^diff subtracts
    c*k at diff + e for the non-leading terms k*x^e of q, deleting what
    cancels and pushing what is new; cancelled monomials stay in the heap
    and are skipped when popped.  That costs about |quotient|*|q|
    coefficient operations plus the heap work, where rebuilding the
    remainder would cost |quotient|*|remainder| term copies.

    Monomials are packed ints, as in Monagan and Pearce: the total degree
    in the highest field, then e0 ... e(n-1) (a univariate key is just the
    exponent), so int order is graded-lex order and the heap holds negated
    keys.  No remainder monomial exceeds deg p in total degree, so each
    field holds bit_length(deg p) value bits under one guard bit.  lead(q)
    divides the remainder's leading monomial exactly when
    ``(key | guard) - lead_key`` keeps every guard bit: a field of lead(q)
    larger than the remainder's borrows its own guard bit and no other.

    The answer is None as soon as lead(q) fails to divide the leading
    monomial of the remainder, or its coefficient (``dom.quo``, which over
    a field always divides and over ZZ finds a remainder).

    Univariate input over Q(sqrt(d)) runs on integer pairs instead
    (``_quad_divide_out``), with the same answers.
    """
    if not isinstance(q, MultiPoly):
        q = MultiPoly.const(p.dom, p.vars, q)
    p._check_compatible(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return p
    if len(p.vars) == 1 and isinstance(p.dom, QuadDomain):
        k, cofactor = _quad_divide_out(p, q, 1)
        return cofactor if k else None
    dom = p.dom
    qe, qc = q.leading()
    top = p.total_degree()
    if sum(qe) > top:
        return None  # lead(q) divides no monomial of p
    # every remainder monomial is below one of p's in graded-lex order, so
    # no exponent or degree exceeds top
    n = len(p.vars)
    width = top.bit_length() + 1
    nfields = n + 1 if n > 1 else n
    guard = _pack((1 << (width - 1),) * nfields, width)
    qk = _grlex_pack(qe, width)
    # the tail of q negated once, so that the loop below only adds
    tail = [(_grlex_pack(e, width), -k) for e, k in q.terms.items() if e != qe]
    rem = {_grlex_pack(e, width): c for e, c in p.terms.items()}
    heap = [-k for k in rem]  # heapq's min-heap pops the largest key first
    heapq.heapify(heap)
    quot_terms: dict = {}
    while heap:
        rk = -heapq.heappop(heap)
        rc = rem.pop(rk, None)
        if rc is None:
            continue  # cancelled, or a duplicate entry
        # a field of lead(q) above the remainder's borrows its guard bit
        diff = (rk | guard) - qk
        if diff & guard != guard:
            return None
        c = dom.quo(rc, qc)
        if c is None:
            return None
        diff ^= guard
        quot_terms[diff] = c
        for e, k in tail:
            m = diff + e
            s = rem.get(m)
            if s is None:
                rem[m] = c * k
                heapq.heappush(heap, -m)
            else:
                s = s + c * k
                if dom.is_zero(s):
                    del rem[m]
                else:
                    rem[m] = s
    return MultiPoly(dom, p.vars, _unpack_terms(quot_terms, width, n))


def divide_out(p: MultiPoly, q: MultiPoly):
    """(k, cofactor): the largest k with q**k dividing p.

    q must be nonzero and not constant, and p nonzero: a unit divides every
    polynomial, and every polynomial divides 0, infinitely often.
    Univariate input over Q(sqrt(d)) stays on integer pairs across the
    divisions (``_quad_divide_out``).
    """
    p._check_compatible(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if q.is_constant():
        raise ValueError("divide_out by the unit %s never stops" % q)
    if not p:
        raise ValueError("divide_out of the zero polynomial never stops")
    if len(p.vars) == 1 and isinstance(p.dom, QuadDomain):
        return _quad_divide_out(p, q)
    k = 0
    while True:
        nxt = exact_divide(p, q)
        if nxt is None:
            return k, p
        p = nxt
        k += 1


# --------------------------------------------------------------------------
# univariate views (polynomials in one main variable, MultiPoly coefficients)


def _lc_in(p: MultiPoly, name: str) -> MultiPoly:
    return p.coeff_of_power(name, p.degree_in(name))


def _pseudo_rem(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """prem(a, b) in name: lc(b)^(da-db+1) * a mod b, all exact."""
    db = b.degree_in(name)
    d = _lc_in(b, name)
    r = a
    e = a.degree_in(name) - db + 1
    xv = MultiPoly.var(a.dom, a.vars, name)
    while r and r.degree_in(name) >= db:
        lr = _lc_in(r, name)
        shift = xv ** (r.degree_in(name) - db)
        r = r * d - lr * shift * b
        e -= 1
    for _ in range(e):
        r = r * d
    return r


def _content_in(p: MultiPoly, name: str) -> MultiPoly:
    """Content of p, which uses name, as a univariate in name: the gcd of
    its coefficients, starting from the normal form of the lowest one and
    stopping at the first constant."""
    g = None
    for k in range(p.degree_in(name) + 1):
        c = p.coeff_of_power(name, k)
        if c:
            g = c.primitive_part() if g is None else poly_gcd(g, c)
            if g.is_constant():
                break
    return g


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor in its normal form (``MultiPoly.primitive``):
    monic, except primitive-integer with positive leading coefficient over
    QQ and ZZ.

    gcd(0, 0) is 0, and gcd(0, q) = gcd(q, q) for every q: q's normal form
    when q is not constant.  Any other gcd with a constant k (zero
    included) is the constant ``dom.content_gcd`` of k and the other
    input's coefficients: 1 on every field but QQ, and the content over QQ
    and ZZ, so gcd(6, -4) = 2 and gcd(0, 6) = gcd(6, 6) = 6.

    When either input is one term the gcd is read off the exponents.
    Univariate input over Q(sqrt(d)) runs a remainder sequence on integer
    pairs (``_quad_gcd``).  Otherwise univariate steps use the subresultant
    polynomial remainder sequence on primitive parts, and multivariate
    inputs recurse through contents.
    """
    if not isinstance(q, MultiPoly):
        q = MultiPoly.const(p.dom, p.vars, q)
    p._check_compatible(q)
    if not q:
        p, q = q, p
    if not q:
        return q
    if p.is_constant() or q.is_constant():
        const, other = (p, q) if p.is_constant() else (q, p)
        if not const and not other.is_constant():
            return other.primitive_part()
        g = const.constant_value()
        for c in other.terms.values():
            g = p.dom.content_gcd(g, c)
        return MultiPoly.const(p.dom, p.vars, g)
    g = _monomial_gcd(p, q)
    if g is not None:
        return g
    if len(p.vars) == 1 and isinstance(p.dom, QuadDomain):
        return _quad_gcd(p, q)
    name = None
    for v in p.vars:
        if p.uses(v) or q.uses(v):
            name = v
            break
    pu, qu = p.uses(name), q.uses(name)
    if not pu or not qu:
        # a divisor of the name-free input and of the other one must divide
        # the other's coefficient gcd with respect to name
        namefree = p if not pu else q
        other = q if not pu else p
        return poly_gcd(namefree, _content_in(other, name)).primitive_part()
    ca, pa = _primitive_in(p, name)
    cb, pb = _primitive_in(q, name)
    return (poly_gcd(ca, cb) * _gcd_prs(pa, pb, name)).primitive_part()


def _monomial_gcd(p: MultiPoly, q: MultiPoly):
    """gcd of nonconstant p and q when either is one term, else None.

    A divisor of a monomial is a monomial, so the gcd is the smallest power
    of each variable over the terms of both, with coefficient one: the
    gcd of nonconstant inputs is a ``primitive_part`` on every domain."""
    if len(p.terms) > 1 and len(q.terms) > 1:
        return None
    exps = tuple(map(min, *p.terms, *q.terms))
    return MultiPoly(p.dom, p.vars, {exps: p.dom.one})


def _quad_ints(p: MultiPoly):
    """(N, S, L) for nonzero univariate p over Q(sqrt(d)): its coefficient
    of x^k is (N[k] + S[k]*sqrt(d))/L, with N and S dense int tuples, lowest
    first, and L the lcm of the coefficients' denominators, so that N, S
    and L share no factor.  Kept in p's ``_pairs``, so that each polynomial
    is converted once; the pair kernels seed it (``_quad_poly``)."""
    try:
        return p._pairs
    except AttributeError:
        pass
    terms = p.terms
    L = math.lcm(*(c.q for c in terms.values()))
    N = [0] * (max(terms)[0] + 1)
    S = list(N)
    for (k,), c in terms.items():
        f = L // c.q
        N[k] = c.n * f
        S[k] = c.s * f
    out = p._pairs = (tuple(N), tuple(S), L)
    return out


def _quad_poly(p: MultiPoly, N, S, num: int, den: int) -> MultiPoly:
    """The polynomial of univariate p's ring whose coefficient of x^k is
    num*(N[k] + S[k]*sqrt(d))/den, for den > 0 and a nonzero lead: one
    ``QuadExt`` per nonzero coefficient.  Its ``_pairs`` are these pairs
    with num folded in and the common factor of the pairs and den removed,
    which is what ``_quad_ints`` would compute from the coefficients."""
    if num != 1:
        N, S = [num * a for a in N], [num * b for b in S]
    g = math.gcd(den, *N, *S)
    if g != 1:
        N, S, den = [a // g for a in N], [b // g for b in S], den // g
    ext = p.dom
    terms = {(k,): _reduced(a, b, den, ext) for k, (a, b) in enumerate(zip(N, S)) if a or b}
    out = MultiPoly._nonzero(ext, p.vars, terms)
    out._pairs = (tuple(N), tuple(S), den)
    return out


def _quad_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p*q for univariate p, q over Q(sqrt(d)) on integer pairs: with
    w = sqrt(d), (PN + PS*w)*(QN + QS*w) = PN*QN + d*PS*QS + (PN*QS +
    PS*QN)*w, all four convolutions in one pass over the rows of p, over
    the denominator Lp*Lq."""
    d = p.dom.d
    PN, PS, lp = _quad_ints(p)
    QN, QS, lq = _quad_ints(q)
    nq = len(QN)
    N = [0] * (len(PN) + nq - 1)
    S = list(N)
    for k, (a, b) in enumerate(zip(PN, PS)):
        if a or b:
            bd = b * d
            top = k + nq
            N[k:top] = [r + a * x + bd * y for r, x, y in zip(N[k:top], QN, QS)]
            S[k:top] = [r + a * y + b * x for r, x, y in zip(S[k:top], QN, QS)]
    return _quad_poly(p, N, S, 1, lp * lq)


def _quad_rationalise(N: list, S: list, d: int):
    """(c, N', S') with (N' + S'*sqrt(d)) = c*(N + S*sqrt(d)), c = (cn, cs)
    standing for cn + cs*sqrt(d), chosen so that the lead of the product is
    a positive integer: c is +-1 when the lead is rational, else the
    conjugate of the lead, negated when the lead's norm is negative
    (sqrt(d) itself has norm -d)."""
    a, b = N[-1], S[-1]
    if not b:
        c = (1, 0) if a > 0 else (-1, 0)
    elif a * a > d * b * b:
        c = (a, -b)
    else:
        c = (-a, b)
    return (c, *_quad_scale(N, S, c, d))


def _quad_scale(N: list, S: list, c, d: int):
    """(N', S') with N' + S'*sqrt(d) = (cn + cs*sqrt(d))*(N + S*sqrt(d))."""
    cn, cs = c
    if not cs:
        return (N, S) if cn == 1 else ([cn * a for a in N], [cn * b for b in S])
    ds = d * cs
    return [cn * a + ds * b for a, b in zip(N, S)], [cn * b + cs * a for a, b in zip(N, S)]


def _quad_divmod(N: list, S: list, BN: list, BS: list, d: int):
    """(D, UN, US, RN, RS) on dense pair lists, lowest first, with
    D*(N + S*w) = (UN + US*w)*(BN + BS*w) + RN + RS*w for w = sqrt(d), D a
    positive int and deg R < deg B, R's trailing zeros stripped.  The lead
    of B must be a positive integer m (``_quad_rationalise``).  A step on a
    remainder lead (a, b) scales the remainder and the partial quotient by
    f = m/gcd(m, a, b) only, so that the quotient term (a + b*w)*f/m has
    integer parts; when m divides the lead, f is 1 and nothing is scaled."""
    m, db = BN[-1], len(BN) - 1
    RN, RS = list(N), list(S)
    nq = max(len(N) - db, 0)
    UN, US = [0] * nq, [0] * nq
    D = 1
    for k in range(nq - 1, -1, -1):
        a, b = RN.pop(), RS.pop()
        if not (a or b):
            continue
        g = math.gcd(m, a, b)
        f = m // g
        if f != 1:
            RN = [f * x for x in RN]
            RS = [f * x for x in RS]
            UN[k + 1 :] = [f * x for x in UN[k + 1 :]]
            US[k + 1 :] = [f * x for x in US[k + 1 :]]
            D *= f
        a //= g
        b //= g
        UN[k], US[k] = a, b
        # R -= (a + b*w)*x^k*B below the cancelled lead
        bd = b * d
        top = k + db
        RN[k:top] = [r - a * x - bd * y for r, x, y in zip(RN[k:top], BN, BS)]
        RS[k:top] = [r - a * y - b * x for r, x, y in zip(RS[k:top], BN, BS)]
    while RN and not (RN[-1] or RS[-1]):
        RN.pop()
        RS.pop()
    return D, UN, US, RN, RS


def _quad_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd of nonconstant univariate p, q over Q(sqrt(d)) on integer
    pairs (W. S. Brown, J. ACM 1971; L. Langemyr and
    S. McCallum, J. Symbolic Comput. 1989).  Each divisor is multiplied by
    ``_quad_rationalise``'s c, so its lead is a positive integer, and each
    remainder (``_quad_divmod``) loses its integer content.  The last
    nonzero remainder, rationalised, is made monic by one ``QuadExt`` per
    coefficient."""
    d = p.dom.d
    AN, AS, _ = _quad_ints(p)
    BN, BS, _ = _quad_ints(q)
    if len(AN) < len(BN):
        AN, AS, BN, BS = BN, BS, AN, AS
    while True:
        _, CN, CS = _quad_rationalise(BN, BS, d)
        RN, RS = _quad_divmod(AN, AS, CN, CS, d)[3:]
        if not RN:
            return _quad_poly(p, CN, CS, 1, CN[-1])
        if len(RN) == 1:
            return _quad_poly(p, (1,), (0,), 1, 1)
        c = math.gcd(*RN, *RS)
        AN, AS, BN, BS = BN, BS, [x // c for x in RN], [x // c for x in RS]


def _quad_divide_out(p: MultiPoly, q: MultiPoly, most=None):
    """``divide_out`` of nonzero univariate p by q over Q(sqrt(d)) on
    integer pairs, stopping after ``most`` divisions when it is not None.
    q is rationalised once (c from ``_quad_rationalise``), and each
    division multiplies the dividend by the same c and takes the quotient
    off ``_quad_divmod`` when the remainder is zero.  The cofactor is built
    once, at the end."""
    if max(p.terms) < max(q.terms):
        return 0, p  # a lower degree: no conversion
    d = p.dom.d
    PN, PS, den = _quad_ints(p)
    QN, QS, lq = _quad_ints(q)
    c, QN, QS = _quad_rationalise(QN, QS, d)
    # p/q^k = (num/den)*(PN + PS*w) for w = sqrt(d), after k divisions
    k, num = 0, 1
    while k != most and len(QN) <= len(PN):
        D, UN, US, RN, _ = _quad_divmod(*_quad_scale(PN, PS, c, d), QN, QS, d)
        if RN:
            break
        if D != 1:
            # only the scale D makes the pairs grow from one division to the next
            g = math.gcd(D, *UN, *US)
            if g != 1:
                D, UN, US = D // g, [x // g for x in UN], [x // g for x in US]
        k, num, den, PN, PS = k + 1, num * lq, den * D, UN, US
    return k, (_quad_poly(p, PN, PS, num, den) if k else p)


def _primitive_in(p: MultiPoly, name: str):
    if not p.uses(name):
        return p, MultiPoly.const(p.dom, p.vars, p.dom.one)
    c = _content_in(p, name)
    if c.is_constant() and p.dom.is_zero(c.constant_value() - p.dom.one):
        return c, p
    return c, _exact_quot(p, c)


def _subresultant_prs(a: MultiPoly, b: MultiPoly, name: str):
    """The subresultant PRS of a, b in name (G. E. Collins 1967; W. S.
    Brown 1971), deg a >= deg b >= 1.

    Yields (a, b, h) for each pair of consecutive remainders, starting with
    the inputs: each step takes the pseudo-remainder of a by b and divides
    it exactly by g*h^delta, with g the leading coefficient of a, h the
    subresultant scale (both 1 on the first step) and delta the degree drop
    from a to b.  Stops after a pair whose pseudo-remainder is zero.  A
    step runs only when the consumer asks for the next pair.
    """
    one = MultiPoly.const(a.dom, a.vars, a.dom.one)
    g = h = one
    while True:
        yield a, b, h
        delta = a.degree_in(name) - b.degree_in(name)
        r = _pseudo_rem(a, b, name)
        if not r:
            return
        a, b = b, _exact_quot(r, g * h**delta)
        g = _lc_in(a, name)
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_quot(g**delta, h ** (delta - 1))


def _gcd_prs(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """Subresultant PRS gcd of primitive a, b (both use name)."""
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    for _, b, _ in _subresultant_prs(a, b, name):
        if not b.uses(name):
            return MultiPoly.const(a.dom, a.vars, a.dom.one)
    return _primitive_in(b, name)[1]


def _exact_quot(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    out = exact_divide(p, q)
    if out is None:
        raise ArithmeticError("internal exact division failed")
    return out


# --------------------------------------------------------------------------
# resultants


def _clear_denominators(polys):
    """(L, [L*p over ZZ for p in polys]) for QQ polynomials, with L the lcm
    of all their coefficient denominators."""
    L = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return L, [
        MultiPoly._nonzero(ZZ, p.vars, {e: c.numerator * (L // c.denominator) for e, c in p.terms.items()})
        for p in polys
    ]


def _to_qq(p: MultiPoly, scale: Fraction) -> MultiPoly:
    """scale * p over QQ, for p over ZZ: one Fraction product per term."""
    return MultiPoly(QQ, p.vars, {e: scale * k for e, k in p.terms.items()})


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant eliminating name: a polynomial in the remaining variables
    (a constant when the inputs are univariate).  Raises ValueError when
    name occurs in neither input.

    Over QQ and ZZ it is computed by evaluation and interpolation (G. E.
    Collins, "The calculation of multivariate polynomial resultants", J. ACM
    1971) at integer points, with no modulus.  QQ input is cleared to ZZ,
    each input times the lcm of its coefficient denominators, and the
    result is scaled back once.  Let m = deg_name p and n = deg_name q.
    The first other variable v that either input uses is set to 0, 1, -1,
    2, -2, ...; a point where lc_name(p) or lc_name(q) vanishes is skipped,
    since there the Sylvester matrix changes shape.  Each specialisation's
    resultant is taken the same way, down to dense univariate integer
    polynomials and their subresultant PRS.

    The resultant has degree at most D_v = min(n*deg_v p + m*deg_v q,
    n*L + m*M - m*n) in v, with L and M the total degrees of p and q, so
    D_v + 1 points determine it.  The first bound sums the degrees in v
    along the rows of the Sylvester matrix, n rows of p's coefficients and
    m rows of q's.  For the second, the entry of p's row i in column j
    is the coefficient of name^(m - j + i), of total degree at most
    L - m + j - i (q's row k likewise, M - n + j - k), and over a term of
    the determinant the column indices exceed the row indices by m*n.
    It is the smaller one when the inputs' total degrees are close to
    their degrees in v, as in the elimination of c from F3 and the residue
    cofactor (140 against 280 for the benchmark's stand-in).  The values are
    interpolated coefficient by coefficient by Newton divided differences,
    which are integers for an integer polynomial at integer nodes: each is
    one exact ``//``.  Collins's own scheme, word-size primes and the
    Chinese remainder theorem, ran 5x slower than the PRS in pure Python.

    When every monomial of p has e_name + e_v of one parity eps_p, and every
    one of q likewise eps_q, then p(-v, -name) = (-1)^eps_p * p(v, name),
    and since negating name multiplies a resultant by (-1)^(m*n), R(-v) =
    sigma * R(v) with sigma = (-1)^(eps_p*n + eps_q*m + m*n).  So R =
    v^odd * S(v^2), with (-1)^odd = sigma, and S, of degree at most
    (D_v - odd)//2, is interpolated from (D_v - odd)//2 + 1 points v = odd,
    odd + 1, ... at the nodes v^2, each value first divided by v when odd.
    That halves the points.  The test reads the exponents of name and v
    only, not the total degree, so each level of the recursion makes it
    anew for its own v.  The ansatz has it through its symmetry x -> -x,
    which acts as (a, c) -> (-a, -c): F2, F3 and the residue cofactor are
    even in (a, c), F1 and F3' odd.

    Every other domain runs the subresultant PRS on ``MultiPoly``
    (``_resultant``).
    """
    p._check_compatible(q)
    if not p.uses(name) and not q.uses(name):
        raise ValueError("resultant variable %r absent from both inputs" % name)
    if not p or not q:
        return MultiPoly.zero(p.dom, p.vars)
    i = p.vars.index(name)
    if p.dom is ZZ:
        return MultiPoly(ZZ, p.vars, _eval_resultant(p.terms, q.terms, i))
    if p.dom is not QQ:
        return _resultant(p, q, name)
    # res(P/Lp, Q/Lq) = Lp^-deg(Q) * Lq^-deg(P) * res(P, Q)
    (lp, (zp,)), (lq, (zq,)) = _clear_denominators([p]), _clear_denominators([q])
    scale = Fraction(1, lp ** q.degree_in(name) * lq ** p.degree_in(name))
    return _to_qq(MultiPoly(ZZ, p.vars, _eval_resultant(zp.terms, zq.terms, i)), scale)


def _eval_resultant(p: dict, q: dict, i: int) -> dict:
    """The terms of res(p, q) in variable i, for nonzero int term dicts p
    and q: evaluation at integer points and Newton interpolation, one
    variable at a time, at half the points when the (v, name) -> (-v, -name)
    symmetry holds (see ``resultant``)."""
    nv = len(next(iter(p)))
    j = next((j for j in range(nv) if j != i and any(e[j] for t in (p, q) for e in t)), None)
    if j is None:
        r = _dense_resultant(_dense_in(p, i), _dense_in(q, i))
        return {(0,) * nv: r} if r else {}
    m, n = _degree(p, i), _degree(q, i)
    pj, qj = _degree(p, j), _degree(q, j)
    bound = min(n * pj + m * qj, n * max(map(sum, p)) + m * max(map(sum, q)) - m * n)
    ep, eq = _parity(p, i, j), _parity(q, i, j)
    if ep is None or eq is None:
        step, odd, points = 1, 0, (x for k in count() for x in (-k, k + 1))
    else:
        # R(-v) = sigma * R(v) with sigma = (-1)^odd, so R = v^odd * S(v^2)
        odd = (ep * n + eq * m + m * n) % 2
        step, points = 2, count(odd)
    need = (bound - odd) // step + 1
    prows, qrows = _rows_in(p, j), _rows_in(q, j)
    nodes, values = [], []
    while len(nodes) < need:
        x = next(points)
        powers = [x**k for k in range(max(pj, qj) + 1)]
        pe, qe = _eval_rows(prows, powers), _eval_rows(qrows, powers)
        # a vanishing leading coefficient would change the Sylvester matrix
        if pe and qe and _degree(pe, i) == m and _degree(qe, i) == n:
            r = _eval_resultant(pe, qe, i)
            if odd:
                r = dict(zip(r, _exact_quots(r.values(), repeat(x))))
            nodes.append(x**step)
            values.append(r)
    out = {}
    for key in set().union(*values):
        coeffs = _newton_interpolate(nodes, [v.get(key, 0) for v in values])
        for k, c in enumerate(coeffs):
            if c:
                out[key[:j] + (step * k + odd,) + key[j + 1 :]] = c
    return out


def _parity(terms: dict, i: int, j: int):
    """(e_i + e_j) % 2, when it is the same over every monomial e of the
    term dict, else None."""
    parities = {(e[i] + e[j]) % 2 for e in terms}
    return parities.pop() if len(parities) == 1 else None


def _degree(terms: dict, i: int) -> int:
    return max(e[i] for e in terms)


def _rows_in(terms: dict, j: int) -> dict:
    """The int term dict grouped by monomial with variable j left out:
    {monomial with exponent 0 at j: [(exponent of j, coefficient), ...]}."""
    rows: dict = {}
    for e, c in terms.items():
        rows.setdefault(e[:j] + (0,) + e[j + 1 :], []).append((e[j], c))
    return rows


def _eval_rows(rows: dict, powers: list) -> dict:
    """The term dict of ``_rows_in`` with the variable set to x, for
    powers[k] = x**k."""
    out = {}
    for e, row in rows.items():
        s = sum([c * powers[k] for k, c in row])
        if s:
            out[e] = s
    return out


def _dense_in(terms: dict, i: int) -> list:
    """Dense int coefficients, lowest first, of a term dict using only
    variable i."""
    out = [0] * (_degree(terms, i) + 1)
    for e, c in terms.items():
        out[e[i]] = c
    return out


def _exact_quots(xs, ys) -> list:
    """The quotients x // y over the pairs of xs and ys, each exact."""
    qr = list(map(divmod, xs, ys))
    if any(map(itemgetter(1), qr)):
        raise ArithmeticError("internal exact division failed")
    return list(map(itemgetter(0), qr))


def _newton_interpolate(xs: list, ys: list) -> list:
    """The len(xs) dense coefficients, lowest first, of the polynomial of
    degree below len(xs) through the integer points (xs[t], ys[t]), when
    that polynomial has integer coefficients: its Newton divided
    differences are then integers, each one exact ``//``.  Raises
    ArithmeticError otherwise."""
    c = list(ys)
    n = len(xs)
    for k in range(1, n):
        # column k of the table, from column k - 1: c[t] = [x_(t-k) .. x_t]
        c[k:] = _exact_quots(map(sub, c[k:], c[k - 1 :]), map(sub, xs[k:], xs))
    # Horner on the Newton form c_0 + (v - x_0)(c_1 + (v - x_1)(c_2 + ...))
    out = [c[-1]]
    for k in range(n - 2, -1, -1):
        x = xs[k]
        out = [c[k] - x * out[0]] + [a - x * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def _dense_resultant(a: list, b: list) -> int:
    """Resultant of dense int lists (lowest first, nonzero leading
    coefficients) by the subresultant PRS, with the signs of
    ``_resultant``."""
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da * db % 2:
            sign = -1
    ca, cb = math.gcd(*a), math.gcd(*b)
    a, b = [c // ca for c in a], [c // cb for c in b]
    scale = ca**db * cb**da
    g = h = 1
    while db:
        if da % 2 and db % 2:
            sign = -sign
        delta = da - db
        r = _dense_prem(a, b)
        if not r:
            return 0
        d = g * h**delta
        a, b = b, _exact_quots(r, repeat(d))
        da, db = db, len(b) - 1
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_quots([g**delta], [h ** (delta - 1)])[0]
    res = b[0] if da == 1 else _exact_quots([b[0] ** da], [h ** (da - 1)])[0]
    return sign * scale * res


def _dense_prem(a: list, b: list) -> list:
    """prem(a, b) of dense int lists: lc(b)^(deg a - deg b + 1) * a mod b,
    trailing zeros stripped."""
    d, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        lr = r.pop()
        r = [c * d for c in r[:k]] + [c * d - lr * bt for c, bt in zip(r[k:], b)]
    while r and not r[-1]:
        r.pop()
    return r


def _resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """``resultant`` of nonzero p, q by the subresultant PRS on
    ``MultiPoly``, for the domains other than QQ and ZZ."""
    dp, dq = p.degree_in(name), q.degree_in(name)
    if dp == 0:
        return p**dq
    if dq == 0:
        return q**dp
    sign_swap = 1
    if dp < dq:
        p, q, dp, dq = q, p, dq, dp
        if dp * dq % 2:
            sign_swap = -1
    ca, a = _primitive_in(p, name)
    cb, b = _primitive_in(q, name)
    scale = ca**dq * cb**dp
    s = 1
    for a, b, h in _subresultant_prs(a, b, name):
        da, db = a.degree_in(name), b.degree_in(name)
        if db == 0:
            lb = b.coeff_of_power(name, 0)
            res = lb if da == 1 else _exact_quot(lb**da, h ** (da - 1))
            out = scale * res
            return -out if s * sign_swap < 0 else out
        if da % 2 and db % 2:
            s = -s
    return MultiPoly.zero(p.dom, p.vars)


def discriminant(p: MultiPoly, name: str) -> MultiPoly:
    """res(p, dp/dname) / lc, with the classical sign.  ``resultant`` runs
    QQ input on ZZ and scales back once; the division by lc is exact."""
    d = p.degree_in(name)
    quot = exact_divide(resultant(p, p.derivative(name), name), _lc_in(p, name))
    if quot is None:
        raise ArithmeticError("leading coefficient does not divide res(p, p')")
    return -quot if (d * (d - 1) // 2) % 2 else quot


# --------------------------------------------------------------------------
# fraction-free determinants and nullspaces


def det_fraction_free(rows) -> MultiPoly:
    """Bareiss determinant of a square matrix of MultiPoly entries.
    Intermediate divisions are exact; no fractions appear.  Over QQ it runs
    on ZZ, on each row times the lcm L_i of its coefficient denominators,
    and det = det' / prod(L_i)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    if rows[0][0].dom is not QQ:
        return _bareiss([list(r) for r in rows])
    den, m = 1, []
    for r in rows:
        lr, zr = _clear_denominators(r)
        den *= lr
        m.append(zr)
    return _to_qq(_bareiss(m), Fraction(1, den))


def _bareiss(m: list) -> MultiPoly:
    """Determinant of the n x n matrix m (n >= 1), changed in place."""
    n = len(m)
    dom, variables = m[0][0].dom, m[0][0].vars
    one = MultiPoly.const(dom, variables, dom.one)
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(dom, variables)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_quot(num, prev)
            m[i][k] = MultiPoly.zero(dom, variables)
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def solve_nullspace(rows):
    """Kernel basis of a matrix whose entries lie in a field (anything with
    +,-,*,/ and truthiness: Fraction, QuadExt, RationalFunction).

    Returns (pivot_columns, basis) where basis vectors are lists in the
    entry field.
    """
    if not rows:
        raise ValueError("empty matrix")
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    zero = m[0][0] - m[0][0]
    one = zero + 1
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return pivots, basis


# --------------------------------------------------------------------------
# rational functions


def _rf_normalize(num: MultiPoly, den: MultiPoly):
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    dom = num.dom
    if not num:
        return num, MultiPoly.const(dom, num.vars, dom.one)
    if not num.is_constant() and not den.is_constant():
        # a constant on either side is coprime to the other: no gcd
        g = poly_gcd(num, den)
        if not g.is_constant() or g.constant_value() != dom.one:
            num = _exact_quot(num, g)
            den = _exact_quot(den, g)
    cd, dprim = den.primitive()
    if cd != dom.one:
        num = num.scale(dom.inv(cd))
    return num, dprim


class RationalFunction(FieldOps):
    """Quotient of MultiPolys over the same ring, reduced on construction:
    gcd cancelled and the denominator in its normal form (monic, except
    primitive-integer with positive leading coefficient over QQ; see
    ``MultiPoly.primitive``), so that over every domain equal rational
    functions have identical num and den.

    Over QQ, ``_zz`` holds num's cleared integer form once ``_cleared``
    has computed it or ``FractionFieldDomain.lincomb`` has built it; an
    immutable value never makes it stale."""

    __slots__ = ("num", "den", "_zz")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.dom, num.vars, num.dom.one)
        num._check_compatible(den)
        n, d = _rf_normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def _wrap(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        try:
            return RationalFunction(MultiPoly.const(self.num.dom, self.num.vars, other))
        except TypeError:
            return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    @classmethod
    def _reduced(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        """num/den already coprime with den in normal form: no gcd."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def _cleared(self):
        """(L, terms, top) for num over QQ: L*num as ZZ terms and its largest
        exponent, computed on the first call and kept in ``_zz``."""
        try:
            return self._zz
        except AttributeError:
            L, (z,) = _clear_denominators([self.num])
            out = (L, z.terms, max(map(max, z.terms), default=0))
            object.__setattr__(self, "_zz", out)
            return out

    def __neg__(self):
        # negating a reduced numerator leaves the quotient reduced
        return RationalFunction._reduced(-self.num, self.den)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        # num and den stay coprime; only the new denominator's unit moves
        if not self.num:
            raise ZeroDivisionError("division by zero rational function")
        u, den = self.num.primitive()
        num = self.den
        if u != num.dom.one:
            num = num.scale(num.dom.inv(u))
        return RationalFunction._reduced(num, den)

    # one normalisation of num**n/den**n instead of one per product
    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        # normal forms are unique, so equal quotients have equal parts
        self.num._check_compatible(o.num)
        return self.num == o.num and self.den == o.den

    def subs(self, mapping: dict) -> "RationalFunction":
        return RationalFunction(self.num.subs(mapping), self.den.subs(mapping))

    def derivative(self, name: str) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(
            n.derivative(name) * d - n * d.derivative(name), d * d
        )

    def eval_scalars(self, values: dict):
        dv = self.den.eval_scalars(values)
        if self.den.dom.is_zero(dv):
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.dom.div(self.num.eval_scalars(values), dv)

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == self.num.dom.one:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RationalFunction(%s)" % self


# --------------------------------------------------------------------------
# square-free machinery and polynomial square roots


def squarefree_decomposition(p: MultiPoly, name: str):
    """Yun decomposition of a univariate-in-name polynomial over a field:
    returns (unit, [(g1, 1), (g2, 2), ...]) with the gi in normal form (monic,
    except primitive-integer over QQ), pairwise coprime, square-free, and
    p = unit * prod(gi**i) with unit a domain element."""
    if not p:
        raise ValueError("square-free decomposition of zero")
    parts = []
    c, prim = p.primitive()
    f = prim
    df = f.derivative(name)
    a = poly_gcd(f, df)
    if a.is_constant():
        return c, [(prim, 1)] if prim.uses(name) else []
    b = _exact_quot(f, a)
    d = _exact_quot(df, a) - b.derivative(name)
    i = 1
    while True:
        if not b.uses(name):
            break
        g = poly_gcd(b, d)
        if g.uses(name):
            parts.append((g, i))
        b2 = _exact_quot(b, g)
        d = _exact_quot(d, g) - b2.derivative(name)
        b = b2
        i += 1
    # parts is not empty, since a is not constant; a lone g**1 is g itself
    check = reduce(mul, [g**k for g, k in parts])
    q = exact_divide(prim, check)
    if q is None or not q.is_constant():
        raise ArithmeticError("square-free decomposition went inconsistent")
    return q.constant_value() * c, parts


def poly_sqrt(p: MultiPoly, name: str):
    """Exact square root of p, or None.

    p is read as univariate in name over the polynomials in the other
    variables.  A content in name that is not constant is rooted
    recursively, in the next variable it uses, and p is a square exactly
    when that content and the quotient by it both are; Yun's decomposition
    in name alone would lose the content."""
    if not p:
        return p
    cont, prim = _primitive_in(p, name)
    if not cont.is_constant():
        rc = poly_sqrt(cont, next(v for v in cont.vars if cont.uses(v)))
        rp = None if rc is None else poly_sqrt(prim, name)
        return None if rp is None else rc * rp
    unit, parts = squarefree_decomposition(p, name)
    root_unit = p.dom.sqrt(unit)
    if root_unit is None:
        return None
    out = MultiPoly.const(p.dom, p.vars, root_unit)
    for g, k in parts:
        if k % 2:
            return None
        out = out * g ** (k // 2)
    return out


def ratfunc_sqrt(rf: RationalFunction):
    """Exact square root of a rational function, or None.

    num and den are rooted as polynomials in the first variable either of
    them uses; ``poly_sqrt`` roots their content in the other variables
    recursively, so multivariate input such as a^2*c^2 or c^2/a^2 over
    Frac(Q[a,c]) is handled."""
    if not rf:
        return rf
    name = None
    for v in rf.num.vars:
        if rf.num.uses(v) or rf.den.uses(v):
            name = v
            break
    if name is None:
        r = rf.num.dom.sqrt(rf.num.dom.div(rf.num.constant_value(), rf.den.constant_value()))
        if r is None:
            return None
        return RationalFunction(MultiPoly.const(rf.num.dom, rf.num.vars, r))
    n = poly_sqrt(rf.num, name)
    d = poly_sqrt(rf.den, name)
    if n is None or d is None:
        return None
    return RationalFunction(n, d)
