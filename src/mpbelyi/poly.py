"""Sparse multivariate polynomial arithmetic over exact coefficient domains.

Polynomials are dicts mapping exponent tuples to nonzero coefficients,
ordered graded-lex for rendering and division.  Coefficient domains are
instances of ``Field``: QQ (Fraction), FractionFieldDomain (coefficients
that are themselves rational functions, used for series with symbolic
parameters) and the quadratic extensions BranchExtDomain (base(w), elements
``scalars.BranchExt``), of which QuadDomain(d), Q(sqrt(d)) with elements
``scalars.QuadExt``, is the one over QQ.  The one ring is ZZ (Python ints),
which products over QQ and the elimination layer run on.

The elimination-theory layer (gcd, resultants, fraction-free determinants,
nullspaces) runs on these polynomials with divisions that are exact by
construction; nothing here ever rounds.  ``resultant``, ``discriminant``
and ``det_fraction_free`` clear the denominators of QQ input (per
polynomial, per matrix row), run the subresultant PRS (G. E. Collins 1967;
W. S. Brown 1971) or Bareiss's elimination (E. H. Bareiss 1968) on ZZ,
where every exact division is an integer ``//``, and scale the result back
to QQ once.  A product of two QQ polynomials does the same: it multiplies
their cleared integer forms and scales each output term back once.  On the
benchmark's eliminations and series expansions that removes nearly all
``Fraction`` arithmetic.

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

A univariate gcd over Q(sqrt(d)) (``euclid`` set) runs monic Euclid, which
keeps every remainder monic and so bounds coefficient growth; everything
else (QQ, multivariate input, the other fields) runs the subresultant PRS.
Over Frac(Q[a,c]) every monic remainder costs one multivariate gcd per
coefficient: on gcd(f, f') of the ansatz quartic monic Euclid took about
3.5 s against 0.03 s for the PRS (Python 3.11 on a 2-vCPU Xeon).

Every exact sparse division (gcd cofactors, contents, PRS quotients,
``divide_out`` for orders along a divisor) goes through ``exact_divide``.
It keeps the remainder in place, as a dict plus a heap of its monomials in
graded-lex order, so a division costs about |quotient|*|divisor|
coefficient operations plus the heap work instead of one full remainder
rebuild per quotient term.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .scalars import BranchExt, FieldOps, QuadExt, RingOps, quadext_sqrt, rational_sqrt_exact


# --------------------------------------------------------------------------
# coefficient domains


class Field:
    """Coefficient domain protocol.  Every domain in the package is a field,
    except ``ZZ``, the one ring, which QQ products and the elimination
    layer run on.

    Subclasses provide ``name``, ``zero``, ``one``, ``coerce`` (which returns
    the domain's own elements unchanged) and ``sqrt``, and override the rest
    only where they differ.  ``euclid`` chooses the univariate gcd algorithm:
    monic Euclid when True, the subresultant PRS otherwise.
    """

    euclid = False

    def is_zero(self, x) -> bool:
        return not x

    def div(self, x, y):
        return x / y

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
        inv = self.div(self.one, u)
        return {e: k * inv for e, k in terms.items()}

    def render(self, x) -> str:
        return "(%s)" % x

    def __repr__(self):
        return self.name


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
        return hash(("BranchExtDomain", repr(self.base)))


class QuadDomain(BranchExtDomain):
    """Q(sqrt(d)): the branch extension of QQ with radicand d, elements
    ``QuadExt``.  There is one instance per d, so the elements of one field
    share their ``ext``."""

    # exact arithmetic is cheap here, so univariate gcds run monic Euclid
    euclid = True
    element_class = QuadExt
    _by_d: dict = {}

    def __new__(cls, d: int):
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

    def coerce(self, x):
        if isinstance(x, RationalFunction):
            if x.num.vars != self.inner_vars or x.num.dom != self.inner_dom:
                raise TypeError("mismatched fraction field")
            return x
        if isinstance(x, MultiPoly):
            if x.vars != self.inner_vars or x.dom != self.inner_dom:
                raise TypeError("mismatched fraction field")
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
    """ZZ: Python ints, the coefficient ring that QQ products,
    ``resultant``, ``discriminant`` and ``det_fraction_free`` run on after
    clearing the denominators of their QQ input.  It is not a field:
    ``quo`` is exact integer division, None when a remainder is left, and
    the normal unit is the content with the sign of the leading
    coefficient."""

    name = "ZZ"
    euclid = False
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


def _heap_key(exps):
    # graded-lex order reversed, so heapq's min-heap pops the largest first
    return (-sum(exps), tuple(-x for x in exps))


def _mul_terms(p: dict, q: dict) -> dict:
    """The schoolbook product of two term dicts; sums that cancel stay in
    as zeros for the ``MultiPoly`` constructor to drop."""
    if len(p) > len(q):
        p, q = q, p
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod = ca * cb
            s = out.get(e)
            if s is None:
                out[e] = prod
            else:
                out[e] = s + prod
    return out


class MultiPoly(RingOps):
    """Sparse polynomial: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("dom", "vars", "terms")

    def __init__(self, dom, variables, terms: dict):
        self.dom = dom
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if not dom.is_zero(c)}

    # -- constructors ----------------------------------------------------

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
        if self.vars != other.vars or self.dom != other.dom:
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

    def is_zero(self) -> bool:
        return not self.terms

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

    def num_terms(self) -> int:
        return len(self.terms)

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
        if self.dom != QQ or len(self.terms) == 1 or len(o.terms) == 1:
            # a one-term factor only scales: no cheaper on integers
            return MultiPoly(self.dom, self.vars, _mul_terms(self.terms, o.terms))
        # over QQ: an integer product, scaled back once per output term
        (la, (za,)), (lb, (zb,)) = _clear_denominators([self]), _clear_denominators([o])
        zp = MultiPoly(ZZ, self.vars, _mul_terms(za.terms, zb.terms))
        return _to_qq(zp, Fraction(1, la * lb))

    __rmul__ = __mul__

    def scale(self, c):
        c = self.dom.coerce(c)
        if self.dom.is_zero(c):
            return MultiPoly.zero(self.dom, self.vars)
        return MultiPoly(self.dom, self.vars, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.dom == other.dom
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

    The answer is None as soon as lead(q) fails to divide the leading
    monomial of the remainder, or its coefficient (``dom.quo``, which over
    a field always divides and over ZZ finds a remainder).
    """
    if not isinstance(q, MultiPoly):
        q = MultiPoly.const(p.dom, p.vars, q)
    p._check_compatible(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return p
    dom = p.dom
    qe, qc = q.leading()
    # the tail of q negated once, so that the loop below only adds
    tail = [(e, -k) for e, k in q.terms.items() if e != qe]
    rem = dict(p.terms)
    heap = [(_heap_key(e), e) for e in rem]
    heapq.heapify(heap)
    quot_terms: dict = {}
    while heap:
        re = heapq.heappop(heap)[1]
        rc = rem.pop(re, None)
        if rc is None:
            continue  # cancelled, or a duplicate entry
        diff = tuple(a - b for a, b in zip(re, qe))
        if any(d < 0 for d in diff):
            return None
        c = dom.quo(rc, qc)
        if c is None:
            return None
        quot_terms[diff] = c
        for e, k in tail:
            m = tuple(a + b for a, b in zip(diff, e))
            s = rem.get(m)
            if s is None:
                rem[m] = c * k
                heapq.heappush(heap, (_heap_key(m), m))
            else:
                s = s + c * k
                if dom.is_zero(s):
                    del rem[m]
                else:
                    rem[m] = s
    return MultiPoly(dom, p.vars, quot_terms)


def divide_out(p: MultiPoly, q: MultiPoly):
    """(k, cofactor): the largest k with q**k dividing p.

    q must be nonzero and not constant, and p nonzero: a unit divides every
    polynomial, and every polynomial divides 0, infinitely often.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if q.is_constant():
        raise ValueError("divide_out by the unit %s never stops" % q)
    if not p:
        raise ValueError("divide_out of the zero polynomial never stops")
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
    Univariate input over a domain with ``euclid`` set (Q(sqrt(d))) runs
    monic Euclid.  Otherwise univariate steps use the subresultant
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
    name = None
    for v in p.vars:
        if p.uses(v) or q.uses(v):
            name = v
            break
    if p.dom.euclid and not any(
        v != name and (p.uses(v) or q.uses(v)) for v in p.vars
    ):
        return _gcd_monic_euclid(p, q, name)
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


def _gcd_monic_euclid(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Monic gcd of nonconstant p, q over a field, both using only name.

    Euclid's remainder loop on dense coefficient lists, making each remainder
    monic (W. S. Brown, J. ACM 1971): the coefficients stay the size of the
    monic remainders instead of growing along a pseudo-remainder sequence.
    """
    dom = p.dom
    a, b = p.univariate_coeffs(name), q.univariate_coeffs(name)
    if len(a) < len(b):
        a, b = b, a
    b = _dense_monic(b, dom)
    while True:
        r = _dense_rem(a, b, dom)
        if not r:
            break
        a, b = b, _dense_monic(r, dom)
    return MultiPoly.from_univariate(dom, name, b).with_vars(p.vars)


def _dense_monic(a: list, dom) -> list:
    inv = dom.div(dom.one, a[-1])
    return [c * inv for c in a[:-1]] + [dom.one]


def _dense_rem(a: list, b: list, dom) -> list:
    """Remainder of a by monic b (dense, lowest degree first), trailing
    zeros stripped: [] when b divides a."""
    r = list(a)
    db = len(b) - 1
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if not dom.is_zero(c):
            c = -c  # negated once, so that the loop below only adds
            for j in range(db):
                r[k + j] = r[k + j] + c * b[j]
    del r[db:]
    while r and dom.is_zero(r[-1]):
        r.pop()
    return r


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
        MultiPoly(ZZ, p.vars, {e: c.numerator * (L // c.denominator) for e, c in p.terms.items()})
        for p in polys
    ]


def _to_qq(p: MultiPoly, scale: Fraction) -> MultiPoly:
    """scale * p over QQ, for p over ZZ: one Fraction product per term."""
    return MultiPoly(QQ, p.vars, {e: scale * k for e, k in p.terms.items()})


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant eliminating name, by the subresultant PRS.

    The result is a polynomial in the remaining variables (a constant when
    the inputs are univariate).  Raises ValueError when name occurs in
    neither input.  Over QQ the PRS runs on ZZ, on each input times the lcm
    of its coefficient denominators, and the result is scaled back once.
    """
    p._check_compatible(q)
    if not p.uses(name) and not q.uses(name):
        raise ValueError("resultant variable %r absent from both inputs" % name)
    if not p or not q:
        return MultiPoly.zero(p.dom, p.vars)
    if p.dom != QQ:
        return _resultant(p, q, name)
    # res(P/Lp, Q/Lq) = Lp^-deg(Q) * Lq^-deg(P) * res(P, Q)
    (lp, (zp,)), (lq, (zq,)) = _clear_denominators([p]), _clear_denominators([q])
    scale = Fraction(1, lp ** q.degree_in(name) * lq ** p.degree_in(name))
    return _to_qq(_resultant(zp, zq, name), scale)


def _resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """``resultant`` of nonzero p, q."""
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
    """res(p, dp/dname) / lc, with the classical sign.  Over QQ it runs on
    ZZ, on P = L*p with L the lcm of the coefficient denominators, and
    disc(P/L) = L^(2-2*deg P) * disc(P)."""
    if p.dom != QQ or not p.uses(name):
        return _discriminant(p, name)
    lp, (zp,) = _clear_denominators([p])
    return _to_qq(_discriminant(zp, name), Fraction(1, lp ** (2 * p.degree_in(name) - 2)))


def _discriminant(p: MultiPoly, name: str) -> MultiPoly:
    d = p.degree_in(name)
    res = resultant(p, p.derivative(name), name)
    lc = _lc_in(p, name)
    quot = exact_divide(res, lc)
    if quot is None:
        raise ArithmeticError("leading coefficient does not divide res(p, p')")
    if (d * (d - 1) // 2) % 2:
        quot = -quot
    return quot


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
    if rows[0][0].dom != QQ:
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
    one = None
    for row in m:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        one = zero + 1
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return pivots, basis


class LinearSystem:
    """Rows of linear forms sum(coeff*unknown) = rhs over a fraction field."""

    def __init__(self, unknowns, rows, rhs=None):
        self.unknowns = tuple(unknowns)
        self.rows = [list(r) for r in rows]
        if any(len(r) != len(self.unknowns) for r in self.rows):
            raise ValueError("row width does not match unknowns")
        self.rhs = list(rhs) if rhs is not None else None

    @classmethod
    def from_linear_polys(cls, polys, unknowns):
        """Extract the coefficient matrix of polynomials that are linear and
        homogeneous in the given unknown variables."""
        rows = []
        for p in polys:
            row = []
            for u in unknowns:
                if p.degree_in(u) > 1:
                    raise ValueError("system is not linear in the unknowns")
                cu = p.coeff_of_power(u, 1)
                if any(cu.uses(v) for v in unknowns):
                    raise ValueError("system is not linear in the unknowns")
                row.append(cu)
            zero_part = p
            for u in unknowns:
                zero_part = zero_part.coeff_of_power(u, 0)
            if zero_part:
                raise ValueError("system is not homogeneous in the unknowns")
            rows.append(row)
        return cls(unknowns, rows)


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
        num = num.scale(dom.div(dom.one, cd))
    return num, dprim


class RationalFunction(FieldOps):
    """Quotient of MultiPolys over the same ring, reduced on construction:
    gcd cancelled and the denominator in its normal form (monic, except
    primitive-integer with positive leading coefficient over QQ; see
    ``MultiPoly.primitive``), so that over every domain equal rational
    functions have identical num and den."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.dom, num.vars, num.dom.one)
        num._check_compatible(den)
        n, d = _rf_normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def const(cls, dom, variables, c):
        return cls(MultiPoly.const(dom, variables, c))

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
            num = num.scale(num.dom.div(num.dom.one, u))
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
    check = MultiPoly.const(p.dom, p.vars, p.dom.one)
    for g, k in parts:
        check = check * g**k
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
