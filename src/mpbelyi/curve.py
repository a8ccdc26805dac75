"""Genus-one hyperelliptic models y^2 = f(x) and their local geometry.

A curve is y^2 = f(x) with f square-free of degree 3 or 4 over an exact
coefficient field.  Functions on the curve are P(x) + y*Q(x) with rational
P, Q.  The module provides places (affine points, branch points, places at
infinity), exact local Laurent expansions in a uniformizer, orders of
vanishing, divisors grouped by conjugacy cluster, residues of quadratic
differentials, and exact j-invariants (one formula, from the invariants of
the binary quartic; a cubic is a quartic with no x^4 term).

The four place types share one base, ``_Place``: it holds the curve and the
field the local frames live in, compares places by type, curve and the
place's own data, and builds every frame by one recipe.  x(t) is given by
its exact terms (x0 + t, x0 + t^2, 1/t or 1/t^2), dx/dt is their term-wise
derivative, and y(t) is the square root of f(x(t)) that the place selects.

Points whose y-coordinate lives outside the coefficient field get their
frames over the quadratic extension ``poly.BranchExtDomain`` of that field,
with y as its generator w (elements ``scalars.BranchExt``); computed orders
and residues are exact there too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (
    BranchExtDomain,
    FractionFieldDomain,
    MultiPoly,
    RationalFunction,
    divide_out,
    exact_divide,
    poly_gcd,
    squarefree_decomposition,
)
from .scalars import BranchExt, FieldOps
from .series import LaurentSeries, MAX_TRUNCATION, SeriesPrecisionError

_PREC_LADDER = (10, 18, 32, MAX_TRUNCATION)


# --------------------------------------------------------------------------
# the curve


class CurveModel:
    """y^2 = f(x), f square-free of degree 3 or 4 with nonzero discriminant."""

    def __init__(self, f: MultiPoly):
        if f.vars != ("x",):
            raise ValueError("curve polynomial must live in the ring with variable x")
        deg = f.degree_in("x")
        if deg not in (3, 4):
            raise ValueError("genus-one model needs degree 3 or 4, got %d" % deg)
        self.f = f
        self.dom = f.dom
        self.degree = deg
        if not isinstance(f.dom, FractionFieldDomain):
            g = poly_gcd(f, f.derivative("x"))
            if not g.is_constant():
                raise ValueError("branch polynomial is not square-free: gcd %s" % g)
        one = MultiPoly.const(self.dom, ("x",), self.dom.one)
        self._one_rf = RationalFunction(one)
        self.f_rf = RationalFunction(f)

    # -- elements ------------------------------------------------------------

    def element(self, p, q=None) -> "FunctionFieldElement":
        """p + y*q.  A RationalFunction or MultiPoly in x is a function of x;
        anything else is a scalar coerced into the coefficient field, which
        over Frac(K[a, ...]) includes polynomials and rational functions in
        the parameters.  Raises TypeError for a value that is neither."""

        def lift(v):
            if v is None:
                return RationalFunction(MultiPoly.zero(self.dom, ("x",)))
            if isinstance(v, RationalFunction) and self._in_x_ring(v.num):
                return v
            if isinstance(v, MultiPoly) and self._in_x_ring(v):
                return RationalFunction(v)
            return RationalFunction(MultiPoly.const(self.dom, ("x",), v))

        return FunctionFieldElement(self, lift(p), lift(q))

    def _in_x_ring(self, p: MultiPoly) -> bool:
        return p.vars == ("x",) and p.dom == self.dom

    def x(self) -> "FunctionFieldElement":
        return self.element(MultiPoly.var(self.dom, ("x",), "x"))

    def y(self) -> "FunctionFieldElement":
        return self.element(None, self.dom.one)

    def f_at(self, x0):
        return self.f.eval_scalars({"x": self.dom.coerce(x0)})

    # -- places ------------------------------------------------------------

    def point(self, x0, branch: int = 1, y0=None):
        """The place over x = x0.  For a branch point (f(x0) = 0) the single
        ramified place; otherwise the point with y = y0 or the branch-signed
        square root of f(x0), extending the field when needed."""
        x0 = self.dom.coerce(x0)
        fx = self.f_at(x0)
        if self.dom.is_zero(fx):
            return RamifiedAffinePlace(self, x0)
        if y0 is not None:
            target = y0.ext.coerce(fx) if isinstance(y0, BranchExt) else fx
            if y0 * y0 != target:
                raise ValueError("y0^2 does not equal f(x0)")
            return AffinePlace(self, x0, y0)
        r = self.dom.sqrt(fx)
        if r is not None:
            y0 = r if branch >= 0 else -r
            return AffinePlace(self, x0, y0)
        ext = BranchExtDomain(self.dom, fx)
        w = ext.w()
        return AffinePlace(self, x0, w if branch >= 0 else -w)

    def places_at_infinity(self):
        if self.degree == 3:
            return [RamifiedInfinitePlace(self)]
        return [InfinitePlace(self, 1), InfinitePlace(self, -1)]


class FunctionFieldElement(FieldOps):
    """P(x) + y*Q(x) on a fixed curve; P, Q reduced rational functions."""

    __slots__ = ("curve", "p", "q")

    def __init__(self, curve: CurveModel, p: RationalFunction, q: RationalFunction):
        self.curve = curve
        self.p = p
        self.q = q

    def _wrap(self, other):
        if isinstance(other, FunctionFieldElement):
            if other.curve is not self.curve and other.curve.f != self.curve.f:
                raise ValueError("elements live on different curves")
            return other
        try:
            return self.curve.element(other)
        except TypeError:
            return None

    def __bool__(self):
        return bool(self.p) or bool(self.q)

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return FunctionFieldElement(self.curve, self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return FunctionFieldElement(self.curve, -self.p, -self.q)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        f = self.curve.f_rf
        return FunctionFieldElement(
            self.curve,
            self.p * o.p + f * self.q * o.q,
            self.p * o.q + self.q * o.p,
        )

    __rmul__ = __mul__

    def conj(self) -> "FunctionFieldElement":
        return FunctionFieldElement(self.curve, self.p, -self.q)

    def norm(self) -> RationalFunction:
        return self.p * self.p - self.curve.f_rf * self.q * self.q

    def inverse(self) -> "FunctionFieldElement":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverting the zero function")
        return FunctionFieldElement(self.curve, self.p / n, -self.q / n)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q

    def deriv_over_omega(self) -> "FunctionFieldElement":
        """The function (d self)/omega for omega = dx/y: equals
        (f*Q' + f'*Q/2) + y*P'."""
        f = self.curve.f_rf
        fp = RationalFunction(self.curve.f.derivative("x"))
        half = Fraction(1, 2)
        new_p = f * self.q.derivative("x") + fp * self.q * half
        new_q = self.p.derivative("x")
        return FunctionFieldElement(self.curve, new_p, new_q)

    def __str__(self):
        if not self.q:
            return str(self.p)
        return "(%s) + y*(%s)" % (self.p, self.q)

    def __repr__(self):
        return "FunctionFieldElement(%s)" % self


# --------------------------------------------------------------------------
# places and local frames


class _Frame:
    """Local data at a place: coefficient domain, x(t), y(t), dx/dt."""

    __slots__ = ("dom", "x", "y", "dxdt")

    def __init__(self, dom, x, y, dxdt):
        self.dom = dom
        self.x = x
        self.y = y
        self.dxdt = dxdt

    def omega_over_dt(self) -> LaurentSeries:
        return self.dxdt / self.y


def _series_domain_for(dom, needed_square):
    """The domain in which needed_square has a square root, extending once
    if necessary."""
    if dom.sqrt(needed_square) is not None:
        return dom
    return BranchExtDomain(dom, needed_square)


def _eval_poly_series(p: MultiPoly, x_ser: LaurentSeries) -> LaurentSeries:
    dom = x_ser.dom
    coeffs = p.univariate_coeffs("x") if p else []
    if not coeffs:
        return LaurentSeries.zero(dom, MAX_TRUNCATION)
    acc = LaurentSeries.const(dom, dom.coerce(coeffs[-1]), MAX_TRUNCATION)
    for c in reversed(coeffs[:-1]):
        acc = acc * x_ser + dom.coerce(c)
    return acc


def _eval_ratfunc_series(rf: RationalFunction, x_ser: LaurentSeries) -> LaurentSeries:
    num = _eval_poly_series(rf.num, x_ser)
    den = _eval_poly_series(rf.den, x_ser)
    return num / den


class _Place:
    """A place of the curve.  edom is the field its local frames live in;
    places are equal when they have the same type, curve and _key()."""

    def __init__(self, curve: CurveModel, edom):
        self.curve = curve
        self.edom = edom

    def _key(self):
        return ()

    def conjugate(self):
        """The image under y -> -y; a ramified place is its own."""
        return self

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.curve.f == other.curve.f
            and self._key() == other._key()
        )

    def _frame(self, x_terms: dict, window: int, y0=None, sign: int = 1) -> _Frame:
        """The frame with x(t) the sum of x_terms {exponent: coefficient}
        (integer coefficients but for the constant x0) and dx/dt their
        term-wise derivative, both known below t^window.  y(t) is
        y0*sqrt(f(x(t))/y0^2) when y0 is given, else sign*sqrt(f(x(t)))."""
        dom = self.edom
        x_ser = LaurentSeries(dom, {k: dom.coerce(c) for k, c in x_terms.items()}, window)
        dxdt = LaurentSeries(dom, {k - 1: dom.coerce(k * c) for k, c in x_terms.items() if k}, window)
        f_ser = _eval_poly_series(self.curve.f, x_ser)
        if y0 is None:
            y_ser = f_ser.sqrt()
            return _Frame(dom, x_ser, y_ser if sign > 0 else -y_ser, dxdt)
        y0 = dom.coerce(y0)
        y_ser = (f_ser * dom.div(dom.one, y0 * y0)).sqrt() * y0
        return _Frame(dom, x_ser, y_ser, dxdt)


class AffinePlace(_Place):
    """Unramified affine point (x0, y0); uniformizer t = x - x0."""

    kind = "affine"

    def __init__(self, curve: CurveModel, x0, y0):
        super().__init__(curve, y0.ext if isinstance(y0, BranchExt) else curve.dom)
        self.x0 = x0
        self.y0 = y0

    def _key(self):
        return (self.x0, self.y0)

    def conjugate(self):
        return AffinePlace(self.curve, self.x0, -self.y0)

    def frame(self, prec: int) -> _Frame:
        return self._frame({0: self.x0, 1: 1}, prec, y0=self.y0)

    def __str__(self):
        return "(x=%s, y=%s)" % (self.curve.dom.render(self.x0), self.y0)


class RamifiedAffinePlace(_Place):
    """Branch point (x0, 0); uniformizer t with x = x0 + t^2."""

    kind = "affine_ramified"

    def __init__(self, curve: CurveModel, x0):
        fp = curve.f.derivative("x").eval_scalars({"x": x0})
        super().__init__(curve, _series_domain_for(curve.dom, fp))
        self.x0 = x0

    def _key(self):
        return (self.x0,)

    def frame(self, prec: int) -> _Frame:
        return self._frame({0: self.x0, 2: 1}, prec)

    def __str__(self):
        return "(x=%s, y=0)" % self.curve.dom.render(self.x0)


class InfinitePlace(_Place):
    """One of the two places over x = infinity on a quartic model;
    uniformizer t = 1/x, branch tagged by the sign of y/x^2."""

    kind = "infinite"

    def __init__(self, curve: CurveModel, sign: int):
        lc = curve.f.coeff_of_power("x", 4).constant_value()
        super().__init__(curve, _series_domain_for(curve.dom, lc))
        self.sign = 1 if sign >= 0 else -1

    def _key(self):
        return (self.sign,)

    def conjugate(self):
        return InfinitePlace(self.curve, -self.sign)

    def frame(self, prec: int) -> _Frame:
        return self._frame({-1: 1}, prec + 6, sign=self.sign)

    def __str__(self):
        return "(x=inf, branch %s)" % ("+" if self.sign > 0 else "-")


class RamifiedInfinitePlace(_Place):
    """The single place over x = infinity on a cubic model;
    uniformizer t with x = 1/t^2."""

    kind = "infinite_ramified"

    def __init__(self, curve: CurveModel):
        lc = curve.f.coeff_of_power("x", 3).constant_value()
        super().__init__(curve, _series_domain_for(curve.dom, lc))

    def frame(self, prec: int) -> _Frame:
        return self._frame({-2: 1}, prec + 8)

    def __str__(self):
        return "(x=inf, ramified)"


def _expand(elem: FunctionFieldElement, frame: _Frame) -> LaurentSeries:
    out = _eval_ratfunc_series(elem.p, frame.x)
    if elem.q:
        out = out + frame.y * _eval_ratfunc_series(elem.q, frame.x)
    return out


def local_series(elem: FunctionFieldElement, place, prec: int) -> LaurentSeries:
    """Expansion of P + y*Q in the uniformizer at the place."""
    return _expand(elem, place.frame(prec))


def _on_ladder(place, what: str, read):
    """The first value of read(prec) up the precision ladder that is not None.
    None, ZeroDivisionError or SeriesPrecisionError leaves a rung undecided;
    when every rung is, the ArithmeticError says what happened on each."""
    failed = []
    for prec in _PREC_LADDER:
        try:
            out = read(prec)
        except (ZeroDivisionError, SeriesPrecisionError) as exc:
            failed.append("precision %d: %s: %s" % (prec, type(exc).__name__, exc))
            continue
        if out is not None:
            return out
        failed.append("precision %d: vanished to the truncation" % prec)
    raise ArithmeticError("%s at %s undecided; %s" % (what, place, "; ".join(failed)))


def order_at(elem: FunctionFieldElement, place) -> int:
    """Exact order of vanishing (negative at a pole)."""
    if not elem:
        raise ValueError("the zero function has no order")
    return _on_ladder(
        place, "order", lambda prec: local_series(elem, place, prec).valuation()
    )


def residue_of_quadratic_differential(u: FunctionFieldElement, place):
    """Coefficient of t^-2 in the expansion of u * (dx/y)^2, the invariant
    residue of the quadratic differential u*omega^2 at a double pole."""

    def read(prec):
        frame = place.frame(prec)
        w = frame.omega_over_dt()
        return (_expand(u, frame) * w * w).coefficient_of(-2)

    return _on_ladder(place, "residue", read)


# --------------------------------------------------------------------------
# divisors


class Divisor:
    """Formal sum of places and conjugacy clusters with multiplicities.

    Entries are tuples:
      ("place", place, mult)                  a single named place
      ("cluster_both", g, m)                  every point over every root of
                                              g, both branches, multiplicity m
      ("cluster_split", g, m_hi, m_lo)        each root of g carries m_hi on
                                              one branch and m_lo on the other
      ("cluster_ram", g, m)                   the branch point over each root
    """

    def __init__(self, entries):
        self.entries = [e for e in entries if _entry_mult_nonzero(e)]

    def degree(self) -> int:
        total = 0
        for e in self.entries:
            total += _entry_degree(e)
        return total

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(_entry_str(e) for e in self.entries)


def _entry_mult_nonzero(e) -> bool:
    if e[0] == "cluster_split":
        return bool(e[2]) or bool(e[3])
    return bool(e[2])


def _entry_degree(e) -> int:
    kind = e[0]
    if kind == "place":
        return e[2]
    g = e[1]
    d = g.degree_in("x")
    if kind == "cluster_both":
        return 2 * d * e[2]
    if kind == "cluster_split":
        return d * (e[2] + e[3])
    return d * e[2]


def _entry_str(e) -> str:
    kind = e[0]
    if kind == "place":
        return "%d*%s" % (e[2], e[1])
    if kind == "cluster_both":
        return "%d*[both branches over roots of %s]" % (e[2], e[1])
    if kind == "cluster_split":
        return "[%d/%d split over roots of %s]" % (e[2], e[3], e[1])
    return "%d*[branch points over roots of %s]" % (e[2], e[1])


def _ord_in(rf: RationalFunction, g: MultiPoly):
    """Multiplicity of g in a reduced rational function (inf for zero)."""
    if not rf:
        return math.inf
    up, _ = divide_out(rf.num, g)
    down, _ = divide_out(rf.den, g)
    return up - down


def coprime_basis(polys):
    """Pairwise-coprime square-free polynomials in normal form generating
    the same set of roots as the inputs: monic, except primitive-integer
    over QQ (see ``MultiPoly.primitive``)."""
    basis = []
    work = []
    for p in polys:
        if p and p.degree_in("x") >= 1:
            _, parts = squarefree_decomposition(p, "x")
            work.extend(g for g, _ in parts)
    while work:
        q = work.pop()
        q = q.primitive_part()
        if q.degree_in("x") < 1:
            continue
        split = False
        for i, b in enumerate(basis):
            g = poly_gcd(q, b)
            if g.degree_in("x") >= 1:
                basis.pop(i)
                nb = exact_divide(b, g)
                nq = exact_divide(q, g)
                work.extend([g, nb, nq])
                split = True
                break
        if not split:
            basis.append(q)
    return basis


def divisor_of(elem: FunctionFieldElement) -> Divisor:
    """Exact divisor of a nonzero function, with cluster-level entries for
    conjugate root families that are not rational."""
    if not elem:
        raise ValueError("the zero function has no divisor")
    curve = elem.curve
    f = curve.f
    n = elem.norm()
    cands = [f]
    for rf in (elem.p, elem.q, n):
        if rf:
            cands.append(rf.num)
            cands.append(rf.den)
    basis = coprime_basis(cands)
    entries = []
    for g in basis:
        ramified = exact_divide(f, g) is not None
        o_p = _ord_in(elem.p, g)
        o_q = _ord_in(elem.q, g)
        if ramified:
            v = min(2 * o_p, 1 + 2 * o_q)
            if v and v is not math.inf:
                entries.append(("cluster_ram", g, int(v)))
            continue
        o_n = _ord_in(n, g)
        m2 = min(o_p, o_q)
        if m2 is math.inf:
            continue
        m2 = int(m2)
        m1 = int(o_n) - m2
        if m1 == m2:
            if m1:
                entries.append(("cluster_both", g, m1))
            continue
        if g.degree_in("x") == 1:
            coeffs = g.univariate_coeffs("x")
            x0 = curve.dom.div(-coeffs[0], coeffs[1])
            plus = curve.point(x0, branch=1)
            minus = plus.conjugate()
            v_plus = order_at(elem, plus)
            if v_plus not in (m1, m2):
                raise ArithmeticError("branch resolution disagrees with norm data")
            v_minus = m1 + m2 - v_plus
            if v_plus:
                entries.append(("place", plus, v_plus))
            if v_minus:
                entries.append(("place", minus, v_minus))
        else:
            entries.append(("cluster_split", g, m1, m2))
    for pl in curve.places_at_infinity():
        v = order_at(elem, pl)
        if v:
            entries.append(("place", pl, v))
    return Divisor(entries)


# --------------------------------------------------------------------------
# j-invariants


def _j_of_binary_quartic(f: MultiPoly, degree: int):
    """j = 6912*I^3/(4*I^3 - J^2) from the degree-2 and degree-3 invariants
    I, J of f = a*x^4 + b*x^3 + c*x^2 + d*x + e as a binary quartic; a cubic
    is the quartic with a = 0, so y^2 = x^3 + A*x + B gets
    1728*4*A^3/(4*A^3 + 27*B^2)."""
    if f.degree_in("x") != degree:
        raise ValueError("%s model expected" % ("cubic" if degree == 3 else "quartic"))
    dom = f.dom
    e, d, c, b, a = f.univariate_coeffs("x") + [dom.zero] * (4 - degree)
    i2 = a * e * 12 - b * d * 3 + c * c
    j3 = a * c * e * 72 - a * d * d * 27 - e * b * b * 27 + b * c * d * 9 - c * c * c * 2
    num = i2 * i2 * i2
    den = num * 4 - j3 * j3
    if dom.is_zero(den):
        raise ValueError("singular model: discriminant vanishes")
    return dom.div(num * 6912, den)


def j_invariant_cubic(f: MultiPoly):
    """Exact j of y^2 = cubic."""
    return _j_of_binary_quartic(f, 3)


def j_invariant_quartic(f: MultiPoly):
    """Exact j of y^2 = quartic."""
    return _j_of_binary_quartic(f, 4)


def j_invariant(curve: CurveModel):
    if curve.degree == 3:
        return j_invariant_cubic(curve.f)
    return j_invariant_quartic(curve.f)
