"""Genus-one hyperelliptic models y^2 = f(x) and their local geometry.

A curve is y^2 = f(x) with f square-free of degree 3 or 4 over an exact
coefficient field K.  ``CurveModel`` is also its function field K(x)(y):
the ``poly.BranchExtDomain`` over Frac(K[x]) with radicand f and generator
w = y.  Functions on the curve, P(x) + y*Q(x) with rational P and Q, are
its elements ``FunctionFieldElement``, a ``scalars.BranchExt``, so their
arithmetic is the extension's.  The module provides places (affine points,
branch points, places at infinity), exact local Laurent expansions in a
uniformizer, orders of vanishing, divisors grouped by conjugacy cluster,
residues of quadratic differentials, and exact j-invariants (one formula,
from the invariants of the binary quartic; a cubic is a quartic with no
x^4 term).

The four place types share one base, ``_Place``: it holds the curve and the
field the local frames live in, compares places by type, curve and the
place's own data, and builds every frame by one recipe.  x(t) is given by
its exact terms (x0 + t, x0 + t^2, 1/t or 1/t^2), dx/dt is their term-wise
derivative, and y(t) is the square root of f(x(t)) that the place selects.

A place that needs a square root outside K (see ``_root``) gets its
frames over the ``poly.BranchExtDomain`` of K that holds it; computed
orders and residues are exact there too.
"""

from __future__ import annotations

import math

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
from .scalars import BranchExt
from .series import LaurentSeries, MAX_TRUNCATION, SeriesPrecisionError

# Starts at 1: every rung is exact (see ``_on_ladder``), and most orders and
# residues need a few terms, ord(y +- x^2) at infinity about three.
_PREC_LADDER = (1, 2, 4, 10, 18, 32, MAX_TRUNCATION)


# --------------------------------------------------------------------------
# the curve


class FunctionFieldElement(BranchExt):
    """P(x) + y*Q(x) on a fixed curve: the ``BranchExt`` of its
    ``CurveModel``, so ``p``, ``q`` and ``curve`` are ``a``, ``b`` and
    ``ext``, with P and Q reduced rational functions."""

    __slots__ = ()

    def __init__(self, curve: CurveModel, p: RationalFunction, q: RationalFunction):
        super().__init__(p, q, curve)

    p, q, curve = BranchExt.a, BranchExt.b, BranchExt.ext

    def __str__(self):
        if not self.q:
            return str(self.p)
        return "(%s) + y*(%s)" % (self.p, self.q)

    def __repr__(self):
        return "FunctionFieldElement(%s)" % self


class CurveModel(BranchExtDomain):
    """y^2 = f(x), f square-free of degree 3 or 4 with nonzero discriminant
    over the field dom.  As a domain it is the function field: the
    ``BranchExtDomain`` over Frac(dom[x]) with radicand f, whose generator
    w is y.  Two models of the same f are equal, and their elements mix."""

    element_class = FunctionFieldElement

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
        super().__init__(FractionFieldDomain(f.dom, ("x",)), RationalFunction(f))
        self.name = "%s(y), y^2 = %s" % (self.base.name, f)

    def __hash__(self):
        # the radicand, a RationalFunction, does not hash; equal curves have
        # equal bases and equal monomials in f
        return hash((self.base, frozenset(self.f.terms)))

    # -- elements ------------------------------------------------------------

    def element(self, p, q=None) -> FunctionFieldElement:
        """p + y*q, each part coerced into Frac(dom[x]) (None is zero): a
        polynomial or rational function in x, or a scalar of dom, which over
        Frac(K[a, ...]) includes polynomials and rational functions in the
        parameters.  Raises TypeError for a value that is neither."""
        p, q = (self.base.coerce(0 if v is None else v) for v in (p, q))
        return FunctionFieldElement(self, p, q)

    def x(self) -> FunctionFieldElement:
        return self.element(MultiPoly.var(self.dom, ("x",), "x"))

    y = BranchExtDomain.w

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
        r = _root(self.dom, fx)
        return AffinePlace(self, x0, r if branch >= 0 else -r)

    def places_at_infinity(self):
        if self.degree == 3:
            return [RamifiedInfinitePlace(self)]
        return [InfinitePlace(self, 1), InfinitePlace(self, -1)]


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


def _root(dom, square):
    """dom's own square root of square, else the generator w of
    ``BranchExtDomain(dom, square)``."""
    r = dom.sqrt(square)
    return r if r is not None else BranchExtDomain(dom, square).w()


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
    """A place of the curve.  root, the lead of y(t) in its frames, is y0 or
    the root of f(x(t))'s lead that the place selects (see ``_root``); edom,
    the field the frames live in, is root's extension when root is a
    ``BranchExt``, else the curve's field.  Places are equal when they have
    the same type, curve and _key().  Over x = infinity, pole_orders holds
    the orders (s_x, s_y) of the poles of x and y; it is None at an affine
    place."""

    pole_orders = None

    def __init__(self, curve: CurveModel, root):
        self.curve = curve
        self.edom = root.ext if isinstance(root, BranchExt) else curve.dom
        self.root = self.edom.coerce(root)

    def _key(self):
        return ()

    def conjugate(self):
        """The image under y -> -y; a ramified place is its own."""
        return self

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.curve == other.curve
            and self._key() == other._key()
        )

    def _frame(self, x_terms: dict, window: int) -> _Frame:
        """The frame with x(t) the sum of x_terms {exponent: coefficient}
        (integer coefficients but for the constant x0) and dx/dt their
        term-wise derivative, both known below t^window.  y(t) is the
        square root of f(x(t)) whose lead is the place's root."""
        dom = self.edom
        x_ser = LaurentSeries(dom, {k: dom.coerce(c) for k, c in x_terms.items()}, window)
        dxdt = LaurentSeries(dom, {k - 1: dom.coerce(k * c) for k, c in x_terms.items() if k}, window)
        f_ser = _eval_poly_series(self.curve.f, x_ser)
        return _Frame(dom, x_ser, f_ser.sqrt(self.root), dxdt)


class AffinePlace(_Place):
    """Unramified affine point (x0, y0); uniformizer t = x - x0."""

    kind = "affine"

    def __init__(self, curve: CurveModel, x0, y0):
        super().__init__(curve, y0)
        self.x0 = x0
        self.y0 = y0

    def _key(self):
        return (self.x0, self.y0)

    def conjugate(self):
        return AffinePlace(self.curve, self.x0, -self.y0)

    def frame(self, prec: int) -> _Frame:
        return self._frame({0: self.x0, 1: 1}, prec)

    def __str__(self):
        return "(x=%s, y=%s)" % (self.curve.dom.render(self.x0), self.y0)


class RamifiedAffinePlace(_Place):
    """Branch point (x0, 0); uniformizer t with x = x0 + t^2."""

    kind = "affine_ramified"

    def __init__(self, curve: CurveModel, x0):
        fp = curve.f.derivative("x").eval_scalars({"x": x0})
        super().__init__(curve, _root(curve.dom, fp))
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
    pole_orders = (1, 2)

    def __init__(self, curve: CurveModel, sign: int):
        lc = curve.f.coeff_of_power("x", 4).constant_value()
        self.sign = 1 if sign >= 0 else -1
        super().__init__(curve, _root(curve.dom, lc) * self.sign)

    def _key(self):
        return (self.sign,)

    def conjugate(self):
        return InfinitePlace(self.curve, -self.sign)

    def frame(self, prec: int) -> _Frame:
        return self._frame({-1: 1}, prec + 6)

    def __str__(self):
        return "(x=inf, branch %s)" % ("+" if self.sign > 0 else "-")


class RamifiedInfinitePlace(_Place):
    """The single place over x = infinity on a cubic model;
    uniformizer t with x = 1/t^2."""

    kind = "infinite_ramified"
    pole_orders = (2, 3)

    def __init__(self, curve: CurveModel):
        lc = curve.f.coeff_of_power("x", 3).constant_value()
        super().__init__(curve, _root(curve.dom, lc))

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
    when every rung is, the ArithmeticError says what happened on each.

    The ladder starts at prec 1 because no rung can answer wrongly: a
    coefficient below a series' prec is exact, so a valuation or a t^-2
    coefficient read on a low rung is the one a higher rung reads, and a
    rung too low to see it is undecided.  A frame's cost grows fast with
    prec over Frac(Q[a,c]), so the lowest rung that decides is the
    cheapest."""
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


def _degree(rf: RationalFunction) -> int:
    return rf.num.degree_in("x") - rf.den.degree_in("x")


def order_at(elem: FunctionFieldElement, place) -> int:
    """Exact order of vanishing (negative at a pole).  Over x = infinity
    ord(P) = -s_x*deg P and ord(y*Q) = -s_y - s_x*deg Q, with deg the
    degree of num less that of den and (s_x, s_y) the place's pole_orders:
    when the two differ the smaller is the order and no frame is built.
    Only a tie, where the leads may cancel, goes up the precision ladder."""
    if not elem:
        raise ValueError("the zero function has no order")
    if place.pole_orders is not None:
        s_x, s_y = place.pole_orders
        ords = []
        if elem.p:
            ords.append(-s_x * _degree(elem.p))
        if elem.q:
            ords.append(-s_y - s_x * _degree(elem.q))
        if len(ords) == 1 or ords[0] != ords[1]:
            return min(ords)
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

    ``divisor_of`` builds it with no zero multiplicities.
    """

    def __init__(self, entries):
        self.entries = entries

    def degree(self) -> int:
        total = 0
        for e in self.entries:
            total += _entry_degree(e)
        return total

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(_entry_str(e) for e in self.entries)


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


def _ords_in(rf: RationalFunction, g: MultiPoly):
    """(multiplicity of g in rf.num, in rf.den); inf for the zero function."""
    if not rf:
        return math.inf, 0
    up, _ = divide_out(rf.num, g)
    down, _ = divide_out(rf.den, g)
    return up, down


def _squarefree_parts(polys):
    """The square-free parts of the nonconstant inputs (Yun)."""
    work = []
    for p in polys:
        if p and p.degree_in("x") >= 1:
            _, parts = squarefree_decomposition(p, "x")
            work.extend(g for g, _ in parts)
    return work


def coprime_basis(polys):
    """Pairwise-coprime square-free polynomials in normal form generating
    the same set of roots as the inputs: monic, except primitive-integer
    over QQ (see ``MultiPoly.primitive``)."""
    return _refine([], _squarefree_parts(polys))


def _refine(basis, work):
    """basis, a coprime basis as coprime_basis returns, refined by the
    square-free polynomials work: each is split against the members it
    meets, so members already coprime are not compared again."""
    basis = list(basis)
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
    conjugate root families that are not rational.

    The basis is that of f and the nums and dens of P and Q.  The norm
    n = P^2 - f*Q^2 enters unreduced, as N/(P.den^2*Q.den^2) with
    N = (P.num*Q.den)^2 - f*(Q.num*P.den)^2: a fraction has the orders of
    its reduced form, and the roots of that denominator are basis roots, so
    ord_g(n) = ord_g(N) - 2*(ord_g P.den + ord_g Q.den) and no gcd or
    square-free decomposition of the norm is needed.  Only what is left of
    N once every basis polynomial is divided out refines the basis (factor
    refinement, Bach, Driscoll and Shallit, J. Algorithms 15, 1993): it
    holds the zeros where P = +-y*Q cancels, and it splits a generator,
    such as x^2 - x, whose roots carry different orders of N."""
    if not elem:
        raise ValueError("the zero function has no divisor")
    curve = elem.curve
    f = curve.f
    p, q = elem.p, elem.q
    cands = [f]
    for rf in (p, q):
        if rf:
            cands.append(rf.num)
            cands.append(rf.den)
    if not q:
        norm_num = p.num * p.num
    elif not p:
        norm_num = -(f * (q.num * q.num))
    else:
        a = p.num * q.den
        b = q.num * p.den
        norm_num = a * a - f * (b * b)
    basis = coprime_basis(cands)
    orders = []
    rest = norm_num
    for g in basis:
        k, rest = divide_out(rest, g)
        orders.append(k)
    if rest.degree_in("x") >= 1:
        basis = _refine(basis, _squarefree_parts([rest]))
        orders = [divide_out(norm_num, g)[0] for g in basis]
    entries = []
    for g, o_norm in zip(basis, orders):
        ramified = exact_divide(f, g) is not None
        p_up, p_down = _ords_in(p, g)
        q_up, q_down = _ords_in(q, g)
        o_p = p_up - p_down
        o_q = q_up - q_down
        if ramified:
            v = min(2 * o_p, 1 + 2 * o_q)
            if v and not math.isinf(v):
                entries.append(("cluster_ram", g, int(v)))
            continue
        m2 = min(o_p, o_q)
        if math.isinf(m2):
            continue
        m2 = int(m2)
        m1 = o_norm - 2 * (p_down + q_down) - m2
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
