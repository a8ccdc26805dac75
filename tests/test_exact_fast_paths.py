"""The exact shortcuts of rational-function and series arithmetic.

Each shortcut must give what the general path gives:
- a QQ product, which runs on ZZ, equals the schoolbook Fraction product;
- a constant denominator is a unit, divided out with no gcd;
- equal denominators add without cross products;
- equality compares the unique normal forms part by part;
- the series square root, which multiplies each pair once, squares back;
- coercing 0 and 1 into Frac(Q[a,c]) returns the domain's own elements,
  and any other constant is that constant over one.

The last test counts gcds and exact divisions while the ansatz quartic's
frames at infinity are built, so putting a gcd back on unit denominators
fails here deterministically and not only as a slower benchmark.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpbelyi.curve
import mpbelyi.poly
from mpbelyi import goldens as G
from mpbelyi.curve import CurveModel
from mpbelyi.parse import parse_poly
from mpbelyi.poly import FractionFieldDomain, MultiPoly, QQ, QuadDomain, RationalFunction
from mpbelyi.scalars import QuadExt
from mpbelyi.series import LaurentSeries

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
AC = ("a", "c")
K = QuadDomain(105)
F = FractionFieldDomain(QQ, AC)

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero_q = small_q.filter(bool)
quad = st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)


def ac_poly(max_terms=4):
    return st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), small_q, min_size=1, max_size=max_terms
    ).map(lambda t: MultiPoly(QQ, AC, t))


def x_poly(dom, coeffs):
    return st.lists(coeffs, min_size=1, max_size=4).map(
        lambda cs: MultiPoly.from_univariate(dom, "x", cs)
    )


# rational functions over QQ, over Q(sqrt(105)) and the elements of
# Frac(Q[a,c]): (coefficient domain, variables, polynomials, nonzero constants)
RINGS = {
    "qq": (QQ, ("x",), x_poly(QQ, small_q), nonzero_q),
    "q105": (K, ("x",), x_poly(K, quad), quad.filter(bool)),
    "frac_ac": (QQ, AC, ac_poly(), nonzero_q),
}
ring_param = pytest.mark.parametrize("ring", RINGS)


def draw_poly(data, ring, nonzero=False, nonconstant=False):
    dom, variables, polys, units = RINGS[ring]
    p = data.draw(polys)
    if nonconstant and p.is_constant():
        p = p + MultiPoly.var(dom, variables, variables[-1])
    if nonzero and not p:
        p = p + data.draw(units)
    return p


def draw_const(data, ring):
    dom, variables, _, units = RINGS[ring]
    return MultiPoly.const(dom, variables, data.draw(units))


def one_like(p):
    return MultiPoly.const(p.dom, p.vars, p.dom.one)


# -- QQ products on ZZ --------------------------------------------------------


def schoolbook(p, q):
    """Every term of p times every term of q, on Fractions."""
    out = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = tuple(i + j for i, j in zip(ep, eq))
            out[e] = out.get(e, Fraction(0)) + Fraction(cp) * Fraction(cq)
    return {e: c for e, c in out.items() if c}


@PROPS
@given(ac_poly(6), ac_poly(6))
def test_qq_product_is_the_schoolbook_product(p, q):
    prod = p * q
    assert prod.terms == schoolbook(p, q)
    assert all(type(c) is Fraction for c in prod.terms.values())


# -- constant denominators -------------------------------------------------------


@ring_param
@PROPS
@given(data=st.data())
def test_constant_denominator_is_divided_out(ring, data):
    n, k = draw_poly(data, ring), draw_const(data, ring)
    r = RationalFunction(n, k)
    assert r.den == one_like(n)
    assert r.num == n.scale(n.dom.one / k.constant_value())


@ring_param
@PROPS
@given(data=st.data())
def test_constant_numerator_keeps_the_normal_form(ring, data):
    k = draw_const(data, ring)
    d = draw_poly(data, ring, nonconstant=True)
    h = draw_poly(data, ring, nonconstant=True)
    r = RationalFunction(k, d)
    # the gcd path, reached by planting a common factor h
    s = RationalFunction(k * h, d * h)
    assert r.num == s.num and r.den == s.den


# -- equal denominators and equality ------------------------------------------------


@ring_param
@PROPS
@given(data=st.data())
def test_equal_denominator_sum_is_the_cross_multiplied_sum(ring, data):
    n1, n2 = draw_poly(data, ring), draw_poly(data, ring)
    d = draw_poly(data, ring, nonzero=True)
    r1, r2 = RationalFunction(n1, d), RationalFunction(n2, d)
    total = RationalFunction(n1 + n2, d)
    assert (r1 + r2).num == total.num and (r1 + r2).den == total.den
    # the general path on the same sum: cross products over d*d
    cross = RationalFunction(r1.num * r2.den + r2.num * r1.den, r1.den * r2.den)
    assert (r1 + r2).num == cross.num and (r1 + r2).den == cross.den


@ring_param
@PROPS
@given(data=st.data())
def test_equality_agrees_with_cross_multiplication(ring, data):
    n, m = draw_poly(data, ring), draw_poly(data, ring)
    d, e, h = (draw_poly(data, ring, nonzero=True) for _ in range(3))
    r = RationalFunction(n, d)
    for s in (RationalFunction(n * h, d * h), RationalFunction(m, e), RationalFunction(n + m, d)):
        assert (r == s) == (r.num * s.den == s.num * r.den)
    assert r == RationalFunction(n * h, d * h)


def test_equality_with_a_foreign_ring_raises():
    r = RationalFunction(parse_poly("a+1", AC))
    with pytest.raises(ValueError):
        r == RationalFunction(parse_poly("a+1", ("a",)))


# -- series square roots ------------------------------------------------------------


# Over Frac(Q[a,c]) the tails are polynomials, as on the ansatz curve, and
# the leading roots constants or c: a root like a, a*c or a+1 makes every
# coefficient a rational function whose normalisation costs seconds of
# multivariate gcd (a full PRS in a against a power of a).
SERIES_FIELDS = {
    "qq": (QQ, small_q, nonzero_q),
    "q105": (K, quad, quad.filter(bool)),
    "frac_ac": (
        F,
        ac_poly(3).map(F.coerce),
        st.sampled_from(["1", "-2", "3/2", "c", "2*c"]).map(lambda t: F.coerce(parse_poly(t, AC))),
    ),
}


@pytest.mark.parametrize("window", [5, 6])
@pytest.mark.parametrize("field", SERIES_FIELDS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_series_sqrt_squares_back_to_the_window(field, window, data):
    dom, coeffs, units = SERIES_FIELDS[field]
    v = data.draw(st.sampled_from([-2, 0, 2]))
    root_lead = data.draw(units)
    tail = data.draw(st.lists(coeffs, min_size=window - 1, max_size=window - 1))
    terms = {v: root_lead * root_lead}
    terms.update({v + 1 + i: c for i, c in enumerate(tail)})
    f = LaurentSeries(dom, terms, v + window)
    s = f.sqrt()
    assert s.prec == v // 2 + window
    sq = s * s
    assert sq.prec == f.prec and sq == f


# -- constants in Frac(Q[a,c]) ------------------------------------------------------


def test_coercing_zero_and_one_returns_the_domain_elements():
    assert F.coerce(0) is F.zero and F.coerce(Fraction(1)) is F.one
    r = F.coerce(Fraction(-3, 2))
    assert r.num == MultiPoly.const(QQ, AC, Fraction(-3, 2)) and r.den == one_like(r.num)
    assert r == RationalFunction(MultiPoly.const(QQ, AC, -3), MultiPoly.const(QQ, AC, 2))


# -- no gcd on unit denominators ----------------------------------------------------


def count_calls(monkeypatch, names):
    """Wrap each named poly function wherever a package module binds it."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(mpbelyi.poly, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (mpbelyi.poly, mpbelyi.curve):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


def ansatz_curve():
    def coef(text):
        return F.coerce(parse_poly(text, AC))

    f = MultiPoly(F, ("x",), {(4,): F.one, (3,): coef("c"), (2,): coef(G.B_VALUE),
                              (1,): coef("a"), (0,): F.one})
    return CurveModel(f)


def test_ansatz_frames_at_infinity_run_no_gcd(monkeypatch):
    places = ansatz_curve().places_at_infinity()
    counts = count_calls(monkeypatch, ("poly_gcd", "exact_divide"))
    frames = [p.frame(12) for p in places]
    assert counts == {"poly_gcd": 0, "exact_divide": 0}
    # the frames are real: y = +-x^2 (1 + (c/2)/x + ...) at t = 1/x
    half_c = F.coerce(RationalFunction(parse_poly("c", AC), MultiPoly.const(QQ, AC, 2)))
    for sign, fr in zip((1, -1), frames):
        assert fr.y.coefficient_of(-2) == F.coerce(sign)
        assert fr.y.coefficient_of(-1) == half_c * sign
