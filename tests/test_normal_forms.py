"""Normal forms: monic on every field, primitive-integer over QQ.

Property tests (hypothesis) for gcd and RationalFunction normal forms over
Q(sqrt(105)), QQ, Frac(Q[a]) and a branch extension, gcds with zero over
QQ, ZZ and Q(sqrt(105)), cheap negation of
rational functions, curve elements over a fraction field, and the
structure of the certification curve's divisors, whose computation
converts each polynomial of positive degree to integer pairs once.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbelyi import goldens as G
from mpbelyi import poly as poly_module
from mpbelyi.curve import BranchExtDomain, CurveModel, divisor_of
from mpbelyi.mp import mp_differential
from mpbelyi.parse import parse_poly
from mpbelyi.poly import (
    Field,
    FractionFieldDomain,
    MultiPoly,
    QQ,
    ZZ,
    QuadDomain,
    RationalDomain,
    RationalFunction,
    exact_divide,
    poly_gcd,
)
from mpbelyi.scalars import QuadExt

K = QuadDomain(105)
PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
quad = st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)
nonzero_quad = quad.filter(bool)


def upoly(dom, coeffs):
    return st.lists(coeffs, min_size=1, max_size=4).map(
        lambda cs: MultiPoly.from_univariate(dom, "x", cs)
    )


quad_poly = upoly(K, quad)
nonzero_quad_poly = quad_poly.filter(bool)
rat_poly = upoly(QQ, small_q)


def monic(f):
    """f divided by its leading coefficient; 0 stays 0."""
    if not f:
        return f
    return f.scale(K.one / f.leading()[1])


def lead(f):
    return f.leading()[1]


# -- gcd over Q(sqrt(105)) ------------------------------------------------------


@PROPS
@given(quad_poly, quad_poly, nonzero_quad_poly)
def test_gcd_of_planted_factor_is_monic_multiple(p, q, h):
    assert poly_gcd(p * h, q * h) == monic(h * poly_gcd(p, q))


@PROPS
@given(quad_poly, quad_poly)
def test_nonzero_gcd_is_monic_and_divides_both(p, q):
    g = poly_gcd(p, q)
    if not (p or q):
        assert not g
        return
    assert lead(g) == K.one
    assert exact_divide(p, g) is not None
    assert exact_divide(q, g) is not None


@PROPS
@given(quad_poly, nonzero_quad_poly, nonzero_quad_poly)
def test_rational_function_normal_form_ignores_common_factor(n, d, k):
    r = RationalFunction(n, d)
    s = RationalFunction(n * k, d * k)
    assert s.num == r.num and s.den == r.den
    assert lead(r.den) == K.one


@PROPS
@given(quad_poly, nonzero_quad_poly, nonzero_quad)
def test_rational_function_normal_form_ignores_unit(n, d, u):
    r = RationalFunction(n, d)
    s = RationalFunction(n.scale(u), d.scale(u))
    assert s.num == r.num and s.den == r.den


# -- monic normal forms over Frac(Q[a]) and Q(w), w^2 = 7 -------------------------


def test_every_domain_is_a_field():
    for cls in (RationalDomain, QuadDomain, FractionFieldDomain, BranchExtDomain):
        assert issubclass(cls, Field)


FA = FractionFieldDomain(QQ, ("a",))
W7 = BranchExtDomain(QQ, Fraction(7))
a_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(
    lambda cs: MultiPoly.from_univariate(QQ, "a", cs)
)
FIELDS = {
    "frac_a": (FA, st.builds(RationalFunction, a_poly, a_poly.filter(bool)).map(FA.coerce)),
    "w7": (W7, st.builds(lambda r, s: W7.coerce(r) + W7.w() * s, small_q, small_q)),
}


def field_poly(name):
    dom, coeffs = FIELDS[name]
    return st.lists(coeffs, min_size=1, max_size=3).map(
        lambda cs: MultiPoly.from_univariate(dom, "x", cs)
    )


@pytest.mark.parametrize("name", FIELDS)
@PROPS
@given(data=st.data())
def test_primitive_is_leading_coefficient_times_monic(name, data):
    p = data.draw(field_poly(name).filter(bool))
    u, g = p.primitive()
    assert g * u == p
    assert lead(g) == FIELDS[name][0].one


@pytest.mark.parametrize("name", FIELDS)
@PROPS
@given(data=st.data())
def test_field_rational_function_normal_form_ignores_common_factor(name, data):
    n = data.draw(field_poly(name))
    d, k = (data.draw(field_poly(name).filter(bool)) for _ in range(2))
    r = RationalFunction(n, d)
    s = RationalFunction(n * k, d * k)
    assert s.num == r.num and s.den == r.den
    assert lead(r.den) == FIELDS[name][0].one


@pytest.mark.parametrize("name", FIELDS)
@PROPS
@given(data=st.data())
def test_field_gcd_of_planted_factor_is_monic_multiple(name, data):
    p, q = (data.draw(field_poly(name)) for _ in range(2))
    h = data.draw(field_poly(name).filter(bool))
    assert poly_gcd(p * h, q * h) == (h * poly_gcd(p, q)).primitive_part()


@pytest.mark.parametrize("dom", [FA, W7], ids=["frac_a", "w7"])
def test_equal_rational_functions_have_identical_num_and_den(dom):
    a = dom.coerce(MultiPoly.var(QQ, ("a",), "a")) if dom is FA else dom.w()
    x = MultiPoly.var(dom, ("x",), "x")
    n, d, k = x + a, x * a + 1, x * a * 2 - 3
    r, s = RationalFunction(n * k, d * k), RationalFunction(n, d)
    assert r.num == s.num and r.den == s.den
    assert lead(s.den) == dom.one


# -- gcd over QQ keeps the primitive-integer form -----------------------------------


def is_primitive_integer(g):
    cs = list(g.terms.values())
    if not all(c.denominator == 1 for c in cs):
        return False
    return math.gcd(*(c.numerator for c in cs)) == 1 and lead(g) > 0


@PROPS
@given(rat_poly, rat_poly, rat_poly.filter(lambda h: not h.is_constant()))
def test_rational_gcd_is_primitive_integer(p, q, h):
    g = poly_gcd(p * h, q * h)
    assert is_primitive_integer(g)
    assert exact_divide(g, h.primitive_part()) is not None
    assert exact_divide(p * h, g) is not None
    assert exact_divide(q * h, g) is not None


def test_rational_gcd_frozen_forms():
    v = ("x",)
    g = poly_gcd(parse_poly("3/4*x^2-3/4", v), parse_poly("-2/3*x+2/3", v))
    assert g == parse_poly("x-1", v)
    g2 = poly_gcd(parse_poly("(2*x+1)*(x-5)", v), parse_poly("(4*x+2)*(x+7)", v))
    assert g2 == parse_poly("2*x+1", v)


# -- a gcd with zero is the gcd of the input with itself ----------------------------

GCD_RINGS = {"QQ": rat_poly, "ZZ": upoly(ZZ, st.integers(-9, 9)), "Q(sqrt(105))": quad_poly}


@pytest.mark.parametrize("name", GCD_RINGS)
@PROPS
@given(data=st.data())
def test_gcd_with_zero_is_gcd_with_itself(name, data):
    q = data.draw(GCD_RINGS[name])
    zero = MultiPoly.zero(q.dom, q.vars)
    assert poly_gcd(zero, q) == poly_gcd(q, q) == poly_gcd(q, zero)


def test_gcd_of_zero_and_a_constant_keeps_the_content():
    for dom, c, want in ((QQ, Fraction(-6), 6), (ZZ, -6, 6), (K, K.coerce(-6), 1)):
        six = MultiPoly.const(dom, ("x",), c)
        assert poly_gcd(MultiPoly.zero(dom, ("x",)), six) == want


# -- negation -----------------------------------------------------------------------


frac_ac_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_q, min_size=1, max_size=4
).map(lambda t: MultiPoly(QQ, ("a", "c"), t))


@PROPS
@given(frac_ac_poly, frac_ac_poly.filter(bool))
def test_negation_keeps_the_normal_form_over_q_a_c(n, d):
    r = RationalFunction(n, d)
    neg = -r
    again = RationalFunction(-r.num, r.den)
    assert neg.num == again.num and neg.den == again.den
    assert neg + r == 0


def test_negation_over_fraction_field_coefficients():
    F = FractionFieldDomain(QQ, ("a", "c"))
    a = MultiPoly.var(QQ, ("a", "c"), "a")
    c = MultiPoly.var(QQ, ("a", "c"), "c")
    num = MultiPoly.from_univariate(F, "x", [a * c - 1, RationalFunction(a, c + 2), a])
    den = MultiPoly.from_univariate(F, "x", [c, F.coerce(3)])
    r = RationalFunction(num, den)
    neg = -r
    again = RationalFunction(-r.num, r.den)
    assert neg.num == again.num and neg.den == again.den
    assert r - r == 0 and (r - neg) == r * 2


# -- curve elements over a fraction field -------------------------------------------


def test_curve_elements_over_fraction_field():
    F = FractionFieldDomain(QQ, ("a",))
    a = MultiPoly.var(QQ, ("a",), "a")
    C = CurveModel(MultiPoly.from_univariate(F, "x", [a, 0, 0, 1]))  # y^2 = x^3 + a
    x, y = C.x(), C.y()
    s = y + x
    assert s.q == RationalFunction(MultiPoly.const(F, ("x",), 1))
    assert s.p == RationalFunction(MultiPoly.var(F, ("x",), "x"))
    assert y * y == x**3 + a
    assert x**2 == x * x
    assert (1 - x) + x == C.element(1)
    xa = x + a
    assert xa.p == RationalFunction(MultiPoly.from_univariate(F, "x", [a, 1]))
    assert not xa.q
    assert C.element(RationalFunction(a, a + 1)) * (a + 1) == C.element(a)


# -- the certification curve ------------------------------------------------------------


def certification(sign):
    gt = "(%s45*sqrt(105))" % ("" if sign > 0 else "-")

    def px(text):
        return parse_poly(text.replace("g", gt), ("x",), dom=K)

    curve = CurveModel(px(G.CERT_MODEL_F))
    beta = curve.element(RationalFunction(px(G.CERT_N0_NUM), px(G.CERT_N0_DEN)))
    return px, beta


def test_certification_divisor_of_beta_has_small_monic_generators():
    for sign in (1, -1):
        px, beta = certification(sign)
        d = divisor_of(beta)
        clusters = [e for e in d.entries if e[0] != "place"]
        want = [(px("x-3"), 5), (px("x+5"), 3), (px("x-105/64+1/64*g"), -1)]
        assert len(clusters) == len(want)
        for g, m in want:
            assert [e[0] for e in clusters if e[1] == g] == ["cluster_both"]
            assert [e[2] for e in clusters if e[1] == g] == [m]
        [(kind, place, mult)] = [e for e in d.entries if e[0] == "place"]
        assert place.kind == "infinite_ramified" and mult == -14


def test_divisor_of_beta_converts_each_polynomial_to_pairs_once(monkeypatch):
    # a polynomial keeps its integer pairs, and the pair kernels hand them on
    # to what they build, so no polynomial of positive degree is converted
    # twice, however many divisions it enters.  Constants are left out: Yun's
    # loop ends on a constant one that a difference builds afresh.
    _, beta = certification(1)
    converted = []
    ints = poly_module._quad_ints

    def counted(p):
        if not hasattr(p, "_pairs"):
            converted.append(tuple(sorted(p.terms.items())))
        return ints(p)

    monkeypatch.setattr(poly_module, "_quad_ints", counted)
    divisor_of(beta)
    nonconstant = [t for t in converted if t[-1][0] != (0,)]
    assert nonconstant and len(nonconstant) == len(set(nonconstant))


def test_certification_operator_returns():
    _, beta = certification(1)
    u = mp_differential(beta)
    assert u
    assert u == mp_differential(1 - beta)
    for e in divisor_of(1 - beta).entries:
        if e[0] != "place":
            assert lead(e[1]) == K.one
