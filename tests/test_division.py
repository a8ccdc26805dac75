"""The sparse division kernel: exact_divide and divide_out.

Property tests (hypothesis) over bivariate QQ and ZZ, trivariate ZZ,
bivariate ZZ with exponents at the packed fields' width edges (2^k - 1 and
2^k, up to 400), univariate Q(sqrt(105)) and Q(sqrt(2)), Q(sqrt(2))[y,x]
using x alone and univariate Frac(Q[a]), and a cross-check against the
plain division loop that rebuilds the whole remainder for every quotient
term.  Univariate division over Q(sqrt(d)) runs on integer pairs, so its
leads are drawn to have a nonzero sqrt(d) part, sqrt(d) itself among them
(its rationalised form, -d, is negative), over coefficients with non-unit
denominators; a guard test counts that it, a product and a derivative do
no ``QuadExt`` arithmetic.
The bivariate ring keeps the sparse kernel over ``QuadExt`` covered.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpbelyi.poly import (
    QQ,
    ZZ,
    FractionFieldDomain,
    MultiPoly,
    QuadDomain,
    RationalFunction,
    _mul_terms,
    divide_out,
    exact_divide,
    poly_gcd,
)
from mpbelyi.scalars import QuadExt

K = QuadDomain(105)
F = FractionFieldDomain(QQ, ("a",))
# 80 examples over the eight rings of DOMAINS: as many per ring as 40 over four
PROPS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def upoly(dom, coeffs):
    return st.lists(coeffs, min_size=1, max_size=4).map(
        lambda cs: MultiPoly.from_univariate(dom, "x", cs)
    )


def quad_upoly(d):
    """Polynomials in x over Q(sqrt(d)) of degree at most 3 whose lead is
    sqrt(d), r + s*sqrt(d) with s nonzero, or any nonzero coefficient."""
    coeff = st.builds(lambda r, s: QuadExt(r, s, d), small_q, small_q)
    lead = st.one_of(
        st.just(QuadExt(0, 1, d)),
        st.builds(lambda r, s: QuadExt(r, s, d), small_q, small_q.filter(bool)),
        coeff.filter(bool),
    )
    return st.builds(
        lambda cs, c: MultiPoly.from_univariate(QuadDomain(d), "x", cs + [c]),
        st.lists(coeff, max_size=3),
        lead,
    )


qq_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_q, min_size=1, max_size=5
).map(lambda t: MultiPoly(QQ, ("x", "y"), t))
zz_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9), min_size=1, max_size=5
).map(lambda t: MultiPoly(ZZ, ("x", "y"), t))
zz3_poly = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9), min_size=1, max_size=5
).map(lambda t: MultiPoly(ZZ, ("x", "y", "z"), t))
EDGES = sorted({2**k - 1 for k in range(1, 9)} | {2**k for k in range(1, 9)} | {200, 399, 400})
high_exponent = st.one_of(st.integers(0, 2), st.sampled_from(EDGES))
zz_high_poly = st.dictionaries(
    st.tuples(high_exponent, high_exponent), st.integers(-9, 9), min_size=1, max_size=4
).map(lambda t: MultiPoly(ZZ, ("x", "y"), t))

a_poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    lambda cs: MultiPoly.from_univariate(QQ, "a", cs)
)
frac_a = st.builds(RationalFunction, a_poly, a_poly.filter(bool))

DOMAINS = {
    "QQ[x,y]": qq_poly,
    "ZZ[x,y]": zz_poly,
    "ZZ[x,y,z]": zz3_poly,
    "ZZ[x,y] high exponents": zz_high_poly,
    "Q(sqrt(105))[x]": quad_upoly(105),
    "Q(sqrt(2))[x]": quad_upoly(2),
    "Q(sqrt(2))[y,x] in x": quad_upoly(2).map(lambda p: p.with_vars(("y", "x"))),
    "Frac(Q[a])[x]": upoly(F, frac_a),
}
QUAD_RINGS = sorted(name for name in DOMAINS if name.startswith("Q(sqrt"))


def polys(nonzero=False, nonconstant=False):
    """Triples (p, q, r) over one ring of DOMAINS; q nonzero or non-constant
    on request."""

    def triple(name):
        base = DOMAINS[name]
        second = base
        if nonzero:
            second = second.filter(bool)
        if nonconstant:
            second = second.filter(lambda f: f and not f.is_constant())
        return st.tuples(base, second, base)

    return st.sampled_from(sorted(DOMAINS)).flatmap(triple)


def reference_divide(p, q):
    """Quotient p/q or None, rebuilding the remainder r - c*x^diff*q per step;
    over ZZ also None when a leading coefficient leaves a remainder."""
    qe, qc = q.leading()
    quot = {}
    r = p
    while r:
        re, rc = r.leading()
        diff = tuple(a - b for a, b in zip(re, qe))
        if any(d < 0 for d in diff):
            return None
        if r.dom == ZZ:
            if rc % qc:
                return None
            c = rc // qc
        else:
            c = r.dom.div(rc, qc)
        quot[diff] = c
        r = r - MultiPoly(p.dom, p.vars, {diff: c}) * q
        if r:
            e = r.leading()[0]
            if (sum(e), e) >= (sum(re), re):
                return None
    return MultiPoly(p.dom, p.vars, quot)


@PROPS
@given(polys(nonzero=True))
def test_product_divides_back(t):
    p, q, _ = t
    assert exact_divide(p * q, q) == p


@PROPS
@given(polys(nonconstant=True))
def test_product_plus_unit_is_not_divisible(t):
    p, q, _ = t
    assert exact_divide(p * q + 3, q) is None


@PROPS
@given(st.sampled_from(QUAD_RINGS).flatmap(lambda name: st.tuples(*[DOMAINS[name]] * 3)))
def test_a_remainder_below_the_divisor_is_not_divisible(t):
    # the final remainder r, with deg r < deg q, decides the division
    p, q, r = t
    i = q.vars.index("x")
    r = MultiPoly(r.dom, r.vars, {e: c for e, c in r.terms.items() if e[i] < q.degree_in("x")})
    assume(r)
    assert exact_divide(p * q + r, q) is None


@PROPS
@given(polys(nonconstant=True), st.integers(0, 3))
def test_divide_out_counts_the_planted_power(t, k):
    p, q, _ = t
    assume(p and exact_divide(p, q) is None)
    assert divide_out(q**k * p, q) == (k, p)


@PROPS
@given(polys(nonzero=True))
def test_heap_division_matches_reference_loop(t):
    p, q, r = t
    for num in (p, p * q, p * q + r):
        assert exact_divide(num, q) == reference_divide(num, q)


def test_zz_division_rejects_a_remainder():
    x = MultiPoly.var(ZZ, ("x",), "x")
    assert exact_divide(2 * x + 1, 2) is None
    assert exact_divide(3 * x, 2 * x) is None
    assert exact_divide(6 * x - 4, 2) == 3 * x - 2
    assert exact_divide(-6 * x**2 + 3 * x, -3 * x) == 2 * x - 1
    # no variables: the one monomial is the empty tuple
    six = MultiPoly.const(ZZ, (), 6)
    assert exact_divide(six, 3) == MultiPoly.const(ZZ, (), 2)
    assert exact_divide(six, 4) is None


def test_a_lead_divisible_in_degree_but_not_per_variable_is_not_divisible():
    # each quotient exponent is lead(r) - lead(q) per variable, and here one
    # of them is negative although the total degree allows the division
    x, y, z = (MultiPoly.var(ZZ, ("x", "y", "z"), v) for v in "xyz")
    assert exact_divide(x**3, x * y) is None
    assert exact_divide(x * y**2, y**3) is None
    assert exact_divide(z**5 + x, x * z) is None
    assert exact_divide(x**3 * y, x * y) == x**2


@PROPS
@given(zz_poly, st.integers(2, 5))
def test_zz_division_by_a_constant_needs_every_coefficient_divisible(p, k):
    out = exact_divide(p, k)
    if all(c % k == 0 for c in p.terms.values()):
        assert out * k == p
    else:
        assert out is None


def test_divide_out_rejects_units_and_zero():
    two = MultiPoly.const(QQ, ("x",), 2)
    x = MultiPoly.var(QQ, ("x",), "x")
    with pytest.raises(ValueError):
        divide_out(x + 1, two)
    with pytest.raises(ZeroDivisionError):
        divide_out(x + 1, MultiPoly.zero(QQ, ("x",)))
    with pytest.raises(ValueError):
        divide_out(MultiPoly.zero(QQ, ("x",)), x)


def test_quad_gcd_and_division_do_no_element_arithmetic(monkeypatch):
    # univariate Q(sqrt(105)) input runs on integer pairs and builds each
    # output coefficient once, with no QuadExt operation
    x = MultiPoly.var(K, ("x",), "x")
    w = K.w()
    lin = x - w
    other = 3 * x + QuadExt(1, 2, 105) / 5
    f = lin**2 * other
    g = lin * (w * x + 7)
    # the product and derivative references multiply QuadExt coefficients,
    # before the counting starts
    want = (lin, lin * other, None, (2, other),
            MultiPoly(K, ("x",), _mul_terms(g.terms, f.terms)),
            MultiPoly(K, ("x",), {(k - 1,): c * k for (k,), c in f.terms.items() if k}))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "inverse"):
        fn = getattr(QuadExt, name)
        monkeypatch.setattr(QuadExt, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    got = (poly_gcd(f, g), exact_divide(f, lin), exact_divide(f, g), divide_out(f, lin),
           g * f, f.derivative("x"))
    monkeypatch.undo()
    assert calls == []
    assert got == want
