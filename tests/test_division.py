"""The sparse division kernel: exact_divide and divide_out.

Property tests (hypothesis) over bivariate QQ and ZZ, trivariate ZZ,
bivariate ZZ with exponents at the packed fields' width edges (2^k - 1 and
2^k, up to 400), univariate Q(sqrt(105)) and univariate Frac(Q[a]), and a
cross-check against the plain division loop that rebuilds the whole
remainder for every quotient term.
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
    divide_out,
    exact_divide,
)
from mpbelyi.scalars import QuadExt

K = QuadDomain(105)
F = FractionFieldDomain(QQ, ("a",))
# 60 examples over the six rings of DOMAINS: as many per ring as 40 over four
PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
quad = st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)


def upoly(dom, coeffs):
    return st.lists(coeffs, min_size=1, max_size=4).map(
        lambda cs: MultiPoly.from_univariate(dom, "x", cs)
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
    "Q(sqrt(105))[x]": upoly(K, quad),
    "Frac(Q[a])[x]": upoly(F, frac_a),
}


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
