"""The sparse division kernel: exact_divide and divide_out.

Property tests (hypothesis) over bivariate QQ, univariate Q(sqrt(105)) and
univariate Frac(Q[a]), and a cross-check against the plain division loop
that rebuilds the whole remainder for every quotient term.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpbelyi.poly import (
    QQ,
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
PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
quad = st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)


def upoly(dom, coeffs):
    return st.lists(coeffs, min_size=1, max_size=4).map(
        lambda cs: MultiPoly.from_univariate(dom, "x", cs)
    )


qq_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_q, min_size=1, max_size=5
).map(lambda t: MultiPoly(QQ, ("x", "y"), t))

a_poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    lambda cs: MultiPoly.from_univariate(QQ, "a", cs)
)
frac_a = st.builds(RationalFunction, a_poly, a_poly.filter(bool))

DOMAINS = {
    "QQ[x,y]": qq_poly,
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
    """Quotient p/q or None, rebuilding the remainder r - c*x^diff*q per step."""
    qe, qc = q.leading()
    quot = {}
    r = p
    while r:
        re, rc = r.leading()
        diff = tuple(a - b for a, b in zip(re, qe))
        if any(d < 0 for d in diff):
            return None
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


def test_divide_out_rejects_units_and_zero():
    two = MultiPoly.const(QQ, ("x",), 2)
    x = MultiPoly.var(QQ, ("x",), "x")
    with pytest.raises(ValueError):
        divide_out(x + 1, two)
    with pytest.raises(ZeroDivisionError):
        divide_out(x + 1, MultiPoly.zero(QQ, ("x",)))
    with pytest.raises(ValueError):
        divide_out(MultiPoly.zero(QQ, ("x",)), x)
