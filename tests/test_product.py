"""The sparse product kernel: MultiPoly.__mul__ against the schoolbook loop.

The kernel packs each exponent tuple into one int with a bit field per
variable, so the draws include exponents at the field-width edges (2^k - 1
and 2^k, and degrees up to 400) and products whose sums cancel, over ZZ,
QQ, Q(sqrt(105)) and Frac(Q[a]) in 0 to 3 variables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbelyi.poly import QQ, ZZ, FractionFieldDomain, MultiPoly, QuadDomain, RationalFunction
from mpbelyi.scalars import QuadExt

K = QuadDomain(105)
F = FractionFieldDomain(QQ, ("a",))
VARS = ("x", "y", "z")
PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

EDGES = sorted({2**k - 1 for k in range(1, 9)} | {2**k for k in range(1, 9)} | {200, 399, 400})
exponent = st.one_of(st.integers(0, 3), st.sampled_from(EDGES))

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
a_poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    lambda cs: MultiPoly.from_univariate(QQ, "a", cs)
)
COEFFS = {
    "ZZ": (ZZ, st.integers(-9, 9)),
    "QQ": (QQ, small_q),
    "Q(sqrt(105))": (K, st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)),
    "Frac(Q[a])": (F, st.builds(RationalFunction, a_poly, a_poly.filter(bool))),
}
ring_param = pytest.mark.parametrize("ring", sorted(COEFFS))
nvars_param = pytest.mark.parametrize("n", range(4))


def polys(ring, n):
    dom, coeffs = COEFFS[ring]
    return st.dictionaries(st.tuples(*[exponent] * n), coeffs, max_size=4).map(
        lambda t: MultiPoly(dom, VARS[:n], t)
    )


def reference_product(p, q):
    """Every term of p times every term of q, summed in a dict keyed by
    exponent tuples, zeros dropped."""
    out = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = tuple(i + j for i, j in zip(ep, eq))
            out[e] = out[e] + cp * cq if e in out else cp * cq
    return {e: c for e, c in out.items() if c}


@ring_param
@nvars_param
@PROPS
@given(data=st.data())
def test_product_is_the_schoolbook_product(ring, n, data):
    p, q = data.draw(polys(ring, n)), data.draw(polys(ring, n))
    assert (p * q).terms == reference_product(p, q)


@ring_param
@nvars_param
@PROPS
@given(data=st.data())
def test_cancelling_product_keeps_no_zero(ring, n, data):
    f, g = data.draw(polys(ring, n)), data.draw(polys(ring, n))
    # the cross terms f*g and -g*f cancel
    prod = (f + g) * (f - g)
    assert prod.terms == reference_product(f + g, f - g)
    assert prod == f * f - g * g


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("m", EDGES)
def test_exponent_sums_at_the_field_width_edges(n, m):
    # the largest exponent sum is 2m, or m + 1 against x + 1
    xs = [MultiPoly.var(ZZ, VARS[:n], v) for v in VARS[:n]]
    p = sum(x**m for x in xs) + 1
    for q in (p, xs[0] + 1, xs[-1] ** m - xs[0]):
        assert (p * q).terms == reference_product(p, q)
