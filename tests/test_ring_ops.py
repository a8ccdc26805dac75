"""The arithmetic protocol shared by the six exact element types.

``scalars.RingOps`` and ``scalars.FieldOps`` write ``-``, ``/`` and ``**``
once.  Property tests (hypothesis) check the laws those operators must
satisfy on every type: QuadExt (d = 105), BranchExt over QQ and over
Q(sqrt(105)), MultiPoly over QQ, RationalFunction over QQ and over
Frac(Q[a]), LaurentSeries over QQ (negative valuations included) and
FunctionFieldElement on y^2 = x^3 + 1.  A last test keeps the derived
operators from being copied back into the classes.
"""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbelyi.curve import BranchExt, BranchExtDomain, CurveModel, FunctionFieldElement
from mpbelyi.poly import FractionFieldDomain, MultiPoly, QQ, QuadDomain, RationalFunction
from mpbelyi.scalars import FieldOps, QuadExt, RingOps
from mpbelyi.series import LaurentSeries

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
small_int = st.integers(-5, 5)
quad = st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)

W7 = BranchExtDomain(QQ, Fraction(7))
WQ = BranchExtDomain(QuadDomain(105), QuadExt(595, -23, 105))
FA = FractionFieldDomain(QQ, ("a",))
CUBIC = CurveModel(MultiPoly.from_univariate(QQ, "x", [1, 0, 0, 1]))


def upoly(dom, coeffs, var="x", size=3):
    return st.lists(coeffs, min_size=1, max_size=size).map(
        lambda cs: MultiPoly.from_univariate(dom, var, cs)
    )


def ratfunc(dom, coeffs, size=3):
    return st.builds(
        RationalFunction, upoly(dom, coeffs, size=size), upoly(dom, coeffs, size=size).filter(bool)
    )


# every coefficient operation over Frac(Q[a]) runs a gcd in Q[a]: keep them small
a_coeff = upoly(QQ, small_int, "a", 2).map(FA.coerce)
bivariate = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_q, max_size=4
).map(lambda terms: MultiPoly(QQ, ("x", "y"), terms))
series = st.builds(
    lambda lo, cs, extra: LaurentSeries(
        QQ, {lo + i: c for i, c in enumerate(cs)}, lo + len(cs) + extra
    ),
    st.integers(-3, 1),
    st.lists(small_q, min_size=1, max_size=4),
    st.integers(0, 3),
)
qq_ratfunc = ratfunc(QQ, small_int)
small_ratfunc = ratfunc(QQ, small_int, size=2)

# name: (element strategy, whether the type is a field)
CASES = {
    "quadext": (quad, True),
    "branch_qq": (st.builds(lambda r, s: W7.coerce(r) + W7.w() * s, small_q, small_q), True),
    "branch_quad": (st.builds(lambda r, s: WQ.coerce(r) + WQ.w() * s, quad, quad), True),
    "multipoly": (bivariate, False),
    "ratfunc_qq": (qq_ratfunc, True),
    "ratfunc_frac_a": (ratfunc(FA, a_coeff, size=2), True),
    "series": (series, True),
    "function_field": (st.builds(CUBIC.element, small_ratfunc, small_ratfunc), True),
}
FIELDS = [name for name, (_, is_field) in CASES.items() if is_field]


def element(name, data, nonzero=False):
    elems = CASES[name][0]
    return data.draw(elems.filter(bool) if nonzero else elems)


def same(x, y):
    """Equal, and for series with the same coefficients and truncation."""
    if isinstance(x, LaurentSeries):
        return x.coeffs == y.coeffs and x.prec == y.prec
    return x == y


@pytest.mark.parametrize("name", CASES)
@PROPS
@given(data=st.data())
def test_sub_is_add_of_negation(name, data):
    a, b = element(name, data), element(name, data)
    assert same(a - b, a + (-b))


@pytest.mark.parametrize("name", CASES)
@PROPS
@given(data=st.data(), k=small_int)
def test_reflected_sub(name, data, k):
    a = element(name, data)
    assert k - a == -(a - k)


@pytest.mark.parametrize("name", FIELDS)
@PROPS
@given(data=st.data())
def test_division_undoes_multiplication(name, data):
    a, b = element(name, data), element(name, data, nonzero=True)
    assert (a / b) * b == a


@pytest.mark.parametrize("name", FIELDS)
@PROPS
@given(data=st.data(), k=small_int)
def test_reflected_division_is_product_with_inverse(name, data, k):
    a = element(name, data, nonzero=True)
    assert k / a == k * a.inverse()


@pytest.mark.parametrize("name", CASES)
@PROPS
@given(data=st.data(), n=st.integers(1, 4))
def test_power_is_repeated_product(name, data, n):
    a = element(name, data, nonzero=True)
    assert same(a**n, functools.reduce(operator.mul, [a] * n))


@pytest.mark.parametrize("name", FIELDS)
@PROPS
@given(data=st.data(), n=st.integers(1, 4))
def test_negative_power_inverts(name, data, n):
    a = element(name, data, nonzero=True)
    assert a ** (-n) * a**n == 1


@pytest.mark.parametrize("name", CASES)
@PROPS
@given(data=st.data())
def test_zeroth_power_is_one(name, data):
    assert element(name, data) ** 0 == 1


@pytest.mark.parametrize("name", CASES)
@PROPS
@given(data=st.data())
def test_non_integer_exponent_is_a_type_error(name, data):
    a = element(name, data)
    with pytest.raises(TypeError):
        a**1.5


def test_series_power_keeps_the_precision_of_a_negative_valuation():
    s = LaurentSeries(QQ, {-2: Fraction(1), 0: Fraction(3)}, 4)
    cube = s**3
    assert cube.prec == 2 * -2 + 4
    assert same(cube, s * s * s)


def test_rational_function_inverse():
    x = MultiPoly.var(QQ, ("x",), "x")
    r = RationalFunction(x + 1, x * x - 2)
    inv = r.inverse()
    assert inv.num == x * x - 2 and inv.den == x + 1
    with pytest.raises(ZeroDivisionError):
        (r - r).inverse()


@pytest.mark.parametrize("name", ["ratfunc_qq", "ratfunc_frac_a"])
@PROPS
@given(data=st.data())
def test_rational_function_inverse_is_in_normal_form(name, data):
    # inverse() skips the gcd; it must still give the normalised num and den
    r = element(name, data, nonzero=True)
    inv, full = r.inverse(), RationalFunction(r.den, r.num)
    assert inv.num == full.num and inv.den == full.den


# the only copy kept: one normalisation of num**n/den**n, not one per product
OVERRIDES = {(RationalFunction, "__pow__")}
DERIVED = ("__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__pow__")


def test_derived_operators_are_written_once():
    classes = (QuadExt, BranchExt, MultiPoly, RationalFunction, LaurentSeries, FunctionFieldElement)
    for cls in classes:
        own = {(cls, name) for name in DERIVED if name in vars(cls)}
        assert own <= OVERRIDES, own - OVERRIDES
        assert issubclass(cls, FieldOps) == (cls is not MultiPoly)
        assert issubclass(cls, RingOps)
        # QuadExt is the BranchExt over QQ: it inherits _wrap, never copies it
        owner = BranchExt if cls is QuadExt else cls
        assert "_wrap" in vars(owner) and "_lift" not in vars(cls)
    assert "_wrap" not in vars(QuadExt)
