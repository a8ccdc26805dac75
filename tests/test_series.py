"""Laurent series tests: frozen expansions first, then algebraic properties
with seeded randomness, precision bookkeeping, and exotic coefficient fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbelyi.poly import FractionFieldDomain, MultiPoly, QQ, QuadDomain, RationalFunction
from mpbelyi.series import LaurentSeries, MAX_TRUNCATION, SeriesPrecisionError
from mpbelyi.scalars import QuadExt


def rand_frac(rng, span=5):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4))


def rand_series(rng, lo=-3, hi=4, prec=10, nonzero=False, unit=False):
    while True:
        coeffs = {k: rand_frac(rng) for k in range(lo, hi)}
        if unit:
            coeffs[lo] = abs(rand_frac(rng)) + 1
        s = LaurentSeries(QQ, coeffs, prec)
        if s or not nonzero:
            return s


# -- frozen expansions -------------------------------------------------------


def test_geometric_series():
    one_minus_t = LaurentSeries(QQ, {0: Fraction(1), 1: Fraction(-1)}, 12)
    g = one_minus_t.inverse()
    for k in range(g.prec):
        assert g.coefficient_of(k) == 1


def test_sqrt_of_one_plus_t_binomial_coefficients():
    s = LaurentSeries(QQ, {0: Fraction(1), 1: Fraction(1)}, 8).sqrt()
    expect = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
        Fraction(7, 256),
    ]
    for k, c in enumerate(expect):
        assert s.coefficient_of(k) == c


def test_power_binomials():
    s = LaurentSeries(QQ, {0: Fraction(1), 1: Fraction(1)}, 10) ** 5
    assert [s.coefficient_of(k) for k in range(6)] == [1, 5, 10, 10, 5, 1]


def test_compose_known_example():
    # 1/(1-t) composed with t+t^2: coefficients of sum_k (t+t^2)^k
    f = LaurentSeries(QQ, {0: Fraction(1), 1: Fraction(-1)}, 8).inverse()
    g = LaurentSeries(QQ, {1: Fraction(1), 2: Fraction(1)}, 8)
    h = f.compose(g)
    # 1 + (t+t^2) + (t+t^2)^2 + ... collected by hand through t^4
    assert h.coefficient_of(0) == 1
    assert h.coefficient_of(1) == 1
    assert h.coefficient_of(2) == 2
    assert h.coefficient_of(3) == 3
    assert h.coefficient_of(4) == 5


# -- algebraic properties ------------------------------------------------------


def test_inverse_roundtrip_random():
    rng = random.Random(1221)
    for _ in range(40):
        s = rand_series(rng, lo=rng.randrange(-3, 2), nonzero=True, unit=True)
        prod = s * s.inverse()
        assert prod.coefficient_of(0) == 1
        for k in range(1, prod.prec):
            assert prod.coefficient_of(k) == 0
        for k in range(min(prod.coeffs, default=0), 0):
            assert prod.coefficient_of(k) == 0


def test_sqrt_squares_back_random():
    rng = random.Random(3443)
    for _ in range(30):
        v = 2 * rng.randrange(-1, 2)
        s = rand_series(rng, lo=v, hi=v + 6, prec=v + 9, nonzero=True, unit=True)
        sq = s * s
        r = sq.sqrt()
        assert r * r == sq


def test_sqrt_rejects_odd_valuation_and_nonsquare_lead():
    t = LaurentSeries(QQ, {1: Fraction(1)}, 8)
    with pytest.raises(ArithmeticError):
        t.sqrt()
    s = LaurentSeries(QQ, {0: Fraction(2), 1: Fraction(1)}, 8)
    with pytest.raises(ArithmeticError):
        s.sqrt()


def convolution_sqrt(f, root):
    """The root by the convolution the recurrence replaced, as a reference.
    With f = lead * t^v * (1 + u), s = 1 + s_1 t + ... solves s^2 = 1 + u
    by s_n = u_n/2 - s_(n/2)^2/2 - sum of s_i s_(n-i) over 0 < i < n/2,
    about n^2/4 products for n terms; the root is root * t^(v/2) * s."""
    dom = f.dom
    v = f.valuation()
    inv_lead = dom.inv(f.coeffs[v])
    half = dom.coerce(Fraction(1, 2))
    s = [dom.one]
    for n in range(1, f.prec - v):
        acc = f.coefficient_of(v + n) * inv_lead * half
        if n % 2 == 0:
            acc = acc - s[n // 2] * s[n // 2] * half
        for i in range(1, (n + 1) // 2):
            acc = acc - s[i] * s[n - i]
        s.append(acc)
    return LaurentSeries(dom, {n + v // 2: c * root for n, c in enumerate(s)}, f.prec - v + v // 2)


def assert_same_series(got, want):
    assert got.prec == want.prec and got.coeffs == want.coeffs


small_q = st.fractions(min_value=-9, max_value=9, max_denominator=6)
ROOT_FIELDS = {
    "qq": (QQ, small_q),
    "q5": (QuadDomain(5), st.builds(lambda r, s: QuadExt(r, s, 5), small_q, small_q)),
}


@pytest.mark.parametrize("shape", ["sparse", "dense"])
@pytest.mark.parametrize("field", ROOT_FIELDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sqrt_is_the_convolution_root(field, shape, data):
    """Miller's recurrence gives the convolution's root, from the field's
    root of the lead or from a given one, on series with a few nonzero
    terms (as a frame's f(x(t))) and on series with none zero."""
    dom, coeffs = ROOT_FIELDS[field]
    r = data.draw(coeffs.filter(bool))
    v = data.draw(st.sampled_from([-4, -2, 0, 2]))
    window = data.draw(st.integers(1, 9))
    if shape == "sparse":
        keys = sorted(data.draw(st.sets(st.integers(1, 8), max_size=3)))
    else:
        keys = range(1, window)
    tail = data.draw(st.lists(coeffs.filter(bool), min_size=len(keys), max_size=len(keys)))
    terms = {v: r * r}
    terms.update({v + k: c for k, c in zip(keys, tail)})
    f = LaurentSeries(dom, terms, v + window)
    assert_same_series(f.sqrt(), convolution_sqrt(f, dom.sqrt(r * r)))
    assert_same_series(f.sqrt(r), convolution_sqrt(f, r))
    assert_same_series(f.sqrt(-r), -f.sqrt(r))
    with pytest.raises(ArithmeticError):
        f.sqrt(r * 2)


def test_derivative_leibniz_random():
    rng = random.Random(5665)
    for _ in range(30):
        a = rand_series(rng)
        b = rand_series(rng)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs


def test_residue_invariant_under_reparametrization():
    # the t^-1 coefficient of f dt is coordinate-free: pulling back along
    # t = s(1 + alpha*s) and multiplying by dt/ds must preserve it
    rng = random.Random(7777)
    for _ in range(30):
        f = rand_series(rng, lo=-3, hi=3, prec=9, nonzero=True)
        alpha = rand_frac(rng)
        g = LaurentSeries(QQ, {1: Fraction(1), 2: alpha}, 9)
        pulled = f.compose(g) * g.derivative()
        assert pulled.coefficient_of(-1) == f.coefficient_of(-1)


# -- precision bookkeeping --------------------------------------------------------


def test_coefficient_beyond_truncation_raises():
    s = LaurentSeries(QQ, {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}, 3)
    assert s.coefficient_of(2) == 3
    with pytest.raises(SeriesPrecisionError) as e:
        s.coefficient_of(3)
    assert e.value.needed == 4


def test_mul_precision_rule():
    a = LaurentSeries(QQ, {-2: Fraction(1)}, 5)
    b = LaurentSeries(QQ, {3: Fraction(1)}, 4)
    prod = a * b
    # min(va + prec_b, vb + prec_a) = min(-2+4, 3+5) = 2
    assert prod.prec == 2
    assert prod.coefficient_of(1) == 1
    with pytest.raises(SeriesPrecisionError):
        prod.coefficient_of(2)


def test_inverse_precision_rule():
    s = LaurentSeries(QQ, {2: Fraction(1), 3: Fraction(1)}, 7)
    inv = s.inverse()
    assert inv.prec == 7 - 2 * 2
    assert inv.coefficient_of(-2) == 1


def test_equality_respects_window():
    a = LaurentSeries(QQ, {0: Fraction(1), 5: Fraction(9)}, 6)
    b = LaurentSeries(QQ, {0: Fraction(1)}, 4)
    assert a == b
    c = LaurentSeries(QQ, {0: Fraction(1), 3: Fraction(2)}, 6)
    assert a != c


def test_truncation_cap_clamps():
    s = LaurentSeries.const(QQ, 1, 1000)
    assert s.prec == MAX_TRUNCATION
    with pytest.raises(SeriesPrecisionError):
        s.coefficient_of(MAX_TRUNCATION)


# -- exotic coefficient fields ------------------------------------------------------


def test_rational_function_coefficients_geometric():
    dom = FractionFieldDomain(QQ, ("a",))
    a = RationalFunction(MultiPoly.var(QQ, ("a",), "a"))
    s = LaurentSeries(dom, {0: dom.one, 1: -a}, 9)
    inv = s.inverse()
    for k in range(9):
        assert inv.coefficient_of(k) == a**k


def test_quadratic_field_coefficient_sqrt():
    dom = QuadDomain(105)
    s = LaurentSeries(dom, {0: QuadExt(105, 0, 105), 1: QuadExt(105, 0, 105)}, 6)
    r = s.sqrt()
    assert r.coefficient_of(0) == QuadExt(0, 1, 105)
    assert r * r == s


def test_shift_and_pow_negative():
    s = LaurentSeries(QQ, {0: Fraction(1), 1: Fraction(1)}, 6)
    t2 = s.shift(2)
    assert t2.valuation() == 2
    inv2 = s ** (-2)
    prod = inv2 * s * s
    assert prod.coefficient_of(0) == 1
    for k in range(1, prod.prec):
        assert prod.coefficient_of(k) == 0
